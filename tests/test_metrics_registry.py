"""Tests for the sim-wide metrics registry (repro.analysis.registry)."""

from repro.analysis import Counter, Gauge, MetricsRegistry
from repro.replication import DynamoCluster, GossipCluster
from repro.replication.common import ClientNode
from repro.rpc import rpc_counters
from repro.sim import FixedLatency, Network, Simulator, spawn


def test_handles_are_get_or_create():
    registry = MetricsRegistry()
    counter = registry.counter("x.count")
    assert registry.counter("x.count") is counter
    counter.inc()
    counter.inc(4)
    assert registry.counter("x.count").value == 5
    gauge = registry.gauge("x.level")
    assert registry.gauge("x.level") is gauge
    gauge.set(2.5)
    assert registry.gauge("x.level").value == 2.5
    stats = registry.latency("x.ms")
    assert registry.latency("x.ms") is stats


def test_counter_group_is_built_once_from_the_registrys_handles():
    registry = MetricsRegistry()
    group = registry.counter_group("rpc", ("calls", "retries"))
    assert group == {"calls": registry.counter("rpc.calls"),
                     "retries": registry.counter("rpc.retries")}
    assert registry.counter_group("rpc", ("calls", "retries")) is group
    assert registry.counter_group("rpc", ("calls",)) is not group
    sim = Simulator()
    net = Network(sim)
    clients = [ClientNode(sim, net, f"c{i}") for i in range(2)]
    assert clients[0]._rpc_counters is clients[1]._rpc_counters
    assert rpc_counters(sim.metrics) is clients[0]._rpc_counters


def test_prefix_filtering_and_membership():
    registry = MetricsRegistry()
    registry.counter("net.sent").inc()
    registry.counter("quorum.reads").inc(2)
    registry.gauge("quorum.pending").set(1)
    assert registry.counters("quorum") == {"quorum.reads": 2}
    assert registry.gauges("net") == {}
    assert "net.sent" in registry
    assert "nope" not in registry
    assert list(registry) == ["net.sent", "quorum.pending", "quorum.reads"]


def test_snapshot_is_plain_data():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.gauge("b").set(3.0)
    registry.latency("c").record(10.0)
    snap = registry.snapshot()
    assert snap["counters"] == {"a": 1}
    assert snap["gauges"] == {"b": 3.0}
    assert snap["latencies"]["c"]["count"] == 1


def test_render_aligns_and_handles_empty():
    registry = MetricsRegistry()
    assert registry.render() == "(no metrics)"
    registry.counter("short").inc()
    registry.counter("much.longer.name").inc(7)
    lines = registry.render().splitlines()
    assert len(lines) == 2
    assert lines[0].index("7") == lines[1].index("1")  # aligned values


def test_every_simulator_owns_a_registry():
    sim1, sim2 = Simulator(), Simulator()
    assert isinstance(sim1.metrics, MetricsRegistry)
    assert sim1.metrics is not sim2.metrics
    shared = MetricsRegistry()
    assert Simulator(metrics=shared).metrics is shared


def test_network_publishes_into_registry():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(1.0))

    class Sink:
        def __init__(self, node_id):
            self.node_id = node_id
            self.crashed = False
            net.register(self)

        def deliver(self, src, message):
            pass

    Sink("a"), Sink("b")
    net.send("a", "b", "m")
    sim.run()
    assert sim.metrics.counter("net.messages_sent").value == 1
    assert sim.metrics.counter("net.messages_delivered").value == 1
    assert sim.metrics.counter("net.by_type.str").value == 1
    assert sim.metrics.counters("net.by_type.") == {"net.by_type.str": 1}


def test_quorum_metrics_in_registry():
    sim = Simulator(seed=1)
    net = Network(sim, latency=FixedLatency(2.0))
    cluster = DynamoCluster(sim, net, nodes=3, n=3, r=2, w=2)
    client = cluster.connect()

    def script():
        yield client.put("k", "v1")
        yield client.get("k")

    spawn(sim, script())
    sim.run()
    metrics = sim.metrics
    assert metrics.counter("quorum.writes_succeeded").value == 1
    assert metrics.latency("quorum.write_ms").count == 1
    assert metrics.latency("quorum.read_ms").count == 1
    rendered = metrics.render(prefix="quorum")
    assert "quorum.writes_succeeded" in rendered


def test_gossip_metrics_in_registry():
    sim = Simulator(seed=2)
    net = Network(sim, latency=FixedLatency(2.0))
    cluster = GossipCluster(sim, net, nodes=4, interval=10.0)
    cluster.replicas[0].write("k", "v")
    cluster.run_until_converged()
    assert sim.metrics.counter("gossip.rounds_started").value > 0
    assert sim.metrics.counter("gossip.entries_merged").value >= 3


def test_counter_and_gauge_exported_types():
    assert isinstance(MetricsRegistry().counter("c"), Counter)
    assert isinstance(MetricsRegistry().gauge("g"), Gauge)
