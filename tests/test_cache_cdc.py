"""Change-data-capture off the cache's write path.

Every acked backing write — a direct write for the synchronous
policies, a flush ack for write-behind — bumps ``cache.cdc_events`` and
leaves one ``cdc`` trace annotation carrying a dense per-store
sequence number.
"""

from repro.api import registry
from repro.sim import FixedLatency, Network, Simulator, Tracer, spawn
from repro.sim.trace import filter_events


def build_cached(sim, net, policy="write_through", **kwargs):
    kwargs.setdefault("miss_mode", "quorum")
    return registry.build("cached", sim, net, protocol="quorum",
                          policy=policy, nodes=3, **kwargs)


def drive(sim, script):
    process = spawn(sim, script)
    sim.run()
    if process.error is not None:
        raise process.error


def cdc_annotations(tracer):
    return filter_events(tracer.events, kind="annotation", category="cdc")


def test_cache_writes_feed_the_cdc_log():
    tracer = Tracer()
    sim = Simulator(seed=5, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    store = build_cached(sim, net)
    session = store.session("alice")

    def script():
        for i in range(4):
            yield session.put(f"k{i}", f"v{i}")

    drive(sim, script())
    assert sim.metrics.counter("cache.cdc_events").value == 4
    events = cdc_annotations(tracer)
    assert [(e.data["op"], e.data["key"], e.data["seq"]) for e in events] == [
        ("append", f"k{i}", i + 1) for i in range(4)
    ]


def test_write_behind_cdc_appends_on_flush_ack():
    tracer = Tracer()
    sim = Simulator(seed=5, tracer=tracer)
    net = Network(sim, latency=FixedLatency(2.0))
    store = build_cached(sim, net, policy="write_behind",
                         flush_delay=10.0)
    session = store.session("alice")

    def script():
        yield session.put("k", "v1")

    drive(sim, script())
    store.settle()
    sim.run()
    # One write, one flush: one backing write, one CDC event.
    metrics = sim.metrics
    assert metrics.counter("cache.wb_flushes").value == 1
    assert metrics.counter("cache.cdc_events").value == 1
    assert all(snap.get("k") == "v1" for snap in store.snapshots())
    (event,) = cdc_annotations(tracer)
    assert (event.data["key"], event.data["seq"]) == ("k", 1)
    # The CDC event lands at the flush ack, not the cache ack at t=0.
    assert event.time > 0.0
