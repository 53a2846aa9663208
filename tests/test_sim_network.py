"""Unit tests for the simulated network: latency, loss, partitions."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.placement import Placement
from repro.sim import (
    ExponentialLatency,
    FixedLatency,
    HashingTracer,
    LogNormalLatency,
    MatrixLatency,
    Network,
    Simulator,
    Tracer,
    estimate_size,
)
from repro.sim import network as network_module
from repro.sim.network import LOOPBACK_LATENCY
from repro.sim.topology import Topology, symmetric_delays


class Sink:
    """Minimal node: records (time, src, msg) deliveries."""

    def __init__(self, sim, network, node_id):
        self.sim = sim
        self.node_id = node_id
        self.crashed = False
        self.received = []
        network.register(self)

    def deliver(self, src, message):
        self.received.append((self.sim.now, src, message))


def make_net(seed=0, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, **kwargs)
    nodes = {name: Sink(sim, net, name) for name in ("a", "b", "c")}
    return sim, net, nodes


def test_fixed_latency_delivery():
    sim, net, nodes = make_net(latency=FixedLatency(7.0))
    net.send("a", "b", "hello")
    sim.run()
    assert nodes["b"].received == [(7.0, "a", "hello")]
    assert sim.metrics.counter("net.messages_delivered").value == 1


def test_loopback_uses_loopback_latency():
    sim, net, nodes = make_net(latency=FixedLatency(50.0))
    net.send("a", "a", "self")
    sim.run()
    assert nodes["a"].received[0][0] == LOOPBACK_LATENCY


def test_unknown_destination_rejected():
    _sim, net, _nodes = make_net()
    with pytest.raises(NetworkError):
        net.send("a", "nope", "x")


def test_duplicate_node_registration_rejected():
    sim, net, _nodes = make_net()
    with pytest.raises(NetworkError):
        Sink(sim, net, "a")


def test_loss_rate_drops_messages():
    sim, net, nodes = make_net(seed=3, loss_rate=0.5)
    for _ in range(200):
        net.send("a", "b", "m")
    sim.run()
    delivered = len(nodes["b"].received)
    assert 60 < delivered < 140
    assert sim.metrics.counter("net.messages_dropped_loss").value == 200 - delivered


def test_duplicate_rate_duplicates_messages():
    sim, net, nodes = make_net(seed=5, duplicate_rate=0.5)
    for _ in range(100):
        net.send("a", "b", "m")
    sim.run()
    assert len(nodes["b"].received) > 120
    assert sim.metrics.counter("net.messages_duplicated").value == len(nodes["b"].received) - 100


def test_partition_blocks_cross_group_traffic_only():
    sim, net, nodes = make_net()
    net.partition(["a"], ["b", "c"])
    net.send("a", "b", "blocked")
    net.send("b", "c", "allowed")
    sim.run()
    assert nodes["b"].received == []
    assert len(nodes["c"].received) == 1
    assert sim.metrics.counter("net.messages_dropped_partition").value == 1


def test_unnamed_nodes_form_implicit_partition_group():
    sim, net, nodes = make_net()
    net.partition(["a"])  # b and c land in the implicit group together
    net.send("b", "c", "m")
    net.send("c", "a", "blocked")
    sim.run()
    assert len(nodes["c"].received) == 1
    assert nodes["a"].received == []


def test_late_registered_nodes_share_the_implicit_leftover_group():
    # Clients created lazily *during* a partition (sharded sessions
    # build per-shard clients at first op) land together in the
    # implicit leftover group: when every pre-existing node was named
    # into a side, late arrivals can still reach *each other*, and a
    # self-send still works — nobody is marooned alone.
    sim, net, nodes = make_net()
    net.partition(["a"], ["b", "c"])
    late1 = Sink(sim, net, "late1")
    Sink(sim, net, "late2")
    assert net.reachable("late1", "late2")
    assert net.reachable("late1", "late1")
    assert not net.reachable("late1", "a")
    assert not net.reachable("b", "late1")
    net.send("late2", "late1", "m")
    net.send("late1", "a", "blocked")
    sim.run()
    assert len(late1.received) == 1
    assert nodes["a"].received == []


def test_late_registered_node_joins_the_unnamed_group_when_present():
    sim, net, nodes = make_net()
    net.partition(["a"])  # b, c implicit
    late = Sink(sim, net, "late")
    net.send("late", "c", "m")
    sim.run()
    assert len(nodes["c"].received) == 1
    assert not net.reachable("late", "a")
    assert net.reachable("late", "late")


def test_heal_restores_connectivity():
    sim, net, nodes = make_net()
    net.partition(["a"], ["b"])
    assert net.partitioned
    net.heal()
    assert not net.partitioned
    net.send("a", "b", "m")
    sim.run()
    assert len(nodes["b"].received) == 1


def test_partition_with_unknown_or_duplicate_node_rejected():
    _sim, net, _nodes = make_net()
    with pytest.raises(NetworkError):
        net.partition(["zz"])
    with pytest.raises(NetworkError):
        net.partition(["a"], ["a"])


def test_crashed_node_drops_incoming():
    sim, net, nodes = make_net()
    nodes["b"].crashed = True
    net.send("a", "b", "m")
    sim.run()
    assert nodes["b"].received == []
    assert sim.metrics.counter("net.messages_dropped_crash").value == 1


def test_crashed_source_cannot_send():
    # Regression: fail-stop means a crashed node must not put messages
    # on the wire — Network.send used to only check the *destination*,
    # so a crashed replica's queued timers could still gossip.
    sim, net, nodes = make_net()
    nodes["a"].crashed = True
    net.send("a", "b", "from-the-grave")
    sim.run()
    assert nodes["b"].received == []
    assert sim.metrics.counter("net.messages_dropped_crash").value == 1
    assert sim.metrics.counter("net.messages_delivered").value == 0


def test_crashed_source_drop_counted_before_partition():
    # A crashed sender behind a partition is accounted as a crash drop
    # (fail-stop is checked first — the message never reaches a link).
    sim, net, nodes = make_net()
    net.partition(["a"], ["b", "c"])
    nodes["a"].crashed = True
    net.send("a", "b", "m")
    sim.run()
    assert sim.metrics.counter("net.messages_dropped_crash").value == 1
    assert sim.metrics.counter("net.messages_dropped_partition").value == 0


def test_broadcast_tolerates_registration_during_iteration():
    # Regression: broadcast iterated the live node dict; a node
    # registered from within send() (e.g. by a latency-model callback)
    # raised "dictionary changed size during iteration".
    sim = Simulator(seed=0)

    class RegisteringLatency:
        """Registers a new node the first time it samples a delay."""

        def __init__(self):
            self.fired = False

        def sample(self, rng, src, dst):
            if not self.fired:
                self.fired = True
                Sink(sim, net, "late-joiner")
            return 1.0

    net = Network(sim, latency=RegisteringLatency())
    nodes = {name: Sink(sim, net, name) for name in ("a", "b", "c")}
    net.broadcast("a", "hello")  # must not raise
    sim.run()
    assert len(nodes["b"].received) == 1
    assert len(nodes["c"].received) == 1
    # The node that joined mid-broadcast is not retroactively included.
    assert net.node("late-joiner").received == []


def test_broadcast_excludes_self_by_default():
    sim, net, nodes = make_net()
    net.broadcast("a", "all")
    sim.run()
    assert len(nodes["a"].received) == 0
    assert len(nodes["b"].received) == 1
    assert len(nodes["c"].received) == 1


def test_stats_by_type_counts_message_classes():
    sim, net, _nodes = make_net()
    net.send("a", "b", "text")
    net.send("a", "b", 42)
    net.send("a", "b", 43)
    sim.run()
    assert sim.metrics.counters("net.by_type.") == {
        "net.by_type.str": 1, "net.by_type.int": 2}


def test_byte_tracking_optional():
    sim, net, _nodes = make_net(track_bytes=True)
    net.send("a", "b", "hello")
    assert sim.metrics.counter("net.bytes_sent").value == estimate_size("hello")


def test_invalid_rates_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Network(sim, loss_rate=1.5)
    with pytest.raises(NetworkError):
        Network(sim, duplicate_rate=-0.1)


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------

def _samples(model, n=500, seed=1):
    sim = Simulator(seed=seed)
    return [model.sample(sim.rng, "a", "b") for _ in range(n)]


def test_exponential_latency_floor_and_mean():
    values = _samples(ExponentialLatency(base=1.0, mean=2.0), n=4000)
    assert all(v >= 1.0 for v in values)
    mean = sum(values) / len(values)
    assert 2.6 < mean < 3.4  # base + mean = 3.0


def test_lognormal_latency_positive_with_median_near_parameter():
    values = sorted(_samples(LogNormalLatency(median=10.0, sigma=0.3), n=4001))
    assert all(v > 0 for v in values)
    assert 8.5 < values[len(values) // 2] < 11.5


def test_matrix_latency_symmetric_fallback_and_default():
    model = MatrixLatency({("x", "y"): 5.0, ("y", "z"): 7.0,
                           ("z", "y"): 9.0}, jitter=0.0)
    sim = Simulator()
    assert model.sample(sim.rng, "x", "y") == 5.0
    assert model.sample(sim.rng, "y", "x") == 5.0  # reverse direction
    # A direction with its own entry keeps it.
    assert model.sample(sim.rng, "z", "y") == 9.0
    assert model.sample(sim.rng, "y", "z") == 7.0


def test_matrix_latency_missing_entry_without_default_raises():
    model = MatrixLatency({}, jitter=0.0)
    sim = Simulator()
    with pytest.raises(NetworkError):
        model.sample(sim.rng, "p", "q")


def test_matrix_latency_site_mapping_and_jitter():
    site_of = {"n1": "east", "n2": "west"}.__getitem__
    model = MatrixLatency({("east", "west"): 10.0}, site_of=site_of, jitter=0.5)
    sim = Simulator(seed=2)
    values = [model.sample(sim.rng, "n1", "n2") for _ in range(100)]
    assert all(10.0 <= v <= 15.0 for v in values)
    assert max(values) > 12.0  # jitter actually applied


def test_invalid_latency_parameters_rejected():
    with pytest.raises(NetworkError):
        FixedLatency(-1.0)
    with pytest.raises(NetworkError):
        ExponentialLatency(mean=0.0)
    with pytest.raises(NetworkError):
        LogNormalLatency(median=0.0)


# ----------------------------------------------------------------------
# Size estimation
# ----------------------------------------------------------------------

def test_estimate_size_scales_with_content():
    assert estimate_size("ab") < estimate_size("ab" * 50)
    assert estimate_size([1, 2, 3]) < estimate_size(list(range(100)))
    assert estimate_size({"k": "v"}) > estimate_size({})


def test_estimate_size_handles_objects_and_none():
    class Thing:
        def __init__(self):
            self.a = 1
            self.b = "xyz"

    assert estimate_size(None) == 1
    assert estimate_size(Thing()) > 8


# ----------------------------------------------------------------------
# One reachability rule under send() and reachable()
# ----------------------------------------------------------------------

NAMES = [f"n{i}" for i in range(6)]
pairs_st = st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES))


@given(
    early=st.integers(2, 6),
    # Group index per early node; None leaves it unnamed (leftover).
    groups=st.none() | st.lists(
        st.none() | st.integers(0, 2), min_size=6, max_size=6),
    faults=st.lists(st.tuples(
        pairs_st,
        st.sampled_from([{"down": True}, {"drop_rate": 0.5},
                         {"extra_delay": 3.0}]),
    ), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_reachable_iff_send_is_not_blocked(early, groups, faults):
    tracer = Tracer()
    sim = Simulator(seed=1, tracer=tracer)
    net = Network(sim)
    for name in NAMES[:early]:
        Sink(sim, net, name)
    if groups is not None:
        named = {}
        for name, group in zip(NAMES[:early], groups):
            if group is not None:
                named.setdefault(group, []).append(name)
        net.partition(*named.values())
    for name in NAMES[early:]:      # registered after the split
        Sink(sim, net, name)
    for (a, b), fault in faults:
        if a != b:
            net.set_link_fault(a, b, **fault)
    for src in NAMES:
        for dst in NAMES:
            seen = len(tracer)
            net.send(src, dst, "m")
            reasons = {event.data["reason"]
                       for event in tracer.events[seen:]
                       if event.kind == "msg_drop"}
            assert reasons <= {"partition", "link_down", "link_loss"}
            blocked = bool(reasons & {"partition", "link_down"})
            assert net.reachable(src, dst) == (not blocked), (src, dst)


# ----------------------------------------------------------------------
# link_sampler(a, b)(rng) is sample(rng, a, b), draw for draw
# ----------------------------------------------------------------------

SITES = ("us", "eu", "ap")
SAME_SITE = {(site, site): 1.0 for site in SITES}
SITE_PLACEMENT = Placement(Topology("three", SITES, symmetric_delays(
    {("us", "eu"): 40.0, ("us", "ap"): 70.0, ("eu", "ap"): 110.0})))
for _site in SITES:
    SITE_PLACEMENT.place(_site, _site)
LATENCY_MODELS = {
    "fixed": FixedLatency(2.5),
    "exponential": ExponentialLatency(base=0.3, mean=1.7),
    "lognormal": LogNormalLatency(median=2.0, sigma=0.7),
    "matrix": MatrixLatency({("us", "eu"): 40.0, ("us", "ap"): 70.0,
                             ("eu", "ap"): 110.0, **SAME_SITE}, jitter=0.2),
    "matrix-no-jitter": MatrixLatency(
        {("us", "eu"): 40.0, ("us", "ap"): 1.0, ("eu", "ap"): 1.0,
         **SAME_SITE}, jitter=0.0),
    "topology": SITE_PLACEMENT.latency_model(jitter=0.1),
}


@pytest.mark.parametrize("name", LATENCY_MODELS)
def test_link_sampler_draws_what_sample_draws(name):
    model = LATENCY_MODELS[name]
    for a in SITES:
        for b in SITES:
            direct, through = random.Random(11), random.Random(11)
            sampler = model.link_sampler(a, b)
            for _ in range(1000):
                assert sampler(through) == model.sample(direct, a, b)
            assert through.getstate() == direct.getstate()


@pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 7])
def test_exponential_sampler_is_expovariate_bit_for_bit(seed):
    # The sampler inlines Random.expovariate's expression; this pins it to
    # the running interpreter's own (CI runs 3.10 and 3.12).
    base, mean = 0.3, 1.7
    sampler = ExponentialLatency(base, mean).link_sampler("a", "b")
    inlined, stdlib = random.Random(seed), random.Random(seed)
    for _ in range(1000):
        assert sampler(inlined) == base + stdlib.expovariate(1.0 / mean)
    assert inlined.getstate() == stdlib.getstate()


# ----------------------------------------------------------------------
# send_many is the loop, byte for byte
# ----------------------------------------------------------------------

@dataclass
class Note:
    n: int


FAN_NODES = ("a", "b", "c", "d")
FAN_MESSAGES = ("text", Note(1))
node_st = st.sampled_from(FAN_NODES)
FAULTS = [{"down": True}, {"drop_rate": 0.5}, {"extra_delay": 2.0}, {}]
step_st = st.one_of(
    st.tuples(st.just("fan"), node_st, st.lists(node_st, max_size=6),
              st.sampled_from(FAN_MESSAGES)),
    st.tuples(st.just("partition"), st.lists(node_st, unique=True, max_size=3)),
    st.tuples(st.just("heal")),
    st.tuples(st.just("fault"), node_st, node_st, st.sampled_from(FAULTS)),
    st.tuples(st.just("loss"), st.sampled_from([0.0, 0.3])),
    st.tuples(st.just("duplicate"), st.sampled_from([0.0, 0.3])),
    st.tuples(st.just("crash"), node_st),
    st.tuples(st.just("recover"), node_st),
    st.tuples(st.just("run"), st.sampled_from([0.5, 1.0, 3.0])),
)
#: name -> (tracer factory, what to compare of the tracer afterwards)
TRACERS = {
    "off": (lambda: None, lambda tracer: None),
    "tracer": (Tracer, Tracer.dumps_jsonl),
    "hashing": (HashingTracer, HashingTracer.hexdigest),
}


def _play(steps, fan_out, latency, track_bytes, tracer):
    make_tracer, read_trace = TRACERS[tracer]
    sim = Simulator(seed=9, tracer=make_tracer())
    net = Network(sim, latency=latency(), track_bytes=track_bytes)
    nodes = {name: Sink(sim, net, name) for name in FAN_NODES}
    for step in steps:
        kind = step[0]
        if kind == "fan":
            fan_out(net, *step[1:])
        elif kind == "partition":
            net.partition(step[1])
        elif kind == "heal":
            net.heal()
        elif kind == "fault" and step[1] != step[2]:
            net.set_link_fault(step[1], step[2], **step[3])
        elif kind == "loss":
            net.loss_rate = step[1]
        elif kind == "duplicate":
            net.duplicate_rate = step[1]
        elif kind in ("crash", "recover"):
            nodes[step[1]].crashed = kind == "crash"
        elif kind == "run":
            sim.run(until=sim.now + step[1])
    sim.run()
    return (
        sim.metrics.snapshot(),
        read_trace(sim.trace),
        sim.rng.getstate(),
        {name: node.received for name, node in nodes.items()},
        sim.events_processed,
        sim.now,
    )


def _loop(net, src, dsts, message):
    for dst in dsts:
        net.send(src, dst, message)


@given(
    steps=st.lists(step_st, max_size=25),
    latency=st.sampled_from([
        lambda: FixedLatency(1.0),             # buckets that really group
        lambda: ExponentialLatency(0.3, 1.0),
    ]),
    track_bytes=st.booleans(),
    tracer=st.sampled_from(sorted(TRACERS)),
)
@settings(max_examples=300, deadline=None)
def test_send_many_is_the_send_loop(steps, latency, track_bytes, tracer):
    fanned = _play(steps, Network.send_many, latency, track_bytes, tracer)
    looped = _play(steps, _loop, latency, track_bytes, tracer)
    assert fanned == looped


def test_send_many_script_meets_fast_path_grouping_and_every_fault():
    """A seeded twin of the property: one script that provably runs the
    fast path into shared buckets, loopback and repeats, then every
    delegating condition."""
    steps = [
        ("fan", "a", ["b", "b", "a", "c", "b"], "warm"),  # new type: delegates
        ("fan", "a", ["b", "b", "a", "c", "b"], "fast"),  # groups 3 on b
        ("fan", "d", ["b", "c"], "fast"),                 # joins b's bucket
        ("crash", "c"), ("run", 3.0),                     # c dies in flight
        ("fan", "c", ["a", "b"], "dead source"), ("recover", "c"),
        ("partition", ["a", "b"]), ("fan", "a", ["b", "c", "d"], "split"),
        ("heal",), ("fault", "a", "b", {"down": True}),
        ("fault", "a", "c", {"drop_rate": 0.5}),
        ("fault", "a", "d", {"extra_delay": 2.0}),
        ("fan", "a", ["b", "c", "d", "c", "d"], "faulted"),
        ("fault", "a", "b", {}), ("fault", "a", "c", {}), ("fault", "a", "d", {}),
        ("loss", 0.3), ("duplicate", 0.3),
        ("fan", "b", ["a", "c", "d", "a", "c", "d"], "lossy"),
    ]
    for tracer in TRACERS:
        fanned = _play(steps, Network.send_many, lambda: FixedLatency(1.0), False, tracer)
        assert fanned == _play(steps, _loop, lambda: FixedLatency(1.0), False, tracer)
    counters, _, _, received, _, _ = fanned
    assert [m for _, _, m in received["b"][:5]] == ["warm"] * 3 + ["fast"] * 2
    assert counters["counters"]["net.messages_dropped_crash"] >= 3
    assert counters["counters"]["net.messages_dropped_partition"] == 2
    assert counters["counters"]["net.messages_dropped_link"] >= 1
    assert counters["counters"]["net.messages_dropped_loss"] >= 1
    assert counters["counters"]["net.messages_duplicated"] >= 1


def test_grouped_delivery_is_one_event_with_per_message_credit_and_crash_check(
        monkeypatch):
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    net = Network(sim, latency=FixedLatency(1.0))

    class Fragile(Sink):
        def deliver(self, src, message):
            super().deliver(src, message)
            self.crashed = message == "poison"

    b = Fragile(sim, net, "b")
    for name in ("a", "c"):
        Sink(sim, net, name)
    net.send("a", "b", "one")
    net.send("a", "b", "poison")            # b crashes itself mid-batch
    net.send_many("c", ["b", "b"], "late")
    assert sim.pending_events == 1          # four messages, one dispatch
    sim.run()
    assert b.received == [(1.0, "a", "one"), (1.0, "a", "poison")]
    assert sim.metrics.counter("net.messages_delivered").value == 2
    assert sim.metrics.counter("net.messages_dropped_crash").value == 2
    assert sim.events_processed == 4        # the three pops the queue was spared
    assert [e.data["fn"] for e in tracer.events if e.kind == "event_executed"] == [
        "Network._deliver"]
    assert [(e.kind, e.data["src"]) for e in tracer.events
            if e.kind in ("msg_deliver", "msg_drop")] == [
        ("msg_deliver", "a"), ("msg_deliver", "a"), ("msg_drop", "c"), ("msg_drop", "c")]
    # A message landing at the same instant after the batch ran is a new event.
    b.crashed = False
    monkeypatch.setattr(network_module, "LOOPBACK_LATENCY", 0.0)
    net.send("b", "b", "again")
    sim.run()
    assert b.received[-1] == (1.0, "b", "again") and sim.events_processed == 5


def test_send_many_unknown_destination_raises_after_the_earlier_sends():
    for warm in (False, True):          # delegating first sighting, then fast path
        sim, net, nodes = make_net(latency=FixedLatency(1.0))
        if warm:
            net.send("a", "b", "m")
        with pytest.raises(NetworkError, match="nope"):
            net.send_many("a", ["b", "c", "nope", "b"], "m")
        sim.run()
        assert len(nodes["b"].received) == 1 + warm
        assert len(nodes["c"].received) == 1
        assert sim.metrics.counter("net.messages_sent").value == 2 + warm
        assert sim.metrics.counters("net.by_type.") == {"net.by_type.str": 2 + warm}


def test_send_many_to_nobody_registers_no_counter():
    sim, net, _nodes = make_net()
    net.send_many("a", [], "m")
    assert sim.metrics.counters("net.by_type.") == {}
    assert sim.pending_events == 0


def test_broadcast_is_send_in_registration_order():
    def world():
        tracer = Tracer()
        sim = Simulator(seed=4, tracer=tracer)
        net = Network(sim, latency=ExponentialLatency(0.3, 1.0))
        nodes = {name: Sink(sim, net, name) for name in ("c", "a", "d", "b")}
        return sim, net, nodes, tracer

    sim, net, nodes, tracer = world()
    ref_sim, ref_net, ref_nodes, ref_tracer = world()
    for round_ in range(3):
        net.broadcast("a", f"all-{round_}")
        for dst in ref_net.node_ids:
            if dst != "a":
                ref_net.send("a", dst, f"all-{round_}")
    sim.run()
    ref_sim.run()
    sends = [e.data["dst"] for e in tracer.events if e.kind == "msg_send"]
    assert sends[:3] == ["c", "d", "b"]
    assert tracer.dumps_jsonl() == ref_tracer.dumps_jsonl()
    assert ({n: s.received for n, s in nodes.items()}
            == {n: s.received for n, s in ref_nodes.items()})
    assert sim.rng.getstate() == ref_sim.rng.getstate()
