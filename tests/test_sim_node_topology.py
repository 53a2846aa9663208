"""Unit tests for the Node base class and geo topologies."""

from dataclasses import dataclass

import pytest

from repro.errors import NetworkError, SimulationError
from repro.placement import Placement
from repro.sim.topology import INTRA_SITE, Topology
from repro.sim import (
    THREE_CONTINENTS,
    FixedLatency,
    Network,
    Node,
    Simulator,
)


@dataclass
class Ping:
    n: int


@dataclass
class Pong:
    n: int


class Player(Node):
    def __init__(self, sim, net, node_id, limit=3):
        super().__init__(sim, net, node_id)
        self.limit = limit
        self.log = []

    def handle_Ping(self, src, msg):
        self.log.append(("ping", msg.n))
        if msg.n < self.limit:
            self.send(src, Pong(msg.n + 1))

    def handle_Pong(self, src, msg):
        self.log.append(("pong", msg.n))
        if msg.n < self.limit:
            self.send(src, Ping(msg.n + 1))


def test_message_dispatch_by_class_name():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(1.0))
    a = Player(sim, net, "a")
    b = Player(sim, net, "b")
    a.send("b", Ping(0))
    sim.run()
    assert b.log == [("ping", 0), ("ping", 2)]
    assert a.log == [("pong", 1), ("pong", 3)]


def test_missing_handler_raises():
    sim = Simulator()
    net = Network(sim)

    class Mute(Node):
        pass

    Mute(sim, net, "m")
    net.send("m", "m", Ping(0))
    with pytest.raises(SimulationError, match="no handler"):
        sim.run()


def test_crashed_node_ignores_messages_and_timers():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(1.0))
    a = Player(sim, net, "a")
    fired = []
    a.set_timer(5.0, fired.append, "timer")
    a.crash()
    net.send("a", "a", Ping(0))
    sim.run()
    assert a.log == []
    assert fired == []
    assert sim.metrics.counter("net.messages_dropped_crash").value == 1


def test_send_while_crashed_is_dropped_silently():
    sim = Simulator()
    net = Network(sim)
    a = Player(sim, net, "a")
    Player(sim, net, "b")
    a.crash()
    a.send("b", Ping(0))
    sim.run()
    assert sim.metrics.counter("net.messages_sent").value == 0


def test_recover_runs_hook_and_reenables():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(1.0))

    class Recovering(Player):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.recoveries = 0

        def on_recover(self):
            self.recoveries += 1

    a = Recovering(sim, net, "a")
    a.crash()
    a.recover()
    a.recover()  # idempotent
    assert a.recoveries == 1
    net.send("a", "a", Ping(5))
    sim.run()
    assert a.log == [("ping", 5)]


def test_every_fires_periodically_until_crash():
    sim = Simulator()
    net = Network(sim)
    a = Player(sim, net, "a")
    ticks = []
    a.every(10.0, lambda: ticks.append(sim.now))
    sim.run(until=35.0)
    assert ticks == [10.0, 20.0, 30.0]
    a.crash()
    sim.run(until=100.0)
    assert len(ticks) == 3


def test_every_rejects_nonpositive_interval():
    sim = Simulator()
    net = Network(sim)
    a = Player(sim, net, "a")
    with pytest.raises(SimulationError):
        a.every(0.0, lambda: None)


def test_send_many():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(1.0))
    a = Player(sim, net, "a")
    b = Player(sim, net, "b")
    c = Player(sim, net, "c")
    a.send_many(["b", "c"], Ping(9))
    sim.run()
    assert b.log == [("ping", 9)]
    assert c.log == [("ping", 9)]


def test_send_many_on_a_crashed_node_sends_and_counts_nothing():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(1.0))
    a = Player(sim, net, "a")
    b = Player(sim, net, "b")
    a.send_many(["b"], Ping(9))            # the type is known: fast path next
    a.crash()
    a.send_many(["b", "b", "nobody"], Ping(9))   # not even the unknown id is looked at
    sim.run()
    assert b.log == [("ping", 9)]
    assert sim.metrics.counter("net.messages_sent").value == 1
    assert sim.metrics.counter("net.messages_dropped_crash").value == 0


def test_on_message_override_sees_every_message():
    """``deliver`` dispatches through the handler cache itself; a subclass
    that overrides the hook must still get every message of every type —
    also once it has delegated to ``super().on_message()`` for that type."""
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(1.0))

    class Spy(Player):
        def __init__(self, *args):
            super().__init__(*args, limit=0)
            self.seen = []

        def on_message(self, src, message):
            self.seen.append(type(message).__name__)
            if len(self.seen) != 3:        # swallow one, delegate the rest
                super().on_message(src, message)

    spy = Spy(sim, net, "spy")
    plain = Player(sim, net, "plain", limit=0)
    for n in range(3):
        plain.send("spy", Ping(n))
        plain.send("spy", Pong(n))
        spy.send("plain", Ping(n))
    sim.run()
    assert spy.seen == ["Ping", "Pong"] * 3
    assert spy.log == [("ping", 0), ("pong", 0), ("pong", 1), ("ping", 2), ("pong", 2)]
    assert spy._handler_cache == {}
    # The un-overridden node fills its cache on the first message of a type.
    assert plain.log == [("ping", 0), ("ping", 1), ("ping", 2)]
    assert list(plain._handler_cache) == [Ping]


def test_missing_handler_raises_every_time_and_crashed_deliver_is_a_noop():
    sim = Simulator()
    net = Network(sim)
    a = Player(sim, net, "a")
    for _ in range(2):                     # a miss caches nothing
        with pytest.raises(SimulationError, match="Player 'a' has no handler for str"):
            a.deliver("b", "unhandled")
    a.deliver("b", Ping(5))
    a.crash()
    a.deliver("b", Ping(6))
    a.deliver("b", "unhandled")            # not even the lookup happens
    assert a.log == [("ping", 5)]


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------

def test_delays_symmetric_and_intra_site():
    topology = THREE_CONTINENTS
    assert topology.delay("us-east", "eu") == topology.delay("eu", "us-east") == 40.0
    assert topology.delay("asia", "asia") == INTRA_SITE


def test_unknown_site_pair_rejected():
    with pytest.raises(NetworkError):
        THREE_CONTINENTS.delay("us-east", "mars")


def test_latency_model_from_placement():
    placement = Placement(THREE_CONTINENTS)
    placement.place("n0", "us-east")
    placement.place("n1", "eu")
    model = placement.latency_model(jitter=0.0)
    sim = Simulator()
    assert model.sample(sim.rng, "n0", "n1") == 40.0
    assert model.sample(sim.rng, "n0", "n0") == INTRA_SITE


def test_latency_model_rejects_unknown_site():
    with pytest.raises(NetworkError):
        Placement(THREE_CONTINENTS).place("n0", "atlantis")


def test_asymmetric_topology_resolves_per_direction():
    topology = Topology(
        name="asym", sites=("us", "eu"),
        delays={("us", "eu"): 40.0, ("eu", "us"): 60.0},
    )
    assert topology.delay("us", "eu") == 40.0
    assert topology.delay("eu", "us") == 60.0


def test_single_dc_has_one_site():
    single_dc = Topology(name="single-dc", sites=("dc",), delays={})
    assert single_dc.delay("dc", "dc") == 0.5
