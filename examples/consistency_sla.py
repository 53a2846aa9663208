"""Consistency SLAs: pick consistency per read, not per application.

A Pileus-style client in the EU reads data mastered in us-east and
replicated (with lag) to EU and Asia.  Three applications with three
SLAs share the same store:

* password-checking — must be strong; tolerates latency,
* shopping-cart     — wants read-my-writes fast,
* web-content       — bounded staleness is plenty.

The SLA-driven client routes each read to the replica expected to
maximize utility; fixed strategies (always-master, always-local) leave
utility on the table in one direction or the other.

Run:  python examples/consistency_sla.py
"""

from repro import Network, Simulator, spawn
from repro.analysis import print_table
from repro.placement import Placement
from repro.replication import TimelineCluster
from repro.sim import THREE_CONTINENTS
from repro.sla import (
    PASSWORD_CHECKING,
    SHOPPING_CART,
    SLA,
    WEB_CONTENT,
    Consistency,
    SLAClient,
    SubSLA,
)

ALWAYS_MASTER = SLA(
    "always-master",
    (
        SubSLA(Consistency.STRONG, 100.0, 1.0),
        SubSLA(Consistency.STRONG, 1e9, 0.25),
    ),
)

ALWAYS_LOCAL = SLA(
    "always-local",
    (SubSLA(Consistency.EVENTUAL, 10.0, 1.0),
     SubSLA(Consistency.EVENTUAL, 1e9, 0.25)),
)


def build_world(seed=0):
    sim = Simulator(seed=seed)
    placement = Placement(THREE_CONTINENTS)
    for node, site in {
        "tl0": "us-east", "tl1": "eu", "tl2": "asia",
        "tlclient-1": "eu", "tl0-fwd": "us-east",
    }.items():
        placement.place(node, site)
    net = Network(sim, latency=placement.latency_model(jitter=0.05))
    cluster = TimelineCluster(sim, net, nodes=3, propagation_delay=30.0)
    cluster.set_master("data", "tl0")  # record mastered in us-east
    raw = cluster.connect(home="tl1")  # EU client reads its local replica
    client = SLAClient(raw)
    # Warm the monitor with a few probes' worth of truth.
    client.monitor.observe_latency("tl0", 82.0)
    client.monitor.observe_latency("tl1", 2.0)
    client.monitor.observe_latency("tl2", 242.0)
    client.monitor.observe_lag("tl1", 30.0)
    client.monitor.observe_lag("tl2", 30.0)
    return sim, cluster, client


def run_app(sla, seed=0, reads=20):
    sim, _cluster, client = build_world(seed)
    done = {}

    def script():
        yield client.write("data", "v0")
        yield 100.0
        for i in range(reads):
            yield client.write("data", f"v{i + 1}")
            yield 15.0
            yield client.read("data", sla)
            yield 10.0
        done["utility"] = client.average_utility()
        done["latency"] = (
            sum(o.latency for o in client.outcomes) / len(client.outcomes)
        )

    spawn(sim, script())
    sim.run()
    return done


class FixedTargetClient(SLAClient):
    """Baseline: ignores the SLA and always reads one replica."""

    def __init__(self, client, target):
        super().__init__(client)
        self._target = target

    def select_target(self, key, sla):
        return self._target, 0


def run_fixed(sla, target, seed=0, reads=20):
    sim, cluster, adaptive = build_world(seed)
    client = FixedTargetClient(adaptive.client, target)
    client.monitor = adaptive.monitor
    done = {}

    def script():
        yield client.write("data", "v0")
        yield 100.0
        for i in range(reads):
            yield client.write("data", f"v{i + 1}")
            yield 15.0
            yield client.read("data", sla)
            yield 10.0
        done["utility"] = client.average_utility()
        done["latency"] = (
            sum(o.latency for o in client.outcomes) / len(client.outcomes)
        )

    spawn(sim, script())
    sim.run()
    return done


def main() -> None:
    print(__doc__)
    rows = []
    for sla in (PASSWORD_CHECKING, SHOPPING_CART, WEB_CONTENT,
                ALWAYS_MASTER, ALWAYS_LOCAL):
        result = run_app(sla)
        rows.append([
            sla.name,
            round(result["utility"], 3),
            round(result["latency"], 1),
        ])
    print_table(
        ["SLA", "avg utility", "avg read latency (ms)"],
        rows,
        title="EU client, us-east master, 30ms propagation lag",
    )

    rows = []
    for label, runner in (
        ("SLA-driven (adaptive)", lambda: run_app(SHOPPING_CART)),
        ("always master", lambda: run_fixed(SHOPPING_CART, "tl0")),
        ("always local EU", lambda: run_fixed(SHOPPING_CART, "tl1")),
    ):
        result = runner()
        rows.append([label, round(result["utility"], 3),
                     round(result["latency"], 1)])
    print_table(
        ["routing policy", "avg utility", "avg read latency (ms)"],
        rows,
        title="Same SLA (shopping-cart), three routing policies",
    )
    print(
        "\nThe SLA-driven reads adapt: strong SLAs absorb the WAN trip,"
        "\nlax SLAs enjoy ~1ms local reads.  For the in-between SLA the"
        "\nadaptive policy reaches near-master utility at lower average"
        "\nlatency, while always-local forfeits nearly half the utility."
    )


if __name__ == "__main__":
    main()
