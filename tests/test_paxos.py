"""Tests for the Multi-Paxos KV cluster."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import registry
from repro.checkers import check_convergence, check_linearizability
from repro.errors import NotLeaderError, TimeoutError as ReproTimeoutError
from repro.replication import MultiPaxosCluster
from repro.replication.multipaxos import (
    CatchupReply,
    CatchupRequest,
    MPAccepted,
    PutCmd,
)
from repro.sim import (
    ExponentialLatency,
    FixedLatency,
    Network,
    Simulator,
    Tracer,
    spawn,
)
from repro.sim.trace import filter_events
from repro.workload import OpSpec, WorkloadDriver


# ----------------------------------------------------------------------
# Multi-Paxos KV
# ----------------------------------------------------------------------

def make_mp(nodes=3, seed=0, latency=2.0, tracer=None):
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, latency=FixedLatency(latency))
    cluster = MultiPaxosCluster(sim, net, nodes=nodes)
    return sim, net, cluster


def test_election_produces_leader():
    sim, _net, cluster = make_mp()
    assert cluster.leader is cluster.replicas[0]
    assert cluster.leader.is_leader


def test_put_get_through_log():
    sim, _net, cluster = make_mp()
    client = cluster.connect()
    out = {}

    def script():
        out["version"] = yield client.put("k", "v1")
        out["read"] = yield client.get("k")

    spawn(sim, script())
    sim.run()
    assert out["version"] == 1
    assert out["read"] == ("v1", 1)


def test_log_applies_in_order_on_all_replicas():
    sim, _net, cluster = make_mp()
    client = cluster.connect()

    def script():
        for i in range(5):
            yield client.put("k", i)
        yield client.put("other", "x")

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 100.0)  # let commits reach all learners
    assert check_convergence(cluster.snapshots()).ok
    for replica in cluster.replicas:
        assert replica.store["k"] == (4, 5)
        assert replica.applied_through == 5


def test_multipaxos_history_linearizable():
    sim = Simulator(seed=4)
    net = Network(sim, latency=FixedLatency(2.0))
    store = registry.build("multipaxos", sim, net, nodes=5)
    driver = WorkloadDriver(sim)
    driver.add_session(store.session("w"),
                       [OpSpec("update", "k", i) for i in range(6)],
                       think_time=3.0)
    driver.add_session(store.session("r"),
                       [OpSpec("sleep", "", 2.0)] + [OpSpec("read", "k")] * 8,
                       think_time=4.0)
    history = driver.run().history
    assert len(history.completed) == 14
    assert check_linearizability(history).ok


def test_local_read_can_be_stale_but_timeline_consistent():
    sim, _net, cluster = make_mp(latency=25.0)
    client = cluster.connect()
    out = {}

    def script():
        yield client.put("k", "new")
        # Immediately read a follower's state machine: commit broadcast
        # may not have reached it yet.
        out["local"] = yield client.local_get("k", cluster.replicas[2])

    spawn(sim, script())
    sim.run()
    value, version = out["local"]
    assert (value, version) in ((None, 0), ("new", 1))


def test_writes_rejected_by_non_leader():
    sim, _net, cluster = make_mp()
    from repro.replication.multipaxos import PutCmd, SubmitCmd

    client = cluster.connect()
    out = {}

    def script():
        try:
            yield client.request(
                cluster.replicas[1].node_id, SubmitCmd(PutCmd("k", 1))
            )
        except NotLeaderError:
            out["rejected"] = True

    spawn(sim, script())
    sim.run()
    assert out.get("rejected")


def test_commit_blocks_without_majority():
    sim, net, cluster = make_mp(nodes=3)
    client = cluster.connect()
    # Partition the leader (plus client) away from both followers.
    net.partition([cluster.leader.node_id, client.node_id])
    out = {}

    def script():
        try:
            yield client.put("k", "v", timeout=500.0)
            out["result"] = "committed"
        except ReproTimeoutError:
            out["result"] = "timeout"

    spawn(sim, script())
    sim.run()
    assert out["result"] == "timeout"
    # No replica applied the write.
    for replica in cluster.replicas:
        assert "k" not in replica.store


def test_failover_preserves_committed_writes():
    sim, _net, cluster = make_mp(nodes=3)
    client = cluster.connect()

    def script():
        yield client.put("k", "committed")

    spawn(sim, script())
    sim.run()
    sim.run(until=sim.now + 50.0)
    old_leader = cluster.leader
    old_leader.crash()
    cluster.elect(cluster.replicas[1])
    sim.run(until=sim.now + 200.0)
    assert cluster.leader is cluster.replicas[1]
    client2 = cluster.connect()
    out = {}

    def script2():
        out["read"] = yield client2.get("k")

    spawn(sim, script2())
    sim.run()
    assert out["read"] == ("committed", 1)


def test_uncommitted_writes_recovered_or_dropped_safely():
    sim, net, cluster = make_mp(nodes=3, latency=20.0)
    client = cluster.connect()
    # Leader accepts a command but crashes before majority accept.
    net.partition([cluster.leader.node_id, client.node_id])
    failed = {}

    def script():
        try:
            yield client.put("k", "maybe", timeout=300.0)
        except ReproTimeoutError:
            failed["timeout"] = True

    spawn(sim, script())
    sim.run()
    assert failed.get("timeout")
    net.heal()
    cluster.replicas[0].crash()
    cluster.elect(cluster.replicas[1])
    sim.run(until=sim.now + 300.0)
    # New leader must be functional; the old command either committed
    # nowhere or was re-proposed as-is — either way the log stays sane.
    client2 = cluster.connect()
    out = {}

    def script2():
        out["v"] = yield client2.put("k2", "after")
        out["read"] = yield client2.get("k2")

    spawn(sim, script2())
    sim.run()
    assert out["read"] == ("after", out["v"])


# ----------------------------------------------------------------------
# Leader churn: a new election every 7 ms while clients write and read
# ----------------------------------------------------------------------

def churn(seed):
    """Three clients each run 30 put+get pairs over 4 keys on 5 replicas
    while ``elect`` starts at a random replica every 7 ms, 39 times.
    Returns the cluster, caught up, and the puts acknowledged."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ExponentialLatency(base=0.5, mean=4.0))
    cluster = MultiPaxosCluster(sim, net, nodes=5)
    acked = []

    def client_loop(index):
        client = cluster.connect()
        for n in range(30):
            key, value = f"k{n % 4}", f"c{index}-{n}"
            try:
                yield client.put(key, value, timeout=50.0)
                acked.append(PutCmd(key, value))
            except (NotLeaderError, ReproTimeoutError):
                pass
            try:
                yield client.get(key, timeout=50.0)
            except (NotLeaderError, ReproTimeoutError):
                pass

    def elect_often():
        for _ in range(39):
            yield 7.0
            cluster.elect(cluster.replicas[sim.rng.randrange(5)])

    for index in range(3):
        spawn(sim, client_loop(index))
    spawn(sim, elect_often())
    sim.run()
    cluster.settle()
    return cluster, acked


@pytest.mark.parametrize("seed", range(20))
def test_leader_churn_loses_no_ack_and_replicas_agree(seed):
    # Regression: a deposed leader kept its slot futures and resolved
    # each with whatever command won the slot — another leader's.  A put
    # was acked that no log holds, and a get was handed a put's version
    # (its extract raised TypeError inside sim.run).
    cluster, acked = churn(seed)
    logged = [command for replica in cluster.replicas
              for command in replica.committed.values()]
    assert [put for put in acked if put not in logged] == []
    # Safety under dueling leaders: one command per slot everywhere.
    slots = set().union(*(replica.committed for replica in cluster.replicas))
    for slot in slots:
        held = [replica.committed[slot] for replica in cluster.replicas
                if slot in replica.committed]
        assert all(command == held[0] for command in held), slot
    assert check_convergence(cluster.snapshots()).ok


# ----------------------------------------------------------------------
# Catch-up and the leader's tables
# ----------------------------------------------------------------------

class NoScanLog(dict):
    """A committed log that refuses to be walked end to end."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("catch-up iterated the whole committed log")

    items = keys = values = __iter__ = _refuse


@settings(max_examples=80, deadline=None)
@given(
    slots=st.lists(st.integers(min_value=0, max_value=60), unique=True,
                   max_size=40),
    from_slot=st.integers(min_value=0, max_value=70),
)
def test_catchup_reply_equals_full_scan_without_scanning(slots, from_slot):
    _sim, _net, cluster = make_mp()
    replica = cluster.replicas[1]
    for slot in slots:                       # arrival order, holes and all
        replica._commit(slot, PutCmd("k", slot))
    # Oracle: the whole-log comprehension the handler used to run.
    expected = {
        slot: command
        for slot, command in replica.committed.items()
        if slot >= from_slot
    }
    replica.committed = NoScanLog(replica.committed)
    sent = []
    replica.send = lambda dst, message: sent.append((dst, message))
    replica.handle_CatchupRequest("px2", CatchupRequest(from_slot))
    [(dst, reply)] = sent
    assert dst == "px2" and isinstance(reply, CatchupReply)
    assert reply.committed == expected


def test_commits_delivered_out_of_order_are_caught_up():
    tracer = Tracer()
    sim, net, cluster = make_mp(nodes=5, tracer=tracer)
    client = cluster.connect()
    leader, laggard = cluster.leader.node_id, cluster.replicas[4].node_id

    def script():
        # Slot 0's commit crawls to the laggard; slot 1's overtakes it.
        net.set_link_fault(leader, laggard, extra_delay=50.0)
        yield client.put("a", "first")
        net.clear_link_fault(leader, laggard)
        yield client.put("b", "second")

    spawn(sim, script())
    sim.run()
    summary = tracer.message_summary()
    assert summary["CatchupRequest"]["delivered"] == 1
    assert summary["CatchupReply"]["delivered"] == 1
    for replica in cluster.replicas:
        assert replica.applied_through == 1
        assert not replica._catching_up
    assert check_convergence(cluster.snapshots()).ok
    assert cluster.replicas[4].snapshot() == {"a": "first", "b": "second"}


def test_leader_tables_hold_undecided_slots_only():
    sim, _net, cluster = make_mp(nodes=5)
    leader = cluster.leader
    in_flight = []

    def lane(index):
        client = cluster.connect()
        for i in range(100):
            yield client.put(f"k{(index + i) % 7}", i)
            in_flight.append(len(leader._accept_votes))
            yield client.get(f"k{i % 7}")

    for index in range(4):                  # 4 lanes x 100 ops = 400 slots
        spawn(sim, lane(index))
    sim.run()
    assert leader.applied_through == 799 and len(leader.committed) == 800
    assert max(in_flight) <= 4              # one undecided slot per lane
    assert leader._accept_votes == {} and leader._proposals == {}
    # A late or duplicated vote for a decided slot changes nothing.
    before = dict(leader.committed)
    for src in cluster.node_ids * 2:
        leader.handle_MPAccepted(src, MPAccepted(leader.ballot, 5))
    sim.run()
    assert leader._accept_votes == {} and leader._proposals == {}
    assert leader.committed == before and leader.applied_through == 799


def test_votes_from_an_old_ballot_do_not_count_after_reelection():
    # Regression: _accept_votes was keyed by slot alone and survived
    # start_leadership, so a leader re-elected without a crash counted
    # the votes of its old ballot toward the new one.
    sim, net, cluster = make_mp(nodes=5)
    px = cluster.node_ids
    client = cluster.connect()
    leader = cluster.leader
    net.partition([px[0], px[1], client.node_id])   # two of five: no majority

    def script():
        try:
            yield client.put("k", "stranded", timeout=50.0)
        except ReproTimeoutError:
            pass

    spawn(sim, script())
    sim.run()
    assert leader._accept_votes == {0: {px[0], px[1]}}
    net.heal()
    cluster.elect(leader)
    # Prepare out, promises back, slot 0 re-proposed at ballot 2: 4 ms.
    # Cut off every peer but px2 while those MPAccepts are in flight,
    # so their MPAccepted replies are dropped at the partition.
    sim.run(until=sim.now + 5.0)
    assert leader.is_leader and leader.ballot == (2, px[0])
    net.partition([px[0], px[2]])
    sim.run()
    # Its own vote and px2's are all the new ballot has: no majority.
    assert leader._accept_votes == {0: {px[0], px[2]}}
    assert all(0 not in replica.committed for replica in cluster.replicas)


# ----------------------------------------------------------------------
# The leader is one of its acceptors: it answers itself in-process
# ----------------------------------------------------------------------

def test_single_node_group_elects_and_commits_without_replica_messages():
    tracer = Tracer()
    sim, _net, cluster = make_mp(nodes=1, tracer=tracer)
    assert cluster.leader is cluster.replicas[0]
    client = cluster.connect()
    out = {}

    def script():
        out["version"] = yield client.put("k", "v")
        out["read"] = yield client.get("k")

    spawn(sim, script())
    sim.run()
    assert out == {"version": 1, "read": ("v", 1)}
    sent = {event.data["msg_type"] for event in filter_events(tracer.events, kind="msg_send")}
    assert sent == {"Request", "Reply"}


def test_leader_sends_accepts_to_its_peers_only():
    tracer = Tracer()
    sim, _net, cluster = make_mp(nodes=5, tracer=tracer)
    leader = cluster.leader
    client = cluster.connect()

    def script():
        yield client.put("k", "v")

    spawn(sim, script())
    sim.run()
    for kind in ("MPPrepare", "MPAccept"):
        sends = filter_events(tracer.events, kind="msg_send", msg_type=kind)
        destinations = [event.data["dst"] for event in sends]
        assert sorted(destinations) == sorted(leader._peers)
    assert leader.store == {"k": ("v", 1)}


def test_leader_that_promised_a_higher_ballot_does_not_vote_for_itself():
    sim, _net, cluster = make_mp(nodes=3)
    leader = cluster.leader
    leader.promised = (leader.ballot[0] + 1, "px9")   # a rival's prepare got in
    slot, command = leader.next_slot, PutCmd("k", "v")
    leader._propose_in_slot(slot, command)
    assert leader._accept_votes[slot] == set() and slot not in leader.accepted
    sim.run()
    # The two peers' votes are a majority of three: committed without it.
    assert leader.committed[slot] == command and slot not in leader.accepted


def test_candidate_that_promised_a_higher_ballot_is_not_elected():
    sim, _net, cluster = make_mp(nodes=3)
    candidate = cluster.replicas[1]
    candidate.promised = (9, "px9")
    cluster.elect(candidate)
    assert not candidate._preparing          # its own nack, in-process
    sim.run()
    assert not candidate.is_leader and cluster.leader is cluster.replicas[0]
