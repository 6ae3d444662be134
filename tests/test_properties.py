"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.groupcomm import GroupConfig, LamportClock, Ordering, VectorClock
from repro.core.modes import Mode, replies_needed
from repro.bench.stats import summarize
from repro.orb.ior import IOGR, IOR
from repro.orb.marshal import decode, encode, wire_size


# ---------------------------------------------------------------------------
# marshalling
# ---------------------------------------------------------------------------
json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=25,
)


@given(json_like)
def test_marshal_roundtrip(value):
    assert decode(encode(value)) == value


@given(json_like)
def test_marshal_deterministic(value):
    assert encode(value) == encode(value)


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=10))
def test_marshal_size_monotone_in_payload(items):
    base = len(encode(items))
    extended = len(encode(items + [0]))
    assert extended > base


#: everything the codec carries beyond JSON's shapes: tuples, int keys, the
#: whole signed 64-bit range and registered structs (IOR/IOGR compare by value)
iors = st.builds(IOR, st.text(max_size=8), st.text(max_size=8), st.text(max_size=8))
wire_values = st.recursive(
    json_like
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | iors
    | st.builds(IOGR, st.lists(iors, min_size=1, max_size=3)),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.integers(-9, 9) | st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(wire_values)
def test_wire_size_is_the_encoded_length_and_decode_inverts_encode(value):
    """``wire_size`` is all the simulator computes per message; it must be the
    length of the bytes the reference path would really send."""
    data = encode(value)
    assert wire_size(value) == len(data)
    back = decode(data)
    assert back == value
    # == cannot tell True from 1 or 1 from 1.0; the bytes can
    assert encode(back) == data


# ---------------------------------------------------------------------------
# vector clocks
# ---------------------------------------------------------------------------
members = st.sampled_from(["a", "b", "c", "d"])
clocks = st.dictionaries(members, st.integers(min_value=0, max_value=20), max_size=4)


@given(clocks, members)
def test_vc_causally_ready_for_next_message(local, sender):
    """The sender's (n+1)-th message stamped right after our state is ready."""
    local_vc = VectorClock(local)
    stamp = VectorClock(local)
    stamp.increment(sender)
    assert stamp.causally_ready(sender, local_vc)


# ---------------------------------------------------------------------------
# lamport clocks
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
def test_lamport_strictly_increases_on_ticks(observations):
    clock = LamportClock()
    last = clock.value
    for obs in observations:
        clock.observe(obs)
        ticked = clock.tick()
        assert ticked > last
        assert ticked > obs
        last = ticked


# ---------------------------------------------------------------------------
# invocation modes
# ---------------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=100))
def test_replies_needed_bounds(n):
    assert replies_needed(Mode.ONE_WAY, n) == 0
    assert replies_needed(Mode.FIRST, n) == 1
    majority = replies_needed(Mode.MAJORITY, n)
    assert n / 2 < majority <= n
    assert replies_needed(Mode.ALL, n) == n
    assert replies_needed(Mode.FIRST, n) <= majority <= replies_needed(Mode.ALL, n)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_summarize_invariants(values):
    stats = summarize(values)
    assert stats["count"] == len(values)
    assert stats["min"] <= stats["median"] <= stats["max"]
    assert stats["min"] <= stats["mean"] <= stats["max"]
    assert stats["median"] <= stats["p95"] <= stats["max"]


# ---------------------------------------------------------------------------
# end-to-end ordering property: random workloads agree everywhere
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    ordering=st.sampled_from([Ordering.SYMMETRIC, Ordering.ASYMMETRIC]),
    n_members=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    sends=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.floats(min_value=0, max_value=0.05)),
        min_size=1,
        max_size=12,
    ),
)
def test_total_order_agreement_random_schedules(ordering, n_members, seed, sends):
    """Any schedule of multicasts yields identical delivery at all members."""
    from tests.conftest import Cluster, Collector
    from tests.test_groupcomm_basic import build_group

    c = Cluster(n_members, seed=seed)
    sessions = build_group(c, GroupConfig(ordering=ordering))
    collectors = [Collector(s) for s in sessions]
    for i, (who, delay) in enumerate(sends):
        session = sessions[who % n_members]
        c.sim.schedule(delay, lambda s=session, i=i: s.send(f"msg-{i}"))
    c.run(3.0)
    histories = [col.deliveries for col in collectors]
    assert all(len(h) == len(sends) for h in histories)
    assert all(h == histories[0] for h in histories[1:])


@settings(max_examples=8, deadline=None)
@given(
    ordering=st.sampled_from([Ordering.SYMMETRIC, Ordering.ASYMMETRIC]),
    seed=st.integers(min_value=0, max_value=2**16),
    crash_at=st.floats(min_value=0.0, max_value=0.03),
    victim=st.integers(min_value=0, max_value=3),
    sends=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.floats(min_value=0, max_value=0.02)),
        min_size=1,
        max_size=10,
    ),
)
def test_virtual_synchrony_under_random_crash(ordering, seed, crash_at, victim, sends):
    """Random crash amid random traffic: survivors deliver identical
    histories (virtual synchrony), with every survivor's own message
    included exactly once."""
    from repro.groupcomm import Liveliness
    from tests.conftest import Cluster, Collector
    from tests.test_groupcomm_basic import build_group

    n_members = 4
    c = Cluster(n_members, seed=seed)
    config = GroupConfig(
        ordering=ordering,
        liveliness=Liveliness.LIVELY,
        silence_period=20e-3,
        suspicion_timeout=100e-3,
    )
    sessions = build_group(c, config)
    collectors = [Collector(s) for s in sessions]
    for i, (who, delay) in enumerate(sends):
        session = sessions[who % n_members]
        c.sim.schedule(delay, lambda s=session, i=i: s.send(f"msg-{i}"))
    victim_name = c.names[victim]
    c.sim.schedule(crash_at, c.net.crash, victim_name)
    c.run(5.0)
    survivors = [i for i in range(n_members) if c.names[i] != victim_name]
    histories = [collectors[i].deliveries for i in survivors]
    assert all(h == histories[0] for h in histories[1:])
    # survivors' own sends (issued while they were members) all delivered
    survivor_msgs = [
        f"msg-{i}"
        for i, (who, _d) in enumerate(sends)
        if c.names[who % n_members] != victim_name
    ]
    delivered_payloads = [p for _s, p in histories[0]]
    for payload in survivor_msgs:
        assert delivered_payloads.count(payload) == 1
