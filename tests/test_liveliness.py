"""Quiescence-aware liveliness: adaptive NULL suppression, advertised
heartbeat deadlines, and the protocol-traffic budget SLO."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.groupcomm import GroupConfig, Liveliness, LivelinessConfig, Ordering
from repro.groupcomm.failuredetector import SUSPICION_PERIODS, FailureDetector
from repro.groupcomm.messages import KIND_NULL, DataMsg
from repro.obs.metrics import MetricsRegistry
from repro.scenario.slo import SloContext, build_slos, evaluate_slos
from tests.conftest import Cluster, Collector
from tests.test_groupcomm_basic import build_group

LIVELY_FAST = dict(
    liveliness=Liveliness.LIVELY, silence_period=20e-3, suspicion_timeout=100e-3
)


# ---------------------------------------------------------------------------
# adaptive suppression
# ---------------------------------------------------------------------------
def test_idle_group_backs_off_and_counts_suppressed_nulls():
    c = Cluster(3)
    sessions = build_group(c, GroupConfig(**LIVELY_FAST))
    c.run(1.0)  # reach the cap
    nulls_before = sum(s.stats.nulls_sent for s in sessions)
    suppressed_before = c.sim.obs.metrics.counter_value("gc.null_suppressed")
    c.run(1.0)
    nulls = sum(s.stats.nulls_sent for s in sessions) - nulls_before
    suppressed = c.sim.obs.metrics.counter_value("gc.null_suppressed") - suppressed_before
    # static regime would send ~50/member/s; the cap (8 * 20 ms) allows ~6
    assert nulls <= 3 * 10
    assert suppressed > nulls  # most heartbeat slots were suppressed
    # and the committed interval actually reached the cap
    for session in sessions:
        assert session.detector.committed_period == pytest.approx(8 * 20e-3)


def test_data_traffic_snaps_back_to_base_period():
    c = Cluster(2)
    sessions = build_group(c, GroupConfig(**LIVELY_FAST))
    c.run(1.0)  # deep backoff
    assert sessions[0].detector.committed_period > 20e-3
    sessions[0].send("wake")
    c.run(0.01)
    for session in sessions:
        # forward-looking advertisement re-grows with idle time, so allow a
        # fraction of a backoff step above the base
        assert session.detector.committed_period < 2 * 20e-3


def test_advertised_period_scales_peer_deadline():
    c = Cluster(2)
    sessions = build_group(c, GroupConfig(**LIVELY_FAST))
    c.run(2.0)  # quiescent: members advertise the capped interval
    detector = sessions[0].detector
    advertised = detector.peer_periods["n1"]
    assert advertised == pytest.approx(8 * 20e-3)
    # deadline stretches to suspicion_periods * advertised, not the static 100 ms
    assert detector.deadline_for("n1") == pytest.approx(3 * advertised)


def test_crashed_member_in_quiescent_group_suspected_within_adaptive_bound():
    c = Cluster(3)
    config = GroupConfig(**LIVELY_FAST)
    sessions = build_group(c, config)
    c.run(2.0)  # fully quiescent, everyone advertising the cap
    crash_at = c.sim.now
    c.net.crash("n2")
    survivor = sessions[0]
    detected_at = None
    for _ in range(200):
        c.run(0.025)
        if survivor.view is not None and "n2" not in survivor.view.members:
            detected_at = c.sim.now
            break
    assert detected_at is not None, "crashed member never removed"
    # bound: one advertised period of staleness + the scaled deadline
    # (3 * 160 ms) + detector tick + flush; far below "unbounded", and the
    # group reforms around the failure
    assert detected_at - crash_at < 1.5
    assert set(survivor.view.members) == {"n0", "n1"}


# ---------------------------------------------------------------------------
# suspicion at the deadline
# ---------------------------------------------------------------------------
def reference_suspicion(base, timeout, receipts):
    """When a peer heard at ``receipts`` — ``(time, advertised period)`` in
    order — is first suspected: at the first deadline that passes before its
    next receipt.  A peer at the base period may stay silent for
    ``timeout``; a backed-off one for ``SUSPICION_PERIODS`` advertised
    periods, and never less than ``timeout``."""
    later = [at for at, _ in receipts[1:]] + [math.inf]
    for (at, period), next_at in zip(receipts, later):
        if period <= base:
            deadline = timeout
        else:
            deadline = max(timeout, period * SUSPICION_PERIODS)
        if at + deadline < next_at:
            return at + deadline


@settings(max_examples=30, deadline=None)
@given(
    base=st.sampled_from([0.02, 0.05]),
    timeout=st.sampled_from([0.1, 0.15, 0.3]),
    first=st.sampled_from([1, 2, 4, 8]),
    gaps=st.lists(st.tuples(st.integers(1, 500), st.sampled_from([1, 2, 4, 8])), max_size=8),
)
# suspicion_timeout < 3 x silence_period, at the base period
@example(base=0.05, timeout=0.1, first=1, gaps=[])
# a backed-off peer is allowed SUSPICION_PERIODS advertised periods
@example(base=0.02, timeout=0.1, first=8, gaps=[])
# the on-time case: no poll tick between the deadline and the suspicion
@example(base=0.02, timeout=0.1, first=1, gaps=[(40, 1)])
# a snap-back from 0.16 s to 0.02 s pulls the deadline forward
@example(base=0.02, timeout=0.1, first=8, gaps=[(50, 1)])
def test_a_silent_peer_is_suspected_the_instant_its_deadline_passes(base, timeout, first, gaps):
    """Receipts of one crashed peer's NULLs reach a member: the first 5 ms
    after the crash, advertising ``first`` base periods, then each ``ms``
    after the previous one, advertising ``factor`` base periods.  The member
    suspects the peer at the instant the reference says, never earlier and
    never a poll tick later."""
    c = Cluster(2)
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        liveliness=Liveliness.LIVELY,
        silence_period=base,
        suspicion_timeout=timeout,
        liveliness_config=LivelinessConfig(adaptive=False),
    )
    member, _peer = build_group(c, config)
    view = member.view
    suspected = []
    member.membership.on_local_suspicion = lambda m: suspected.append((c.sim.now, m))
    c.net.crash("n1")

    # the peer's last real NULL left within one heartbeat of the crash, so
    # its deadline passes after the first receipt
    at = c.sim.now + 0.005
    receipts = [(at, base * first)]
    for ms, factor in gaps:
        at += ms / 1000
        receipts.append((at, base * factor))
    due = reference_suspicion(base, timeout, receipts)
    route = c.services["n0"]._route
    for at, period in receipts:
        # the NULL of a member that has sent no data: it acks nothing
        acks = dict.fromkeys(view.members, 0)
        msg = DataMsg(
            "g", "n1", view.view_id, 0, 0, KIND_NULL, None, None, None, acks, period, view.era
        )
        c.sim.schedule_at(at, route, "n1", msg)
    c.sim.run(until=due + 1.0)
    assert suspected and suspected[0][1] == "n1"
    assert due <= suspected[0][0] <= due + 1e-9


def test_a_tick_that_completes_a_solo_flush_leaves_one_heartbeat_chain(monkeypatch):
    """The suspicion of the last peer completes a solo flush, whose view
    install restarts the detector: the member still ticks once per period,
    not on two interleaved chains for the rest of the run."""
    ticks = {}
    tick = FailureDetector._tick

    def counting_tick(self):
        ticks[self.session.member_id] = ticks.get(self.session.member_id, 0) + 1
        tick(self)

    monkeypatch.setattr(FailureDetector, "_tick", counting_tick)
    c = Cluster(2, prefix="s")
    config = GroupConfig(
        ordering=Ordering.SYMMETRIC, liveliness=Liveliness.LIVELY, suspicion_timeout=0.1
    )
    sessions = build_group(c, config)
    c.net.partition({"s0"}, {"s1"})
    c.run(1.0)
    assert [list(s.view.members) for s in sessions] == [["s0"], ["s1"]]
    ticks.clear()
    c.run(1.0)
    # one 33.3 ms chain each (two tick 60-62 times a second)
    assert sorted(ticks) == ["s0", "s1"] and all(30 <= n <= 31 for n in ticks.values())
    live = [
        entry[5].fn if entry[2] is None else entry[2]
        for entry in c.sim._queue
        if entry[2] is not None or entry[5]._entry is entry and entry[5].due is not None
    ]
    chains = [fn for fn in live if getattr(fn, "__func__", None) is counting_tick]
    assert sorted(fn.__self__.session.member_id for fn in chains) == ["s0", "s1"]


def test_symmetric_total_order_delivers_after_quiescent_gap():
    c = Cluster(3)
    config = GroupConfig(ordering=Ordering.SYMMETRIC, **LIVELY_FAST)
    sessions = build_group(c, config)
    collectors = [Collector(s) for s in sessions]
    c.run(3.0)  # long quiescent gap: heartbeats at the capped interval
    sessions[0].send({"from": 0})
    sessions[2].send({"from": 2})
    c.run(0.5)
    orders = [[d[1]["from"] for d in col.deliveries] for col in collectors]
    assert all(sorted(order) == [0, 2] for order in orders)
    assert len({tuple(order) for order in orders}) == 1  # identical total order


def test_static_config_disables_backoff():
    c = Cluster(2)
    config = GroupConfig(
        liveliness_config=LivelinessConfig(adaptive=False), **LIVELY_FAST
    )
    sessions = build_group(c, config)
    c.run(1.0)
    assert sessions[0].detector.committed_period == pytest.approx(20e-3)
    assert c.sim.obs.metrics.counter_value("gc.null_suppressed") == 0


# ---------------------------------------------------------------------------
# state resets (view install / close)
# ---------------------------------------------------------------------------
def test_view_install_resets_adaptive_state_and_null_debt():
    c = Cluster(3)
    sessions = build_group(c, GroupConfig(**LIVELY_FAST))
    c.run(2.0)  # quiescent: peers advertise capped intervals
    assert sessions[0].detector.peer_periods
    sessions[2].leave()
    c.run(1.0)
    survivor = sessions[0]
    assert set(survivor.view.members) == {"n0", "n1"}
    # stale advertisements from the old view must not linger
    assert "n2" not in survivor.detector.peer_periods
    assert "n2" not in survivor._peer_pushback
    # the reactive NULL debt was cleared with the install
    assert not survivor._acks_owed
    assert survivor._max_seen_ts == 0


def test_session_close_clears_null_debt_and_timer():
    c = Cluster(2)
    sessions = build_group(c, GroupConfig(**LIVELY_FAST))
    sessions[1].send("data")  # give member 0 an ack debt
    c.run(0.002)
    sessions[0].leave()
    c.run(1.0)
    closed = sessions[0]
    assert closed.state == "closed"
    assert closed._null_timer.due is None
    assert not closed.has_scheduled_null()
    assert not closed._acks_owed and not closed._self_ack_owed
    assert closed._max_seen_ts == 0


# ---------------------------------------------------------------------------
# message_budget SLO
# ---------------------------------------------------------------------------
def _budget_ctx(**counters):
    metrics = MetricsRegistry()
    for name, value in counters.items():
        metrics.counter(name.replace("_", ".")).inc(value)
    return SloContext(metrics, stats=None, snapshot={})


def test_message_budget_slo_pass_and_fail():
    slos = build_slos(
        [
            {
                "kind": "message_budget",
                "name": "nulls",
                "numerator": "gc.null",
                "denominator": "gc.delivered",
                "max_ratio": 1.5,
            }
        ]
    )
    ok = evaluate_slos(slos, _budget_ctx(gc_null=6, gc_delivered=4))[0]
    assert ok["ok"] and ok["observed"] == 1.5
    bad = evaluate_slos(slos, _budget_ctx(gc_null=7, gc_delivered=4))[0]
    assert not bad["ok"]


def test_message_budget_slo_zero_denominator():
    slos = build_slos(
        [
            {
                "kind": "message_budget",
                "numerator": "gc.null",
                "denominator": "gc.delivered",
                "max_ratio": 4.0,
            }
        ]
    )
    assert evaluate_slos(slos, _budget_ctx(gc_null=0))[0]["ok"]
    assert not evaluate_slos(slos, _budget_ctx(gc_null=3))[0]["ok"]


def test_message_budget_slo_rejects_unknown_keys():
    with pytest.raises(ValueError):
        build_slos(
            [
                {
                    "kind": "message_budget",
                    "numerator": "a",
                    "denominator": "b",
                    "max_ratio": 1.0,
                    "bogus": True,
                }
            ]
        )
