"""Quiescence-aware liveliness: adaptive NULL suppression, advertised
heartbeat deadlines, and the protocol-traffic budget SLO."""

import pytest

from repro.groupcomm import GroupConfig, Liveliness, LivelinessConfig, Ordering
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
