"""Tests for sender-side flow control."""

from types import SimpleNamespace

import pytest

from repro.groupcomm import GroupConfig, Ordering
from repro.groupcomm.flowcontrol import FlowController, FlowQueueFull
from repro.groupcomm.session import GroupSession
from tests.conftest import Cluster, Collector
from tests.test_groupcomm_basic import build_group


class TestFlowControllerUnit:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            FlowController(0)
        with pytest.raises(ValueError):
            GroupConfig(send_window=0)

    def test_acquire_until_window_full(self):
        flow = FlowController(2)
        assert flow.try_acquire("a")
        assert flow.try_acquire("b")
        assert not flow.try_acquire("c")
        assert flow.in_flight == 2
        assert flow.queued == 1

    def test_release_frees_slots_for_drain(self):
        flow = FlowController(1)
        assert flow.try_acquire("a")
        assert not flow.try_acquire("b")
        assert flow.drain() is None  # window still full
        flow.release()
        assert flow.drain() == "b"
        assert flow.in_flight == 1
        assert flow.drain() is None

    def test_release_never_goes_negative(self):
        flow = FlowController(2)
        flow.release(5)
        assert flow.in_flight == 0

    def test_bounded_queue_overflow_refuses_without_queueing(self):
        flow = FlowController(1, max_queue=2)
        assert flow.try_acquire("a")
        assert not flow.try_acquire("b")
        assert not flow.try_acquire("c")
        with pytest.raises(FlowQueueFull):
            flow.try_acquire("d")
        assert flow.queued == 2  # the refused payload was not queued
        with pytest.raises(ValueError):
            FlowController(1, max_queue=-1)

    def test_requeue_bypasses_the_bound_for_view_change_replay(self):
        flow = FlowController(1, max_queue=1)
        flow.try_acquire("a")
        flow.try_acquire("b")
        # work admitted before a view change must survive the replay even
        # when the bounded queue is momentarily full
        assert not flow.requeue("c")
        assert flow.queued == 2

    def test_occupancy_tracks_the_fuller_of_window_and_queue(self):
        # the session's advertised pushback reads the flow controller's
        # occupancy: the fuller of window and bounded queue, clamped to 1
        def pushback(flow):
            session = SimpleNamespace(
                flow=flow,
                ordering=SimpleNamespace(backlog=()),
                _pushback_pending_bound=4.0 * flow.window,
                pushback_source=None,
            )
            return GroupSession.local_pushback(session)

        flow = FlowController(4)  # unbounded queue: window only
        flow.try_acquire("a")
        flow.try_acquire("b")
        assert pushback(flow) == 0.5
        for i in range(10):
            flow.try_acquire(i)
        assert pushback(flow) == 1.0  # clamped despite the long queue

        bounded = FlowController(4, max_queue=10)
        for i in range(9):
            bounded.try_acquire(i)
        assert pushback(bounded) == 1.0  # window saturated
        bounded.release(4)
        for _ in range(4):
            bounded.drain()
        # 4 in flight, 1 queued: queue pressure 0.1 < window pressure 1.0
        assert pushback(bounded) == 1.0
        bounded.release(2)
        assert pushback(bounded) == 0.5
        bounded.release(2)
        # nothing in flight, 1 queued: the queue's 0.1 is the fuller
        assert pushback(bounded) == 0.1

    def test_reset_and_pop_queued(self):
        flow = FlowController(1)
        flow.try_acquire("a")
        flow.try_acquire("b")
        flow.try_acquire("c")
        assert flow.pop_all_queued() == ["b", "c"]
        flow.reset()
        assert flow.in_flight == 0 and flow.queued == 0


class TestFlowControlIntegration:
    def test_burst_beyond_window_still_delivers_everything_in_order(self):
        c = Cluster(3)
        config = GroupConfig(ordering=Ordering.ASYMMETRIC, send_window=4)
        sessions = build_group(c, config)
        col = Collector(sessions[1])
        for i in range(40):  # 10x the window, in one burst
            sessions[0].send(i)
        assert sessions[0].flow.queued > 0
        c.run(3.0)
        assert col.payloads == list(range(40))
        assert sessions[0].flow.in_flight <= 4

    def test_window_bounds_unstable_buffer(self):
        c = Cluster(3)
        config = GroupConfig(ordering=Ordering.ASYMMETRIC, send_window=4)
        sessions = build_group(c, config)
        for i in range(30):
            sessions[0].send(i)
        # before any acks return, at most `window` own messages are unstable
        own = [m for m in sessions[0].unstable.values() if m.sender == "n0"]
        assert len(own) <= 4

    def test_bounded_queue_overflows_out_of_send_and_publishes_gauges(self):
        c = Cluster(3)
        config = GroupConfig(
            ordering=Ordering.ASYMMETRIC, send_window=2, flow_max_queue=3
        )
        sessions = build_group(c, config)
        col = Collector(sessions[1])
        for i in range(5):  # fills the window (2) and the queue (3)
            sessions[0].send(i)
        with pytest.raises(FlowQueueFull):
            sessions[0].send(99)
        metrics = c.sim.obs.metrics
        assert metrics.gauge("gc.flow.in_flight").value == 2
        assert metrics.gauge("gc.flow.queued").value == 3
        assert sessions[0].local_pushback() == 1.0
        c.run(3.0)
        # everything accepted before the overflow still delivers in order
        assert col.payloads == list(range(5))
        assert metrics.gauge("gc.flow.queued").value == 0

    def test_view_change_mid_burst_loses_nothing(self):
        from repro.groupcomm import Liveliness

        c = Cluster(3)
        config = GroupConfig(
            ordering=Ordering.ASYMMETRIC,
            send_window=4,
            liveliness=Liveliness.LIVELY,
            silence_period=20e-3,
            suspicion_timeout=100e-3,
        )
        sessions = build_group(c, config)
        col = Collector(sessions[1])
        for i in range(20):
            sessions[0].send(i)
        c.run(2e-3)
        c.net.crash("n2")  # forces a flush while sends are still queued
        c.run(3.0)
        assert col.payloads == list(range(20))
