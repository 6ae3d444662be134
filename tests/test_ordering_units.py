"""Direct unit tests of the ordering strategies and delivery mergers."""

import pytest

from repro.groupcomm.merger import SharedClockMerger, TicketMerger
from repro.groupcomm.messages import DataMsg, KIND_DATA, KIND_NULL
from repro.groupcomm.ordering import (
    AsymmetricOrder,
    CausalOrder,
    FifoOrder,
    SymmetricOrder,
    make_ordering,
)
from repro.groupcomm.views import GroupView


class StubBatcher:
    """Records the sequencer's ticket announcements instead of sending them."""

    def __init__(self):
        self.announced = []

    def announce(self, session, ticket, key):
        self.announced.append((ticket, key))

    def flush(self):
        pass

    def purge(self, session):
        pass


class StubService:
    def __init__(self):
        self.clock_merger = SharedClockMerger()
        self.ticket_merger = TicketMerger()
        self.ticket_batcher = StubBatcher()
        self._ticket = 0

    def next_ticket(self):
        self._ticket += 1
        return self._ticket


class StubSession:
    """Just enough session surface to drive a strategy directly: identity,
    view, the service's shared machinery, and the one upcall seam."""

    def __init__(self, member_id, members, service=None):
        self.member_id = member_id
        self.view = GroupView("g", 1, members)
        self.service = service or StubService()
        self.delivered = []
        self.ordering = None

    @property
    def sequencer(self):
        return self.view.members[0]

    def _deliver_app(self, msg):
        self.delivered.append((msg.sender, msg.payload))


def data(group, sender, gseq, ts, payload=None, kind=KIND_DATA, ticket=None, vector=None):
    return DataMsg(group, sender, 1, gseq, ts, kind, payload or f"{sender}#{gseq}", ticket, vector, {})


def make(session, name):
    strategy = make_ordering(name, session)
    session.ordering = strategy
    strategy.attach()
    return strategy


# ---------------------------------------------------------------------------
# symmetric
# ---------------------------------------------------------------------------
class TestSymmetric:
    def test_waits_for_later_stamp_from_sender(self):
        s = StubSession("b", ["a", "b", "c"])
        sym = make(s, "symmetric")
        sym.on_data(data("g", "a", 1, ts=5))
        # c has a later stamp but a's own later stamp is missing
        sym.on_data(data("g", "c", 0, ts=9, kind=KIND_NULL))
        assert s.delivered == []
        sym.on_data(data("g", "a", 0, ts=6, kind=KIND_NULL))
        assert s.delivered == [("a", "a#1")]

    def test_own_message_needs_no_later_stamp_of_its_own(self):
        # the strictly-later rule is for a peer's message: our own is
        # deliverable once every peer's stamp has reached it
        s = StubSession("b", ["a", "b", "c"])
        sym = make(s, "symmetric")
        sym.on_local_send(data("g", "b", 1, ts=5))
        sym.on_data(data("g", "a", 0, ts=5, kind=KIND_NULL))
        assert s.delivered == []  # c's stamp has not reached 5
        sym.on_data(data("g", "c", 0, ts=5, kind=KIND_NULL))
        assert s.delivered == [("b", "b#1")]

    def test_delivery_in_timestamp_order(self):
        s = StubSession("me", ["me", "a", "b"])
        sym = make(s, "symmetric")
        sym.on_data(data("g", "b", 1, ts=7))
        sym.on_data(data("g", "a", 1, ts=3))
        sym.on_data(data("g", "a", 0, ts=10, kind=KIND_NULL))
        sym.on_data(data("g", "b", 0, ts=11, kind=KIND_NULL))
        assert [p for _s, p in s.delivered] == ["a#1", "b#1"]

    def test_tie_broken_by_sender_id(self):
        s = StubSession("me", ["me", "a", "b"])
        sym = make(s, "symmetric")
        sym.on_data(data("g", "b", 1, ts=5))
        sym.on_data(data("g", "a", 1, ts=5))
        sym.on_data(data("g", "a", 0, ts=9, kind=KIND_NULL))
        sym.on_data(data("g", "b", 0, ts=9, kind=KIND_NULL))
        assert [p for _s, p in s.delivered] == ["a#1", "b#1"]

    def test_frontier_key_lower_bound(self):
        s = StubSession("me", ["me", "a"])
        sym = make(s, "symmetric")
        assert sym.frontier_key() == (1, "")  # nothing heard from a
        sym.on_data(data("g", "a", 0, ts=4, kind=KIND_NULL))
        assert sym.frontier_key() == (5, "")

    def test_finalize_orders_remaining(self):
        s = StubSession("me", ["me", "a", "b"])
        sym = make(s, "symmetric")
        sym.on_data(data("g", "a", 1, ts=6))
        union = [data("g", "b", 1, ts=4), data("g", "a", 1, ts=6)]
        remaining = sym.finalize(union, [])
        assert [m.payload for m in remaining] == ["b#1", "a#1"]

    def test_finalize_respects_frontier(self):
        s = StubSession("me", ["me", "a", "b"])
        sym = make(s, "symmetric")
        sym.on_data(data("g", "a", 1, ts=2))
        sym.on_data(data("g", "a", 0, ts=5, kind=KIND_NULL))
        sym.on_data(data("g", "b", 0, ts=5, kind=KIND_NULL))
        assert s.delivered  # (2, a) delivered
        remaining = sym.finalize([data("g", "a", 1, ts=2), data("g", "b", 1, ts=9)], [])
        assert [m.payload for m in remaining] == ["b#1"]


# ---------------------------------------------------------------------------
# asymmetric
# ---------------------------------------------------------------------------
class TestAsymmetric:
    def test_sequencer_assigns_and_announces(self):
        s = StubSession("seq", ["seq", "x"])
        asym = make(s, "asymmetric")
        asym.on_data(data("g", "x", 1, ts=3))
        assert s.service.ticket_batcher.announced == [(1, ("x", 1))]
        assert s.delivered == [("x", "x#1")]

    def test_member_waits_for_ticket(self):
        s = StubSession("x", ["seq", "x"])
        asym = make(s, "asymmetric")
        asym.on_data(data("g", "seq", 1, ts=3))  # no embedded ticket
        assert s.delivered == []
        asym.on_tickets([(1, "seq", 1)])
        assert s.delivered == [("seq", "seq#1")]

    def test_embedded_ticket_delivers_immediately(self):
        s = StubSession("x", ["seq", "x"])
        asym = make(s, "asymmetric")
        asym.on_data(data("g", "seq", 1, ts=3, ticket=7))
        assert s.delivered == [("seq", "seq#1")]

    def test_ticket_order_respected_even_if_data_lags(self):
        s = StubSession("x", ["seq", "x", "y"])
        asym = make(s, "asymmetric")
        # tickets 1 (y's msg) then 2 (seq's msg); y's data arrives last
        asym.on_tickets([(1, "y", 1)])
        asym.on_data(data("g", "seq", 1, ts=5, ticket=2))
        assert s.delivered == []  # ticket 1's data still missing
        asym.on_data(data("g", "y", 1, ts=4))
        assert [p for _s, p in s.delivered] == ["y#1", "seq#1"]

    def test_finalize_ticketed_then_unticketed(self):
        s = StubSession("x", ["seq", "x", "y"])
        asym = make(s, "asymmetric")
        union = [
            data("g", "y", 1, ts=9),          # unticketed
            data("g", "seq", 1, ts=2, ticket=4),
            data("g", "seq", 2, ts=3, ticket=5),
        ]
        remaining = asym.finalize(union, [(4, "seq", 1), (5, "seq", 2)])
        assert [m.payload for m in remaining] == ["seq#1", "seq#2", "y#1"]

    def test_nulls_ignored(self):
        s = StubSession("x", ["seq", "x"])
        asym = make(s, "asymmetric")
        asym.on_data(data("g", "seq", 0, ts=3, kind=KIND_NULL))
        assert not asym.backlog


# ---------------------------------------------------------------------------
# causal / fifo
# ---------------------------------------------------------------------------
class TestCausal:
    def test_buffered_until_causally_ready(self):
        s = StubSession("c", ["a", "b", "c"])
        causal = make(s, "causal")
        # b's message depends on a's first message
        causal.on_data(data("g", "b", 1, ts=2, vector={"a": 1, "b": 1}))
        assert s.delivered == []
        causal.on_data(data("g", "a", 1, ts=1, vector={"a": 1}))
        assert [p for _s, p in s.delivered] == ["a#1", "b#1"]

    def test_per_sender_fifo_within_causal(self):
        s = StubSession("c", ["a", "c"])
        causal = make(s, "causal")
        causal.on_data(data("g", "a", 2, ts=2, vector={"a": 2}))
        assert s.delivered == []
        causal.on_data(data("g", "a", 1, ts=1, vector={"a": 1}))
        assert [p for _s, p in s.delivered] == ["a#1", "a#2"]


class TestFifo:
    def test_immediate_delivery(self):
        s = StubSession("b", ["a", "b"])
        fifo = make(s, "fifo")
        fifo.on_data(data("g", "a", 1, ts=9))
        fifo.on_data(data("g", "a", 2, ts=2))
        assert [p for _s, p in s.delivered] == ["a#1", "a#2"]


def test_make_ordering_rejects_unknown():
    with pytest.raises(ValueError):
        make_ordering("wavy", None)


# ---------------------------------------------------------------------------
# mergers
# ---------------------------------------------------------------------------
class TestSharedClockMerger:
    def test_cross_session_order(self):
        service = StubService()
        s1 = StubSession("me", ["me", "a"], service)
        s2 = StubSession("me", ["me", "b"], service)
        sym1, sym2 = make(s1, "symmetric"), make(s2, "symmetric")
        # session 2 receives ts 5 (deliverable after b's null), session 1 ts 3
        sym2.on_data(data("g2", "b", 1, ts=5))
        sym1.on_data(data("g1", "a", 1, ts=3))
        sym1.on_data(data("g1", "a", 0, ts=9, kind=KIND_NULL))
        sym2.on_data(data("g2", "b", 0, ts=9, kind=KIND_NULL))
        service.clock_merger.drain()
        combined = s1.delivered + s2.delivered
        # ts 3 (g1) delivered before ts 5 (g2)
        assert ("a", "a#1") in s1.delivered and ("b", "b#1") in s2.delivered

    def test_gating_holds_back_later_message(self):
        service = StubService()
        s1 = StubSession("me", ["me", "a"], service)
        s2 = StubSession("me", ["me", "b"], service)
        sym1, sym2 = make(s1, "symmetric"), make(s2, "symmetric")
        # g1 has a PENDING earlier message (ts 3, not yet deliverable)
        sym1.on_data(data("g1", "a", 1, ts=3))
        # g2 clears a later message (ts 5)
        sym2.on_data(data("g2", "b", 1, ts=5))
        sym2.on_data(data("g2", "b", 0, ts=9, kind=KIND_NULL))
        service.clock_merger.drain()
        assert s2.delivered == []  # gated by g1's pending ts-3 message
        sym1.on_data(data("g1", "a", 0, ts=9, kind=KIND_NULL))
        service.clock_merger.drain()
        assert s1.delivered == [("a", "a#1")]
        assert s2.delivered == [("b", "b#1")]

    def test_a_session_left_alone_drains_the_heap_before_going_direct(self):
        service = StubService()
        s1 = StubSession("me", ["me", "a"], service)
        s2 = StubSession("me", ["me", "b"], service)
        sym1, sym2 = make(s1, "symmetric"), make(s2, "symmetric")
        sym1.on_data(data("g1", "a", 1, ts=3))  # pending: gates g2's ts 5
        sym2.on_data(data("g2", "b", 1, ts=5))
        sym2.on_data(data("g2", "b", 0, ts=9, kind=KIND_NULL))
        assert s2.delivered == []
        sym1.detach()
        # g2 is now the lone session, but its ts-5 message is still queued
        # in the merger: it must go first, not be overtaken
        assert service.clock_merger.lone is s2
        sym2.on_data(data("g2", "b", 2, ts=10))
        sym2.on_data(data("g2", "b", 0, ts=12, kind=KIND_NULL))
        assert s2.delivered == [("b", "b#1"), ("b", "b#2")]

    def test_unregister_purges_entries(self):
        service = StubService()
        s1 = StubSession("me", ["me", "a"], service)
        sym1 = make(s1, "symmetric")
        service.clock_merger.push(s1, data("g1", "a", 1, ts=1), (1, "a"))
        service.clock_merger.unregister(s1)
        assert service.clock_merger.queued_count() == 0


class TestTicketMerger:
    def test_purge_drops_session_entries(self):
        service = StubService()
        s = StubSession("x", ["seq", "x"], service)
        asym = make(s, "asymmetric")
        asym.on_tickets([(1, "y", 1)])  # data never comes
        assert service.ticket_merger.queued_count() == 1
        service.ticket_merger.purge(s)
        assert service.ticket_merger.queued_count() == 0

    def test_purge_leaves_a_deliverable_head_for_the_next_event(self):
        # two groups under one sequencer: A's ticket 1 is known but its data
        # is missing, so B's arrived ticket-2 message queues behind it
        service = StubService()
        sa = StubSession("x", ["seq", "x", "y"], service)
        sb = StubSession("x", ["seq", "x", "y"], service)
        asym_a, asym_b = make(sa, "asymmetric"), make(sb, "asymmetric")
        asym_a.on_tickets([(1, "y", 1)])
        asym_b.on_data(data("g2", "seq", 1, ts=5, ticket=2))
        assert sb.delivered == []
        # purging A uncovers B's message, but delivers nothing by itself...
        service.ticket_merger.purge(sa)
        assert sa.delivered == sb.delivered == []
        # ...the next event of any kind does, as it did when every event
        # swept every queue
        asym_b.on_data(data("g2", "seq", 0, ts=6, kind=KIND_NULL))
        assert sb.delivered == [("seq", "seq#1")]
        assert sa.delivered == []
