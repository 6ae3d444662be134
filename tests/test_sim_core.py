"""Tests for the discrete-event kernel."""

import itertools
import operator
import random
from contextlib import contextmanager
from heapq import heappop, heappush

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net import FixedLatency, Network, Topology
from repro.net import node as node_costs
from repro.obs import Observability
from repro.obs.metrics import CHUNK, ZERO_BUCKET, Histogram
from repro.sim import SimulationError, Simulator
from repro.sim.core import Cpu, Deadline


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(2.0, log.append, "b")
    sim.schedule(1.0, log.append, "a")
    sim.schedule(3.0, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    log = []
    for label in "abcde":
        sim.schedule(1.0, log.append, label)
    sim.run()
    assert log == list("abcde")


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, "a")
    sim.schedule(5.0, log.append, "b")
    sim.run(until=2.0)
    assert log == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert log == ["a", "b"]


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_cancel_prevents_execution():
    sim = Simulator()
    log = []
    timer = Deadline(sim, log.append, "x")
    timer.arm(1.0)
    timer.due = None
    sim.run()
    assert log == [] and sim.events_processed == 0


def test_cannot_schedule_in_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    assert sim.pending_count() == 0  # a refused event left nothing behind
    sim.schedule_at(sim.now, lambda: None)  # "now" is not the past
    assert sim.pending_count() == 1


def test_nested_scheduling_from_callback():
    sim = Simulator()
    log = []

    def outer():
        log.append(("outer", sim.now))
        sim.schedule(1.0, inner)

    def inner():
        log.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert log == [("outer", 1.0), ("inner", 2.0)]


def test_a_zero_delay_event_runs_after_pending_same_time_events():
    sim = Simulator()
    log = []
    sim.schedule_at(0.0, log.append, "first")
    sim.schedule(0.0, log.append, "second")
    sim.run()
    assert log == ["first", "second"]


def test_max_events_bound():
    sim = Simulator()
    log = []
    for i in range(10):
        sim.schedule(float(i), log.append, i)
    sim.run(max_events=3)
    assert log == [0, 1, 2]


def test_rng_streams_are_deterministic_and_independent():
    sim1 = Simulator(seed=7)
    sim2 = Simulator(seed=7)
    a1 = [sim1.rng("a").random() for _ in range(5)]
    # consuming another stream must not perturb "a"
    sim2.rng("b").random()
    a2 = [sim2.rng("a").random() for _ in range(5)]
    assert a1 == a2


def test_rng_streams_differ_across_seeds():
    assert Simulator(seed=1).rng("a").random() != Simulator(seed=2).rng("a").random()


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


# ---------------------------------------------------------------------------
# stopping a timer: a Deadline disarmed
# ---------------------------------------------------------------------------
def _armed(sim, delay, fn, *args):
    timer = Deadline(sim, fn, *args)
    timer.arm(delay)
    return timer


def test_cancel_is_idempotent_and_safe_after_the_event_fired():
    sim = Simulator()
    log = []
    fired = _armed(sim, 1.0, log.append, "fired")
    dropped = _armed(sim, 2.0, log.append, "dropped")
    assert sim.pending_count() == 2
    dropped.due = None
    dropped.due = None
    assert sim.pending_count() == 1
    sim.run()
    assert log == ["fired"]
    fired.due = None  # too late to matter, and harmless
    fired.due = None
    sim.schedule(1.0, log.append, "later")
    sim.run()
    assert log == ["fired", "later"]
    assert sim.events_processed == 2


def test_a_cancelled_head_is_skipped_by_run_and_pending_count():
    sim = Simulator()
    log = []
    heads = [_armed(sim, 1.0, log.append, f"head{i}") for i in range(3)]
    sim.schedule(2.0, log.append, "a")
    sim.schedule(3.0, log.append, "b")
    sim.schedule(4.0, log.append, "c")
    for head in heads:
        head.due = None
    assert sim.pending_count() == 3
    sim.run(max_events=1)
    assert log == ["a"]
    assert sim.now == 2.0  # the clock never visited the cancelled 1.0
    _armed(sim, 0.5, log.append, "cancelled too").due = None
    sim.run(until=3.5)
    assert log == ["a", "b"]
    assert sim.pending_count() == 1
    sim.run()
    assert log == ["a", "b", "c"] and sim.events_processed == 3
    assert sim.pending_count() == 0 and sim.now == 4.0


def test_a_thousand_same_timestamp_events_run_in_insertion_order():
    sim = Simulator()
    log = []
    for i in range(1000):
        if i % 7:
            sim.schedule_at(1.0, log.append, i)
        else:  # a stopped timer among them
            _armed(sim, 1.0, log.append, i).due = None
    # a callback scheduling at its own timestamp queues behind all of them
    sim.schedule_at(0.5, lambda: sim.schedule_at(1.0, log.append, "last"))
    sim.run()
    assert log == [i for i in range(1000) if i % 7] + ["last"]


def test_an_event_runs_under_the_trace_context_it_was_scheduled_in():
    sim = Simulator(obs=Observability(trace=True))
    tracer = sim.obs.tracer
    seen = []
    span = tracer.start_span("cause", kind="test", node="n")
    tracer.ctx = span
    sim.schedule(1.0, lambda: seen.append(tracer.ctx))
    tracer.ctx = None
    sim.schedule(2.0, lambda: seen.append(tracer.ctx))
    assert tracer.ctx is None
    sim.run()
    assert seen == [span, None]
    assert tracer.ctx is None  # restored after the callback


def test_events_without_a_context_skip_the_save_and_restore():
    """The fast path: no event and no caller carries a context, so the loop
    must not touch ``tracer.ctx`` at all — a tracer whose ``ctx`` cannot be
    assigned proves it."""

    class ReadOnlyContext:
        ctx = property(lambda self: None)

    sim = Simulator()
    sim._tracer = ReadOnlyContext()
    log = []
    sim.schedule(1.0, log.append, "ran")
    sim.run()
    assert log == ["ran"]


# ---------------------------------------------------------------------------
# Deadline: schedule/cancel by another name
# ---------------------------------------------------------------------------
class PopThenPush(Simulator):
    """The reference loop: an entry leaves the heap before its callback
    runs, and every push is a ``heappush``.  Its ``schedule`` and
    ``schedule_at`` return the entry, which ``_stop`` cancels by clearing
    its callback; the loop drops such an entry when it surfaces (so no
    :class:`Deadline` may run on this kernel)."""

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} before now={self.now}")
        self._seq += 1
        entry = [time, self._seq, fn, args, self._tracer.ctx, None]
        heappush(self._queue, entry)
        return entry

    def _run_loop(self, until, max_events):
        queue = self._queue
        tracer = self._tracer
        executed = 0
        while queue:
            time, _seq, fn, args, ctx, life = queue[0]
            if fn is None:  # cancelled
                heappop(queue)
                continue
            if until is not None and time > until:
                break
            if max_events is not None and executed >= max_events:
                return executed, True
            heappop(queue)
            self.now = time
            self._events_processed += 1
            executed += 1
            if life is not None and not life.alive:
                continue
            prev, tracer.ctx = tracer.ctx, ctx
            try:
                fn(*args)
            finally:
                tracer.ctx = prev
        return executed, False

    def pending_count(self):
        return sum(1 for ev in self._queue if ev[2] is not None)


class ScheduledDeadline:
    """The reference: a deadline as ``schedule`` after ``cancel``, on a
    :class:`PopThenPush` kernel."""

    def __init__(self, sim, fn, *args):
        self.sim, self.fn, self.args = sim, fn, args
        self.event = None

    def arm(self, delay):
        self.disarm()
        self.event = self.sim.schedule(delay, self._fire)

    def disarm(self):
        if self.event is not None:
            _stop(self.event)
            self.event = None

    def _fire(self):
        self.event = None
        self.fn(*self.args)


def _disarm(timer):
    if isinstance(timer, Deadline):
        timer.due = None
    else:
        timer.disarm()


def _start(sim, delay, fn, label):
    """A one-shot timer that may be stopped: on the kernel a ``Deadline``
    armed once, on :class:`PopThenPush` a scheduled entry."""
    if isinstance(sim, PopThenPush):
        return sim.schedule(delay, fn, label)
    return _armed(sim, delay, fn, label)


def _stop(timer):
    if isinstance(timer, Deadline):
        timer.due = None
    else:
        timer[2] = None  # the reference kernel's cancel


def _play(sim_class, make_timer, script, reactions):
    """Run ``script`` (timer and event actions, and ``run`` slices) on a
    fresh kernel of ``sim_class`` whose deadlines ``make_timer`` builds; each
    firing applies the next of ``reactions``.  Every action runs under its
    own trace context.  Returns the firings ``(label, now, ctx)`` and, after
    each step, ``pending_count()`` and after each slice ``events_processed``
    and ``now`` too."""
    sim = sim_class()
    tracer = sim.obs.tracer
    fired, events, states = [], [], []

    def fire(label):
        fired.append((label, sim.now, tracer.ctx))
        if len(fired) <= len(reactions):
            apply(reactions[len(fired) - 1], f"reaction{len(fired)}")

    def apply(action, ctx):
        kind, index, delay = action
        prev, tracer.ctx = tracer.ctx, ctx
        if kind == "arm":
            timers[index].arm(delay)
        elif kind == "disarm":
            _disarm(timers[index])
        elif kind == "schedule":
            events.append(_start(sim, delay, fire, f"event{len(events)}"))
        elif events:
            _stop(events[index % len(events)])
        tracer.ctx = prev

    timers = [make_timer(sim, fire, f"deadline{i}") for i in range(2)]
    for step, action in enumerate(script):
        if action[0] == "run":
            _, span, cap = action
            sim.run(until=None if span is None else sim.now + span, max_events=cap)
            states.append((sim.events_processed, sim.now, sim.pending_count()))
        else:
            apply(action, f"step{step}")
            states.append(sim.pending_count())
    sim.run()
    states.append((sim.events_processed, sim.now, sim.pending_count()))
    return fired, states


_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5])
_ARM = st.tuples(st.just("arm"), st.integers(0, 1), _DELAYS)
_ACTIONS = st.one_of(
    _ARM,
    _ARM,
    st.tuples(st.just("disarm"), st.integers(0, 1), st.just(0.0)),
    st.tuples(st.just("schedule"), st.just(0), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 9), st.just(0.0)),
)
_SLICES = st.tuples(
    st.just("run"),
    st.sampled_from([None, 0.0, 0.5, 0.75, 1.0, 2.5]),
    st.sampled_from([None, 0, 1, 2, 3]),
)


@settings(max_examples=300, deadline=None)
@given(
    script=st.lists(st.one_of(_ACTIONS, _ACTIONS, _SLICES), max_size=40),
    reactions=st.lists(_ACTIONS, max_size=20),
)
# re-armed earlier, past an event due between the two times
@example(
    script=[("schedule", 0, 1.0), ("arm", 0, 1.0), ("arm", 0, 0.5), ("run", 0.75, None)],
    reactions=[],
)
def test_a_deadline_is_schedule_and_cancel_by_another_name(script, reactions):
    """Arms (earlier and later), disarms, and ordinary events at colliding
    times, driven through ``run(until=, max_events=)`` slices: the kernel's
    ``Deadline`` fires the same callbacks at the same times under the same
    contexts as ``schedule``/``cancel`` on the reference kernel, and counts
    the same events; so does a one-shot ``Deadline`` disarmed (``cancel``)
    against a cancelled event."""
    assert _play(Simulator, Deadline, script, reactions) == _play(
        PopThenPush, ScheduledDeadline, script, reactions
    )


def test_a_deadline_re_armed_later_keeps_one_heap_entry_and_fires_once():
    sim = Simulator()
    log = []
    timer = Deadline(sim, log.append, "due")
    timer.arm(1.0)
    timer.arm(2.0)  # later: the entry at 1.0 stands, moved on when it surfaces
    timer.due = None
    timer.arm(3.0)
    assert len(sim._queue) == 1 and sim.pending_count() == 1
    sim.run(until=2.5)
    assert log == [] and sim.events_processed == 0
    sim.run()
    assert (log, sim.now, sim.events_processed) == (["due"], 3.0, 1)
    assert timer.due is None and sim.pending_count() == 0


def test_a_deadline_cannot_be_armed_in_the_past():
    timer = Deadline(Simulator(), print)
    with pytest.raises(SimulationError):
        timer.arm(-1e-9)


# ---------------------------------------------------------------------------
# Cpu: the kernel's serial FIFO processor
# ---------------------------------------------------------------------------
def make_cpu():
    sim = Simulator()
    return sim, Cpu(sim, Histogram("queue_delay")), []


def waits(cpu):
    """The queueing delays ``cpu`` recorded, in order: its histogram's
    unfolded chunk, ``_chunk[:_filled]``, while fewer than CHUNK."""
    hist = cpu._queue_delay
    return hist._chunk[: hist._filled]


def test_a_cpu_job_starts_when_the_one_before_it_ends_or_now_when_idle():
    sim, cpu, ran = make_cpu()
    cpu.submit(1.0, lambda: ran.append(sim.now))
    cpu.submit(2.0, lambda: ran.append(sim.now))  # queued behind the first
    assert cpu.busy_until == 3.0
    sim.schedule(5.0, cpu.submit, 1.0, lambda: ran.append(sim.now))  # idle since 3
    sim.run()
    assert ran == [1.0, 3.0, 6.0]
    assert (cpu.busy_until, cpu.busy_total) == (6.0, 4.0)
    assert sim.events_processed == 4  # three jobs, one timer: a job is one event


def test_every_cpu_submission_records_its_queueing_delay_once():
    sim, cpu, _ran = make_cpu()
    for _ in range(3):
        cpu.submit(1.0, lambda: None)
    sim.schedule(2.5, cpu.submit, 1.0, lambda: None)
    sim.run()
    assert waits(cpu) == [0.0, 1.0, 2.0, 0.5]


def test_a_cpu_fed_histogram_equals_one_fed_through_record():
    """``Cpu.submit`` writes the histogram's chunk itself: across chunk
    folds, zero and non-zero waits and a crash, the histogram equals one fed
    the same waits through ``record``, and a dead incarnation records
    nothing."""
    sim = Simulator()
    fed, reference = Histogram("fed"), Histogram("reference")
    cpu = Cpu(sim, fed)
    crashed = {"now": False, "submits": 0}

    def submit(cost):
        now, filled = sim.now, fed._filled
        if crashed["now"]:
            crashed["submits"] += 1
        else:
            reference.record(max(cpu.busy_until, now) - now)
        cpu.submit(cost, lambda: None)
        if crashed["now"]:
            assert fed._filled == filled

    def crash(now):
        crashed["now"] = now
        (cpu.crash if now else cpu.recover)()

    rng = random.Random(5)
    t = 0.0
    for _ in range(400):
        t += rng.choice((0.0, 0.5, 2.0)) * rng.random()
        sim.schedule(t, submit, rng.choice((0.1, 1.0)))
    sim.schedule(t / 2, crash, True)
    sim.schedule(t / 2 + 3.0, crash, False)
    sim.run()
    assert crashed["submits"] > 0
    assert fed.count == reference.count == 400 - crashed["submits"] > CHUNK
    assert 0 < reference.buckets[ZERO_BUCKET] < reference.count
    assert fed.summary() == reference.summary()
    assert fed.buckets == reference.buckets


def test_a_recovered_cpu_is_idle_from_now_and_runs_no_job_from_before_the_crash():
    sim, cpu, ran = make_cpu()
    cpu.submit(5.0, ran.append, "before the crash")
    sim.schedule(1.0, cpu.crash)
    sim.schedule(1.5, cpu.submit, 1.0, ran.append, "while crashed")
    sim.run(until=2.0)
    assert (cpu.busy_until, cpu.busy_total) == (1.0, 1.0)  # 4 s never ran
    cpu.recover()
    assert cpu.busy_until == 2.0
    cpu.submit(1.0, ran.append, "after the recovery")
    sim.run()
    assert ran == ["after the recovery"]
    assert sim.now == 5.0  # the dead job still pops, and counts, at its time
    assert (cpu.busy_total, waits(cpu)) == (2.0, [0.0, 0.0])


# ---------------------------------------------------------------------------
# hold: the loop against one that pops, then pushes
# ---------------------------------------------------------------------------
class Boom(Exception):
    """A callback's deliberate failure."""


def _heap_is_valid(queue):
    return all(queue[(i - 1) // 2][:2] < queue[i][:2] for i in range(1, len(queue)))


@contextmanager
def _round_receive_cost(cost):
    """A receive costs ``cost`` seconds and nothing per byte, so receive
    jobs land on the same grid as every other event."""
    saved = node_costs.RECV_OVERHEAD, node_costs.PER_BYTE
    node_costs.RECV_OVERHEAD, node_costs.PER_BYTE = cost, 0.0
    try:
        yield
    finally:
        node_costs.RECV_OVERHEAD, node_costs.PER_BYTE = saved


def _lan_pair(sim):
    """A sender ``s`` and a receiver ``r`` on one LAN, 0.5 s apart."""
    topology = Topology()
    topology.add_site("lan", FixedLatency(0.5))
    net = Network(sim, topology)
    net.new_node("s", "lan")
    return net, net.new_node("r", "lan")


def _replay(sim_class, make_timer, script, reactions):
    """Run ``script`` on a kernel of ``sim_class`` with a sender ``s`` and a
    receiver ``r`` 0.5 s apart; each firing applies the next list of
    ``reactions`` (push nothing, one entry or several; start or stop a
    one-shot timer, arm, disarm, submit, send, crash, recover; stop its own
    timer; raise).  Returns
    the firings ``(label, now, ctx, pending_count())`` and the states after
    every step, every reaction list and every ``run`` slice (a slice that
    raised records that too)."""
    sim = sim_class(seed=3)
    tracer = sim.obs.tracer
    net, receiver = _lan_pair(sim)
    receiver.register("t", lambda src, label, size: fire(label))
    cpu = receiver.cpu
    fired, states, handles = [], [], {}
    labels = itertools.count()

    def fire(label):
        fired.append((label, sim.now, tracer.ctx, sim.pending_count()))
        if len(fired) <= len(reactions):
            k = len(fired)
            for j, action in enumerate(reactions[k - 1]):
                apply(action, f"reaction{k}.{j}", label)
            states.append(("reacted", sim.pending_count(), cpu.busy_until, cpu.busy_total))

    def apply(action, ctx, running):
        kind = action[0]
        label = f"{kind}{next(labels)}"
        prev, tracer.ctx = tracer.ctx, ctx
        try:
            if kind == "schedule":
                sim.schedule(action[1], fire, label)
            elif kind == "schedule_at":
                sim.schedule_at(sim.now + action[1], fire, label)
            elif kind == "start":
                handles[label] = _start(sim, action[1], fire, label)
            elif kind == "arm":
                timers[action[1]].arm(action[2])
            elif kind == "disarm":
                _disarm(timers[action[1]])
            elif kind == "cancel":
                if handles:
                    _stop(handles[sorted(handles)[action[1] % len(handles)]])
            elif kind == "cancel_self":
                if running in handles:
                    _stop(handles[running])
            elif kind == "submit":
                cpu.submit(action[1], fire, label)
            elif kind == "send":
                net.transmit("s", "r", "t", label, 0)
            elif kind == "crash":
                if receiver.alive:
                    net.crash("r")
            elif kind == "recover":
                if not receiver.alive:
                    net.recover("r")
            elif kind == "raise" and running is not None:
                raise Boom(label)
        finally:
            tracer.ctx = prev

    def run(until=None, max_events=None):
        try:
            sim.run(until=until, max_events=max_events)
        except Boom:
            states.append("raised")
        states.append((sim.events_processed, sim.now, sim.pending_count()))

    timers = [make_timer(sim, fire, f"deadline{i}") for i in range(2)]
    with _round_receive_cost(0.5):
        for step, action in enumerate(script):
            if action[0] == "run":
                run(None if action[1] is None else sim.now + action[1], action[2])
            else:
                apply(action, f"step{step}", None)
                states.append(sim.pending_count())
        while sim.pending_count():
            run()
        run()
    hist = cpu._queue_delay
    states.append((cpu.busy_until, cpu.busy_total, hist.count, hist.total))
    return fired, states


_GRID = st.sampled_from([0.0, 0.5, 1.0])
_KERNEL_ACTIONS = st.one_of(
    st.tuples(st.just("schedule"), _GRID),
    st.tuples(st.just("schedule_at"), _GRID),
    st.tuples(st.just("start"), _GRID),
    st.tuples(st.just("arm"), st.integers(0, 1), _GRID),
    st.tuples(st.just("disarm"), st.integers(0, 1)),
    st.tuples(st.just("cancel"), st.integers(0, 9)),
    st.tuples(st.just("submit"), _GRID),
    st.tuples(st.just("send")),
    st.tuples(st.just("send")),
    st.tuples(st.sampled_from(["crash", "recover"])),
)
_REACTIONS = st.lists(
    st.lists(
        st.one_of(_KERNEL_ACTIONS, st.tuples(st.sampled_from(["cancel_self", "raise"]))),
        max_size=3,
    ),
    max_size=15,
)
_RUN_SLICES = st.tuples(
    st.just("run"),
    st.sampled_from([None, 0.0, 0.25, 0.5, 1.0, 1.5]),
    st.sampled_from([None, 0, 1, 2, 3]),
)


@settings(max_examples=400, deadline=None)
@given(
    script=st.lists(st.one_of(_KERNEL_ACTIONS, _KERNEL_ACTIONS, _RUN_SLICES), max_size=30),
    reactions=_REACTIONS,
)
# a callback pushes two entries: only the first may take the held root
@example(script=[("schedule", 0.5)], reactions=[[("schedule", 0.5), ("schedule", 1.0)]])
# a callback raises after pushing, and the run goes on
@example(
    script=[("schedule", 0.5), ("schedule", 1.0), ("run", None, None)],
    reactions=[[("schedule", 0.5), ("raise",)]],
)
# an arrival due after ``until`` does not run in that slice
@example(script=[("send",), ("run", 0.25, None)], reactions=[])
# crashed and recovered in flight: the new incarnation takes the message
@example(script=[("send",), ("crash",), ("recover",)], reactions=[])
def test_the_holding_loop_runs_what_a_pop_then_push_loop_runs(script, reactions):
    """Random scripts and callbacks, through ``run(until=, max_events=)``
    slices and raising callbacks: the kernel (holding the running entry at
    the heap root) fires the same callbacks at the same times under the
    same contexts, counts the same events, keeps the same clock and CPU
    accounts, and reports the same
    ``pending_count()`` — from inside callbacks too — as a loop that pops
    every entry before running it and stops a timer by cancelling its
    entry."""
    assert _replay(Simulator, Deadline, script, reactions) == _replay(
        PopThenPush, ScheduledDeadline, script, reactions
    )


def test_a_callback_that_raises_leaves_its_entry_gone_and_the_heap_valid():
    sim = Simulator()
    sim.schedule(1.0, operator.truediv, 1, 0)
    failing = sim._queue[0]
    for t in (3.0, 2.0, 4.0, 2.0):
        sim.schedule(t, lambda: None)
    with pytest.raises(ZeroDivisionError):
        sim.run()
    assert (sim.now, sim.events_processed, sim.pending_count()) == (1.0, 1, 4)
    assert all(entry is not failing for entry in sim._queue)
    assert len(sim._queue) == 4 and _heap_is_valid(sim._queue) and not sim._vacant
    sim.run()
    assert (sim.now, sim.events_processed) == (4.0, 5)


def test_a_callback_that_raises_after_pushing_leaves_its_entry_gone_and_the_heap_valid():
    sim = Simulator()
    log = []

    def push_then_raise():
        sim.schedule(0.5, log.append, "first")
        sim.schedule(0.0, log.append, "second")
        raise Boom

    sim.schedule(1.0, push_then_raise)
    failing = sim._queue[0]
    sim.schedule(1.0, log.append, "tie")
    with pytest.raises(Boom):
        sim.run()
    assert all(entry is not failing for entry in sim._queue)
    assert len(sim._queue) == 3 and _heap_is_valid(sim._queue) and not sim._vacant
    assert sim.pending_count() == 3
    sim.run()
    assert log == ["tie", "second", "first"] and sim.events_processed == 4


def test_run_until_and_max_events_stop_on_an_arrival_as_on_any_event():
    """An arrival is one event under both budgets: due after ``until`` it
    waits; run, it counts one event and its receive job is a second."""
    sim = Simulator()
    net, receiver = _lan_pair(sim)
    got = []
    receiver.register("t", lambda src, payload, size: got.append((payload, sim.now)))
    with _round_receive_cost(0.25):
        net.transmit("s", "r", "t", "hello", 0)
    assert sim.pending_count() == 1
    sim.run(until=0.4)
    assert (sim.now, sim.events_processed, sim.pending_count()) == (0.4, 0, 1)
    sim.run(max_events=0)
    assert (sim.now, sim.events_processed, sim.pending_count()) == (0.4, 0, 1)
    sim.run(max_events=1)  # the arrival counts, the job waits
    assert (sim.now, sim.events_processed, sim.pending_count()) == (0.5, 1, 1)
    assert receiver.cpu.busy_until == 0.75 and got == []
    sim.run(until=0.6, max_events=5)
    assert (sim.now, sim.events_processed, got) == (0.6, 1, [])
    sim.run(max_events=1)
    assert (sim.now, sim.events_processed, got) == (0.75, 2, [("hello", 0.75)])
    assert sim.pending_count() == 0 and sim._queue == []
