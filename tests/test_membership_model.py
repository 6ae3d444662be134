"""The membership engine, four copies composed over an in-memory network,
with no simulator: a Hypothesis state machine.

This is the method of *Behavioural Models for Group Communications*: each
member is one labelled transition system (``MembershipEngine.step``), and
the system is their composition.  The network keeps the channel's contract
and no more:

- each ordered pair of members is a FIFO queue that loses nothing, across a
  partition too: frames wait, and arrive after the heal;
- any non-empty queue whose ends are on one side may deliver next;
- a crash keeps, of each queue leaving the crashed member, a prefix;
- the flush timer of a crashed member still fires, as the kernel fires a
  dead node's deadlines;
- a member may suspect any other at any time, wrongly too, and is drawn
  more often to one it cannot hear (across the partition, crashed, or in a
  view that left it out); a run has three such suspicions at most.

The shell here applies the engine's outputs as ``GroupSession.
membership_step`` does: a message to oneself re-enters ``step`` at once, an
``answer`` sends a ``FlushOk`` (with no messages: none are modelled), and a
member that asked to leave asks again at each install.

Properties, checked as each output is applied:

- (P1) a live member installs only views that contain it;
- (P2) view ids strictly increase within an era at each member;
- (P5) a crashed or closed member sends nothing;
- (P6) each member a coordinator drops was suspected by it, reported to it
  by a member of its view, or asked to leave.

Two more are ROADMAP item 4(a)'s rules, and fail today (strict xfails):

- (P3) an install counts only if it comes from the coordinator of a view
  the receiver was in or was joining: one whose ``FlushReq`` the receiver
  answered in its current view, unless the receiver asked to leave;
- (P4) a suspicion raised on the minority side of a partition never removes
  a member of the majority side after the heal.

Tier-1 runs a derandomized budget.  ``REPRO_MEMBERSHIP_EXAMPLES=N`` runs N
examples from a fresh seed, which it prints (CI's ``sweeps`` job).
"""

from __future__ import annotations

import os
import random
from collections import deque

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.groupcomm import GroupConfig
from repro.groupcomm.membership import CLOSE, CRASH, TIMEOUT, Join, MembershipEngine, Suspect
from repro.groupcomm.messages import FlushOk, LeaveReq, SuspectMsg, ViewInstall
from repro.groupcomm.views import GroupView

GROUP = "g"
MEMBERS = ("n0", "n1", "n2")  # the first view
JOINER = "n3"
NODES = MEMBERS + (JOINER,)
PAIRS = [(a, b) for a in NODES for b in NODES if a != b]
CONFIG = GroupConfig()

KNOWN_4A = (
    "ROADMAP item 4(a): a minority's suspicion, delivered after the heal, "
    "removes a majority member"
)

#: local suspicions per run: a few keep the group alive long enough for the
#: schedules that matter (reports crossing installs)
SUSPICIONS = 3

EXAMPLES = int(os.environ.get("REPRO_MEMBERSHIP_EXAMPLES", "0"))


class Membership(RuleBasedStateMachine):
    """Four engines, the network between them, and the properties' records.
    ``CHECK`` names the properties a run asserts."""

    CHECK = frozenset({"P1", "P2", "P5", "P6"})

    def __init__(self):
        super().__init__()
        first = GroupView(GROUP, 1, list(MEMBERS), era="n0#1")
        self.engines = {
            node: MembershipEngine(node, GROUP, first if node in MEMBERS else None, CONFIG)
            for node in NODES
        }
        self.queues = {pair: deque() for pair in PAIRS}
        self.views = {node: first if node in MEMBERS else None for node in NODES}
        self.armed = set()
        self.crashed = set()
        self.closed = set()
        self.leaving = set()
        self.suspicions = 0
        self.joined = False
        self.minority = None  # the node cut off, while partitioned
        self.cut_for = 0  # steps since the partition
        self.cut = None  # the node that was cut off (one partition a run)
        # what the properties need to know
        self.answered = {node: set() for node in NODES}  # (view id, coordinator)
        self.justified = {node: set() for node in NODES}  # P6: removable members
        self.minority_suspects = set()  # P4: raised at the minority, while cut off
        self.suspected_elsewhere = set()  # P4: every other suspicion

    # ------------------------------------------------------------------
    # the shell
    # ------------------------------------------------------------------
    def _step(self, node, peer, event):
        engine = self.engines[node]
        for out in engine.step(peer, event):
            op = out[0]
            if op in ("send", "answer"):
                self._check("P5", node not in self.crashed | self.closed,
                            f"{node} is crashed or closed and sends {out}")
            if op == "answer":
                req = out[1]
                self.answered[node].add((req.view_id, req.coordinator))
                out = ("send", req.coordinator,
                       FlushOk(GROUP, req.view_id, req.attempt, node, [], []))
                op = "send"
            if op == "send":
                to, msg = out[1], out[2]
                if isinstance(msg, ViewInstall):
                    self._check_removals(node, msg.view)
                if to == node:
                    self._step(node, node, msg)
                else:
                    self.queues[(node, to)].append(msg)
            elif op == "arm":
                self.armed.add(node)
            elif op == "complete":
                self.armed.discard(node)
            elif op == "timeout":
                self._suspected_at(node, out[1])
            elif op == "install":
                self._installed(node, peer, out[1])
            elif op == "close":
                if isinstance(event, ViewInstall):
                    self._check_install_source(node, peer)
                    self._check_p4(node, [node])
                self._close(node)

    def _close(self, node):
        # the session disarms the flush timer and stops the engine
        self.closed.add(node)
        self.armed.discard(node)
        self._step(node, node, CLOSE)

    def _installed(self, node, peer, install):
        new = install.view
        self._check("P1", node in new.members and node not in self.crashed,
                    f"{node} installs {new.members}")
        last = self.views[node]
        if last is not None and last.era == new.era:
            self._check("P2", new.view_id > last.view_id,
                        f"{node} installs v{new.view_id} after v{last.view_id}")
        self._check_install_source(node, peer)
        if last is not None:
            self._check_p4(node, [m for m in last.members if m not in new.members])
        self.views[node] = new
        if node in self.leaving:
            # the session re-issues a departure at every install
            if len(new.members) == 1:
                self._close(node)
            else:
                self._step(node, node, LeaveReq(GROUP, node))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    def _check(self, name, holds, detail):
        if name in self.CHECK:
            assert holds, f"{name}: {detail}"

    def _suspected_at(self, node, members):
        self.justified[node].update(members)
        if node == self.minority:
            self.minority_suspects.update(members)
        else:
            self.suspected_elsewhere.update(members)

    def _check_removals(self, node, new):
        """P6, at the coordinator's sends of its install."""
        old = self.engines[node].view
        if old is None or new.view_id != old.view_id + 1:
            return
        dropped = set(old.members) - set(new.members)
        unjustified = dropped - self.justified[node] - self.leaving
        self._check("P6", not unjustified,
                    f"{node} drops {sorted(unjustified)} from {old.members}")

    def _check_install_source(self, node, sender):
        """P3: the install comes from a coordinator this member answered."""
        if sender == node or node in self.leaving:
            return
        view = self.views[node]
        answered = self.answered[node]
        if view is None:
            ok = any(coordinator == sender for _, coordinator in answered)
        else:
            ok = (view.view_id, sender) in answered
        self._check("P3", ok, f"{node} acts on an install from {sender}, "
                              f"whose flush of its view it never answered")

    def _check_p4(self, node, removed):
        """P4: at a majority member, no removal on a minority's word alone."""
        if self.cut is None or node == self.cut:
            return
        for member in removed:
            blamed = (
                member != self.cut
                and member in self.minority_suspects
                and member not in self.suspected_elsewhere
                and member not in self.leaving
            )
            self._check("P4", not blamed,
                        f"{node} removes {member} on the minority's suspicion")

    # ------------------------------------------------------------------
    # the actions (the rules below pick their arguments)
    # ------------------------------------------------------------------
    def deliverable(self):
        cut = self.minority
        return [
            pair for pair in PAIRS
            if self.queues[pair] and (cut is None or (pair[0] == cut) == (pair[1] == cut))
        ]

    def deliver(self, src, dst):
        msg = self.queues[(src, dst)].popleft()
        if dst in self.crashed:
            return  # a dead node takes nothing in
        if isinstance(msg, SuspectMsg):
            view = self.engines[dst].view
            if view is not None and src in view.members and msg.suspect in view.members:
                self.justified[dst].add(msg.suspect)
        self._step(dst, src, msg)

    def suspect(self, node, members):
        self.suspicions += 1
        self._suspected_at(node, members)
        self._step(node, node, Suspect(members))

    def fire(self, node):
        self.armed.discard(node)
        self._step(node, node, TIMEOUT)

    def leave(self, node):
        self.leaving.add(node)
        self._step(node, node, LeaveReq(GROUP, node))

    def join(self, contact):
        self.joined = True
        self._step(JOINER, JOINER, Join(contact))

    def crash(self, node, keep):
        self.crashed.add(node)
        for dst, n in zip([d for d in NODES if d != node], keep):
            queue = self.queues[(node, dst)]
            while len(queue) > n:
                queue.pop()
        self._step(node, node, CRASH)

    def partition(self, node):
        self.minority = self.cut = node
        self.cut_for = 0

    def heal(self):
        self.minority = None

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @invariant()
    def count_steps_cut_off(self):
        if self.minority is not None:
            self.cut_for += 1

    @precondition(lambda self: self.deliverable())
    @rule(pair=st.sampled_from(PAIRS))
    def deliver_one(self, pair):
        # the pair asked for, or the next one after it that can deliver
        pairs = self.deliverable()
        self.deliver(*min(pairs, key=lambda p: (PAIRS.index(p) - PAIRS.index(pair)) % len(PAIRS)))

    @precondition(lambda self: self.suspicions < SUSPICIONS)
    @rule(node=st.sampled_from(NODES), index=st.integers(0, 2), two=st.booleans())
    def suspect_some(self, node, index, two):
        engine = self.engines[node]
        if node in self.crashed or engine.stopped or engine.view is None:
            return
        others = [m for m in engine.view.members if m != node and m not in engine.suspected]
        if others:
            first = index % len(others)
            self.suspect(node, others[first:first + 1 + two])

    def silent_pairs(self):
        """(member, peer in its view it hears nothing from): a peer across
        the partition, a crashed one, or one whose view has left it out —
        what a failure detector suspects."""
        pairs = []
        for node in NODES:
            engine = self.engines[node]
            if node in self.crashed or engine.stopped or engine.view is None:
                continue
            for peer in engine.view.members:
                if peer == node or peer in engine.suspected:
                    continue
                cut = self.minority is not None and (node == self.minority) != (peer == self.minority)
                theirs = self.views[peer]
                left_out = theirs is not None and node not in theirs.members
                if cut or peer in self.crashed or left_out:
                    pairs.append((node, peer))
        return pairs

    @precondition(lambda self: self.suspicions < SUSPICIONS and self.silent_pairs())
    @rule(index=st.integers(0, 11))
    def suspect_the_silent(self, index):
        pairs = self.silent_pairs()
        node, peer = pairs[index % len(pairs)]
        self.suspect(node, [peer])

    @precondition(lambda self: self.armed)
    @rule(index=st.integers(0, len(NODES) - 1))
    def fire_a_timer(self, index):
        armed = sorted(self.armed)
        self.fire(armed[index % len(armed)])

    @rule(node=st.sampled_from(NODES))
    def leave_one(self, node):
        if self.leaving or node in self.crashed | self.closed or self.views[node] is None:
            return  # one leave a run
        self.leave(node)

    @precondition(lambda self: not self.joined)
    @rule(contact=st.sampled_from(MEMBERS))
    def join_n3(self, contact):
        self.join(contact)

    @precondition(lambda self: not self.crashed)
    @rule(node=st.sampled_from(NODES), keep=st.lists(st.integers(0, 4), min_size=3, max_size=3))
    def crash_one(self, node, keep):
        if node in self.crashed:
            return
        self.crash(node, keep)

    @precondition(lambda self: self.cut is None)
    @rule(node=st.sampled_from(NODES))
    def cut_off(self, node):
        self.partition(node)

    @precondition(lambda self: self.minority is not None and self.cut_for >= 4)
    @rule()
    def heal_it(self):
        self.heal()


class MembershipP3(Membership):
    CHECK = frozenset({"P3"})


class MembershipP4(Membership):
    CHECK = frozenset({"P4"})


def run_machine(machine, examples, shrink=True):
    """Run ``machine`` for ``examples`` examples: derandomized, or, under
    ``REPRO_MEMBERSHIP_EXAMPLES``, from a fresh seed that it prints."""
    phases = list(Phase) if shrink else [Phase.explicit, Phase.reuse, Phase.generate]
    if EXAMPLES:
        seed = random.randrange(2**32)
        print(f"{machine.__name__}: {EXAMPLES} examples, seed {seed}")
        factory = lambda: machine()  # noqa: E731 — carries the seed, not the class
        factory._hypothesis_internal_use_seed = seed
        config = settings(max_examples=EXAMPLES, deadline=None, database=None, phases=phases)
    else:
        factory = machine
        config = settings(
            max_examples=examples, deadline=None, database=None, derandomize=True, phases=phases
        )
    run_state_machine_as_test(factory, settings=config)


def test_membership_keeps_p1_p2_p5_p6_under_any_schedule():
    run_machine(Membership, 300)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=KNOWN_4A)
def test_an_install_comes_from_a_coordinator_the_receiver_answered():
    run_machine(MembershipP3, 2000, shrink=False)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=KNOWN_4A)
def test_a_minority_suspicion_never_removes_a_majority_member_after_the_heal():
    run_machine(MembershipP4, 2000, shrink=False)


# ---------------------------------------------------------------------------
# shrunk examples, replayed through the machine's actions
# ---------------------------------------------------------------------------
class MembershipP3P4(Membership):
    CHECK = frozenset({"P3", "P4"})


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=KNOWN_4A)
def test_a_solo_view_cut_off_by_a_partition_does_not_close_a_majority_member():
    """The machine's shrunk P4 counterexample.  n0, cut off, suspects n1 and
    times out on n2: its solo view's install goes to both as a removal
    notice, the channel delivers it after the heal, and n1 closes."""
    machine = MembershipP3P4()
    machine.partition("n0")
    machine.suspect("n0", ["n1"])
    machine.fire("n0")  # n2 never answered: a solo view
    machine.fire("n0")  # the timer the solo flush re-armed: nothing
    machine.heal()
    machine.deliver("n0", "n1")
    assert "n1" not in machine.closed


def test_a_crashed_coordinators_flush_timer_sends_nothing():
    """The shrunk example that finds a crashed coordinator's timer acting
    (the engine's ``stopped`` check keeps it inert): n0 suspects n1, starts
    a flush, and crashes; its flush timer still fires."""
    machine = Membership()
    machine.suspect("n0", ["n1"])
    machine.crash("n0", [0, 0, 0])
    machine.fire("n0")
    assert not any(machine.queues[("n0", peer)] for peer in ("n1", "n2", "n3"))


def test_a_report_from_a_member_the_view_left_behind_removes_no_one():
    """The shrunk example that finds a coordinator acting on a suspicion
    reported from outside its view: n0 and n1 install a view without n2,
    and n2, not yet told, reports n1 to n0."""
    machine = Membership()
    machine.suspect("n0", ["n2"])
    machine.deliver("n0", "n1")  # FlushReq
    machine.deliver("n1", "n0")  # FlushOk: n0 installs [n0, n1]
    machine.suspect("n2", ["n1"])
    machine.deliver("n2", "n0")  # the stale SuspectMsg
    assert machine.engines["n0"].view.members == ["n0", "n1"]
