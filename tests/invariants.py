"""Randomized protocol-invariant harness: record any run, check semantics.

``record_protocol()`` patches :class:`~repro.groupcomm.session.GroupSession`
class-wide for the duration of a ``with`` block, logging every member's
protocol-visible events in order:

- ``("send", (era, view_id), sender, gseq)`` — a data multicast leaving
  the member (recorded before the send executes, so it sits after
  everything the member had delivered at that point: the causal capture);
- ``("deliver", (era, view_id), sender, gseq)`` — a data message clearing
  group-level ordering at the member (recorded synchronously at the
  protocol decision, before the asynchronous application upcall, and
  attributed to the view the message was *sent* in);
- ``("view", (era, view_id), members)`` — a view install completing
  (including the creator's initial view).

View ids are era-qualified throughout: a group re-created after a total
failure restarts numbering at 1, and the group incarnation id
(:attr:`~repro.groupcomm.views.GroupView.era`) keeps its views from
aliasing the dead incarnation's identically-numbered ones.

``check_invariants()`` replays the logs and returns human-readable
violation strings (empty list = all good) for the four properties the
reproduction exists to demonstrate:

1. **Total-order agreement** — any two members deliver their common
   messages in the same relative order (checked for total-order groups).
2. **Gap-free FIFO** — each member's deliveries from one sender in one
   view are gseq 1, 2, 3, ... with no gap and no reordering.
3. **Causal precedence** — if a member delivered A before sending B, no
   member delivers B before A.
4. **Virtual synchrony** — members that close a view together (both
   install a later view) delivered exactly the same set of that view's
   messages.

Those checks take one group at a time.  ``check_cross_group_order()``
takes members' deliveries across groups: two members order any two
messages they both deliver the same way, whichever groups carried them
(§2.1's multi-group total order).

Members that crash mid-run may legitimately diverge in their final
instants (the protocols are non-uniform: agreement binds the members that
survive into the next view), so pass their ids via ``exclude``.

For crash-*recovery* runs two more tools apply: ``record_executions()``
logs every servant execution keyed by member incarnation (a restart bumps
the incarnation, since a restarted member may legitimately re-execute a
call only its dead incarnation saw), and ``check_exactly_once`` /
``check_convergence`` verify at-most-once execution per ``(client,
call_no)`` within an incarnation and post-recovery group convergence.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.groupcomm.messages import KIND_DATA
from repro.groupcomm.session import GroupSession

__all__ = [
    "ProtocolRecord",
    "record_protocol",
    "check_invariants",
    "check_cross_group_order",
    "record_executions",
    "check_exactly_once",
    "check_convergence",
    "protocol_mark",
    "shard_of_group",
    "check_sharded_invariants",
    "check_genuineness",
    "record_combined",
    "check_combined_exactly_once",
    "record_reductions",
    "check_reducer_determinism",
]

# ((era, view_id), sender, gseq) — the view id is qualified by the group
# incarnation era so a re-created group's view 3 never aliases the dead
# incarnation's view 3 (both can exist in one recovery run)
MsgId = Tuple[tuple, str, int]


class ProtocolRecord:
    """Ordered per-(group, member) event logs from one recorded run."""

    def __init__(self):
        self.events: Dict[Tuple[str, str], List[tuple]] = {}
        #: per member, its deliveries across all its groups, in order
        self.delivered: Dict[str, List[Tuple[str, MsgId]]] = {}
        #: the run's protocol flight recorder (captured from the first
        #: recorded session's simulator) — lets a failing invariant check
        #: attach the causally-ordered protocol-event tail as a post-mortem
        self.flight = None

    def log(self, group: str, member: str) -> List[tuple]:
        return self.events.setdefault((group, member), [])

    def groups(self) -> List[str]:
        return sorted({group for group, _member in self.events})

    def members_of(self, group: str) -> List[str]:
        return sorted(m for g, m in self.events if g == group)

    def deliveries(self, group: str, member: str) -> List[MsgId]:
        return [
            (event[1], event[2], event[3])
            for event in self.events.get((group, member), [])
            if event[0] == "deliver"
        ]


@contextmanager
def record_protocol():
    """Record all GroupSession activity (class-wide) inside the block."""
    record = ProtocolRecord()
    orig_init = GroupSession.__init__
    orig_do_send = GroupSession._do_send
    orig_deliver = GroupSession._deliver_app
    orig_apply = GroupSession.apply_view_install

    def patched_init(self, service, group, config, initial_view=None):
        orig_init(self, service, group, config, initial_view=initial_view)
        if record.flight is None:
            record.flight = self.sim.obs.flight
        if initial_view is not None:
            record.log(group, self.member_id).append(
                ("view", (initial_view.era, initial_view.view_id),
                 tuple(initial_view.members))
            )

    def patched_do_send(self, payload, kind):
        if kind == KIND_DATA and self.view is not None:
            record.log(self.group, self.member_id).append(
                ("send", (self.view.era, self.view.view_id),
                 self.member_id, self._gseq_next)
            )
        orig_do_send(self, payload, kind)

    def patched_deliver(self, msg):
        if not msg.is_null:
            # (msg.era, msg.view_id) is the view the message was *sent* in —
            # the frame carries its own incarnation id, and sessions reject
            # cross-era frames, so this always matches the delivering view
            record.log(self.group, self.member_id).append(
                ("deliver", (msg.era, msg.view_id), msg.sender, msg.gseq)
            )
            record.delivered.setdefault(self.member_id, []).append(
                (self.group, ((msg.era, msg.view_id), msg.sender, msg.gseq))
            )
        orig_deliver(self, msg)

    def patched_apply(self, install):
        orig_apply(self, install)
        record.log(self.group, self.member_id).append(
            ("view", (install.view.era, install.view.view_id),
             tuple(install.view.members))
        )

    GroupSession.__init__ = patched_init
    GroupSession._do_send = patched_do_send
    GroupSession._deliver_app = patched_deliver
    GroupSession.apply_view_install = patched_apply
    try:
        yield record
    finally:
        GroupSession.__init__ = orig_init
        GroupSession._do_send = orig_do_send
        GroupSession._deliver_app = orig_deliver
        GroupSession.apply_view_install = orig_apply


ExecutionId = Tuple[str, int, str, int]  # (member, incarnation, client, call_no)


@contextmanager
def record_executions():
    """Record every servant execution as (member, incarnation, client, call_no).

    A :meth:`~repro.core.server.ObjectGroupServer.restart` bumps the
    member's incarnation: the restarted process holds only the reply
    caches the coordinator transferred back, so it may legitimately
    re-execute a call that only its dead incarnation saw.  Exactly-once is
    therefore checked *within* an incarnation.
    """
    from repro.core.server import ObjectGroupServer

    executions: List[ExecutionId] = []
    incarnations: Dict[str, int] = {}
    orig_run = ObjectGroupServer._run_servant
    orig_restart = ObjectGroupServer.restart

    def patched_run(self, span, invoke, *rest):
        executions.append(
            (self.member_id, incarnations.get(self.member_id, 0),
             invoke.client, invoke.call_no)
        )
        orig_run(self, span, invoke, *rest)

    def patched_restart(self):
        incarnations[self.member_id] = incarnations.get(self.member_id, 0) + 1
        return orig_restart(self)

    ObjectGroupServer._run_servant = patched_run
    ObjectGroupServer.restart = patched_restart
    try:
        yield executions
    finally:
        ObjectGroupServer._run_servant = orig_run
        ObjectGroupServer.restart = orig_restart


def check_exactly_once(executions: List[ExecutionId]) -> List[str]:
    """No (client, call_no) executes twice on one member incarnation.

    Retries, rebinds, and rejoins are all in play when this is checked;
    the reply caches (and their transfer in the rejoin state snapshot) are
    what make the property hold.
    """
    violations = []
    counts: Dict[ExecutionId, int] = {}
    for key in executions:
        counts[key] = counts.get(key, 0) + 1
    for (member, incarnation, client, call_no), count in sorted(counts.items()):
        if count > 1:
            violations.append(
                f"exactly-once: {member}/incarnation {incarnation} executed "
                f"call ({client}, {call_no}) {count} times"
            )
    return violations


def check_convergence(services, service_name: str, net) -> List[str]:
    """Post-recovery convergence: every live member back in one view with
    identical state digests (empty = converged)."""
    from repro.recovery import convergence_status

    status = convergence_status(services, service_name, net)
    if status["converged"]:
        return []
    return [
        f"convergence: {status['detail']} "
        f"(views={status['views']}, digests={status['digests']})"
    ]


# ---------------------------------------------------------------------------
# combined invocations (repro.core.combined) and reply combining
# ---------------------------------------------------------------------------
#: (combine_id, call_no, root, operation) — one per root-issued group call
CombinedIssue = Tuple[str, int, str, str]


@contextmanager
def record_combined():
    """Record every root-issued combined group call.

    The combined schemes' contract is that a whole cohort's lock-step
    invocations collapse into exactly **one** group invocation, issued by
    the rank-0 root.  Patching
    :meth:`~repro.core.combined.CombinedBinding._issue` captures that
    choke point: each logical ``(combine_id, call_no)`` must appear here
    exactly once, however the contributions were merged on the way.
    """
    from repro.core.combined import CombinedBinding

    issues: List[CombinedIssue] = []
    orig_issue = CombinedBinding._issue

    def patched_issue(self, call_no, operation, merged_parts, count, timeout):
        issues.append((self.combine_id, call_no, self.client_id, operation))
        orig_issue(self, call_no, operation, merged_parts, count, timeout)

    CombinedBinding._issue = patched_issue
    try:
        yield issues
    finally:
        CombinedBinding._issue = orig_issue


def check_combined_exactly_once(
    issues: List[CombinedIssue],
    executions: List[ExecutionId],
    members: Iterable[str],
    exclude: Iterable[str] = (),
) -> List[str]:
    """Combined-invocation exactly-once (empty = pass).

    Three layers, all from one recorded run:

    1. every logical ``(combine_id, call_no)`` was issued by the root
       exactly once — the cohort's N invocations never escape as N calls;
    2. every live member executed exactly one servant call per logical
       combined call (the root's group invocation reaches everyone, and
       nothing else does);
    3. no member incarnation executed any root call twice (the ordinary
       duplicate-suppression property, scoped to the roots' traffic).

    ``members`` is the server membership to hold to account; pass members
    whose guarantees lapsed (crashed mid-run) via ``exclude``.
    """
    violations: List[str] = []
    counts: Dict[Tuple[str, int], int] = {}
    for combine_id, call_no, _root, _operation in issues:
        key = (combine_id, call_no)
        counts[key] = counts.get(key, 0) + 1
    for key, count in sorted(counts.items()):
        if count > 1:
            violations.append(
                f"combined exactly-once: logical call {key} issued {count} "
                f"times by the root (want exactly 1 group invocation)"
            )
    roots = {root for _cid, _no, root, _op in issues}
    logical = len(counts)
    per_member: Dict[str, Set[Tuple[str, int]]] = {}
    dup_counts: Dict[ExecutionId, int] = {}
    for member, incarnation, client, call_no in executions:
        if client not in roots:
            continue
        per_member.setdefault(member, set()).add((client, call_no))
        key = (member, incarnation, client, call_no)
        dup_counts[key] = dup_counts.get(key, 0) + 1
    excluded = frozenset(exclude)
    for member in sorted(members):
        if member in excluded:
            continue
        executed = len(per_member.get(member, set()))
        if executed != logical:
            violations.append(
                f"combined exactly-once: {member} executed {executed} distinct "
                f"root call(s); want {logical} (one per logical combined call)"
            )
    for (member, incarnation, client, call_no), count in sorted(dup_counts.items()):
        if count > 1:
            violations.append(
                f"combined exactly-once: {member}/incarnation {incarnation} "
                f"executed root call ({client}, {call_no}) {count} times"
            )
    return violations


@contextmanager
def record_reductions():
    """Record every runtime reducer fold as ``(reducer, inputs, output)``.

    Patches :meth:`~repro.core.scheme.Reducer.reduce` — the single fold
    entry point shared by reply combining, in-network argument merging,
    and the sorted-order canonical fold — but not the bind-time law probe,
    which calls the bare ``fn`` directly.
    """
    from repro.core.scheme import Reducer

    folds: List[tuple] = []
    orig_reduce = Reducer.reduce

    def patched_reduce(self, values):
        inputs = tuple(values)
        output = orig_reduce(self, inputs)
        folds.append((self, inputs, output))
        return output

    Reducer.reduce = patched_reduce
    try:
        yield folds
    finally:
        Reducer.reduce = orig_reduce


def _fold_left(fn, values):
    accumulator = values[0]
    for value in values[1:]:
        accumulator = fn(accumulator, value)
    return accumulator


def _fold_right(fn, values):
    accumulator = values[-1]
    for value in reversed(values[:-1]):
        accumulator = fn(value, accumulator)
    return accumulator


def _fold_tree(fn, values):
    """Balanced pairwise halving — the combining-tree shape."""
    layer = list(values)
    while len(layer) > 1:
        layer = [
            fn(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
    return layer[0]


def check_reducer_determinism(folds: List[tuple]) -> List[str]:
    """Every recorded fold is arrival-order and tree-shape independent
    (empty = pass).

    Each recorded ``(reducer, inputs, output)`` is refolded under input
    permutations (reversed, rotated, repr-sorted) crossed with fold shapes
    (left, right, balanced tree); any arrangement producing a different
    value means the combined result depended on how replies happened to
    arrive or how the combining tree happened to slice the cohort.
    """
    violations: List[str] = []
    for index, (reducer, inputs, output) in enumerate(folds):
        if not inputs:
            continue
        values = list(inputs)
        arrangements = [
            ("as-recorded", values),
            ("reversed", values[::-1]),
            ("rotated", values[1:] + values[:1]),
            ("repr-sorted", sorted(values, key=repr)),
        ]
        for arrangement_name, arranged in arrangements:
            for shape_name, fold in (
                ("left", _fold_left),
                ("right", _fold_right),
                ("tree", _fold_tree),
            ):
                try:
                    refolded = fold(reducer.fn, arranged)
                except Exception as exc:  # noqa: BLE001 - reducer blew up
                    violations.append(
                        f"reducer-determinism: {reducer.name} fold #{index}: "
                        f"{shape_name} fold of {arrangement_name} inputs "
                        f"raised {exc!r} (inputs {inputs!r})"
                    )
                    continue
                if refolded != output:
                    violations.append(
                        f"reducer-determinism: {reducer.name} fold #{index}: "
                        f"{shape_name} fold of {arrangement_name} inputs gave "
                        f"{refolded!r}, recorded output was {output!r} "
                        f"(inputs {inputs!r})"
                    )
    return violations


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------
def check_invariants(
    record: ProtocolRecord,
    total_order: bool = True,
    exclude: Iterable[str] = (),
    groups: Iterable[str] = None,
    flight=None,
) -> List[str]:
    """All detected violations across every recorded group (empty = pass).

    ``total_order=False`` skips check 1 (causal/FIFO-only groups).
    ``exclude`` names members whose cross-member guarantees lapsed
    (crashed mid-run); their logs are ignored entirely.

    When any violation is found, the run's protocol flight-recorder tail
    (``flight``, defaulting to the recorder captured by
    :func:`record_protocol`) is appended as a final rendered entry so the
    assertion output doubles as a post-mortem.
    """
    excluded: FrozenSet[str] = frozenset(exclude)
    violations: List[str] = []
    for group in groups if groups is not None else record.groups():
        members = [m for m in record.members_of(group) if m not in excluded]
        orders = {m: record.deliveries(group, m) for m in members}
        if total_order:
            violations += _check_total_order(group, orders)
        violations += _check_fifo_gapfree(group, orders)
        violations += _check_causal(group, record, members, orders)
        violations += _check_virtual_synchrony(group, record, members, orders)
    if violations and flight is not False:  # False: caller renders its own
        recorder = flight if flight is not None else record.flight
        if recorder is not None and len(recorder):
            violations.append(recorder.render(last=60))
    return violations


def check_cross_group_order(
    record: ProtocolRecord, groups: Iterable[str], exclude: Iterable[str] = ()
) -> List[str]:
    """Multi-group total order (§2.1): any two members deliver any two
    messages they both deliver, whatever group each was sent in, in the same
    relative order (empty = pass).  ``groups`` names the total-order groups
    to hold to it; a member's deliveries in other groups are ignored.
    ``exclude`` names members whose guarantees lapsed, as for
    :func:`check_invariants`, which does not run this check."""
    chosen, excluded = frozenset(groups), frozenset(exclude)
    orders = {
        member: [entry for entry in log if entry[0] in chosen]
        for member, log in record.delivered.items()
        if member not in excluded
    }
    violations = []
    members = sorted(orders)
    for i, m1 in enumerate(members):
        for m2 in members[i + 1 :]:
            common = set(orders[m1]) & set(orders[m2])
            seq1 = [x for x in orders[m1] if x in common]
            seq2 = [x for x in orders[m2] if x in common]
            if seq1 != seq2:
                spot = next(
                    (k for k, (a, b) in enumerate(zip(seq1, seq2)) if a != b),
                    min(len(seq1), len(seq2)),
                )
                violations.append(
                    f"cross-group order: {m1} and {m2} disagree at common "
                    f"position {spot}: {seq1[spot:spot+2]} vs {seq2[spot:spot+2]}"
                )
    return violations


def _check_total_order(group: str, orders: Dict[str, List[MsgId]]) -> List[str]:
    violations = []
    members = sorted(orders)
    for i, m1 in enumerate(members):
        for m2 in members[i + 1 :]:
            common = set(orders[m1]) & set(orders[m2])
            seq1 = [x for x in orders[m1] if x in common]
            seq2 = [x for x in orders[m2] if x in common]
            if seq1 != seq2:
                spot = next(
                    (k for k, (a, b) in enumerate(zip(seq1, seq2)) if a != b),
                    min(len(seq1), len(seq2)),
                )
                violations.append(
                    f"total-order: {group}: {m1} and {m2} disagree at common "
                    f"position {spot}: {seq1[spot:spot+3]} vs {seq2[spot:spot+3]}"
                )
    return violations


def _check_fifo_gapfree(group: str, orders: Dict[str, List[MsgId]]) -> List[str]:
    violations = []
    for member, order in orders.items():
        per_sender: Dict[Tuple[int, str], List[int]] = {}
        for view_id, sender, gseq in order:
            per_sender.setdefault((view_id, sender), []).append(gseq)
        for (view_id, sender), gseqs in per_sender.items():
            expected = list(range(1, len(gseqs) + 1))
            if gseqs != expected:
                violations.append(
                    f"fifo: {group}: {member} delivered view {view_id} sender "
                    f"{sender} gseqs {gseqs[:6]}... (want contiguous from 1)"
                )
    return violations


def _check_causal(
    group: str,
    record: ProtocolRecord,
    members: List[str],
    orders: Dict[str, List[MsgId]],
) -> List[str]:
    violations = []
    positions = {
        m: {msg_id: idx for idx, msg_id in enumerate(order)}
        for m, order in orders.items()
    }
    for member in members:
        delivered_before: List[MsgId] = []
        for event in record.events.get((group, member), []):
            if event[0] == "deliver":
                delivered_before.append((event[1], event[2], event[3]))
            elif event[0] == "send":
                sent: MsgId = (event[1], event[2], event[3])
                for observer in members:
                    pos = positions[observer]
                    if sent not in pos:
                        continue
                    bad = [
                        dep
                        for dep in delivered_before
                        if dep in pos and pos[dep] > pos[sent]
                    ]
                    if bad:
                        violations.append(
                            f"causal: {group}: {observer} delivered {sent} "
                            f"before its cause(s) {bad[:3]} (sender {member} "
                            f"had delivered them before sending)"
                        )
    return violations


# ---------------------------------------------------------------------------
# sharded groups (repro.shard)
# ---------------------------------------------------------------------------
def protocol_mark(record: ProtocolRecord) -> Dict[Tuple[str, str], int]:
    """Snapshot the per-log lengths: ``check_genuineness`` then judges only
    events recorded after the mark (membership churn before the probe
    window is legitimate shard traffic)."""
    return {key: len(log) for key, log in record.events.items()}


def shard_of_group(group: str, service_name: str):
    """The shard number a recorded group belongs to, or None.

    Recognizes the shard sub-service's server group (``svc:{svc}#{n}``)
    and its client/server groups (``cs:{client}:{svc}#{n}:{epoch}``).
    """
    prefix = f"{service_name}#"
    if group.startswith("svc:"):
        rest = group[len("svc:"):]
    elif group.startswith("cs:"):
        parts = group.split(":")
        if len(parts) != 4:
            return None
        rest = parts[2]
    else:
        return None
    if not rest.startswith(prefix):
        return None
    try:
        return int(rest[len(prefix):])
    except ValueError:
        return None


def check_sharded_invariants(
    record: ProtocolRecord,
    service_name: str,
    num_shards: int,
    exclude: Iterable[str] = (),
) -> List[str]:
    """Per-shard ordering invariants: every shard's groups (server group
    plus its client/server groups) independently satisfy total order,
    gap-free FIFO, causality, and virtual synchrony (empty = pass)."""
    violations: List[str] = []
    for shard_no in range(num_shards):
        groups = [
            g for g in record.groups() if shard_of_group(g, service_name) == shard_no
        ]
        if not groups:
            continue
        violations += [
            f"shard {shard_no}: {v}"
            for v in check_invariants(
                record, total_order=True, exclude=exclude, groups=groups, flight=False
            )
        ]
    if violations and record.flight is not None and len(record.flight):
        violations.append(record.flight.render(last=60))
    return violations


def check_genuineness(
    record: ProtocolRecord,
    service_name: str,
    addressed: Iterable[int],
    mark: Dict[Tuple[str, str], int] = None,
) -> List[str]:
    """FlexCast genuineness: shards not addressed by the probe window did
    zero protocol work — no data multicast leaves or clears ordering in any
    unaddressed shard's groups after ``mark`` (empty = pass).  View installs
    are exempt (membership churn is not invocation traffic)."""
    addressed_set = {int(s) for s in addressed}
    violations: List[str] = []
    for (group, member), log in sorted(record.events.items()):
        shard_no = shard_of_group(group, service_name)
        if shard_no is None or shard_no in addressed_set:
            continue
        start = 0 if mark is None else mark.get((group, member), 0)
        bad = [e for e in log[start:] if e[0] in ("send", "deliver")]
        if bad:
            violations.append(
                f"genuineness: unaddressed shard {shard_no} ({group} at {member}) "
                f"saw {len(bad)} protocol event(s): {bad[:3]}"
            )
    return violations


def _check_virtual_synchrony(
    group: str,
    record: ProtocolRecord,
    members: List[str],
    orders: Dict[str, List[MsgId]],
) -> List[str]:
    violations = []
    # Views each member closed: installed AND followed by a successor view.
    # The key carries the *full* transition — (view_id, members) on both
    # ends — because after a partition (or a crashed node whose timers keep
    # installing garbage solo views while it is down) the same view_id can
    # be closed toward different successors on the two sides, and the
    # non-uniform agreement only binds members that moved *together*.
    closed: Dict[tuple, List[str]] = {}
    for member in members:
        views = [e for e in record.events.get((group, member), []) if e[0] == "view"]
        for event, successor in zip(views, views[1:]):
            if member in event[2] and member in successor[2]:
                key = (event[1], event[2], successor[1], successor[2])
                closed.setdefault(key, []).append(member)
    for key, closers in sorted(closed.items()):
        view_id = key[0]
        if len(closers) < 2:
            continue
        sets: Dict[str, Set[MsgId]] = {
            m: {msg_id for msg_id in orders[m] if msg_id[0] == view_id}
            for m in closers
        }
        reference = sets[closers[0]]
        for member in closers[1:]:
            if sets[member] != reference:
                only_ref = sorted(reference - sets[member])[:3]
                only_m = sorted(sets[member] - reference)[:3]
                violations.append(
                    f"virtual-synchrony: {group}: view {view_id} closed with "
                    f"different delivery sets: {closers[0]} extra {only_ref}, "
                    f"{member} extra {only_m}"
                )
    return violations
