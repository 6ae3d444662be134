"""Scheme × reply conformance matrix: the GMI invocation-scheme gate.

Every cell of the invocation-scheme × reply-scheme matrix —
``single | personalized | combined_flat | combined_tree`` crossed with
``discard | return_one | forward | combine`` — runs against a live
replicated Counter service and is judged on three axes at once:

1. **semantics** — the reply (or its absence) and the servant state are
   exactly what the cell promises: personalized scatter weights land on
   the right members, combined cohorts collapse to one call whose
   in-network argument fold is applied everywhere, reply combining folds
   the per-member values deterministically;
2. **exactly-once** — ``record_executions`` (all cells) plus
   ``record_combined`` (combined cells) feed
   :func:`tests.invariants.check_combined_exactly_once`: N cohort callers
   never escape as more (or fewer) than one group invocation per logical
   call, and every live member executes each logical call exactly once;
3. **protocol invariants** — the run is recorded with
   ``record_protocol`` and must satisfy total order, gap-free FIFO,
   causality, and virtual synchrony like any other traffic.

Each cell sweeps seeds × membership sizes internally, and every cell also
runs a member-crash variant (a *server* crashes mid-sequence; the cohort
stays up) judged against the survivors.  The tier-1 default is 3 seeds;
CI's ``sweeps`` job widens it to 5 via ``REPRO_GMI_SEEDS``.

Two cheaper layers guard the matrix's edges:

- **bind-time checks** — every cell, through ``bind`` and ``bind_sharded``
  and with each invocation mode, either binds or raises
  :class:`~repro.errors.ConfigurationError` before any message is sent;
- **reducer laws** (hypothesis) — reply combining is only sound if the
  fold is a commutative semigroup over the reply domain, so every built-in
  reducer is permutation- and tree-shape-invariant, idempotent folds are
  quorum-independent, and a law-breaking reducer is rejected when its
  :class:`SchemeConfig` is built, never surfacing as a wrong answer.
"""

import os

import pytest
from hypothesis import given, strategies as st

from repro.core import CombinedBinding, GroupBinding, Mode, ReplyScheme, SchemeConfig
from repro.core.scheme import REDUCERS, Reducer, reduce_sorted, resolve_reducer
from repro.errors import ConfigurationError
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from tests.core_helpers import AppCluster, Counter, bind_combined_cohort, bind_scheme
from tests.invariants import (
    _fold_left,
    _fold_tree,
    check_combined_exactly_once,
    check_exactly_once,
    check_invariants,
    check_reducer_determinism,
    record_combined,
    record_executions,
    record_protocol,
    record_reductions,
)

SEEDS = [int(s) for s in os.environ.get("REPRO_GMI_SEEDS", "5,11,17").split(",")]
SIZES = [2, 3]
CALLS = 3
COHORT = 4

PLAIN_SCHEMES = ["single", "personalized"]
COMBINED_SCHEMES = ["combined_flat", "combined_tree"]
REPLIES = ["discard", "return_one", "forward", "combine"]
FAULTS = ["none", "member-crash"]

FAST = GroupConfig(
    ordering=Ordering.ASYMMETRIC,
    liveliness=Liveliness.LIVELY,
    silence_period=20e-3,
    suspicion_timeout=100e-3,
)


def _weight(member: str, personalized: bool) -> int:
    """Per-call increment each member sees: the personalized scatter gives
    s0 a double-weight part, everyone else the default."""
    return 2 if personalized and member == "s0" else 1


# ---------------------------------------------------------------------------
# single / personalized cells
# ---------------------------------------------------------------------------
def _run_plain_cell(scheme_name: str, reply_name: str, seed: int, size: int,
                    crash: bool) -> None:
    c = AppCluster(servers=size, clients=2, seed=seed)
    personalized = scheme_name == "personalized"
    kwargs = {}
    if reply_name == "combine":
        kwargs["reducer"] = "sum"
    if reply_name == "forward":
        kwargs["forward_to"] = "c1"
    scheme = SchemeConfig(invocation=scheme_name, reply=reply_name, **kwargs)
    with record_protocol() as record, record_executions() as executions:
        servers = c.serve_all("svc", Counter, config=FAST)
        binding = bind_scheme(c, scheme=scheme, fast=True)
        parts = (lambda member: (2,) if member == "s0" else (1,)) if personalized else None
        crashed = None
        live = list(c.server_names)
        for i in range(1, CALLS + 1):
            if crash and i == 2:
                crashed = c.server_names[-1]
                c.net.crash(crashed)
                live.remove(crashed)
                c.run(1.5)  # suspicion fires, the survivor view installs
            fut = binding.invoke("incr", (1,), parts=parts, timeout=5.0)
            c.run(1.0)
            assert fut.done, f"call {i} did not complete ({scheme}/{reply_name})"
            value = fut.result()
            if reply_name in ("discard", "forward"):
                assert value is None
            elif reply_name == "return_one":
                assert value in {_weight(m, personalized) * i for m in live}
            else:  # combine: sum of every live member's counter after call i
                assert value == sum(_weight(m, personalized) for m in live) * i
        c.run(1.0)
    for server in servers:
        if server.member_id in live:
            assert server.servant.value == _weight(server.member_id, personalized) * CALLS
    if reply_name == "forward":
        forwarded = c.services["c1"].forwarded
        assert len(forwarded) == CALLS
        assert all(f.ok and f.origin == "c0" for f in forwarded)
    assert check_exactly_once(executions) == []
    exclude = {crashed} if crashed else set()
    assert check_invariants(record, total_order=True, exclude=exclude) == []


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("reply", REPLIES)
@pytest.mark.parametrize("scheme", PLAIN_SCHEMES)
def test_plain_scheme_cell(scheme, reply, fault):
    for seed in SEEDS:
        for size in SIZES:
            _run_plain_cell(scheme, reply, seed, size, fault == "member-crash")


# ---------------------------------------------------------------------------
# combined cells: flat / tree fan-in over a 4-caller cohort
# ---------------------------------------------------------------------------
def _run_combined_cell(scheme_name: str, reply_name: str, seed: int, size: int,
                       crash: bool) -> None:
    c = AppCluster(servers=size, clients=COHORT, seed=seed)
    kwargs = {
        "callers": list(c.client_names),
        "combine_id": f"m{seed}",
        "arg_reducer": "sum",
    }
    if reply_name == "combine":
        kwargs["reducer"] = "max"
    if reply_name == "forward":
        kwargs["forward_to"] = "c0"
    scheme = SchemeConfig(invocation=scheme_name, reply=reply_name, **kwargs)
    with record_protocol() as record, record_executions() as executions, \
            record_combined() as issues, record_reductions() as folds:
        servers = c.serve_all("svc", Counter, config=FAST)
        bindings = bind_combined_cohort(
            c, scheme,
            liveliness=Liveliness.LIVELY, suspicion_timeout=100e-3,
        )
        #: each caller contributes rank+1; the in-network sum is 1+2+3+4
        per_call = COHORT * (COHORT + 1) // 2
        crashed = None
        live = list(c.server_names)
        for i in range(1, CALLS + 1):
            if crash and i == 2:
                crashed = c.server_names[-1]
                c.net.crash(crashed)
                live.remove(crashed)
                c.run(1.5)
            futures = [
                binding.invoke("incr", (binding.rank + 1,), timeout=5.0)
                for binding in bindings
            ]
            c.run(1.0)
            assert all(f.done for f in futures), (
                f"logical call {i} incomplete ({scheme_name}/{reply_name})"
            )
            values = [f.result() for f in futures]
            if reply_name in ("discard", "forward"):
                assert values == [None] * COHORT
            else:  # return_one and combine("max") both see the counter value
                assert values == [per_call * i] * COHORT
        c.run(1.0)
    for server in servers:
        if server.member_id in live:
            assert server.servant.value == per_call * CALLS
    if reply_name == "forward":
        forwarded = c.services["c0"].forwarded
        assert len(forwarded) == CALLS
        assert all(f.ok for f in forwarded)
    assert len(issues) == CALLS, "one group invocation per logical call"
    exclude = {crashed} if crashed else set()
    assert check_combined_exactly_once(
        issues, executions, c.server_names, exclude=exclude
    ) == []
    assert folds, "combined cells must exercise the argument reducer"
    assert check_reducer_determinism(folds) == []
    assert check_invariants(record, total_order=True, exclude=exclude) == []


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("reply", REPLIES)
@pytest.mark.parametrize("scheme", COMBINED_SCHEMES)
def test_combined_scheme_cell(scheme, reply, fault):
    for seed in SEEDS:
        for size in SIZES:
            _run_combined_cell(scheme, reply, seed, size, fault == "member-crash")

# ---------------------------------------------------------------------------
# bind-time checks: every cell binds, or refuses before any message
# ---------------------------------------------------------------------------
def _cell(invocation: str, reply: str) -> SchemeConfig:
    kwargs = {}
    if reply == "combine":
        kwargs["reducer"] = "sum"
    if reply == "forward":
        kwargs["forward_to"] = "c1"
    if invocation in COMBINED_SCHEMES:
        kwargs["callers"] = ["c0", "c1"]
    return SchemeConfig(invocation=invocation, reply=reply, **kwargs)


def _quiet(c) -> tuple:
    """What any message would move: sends, and events waiting to run."""
    return c.sim.obs.metrics.counter("net.sent").value, c.sim.pending_count()


@pytest.mark.parametrize("binder", ["bind", "bind_sharded"])
@pytest.mark.parametrize("reply", REPLIES)
@pytest.mark.parametrize("invocation", PLAIN_SCHEMES + COMBINED_SCHEMES)
def test_every_cell_binds_or_refuses_at_bind(invocation, reply, binder):
    """``bind`` takes every cell (a combined one as this node's
    :class:`CombinedBinding`) and fixes the mode from the reply scheme, so
    each explicit mode is refused; ``bind_sharded`` routes and gathers
    itself and refuses every cell.  A refusal sends nothing."""
    c = AppCluster(servers=1, clients=2)
    client = c.client(0)
    scheme = _cell(invocation, reply)
    before = _quiet(c)
    if binder == "bind_sharded":
        with pytest.raises(ConfigurationError):
            client.bind_sharded("svc", 2, scheme=scheme)
        assert _quiet(c) == before
        sharded = client.bind_sharded("svc", 2)  # no scheme: the caller picks
        for mode in (None, *Mode.ALL_MODES):
            sharded.invoke("incr", (1,), key="k", mode=mode)
        return
    binding = client.bind("svc", scheme=scheme)
    combined = invocation in COMBINED_SCHEMES
    assert type(binding) is (CombinedBinding if combined else GroupBinding)
    extra = {"parts": {"s0": (2,)}} if invocation == "personalized" else {}
    for mode in Mode.ALL_MODES:
        before = _quiet(c)
        # a combined binding has no mode parameter at all
        with pytest.raises(TypeError if combined else ConfigurationError):
            binding.invoke("incr", (1,), mode=mode, **extra)
        assert _quiet(c) == before
    call = binding.invoke("incr", (1,), **extra)  # mode unset: the plan's
    assert not call.failed
    if not combined:
        assert binding._queued[-1].mode == ReplyScheme.MODES[reply]


# ---------------------------------------------------------------------------
# reducer laws (property-based)
# ---------------------------------------------------------------------------
#: bounded so ``prod`` stays exact (Python ints are exact anyway; the bound
#: just keeps example sizes readable)
values = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8)
reducer_names = st.sampled_from(sorted(REDUCERS))


@given(reducer_names, values, st.randoms())
def test_builtin_reducers_are_permutation_invariant(name, vals, rng):
    """Arrival order never changes the combined value."""
    reducer = REDUCERS[name]
    shuffled = list(vals)
    rng.shuffle(shuffled)
    assert reducer.reduce(shuffled) == reducer.reduce(vals)


@given(reducer_names, values)
def test_builtin_reducers_are_tree_shape_invariant(name, vals):
    """A balanced combining tree folds to the same value as a left fold."""
    reducer = REDUCERS[name]
    assert _fold_tree(reducer.fn, vals) == _fold_left(reducer.fn, vals)


#: only *idempotent* reducers (fn(v, v) == v over their domain) are
#: quorum-independent: min/max over numbers, any/all over booleans
idempotent_cases = st.one_of(
    st.tuples(st.sampled_from(["min", "max"]),
              st.integers(min_value=-50, max_value=50)),
    st.tuples(st.sampled_from(["any", "all"]), st.booleans()),
)


@given(
    idempotent_cases,
    st.sets(st.sampled_from(["s0", "s1", "s2", "s3", "s4"]), min_size=1),
)
def test_idempotent_combine_is_quorum_independent(case, survivors):
    """Active replicas return identical values, so for an idempotent
    reducer, folding a majority's replies equals folding all five
    replicas' replies — the combined value cannot depend on which quorum
    happened to answer."""
    name, value = case
    reducer = REDUCERS[name]
    everyone = {f"s{i}": value for i in range(5)}
    subset = {member: value for member in survivors}
    assert reduce_sorted(reducer, subset) == reduce_sorted(reducer, everyone)


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=5),
)
def test_sum_combine_is_membership_weighted(value, quorum):
    """``sum`` over identical replica replies scales with the quorum size —
    which is why reply folds over active replicas should be idempotent
    (the conformance matrix uses ``max``) and ``sum`` belongs on the
    *argument* side, where each cohort member contributes a distinct
    share."""
    by_member = {f"s{i}": value for i in range(quorum)}
    assert reduce_sorted(REDUCERS["sum"], by_member) == quorum * value


@given(reducer_names, st.dictionaries(
    st.sampled_from(["s0", "s1", "s2", "s3"]),
    st.integers(min_value=-50, max_value=50),
    min_size=1,
))
def test_reduce_sorted_ignores_mapping_insertion_order(name, by_member):
    """The canonical fold is over *sorted* member names, so a mapping built
    in any insertion order folds identically."""
    reducer = REDUCERS[name]
    reversed_insertion = dict(sorted(by_member.items(), reverse=True))
    assert reduce_sorted(reducer, reversed_insertion) == reduce_sorted(
        reducer, by_member
    )


# ---------------------------------------------------------------------------
# law-breakers are rejected at bind time
# ---------------------------------------------------------------------------
def test_non_commutative_reducer_rejected_at_bind_time():
    """First-projection is associative but not commutative: the combined
    value would be whoever's reply arrived first."""
    with pytest.raises(ConfigurationError, match="not commutative"):
        SchemeConfig(reply="combine", reducer=lambda a, b: a)


def test_non_associative_reducer_rejected_at_bind_time():
    """Averaging is commutative but not associative: a combining tree would
    weight inputs by their position in the tree."""
    with pytest.raises(ConfigurationError, match="not associative"):
        SchemeConfig(reply="combine", reducer=lambda a, b: (a + b) / 2)


def test_subtraction_rejected_at_bind_time():
    """Subtraction breaks both laws; either message is a correct rejection,
    and it must fire at configuration time."""
    with pytest.raises(ConfigurationError, match="not (commutative|associative)"):
        SchemeConfig(reply="combine", reducer=lambda a, b: a - b)


def test_probe_domain_failure_gives_actionable_error():
    """A reducer whose domain rejects the integer probe must be told to
    supply its own probe samples, not fail mysteriously later."""
    with pytest.raises(ConfigurationError, match="probe"):
        resolve_reducer(lambda a, b: a | b if a % 2 else a / 0)


def test_custom_probe_admits_domain_specific_reducer():
    """Set union fails the integer probe but is a lawful fold over sets."""
    reducer = resolve_reducer(
        lambda a, b: a | b,
        probe=[frozenset({1}), frozenset({2}), frozenset({1, 3})],
    )
    assert reducer.reduce([{1}, {2}, {3}]) == {1, 2, 3}


def test_unknown_reducer_name_rejected():
    with pytest.raises(ConfigurationError, match="unknown reducer"):
        SchemeConfig(reply="combine", reducer="median-ish")


def test_directly_constructed_rogue_reducer_still_caught_by_validation():
    """Even a Reducer built by hand (skipping resolve_reducer) fails
    validation when re-checked — the laws are properties of the fn, not of
    the construction path."""
    from repro.core.scheme import validate_reducer

    rogue = Reducer("sub", lambda a, b: a - b)
    with pytest.raises(ConfigurationError):
        validate_reducer(rogue.name, rogue.fn)
