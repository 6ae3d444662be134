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
"""

import os

import pytest

from repro.core import SchemeConfig
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from tests.core_helpers import AppCluster, Counter, bind_combined_cohort, bind_scheme
from tests.invariants import (
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
