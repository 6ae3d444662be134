#!/usr/bin/env python
"""Sequencer ticket batching: control traffic vs membership (before/after).

The asymmetric protocol multicasts one ticket per data message that does
not originate at the sequencer, so ticket traffic grows with both load
and fan-out.  Coalescing the tickets assigned inside a short window
(``OrderingConfig.ticket_batch_max`` / ``ticket_batch_delay``) into one
``TicketBatchMsg`` amortises that cost without touching delivery
semantics (the invariant sweep in tests/test_invariant_sweep.py is the
semantic gate).  This bench sweeps peer-group membership on the LAN
preset and prints ticket multicasts, latency, and throughput with
batching off (the seed's behaviour, batch_max=1) and on.
"""

import sys

from repro.bench import emit, format_table, gate, peer_point, sweep
from repro.groupcomm import Ordering, OrderingConfig

SECTION = "ticket_batching"
MEMBER_COUNTS = (3, 4, 6, 8)
WORKLOAD = {
    "topology": "lan",
    "sweep": dict(  # of peer_point; multicasts are timed, per member
        xs=MEMBER_COUNTS, ordering=Ordering.ASYMMETRIC, multicasts=30, seed=42
    ),
    "batched": {"ticket_batch_max": 8, "ticket_batch_delay": 2e-3},  # OrderingConfig
}
EXACT = ("latency_ms", "throughput", "delivered", "tickets", "tickets_batched")


def measure() -> dict:
    return {
        label: sweep(
            peer_point, WORKLOAD["topology"], ordering_config=config, **WORKLOAD["sweep"]
        )
        for label, config in (
            ("baseline", None),
            ("batched", OrderingConfig(**WORKLOAD["batched"])),
        )
    }


def batching_failures(result) -> list:
    """Identical work delivered, fewer ticket multicasts; enforced in every mode."""
    failures = []
    for n in MEMBER_COUNTS:
        base, batch = result["baseline"][n], result["batched"][n]
        claims = [
            (batch["delivered"] == base["delivered"], "batching changed the deliveries"),
            (batch["tickets_batched"] > 0, "no ticket was batched"),
            (batch["tickets"] < base["tickets"], "batching sent no fewer ticket multicasts"),
        ]
        # acceptance bar: >= 50% fewer tickets at 6+ members, throughput
        # no worse (batching removes sequencer sends from the critical path)
        if n >= 6:
            claims += [
                (batch["tickets"] <= 0.5 * base["tickets"], "under 50% fewer ticket multicasts"),
                (batch["throughput"] >= base["throughput"], "batching lowered the throughput"),
            ]
        failures += [f"{n} members: {message}" for ok, message in claims if not ok]
    return failures


def report(result) -> None:
    rows = []
    for n in MEMBER_COUNTS:
        base, batch = result["baseline"][n], result["batched"][n]
        rows.append([
            n,
            base["tickets"],
            batch["tickets"],
            f"-{100.0 * (1 - batch['tickets'] / base['tickets']):.0f}%",
            f"{base['latency_ms']:.2f} -> {batch['latency_ms']:.2f}",
            f"{base['throughput']:.0f} -> {batch['throughput']:.0f}",
        ])
    emit(
        format_table(
            ["members", "tickets (batch=1)", "tickets (batch=8)", "reduction",
             "latency ms", "throughput msg/s"],
            rows,
            title=("Asymmetric peer group, LAN: ticket multicasts per run "
                   "({multicasts} multicasts/member, seed {seed})".format(**WORKLOAD["sweep"])),
        )
    )


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[batching_failures]))
