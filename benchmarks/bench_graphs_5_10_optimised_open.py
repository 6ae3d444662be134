#!/usr/bin/env python
"""Graphs 5-10: optimised open group invocation vs the non-replicated server.

The optimised configuration (§4.2): restricted open group (all clients use
the designated request manager) with asynchronous message forwarding, under
the asymmetric ordering protocol, with sequencer = request manager = primary
— the passive-replication sweet spot.  The paper's claim: its performance
"closely matches" the non-replicated service in all three configurations:

- graphs 5-6: clients and server(s) on the same LAN;
- graphs 7-8: servers on one LAN, clients distant;
- graphs 9-10: geographically distributed servers and clients.
"""

import sys

from repro.bench import CLIENT_COUNTS, emit, format_graph, gate, request_reply_point, sweep
from repro.core import BindingStyle, Mode, ReplicationPolicy
from repro.groupcomm import Ordering

SECTION = "graphs_5_10_optimised_open"
WORKLOAD = {
    "topologies": {
        "lan": "Graphs 5-6 (clients & server(s) on the same LAN)",
        "mixed": "Graphs 7-8 (server(s) on the same LAN and clients distant)",
        "wan": "Graphs 9-10 (geographically distributed servers and clients)",
    },
    # a sweep of request_reply_point per curve; requests are timed, per client
    "curves": {
        # Active replicas with asynchronous forwarding: the manager answers the
        # wait-for-first itself and forwards one-way; the other members execute
        # silently.  (The paper notes this configuration is also "particularly
        # attractive for supporting passive replication"; per-request state
        # shipping for the passive variant is exercised in the test suite.)
        "optimised open async (3 replicas)": dict(
            xs=CLIENT_COUNTS, requests=40, replicas=3, style=BindingStyle.OPEN,
            ordering=Ordering.ASYMMETRIC, mode=Mode.FIRST, restricted=True,
            async_forwarding=True, policy=ReplicationPolicy.ACTIVE, seed=42,
        ),
        "non-replicated server": dict(
            xs=CLIENT_COUNTS, requests=40, replicas=1,
            style=BindingStyle.CLOSED, mode=Mode.ALL, seed=42,
        ),
    },
}
EXACT = ("latency_ms", "throughput", "errors", "requests", "retransmissions")


def measure() -> dict:
    return {
        topology: {
            label: sweep(request_reply_point, topology, **arguments)
            for label, arguments in WORKLOAD["curves"].items()
        }
        for topology in WORKLOAD["topologies"]
    }


def shape_failures(result) -> list:
    """Optimised "closely matches" non-replicated; enforced in every mode."""
    failures = []
    for topology, curves in result.items():
        optimised, baseline = curves.values()
        if topology == "lan":
            # before saturation effects
            limits = {x: 2.2 * baseline[x]["latency_ms"] for x in CLIENT_COUNTS[:3]}
        elif topology == "mixed":
            # WAN latency dominates: replication adds only a small LAN epsilon
            limits = {x: 1.6 * baseline[x]["latency_ms"] + 5.0 for x in CLIENT_COUNTS}
        else:
            mid = CLIENT_COUNTS[len(CLIENT_COUNTS) // 2]
            limits = {mid: 2.5 * baseline[mid]["latency_ms"] + 10.0}
        failures += [
            f"{topology}: optimised latency at {x} clients is not under {limit:.2f} ms"
            for x, limit in limits.items()
            if not optimised[x]["latency_ms"] < limit
        ]
    return failures


def report(result) -> None:
    for topology, title in WORKLOAD["topologies"].items():
        for metric in ("latency_ms", "throughput"):
            emit(format_graph(title, result[topology], metric))


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[shape_failures]))
