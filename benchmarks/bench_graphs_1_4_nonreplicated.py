#!/usr/bin/env python
"""Graphs 1-4: non-replicated server accessed via the NewTop service.

- Graphs 1-2: clients on the same LAN as the server — a handful of clients
  saturate the server; latency climbs with client count.
- Graphs 3-4: distant clients (London/Pisa -> Newcastle) — throughput keeps
  growing with client count; latency stays near the WAN floor much longer.
"""

import sys

from repro.bench import CLIENT_COUNTS, emit, format_graph, gate, request_reply_point, sweep
from repro.core import BindingStyle, Mode

SECTION = "graphs_1_4_nonreplicated"
WORKLOAD = {
    "topologies": {"lan": "clients on same LAN", "mixed": "distant clients"},
    "sweep": dict(  # of request_reply_point; requests are timed, per client
        xs=CLIENT_COUNTS, requests=40, replicas=1,
        style=BindingStyle.CLOSED, mode=Mode.ALL, seed=42,
    ),
}
EXACT = ("latency_ms", "throughput", "errors", "requests", "retransmissions")


def measure() -> dict:
    return {
        topology: sweep(request_reply_point, topology, **WORKLOAD["sweep"])
        for topology in WORKLOAD["topologies"]
    }


def shape_failures(result) -> list:
    """The published shapes; deterministic, enforced in every mode."""
    lan, distant = result["lan"], result["mixed"]
    first, last = CLIENT_COUNTS[0], CLIENT_COUNTS[-1]
    peak = max(point["throughput"] for point in lan.values())
    claims = [
        # graphs 1-2: saturation with few clients — by 4 clients throughput is
        # close to the peak, and latency grows steeply with client count
        (lan[4]["throughput"] > 0.75 * peak,
         "LAN: throughput at 4 clients is not above 0.75x the peak"),
        (lan[last]["latency_ms"] > 3 * lan[first]["latency_ms"],
         "LAN: latency does not grow more than 3x from 1 to 20 clients"),
        # graphs 3-4: throughput rises with client count (the server is far from
        # saturated by one distant client) while latency grows only gently
        (distant[last]["throughput"] > 5 * distant[first]["throughput"],
         "distant clients: throughput does not grow more than 5x from 1 to 20 clients"),
        (distant[last]["latency_ms"] < 6 * distant[first]["latency_ms"],
         "distant clients: latency grows 6x or more from 1 to 20 clients"),
        # a single distant client gets far lower throughput than the LAN case
        (distant[first]["throughput"] < 120,
         "distant clients: a single client's throughput is not under 120/s"),
    ]
    return [message for ok, message in claims if not ok]


def report(result) -> None:
    graph = 1
    for topology, where in WORKLOAD["topologies"].items():
        curves = {f"NewTop, non-replicated ({where})": result[topology]}
        for metric in ("latency_ms", "throughput"):
            emit(format_graph(f"Graph {graph}: non-replicated server, {where}", curves, metric))
            graph += 1


if __name__ == "__main__":
    sys.exit(
        gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                  exact=EXACT, predicates=[shape_failures])
    )
