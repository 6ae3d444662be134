#!/usr/bin/env python
"""Graphs 11-16: closed vs open group invocation (asymmetric, wait-for-all).

Three configurations, each measured as latency + throughput vs client count:

- graphs 11-12: clients & servers on the same LAN — little difference
  between the approaches (the paper's expectation in low-latency networks);
- graphs 13-14: servers on one LAN, clients distant — the open approach is
  most attractive (the client keeps just one message pair on the WAN),
  while the closed group degrades under load rather than collapsing;
- graphs 15-16: geographically separated servers and clients — open clients
  bind to a nearby member; under load open overtakes closed.
"""

import sys

from repro.bench import CLIENT_COUNTS, emit, format_graph, gate, request_reply_point, sweep
from repro.core import BindingStyle, Mode
from repro.groupcomm import Ordering

SECTION = "graphs_11_16_closed_vs_open"
WORKLOAD = {
    "topologies": {
        "lan": "Graphs 11-12 (clients & servers on the same LAN)",
        "mixed": "Graphs 13-14 (servers on the same LAN and clients distant)",
        "wan": "Graphs 15-16 (geographically separated servers & clients)",
    },
    "sweep": dict(  # of request_reply_point; requests are timed, per client
        xs=CLIENT_COUNTS, requests=40, replicas=3,
        ordering=Ordering.ASYMMETRIC, mode=Mode.ALL, seed=42,
    ),
    # in the wan topology open clients bind to a nearby member (§4.2)
    "unrestricted_open": ("wan",),
}
EXACT = ("latency_ms", "throughput", "errors", "requests", "retransmissions")


def measure() -> dict:
    result = {}
    for topology in WORKLOAD["topologies"]:
        result[topology] = {
            "closed group": sweep(
                request_reply_point, topology, style=BindingStyle.CLOSED, **WORKLOAD["sweep"]
            ),
            "open group": sweep(
                request_reply_point, topology, style=BindingStyle.OPEN,
                restricted=topology not in WORKLOAD["unrestricted_open"],
                **WORKLOAD["sweep"],
            ),
        }
    return result


def shape_failures(result) -> list:
    """§5.1.3's closed-vs-open shapes; deterministic, enforced in every mode."""
    (lan_closed, lan_open), (closed, open_), (wan_closed, wan_open) = (
        curves.values() for curves in result.values()
    )
    last = CLIENT_COUNTS[-1]
    claims = [
        # low client counts: no significant difference on a LAN (within a few ms)
        *(
            (abs(lan_closed[x]["latency_ms"] - lan_open[x]["latency_ms"]) < 6.0,
             f"lan: closed and open latency differ by 6 ms or more at {x} clients")
            for x in (1, 2)
        ),
        # distant clients: under load the open approach is most attractive (§5.1.3)
        (open_[last]["latency_ms"] < closed[last]["latency_ms"],
         "mixed: open latency is not below closed at 20 clients"),
        (open_[last]["throughput"] > 0.95 * closed[last]["throughput"],
         "mixed: open throughput is not above 0.95x closed at 20 clients"),
        # and at a single client the two are comparable
        (abs(closed[1]["latency_ms"] - open_[1]["latency_ms"]) < 0.4 * closed[1]["latency_ms"],
         "mixed: closed and open latency differ by 40% or more at 1 client"),
        # under heavy load the client-side WAN multicasts of the closed approach
        # saturate the pipes and open overtakes it
        (wan_open[last]["latency_ms"] < 1.2 * wan_closed[last]["latency_ms"],
         "wan: open latency is not under 1.2x closed at 20 clients"),
        # with distant clients the closed group degrades; it does not collapse
        (closed[last]["latency_ms"] <= 2 * closed[CLIENT_COUNTS[-2]]["latency_ms"],
         "mixed: closed latency at 20 clients is over 2x that at 16"),
        # no link drops anything: a retransmission mistook queueing for loss
        *((point["retransmissions"] == 0,
           f"{topology} / {style}: {point['retransmissions']} retransmissions at {x} clients")
          for topology, curves in result.items()
          for style, curve in curves.items()
          for x, point in curve.items()),
    ]
    return [message for ok, message in claims if not ok]


def report(result) -> None:
    for topology, title in WORKLOAD["topologies"].items():
        for metric in ("latency_ms", "throughput"):
            emit(format_graph(title, result[topology], metric))


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[shape_failures]))
