#!/usr/bin/env python
"""Ablation (§5.1.3 text): ordering protocol choice for request-reply.

The paper omitted these figures to save space but reports that (i) under
the closed approach the symmetric protocol "does not perform well, because
it gives rise to extensive protocol related multicast traffic amongst all
the members for ensuring order", and (ii) asymmetric ordering is the right
choice for request/reply interactions generally (Concluding Remarks).

We measure all four combinations with servers on a LAN and distant clients.
Reproduced shapes: symmetric ordering costs extra NULL/timestamp traffic in
*both* styles (visible as higher latency and earlier saturation than the
asymmetric runs), and asymmetric open/closed remain the efficient choices.
See EXPERIMENTS.md for the deviation discussion (our eager NULLs make
closed/symmetric degrade more gently than the paper's periodic exchange).
"""

import sys

from repro.bench import emit, format_graph, gate, request_reply_point, sweep
from repro.core import BindingStyle, Mode
from repro.groupcomm import Ordering

SECTION = "ablation_symmetric_request_reply"
COUNTS = (1, 2, 4, 8)
WORKLOAD = {
    "topology": "mixed",
    "styles": (BindingStyle.CLOSED, BindingStyle.OPEN),
    "orderings": (Ordering.SYMMETRIC, Ordering.ASYMMETRIC),
    "sweep": dict(  # of request_reply_point; requests are timed, per client
        xs=COUNTS, requests=40, replicas=3, mode=Mode.ALL, seed=42
    ),
}
EXACT = ("latency_ms", "throughput", "errors", "requests", "retransmissions")


def measure() -> dict:
    return {
        f"{style}/{ordering}": sweep(
            request_reply_point, WORKLOAD["topology"],
            style=style, ordering=ordering, **WORKLOAD["sweep"],
        )
        for style in WORKLOAD["styles"]
        for ordering in WORKLOAD["orderings"]
    }


def shape_failures(result) -> list:
    """The ordering-choice claims; deterministic, enforced in every mode."""
    latency = {label: {x: curve[x]["latency_ms"] for x in COUNTS} for label, curve in result.items()}
    last = COUNTS[-1]
    claims = [
        # the symmetric protocol's timestamp/NULL traffic costs latency in
        # both styles beyond a single client...
        *(
            (latency[f"{style}/symmetric"][x] > latency[f"{style}/asymmetric"][x],
             f"{style}: symmetric latency is not above asymmetric at {x} clients")
            for x in COUNTS[1:]
            for style in WORKLOAD["styles"]
        ),
        # ...and the asymmetric protocol is the appropriate choice for
        # request-reply overall (the paper's concluding remark)
        (min(latency["closed/asymmetric"][last], latency["open/asymmetric"][last])
         < min(latency["closed/symmetric"][last], latency["open/symmetric"][last]),
         "the best asymmetric latency at 8 clients is not below the best symmetric one"),
        # no link drops anything: a retransmission mistook queueing for loss
        *((point["retransmissions"] == 0,
           f"{label}: {point['retransmissions']} retransmissions at {x} clients")
          for label, curve in result.items()
          for x, point in curve.items()),
    ]
    return [message for ok, message in claims if not ok]


def report(result) -> None:
    for metric in ("latency_ms", "throughput"):
        emit(format_graph(
            "Ablation: ordering protocol choice (servers LAN, clients distant)", result, metric
        ))


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[shape_failures]))
