#!/usr/bin/env python
"""Liveliness traffic: static vs adaptive time-silence, per delivered multicast.

The diurnal scenario shows the headline win (idle troughs cost ~0), but the
suppression also pays off under steady request-reply load: stability acks
coalesce onto data messages instead of firing as reactive NULLs, and the
lively heartbeat only runs at full rate while messages are actually in
flight.  This bench runs the four invocation configurations of the paper
(§5.1) with *lively* groups and prints NULL and channel-control messages
per delivered multicast, with adaptive suppression off (the seed's
behaviour) and on (the default).
"""

import sys

from repro.bench import emit, format_table, gate, request_reply_traffic
from repro.groupcomm import Liveliness, LivelinessConfig

SECTION = "liveliness_traffic"
WORKLOAD = {
    "topology": "mixed",
    "replicas": 3,
    "clients": 2,
    "requests": 25,  # per client, no warmup
    "seed": 9,
    "configs": ("closed/asymmetric", "closed/symmetric", "open/asymmetric", "open/symmetric"),
    "time_silence": {"static": {"adaptive": False}, "adaptive": {"adaptive": True}},
}
KINDS = ("data", "null", "control")  # gc.sent.<kind>
EXACT = KINDS


def run_lively_probe(style: str, ordering: str, adaptive: bool) -> dict:
    """Messages per delivered multicast, by kind, over the workload window."""
    window = request_reply_traffic(
        WORKLOAD["topology"], WORKLOAD["clients"], WORKLOAD["requests"],
        replicas=WORKLOAD["replicas"], style=style, ordering=ordering, seed=WORKLOAD["seed"],
        liveliness=Liveliness.LIVELY, liveliness_config=LivelinessConfig(adaptive=adaptive),
    )
    delivered = window["gc.delivered"]
    if delivered <= 0:
        raise SystemExit(f"{style}/{ordering}: nothing was delivered")
    return {kind: round(window.get(f"gc.sent.{kind}", 0) / delivered, 2) for kind in KINDS}


def measure() -> dict:
    return {
        label: {
            config: run_lively_probe(*config.split("/"), **time_silence)
            for config in WORKLOAD["configs"]
        }
        for label, time_silence in WORKLOAD["time_silence"].items()
    }


def suppression_failures(result) -> list:
    """Adaptive suppression must cut NULL traffic in every configuration
    without touching the data-message count; enforced in every mode."""
    failures = []
    for config in WORKLOAD["configs"]:
        static, adaptive = result["static"][config], result["adaptive"][config]
        if not adaptive["null"] < static["null"]:
            failures.append(f"{config}: adaptive NULLs/delivered are not below static")
        if adaptive["data"] != static["data"]:
            failures.append(f"{config}: adaptive changed the data messages/delivered")
    return failures


def report(result) -> None:
    for label, configs in result.items():
        emit(
            format_table(
                ["configuration"] + [f"{kind}/delivered" for kind in KINDS],
                [[config, *counts.values()] for config, counts in configs.items()],
                title=(
                    "Lively-group protocol messages per delivered multicast "
                    f"({label} time-silence, 3 replicas, 2 distant clients)"
                ),
            )
        )


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[suppression_failures]))
