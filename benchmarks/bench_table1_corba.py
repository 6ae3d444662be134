#!/usr/bin/env python
"""Table 1: performance of plain CORBA (no group service).

Paper rows: client+server on one LAN; Pisa->Newcastle; London->Newcastle;
Pisa->London.  We report timed-request latency (ms) and requests/second,
and additionally the NewTop-vs-CORBA single-client ratio the paper quotes
(~2.5x, §5.1.1).
"""

import sys

from repro.bench import corba_baseline, emit, format_table, gate, pinned, request_reply_point
from repro.core import BindingStyle, Mode

SECTION = "table1_corba"
LAN = "client and server on LAN"
WORKLOAD = {
    "cases": {  # label -> (client site, server site)
        LAN: ("newcastle", "newcastle"),
        "client Pisa -> server Newcastle": ("pisa", "newcastle"),
        "client London -> server Newcastle": ("london", "newcastle"),
        "client Pisa -> server London": ("pisa", "london"),
    },
    "requests": 200,  # timed plain-CORBA calls per case
    "seed": 7,
    "newtop_requests": 40,  # the same LAN call through a 1-member closed group
    "newtop_seed": 42,
}
EXACT = ("latency_ms", "throughput", "newtop_vs_corba")


def measure() -> dict:
    corba = {
        label: pinned(
            corba_baseline(*sites, requests=WORKLOAD["requests"], seed=WORKLOAD["seed"])
        )
        for label, sites in WORKLOAD["cases"].items()
    }
    newtop = pinned(
        request_reply_point(
            "lan", 1, replicas=1, style=BindingStyle.CLOSED, mode=Mode.ALL,
            requests=WORKLOAD["newtop_requests"], seed=WORKLOAD["newtop_seed"],
        )
    )
    return {
        "corba": corba,
        "newtop": newtop,
        "newtop_vs_corba": round(newtop["latency_ms"] / corba[LAN]["latency_ms"], 3),
    }


def shape_failures(result) -> list:
    """Table 1's bands and §5.1.1's ratio; deterministic, enforced in every mode."""
    lan, pisa, london, _ = (case["latency_ms"] for case in result["corba"].values())
    ratio = result["newtop_vs_corba"]
    claims = [
        # shape: LAN around 1 ms; WAN dominated by the path RTT, Pisa > London
        (0.2 < lan < 2.0, f"LAN call takes {lan} ms, outside (0.2, 2.0)"),
        (pisa > london > lan, f"not Pisa > London > LAN: {pisa} / {london} / {lan} ms"),
        (pisa > 15.0, f"Pisa -> Newcastle takes {pisa} ms, not above 15"),
        # §5.1.1: one client through NewTop costs ~2.5x a plain CORBA call
        (1.8 < ratio < 3.5, f"NewTop/CORBA ratio {ratio} outside (1.8, 3.5)"),
    ]
    return [message for ok, message in claims if not ok]


def report(result) -> None:
    emit(
        format_table(
            ["configuration", "timed request (ms)", "requests/sec"],
            [(label, p["latency_ms"], p["throughput"]) for label, p in result["corba"].items()],
            title="Table 1: performance of CORBA (plain ORB, no group service)",
        )
    )
    emit(
        format_table(
            ["path", "latency (ms)"],
            [
                ("plain CORBA (LAN)", result["corba"][LAN]["latency_ms"]),
                ("via NewTop service (LAN)", result["newtop"]["latency_ms"]),
                ("ratio", result["newtop_vs_corba"]),
            ],
            title="NewTop overhead vs plain CORBA (paper: ~2.5x, fig. 9)",
        )
    )


if __name__ == "__main__":
    sys.exit(
        gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                  exact=EXACT, predicates=[shape_failures])
    )
