#!/usr/bin/env python
"""Protocol traffic accounting: quantifying the paper's qualitative claims.

The paper argues its configuration advice from protocol message traffic:

- the symmetric protocol needs "periodically exchanging protocol specific
  [information] amongst themselves ... just for ordering" (§1) — NULLs;
- asymmetric ordering redirects through the sequencer — tickets;
- the closed approach drags clients into this traffic across the WAN,
  the open approach keeps it inside the server group (§2.1, §5.1.3).

This bench runs the same request-reply workload under each configuration
and prints the per-kind NewTop message counts (data / NULL / ticket /
membership / channel control) summed over all nodes, plus the number of
messages crossing the network — making the argument measurable.
"""

import sys

from repro.bench import emit, format_table, gate, request_reply_traffic

SECTION = "protocol_traffic"
WORKLOAD = {
    "topology": "mixed",
    "replicas": 3,
    "clients": 2,
    "requests": 30,  # per client, no warmup
    "seed": 9,
    "configs": ("closed/asymmetric", "closed/symmetric", "open/asymmetric", "open/symmetric"),
}
KINDS = ("data", "null", "ticket", "membership", "control")  # gc.sent.<kind>
EXACT = (*KINDS, "net_total")


def run_traffic_probe(style: str, ordering: str) -> dict:
    """Messages per client request, by kind, over the workload window."""
    sent = request_reply_traffic(
        WORKLOAD["topology"], WORKLOAD["clients"], WORKLOAD["requests"],
        replicas=WORKLOAD["replicas"], style=style, ordering=ordering, seed=WORKLOAD["seed"],
    )
    totals = {kind: sent.get(f"gc.sent.{kind}", 0) for kind in KINDS}
    totals["net_total"] = sent["net.sent"]
    total_requests = WORKLOAD["requests"] * WORKLOAD["clients"]
    return {kind: round(count / total_requests, 2) for kind, count in totals.items()}


def measure() -> dict:
    return {config: run_traffic_probe(*config.split("/")) for config in WORKLOAD["configs"]}


def traffic_failures(result) -> list:
    """The paper's qualitative claims, now quantitative; enforced in every mode."""
    claims = [
        # (1) symmetric ordering generates extra NULL traffic on top of the
        #     stability acks both protocols pay (timestamp exchange "just for
        #     ordering", §1)
        *(
            (result[f"{style}/symmetric"]["null"] > 1.2 * result[f"{style}/asymmetric"]["null"],
             f"{style}: symmetric NULLs/request are not above 1.2x asymmetric")
            for style in ("closed", "open")
        ),
        # (2) asymmetric ordering pays tickets instead
        (result["closed/asymmetric"]["ticket"] > 0, "closed/asymmetric sent no tickets"),
        (result["closed/symmetric"]["ticket"] == 0, "closed/symmetric sent tickets"),
        # (3) the closed approach moves more messages in total per request than
        #     open keeps on the client path — but open's forwarding adds group-
        #     internal traffic, so totals are comparable; what differs is WHERE
        #     they flow (see latency benches).  Sanity: every config's data
        #     message count is at least 1 per request.
        *(
            (counts["data"] >= 1, f"{config}: under 1 data message per request")
            for config, counts in result.items()
        ),
    ]
    return [message for ok, message in claims if not ok]


def report(result) -> None:
    emit(
        format_table(
            ["configuration"] + [f"{kind}/req" for kind in EXACT],
            [[config, *counts.values()] for config, counts in result.items()],
            title="NewTop protocol messages per client request (3 replicas, 2 distant clients)",
        )
    )


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[traffic_failures]))
