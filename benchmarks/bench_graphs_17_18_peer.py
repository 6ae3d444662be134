#!/usr/bin/env python
"""Graphs 17-18: peer participation — symmetric vs asymmetric ordering.

Lively groups, every member multicasting 100-character strings as fast as
flow control allows (§5.2).  Reported metric: group message throughput
(msgs/sec) vs membership.

Paper shapes:
- WAN (graphs 17-18): the symmetric protocol clearly beats the asymmetric
  one — the sequencer redirection costs extra wide-area hops ("the
  performance of the asymmetric protocol is approximately half that of the
  symmetric protocol").
- LAN (discussed in the text): both degrade as membership grows; the
  asymmetric protocol degrades faster because the sequencer's CPU becomes
  the bottleneck.

Both are claims about the *paper's* protocol, whose time-silence period is
static, so that is what the shapes are checked on (``paper``).  The library
default has been adaptive time-silence since PR 3; it is measured beside it
(``adaptive``) because it moves this result: stretching the heartbeat while
quiescent relieves the asymmetric protocol far more than the symmetric one,
and over the WAN the published gap all but closes.

Causal and FIFO order run the same sweep beside them.  The paper offers
them so that an application "pays only for what it needs" (§2, §4); the
gate holds that to a margin: at every point, causal throughput is at least
1.15x the better total order, and FIFO at least causal's.
"""

import sys

from repro.bench import PEER_MEMBERS, emit, format_graph, gate, peer_point, sweep
from repro.groupcomm import LivelinessConfig, Ordering

SECTION = "graphs_17_18_peer"
WORKLOAD = {
    "topologies": ("wan", "lan"),
    "sweep": dict(xs=PEER_MEMBERS, multicasts=30, seed=42),  # of peer_point; timed, per member
    # LivelinessConfig arguments; {} is the library default
    "protocols": {"paper": {"adaptive": False}, "adaptive": {}},
}
EXACT = ("latency_ms", "throughput", "delivered", "tickets", "tickets_batched", "retransmissions")

ORDERINGS = (Ordering.SYMMETRIC, Ordering.ASYMMETRIC)  # the total orders §5.2 compares
WEAKER = (Ordering.CAUSAL, Ordering.FIFO)


def run_protocol(protocol: str) -> dict:
    """Every ordering over the membership sweep, in each topology."""
    return {
        topology: {
            ordering: sweep(
                peer_point, topology, ordering=ordering,
                liveliness_config=LivelinessConfig(**WORKLOAD["protocols"][protocol]),
                **WORKLOAD["sweep"],
            )
            for ordering in ORDERINGS + WEAKER
        }
        for topology in WORKLOAD["topologies"]
    }


def measure() -> dict:
    return {protocol: run_protocol(protocol) for protocol in WORKLOAD["protocols"]}


def shape_failures(result) -> list:
    """§5.2 on the paper's protocol; deterministic, enforced in every mode."""

    def lead(topology, members):  # symmetric msgs/s over asymmetric msgs/s
        sym, asym = (
            result["paper"][topology][o][members]["throughput"] for o in ORDERINGS
        )
        return sym / max(asym, 1)

    small, large = PEER_MEMBERS[0], PEER_MEMBERS[-1]
    claims = [
        # symmetric is superior over the Internet at every membership beyond a
        # pair: redirection through the sequencer costs asymmetric extra WAN
        # hops (the gap grows once members span all three sites)
        *(
            (lead("wan", x) > 1.1, f"wan: symmetric is not above 1.1x asymmetric at {x} members")
            for x in PEER_MEMBERS
            if x >= 3
        ),
        (lead("wan", large) > 1.2, "wan: symmetric is not above 1.2x asymmetric at 8 members"),
        # in the LAN the sequencer is the bottleneck: asymmetric throughput
        # falls behind symmetric and the gap widens with membership
        (lead("lan", large) > 1, "lan: symmetric is not ahead of asymmetric at 8 members"),
        (lead("lan", large) > lead("lan", small) * 0.9, "lan: the gap closes under load"),
    ]
    return [message for ok, message in claims if not ok]


def weaker_order_failures(result) -> list:
    """Causal and FIFO delivery earn their place: at every point of both
    protocols, causal beats the better total order by 1.15x, and FIFO never
    falls below causal."""
    failures = []
    for protocol, topologies in result.items():
        for topology, curves in topologies.items():
            for members in PEER_MEMBERS:
                rate = {o: curves[o][members]["throughput"] for o in curves}
                total = max(rate[o] for o in ORDERINGS)
                where = f"{protocol} {topology}, {members} members"
                if rate[Ordering.CAUSAL] < 1.15 * total:
                    failures.append(f"{where}: causal is below 1.15x the better total order")
                if rate[Ordering.FIFO] < rate[Ordering.CAUSAL]:
                    failures.append(f"{where}: fifo is below causal")
    return failures


def report(result) -> None:
    for protocol, topologies in result.items():
        for topology, curves in topologies.items():
            emit(format_graph(
                f"Graphs 17-18 analogue ({topology}, {protocol} time-silence): peer participation",
                curves, "throughput", x_label="members",
            ))
            emit(format_graph(
                f"Peer multicast latency to all members ({topology}, {protocol} time-silence)",
                curves, "latency_ms", x_label="members",
            ))


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[shape_failures, weaker_order_failures]))
