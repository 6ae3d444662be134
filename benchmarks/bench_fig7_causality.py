#!/usr/bin/env python
"""Fig. 7 (§4.4): ordering of related client requests across groups.

B issues an open-group request m1 to the server S; B then multicasts m2 in
the client group gx; A, on delivering m2, issues its own open-group request
m3.  Because requests travel through client/server groups under the shared
NewTop clock, S services m1 before m3 — every time.
"""

import sys

from repro.bench import Environment, emit, format_table, gate
from repro.groupcomm import GroupConfig, Ordering

SECTION = "fig7_causality"
WORKLOAD = {"topology": "wan", "ordering": Ordering.SYMMETRIC, "seeds": tuple(range(10))}
EXACT = ("trials", "ordered", "served")


def run_fig7_trial(seed: int):
    """One fig-7 interaction; returns the service order observed at S."""
    env = Environment(config=WORKLOAD["topology"], seed=seed)
    a = env.add_node("A", "london")
    b = env.add_node("B", "pisa")
    s = env.add_node("S", "newcastle")
    sym = lambda: GroupConfig(ordering=WORKLOAD["ordering"])

    gx_a = a.gcs.create_group("gx", sym())
    gx_b = b.gcs.join_group("gx", "A")
    g1_s = s.gcs.create_group("g1", sym())  # client/server group {B, S}
    g1_b = b.gcs.join_group("g1", "S")
    g2_s = s.gcs.create_group("g2", sym())  # client/server group {A, S}
    g2_a = a.gcs.join_group("g2", "S")
    env.settle(1.5)

    served = []
    g1_s.on_deliver = lambda sender, payload: served.append(payload)
    g2_s.on_deliver = lambda sender, payload: served.append(payload)
    gx_a.on_deliver = (
        lambda sender, payload: g2_a.send("m3") if payload == "m2" else None
    )

    g1_b.send("m1")
    gx_b.send("m2")
    env.run(2.0)
    return served


def measure() -> dict:
    served = {seed: run_fig7_trial(seed) for seed in WORKLOAD["seeds"]}
    ordered = sum(
        1
        for order in served.values()
        if "m1" in order and "m3" in order and order.index("m1") < order.index("m3")
    )
    return {"trials": len(served), "ordered": ordered, "served": served}


def causality_failures(result) -> list:
    if result["ordered"] != result["trials"]:
        return [f"m1 serviced before m3 in only {result['ordered']} of {result['trials']} trials"]
    return []


def report(result) -> None:
    emit(
        format_table(
            ["trials", "m1 serviced before m3"],
            [(result["trials"], result["ordered"])],
            title="Fig. 7: causality between related client requests (10 seeds)",
        )
    )


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[causality_failures]))
