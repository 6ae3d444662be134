"""``run.py compare BASE.json NEW.json``: one verdict per (workload, metric).

Both files come from ``run.py --json``.  For every end-to-end metric the
row gives base, new, new/base, the catalogue bound and a verdict:

- ``worse``      — moved in the bad direction by more than the bound;
- ``better``     — moved in the good direction by more than the noise;
- ``same``       — inside the bound (and, for noisy metrics, the noise);
- ``unresolved`` — the interquartile ranges of the two sides are wider
  than the bound and the difference sits inside them, so these runs cannot
  tell ``same`` from ``worse``.

Virtual-clock metrics and call counts carry no IQR: they are exact, so any
difference is real and only the bound decides.  Exit status is 1 when any
row is ``worse``.
"""

from __future__ import annotations

import json
from typing import Dict, List


def verdict(base: Dict, new: Dict, better: str, bound: float) -> str:
    if not base["value"]:
        return "same" if not new["value"] else "unresolved"
    change = (new["value"] - base["value"]) / abs(base["value"])
    worsening = change if better == "lower" else -change
    noise = max(
        (side["q3"] - side["q1"]) / abs(base["value"]) if "q3" in side else 0.0
        for side in (base, new)
    )
    if noise > bound and abs(worsening) <= noise:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -noise:
        return "better"
    return "same"


def main(argv: List[str], catalogue: Dict) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: run.py compare BASE.json NEW.json")
    with open(argv[0]) as handle:
        base = json.load(handle)["workloads"]
    with open(argv[1]) as handle:
        new = json.load(handle)["workloads"]
    print(
        f"{'workload':<16}{'metric':<22}{'base':>16}{'new':>16}"
        f"{'new/base':>10}{'bound':>7}  verdict"
    )
    tally: Dict[str, int] = {}
    for workload in base:
        if workload not in new:
            continue
        for spec in catalogue["end_to_end"]:
            old = base[workload]["end_to_end"][spec["name"]]
            now = new[workload]["end_to_end"][spec["name"]]
            outcome = verdict(old, now, spec["better"], spec["bound"])
            tally[outcome] = tally.get(outcome, 0) + 1
            ratio = now["value"] / old["value"] if old["value"] else float("nan")
            print(
                f"{workload:<16}{spec['name']:<22}{old['value']:>16.6f}{now['value']:>16.6f}"
                f"{ratio:>10.4f}{spec['bound']:>7.0%}  {outcome}"
            )
    print(", ".join(f"{count} {outcome}" for outcome, count in sorted(tally.items())))
    return 1 if tally.get("worse") else 0
