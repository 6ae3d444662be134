"""The one gate: how a benchmark run is compared with a committed number.

``benchmarks/gates.json`` holds one section per gated script, all of one
schema:

- ``workload`` — the constants that produced the numbers.  Other constants
  are another experiment, so ``--check`` compares them like ``exact``.
- ``exact`` — every value derived from virtual time or a count.  The
  simulation is deterministic, so these are compared recursively, key for
  key: a differing value, a missing key or an extra key is behaviour drift
  and fails naming its path.  Never a tolerance.
- ``timed`` — host-clock values.  Informational, except the ones a script
  names as *floors*: higher-is-better rates that may not fall more than
  :data:`TOLERANCE` below the committed value.

A script's *predicates* are its qualitative claims about its own result
(tree beats flat, throughput grows with the shard count, ...).  They need
no committed number, so they hold in both modes: a run that fails one is
never written as a baseline.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["main", "run", "GATES", "TOLERANCE"]

GATES = Path(__file__).resolve().parents[3] / "benchmarks" / "gates.json"

#: allowed fractional fall of a floored ``timed`` value below its committed one
TOLERANCE = 0.10


def main(
    doc: str,
    section: str,
    workload: Dict,
    measure: Callable[[], Dict],
    report: Callable[[Dict], None],
    *,
    argv: Optional[Sequence[str]] = None,
    **gate_options,
) -> int:
    """The command line of every ``benchmarks/bench_*.py``: measure, print, gate.

    ``--check`` is the only flag: a script's workload is its module
    constants.  ``gate_options`` go to :func:`run`.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    check_help = "CI mode: gate the run against gates.json instead of rewriting its section"
    parser.add_argument("--check", action="store_true", help=check_help)
    args = parser.parse_args(argv)
    result = measure()
    report(result)
    return run(section, workload, result, check=args.check, **gate_options)


def run(
    section: str,
    workload: Dict,
    result: Dict,
    *,
    exact: Sequence[str],
    floors: Sequence[str] = (),
    predicates: Iterable[Callable[[Dict], List[str]]] = (),
    check: bool,
    path: Path = GATES,
) -> int:
    """Gate ``result`` (``check``) or commit it as the section's new numbers.

    ``exact`` names the keys of ``result`` whose values are deterministic, at
    any depth (a dict under such a key is exact as a whole); every other leaf
    is ``timed``.  ``floors`` are dotted paths into the timed part.  Each
    predicate maps ``result`` to a list of failure messages.  Returns the
    process exit code.
    """
    failures = [failure for predicate in predicates for failure in predicate(result)]
    exact_part, timed_part = _split(result, frozenset(exact))
    # through JSON and back, so a tuple or an int key compares (and
    # round-trips) as the list or string the committed file holds
    measured = json.loads(
        json.dumps({"workload": workload, "exact": exact_part, "timed": timed_part})
    )
    try:
        with open(path, "r", encoding="utf-8") as fp:
            gates = json.load(fp)
    except FileNotFoundError:
        gates = {}
    except (OSError, ValueError) as exc:
        print(f"FAIL cannot read {path}: {exc}")
        return 1
    if check and section not in gates:
        print(f"FAIL no committed section {section!r} in {path}")
        return 1

    floored = []
    if check:
        committed = gates[section]
        for part in ("workload", "exact"):
            failures += _diff(f"{section}.{part}", committed[part], measured[part])
        for floor_path in floors:
            base = _at(committed["timed"], floor_path)
            value = _at(measured["timed"], floor_path)
            floor = base * (1.0 - TOLERANCE)
            if value < floor:
                failures.append(
                    f"{section}.timed.{floor_path} regressed: {value:.1f} < floor "
                    f"{floor:.1f} ({TOLERANCE:.0%} below the committed {base:.1f})"
                )
            else:
                floored.append(
                    f"{floor_path} {value:.1f} (committed {base:.1f}, floor {floor:.1f})"
                )
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    if check:
        print("; ".join([f"ok {section}: exact values match {path.name}", *floored]))
        return 0
    gates[section] = measured
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(gates, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"section {section!r} written to {path}")
    return 0


def _split(tree: Dict, exact: frozenset) -> Tuple[Dict, Dict]:
    """``tree`` as (exact part, timed part), routed by key name."""
    exact_part, timed_part = {}, {}
    for key, value in tree.items():
        if key in exact:
            exact_part[key] = value
        elif isinstance(value, dict):
            exact_below, timed_below = _split(value, exact)
            if exact_below:
                exact_part[key] = exact_below
            if timed_below:
                timed_part[key] = timed_below
        else:
            timed_part[key] = value
    return exact_part, timed_part


def _diff(path: str, committed, measured) -> List[str]:
    """Every difference between two JSON values, each naming its key path."""
    if not (isinstance(committed, dict) and isinstance(measured, dict)):
        if committed == measured:
            return []
        return [
            f"{path}: {measured!r} vs committed {committed!r} — behaviour drift "
            "(rerun without --check only if the protocol legitimately changed)"
        ]
    failures = []
    for key in sorted(committed.keys() | measured.keys()):
        if key not in measured:
            failures.append(f"{path}.{key}: committed, but missing from this run")
        elif key not in committed:
            failures.append(f"{path}.{key}: in this run, but not committed")
        else:
            failures += _diff(f"{path}.{key}", committed[key], measured[key])
    return failures


def _at(tree: Dict, dotted: str):
    for key in dotted.split("."):
        tree = tree[key]
    return tree
