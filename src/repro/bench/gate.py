"""The one gate: how a benchmark run is compared with a committed number.

``benchmarks/gates.json`` holds one section per gated script, all of one
schema:

- ``workload`` — the constants that produced the numbers.  Other constants
  are another experiment, so ``--check`` compares them like ``exact``.
- ``exact`` — every value derived from virtual time or a count, host cost
  included: a deterministic run makes the same Python calls on every host,
  so a call count is exact where a timing is noise.  Compared recursively,
  key for key: a differing value, a missing key or an extra key is
  behaviour drift and fails naming its path.  Never a tolerance.  CPython
  3.11 and 3.12 make different calls for the same code, so a call count is
  stored per interpreter (:func:`per_interpreter`).
- ``timed`` — host-clock values.  Written for the reader, never compared.

A script's *predicates* are its qualitative claims about its own result
(tree beats flat, throughput grows with the shard count, ...).  They need
no committed number, so they hold in both modes: a run that fails one is
never written as a baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["main", "run", "per_interpreter", "GATES", "INTERPRETER"]

GATES = Path(__file__).resolve().parents[3] / "benchmarks" / "gates.json"

#: the key of this interpreter's entry in a per-interpreter value
INTERPRETER = "{}.{}".format(*sys.version_info[:2])


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
    predicates: Iterable[Callable[[Dict], List[str]]] = (),
    check: bool,
    path: Path = GATES,
) -> int:
    """Gate ``result`` (``check``) or commit it as the section's new numbers.

    ``exact`` names the keys of ``result`` whose values are deterministic, at
    any depth (a dict under such a key is exact as a whole); every other leaf
    is ``timed``.  Each predicate maps ``result`` to a list of failure
    messages.  A rewrite first prints every ``exact`` value it moves.
    Returns the process exit code.
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

    if check:
        for part in ("workload", "exact"):
            failures += _diff(f"{section}.{part}", gates[section][part], measured[part])
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    if check:
        print(f"ok {section}: exact values match {path.name}")
        return 0
    if section in gates:
        moves = _diff(f"{section}.exact", gates[section]["exact"], measured["exact"], rewrite=True)
        for move in moves:
            print(f"moved {move}")
    gates[section] = measured
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(gates, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"section {section!r} written to {path}")
    return 0


def per_interpreter(section: str, keys: Sequence[str], value, path: Path = GATES) -> Dict:
    """``value`` as this interpreter's entry beside every other interpreter's
    committed one, found along ``keys`` in the section's ``exact`` part.
    An unreadable file carries nothing: :func:`run` then fails on it."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            committed = json.load(fp)[section]["exact"]
        for key in keys:
            committed = committed[key]
    except (OSError, ValueError, KeyError):
        committed = {}
    return {**committed, INTERPRETER: value}


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


#: a key one side of a :func:`_diff` lacks
_ABSENT = object()


def _diff(path: str, committed, measured, rewrite: bool = False) -> List[str]:
    """Every difference between two JSON values, each naming its key path:
    as a ``--check`` failure, or with ``rewrite`` as the line a rewrite
    prints — old → new, and the relative move of a number."""
    if isinstance(committed, dict) and isinstance(measured, dict):
        changes = []
        for key in sorted(committed.keys() | measured.keys()):
            changes += _diff(
                f"{path}.{key}", committed.get(key, _ABSENT), measured.get(key, _ABSENT), rewrite
            )
        return changes
    if committed == measured:
        return []
    if rewrite:
        old, new = ("(absent)" if v is _ABSENT else repr(v) for v in (committed, measured))
        line = f"{path}: {old} → {new}"
        if committed and all(type(v) in (int, float) for v in (committed, measured)):
            line += f" ({(measured - committed) / abs(committed):+.2%})"
        return [line]
    if measured is _ABSENT:
        return [f"{path}: committed, but missing from this run"]
    if committed is _ABSENT:
        return [f"{path}: in this run, but not committed"]
    return [
        f"{path}: {measured!r} vs committed {committed!r} — behaviour drift "
        "(rerun without --check only if the protocol legitimately changed)"
    ]
