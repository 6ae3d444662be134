#!/usr/bin/env python
"""End-to-end workloads: the six of benchmarks/e2e, gated by virtual values and calls.

Runs ``benchmarks/e2e/run.py``'s ``measure()`` over its six workloads at
full size with the fewest passes it allows: one traced pass (under
cProfile), which doubles as the warm-up, plus one timed pass per input
stream.  ``run.py`` aborts with ``NONDETERMINISM`` when a replay differs.

- **Behaviour** (``exact``): per workload the five virtual end-to-end
  values (each the median over the streams), the traced pass's
  ``sim.events_processed`` and the correctness failures of every pass,
  which must be none (a lost op is one) in either mode.
- **Host cost** (``exact``): ``host_pycalls_per_op``, stored per interpreter.
- **Speed** (``timed``, informational): ``host_cpu_us_per_op``, ``setup_s``.

``--check`` gates the run against the ``e2e`` section of
``benchmarks/gates.json`` (see repro.bench.gate); without it the section
is rewritten.
"""

from __future__ import annotations

import sys
from pathlib import Path

# run.py and its sibling modules import one another by name
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
import run as e2e  # noqa: E402

from repro.bench import gate  # noqa: E402
from repro.bench.report import emit, format_table  # noqa: E402

SECTION = "e2e"
WORKLOAD = {"workloads": list(e2e.WORKLOADS), "seed": 42, "streams": e2e.STREAMS}
VIRTUAL = ("ops_per_vs", "lat_p50_vms", "lat_p99_vms", "completed_ratio", "stall_max_vms")
EXACT = VIRTUAL + ("events", "failures", "host_pycalls_per_op")


def measure():
    results = e2e.measure(
        WORKLOAD["workloads"], WORKLOAD["seed"], quick=False, seconds=0.0, repeats=0
    )
    measured = {}
    for name, result in results.items():
        value = {key: entry["value"] for key, entry in result["end_to_end"].items()}
        measured[name] = {
            **{key: value[key] for key in VIRTUAL},
            "events": result["events"],
            "failures": result["failures"],
            "host_pycalls_per_op": gate.per_interpreter(
                SECTION, (name, "host_pycalls_per_op"), value["host_pycalls_per_op"]
            ),
            "host_cpu_us_per_op": round(value["host_cpu_us_per_op"], 1),
            "setup_s": round(value["setup_s"], 3),
        }
    return measured


def report(measured) -> None:
    columns = VIRTUAL + ("events", "host_pycalls_per_op", "host_cpu_us_per_op", "setup_s")
    rows = []
    for name, result in measured.items():
        values = {**result, "host_pycalls_per_op": result["host_pycalls_per_op"][gate.INTERPRETER]}
        rows.append([name, *(values[key] for key in columns)])
    title = "End-to-end workloads (seed {seed}, {streams} input streams)".format(**WORKLOAD)
    emit(format_table(["workload", *columns], rows, title=title))


def correctness_failures(measured) -> list:
    """A correctness check that failed on any pass (a lost op is one)."""
    return [
        f"{name}: {failure}" for name, result in measured.items() for failure in result["failures"]
    ]


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[correctness_failures]))
