"""`repro.scenario` — declarative scenario engine.

Grows the repo from paper-replay toward a production-style test rig:

- **open-loop traffic** (:mod:`~repro.scenario.arrivals`,
  :mod:`~repro.scenario.traffic`) — Poisson / ramp / diurnal
  arrival processes driving aggregated virtual-client request injection
  with join/leave churn;
- **fault schedules** (:mod:`~repro.scenario.faults`) — declarative
  timelines of ``crash`` / ``recover`` / ``partition`` / ``heal`` /
  ``slow_node`` events executed against :mod:`repro.net`;
- **SLO verdicts** (:mod:`~repro.scenario.slo`) — latency, counter,
  accounting ("zero lost replies"), and traffic-reconciliation assertions
  evaluated from :mod:`repro.obs` metrics;
- **scenario specs** (:mod:`~repro.scenario.spec`) — dataclasses with a
  JSON loader binding topology, group config, traffic, faults, and SLOs;
- a **runner** (:mod:`~repro.scenario.runner`) and CLI
  (``python -m repro.scenario run <spec.json>``) emitting a deterministic
  JSON report; exit status reflects the SLO verdict.

See ``docs/SCENARIOS.md`` and the canned specs under
``examples/scenarios/``.
"""

from repro.scenario.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    PoissonArrivals,
    RampArrivals,
    arrival_process_from_spec,
    next_arrival,
)
from repro.scenario.faults import FAULT_KINDS, FaultEvent, FaultSchedule
from repro.scenario.slo import SLO_KINDS, SloContext, build_slos, evaluate_slos
from repro.scenario.spec import (
    ChurnSpec,
    GroupSpec,
    ScenarioSpec,
    TrafficSpec,
    load_spec,
)
from repro.scenario.traffic import OpenLoopGenerator, Population, TrafficStats
from repro.scenario.runner import REPORT_VERSION, ScenarioError, run_scenario

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "RampArrivals",
    "DiurnalArrivals",
    "arrival_process_from_spec",
    "next_arrival",
    "FaultEvent",
    "FaultSchedule",
    "FAULT_KINDS",
    "SLO_KINDS",
    "SloContext",
    "build_slos",
    "evaluate_slos",
    "GroupSpec",
    "ChurnSpec",
    "TrafficSpec",
    "ScenarioSpec",
    "load_spec",
    "Population",
    "OpenLoopGenerator",
    "TrafficStats",
    "run_scenario",
    "ScenarioError",
    "REPORT_VERSION",
]
