"""Declarative fault schedules executed against :mod:`repro.net`.

A schedule is a timeline of fault events — ``crash``, ``recover``,
``restart``, ``partition``, ``heal`` — applied at absolute
offsets from traffic start.  The paper's failure cases (§4.2's manager
crash, the partition behaviour of §3) were hand-run; a schedule makes them
scripted, repeatable ingredients of a scenario.

Targets are node names (``"s0"``), or the symbolic target ``"manager"``
which the runner resolves at fire time to the current request manager of
the scenario's first binding — so "crash whoever is the manager right now"
survives rebinding and restarts.

``recover`` flips the node's power back on and nothing more (seed
behaviour: a recovered member stays outside its old group).  ``restart``
(or ``recover`` with ``"rejoin": true``) additionally hands the node to the
scenario's :class:`~repro.recovery.manager.RecoveryManager`, which drives
the member back into its server group; ``heal`` with ``"rejoin": true``
does the same for minority-side members after a partition.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.net import Network
from repro.sim import Simulator

__all__ = ["FaultEvent", "FaultSchedule", "FAULT_KINDS"]

FAULT_KINDS = ("crash", "recover", "restart", "partition", "heal")


class FaultEvent:
    """One scheduled fault.

    Fields by kind:

    - ``crash`` / ``recover`` / ``restart`` — ``target`` (node name or
      ``"manager"``); ``recover`` also accepts ``rejoin`` (bool);
    - ``partition`` — ``groups`` (list of node-name lists) *or* ``sites``
      (list of site-name lists); unlisted nodes form the final group;
    - ``heal`` — optional ``rejoin`` (bool): pull stranded members back
      into the majority view after connectivity returns.
    """

    __slots__ = ("at", "kind", "target", "groups", "sites", "rejoin")

    def __init__(
        self,
        at: float,
        kind: str,
        target: Optional[str] = None,
        groups: Optional[Sequence[Sequence[str]]] = None,
        sites: Optional[Sequence[Sequence[str]]] = None,
        rejoin: bool = False,
    ):
        if at < 0:
            raise ValueError(f"fault time must be >= 0, got {at}")
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected {FAULT_KINDS}")
        if kind in ("crash", "recover", "restart") and not target:
            raise ValueError(f"fault {kind!r} requires a target")
        if kind == "partition" and (groups is None) == (sites is None):
            raise ValueError("partition requires exactly one of groups/sites")
        if rejoin and kind not in ("recover", "heal"):
            raise ValueError(
                f"rejoin applies to recover/heal, not {kind!r} "
                "(restart always rejoins)"
            )
        self.at = float(at)
        self.kind = kind
        self.target = target
        self.groups = [list(g) for g in groups] if groups is not None else None
        self.sites = [list(g) for g in sites] if sites is not None else None
        self.rejoin = bool(rejoin)

    @classmethod
    def from_dict(cls, spec: Dict) -> "FaultEvent":
        allowed = {"at", "kind", "target", "groups", "sites", "rejoin"}
        unknown = set(spec) - allowed
        if unknown:
            raise ValueError(f"fault spec has unknown keys {sorted(unknown)}")
        if "at" not in spec or "kind" not in spec:
            raise ValueError(f"fault spec needs 'at' and 'kind': {spec!r}")
        return cls(**spec)

    def to_dict(self) -> Dict:
        out: Dict = {"at": self.at, "kind": self.kind}
        if self.target is not None:
            out["target"] = self.target
        if self.groups is not None:
            out["groups"] = self.groups
        if self.sites is not None:
            out["sites"] = self.sites
        if self.rejoin:
            out["rejoin"] = True
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultEvent t={self.at} {self.kind} {self.target or ''}>"


class FaultSchedule:
    """Installs fault events onto a simulator and records what fired."""

    def __init__(self, events: Sequence[FaultEvent]):
        self.events = sorted(events, key=lambda ev: ev.at)
        #: executed events: ``{"at": offset_from_install, "kind": ..., ...}``
        self.log: List[Dict] = []
        self._metrics = None

    @classmethod
    def from_specs(cls, specs: Sequence[Dict]) -> "FaultSchedule":
        return cls([FaultEvent.from_dict(spec) for spec in specs])

    def install(
        self,
        sim: Simulator,
        net: Network,
        resolve_target: Optional[Callable[[str], str]] = None,
        recovery=None,
        metrics=None,
    ) -> None:
        """Schedule every event relative to the current virtual time.

        ``resolve_target`` maps symbolic targets (``"manager"``) to node
        names at fire time.  ``recovery`` is an optional
        :class:`~repro.recovery.manager.RecoveryManager` the ``restart`` /
        ``rejoin`` faults are routed through (without one they degrade to
        plain ``recover``).  ``metrics`` overrides the registry fault
        counters land in (default: the simulator's).
        """
        self._metrics = metrics if metrics is not None else sim.obs.metrics
        for event in self.events:
            sim.schedule(event.at, self._fire, sim, net, event, resolve_target, recovery)

    def _fire(self, sim, net, event: FaultEvent, resolve_target, recovery) -> None:
        target = event.target
        if target is not None and resolve_target is not None:
            target = resolve_target(target)
        entry: Dict = {"at": event.at, "kind": event.kind}
        if event.kind == "crash":
            net.crash(target)
            entry["target"] = target
        elif event.kind in ("recover", "restart"):
            rejoins = event.kind == "restart" or event.rejoin
            if rejoins and recovery is not None:
                recovery.restart_member(target)
                entry["rejoin"] = True
            else:
                net.recover(target)
            entry["target"] = target
        elif event.kind == "partition":
            if event.sites is not None:
                net.partition_sites(*event.sites)
                entry["sites"] = event.sites
            else:
                net.partition(*event.groups)
                entry["groups"] = event.groups
        elif event.kind == "heal":
            net.heal()
            if event.rejoin and recovery is not None:
                recovery.after_heal()
                entry["rejoin"] = True
        self._metrics.counter(f"scenario.fault.{event.kind}").inc()
        self.log.append(entry)
