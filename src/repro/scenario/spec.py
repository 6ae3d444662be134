"""Scenario specifications: dataclasses plus a JSON/dict loader.

A :class:`ScenarioSpec` binds together everything one reproducible run
needs: a topology preset, a group configuration (binding style, ordering,
restriction, forwarding, replication policy), an open-loop traffic
description (arrival process, virtual-client population and churn), a
fault schedule, and the SLOs that decide the verdict.  Specs round-trip
through plain dicts/JSON so canned scenarios live as data under
``examples/scenarios/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.modes import (
    BindingStyle,
    InvocationScheme,
    Mode,
    ReplicationPolicy,
    ReplyScheme,
)
from repro.groupcomm.config import (
    GroupConfig,
    Liveliness,
    LivelinessConfig,
    Ordering,
    OrderingConfig,
)
from repro.recovery.policy import RetryPolicy
from repro.scenario.arrivals import arrival_process_from_spec
from repro.scenario.faults import FaultEvent
from repro.scenario.slo import build_slos

__all__ = ["GroupSpec", "ChurnSpec", "TrafficSpec", "ScenarioSpec", "load_spec"]

TOPOLOGIES = ("lan", "mixed", "wan")
WORKLOADS = ("request_reply", "peer", "sharded_kvstore", "map_reduce")


def _check_keys(section: str, data: Dict, allowed: Sequence[str]) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(
            f"{section} spec has unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _check_choice(section: str, name: str, value: str, choices: Sequence[str]) -> str:
    if value not in choices:
        raise ValueError(f"{section}.{name} must be one of {tuple(choices)}, got {value!r}")
    return value


@dataclass
class GroupSpec:
    """The served group and how clients bind to it."""

    replicas: int = 3
    style: str = BindingStyle.OPEN
    ordering: str = Ordering.ASYMMETRIC
    restricted: bool = True
    async_forwarding: bool = False
    policy: str = ReplicationPolicy.ACTIVE
    liveliness: str = Liveliness.EVENT_DRIVEN
    suspicion_timeout: float = 10.0
    flush_timeout: float = 5.0
    silence_period: float = 50e-3
    liveliness_config: Dict = field(default_factory=dict)
    ordering_config: Dict = field(default_factory=dict)
    retry: Dict = field(default_factory=dict)
    #: 0 = unsharded (flat group, seed behaviour); >= 1 partitions the
    #: parent membership into that many shard subgroups (repro.shard)
    shards: int = 0
    min_members_per_shard: int = 1
    #: admission-control policy (repro.overload.AdmissionConfig keys);
    #: empty dict = no admission control, seed behaviour.  Applied at every
    #: client binding (the ingress), and additionally at the request
    #: managers for open bindings (the group-knowledge backstop).
    admission: Dict = field(default_factory=dict)
    #: bound on each group session's flow-control pending queue
    #: (0 = unbounded, seed behaviour); overflowing sends shed
    flow_max_queue: int = 0

    _FIELDS = (
        "replicas", "style", "ordering", "restricted", "async_forwarding",
        "policy", "liveliness", "suspicion_timeout", "flush_timeout",
        "silence_period", "liveliness_config", "ordering_config", "retry",
        "shards", "min_members_per_shard", "admission", "flow_max_queue",
    )

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("group.replicas must be >= 1")
        if self.shards < 0:
            raise ValueError("group.shards must be >= 0 (0 = unsharded)")
        if self.min_members_per_shard < 1:
            raise ValueError("group.min_members_per_shard must be >= 1")
        if self.replicas < self.shards * self.min_members_per_shard:
            raise ValueError(
                f"group.replicas={self.replicas} cannot provision "
                f"{self.shards} shard(s) of >= {self.min_members_per_shard} "
                f"member(s)"
            )
        _check_choice("group", "style", self.style, BindingStyle.ALL_STYLES)
        _check_choice("group", "ordering", self.ordering, Ordering.ALL)
        _check_choice("group", "policy", self.policy, ReplicationPolicy.ALL_POLICIES)
        _check_choice("group", "liveliness", self.liveliness, Liveliness.ALL)
        if self.flow_max_queue < 0:
            raise ValueError("group.flow_max_queue must be >= 0 (0 = unbounded)")
        self.build_liveliness_config()  # validate eagerly
        self.build_ordering_config()
        self.build_retry_policy()
        self.build_admission_config()

    def build_liveliness_config(self) -> LivelinessConfig:
        """The group's quiescence tuning (empty dict = library defaults)."""
        if not isinstance(self.liveliness_config, dict):
            raise ValueError("group.liveliness_config must be an object")
        try:
            return LivelinessConfig(**self.liveliness_config)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"group.liveliness_config: {exc}") from exc

    def build_ordering_config(self) -> OrderingConfig:
        """Sequencer ticket batching (empty dict = library defaults)."""
        if not isinstance(self.ordering_config, dict):
            raise ValueError("group.ordering_config must be an object")
        try:
            return OrderingConfig(**self.ordering_config)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"group.ordering_config: {exc}") from exc

    def build_group_config(self) -> GroupConfig:
        """The served group's protocol parameters."""
        return GroupConfig(
            ordering=self.ordering,
            liveliness=self.liveliness,
            silence_period=self.silence_period,
            suspicion_timeout=self.suspicion_timeout,
            flush_timeout=self.flush_timeout,
            flow_max_queue=self.flow_max_queue,
            liveliness_config=self.build_liveliness_config(),
            ordering_config=self.build_ordering_config(),
        )

    def bind_options(self) -> Dict[str, Any]:
        """Keyword arguments every client ``bind*()`` of this group shares:
        the binding-level options plus the client/server groups' share of
        the group parameters (order, liveliness regime and timers; the
        silence/flow/tuning fields stay at the library defaults there)."""
        return dict(
            style=self.style,
            restricted=self.restricted,
            retry_policy=self.build_retry_policy(),
            ordering=self.ordering,
            liveliness=self.liveliness,
            suspicion_timeout=self.suspicion_timeout,
            flush_timeout=self.flush_timeout,
        )

    def build_retry_policy(self) -> Optional[RetryPolicy]:
        """Client per-call retry/backoff (empty dict = off, seed behaviour)."""
        if not isinstance(self.retry, dict):
            raise ValueError("group.retry must be an object")
        if not self.retry:
            return None
        try:
            return RetryPolicy.from_dict(self.retry)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"group.retry: {exc}") from exc

    def build_admission_config(self):
        """Admission control policy (empty dict = off, seed behaviour)."""
        from repro.overload import AdmissionConfig

        if not isinstance(self.admission, dict):
            raise ValueError("group.admission must be an object")
        if not self.admission:
            return None
        try:
            return AdmissionConfig.from_dict(self.admission)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"group.admission: {exc}") from exc

    @classmethod
    def from_dict(cls, data: Dict) -> "GroupSpec":
        _check_keys("group", data, cls._FIELDS)
        return cls(**data)

    def to_dict(self) -> Dict:
        return {name: getattr(self, name) for name in self._FIELDS}


@dataclass
class ChurnSpec:
    """Virtual-client population and how it changes over the run."""

    initial: int = 1
    steps: List[Dict] = field(default_factory=list)
    join_rate: float = 0.0
    leave_rate: float = 0.0
    min_clients: int = 0
    max_clients: Optional[int] = None

    _FIELDS = ("initial", "steps", "join_rate", "leave_rate", "min_clients", "max_clients")

    def __post_init__(self):
        if self.initial < 0:
            raise ValueError("churn.initial must be >= 0")
        stochastic = self.join_rate > 0 or self.leave_rate > 0
        if stochastic and self.max_clients is None:
            raise ValueError("churn.max_clients is required with stochastic churn rates")

    @classmethod
    def from_dict(cls, data: Dict) -> "ChurnSpec":
        _check_keys("churn", data, cls._FIELDS)
        return cls(**data)

    def to_dict(self) -> Dict:
        out = {name: getattr(self, name) for name in self._FIELDS}
        if out["max_clients"] is None:
            del out["max_clients"]
        return out


@dataclass
class TrafficSpec:
    """Open-loop traffic: what is offered, for how long, through what."""

    arrivals: Dict = field(default_factory=lambda: {"kind": "poisson", "rate": 1.0})
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    duration: float = 10.0
    drain: float = 30.0
    workload: str = "request_reply"
    operation: str = "draw"
    mode: str = Mode.FIRST
    timeout: float = 15.0
    bindings: int = 2
    max_in_flight: Optional[int] = None
    payload_chars: int = 100
    #: key-popularity model for keyed workloads (KeySampler spec: space,
    #: distribution uniform|zipf, alpha, multi_fraction, multi_size)
    keys: Dict = field(default_factory=dict)
    #: invocation-scheme × reply-scheme cell (seed default = plain binding)
    scheme: str = InvocationScheme.SINGLE
    reply: str = ReplyScheme.RETURN_ONE
    #: reducer name: reply fold for ``reply: combine``, argument fold (the
    #: in-network map/reduce) for the combined schemes
    reducer: str = "sum"
    #: combined-caller cohort size (map_reduce workload)
    callers: int = 4
    #: destination node for ``reply: forward``
    forward_to: Optional[str] = None

    _FIELDS = (
        "arrivals", "churn", "duration", "drain", "workload", "operation",
        "mode", "timeout", "bindings", "max_in_flight", "payload_chars",
        "keys", "scheme", "reply", "reducer", "callers", "forward_to",
    )

    def __post_init__(self):
        arrival_process_from_spec(self.arrivals)  # validate eagerly
        if self.duration <= 0:
            raise ValueError("traffic.duration must be > 0")
        if self.drain < 0:
            raise ValueError("traffic.drain must be >= 0")
        _check_choice("traffic", "workload", self.workload, WORKLOADS)
        _check_choice("traffic", "mode", self.mode, Mode.ALL_MODES)
        if self.timeout <= 0:
            raise ValueError("traffic.timeout must be > 0")
        if self.bindings < 1:
            raise ValueError("traffic.bindings must be >= 1")
        _check_choice("traffic", "scheme", self.scheme, InvocationScheme.ALL_SCHEMES)
        _check_choice("traffic", "reply", self.reply, ReplyScheme.ALL_SCHEMES)
        if self.callers < 2:
            raise ValueError("traffic.callers must be >= 2 (a cohort of one "
                             "is a single invocation)")
        self.build_key_sampler()  # validate eagerly
        # validate the scheme cell eagerly, with the cohort the runner will
        # actually provision (clients are always named c0..cN-1)
        self.build_scheme_config([f"c{i}" for i in range(self.callers)])

    def build_scheme_config(self, cohort: Optional[List[str]] = None):
        """The :class:`~repro.core.scheme.SchemeConfig` this spec selects,
        or ``None`` for the seed-default plain binding cell
        (``single`` × ``return_one``).  A bad cell (unknown reducer,
        ``forward`` without ``forward_to``) fails here — at spec-load time,
        the scenario layer's bind time."""
        from repro.core.scheme import SchemeConfig

        if (
            self.scheme == InvocationScheme.SINGLE
            and self.reply == ReplyScheme.RETURN_ONE
        ):
            return None
        kwargs: Dict = {"invocation": self.scheme, "reply": self.reply}
        if self.reply == ReplyScheme.COMBINE:
            kwargs["reducer"] = self.reducer
        if self.reply == ReplyScheme.FORWARD:
            if not self.forward_to:
                raise ValueError(
                    "traffic.reply 'forward' requires traffic.forward_to"
                )
            kwargs["forward_to"] = self.forward_to
        if self.scheme in InvocationScheme.COMBINED_SCHEMES:
            kwargs["callers"] = cohort
            kwargs["arg_reducer"] = self.reducer
        try:
            return SchemeConfig(**kwargs)
        except Exception as exc:
            raise ValueError(f"traffic scheme cell: {exc}") from exc

    def build_key_sampler(self, rng=None):
        """The keyed-workload sampler (None when no ``keys`` section)."""
        from repro.scenario.traffic import KeySampler

        if not isinstance(self.keys, dict):
            raise ValueError("traffic.keys must be an object")
        if not self.keys and self.workload != "sharded_kvstore":
            return None
        try:
            return KeySampler.from_spec(self.keys, rng=rng)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"traffic.keys: {exc}") from exc

    @classmethod
    def from_dict(cls, data: Dict) -> "TrafficSpec":
        _check_keys("traffic", data, cls._FIELDS)
        data = dict(data)
        if "churn" in data:
            data["churn"] = ChurnSpec.from_dict(data["churn"])
        return cls(**data)

    def to_dict(self) -> Dict:
        out = {name: getattr(self, name) for name in self._FIELDS}
        out["churn"] = self.churn.to_dict()
        if out["max_in_flight"] is None:
            del out["max_in_flight"]
        if out["forward_to"] is None:
            del out["forward_to"]
        return out


@dataclass
class ScenarioSpec:
    """One complete, reproducible scenario."""

    name: str
    description: str = ""
    seed: int = 42
    topology: str = "lan"
    settle: float = 2.0
    group: GroupSpec = field(default_factory=GroupSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    faults: List[FaultEvent] = field(default_factory=list)
    slos: List[Dict] = field(default_factory=list)

    _FIELDS = (
        "name", "description", "seed", "topology", "settle", "group",
        "traffic", "faults", "slos",
    )

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario.name is required")
        _check_choice("scenario", "topology", self.topology, TOPOLOGIES)
        if self.settle < 0:
            raise ValueError("scenario.settle must be >= 0")
        build_slos(self.slos)  # validate eagerly
        if self.traffic.workload == "sharded_kvstore" and self.group.shards < 1:
            raise ValueError(
                "traffic.workload 'sharded_kvstore' requires group.shards >= 1"
            )
        combined = self.traffic.scheme in InvocationScheme.COMBINED_SCHEMES
        if self.traffic.workload == "map_reduce" and not combined:
            raise ValueError(
                "traffic.workload 'map_reduce' requires a combined scheme "
                f"({InvocationScheme.COMBINED_SCHEMES}), got "
                f"{self.traffic.scheme!r}"
            )
        if combined and self.traffic.workload != "map_reduce":
            raise ValueError(
                f"combined scheme {self.traffic.scheme!r} requires "
                "traffic.workload 'map_reduce'"
            )
        if (
            self.traffic.workload in ("peer", "sharded_kvstore")
            and self.traffic.build_scheme_config() is not None
        ):
            raise ValueError(
                f"traffic.workload {self.traffic.workload!r} does not take a "
                "scheme/reply cell"
            )
        for fault in self.faults:
            if fault.at > self.traffic.duration + self.traffic.drain:
                raise ValueError(
                    f"fault at t={fault.at} fires after the run window "
                    f"({self.traffic.duration + self.traffic.drain}s)"
                )

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioSpec":
        _check_keys("scenario", data, cls._FIELDS)
        data = dict(data)
        if "group" in data:
            data["group"] = GroupSpec.from_dict(data["group"])
        if "traffic" in data:
            data["traffic"] = TrafficSpec.from_dict(data["traffic"])
        if "faults" in data:
            data["faults"] = [FaultEvent.from_dict(f) for f in data["faults"]]
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "ScenarioSpec":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "topology": self.topology,
            "settle": self.settle,
            "group": self.group.to_dict(),
            "traffic": self.traffic.to_dict(),
            "faults": [fault.to_dict() for fault in self.faults],
            "slos": list(self.slos),
        }


def load_spec(source) -> ScenarioSpec:
    """Load a spec from a dict or a path to a JSON file."""
    if isinstance(source, ScenarioSpec):
        return source
    if isinstance(source, dict):
        return ScenarioSpec.from_dict(source)
    return ScenarioSpec.from_json(str(source))
