"""The six benchmark workloads: deployments, op streams and correctness checks.

Each workload exists because one layer dominates it and another idles on it
(see README.md).  A workload object lives for one *pass*: ``setup()`` builds
the topology, forms the groups, binds the clients and settles; ``drive()``
is the timed region — it issues every op and runs the simulator until the
last one resolves; ``check()`` runs afterwards, untimed.

All inputs (arrival times, key streams, operation mixes) are generated here
from the seed before the timed region starts; the system under test sees
only the generated calls.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.apps.chat import make_peer_config
from repro.apps.randserver import RandomNumberServant
from repro.apps.sharded_kvstore import ShardKVServant, ShardedKVClient
from repro.bench.env import Environment
from repro.bench.workloads import PeerTracker
from repro.core import BindingStyle, Mode
from repro.errors import Overloaded
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.obs import reconcile_traffic
from repro.overload import AdmissionConfig
from repro.recovery import RecoveryManager, RetryPolicy, convergence_status
from repro.scenario import FaultSchedule
from repro.scenario.traffic import KeySampler
from repro.shard import sharded_convergence_status
from repro.sim import Future

SERVICE = "svc"

#: virtual seconds after the last op resolves before state is compared:
#: lets reply multicasts, state transfers and queued sends finish
GRACE = 2.0


class OpLog:
    """Per-op record of one pass: when due, when resolved, how."""

    def __init__(self, sim, count: int):
        self.sim = sim
        self.due: List[Optional[float]] = [None] * count
        self.end: List[Optional[float]] = [None] * count
        #: "ok" | "shed" | "error"; None = never resolved (lost)
        self.status: List[Optional[str]] = [None] * count
        self.values: List[Any] = [None] * count
        self.gen_lag_max = 0.0
        self.finished = Future(name="bench.ops")
        self._open = count

    def issue(
        self,
        index: int,
        due: float,
        call: Callable[[int], Future],
        then: Optional[Callable[[], None]] = None,
    ) -> None:
        """Fire op ``index``; ``then`` runs once its outcome is recorded."""
        self.due[index] = due
        self.gen_lag_max = max(self.gen_lag_max, self.sim.now - due)

        def resolved(fut: Future) -> None:
            self._resolved(index, fut)
            if then is not None:
                then()

        call(index).add_done_callback(resolved)

    def _resolved(self, index: int, fut: Future) -> None:
        self.end[index] = self.sim.now
        if not fut.failed:
            self.status[index] = "ok"
            self.values[index] = fut.result()
        elif isinstance(fut.exception, Overloaded):
            self.status[index] = "shed"
        else:
            self.status[index] = "error"
        self._open -= 1
        if self._open == 0:
            self.finished.try_resolve(None)

    def count(self, status: Optional[str]) -> int:
        return sum(1 for s in self.status if s == status)


def poisson_arrivals(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Offsets (seconds from traffic start) of a Poisson stream, conditioned
    on its expected count: given the count, Poisson arrival times are sorted
    uniform draws, and fixing it keeps the offered load equal across seeds."""
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


def paced_arrivals(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Evenly spaced offsets with a seeded phase.  Used where one rare event
    (an outage) shapes the tail: how many requests fall due inside it must
    be set by the system's recovery time, not by the arrival draw."""
    gap = 1.0 / rate
    phase = rng.uniform(0.0, gap)
    return [phase + index * gap for index in range(round(rate * duration))]


class Workload:
    """One pass of one workload (see the module docstring for the phases)."""

    name = ""
    why = ""
    config = "lan"
    #: virtual seconds allowed for the tail after the last arrival
    drain = 30.0
    #: replicas every op must execute on (wait-for-all exactly-once check)
    exec_per_op: Optional[int] = None
    #: event-driven and fault-free, so every queued send drains and
    #: per-kind gc sends must equal network hops
    reconciles = True
    #: sheds are a designed outcome only under overload
    sheds_allowed = False
    #: how the default ``call`` invokes: reply mode and per-call timeout
    mode = Mode.FIRST
    timeout = 15.0

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.rng = random.Random(f"{self.name}:{seed}")
        self.env: Optional[Environment] = None
        self.log: Optional[OpLog] = None
        self.t0 = 0.0

    # -- phases --------------------------------------------------------
    def setup(self) -> None:
        self.env = Environment(self.config, seed=self.seed)
        self.deploy()

    def deploy(self) -> None:
        """Form the groups, bind the clients, generate the op stream."""
        raise NotImplementedError

    def drive(self) -> OpLog:
        """Open loop over ``self.arrivals`` unless a workload overrides it."""
        return self._drive_open(self.arrivals)

    def call(self, index: int) -> Future:
        """Op ``index``: one ``draw`` through the bindings, round-robin."""
        binding = self.bindings[index % len(self.bindings)]
        return binding.invoke("draw", (), mode=self.mode, timeout=self.timeout)

    def check(self) -> List[str]:
        """Failed correctness checks (empty = all passed)."""
        log, failures = self.log, []
        lost = log.count(None)
        errors = log.count("error")
        shed = log.count("shed")
        if lost:
            failures.append(f"{lost} ops never resolved")
        if errors:
            failures.append(f"{errors} ops failed with an error or timeout")
        if shed and not self.sheds_allowed:
            failures.append(f"{shed} ops shed on a workload below capacity")
        if log.gen_lag_max > 1e-9:
            failures.append(f"generator ran {log.gen_lag_max * 1e3:.6f} ms late")
        self.env.run(GRACE)
        failures.extend(self.check_state())
        if self.reconciles:
            snapshot = self.env.sim.obs.metrics_snapshot()
            for kind, (sent, hops) in sorted(reconcile_traffic(snapshot).items()):
                if sent != hops:
                    failures.append(f"traffic kind {kind}: gc sent {sent}, net hops {hops}")
        return failures

    def check_state(self) -> List[str]:
        status = convergence_status(self.env.services, SERVICE, self.env.net)
        return [] if status["converged"] else [f"replicas diverge: {status['detail']}"]

    # -- helpers -------------------------------------------------------
    def _size(self, full, quick):
        return quick if self.quick else full

    def _begin(self, count: int) -> OpLog:
        self.t0 = self.env.sim.now
        self.log = OpLog(self.env.sim, count)
        return self.log

    def _run(self, horizon: float) -> OpLog:
        """Run until the last op resolves, in slices short enough that the
        timed window ends within a few events of that moment.  If the queue
        drains or the deadline passes first, the clock lands on the deadline
        and the unresolved ops fail check() as lost."""
        sim, finished = self.env.sim, self.log.finished
        deadline = self.t0 + horizon + self.drain
        while not finished.done and sim.now < deadline:
            sim.run(until=deadline, max_events=16)
        return self.log

    def _drive_open(self, arrivals: Sequence[float]) -> OpLog:
        """Open loop: every op fires at its due time, whatever is in flight."""
        log, sim = self._begin(len(arrivals)), self.env.sim
        for index, offset in enumerate(arrivals):
            due = self.t0 + offset
            sim.schedule_at(due, log.issue, index, due, self.call)
        return self._run(arrivals[-1])

    def _drive_closed(self, chains: int, per_chain: int, window: int) -> OpLog:
        """Closed loop: op ``i`` belongs to chain ``i % chains``; each chain
        keeps ``window`` ops outstanding and issues its next op the moment
        one resolves."""
        total = chains * per_chain
        log, sim = self._begin(total), self.env.sim

        def issue_next(pending: List[int]) -> None:
            if pending:
                log.issue(pending.pop(), sim.now, self.call, lambda: issue_next(pending))

        for chain in range(chains):
            pending = list(range(chain, total, chains))[::-1]
            for _ in range(window):
                issue_next(pending)
        return self._run(0.0)

    def _serve_replicas(self, count: int, config: GroupConfig, **kwargs):
        return self.env.serve_replicas(
            SERVICE, RandomNumberServant, count, config=config, **kwargs
        )

    def _bind_clients(self, count: int, settle: float, **kwargs) -> List:
        bindings = []
        for service in self.env.add_clients(count):
            bindings.append(service.bind(SERVICE, **kwargs))
            self.env.run(0.05)
        self.env.settle(settle)
        for binding in bindings:
            if not binding.ready.done:
                raise RuntimeError(f"binding failed to become ready: {binding!r}")
        return bindings


# timers wide enough that queueing under load is never mistaken for a crash
STEADY = dict(suspicion_timeout=10.0, flush_timeout=5.0)


class LanClosedAll(Workload):
    name = "lan_closed_all"
    why = (
        "closed loop that saturates the sequencer CPU on a LAN: ordering, "
        "session, channel and marshalling do the work, net delay is negligible"
    )
    exec_per_op = 3
    mode = Mode.ALL
    timeout = 30.0
    clients = 8

    def deploy(self) -> None:
        self._serve_replicas(
            3,
            GroupConfig(ordering=Ordering.ASYMMETRIC, sequencer_hint="s0", **STEADY),
        )
        self.bindings = self._bind_clients(
            self.clients,
            1.5,
            style=BindingStyle.CLOSED,
            ordering=Ordering.ASYMMETRIC,
            **STEADY,
        )

    def drive(self) -> OpLog:
        return self._drive_closed(self.clients, self._size(150, 15), window=1)

    def check_state(self) -> List[str]:
        failures = super().check_state()
        for index, result in enumerate(self.log.values):
            if result is not None and len(set(result.values())) != 1:
                failures.append(f"op {index}: replicas returned {result.values()}")
                break
        return failures


class WanOpenFirst(Workload):
    name = "wan_open_first"
    why = (
        "open loop far below capacity across the paper's WAN: latency is one "
        "wide-area round trip and CPUs idle, so ordering/marshal changes must "
        "show no virtual change here"
    )
    config = "wan"

    def deploy(self) -> None:
        self._serve_replicas(
            3,
            GroupConfig(ordering=Ordering.ASYMMETRIC, sequencer_hint="s0", **STEADY),
            async_forwarding=True,
        )
        # 12 virtual clients at 12.5/s each, multiplexed over one attachment
        # binding per site: their superposition is one 150/s Poisson stream
        self.bindings = self._bind_clients(
            3, 1.5, style=BindingStyle.OPEN, restricted=True, **STEADY
        )
        self.arrivals = poisson_arrivals(self.rng, 150.0, self._size(10.0, 1.0))


class PeerSymMcast(Workload):
    name = "peer_sym_mcast"
    why = (
        "lively symmetric-order peer group multicasting flat out: groupcomm "
        "with no invocation layer, no request/reply and no sequencer, so a "
        "ticket-path gain that taxes timestamp ordering shows here"
    )
    reconciles = False  # lively: heartbeats are always mid-flight at the stop
    members = 6
    window = 8

    def deploy(self) -> None:
        services = self.env.add_peers(self.members)
        self.sessions = [
            services[0].create_peer_group("conf", make_peer_config(Ordering.SYMMETRIC))
        ]
        for service in services[1:]:
            self.sessions.append(service.join_peer_group("conf", services[0].name))
            self.env.run(0.2)
        self.env.settle(1.0)
        self.tracker = PeerTracker([s.member_id for s in self.sessions])
        self.delivered: Dict[str, List[str]] = {}
        for session in self.sessions:
            if not session.joined.done:
                raise RuntimeError(f"peer failed to join: {session!r}")
            self._wire(session)

    def _wire(self, session) -> None:
        member = session.member_id
        sequence = self.delivered[member] = []

        def on_deliver(_sender: str, payload) -> None:
            tag = payload.split(".", 1)[0]
            sequence.append(tag)
            self.tracker.delivered(member, tag)

        session.on_deliver = on_deliver

    def drive(self) -> OpLog:
        return self._drive_closed(self.members, self._size(200, 20), self.window)

    def call(self, index: int) -> Future:
        session = self.sessions[index % self.members]
        tag = f"{session.member_id}:{index}"
        everywhere = self.tracker.expect(tag)
        session.send(tag.ljust(100, "."))
        return everywhere

    def check_state(self) -> List[str]:
        failures = []
        views = {tuple(sorted(s.view.members)) for s in self.sessions}
        if len(views) != 1 or len(next(iter(views))) != self.members:
            failures.append(f"peer views diverge: {sorted(views)}")
        sequences = list(self.delivered.values())
        if any(seq != sequences[0] for seq in sequences[1:]):
            failures.append("peer members delivered different sequences")
        if len(sequences[0]) != len(self.log.status):
            failures.append(
                f"{len(sequences[0])} deliveries for {len(self.log.status)} multicasts"
            )
        return failures


class ShardKvMixed(Workload):
    name = "shard_kv_mixed"
    why = (
        "reads beside writes through key routing and four independent "
        "sequencers, with 4-key scatter/gather: the only workload where "
        "the shard layer does any work"
    )
    shards = 4

    def deploy(self) -> None:
        config = GroupConfig(ordering=Ordering.ASYMMETRIC, sequencer_hint="s0", **STEADY)
        servers = []
        for service in self.env.add_servers(8):
            servers.append(
                service.serve_sharded(
                    SERVICE,
                    ShardKVServant,
                    self.shards,
                    min_members_per_shard=2,
                    config=config,
                )
            )
            self.env.run(0.25)
        self.env.settle(1.0)
        for server in servers:
            if not (server.ready.done and server.provisioned):
                raise RuntimeError(f"sharded replica failed to start: {server!r}")
        self.clients = []
        for service in self.env.add_clients(4):
            binding = service.bind_sharded(
                SERVICE, self.shards, style=BindingStyle.OPEN, restricted=True, **STEADY
            )
            self.clients.append(ShardedKVClient(binding, mode=Mode.FIRST, timeout=15.0))
            self.env.run(0.05)
        self.env.settle(0.5)
        for client in self.clients:
            if not client.ready.done:
                raise RuntimeError(f"sharded binding not ready: {client.binding!r}")
        self.arrivals = poisson_arrivals(self.rng, 800.0, self._size(1.5, 0.2))
        self.ops = self._make_ops(len(self.arrivals))

    def _make_ops(self, count: int) -> List[tuple]:
        """45% put / 45% get / 10% 4-key mget over Zipf(1.0) keys."""
        keys = KeySampler(
            space=256, distribution="zipf", alpha=1.0, multi_size=4, rng=self.rng
        )
        ops = []
        for index in range(count):
            roll = self.rng.random()
            if roll < 0.45:
                ops.append(("put", keys.key(), index))
            elif roll < 0.90:
                ops.append(("get", keys.key()))
            else:
                ops.append(("mget", keys.batch()))
        return ops

    def call(self, index: int) -> Future:
        client = self.clients[index % len(self.clients)]
        op = self.ops[index]
        if op[0] == "put":
            return client.put(op[1], op[2])
        if op[0] == "get":
            return client.get(op[1])
        return client.mget(op[1])

    def check_state(self) -> List[str]:
        status = sharded_convergence_status(self.env.services, SERVICE, self.env.net)
        failures = [] if status["converged"] else [f"shards diverge: {status['detail']}"]
        # a read may return only a value that a put issued before the read
        # resolved wrote to that key (or nothing, before the first put);
        # puts carry their own op index as the value
        log, ops = self.log, self.ops
        for index, op in enumerate(ops):
            if op[0] == "put" or log.status[index] != "ok":
                continue
            value = log.values[index]
            seen = {op[1]: value} if op[0] == "get" else value
            for key, got in seen.items():
                if got is None:
                    continue
                written = (
                    isinstance(got, int)
                    and 0 <= got < len(ops)
                    and ops[got][:2] == ("put", key)
                    and log.due[got] < log.end[index]
                )
                if not written:
                    failures.append(f"op {index}: read {key}={got!r}, never written before")
                    return failures
        return failures


class LanFailover(Workload):
    name = "lan_failover"
    why = (
        "requests keep arriving on schedule while the request manager is "
        "crashed and later restarted: membership, failure detection, "
        "rebinding and recovery do work here and nowhere else"
    )
    reconciles = False  # lively, and the crashed node's queued sends vanish
    drain = 40.0
    timeout = 2.0

    def deploy(self) -> None:
        timers = dict(suspicion_timeout=0.1, flush_timeout=1.0)
        self._serve_replicas(
            3,
            GroupConfig(
                ordering=Ordering.ASYMMETRIC,
                liveliness=Liveliness.LIVELY,
                silence_period=0.02,
                sequencer_hint="s0",
                **timers,
            ),
        )
        self.bindings = self._bind_clients(
            2,
            1.0,
            style=BindingStyle.OPEN,
            restricted=True,
            liveliness=Liveliness.LIVELY,
            retry_policy=RetryPolicy(
                max_attempts=6, base_delay=0.2, factor=2.0, max_delay=1.5
            ),
            **timers,
        )
        self.recovery = RecoveryManager(
            self.env.sim, self.env.net, self.env.services, SERVICE
        )
        scale = self._size(1.0, 0.2)
        self.arrivals = paced_arrivals(self.rng, 200.0, 6.0 * scale)
        victim = self.bindings[0].manager
        self.faults = FaultSchedule.from_specs(
            [
                {"at": 2.0 * scale, "kind": "crash", "target": victim},
                {"at": 4.0 * scale, "kind": "restart", "target": victim},
            ]
        )

    def drive(self) -> OpLog:
        self.faults.install(self.env.sim, self.env.net, recovery=self.recovery)
        return super().drive()


class LanOverload2x(Workload):
    name = "lan_overload_2x"
    why = (
        "open loop at twice the group's capacity with admission control: "
        "goodput past the knee, shed ratio and admitted-call tail latency"
    )
    sheds_allowed = True
    exec_per_op = 3
    mode = Mode.ALL

    def deploy(self) -> None:
        admission = AdmissionConfig(max_inflight=12)
        self._serve_replicas(
            3,
            GroupConfig(
                ordering=Ordering.ASYMMETRIC,
                sequencer_hint="s0",
                flow_max_queue=256,
                **STEADY,
            ),
            # the manager serves every binding at once, so it keeps only the
            # group-knowledge signals (pushback) behind the per-binding bound
            admission=AdmissionConfig(max_inflight=0),
        )
        self.bindings = self._bind_clients(
            2, 1.0, style=BindingStyle.OPEN, restricted=True, admission=admission, **STEADY
        )
        self.arrivals = poisson_arrivals(self.rng, 1000.0, self._size(2.5, 0.3))


WORKLOADS = {
    cls.name: cls
    for cls in (
        LanClosedAll,
        WanOpenFirst,
        PeerSymMcast,
        ShardKvMixed,
        LanFailover,
        LanOverload2x,
    )
}
