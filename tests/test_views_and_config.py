"""Unit tests for views, group configuration, and invocation modes."""

import ast
import dataclasses
import inspect
import pathlib
import textwrap
import re

import pytest

from repro.core.modes import BindingStyle, Mode, ReplicationPolicy, replies_needed
from repro.groupcomm import GroupConfig, Liveliness, LivelinessConfig, Ordering, OrderingConfig
from repro.groupcomm.views import GroupView
from repro.orb.marshal import decode, encode
from repro.overload import AdmissionConfig
from repro.recovery import RetryPolicy


class TestGroupView:
    def test_creation_and_roles(self):
        view = GroupView("g", 3, ["b", "a", "c"])
        assert view.coordinator == "b"  # creation order, not sorted
        assert view.members == ["b", "a", "c"]
        assert len(view) == 3

    def test_requires_members(self):
        with pytest.raises(ValueError):
            GroupView("g", 1, [])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GroupView("g", 1, ["a", "a"])

    def test_equality_and_marshalling(self):
        view = GroupView("g", 2, ["x", "y"])
        assert decode(encode(view)) == view


class TestGroupConfig:
    def test_defaults(self):
        config = GroupConfig()
        assert config.ordering == Ordering.SYMMETRIC
        assert config.liveliness == Liveliness.EVENT_DRIVEN
        assert config.is_total

    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            GroupConfig(ordering="fancy")

    def test_invalid_liveliness(self):
        with pytest.raises(ValueError):
            GroupConfig(liveliness="sometimes")

    @pytest.mark.parametrize("ordering,total", [
        (Ordering.SYMMETRIC, True),
        (Ordering.ASYMMETRIC, True),
        (Ordering.CAUSAL, False),
        (Ordering.FIFO, False),
    ])
    def test_is_total(self, ordering, total):
        assert GroupConfig(ordering=ordering).is_total is total

    def test_marshalling_roundtrip(self):
        config = GroupConfig(
            ordering=Ordering.ASYMMETRIC, sequencer_hint="s1", flush_timeout=0.2
        )
        back = decode(encode(config))
        assert back.ordering == Ordering.ASYMMETRIC
        assert back.sequencer_hint == "s1"
        assert back.flush_timeout == 0.2


class TestModes:
    def test_replies_needed_values(self):
        assert replies_needed(Mode.ONE_WAY, 5) == 0
        assert replies_needed(Mode.FIRST, 5) == 1
        assert replies_needed(Mode.MAJORITY, 5) == 3
        assert replies_needed(Mode.MAJORITY, 4) == 3
        assert replies_needed(Mode.ALL, 5) == 5

    def test_replies_needed_validation(self):
        with pytest.raises(ValueError):
            replies_needed("most", 3)
        with pytest.raises(ValueError):
            replies_needed(Mode.ALL, 0)

    def test_enumerations(self):
        assert set(Mode.ALL_MODES) == {"one_way", "first", "majority", "all"}
        assert set(BindingStyle.ALL_STYLES) == {"closed", "open"}
        assert set(ReplicationPolicy.ALL_POLICIES) == {"active", "passive"}


# ---------------------------------------------------------------------------
# the knob audit, executable
# ---------------------------------------------------------------------------
#: where a deployment that needs a non-default value would show up
KNOB_USERS = (
    "benchmarks", "examples", "src/repro/bench", "src/repro/scenario", "src/repro/apps",
)

#: options no benchmark, scenario, example or app sets to anything but
#: their default, kept regardless.  Each needs its reason; an option that
#: is neither set under KNOB_USERS nor listed here fails the audit and
#: should be deleted instead.
KNOB_ALLOW_LIST = {
    # test_flowcontrol / test_overload reach the window-full path (queueing,
    # drain on stability, shed past flow_max_queue) through windows of 1-4;
    # the default of 64 never fills in a test-sized run.  ROADMAP's
    # paper-fidelity ablation (a peer window of 1) decides whether it earns
    # a second value or becomes a constant
    "GroupConfig.send_window",
    # only ever its default, but the frozen benchmarks/e2e/workloads.py
    # passes it by name
    "RetryPolicy.factor",
}


#: spec surface no canned scenario and no benchmark spec dict sets, kept
#: regardless — same rule: a reason each, anything else unset is deleted
SPEC_ALLOW_LIST = {
    # paper §4.2 and passive replication: gated through repro.bench.harness
    # (graphs 5-10, test_core_invocation), not through a spec
    "group.async_forwarding",
    "group.policy",
    # the reply-scheme matrix's ``forward`` cell, which the CI sweeps job runs
    "traffic.forward_to",
    # the bare half of ``restart`` (power on without rejoining)
    "fault.recover",
}


#: defaulted parameters of public callables that no file under src/,
#: benchmarks/ or examples/ other than the defining one passes by name, kept
#: regardless — with the reason each.  Not listed, by rule: parameters named
#: ``args`` (an operation's argument tuple rides positionally beside the
#: operation name everywhere), ``@corba_struct`` wire structs (built field
#: for field; ``WIRE_PINS`` pins them) and the config classes audited by
#: field above.
SIGNATURE_ALLOW_LIST = {
    # -- passed, but positionally ------------------------------------------
    "bench.workloads:ClosedLoopClient.__init__(binding=)":
        "harness.py passes it positionally; None only beside issue=",
    "groupcomm.flowcontrol:FlowController.__init__(max_queue=)":
        "GroupSession passes config.flow_max_queue positionally",
    "scenario.spec:TrafficSpec.build_scheme_config(cohort=)":
        "the map_reduce setup passes its caller cohort positionally",
    # -- set through a spec dict, not a call ---------------------------------
    "core.scheme:SchemeConfig.__init__(forward_to=)":
        "traffic.forward_to (SPEC_ALLOW_LIST): the CI sweeps job's forward cell",
    # -- a test substitutes a fake or a scratch location ---------------------
    "obs.tracer:Tracer.__init__(clock=)":
        "test_obs drives spans off a hand-stepped clock; Observability.bind sets the real one",
    "scenario.__main__:gate_specs(path=)":
        "test_scenario points the gate at a scratch store, never the committed one",
    "scenario.faults:FaultSchedule.install(resolve_target=)":
        'the runner passes it positionally; tests resolve "manager" to the live binding\'s',
    # -- set by tests only: each drives a path defaults never reach ----------
    "core.scheme:SchemeConfig.__init__(probe=)":
        "a reducer over a non-numeric domain brings its own probe values (test_gmi_matrix)",
    "core.scheme:resolve_reducer(probe=)": "as SchemeConfig(probe=), which passes it on",
    "core.scheme:validate_reducer(probe=)": "as SchemeConfig(probe=), which passes it on",
    "net.topology:LinkSpec.__init__(loss=)":
        "every lossy-link test (channel repair, join under loss, the invariant sweep) sets it",
    "net.topology:Topology.add_site(loss=)": "as LinkSpec(loss=), which it fills",
    "net.topology:Topology.connect(loss=)": "as LinkSpec(loss=), which it fills",
    "net.topology:Topology.set_default_wan(loss=)": "as LinkSpec(loss=), which it fills",
}


def _unpassed_parameters(root):
    """``module:Qualified.name(param=)`` for every defaulted parameter of a
    public function, method or ``__init__`` under ``src/repro`` that no
    *other* file under src/, benchmarks/ or examples/ sets by keyword or
    JSON key.  Definitions are read with ``ast`` (no import); uses are the
    same regex as the field audit."""
    src = root / "src" / "repro"
    texts = _read_all(
        path
        for top in ("src", "benchmarks", "examples")
        for path in sorted((root / top).rglob("*"))
        if path.suffix in (".py", ".json")
    )
    audited_by_field = {
        cls.__name__
        for cls in (GroupConfig, LivelinessConfig, OrderingConfig, AdmissionConfig, RetryPolicy)
    }
    # name -> the files that set it (``name=`` or ``"name":``)
    setters = {}
    for path, text in texts.items():
        for name in set(re.findall(r'\b(\w+)=|"(\w+)":', text)):
            setters.setdefault(name[0] or name[1], set()).add(path)
    unpassed = set()

    def visit(body, module, prefix, here):
        for node in body:
            if isinstance(node, ast.ClassDef):
                wire = any(getattr(d, "id", "") == "corba_struct" for d in node.decorator_list)
                if not (node.name.startswith("_") or wire or node.name in audited_by_field):
                    visit(node.body, module, f"{prefix}{node.name}.", here)
            elif isinstance(node, ast.FunctionDef):
                if node.name.startswith("_") and node.name != "__init__":
                    continue
                spec = node.args
                positional = spec.posonlyargs + spec.args
                defaulted = [a.arg for a in positional[len(positional) - len(spec.defaults):]]
                defaulted += [
                    a.arg for a, d in zip(spec.kwonlyargs, spec.kw_defaults) if d is not None
                ]
                for name in defaulted:
                    if name != "args" and not setters.get(name, set()) - {here}:
                        unpassed.add(f"{module}:{prefix}{node.name}({name}=)")

    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        visit(ast.parse(texts[path]).body, module, "", path)
    return unpassed


def _option_names(cls):
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    return list(cls._fields)


#: JSON's literals, as Python reads them
_JSON_LITERALS = {"true": True, "false": False, "null": None}
#: the value after ``name=`` or ``"name":``, up to the next separator
_VALUE = re.compile(r"\s*([^,)}\]\n]+)")


def _sets_non_default(name, default, corpus):
    """Whether ``corpus`` sets option ``name`` (keyword ``name=`` or JSON
    ``"name":``) to something other than ``default``.  A literal equal to
    the default is no setting; any other expression counts as one."""
    for match in re.finditer(rf'\b{name}=(?!=)|"{name}":', corpus):
        value = _VALUE.match(corpus, match.end())
        token = value.group(1).strip() if value else ""
        if token in _JSON_LITERALS:
            literal = _JSON_LITERALS[token]
        else:
            try:
                literal = ast.literal_eval(token)
            except (ValueError, SyntaxError):
                return True  # not a literal: the value is computed, so it is set
        if literal != default:
            return True
    return False


def _read_all(paths):
    return {path: path.read_text(encoding="utf-8") for path in paths}


def _unnamed_modules(root):
    """Modules of ``src/repro`` that nothing names: neither the dotted path
    nor an ``__all__`` name occurs in a benchmark, an example or another
    module (``__init__`` re-exports do not count as a use)."""
    src = root / "src"
    modules = [
        path for path in sorted((src / "repro").rglob("*.py"))
        if path.name not in ("__init__.py", "__main__.py")
    ]
    users = _read_all(
        [path for top in ("benchmarks", "examples") for path in (root / top).rglob("*.py")]
        + [path for path in (src / "repro").rglob("*.py") if path.name != "__init__.py"]
    )
    unnamed = set()
    for module in modules:
        names = [re.escape(".".join(module.relative_to(src).with_suffix("").parts))]
        exported = re.search(r"__all__\s*=\s*\[(.*?)\]", users[module], re.S)
        if exported:
            names += re.findall(r'"(\w+)"', exported.group(1))
        named = re.compile(rf"\b(?:{'|'.join(names)})\b")
        if not any(named.search(text) for path, text in users.items() if path != module):
            unnamed.add(str(module.relative_to(src)))
    return unnamed


def _unset_spec_surface(root):
    """Kinds, workloads and spec fields that no ``examples/scenarios/*.json``
    and no spec dict under ``benchmarks/`` sets."""
    from repro.scenario.arrivals import _KINDS as ARRIVAL_KINDS
    from repro.scenario.faults import FAULT_KINDS
    from repro.scenario.slo import SLO_KINDS
    from repro.scenario.spec import WORKLOADS, ChurnSpec, GroupSpec, TrafficSpec

    corpus = "\n".join(
        _read_all(
            sorted((root / "examples" / "scenarios").glob("*.json"))
            + sorted((root / "benchmarks").rglob("*.py"))
        ).values()
    )
    surface = {f"arrivals.{kind}": rf'"kind":\s*"{kind}"' for kind in ARRIVAL_KINDS}
    surface.update({f"fault.{kind}": rf'"kind":\s*"{kind}"' for kind in FAULT_KINDS})
    surface.update({f"slo.{kind}": rf'"kind":\s*"{kind}"' for kind in SLO_KINDS})
    surface.update({f"workload.{name}": rf'"workload":\s*"{name}"' for name in WORKLOADS})
    for section, cls in (("group", GroupSpec), ("traffic", TrafficSpec), ("churn", ChurnSpec)):
        for name in cls._FIELDS:
            # a JSON/dict key, or an item assignment into a spec dict
            surface[f"{section}.{name}"] = rf'"{name}":|\["{name}"\]\s*='
    return {what for what, pattern in surface.items() if not re.search(pattern, corpus)}


def test_every_option_is_set_by_a_benchmark_scenario_or_example():
    """A parameter earns its place through a deployment that needs a
    different value: every field of the group, liveliness, ordering,
    admission and retry configs is set (keyword ``name=`` or JSON
    ``"name":``) to a value other than its default somewhere outside
    ``tests/``, or allow-listed with a reason."""
    root = pathlib.Path(__file__).resolve().parent.parent
    corpus = "\n".join(
        path.read_text(encoding="utf-8")
        for top in KNOB_USERS
        for path in sorted((root / top).rglob("*"))
        if path.suffix in (".py", ".json")
    )
    unset = {
        f"{cls.__name__}.{name}"
        for cls in (GroupConfig, LivelinessConfig, OrderingConfig, AdmissionConfig, RetryPolicy)
        for name in _option_names(cls)
        if not _sets_non_default(
            name, inspect.signature(cls).parameters[name].default, corpus
        )
    }
    assert unset == KNOB_ALLOW_LIST, (
        "options nobody outside tests/ sets (delete them, or allow-list them "
        "with a reason), and allow-listed options that are set after all: "
        f"{sorted(unset ^ KNOB_ALLOW_LIST)}"
    )
    # the same rule one level up: modules, and what a scenario spec can say
    assert _unnamed_modules(root) == set(), (
        "modules no benchmark, example or other module names (delete them)"
    )
    unset_surface = _unset_spec_surface(root)
    assert unset_surface == SPEC_ALLOW_LIST, (
        "spec kinds/fields no canned scenario or benchmark spec sets (delete "
        "them, or allow-list them with a reason), and allow-listed ones that "
        f"are set after all: {sorted(unset_surface ^ SPEC_ALLOW_LIST)}"
    )
    # one level down: call signatures
    unpassed = _unpassed_parameters(root)
    assert unpassed == set(SIGNATURE_ALLOW_LIST), (
        "defaulted parameters nobody outside tests/ passes by name (delete "
        "them, or allow-list them with a reason), and allow-listed ones that "
        f"are passed after all: {sorted(unpassed ^ set(SIGNATURE_ALLOW_LIST))}"
    )
    # and no way to configure the library from outside the program's inputs
    reads_environment = [
        str(path.relative_to(root))
        for path in sorted((root / "src").rglob("*.py"))
        if re.search(r"\bos\.environ\b", path.read_text(encoding="utf-8"))
    ]
    assert reads_environment == []


# ---------------------------------------------------------------------------
# the poll audit, executable
# ---------------------------------------------------------------------------
#: timers under src/repro that re-arm themselves, kept regardless.  Each
#: needs its reason: a function that waits for a state change should be told
#: by the event that makes it (a view install, a future), so a re-arming
#: timer is allowed only where no such event exists or a retry bound ends it.
TIMER_ALLOW_LIST = {
    "groupcomm.failuredetector:FailureDetector._tick":
        "the heartbeat: a member silent for its committed interval owes a NULL, "
        "and its own silence sends it no event",
    "groupcomm.failuredetector:FailureDetector._watch_fired":
        "the suspicion watch: silence past a deadline sends no event",
    "groupcomm.channel:ChannelManager._probe":
        "retransmits the oldest unacked frame once it outlives the peer's measured "
        "timeout: a lost frame or ack sends no event; PROBE_MAX bounds it",
    "groupcomm.channel:ChannelManager._nack_timer_fired":
        "re-NACKs a receive gap until it fills, at most NACK_MAX_RETRIES times",
    "groupcomm.session:GroupSession._null_timer_fired":
        "the time-silence NULL: a data send re-arms it only while NULLs are owed",
    "groupcomm.membership:MembershipEngine._flush_timed_out":
        "each timeout drops the non-responders, so the proposed view shrinks to an end",
    "recovery.manager:RecoveryManager._watch":
        "the omniscient harness watcher: convergence is a predicate over every "
        "member, which no single member can announce; MAX_POLLS bounds it",
    "core.client:GroupBinding._lookup_and_bind":
        "registry retries while rebinding, bounded by REBIND (a RetryPolicy)",
    "core.client:GroupBinding._on_call_timer":
        "call retries, bounded by the binding's RetryPolicy",
    "core.server:ObjectGroupServer._enter":
        "entering the group: lookup and join retries, bounded by REJOIN (a RetryPolicy)",
    "shard.binding:ShardedBinding._attempt":
        "remap retries, bounded by REMAP (a RetryPolicy)",
}

#: the kernel calls that arm a timer
_TIMER_CALLS = {"schedule", "schedule_at"}


def _callee(call):
    return getattr(call.func, "attr", getattr(call.func, "id", ""))


def _self_attr(node):
    """``name`` if ``node`` reads ``self.name``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_arming_timers(root):
    """``module:Class.method`` for every method under ``src/repro`` that a
    kernel timer calls and that arms that timer again, in its own body or
    in a method of its class it reaches through ``self.<name>`` references
    (calls, callbacks and closures alike).  A method is a timer when
    ``self.method`` is handed to ``schedule``/``schedule_at``
    (each such call arms it) or to a ``Deadline``, which ``.arm(`` re-arms:
    on ``self.<attr>`` the deadline that attribute holds, on anything else
    every deadline the class builds.  Read with ``ast`` (no import)."""
    src = root / "src" / "repro"
    found = set()
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}

            def own(node):
                return _self_attr(node) in methods

            # each Deadline's callback -> the self attribute holding it (None:
            # held elsewhere, say in a per-peer record)
            held = {
                id(node.value): _self_attr(target)
                for node in ast.walk(cls)
                if isinstance(node, ast.Assign)
                for target in node.targets
            }
            deadlines = {
                arg.attr: held.get(id(call))
                for call in ast.walk(cls)
                if isinstance(call, ast.Call) and _callee(call) == "Deadline"
                for arg in call.args
                if own(arg)
            }
            uses, arms = {}, {}
            for name, fn in methods.items():
                nodes = list(ast.walk(fn))
                calls = [node for node in nodes if isinstance(node, ast.Call)]
                uses[name] = {node.attr for node in nodes if own(node)}
                arms[name] = {
                    arg.attr
                    for call in calls
                    if _callee(call) in _TIMER_CALLS
                    for arg in call.args
                    if own(arg)
                } | {
                    timer
                    for call in calls
                    if _callee(call) == "arm" and isinstance(call.func, ast.Attribute)
                    for timer, attr in deadlines.items()
                    if _self_attr(call.func.value) in (attr, None)
                }
            for timer in set().union(*arms.values()):
                reached, frontier = set(), [timer]
                while frontier:
                    name = frontier.pop()
                    if name not in reached:
                        reached.add(name)
                        frontier.extend(uses[name])
                if any(timer in arms[name] for name in reached):
                    found.add(f"{module}:{cls.name}.{timer}")
    return found


def test_the_poll_audit_sees_a_deadline_its_own_callback_re_arms(tmp_path):
    """A ``Deadline`` whose callback reaches an ``.arm(`` of that deadline is
    a self-arming timer; one re-armed only by other methods, or another
    deadline's arm, is not."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "timers.py").write_text(textwrap.dedent("""
        class Polls:
            def __init__(self, sim):
                self._timer = Deadline(sim, self._check)
                self._other = Deadline(sim, self._pays)
            def _check(self):
                self._again()
            def _again(self):
                self._timer.arm(1.0)
            def _pays(self):
                self._timer.arm(1.0)
        class Peers:
            def __init__(self, sim):
                self._record = Record(Deadline(sim, self._fired))
                self._quiet = Deadline(sim, self._settles)
            def _fired(self):
                record = self._record
                record.timer.arm(1.0)
            def _settles(self):
                self._quiet.due = None
    """))
    assert _self_arming_timers(tmp_path) == {"timers:Polls._check", "timers:Peers._fired"}


def test_no_timer_re_arms_itself_where_an_event_could_tell_it():
    """Waiting on a state change means reacting to the event that makes it:
    a timer that re-arms itself is either allow-listed with its reason or a
    poll to replace with a callback."""
    root = pathlib.Path(__file__).resolve().parent.parent
    timers = _self_arming_timers(root)
    assert timers == set(TIMER_ALLOW_LIST), (
        "timers that re-arm themselves (react to the event instead, or "
        "allow-list them with a reason), and allow-listed ones that no longer "
        f"do: {sorted(timers ^ set(TIMER_ALLOW_LIST))}"
    )


def _stopped_without_a_deadline(root):
    """``path:line`` of every ``.cancel(`` call under ``src/repro`` and every
    ``schedule``/``schedule_at`` call whose result is used (anything but a
    statement of its own).  Read with ``ast`` (no import)."""
    src = root / "src" / "repro"
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                _callee(node) == "cancel"
                or _callee(node) in ("schedule", "schedule_at") and id(node) not in statements
            ):
                found.append(f"{path.relative_to(src)}:{node.lineno}")
    return found


def test_the_one_timer_audit_sees_a_kept_event_and_a_cancel(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "timers.py").write_text(textwrap.dedent("""
        def arm(sim, fn):
            sim.schedule(1.0, fn)
            handle = sim.schedule_at(2.0, fn)
            handle.cancel()
            return lambda: sim.schedule(3.0, fn)
    """))
    assert _stopped_without_a_deadline(tmp_path) == ["timers.py:4", "timers.py:5", "timers.py:6"]


def test_every_timer_that_stops_is_a_deadline():
    """An event, once scheduled, runs: a timer that a reply, an ack or a
    teardown may stop is a ``Deadline`` (disarmed with ``due = None``), so
    nothing under ``src/repro`` keeps what ``schedule``/``schedule_at``
    return or calls ``.cancel(``."""
    root = pathlib.Path(__file__).resolve().parent.parent
    assert _stopped_without_a_deadline(root) == []


# ---------------------------------------------------------------------------
# the reach audit's static half
# ---------------------------------------------------------------------------
def test_every_reach_allow_list_entry_names_a_function_and_gives_its_reason():
    """CI's ``tests/reach.py check`` fails on a function no CI command
    reaches; this half needs no run, so a rename cannot orphan an entry
    unseen until CI."""
    from tests.reach import REACH_ALLOW_LIST, problems

    assert REACH_ALLOW_LIST
    assert problems() == []
