"""Reach audit: every function under ``src/repro`` runs under what CI runs,
or carries its reason in ``REACH_ALLOW_LIST``, or goes.

    python tests/reach.py run OUT -- SCRIPT ARGS...      # or: -- -m MODULE ARGS...
    python tests/reach.py check OUT

``run`` executes its target in this process with a ``sys.monitoring``
``PY_START`` hook (CPython 3.12+) that records each ``module:qualname`` under
``src/repro`` once, appends them to ``OUT`` at exit and keeps the target's
exit code.  ``check`` reads every function definition with ``ast`` and fails
on one that is neither reached, nor exempt (``__repr__``, or a body that is
only a docstring, ``pass``, ``...`` or ``raise NotImplementedError``), nor
allow-listed — and on an allow-list entry that was reached or names no
function, so the list only shrinks.
"""

import ast
import pathlib
import runpy
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: functions no CI command reaches, kept regardless: ``module:qualname`` ->
#: reason.  Tier-1 reaches each one; anything else unreached is deleted.
REACH_ALLOW_LIST = {
    # -- the verify_wire reference codec: test_orb_wire_equivalence reruns five
    # deployments through real bytes, test_orb_marshal checks it against wire_size
    "orb.marshal:encode": "verify_wire codec",
    "orb.marshal:decode": "verify_wire codec",
    "orb.marshal:_encode_into": "verify_wire codec",
    "orb.marshal:_decode_from": "verify_wire codec",
    "orb.marshal:_Reader.__init__": "verify_wire codec",
    "orb.marshal:_Reader.take": "verify_wire codec",
    "orb.marshal:_Reader.u32": "verify_wire codec",
    "orb.orb:ORB._encoded": "verify_wire codec: the ORB's encode-at-send hook",
    "groupcomm.views:GroupView.__eq__": "value equality the codec round-trip tests compare by",
    "orb.ior:IOR.__eq__": "value equality the codec round-trip tests compare by",
    "orb.ior:IOR.__hash__": "the hash that goes with IOR.__eq__",
    "orb.ior:IOGR.__eq__": "value equality the codec round-trip tests compare by",
    # -- failure paths no gate trips yet; safety code that waits on ROADMAP's
    # schedule explorer, each driven by a tier-1 test meanwhile
    "core.client:GroupBinding._break": "failure path: every member a binding knew is gone",
    "core.client:GroupBinding._handle_bind_failure": "failure path: a bind whose lookup or join fails",
    "core.client:GroupBinding._shed_locally": "failure path: the binding's own flow queue overflows",
    "overload.admission:AdmissionController.reset": "failure path: a restart of a member with admission on",
    "core.combined:CombinedBinding._on_timeout": "failure path: a cohort member never contributes",
    "core.group_to_group:GroupToGroupBinding._rebind": "failure path: the server group's manager dies",
    "core.server:ObjectGroupServer._on_join_timeout": "failure path: a join whose contact never answers",
    "recovery.manager:RecoveryManager._force_rejoin_divergent": "failure path: a member stuck in a minority view",
    "groupcomm.channel:ChannelManager._on_reset": "failure path: the ChanReset of a peer that gave up",
    "groupcomm.channel:ChannelManager._skip_to": "failure path: the ChanReset of a peer that gave up",
    "groupcomm.messages:ChanReset.__init__": "failure path: the ChanReset frame",
    "shard.binding:ShardedBinding._remap": "failure path: a shard moved away from every member it knew",
    "scenario.runner:_setup_peer.<locals>.resolve_target":
        "a fault in a peer scenario; neither canned peer scenario has one",
    # -- the GMI I_PERSONAL / R_FORWARD cells (SNIPPETS.md Snippet 1):
    # test_gmi_matrix and the CI sweeps job cover them, bench_gmi does not yet
    "core.client:GroupBinding._scatter": "GMI personalised scatter",
    "core.messages:ScatterArgs.__init__": "GMI personalised scatter",
    "core.messages:ScatterArgs.part_for": "GMI personalised scatter",
    "core.client:_first": "GMI return_one / forward reply shaping",
    "core.client:GroupBinding._forward": "GMI forward reply",
    "core.messages:ForwardedReply.__init__": "GMI forward reply",
    "core.service:NewTopService._on_forwarded": "GMI forward reply",
    "core.service:_ClientSink.deliver_forwarded": "GMI forward reply",
    # -- ORB colocation: a call to a servant on the caller's own node skips the
    # network; no deployment puts a client beside its server
    "orb.orb:ORB._invoke_local": "ORB colocation",
    # -- the deterministic latency fake: every topology draws JitteredLatency
    "net.latency:FixedLatency.__init__": "deterministic test latency",
    # -- teardown: no example, scenario or bench closes these before its end
    "core.combined:CombinedBinding.close": "teardown of a combined binding",
    "shard.binding:ShardedBinding.close": "teardown of a sharded binding",
    "shard.server:ShardedServer.stop": "teardown of a sharded server",
    # -- test probes and drivers: state the tests read or step the kernel by
    "core.client:GroupBinding.group_name": "test probe: the client-server group's name",
    "groupcomm.channel:ChannelManager.has_pending_gaps": "test probe: channel repair",
    "groupcomm.channel:ChannelManager.outstanding_to": "test probe: channel repair",
    "groupcomm.config:GroupConfig.is_total": "test probe: which orderings are total",
    "groupcomm.merger:SharedClockMerger.queued_count": "test probe: the merger's backlog",
    "groupcomm.merger:TicketMerger.queued_count": "test probe: the merger's backlog",
    "groupcomm.service:GroupCommService.session": "test probe: a node's session for a group",
    "groupcomm.session:GroupSession.group_details": "test probe: the paper's groupdetails operation",
    "groupcomm.ticketbatch:TicketBatcher.pending_count": "test probe: tickets held for a batch",
    "net.network:Network.node": "test probe: a node by name",
    "net.network:NetworkStats.snapshot": "test probe: link counters",
    "net.node:Node.utilisation": "test probe: CPU busy fraction",
    "net.topology:Topology.set_default_wan": "lossy-WAN tests set the default link",
    "net.topology:Topology.sites": "tests place nodes on a topology's first site",
    "obs.__main__:_shard_of_flight_group":
        "flight --shard; CI's failing report has no shards, test_obs_always_on filters one",
    "obs.flight:FlightRecorder.__len__": "test probe: events held",
    "obs.flight:FlightRecorder.clear": "test probe: empties the recorder",
    "obs.flight:FlightRecorder.render": "test probe: the live rendering a report's excerpt must match",
    "overload.admission:AdmissionConfig.to_dict": "the from_dict round trip tests assert; specs carry dicts",
    "recovery.policy:RetryPolicy.to_dict": "the from_dict round trip tests assert; specs carry dicts",
    "shard.binding:ShardedBinding.binding": "test probe: one shard's sub-binding",
    "shard.server:ShardedServer.hosted_shards": "test probe: the shards a member serves",
    "shard.server:ShardedServer.shard_server": "test probe: one shard's member",
    "sim.core:Simulator.pending_count": "test probe: live kernel events",
    "sim.process:run_process": "test driver: runs a generator process to its end",
}


def _module(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_constant(stmt):
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def _exempt(node):
    """``__repr__``, or a stub: a body of only a docstring, ``pass``, ``...``
    or ``raise NotImplementedError``."""
    if node.name == "__repr__":
        return True
    body = node.body[1:] if len(node.body) > 1 and _is_constant(node.body[0]) else node.body
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass) or _is_constant(stmt):
        return True
    exc = stmt.exc if isinstance(stmt, ast.Raise) else None
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def functions():
    """``{module:qualname: exempt}`` for every def under ``src/repro``."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{module}:{prefix}{child.name}"
                # a property's getter and setter share one qualname
                found[name] = found.get(name, True) and _exempt(child)
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), _module(path), "")
    return found


def run(out, argv):
    mon, reached = sys.monitoring, set()

    def on_start(code, _offset):
        path = pathlib.Path(code.co_filename).resolve()
        if path.is_relative_to(SRC):
            reached.add(f"{_module(path)}:{code.co_qualname}")
        return mon.DISABLE

    mon.use_tool_id(mon.COVERAGE_ID, "reach")
    mon.register_callback(mon.COVERAGE_ID, mon.events.PY_START, on_start)
    mon.set_events(mon.COVERAGE_ID, mon.events.PY_START)
    code = 0
    try:
        if argv[0] == "-m":
            sys.argv, sys.path[0] = argv[1:], str(pathlib.Path.cwd())
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv, sys.path[0] = argv, str(pathlib.Path(argv[0]).resolve().parent)
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as done:
        code = done.code
    finally:
        mon.set_events(mon.COVERAGE_ID, 0)
        with open(out, "a") as f:
            f.writelines(f"{name}\n" for name in sorted(reached))
    return code


def problems(reached=None):
    """What ``check`` fails on; with ``reached=None`` only the static half:
    allow-list entries that name no function or give no reason."""
    defined = functions()
    bad = [f"allow-listed, but no such function: {name}"
           for name in sorted(REACH_ALLOW_LIST.keys() - defined.keys())]
    bad += [f"allow-listed without a reason: {name}"
            for name, why in sorted(REACH_ALLOW_LIST.items()) if not why.strip()]
    if reached is not None:
        bad += [f"allow-listed, but reached (drop the entry): {name}"
                for name in sorted(REACH_ALLOW_LIST.keys() & reached)]
        bad += [f"never reached by CI (call it, allow-list it with a reason, or delete it): {name}"
                for name, exempt in sorted(defined.items())
                if not exempt and name not in reached and name not in REACH_ALLOW_LIST]
    return bad


def main(argv):
    if len(argv) >= 4 and argv[0] == "run" and argv[2] == "--":
        return run(argv[1], argv[3:])
    if len(argv) == 2 and argv[0] == "check":
        bad = problems(set(pathlib.Path(argv[1]).read_text().split()))
        print("\n".join(bad) or f"reach: ok ({len(REACH_ALLOW_LIST)} allow-listed)")
        return 1 if bad else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
