"""The ``inv.phase.*`` tiling, pinned bit for bit on three deployments.

The phase histograms are fed from stamps several layers take: the ordering
wait where a request is received and released, the servant window where it
runs, the flush wait where a send is held behind a membership change.  These
pins hold each histogram's count, total and buckets as literals, so moving
a stamp to another layer must leave every value where it was.
"""

import pytest

from repro.apps.randserver import RandomNumberServant
from repro.bench.harness import request_reply_deployment
from repro.bench.workloads import ClosedLoopClient, run_until_done
from repro.core import BindingStyle, Mode
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.core.client import PHASE_NAMES

Z = -(10**9)  # the zero bucket


def _drive(env, bindings, mode, requests, join=None):
    workers = [
        ClosedLoopClient(env.sim, binding, operation="draw", mode=mode,
                         requests=requests, warmup=0)
        for binding in bindings
    ]
    if join is not None:
        env.run(0.02)
        join(env)
    run_until_done(env.sim, [w.done for w in workers], deadline=env.sim.now + 60.0)
    metrics = env.sim.obs.metrics
    out = {}
    for name in PHASE_NAMES:
        hist = metrics.histogram(f"inv.phase.{name}")
        out[name] = (hist.count, hist.total, dict(sorted(hist.buckets.items())))
    return out


def closed_lan_wait_for_all():
    env, bindings = request_reply_deployment("lan", 2, style=BindingStyle.CLOSED)
    return _drive(env, bindings, Mode.ALL, 8)


def open_async_forwarding():
    """The request manager executes before its forward is even ordered."""
    env, bindings = request_reply_deployment(
        "lan", 2, style=BindingStyle.OPEN, async_forwarding=True
    )
    return _drive(env, bindings, Mode.FIRST, 8)


def held_behind_a_join_flush():
    """A fourth replica joins mid-traffic: forwarded requests sent while the
    server group flushes for it are held until the new view installs (one
    call's ``flush`` is nonzero in the pin)."""
    env, bindings = request_reply_deployment(
        "lan", 2, style=BindingStyle.OPEN, ordering=Ordering.SYMMETRIC
    )

    def join(env):
        env.add_node("s3", "newcastle").serve(
            "rand",
            RandomNumberServant(),
            config=GroupConfig(
                sequencer_hint="s0", ordering=Ordering.SYMMETRIC,
                liveliness=Liveliness.EVENT_DRIVEN,
                suspicion_timeout=10.0, flush_timeout=5.0,
            ),
        )

    return _drive(env, bindings, Mode.ALL, 20, join=join)


EXPECTED = {
    "closed_lan_wait_for_all": {
        "queue": (16, 0.012973781255651406, {-156: 2, -155: 1, -154: 2, -153: 1, -152: 1, -150: 3, -149: 3, -148: 1, -143: 1, -139: 1}),
        "order": (16, 0.012312789794522772, {Z: 2, -161: 1, -158: 1, -156: 1, -154: 1, -152: 1, -151: 4, -149: 1, -148: 1, -143: 1, -142: 1, -127: 1}),
        "flush": (16, 0.0, {Z: 16}),
        "execute": (16, 0.0024465600000009857, {-212: 9, -193: 2, -173: 4, -159: 1}),
        "reply": (16, 0.007276097741756082, {-170: 2, -169: 1, -168: 1, -167: 1, -166: 2, -165: 2, -164: 1, -163: 1, -162: 2, -161: 1, -152: 1, -151: 1}),
    },
    "open_async_forwarding": {
        "queue": (16, 0.012930689343469304, {-157: 3, -156: 1, -155: 1, -154: 2, -153: 2, -152: 1, -148: 1, -147: 1, -144: 2, -143: 1, -136: 1}),
        "order": (16, 0.0, {Z: 16}),
        "flush": (16, 0.0, {Z: 16}),
        "execute": (16, 0.004779620000000762, {-180: 10, -174: 1, -172: 2, -164: 1, -162: 1, -151: 1}),
        "reply": (16, 0.010413054586270842, {-159: 1, -158: 5, -157: 2, -156: 1, -155: 3, -152: 1, -150: 1, -149: 1, -147: 1}),
    },
    "held_behind_a_join_flush": {
        "queue": (39, 0.08537773727908382, {-136: 1, -135: 9, -134: 4, -129: 1, -127: 1, -126: 16, -125: 1, -123: 1, -120: 1, -116: 1, -115: 1, -114: 1, -109: 1}),
        "order": (39, 0.0663153424118259, {-177: 1, -152: 1, -146: 1, -141: 2, -136: 2, -131: 15, -130: 14, -129: 2, -128: 1}),
        "flush": (39, 0.0010131199999992013, {Z: 38, -144: 1}),
        "execute": (39, 0.0033670400000569423, {-212: 32, -202: 2, -196: 2, -173: 1, -169: 1, -158: 1}),
        "reply": (39, 0.16100169578960033, {-115: 2, -114: 2, -112: 27, -111: 6, -105: 2}),
    },
}


@pytest.mark.parametrize("deployment", sorted(EXPECTED))
def test_phase_histograms_match_their_pins(deployment):
    assert globals()[deployment]() == EXPECTED[deployment]
