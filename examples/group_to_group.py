"""Group-to-group invocation (§4.3): a replicated client group invokes a
replicated server group through one request manager and a client monitor
group.

Scenario: a replicated *pricing* front-end (group gx of two members, kept
consistent by peer multicasts) needs quotes from a replicated *inventory*
service (group gy of three members).  Each gx member issues its copy of the
call; the request manager filters the duplicates, forwards one into gy,
and multicasts the reply set in the monitor group gz so both gx members
receive the replies atomically.

Run:  python examples/group_to_group.py
"""

from repro.apps import KVStoreServant
from repro.core import Mode, NewTopService
from repro.net import Network, Topology
from repro.orb import NameServer, ORB
from repro.sim import Simulator, all_of, spawn


def main():
    sim = Simulator(seed=21)
    net = Network(sim, Topology.single_lan("dc"))
    registry_orb = ORB(net.new_node("registry", "dc"))
    ns = registry_orb.register(NameServer(), object_id="NameService")

    def newtop(name):
        return NewTopService(ORB(net.new_node(name, "dc")), name_server=ns)

    # --- server group gy: replicated inventory ---------------------------
    inventory_servers = []
    for i in range(3):
        service = newtop(f"inv{i}")
        inventory_servers.append(service.serve("inventory", KVStoreServant()))
        sim.run(until=sim.now + 0.3)
    sim.run(until=sim.now + 0.5)
    print("inventory group gy:", inventory_servers[0].members)

    # --- client group gx: two pricing front-ends -------------------------
    pricing = {name: newtop(name) for name in ("price0", "price1")}
    gx = pricing["price0"].gcs.create_group("gx")
    pricing["price1"].gcs.join_group("gx", "price0")
    sim.run(until=sim.now + 1.0)
    print("pricing group gx:", gx.members)

    # --- the gz monitor group binds gx to gy ------------------------------
    bindings = {
        name: service.bind_group_to_group("gx", ["price0", "price1"], "inventory")
        for name, service in pricing.items()
    }
    sim.run(until=sim.now + 1.0)
    assert all(b.ready.done for b in bindings.values())
    print("monitor group gz manager:", bindings["price0"].manager)

    def scenario():
        # every gx member issues the same calls, in the same order
        futures = [
            bindings["price0"].invoke("put", ("widget", 41), mode=Mode.ALL),
            bindings["price1"].invoke("put", ("widget", 41), mode=Mode.ALL),
        ]
        yield all_of(futures)
        futures = [  # a g2g call takes bind()'s timeout: a lost manager fails it
            bindings["price0"].invoke("get", ("widget",), mode=Mode.ALL, timeout=2.0),
            bindings["price1"].invoke("get", ("widget",), mode=Mode.ALL, timeout=2.0),
        ]
        results = yield all_of(futures)
        return results

    proc = spawn(sim, scenario())
    sim.run(until=sim.now + 5.0)
    assert proc.done
    r0, r1 = proc.result()
    print(f"price0 received {len(r0)} replies: widget = {r0.value}")
    print(f"price1 received {len(r1)} replies: widget = {r1.value}")
    assert r0.value == r1.value == 41

    # the manager filtered duplicate copies: each call executed once
    writes = [s.servant.writes for s in inventory_servers]
    print("write counts at gy replicas:", writes, "(duplicates filtered)")
    assert writes == [1, 1, 1]
    print("\ngroup-to-group demo complete at simulated t=%.3fs" % sim.now)


if __name__ == "__main__":
    main()
