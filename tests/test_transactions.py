"""Tests for transactional replicated objects (the ref-[16] extension)."""

import pytest

from repro.apps.transactions import (
    Transaction,
    TransactionClient,
    TransactionalStoreServant,
    TxAborted,
)
from repro.core import BindingStyle, Mode
from repro.sim import run_process, spawn
from tests.core_helpers import AppCluster


# ---------------------------------------------------------------------------
# servant in isolation
# ---------------------------------------------------------------------------
class TestServant:
    def test_versioned_reads(self):
        s = TransactionalStoreServant()
        assert s.get_versioned("x") == (None, 0)
        s.tx_commit({}, {"x": 10})
        assert s.get_versioned("x") == (10, 1)

    def test_commit_validates_versions(self):
        s = TransactionalStoreServant()
        s.tx_commit({}, {"x": 1})
        ok, versions = s.tx_commit({"x": 1}, {"x": 2})
        assert ok and versions == {"x": 2}
        # stale read: expected version 1, actual 2
        ok, versions = s.tx_commit({"x": 1}, {"x": 99})
        assert not ok and versions == {"x": 2}
        assert s.get_versioned("x")[0] == 2
        assert s.commits == 2 and s.aborts == 1

    def test_multi_key_atomicity(self):
        s = TransactionalStoreServant()
        s.tx_commit({}, {"a": 1, "b": 2})
        # conflict on b must leave a untouched as well
        ok, _ = s.tx_commit({"a": 1, "b": 99}, {"a": 10, "b": 20})
        assert not ok
        assert s.get_versioned("a") == (1, 1)
        assert s.get_versioned("b") == (2, 1)

    def test_state_transfer(self):
        s = TransactionalStoreServant()
        s.tx_commit({}, {"a": 1})
        clone = TransactionalStoreServant()
        clone.set_state(s.get_state())
        assert clone.checksum() == s.checksum()
        assert clone.commits == 1


# ---------------------------------------------------------------------------
# transactions over the real replicated stack
# ---------------------------------------------------------------------------
def build_stack(clients=2):
    c = AppCluster(servers=3, clients=clients)
    servers = c.serve_all("bank", TransactionalStoreServant)
    tx_clients = []
    for i in range(clients):
        binding = c.client(i).bind("bank", style=BindingStyle.CLOSED)
        c.run(0.5)
        assert binding.ready.done
        tx_clients.append(TransactionClient(binding))
    return c, servers, tx_clients


def test_commit_applies_at_every_replica():
    c, servers, (client,) = build_stack(clients=1)

    def proc():
        tx = client.begin()
        balance = yield tx.read("alice")
        assert balance is None
        tx.write("alice", 100)
        versions = yield tx.commit(mode=Mode.ALL)
        return versions

    versions = run_process(c.sim, proc(), until=c.sim.now + 5.0)
    assert versions == {"alice": 1}
    c.run(1.0)
    assert all(s.servant.get_versioned("alice") == (100, 1) for s in servers)
    digests = {s.servant.checksum() for s in servers}
    assert len(digests) == 1


def test_stale_read_aborts():
    c, servers, (client,) = build_stack(clients=1)

    def proc():
        tx1 = client.begin()
        yield tx1.read("x")  # version 0
        # another transaction commits first
        tx2 = client.begin()
        tx2.write("x", 5)
        yield tx2.commit()
        tx1.write("x", 9)
        try:
            yield tx1.commit()
        except TxAborted:
            return "aborted"
        return "committed"

    assert run_process(c.sim, proc(), until=c.sim.now + 5.0) == "aborted"
    c.run(1.0)
    assert all(s.servant.get_versioned("x")[0] == 5 for s in servers)


def test_conflicting_clients_exactly_one_wins():
    c, servers, clients = build_stack(clients=2)

    def contender(tx_client, value):
        def proc():
            tx = tx_client.begin()
            yield tx.read("slot")  # both read version 0
            tx.write("slot", value)
            try:
                yield tx.commit(mode=Mode.ALL)
                return ("committed", value)
            except TxAborted:
                return ("aborted", value)
        return proc()

    p0 = spawn(c.sim, contender(clients[0], "first"))
    p1 = spawn(c.sim, contender(clients[1], "second"))
    c.run(5.0)
    outcomes = {p0.result()[0], p1.result()[0]}
    assert outcomes == {"committed", "aborted"}
    # replicas agree on the single winner
    values = {s.servant.get_versioned("slot")[0] for s in servers}
    assert len(values) == 1


def test_abort_discards_local_writes():
    c, servers, (client,) = build_stack(clients=1)
    tx = client.begin()
    tx.write("ghost", 1)
    tx.abort()
    with pytest.raises(TxAborted):
        tx.write("ghost", 2)
    c.run(1.0)
    assert all(s.servant.get_versioned("ghost") == (None, 0) for s in servers)


def test_read_your_own_writes_within_transaction():
    c, servers, (client,) = build_stack(clients=1)

    def proc():
        tx = client.begin()
        tx.write("k", "mine")
        value = yield tx.read("k")
        return value

    assert run_process(c.sim, proc(), until=c.sim.now + 5.0) == "mine"
