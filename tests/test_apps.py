"""Tests for the application servants and peer-group applications."""

import pytest

from repro.apps import (
    ChatMember,
    KVStoreServant,
    RandomNumberServant,
    WhiteboardMember,
    make_peer_config,
)
from repro.groupcomm import Liveliness, Ordering
from tests.conftest import Cluster


# ---------------------------------------------------------------------------
# servants in isolation
# ---------------------------------------------------------------------------
class TestRandomNumberServant:
    def test_deterministic_across_instances(self):
        a, b = RandomNumberServant(), RandomNumberServant()
        assert [a.draw() for _ in range(10)] == [b.draw() for _ in range(10)]

    def test_state_transfer_resynchronises(self):
        a = RandomNumberServant()
        for _ in range(7):
            a.draw()
        late = RandomNumberServant()
        late.set_state(a.get_state())
        assert late.draw() == a.draw()


class TestKVStoreServant:
    def test_put_get(self):
        kv = KVStoreServant()
        assert kv.put("k", "v") == 1
        assert kv.get("k") == "v"
        assert kv.put("k", "v2") == 2
        assert kv.get("k") == "v2"
        with pytest.raises(KeyError):
            kv.get("missing")
        assert kv.get_or("missing", "fallback") == "fallback"

    def test_keys_and_size(self):
        kv = KVStoreServant()
        kv.put("b", 1)
        kv.put("a", 2)
        assert kv.keys() == ["a", "b"]
        assert kv.size() == 2

    def test_state_transfer_and_checksum(self):
        kv = KVStoreServant()
        kv.put("a", 1)
        kv.put("b", [1, 2])
        clone = KVStoreServant()
        clone.set_state(kv.get_state())
        assert clone.checksum() == kv.checksum()
        assert clone.writes == kv.writes
        clone.put("c", 3)
        assert clone.checksum() != kv.checksum()


# ---------------------------------------------------------------------------
# peer applications over real group communication
# ---------------------------------------------------------------------------
def build_peer_group(cluster, config, count):
    sessions = [cluster.service(0).create_group("app", config)]
    for i in range(1, count):
        sessions.append(cluster.service(i).join_group("app", cluster.names[0]))
    cluster.run(1.0)
    return sessions


def test_make_peer_config_is_lively_symmetric():
    config = make_peer_config()
    assert config.liveliness == Liveliness.LIVELY
    assert config.ordering == Ordering.SYMMETRIC


def test_chat_transcripts_identical_everywhere():
    c = Cluster(4)
    sessions = build_peer_group(c, make_peer_config(), 4)
    members = [ChatMember(s, nickname=f"user{i}") for i, s in enumerate(sessions)]
    members[0].say("hello")
    members[2].say("hi there")
    c.run(0.2)
    members[1].say("how is the demo going?")
    members[3].say("smoothly")
    c.run(2.0)
    transcripts = [tuple(m.lines) for m in members]
    assert len(transcripts[0]) == 4
    assert all(t == transcripts[0] for t in transcripts)


def test_chat_callback_fires():
    c = Cluster(2)
    sessions = build_peer_group(c, make_peer_config(), 2)
    member = ChatMember(sessions[1])
    heard = []
    member.on_message = lambda sender, text: heard.append(text)
    ChatMember(sessions[0], nickname="alice").say("ping")
    c.run(1.0)
    assert heard and "ping" in heard[0]


def test_whiteboards_converge_under_concurrent_drawing():
    c = Cluster(3)
    sessions = build_peer_group(c, make_peer_config(), 3)
    boards = [WhiteboardMember(s) for s in sessions]
    boards[0].draw([(0, 0), (1, 1)], colour="red")
    boards[1].draw([(2, 2), (3, 3)], colour="blue")
    boards[2].draw([(4, 4), (5, 5)], colour="green")
    c.run(2.0)
    assert all(len(b) == 3 for b in boards)
    digests = {b.digest() for b in boards}
    assert len(digests) == 1


def test_whiteboard_erase():
    c = Cluster(2)
    sessions = build_peer_group(c, make_peer_config(), 2)
    boards = [WhiteboardMember(s) for s in sessions]
    stroke = boards[0].draw([(0, 0), (1, 1)])
    c.run(1.0)
    boards[1].erase(stroke)
    c.run(1.0)
    assert all(len(b) == 0 for b in boards)
    boards[0].draw([(9, 9), (8, 8)])
    c.run(1.0)
    assert all(len(b) == 1 for b in boards)
    digests = {b.digest() for b in boards}
    assert len(digests) == 1
