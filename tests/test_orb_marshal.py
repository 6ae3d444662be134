"""Tests for the CDR-style wire codec."""

import pytest
from hypothesis import given, strategies as st

import repro.orb.orb as orb_module
from repro.bench.profiling import count_calls
from repro.groupcomm import GroupConfig
from repro.groupcomm.messages import ChanAck, ChanData, DataMsg, TicketBatchMsg, TicketMsg
from repro.orb import GIOP_OVERHEAD, ORB, marshal
from repro.orb.ior import IOGR, IOR
from repro.orb.marshal import MarshalError, corba_struct, decode, encode, wire_size
from tests.conftest import Cluster, Collector
from tests.test_groupcomm_basic import build_group
from tests.test_orb import Echo, setup_pair


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        2**40,
        -(2**40),
        3.14159,
        "",
        "hello",
        "ünïcødé ✓",
        b"",
        b"\x00\xff raw",
        [],
        [1, 2, 3],
        (1, "two", 3.0),
        {"a": 1, "b": [True, None]},
        [[1, [2, [3]]]],
        {"nested": {"deep": (None, b"x")}},
    ],
)
def test_roundtrip(value):
    assert decode(encode(value)) == value


def test_tuple_and_list_are_distinguished():
    assert decode(encode((1, 2))) == (1, 2)
    assert isinstance(decode(encode((1, 2))), tuple)
    assert isinstance(decode(encode([1, 2])), list)


def test_wire_size_matches_encoding():
    value = {"key": [1, 2, 3], "s": "hello"}
    assert wire_size(value) == len(encode(value))


def test_strings_cost_their_utf8_length():
    short = wire_size("a" * 10)
    long = wire_size("a" * 1000)
    assert long - short == 990


def test_unencodable_value_raises():
    with pytest.raises(MarshalError):
        encode(object())


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, [1, {"k": (2**64,)}]])
def test_int_outside_signed_64_bit_is_rejected_by_size_and_codec(value):
    # wire_size is the only check a value passes before crossing the
    # simulated wire: it must refuse whatever encode cannot put there
    with pytest.raises(MarshalError):
        wire_size(value)
    with pytest.raises(MarshalError):
        encode(value)


@pytest.mark.parametrize("value", [2**63 - 1, -(2**63)])
def test_signed_64_bit_limits_travel(value):
    assert wire_size(value) == len(encode(value)) == 9
    assert decode(encode(value)) == value


def test_unencodable_value_is_rejected_by_size_at_any_depth():
    with pytest.raises(MarshalError):
        wire_size({"k": [1, (object(),)]})


def test_truncated_stream_raises():
    data = encode("hello world")
    with pytest.raises(MarshalError):
        decode(data[:-3])


def test_trailing_bytes_raise():
    with pytest.raises(MarshalError):
        decode(encode(1) + b"junk")


def test_unknown_tag_raises():
    with pytest.raises(MarshalError):
        decode(b"Z")


def test_struct_roundtrip_creates_fresh_object():
    @corba_struct
    class Point:
        __slots__ = ("x", "y")
        _fields = ("x", "y")

        def __init__(self, x, y):
            self.x = x
            self.y = y

    p = Point(1, 2.5)
    q = decode(encode(p))
    assert isinstance(q, Point)
    assert (q.x, q.y) == (1, 2.5)
    assert q is not p


def test_struct_isolation_no_shared_state():
    @corba_struct
    class Box:
        __slots__ = ("items",)
        _fields = ("items",)

        def __init__(self, items):
            self.items = items

    b = Box([1, 2])
    c = decode(encode(b))
    c.items.append(3)
    assert b.items == [1, 2]


def test_struct_without_fields_rejected():
    with pytest.raises(MarshalError):

        @corba_struct
        class Bad:
            pass


def test_duplicate_struct_name_rejected():
    @corba_struct
    class Unique1:
        __slots__ = ("a",)
        _fields = ("a",)

        def __init__(self, a):
            self.a = a

    with pytest.raises(MarshalError):
        # different class object, same name
        cls = type("Unique1", (), {"__slots__": ("a",), "_fields": ("a",)})
        corba_struct(cls)


def test_ior_and_iogr_are_marshallable():
    ior = IOR("node1", "RootPOA", "obj-1")
    assert decode(encode(ior)) == ior
    iogr = IOGR([ior, IOR("node2", "RootPOA", "obj-2")], primary=1)
    back = decode(encode(iogr))
    assert back == iogr
    assert back.primary_ref.node == "node2"


# ---------------------------------------------------------------------------
# sized once: the memo on DataMsg / TicketMsg / TicketBatchMsg
# ---------------------------------------------------------------------------
def data_msg(payload, **fields):
    return DataMsg("g", "n0", 1, 7, 42, "data", payload, None, None, {"n1": 3}, **fields)


@pytest.mark.parametrize("fanout", [2, 4, 6])
def test_a_multicast_walks_its_message_once_whatever_the_fanout(monkeypatch, fanout):
    c = Cluster(fanout + 1)
    sessions = build_group(c, GroupConfig())
    collectors = [Collector(session) for session in sessions]
    header_len, fields_of, memo = marshal._STRUCT_SIZERS[DataMsg]
    walked = []  # holds the messages, so no id is ever reused

    def counting_fields_of(message):
        walked.append(message)
        return fields_of(message)

    monkeypatch.setitem(marshal._STRUCT_SIZERS, DataMsg, (header_len, counting_fields_of, memo))
    hops = c.sim.obs.metrics.counter("net.hops.data")
    before = hops.value
    sessions[0].send("sized once")
    c.run(1.0)
    assert all(col.payloads == ["sized once"] for col in collectors)
    assert hops.value - before == fanout  # one ORB hop per other member ...
    ours = [m for m in walked if m.payload == "sized once"]
    assert len(ours) == 1  # ... and one field walk for all of them
    assert len({id(m) for m in walked}) == len(walked)  # NULLs and the rest: once each too
    assert ours[0]._wire_size == len(encode(ours[0]))


def test_verify_wire_catches_a_message_mutated_after_it_was_sized(monkeypatch):
    """The memo rests on "a message belongs to the wire once sent"; the
    reference path is how a broken contract shows: the remembered size no
    longer matches what encode produces."""
    monkeypatch.setattr(ORB, "verify_wire", True)
    sim, _net, client, server = setup_pair()
    target = server.register(Echo())
    message = data_msg("short")
    client.invoke(target, "fire_and_forget", (message,), oneway=True)
    message.payload = "no longer the payload that was sized"
    with pytest.raises(MarshalError, match=r"wire_size says \d+ bytes, encode produced \d+"):
        client.invoke(target, "fire_and_forget", (message,), oneway=True)
    sim.run()
    assert sim.obs.metrics.counter_value("net.sent") == 1


# ---------------------------------------------------------------------------
# a hop is sized from parts sized once: request header, identifiers
# ---------------------------------------------------------------------------
class Polyglot(Echo):
    def écho(self, value):
        return value


def handed_to_the_network(monkeypatch, orb):
    """Every ``(message, size)`` ``orb``'s node is asked to send."""
    sent = []
    send = orb.node.send

    def recording_send(dst, service, payload, size, kind=None):
        sent.append((payload, size))
        send(dst, service, payload, size, kind=kind)

    monkeypatch.setattr(orb.node, "send", recording_send)
    return sent


@pytest.mark.parametrize("cap", [None, 2])
def test_a_hop_is_sized_exactly_from_its_memoised_parts(monkeypatch, cap):
    if cap is not None:  # a memo that is full after two strings
        monkeypatch.setattr(orb_module, "STR_MEMO_ENTRIES", cap)
    sim, _net, client, server = setup_pair()
    requests = handed_to_the_network(monkeypatch, client)
    replies = handed_to_the_network(monkeypatch, server)
    target = server.register(Polyglot(), object_id="objét-1")
    arguments = [
        ("plain",),
        ("ünïcødé ✓",),
        ({"ключ": ["plain", 1, None], "k": (2.5, b"raw")},),
        (IOR("server", "RootPOA", "objét-1"), data_msg("plain")),
        (),
    ]
    for operation in ("echo", "écho", "boom", "nosuch"):
        for args in arguments:
            for oneway in (False, True):
                for _again in range(2):  # the second time reads the memos
                    client.invoke(target, operation, args, oneway=oneway)
    client.invoke(IOR("server", "RootPOA", "gone"), "echo", ("plain",))
    sim.run()
    assert len(requests) == 4 * len(arguments) * 2 * 2 + 1
    assert len(replies) == 4 * len(arguments) * 2 + 1
    for message, size in requests + replies:
        assert size == wire_size(message) + GIOP_OVERHEAD == len(encode(message)) + GIOP_OVERHEAD
    if cap is not None:
        assert len(client._strs) == len(server._strs) == cap


@pytest.mark.parametrize("bad", [2**63, -(2**63) - 1, object(), [1, {"k": (2**64,)}]])
def test_an_unmarshallable_argument_still_fails_at_the_call_site(bad):
    sim, _net, client, server = setup_pair()
    target = server.register(Echo())
    for oneway in (False, True):
        client.invoke(target, "echo", ("fine",), oneway=oneway)  # header memoised
        with pytest.raises(MarshalError):
            client.invoke(target, "echo", ("fine", bad), oneway=oneway)
    sim.run()
    assert sim.obs.metrics.counter_value("net.sent") == 2 + 1  # and the one reply


def test_a_runs_call_count_does_not_depend_on_what_ran_before_it():
    """Each ORB owns its size memos: a memo shared by the process would make
    the second of two identical runs cheaper than the first."""

    def run():
        sim, _net, client, server = setup_pair()
        target = server.register(Echo())
        for i in range(5):
            client.invoke(target, "echo", (f"value-{i}", "same"))
        sim.run()

    assert count_calls(run)[1] == count_calls(run)[1]


_IN_RANGE = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_NAMES = st.text(max_size=6)


def _containers_and_structs(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_NAMES, _IN_RANGE), children, max_size=4),
        st.builds(IOR, _NAMES, _NAMES, _NAMES),
        st.builds(ChanAck, _IN_RANGE),  # a one-field struct
        st.builds(ChanData, _IN_RANGE, children, st.none() | _IN_RANGE),
        # the three that remember their size
        st.builds(lambda payload, era: data_msg(payload, era=era), children, _NAMES),
        st.builds(TicketMsg, _NAMES, _NAMES, _IN_RANGE, _IN_RANGE, _NAMES, _IN_RANGE),
        st.builds(
            TicketBatchMsg, _NAMES, _NAMES, _IN_RANGE,
            st.lists(st.tuples(_IN_RANGE, _NAMES, _IN_RANGE), max_size=3),
        ),
    )


_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), _IN_RANGE, st.floats(allow_nan=False),
        st.text(),  # non-ASCII included: sized by utf-8 length
        st.binary(),
    ),
    _containers_and_structs,
    max_leaves=12,
)


@given(_VALUES, st.sampled_from([2**63, -(2**63) - 1]))
def test_wire_size_is_the_encoded_length_for_any_nested_value(value, too_big):
    size = wire_size(value)
    assert size == len(encode(value))
    assert wire_size(value) == size  # the second sizing reads the memos
    for bad in ([value, {"k": (too_big,)}], data_msg([value, too_big])):
        for _twice in range(2):  # a failed walk must not leave a memo behind
            with pytest.raises(MarshalError):
                wire_size(bad)
        with pytest.raises(MarshalError):
            encode(bad)
