"""Tests for the CDR-style wire codec."""

import pytest

from repro.orb.marshal import MarshalError, corba_struct, decode, encode, wire_size


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
    from repro.orb.ior import IOGR, IOR

    ior = IOR("node1", "RootPOA", "obj-1")
    assert decode(encode(ior)) == ior
    iogr = IOGR([ior, IOR("node2", "RootPOA", "obj-2")], primary=1)
    back = decode(encode(iogr))
    assert back == iogr
    assert back.primary_ref.node == "node2"
