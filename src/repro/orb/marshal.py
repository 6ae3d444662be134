"""A compact CDR-style wire codec.

The simulator no longer moves bytes: sender and receiver share one heap, so
the ORB hands the network the message struct itself plus the size this codec
says it would occupy (see ``repro.orb.orb``).  What the codec is for:

- honest wire sizes — :func:`wire_size` is on the path of every simulated
  message; serialisation delay and per-byte CPU costs are computed from it,
  and it is the one check a value passes before crossing the simulated wire;
- the reference path — in the ORB's verify mode every message really is
  encoded, checked against its ``wire_size``, carried as bytes and decoded
  on arrival, which gives full isolation between "address spaces" (no shared
  mutable state can leak between simulated nodes) and is what the tests
  compare the by-reference transport against;
- tests that pin the format (``tests/test_marshal_registry_roundtrip.py``).

Supported values: None, bool, int (signed 64-bit), float, str, bytes, list,
tuple, dict, and any class registered with :func:`corba_struct` (encoded
field-by-field in declaration order).

``encode``/``decode`` are the plain recursive implementation; only the
sizer (``wire_size`` and the walk under it, ``sum_sizes``) is written for
speed.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Any, Callable, Dict, List, Tuple, Type

__all__ = [
    "corba_struct", "encode", "decode", "wire_size", "sum_sizes", "StrSizes", "MarshalError"
]


class MarshalError(ValueError):
    """Raised on unencodable values or corrupt byte streams."""


_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"d"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"L"
_TAG_TUPLE = b"t"
_TAG_DICT = b"D"
_TAG_STRUCT = b"S"

#: ints travel as signed 64-bit; anything outside cannot be put on the wire
_INT_MIN = -(2**63)
_INT_MAX = 2**63 - 1

_STRUCT_REGISTRY: Dict[str, Tuple[Type, Tuple[str, ...]]] = {}

#: exact struct type -> (header_len, fields as a tuple, keeps a size memo)
_STRUCT_SIZERS: Dict[type, Tuple[int, Callable, bool]] = {}


def corba_struct(cls: Type) -> Type:
    """Class decorator: register a value type for wire marshalling.

    The class must expose ``_fields`` (a tuple of attribute names) or be
    introspectable via ``__slots__``.  Decoding calls the constructor with
    the fields as keyword arguments.  A class with a non-wire ``_wire_size``
    slot (initially None) keeps its size there after the first ``wire_size``.
    """
    fields = getattr(cls, "_fields", None)
    if fields is None:
        slots = getattr(cls, "__slots__", None)
        if slots is None:
            raise MarshalError(
                f"{cls.__name__} needs _fields or __slots__ for marshalling"
            )
        fields = tuple(slots)
    name = cls.__name__
    if name in _STRUCT_REGISTRY and _STRUCT_REGISTRY[name][0] is not cls:
        raise MarshalError(f"duplicate struct name {name!r}")
    fields = tuple(fields)
    _STRUCT_REGISTRY[name] = (cls, fields)
    cls._wire_name = name
    # tag + u32 name length + name: what every instance's encoding starts with
    header_len = 5 + len(name.encode("utf-8"))
    getter = attrgetter(*fields)
    # attrgetter of one name returns the bare value, of several a tuple
    fields_of = getter if len(fields) > 1 else (lambda value: (getter(value),))
    _STRUCT_SIZERS[cls] = (header_len, fields_of, "_wire_size" in cls.__dict__)
    return cls


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _encode_into(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        if not _INT_MIN <= value <= _INT_MAX:
            raise MarshalError(f"cannot marshal int outside signed 64-bit: {value}")
        out.append(_TAG_INT)
        out.append(struct.pack(">q", value))
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.append(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        out.append(struct.pack(">I", len(raw)))
        out.append(raw)
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        out.append(struct.pack(">I", len(value)))
        out.append(value)
    elif isinstance(value, list):
        out.append(_TAG_LIST)
        out.append(struct.pack(">I", len(value)))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, tuple):
        out.append(_TAG_TUPLE)
        out.append(struct.pack(">I", len(value)))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out.append(struct.pack(">I", len(value)))
        for key, item in value.items():
            _encode_into(key, out)
            _encode_into(item, out)
    else:
        # a registered struct, or a subclass of one (encoded as its base)
        wire_name = getattr(type(value), "_wire_name", None)
        if wire_name is None or wire_name not in _STRUCT_REGISTRY:
            raise MarshalError(f"cannot marshal {type(value).__name__}: {value!r}")
        _cls, fields = _STRUCT_REGISTRY[wire_name]
        raw = wire_name.encode("utf-8")
        out.append(_TAG_STRUCT)
        out.append(struct.pack(">I", len(raw)))
        out.append(raw)
        for field in fields:
            _encode_into(getattr(value, field), out)


def encode(value: Any) -> bytes:
    """Encode ``value`` to its wire representation."""
    out: List[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MarshalError("truncated stream")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]


def _decode_from(reader: _Reader) -> Any:
    tag = reader.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return struct.unpack(">q", reader.take(8))[0]
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", reader.take(8))[0]
    if tag == _TAG_STR:
        return reader.take(reader.u32()).decode("utf-8")
    if tag == _TAG_BYTES:
        return reader.take(reader.u32())
    if tag == _TAG_LIST:
        return [_decode_from(reader) for _ in range(reader.u32())]
    if tag == _TAG_TUPLE:
        return tuple(_decode_from(reader) for _ in range(reader.u32()))
    if tag == _TAG_DICT:
        count = reader.u32()
        result = {}
        for _ in range(count):
            key = _decode_from(reader)
            result[key] = _decode_from(reader)
        return result
    if tag == _TAG_STRUCT:
        name = reader.take(reader.u32()).decode("utf-8")
        entry = _STRUCT_REGISTRY.get(name)
        if entry is None:
            raise MarshalError(f"unknown struct {name!r} on the wire")
        cls, fields = entry
        kwargs = {field: _decode_from(reader) for field in fields}
        return cls(**kwargs)
    raise MarshalError(f"unknown tag {tag!r}")


def decode(data: bytes) -> Any:
    """Decode a value previously produced by :func:`encode`."""
    reader = _Reader(data)
    value = _decode_from(reader)
    if reader.pos != len(data):
        raise MarshalError("trailing bytes after value")
    return value


# ---------------------------------------------------------------------------
# sizing
# ---------------------------------------------------------------------------

class StrSizes(dict):
    """A ``str -> encoded size`` memo for :func:`sum_sizes`.

    It takes new strings while it has ``room`` and then stops growing: no
    eviction, so a run's hits depend only on what that run sized.
    """

    __slots__ = ("room",)

    def __init__(self, room: int):
        super().__init__()
        self.room = room


#: what :func:`wire_size` walks with: no room, so it never holds an entry
_NO_MEMO = StrSizes(0)


def wire_size(value: Any) -> int:
    """Encoded size in bytes, computed without building the byte string.

    Raises :class:`MarshalError` for exactly the values :func:`encode`
    rejects: by reference, this is the only check a value gets.
    """
    return sum_sizes((value,), 0, _NO_MEMO)


def sum_sizes(values: Any, n: int, strs: StrSizes) -> int:
    """``n`` plus the encoded size of every item of ``values``.

    Leaves are sized in line: the walk costs one call per non-empty container
    or struct, not one per field, and a struct with a size memo is walked once.
    A string found in ``strs`` costs no call; one that is not is sized and
    kept while ``strs`` has room.
    """
    for value in values:
        t = value.__class__
        if t is str:
            if value in strs:
                n += strs[value]
            else:
                # utf-8 length == str length for ASCII, the overwhelming case
                size = 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))
                if strs.room:
                    strs.room -= 1
                    strs[value] = size
                n += size
        elif t is int:
            if not _INT_MIN <= value <= _INT_MAX:
                raise MarshalError(f"cannot marshal int outside signed 64-bit: {value}")
            n += 9
        elif t is float:
            n += 9
        elif t is bool or value is None:
            n += 1
        elif t is tuple or t is list:
            n = sum_sizes(value, n + 5, strs) if value else n + 5
        elif t is dict:
            if value:
                n = sum_sizes(value.values(), sum_sizes(value, n + 5, strs), strs)
            else:
                n += 5
        elif t is bytes:
            n += 5 + len(value)
        elif t in _STRUCT_SIZERS:
            header_len, fields_of, memo = _STRUCT_SIZERS[t]
            if not memo:
                n = sum_sizes(fields_of(value), n + header_len, strs)
                continue
            if value._wire_size is None:
                value._wire_size = sum_sizes(fields_of(value), header_len, strs)
            n += value._wire_size
        else:
            # subclasses and oddballs: fall back to encoding (raises
            # MarshalError for unencodable values, exactly like encode would)
            n += len(encode(value))
    return n
