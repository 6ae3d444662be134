"""Auto-enumerated encode/decode round-trips for every registered struct.

Every ``@corba_struct`` class in the wire registry gets a representative
sample instance built here and pushed through ``encode`` -> ``decode``;
the decoded object must be the same class with field-equal values.  Because
the test iterates :data:`repro.orb.marshal._STRUCT_REGISTRY` itself, adding
a new struct anywhere in the tree automatically extends the test — and a
struct this file cannot build a sample for fails with instructions instead
of being silently skipped.

This is the safety net under ``wire_size``, the one marshal function on the
simulator's hot path: its per-struct sizers must agree with the codec for
every struct that can reach a wire.
"""

from __future__ import annotations

import ast
import hashlib
import pathlib

import pytest

# importing the package trees registers every struct with the marshal layer
import repro.core.messages  # noqa: F401
import repro.groupcomm.messages  # noqa: F401
import repro.orb.ior  # noqa: F401
import repro.orb.messages  # noqa: F401
from repro.core.messages import ReplyMsg, ReplySet, ScatterArgs
from repro.groupcomm.config import GroupConfig, LivelinessConfig, Ordering, OrderingConfig
from repro.groupcomm.messages import DataMsg
from repro.groupcomm.views import GroupView
from repro.orb.ior import IOR
from repro.orb.marshal import _STRUCT_REGISTRY, decode, encode, wire_size
from repro.overload import AdmissionConfig
from repro.recovery import RetryPolicy
from repro.scenario import load_spec


def _sample_data_msg() -> DataMsg:
    return DataMsg(
        group="g",
        sender="m1",
        view_id=2,
        gseq=7,
        ts=31,
        kind="data",
        payload=b"payload",
        ticket=5,
        vector={"m1": 3, "m2": 1},
        acks={"m1": 7, "m2": 6},
        hb_period=0.05,
        era="era-1",
        pushback=0.25,
    )


def _sample_reply() -> ReplyMsg:
    return ReplyMsg(client="c1", call_no=3, member="m1", ok=True, value="v")


#: field name -> sample value; every struct sample is assembled from these,
#: so most new structs are covered just by reusing established field names.
FIELD_SAMPLES = {
    "ack": 4,
    "acks": {"m1": 7, "m2": 6},
    "adapter": "RootPOA",
    "args": (1, "two", 3.0),
    "attempt": 1,
    "call_no": 3,
    "client": "c1",
    "combine_id": "cmb-1",
    "config": lambda: GroupConfig(ordering=Ordering.ASYMMETRIC),
    "count": 3,
    "coordinator": "m1",
    "cum_seq": 9,
    "era": "era-1",
    "forwarded": False,
    "from_seq": 2,
    "gseq": 7,
    "group": "g",
    "hb_period": 0.05,
    "inner": lambda: _sample_data_msg(),
    "kind": "data",
    "member": "m2",
    "members": ["m1", "m2", "m3"],
    "mode": "all",
    "node": "n1",
    "object_id": "obj-1",
    "object_key": "RootPOA/obj-1",
    "ok": True,
    "oneway": False,
    "operation": "op",
    "origin": "c1",
    "parts": [(0, (1,)), (1, (2, "x"))],
    "pushback": 0.25,
    "rank": 1,
    "retry_after": 0.05,
    "own_replies": lambda: [_sample_reply()],
    "payload": b"payload",
    "primary": 0,
    "profiles": lambda: [IOR("n1", "RootPOA", "obj-1"), IOR("n2", "RootPOA", "obj-1")],
    "replies": lambda: [_sample_reply()],
    "reply": lambda: _sample_reply(),
    "reply_group": "gz",
    "reply_node": "n1",
    "reply_sets": lambda: [ReplySet("c1", 3, [_sample_reply()])],
    "request_id": 11,
    "sender": "m1",
    "seq": 8,
    "service": "svc",
    "servant_state": {"k": 1},
    "skip_to": 12,
    "state": {"k": 1},
    "status": 0,
    "suspect": "m3",
    "target_gseq": 7,
    "target_sender": "m2",
    "ticket": 5,
    "tickets": [(1, "m1", 1), (2, "m2", 1)],
    "to_seq": 6,
    "ts": 31,
    "unstable": lambda: [_sample_data_msg()],
    "value": "v",
    "vector": {"m1": 3, "m2": 1},
    "view": lambda: GroupView("g", 2, ["m1", "m2"], era="era-1"),
    "view_id": 2,
}

#: structs whose constructors validate or transform in ways the per-field
#: defaults cannot satisfy; value is a zero-arg factory for a full instance
STRUCT_SAMPLES = {
    "GroupConfig": lambda: GroupConfig(ordering=Ordering.ASYMMETRIC),
    "LivelinessConfig": None,  # default-constructible
    "OrderingConfig": None,
    # ScatterArgs.parts is a member->args dict, not Contribution's rank list
    "ScatterArgs": lambda: ScatterArgs({"m1": (1,), "m2": (2, "x")}, (0,)),
}


def _build_sample(name, cls, fields):
    override = STRUCT_SAMPLES.get(name, ...)
    if override is not ...:
        return cls() if override is None else override()
    kwargs = {}
    for field in fields:
        if field not in FIELD_SAMPLES:
            pytest.fail(
                f"no sample value for field {field!r} of registered struct "
                f"{name} ({cls.__module__}.{cls.__qualname__}).  Add the "
                "field to FIELD_SAMPLES (or the struct to STRUCT_SAMPLES) in "
                f"{__file__} so the marshal round-trip test keeps covering "
                "every struct that can reach a wire."
            )
        sample = FIELD_SAMPLES[field]
        kwargs[field] = sample() if callable(sample) else sample
    try:
        return cls(**kwargs)
    except Exception as exc:  # noqa: BLE001 - turn into an instructive failure
        pytest.fail(
            f"could not construct sample {name}(**{sorted(kwargs)}): {exc!r}. "
            f"Add a zero-arg factory for {name} to STRUCT_SAMPLES in "
            f"{__file__}."
        )


def _field_equal(sent, back):
    if isinstance(sent, tuple):
        sent = list(sent)
    if isinstance(back, tuple):
        back = list(back)
    if isinstance(sent, list) and isinstance(back, list):
        return len(sent) == len(back) and all(
            _field_equal(s, b) for s, b in zip(sent, back)
        )
    if type(sent) in _STRUCT_TYPES or type(back) in _STRUCT_TYPES:
        return _struct_equal(sent, back)
    return sent == back


def _struct_equal(sent, back):
    if type(sent) is not type(back):
        return False
    fields = _STRUCT_REGISTRY[sent._wire_name][1]
    return all(
        _field_equal(getattr(sent, f), getattr(back, f)) for f in fields
    )


_STRUCT_TYPES = {cls for cls, _fields in _STRUCT_REGISTRY.values()}


@pytest.mark.parametrize(
    "name", sorted(_STRUCT_REGISTRY), ids=sorted(_STRUCT_REGISTRY)
)
def test_registered_struct_round_trips(name):
    cls, fields = _STRUCT_REGISTRY[name]
    sample = _build_sample(name, cls, fields)
    data = encode(sample)
    assert wire_size(sample) == len(data), (
        f"{name}: wire_size() disagrees with len(encode())"
    )
    back = decode(data)
    assert type(back) is cls
    for field in fields:
        assert _field_equal(getattr(sample, field), getattr(back, field)), (
            f"{name}.{field}: sent {getattr(sample, field)!r}, "
            f"decoded {getattr(back, field)!r}"
        )


def test_registry_is_nonempty_and_imports_cover_the_tree():
    # if this count ever drops the imports at the top of this file stopped
    # covering a module that registers structs — the parametrised test
    # above would silently shrink with it
    assert len(_STRUCT_REGISTRY) >= 26


# ---------------------------------------------------------------------------
# the wire format, pinned where it is decided
# ---------------------------------------------------------------------------
#: struct -> (exact wire fields, encoded size of this file's sample, sha256 of
#: its encoding).  A field added to or dropped from a group-communication
#: message or a config carried in ``ViewInstall`` shifts every frame size,
#: hence the virtual clock of every benchmark: it must show up here as a
#: visible diff.  The digests pin the bytes themselves (sizes alone do not):
#: those of the structs pinned before the codec's fast paths were deleted
#: were computed with the codec as it stood then, so the wire format
#: provably did not change with them.
WIRE_PINS = {
    "DataMsg": (
        ("group", "sender", "view_id", "gseq", "ts", "kind", "payload", "ticket",
         "vector", "acks", "hb_period", "era", "pushback"),
        184,
        "ae4fd105f97b663097cb76dae494f7b9b76f7ed01ce3b495c6c551a43e44c71c",
    ),
    "TicketMsg": (
        ("group", "sender", "view_id", "ticket", "target_sender", "target_gseq", "era"),
        71,
        "4379f0322ec0688b461c655bb6007c7f0e11c98180319d804f0e12b5a418cd95",
    ),
    "TicketBatchMsg": (
        ("group", "sender", "view_id", "tickets", "era"),
        116,
        "e0acee6dec272c72cd24d050fe203e2a57fa0d8b61732bf0daf9b97b23d1daa2",
    ),
    "JoinReq": (
        ("group", "member"),
        25,
        "611ff660111b5dc957d9e24be1809666ae0d02bf9bdc3e599e5a96d0d69eb52f",
    ),
    "LeaveReq": (
        ("group", "member"),
        26,
        "adba148caa0fe7f09b572847514800ef189532150e322484ffc95b0bc1501f31",
    ),
    "SuspectMsg": (
        ("group", "suspect"),
        28,
        "3da7d4be44ea90f193bc7291ffa6f58f149e322c32ea216a4f6007cc0a3bccbb",
    ),
    "FlushReq": (
        ("group", "view_id", "attempt", "coordinator"),
        44,
        "9dfaf19797e4d2e1c2058eed424fe11f8420e96fe52d0620f6d9092d36c246ba",
    ),
    "FlushOk": (
        ("group", "view_id", "attempt", "sender", "unstable", "tickets"),
        297,
        "a840e24d9436d7a50a6a1ecec5aba68c8ada5b4587d9b808c1e72c0ae2a7b509",
    ),
    "ViewInstall": (
        ("group", "view", "attempt", "config", "unstable", "tickets"),
        502,
        "156367cb6e0c8fdc91bc2c7e3a44080efba3be5253f84af51078c0bbd544cecb",
    ),
    "GroupConfig": (
        ("ordering", "liveliness", "silence_period", "suspicion_timeout",
         "flush_timeout", "sequencer_hint", "send_window", "flow_max_queue",
         "liveliness_config", "ordering_config"),
        159,
        "5ecc5824e98e5364bf561adcb49348f92aa5118ff9905272f8428ef8e27bddac",
    ),
    "LivelinessConfig": (
        ("adaptive", "max_silence_factor"),
        31,
        "bcb9d4805aaf14d15401e0358185468b5d64dd74f81e6d205c9bb89eb20d7455",
    ),
    "OrderingConfig": (
        ("ticket_batch_max", "ticket_batch_delay"),
        37,
        "df47934e4275e4de9faee8719ae23a975e6b213493e411f4554dcc6e21bd991a",
    ),
    "ChanData": (
        ("seq", "inner", "ack"),
        215,
        "06e11b44e44c98c1e1a5a6ce5b3b846f933818dc3d966a5dce204ea3908c7b09",
    ),
    "ChanAck": (
        ("cum_seq",),
        21,
        "db9302eeb5fa675f8267b452b285950ce28f6f7aa27f5656d5902e465644f12d",
    ),
    "ChanNack": (
        ("from_seq", "to_seq"),
        31,
        "5a1ea7dbfbd9ef338e832092c06ba64ac985091601577272ec68fe9eb0801e73",
    ),
    "ChanReset": (
        ("skip_to",),
        23,
        "6d1f6023f6f093aac04211beba3788a9788d0f0525d07793451be6dfe488362b",
    ),
}


@pytest.mark.parametrize("name", sorted(WIRE_PINS))
def test_wire_fields_and_sizes_are_pinned(name):
    fields, size, digest = WIRE_PINS[name]
    cls, registered = _STRUCT_REGISTRY[name]
    assert tuple(cls._fields) == tuple(registered) == fields
    sample = _build_sample(name, cls, registered)
    data = encode(sample)
    assert wire_size(sample) == len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


#: struct -> (non-wire id slot, the wire fields it is built from in
#: ``__init__``): never marshalled, so no pin above moves with it
ID_SLOTS = {
    "DataMsg": ("msg_id", ("view_id", "sender", "gseq")),
    "InvokeMsg": ("call_id", ("client", "call_no")),
    "ReplyMsg": ("call_id", ("client", "call_no")),
    "ReplySet": ("call_id", ("client", "call_no")),
}


@pytest.mark.parametrize("name", sorted(ID_SLOTS))
def test_an_id_slot_is_built_with_its_message_and_never_reaches_the_wire(name):
    slot, parts = ID_SLOTS[name]
    cls, registered = _STRUCT_REGISTRY[name]
    assert slot in cls.__slots__ and slot not in registered
    sample = _build_sample(name, cls, registered)
    expected = tuple(getattr(sample, field) for field in parts)
    assert getattr(sample, slot) == expected
    data = encode(sample)
    assert getattr(decode(data), slot) == expected  # the decoder builds it again
    setattr(sample, slot, ("not", "on", "the", "wire"))
    assert encode(sample) == data


#: options deleted because no benchmark, scenario or example ever set them:
#: (config class, deleted keyword, scenario spec section that names it —
#: None for a field of the ``group`` section itself)
DELETED_OPTIONS = [
    (GroupConfig, "null_delay", None),
    (GroupConfig, "ack_delay", None),
    (LivelinessConfig, "ack_coalesce_factor", "liveliness_config"),
    (LivelinessConfig, "backoff_factor", "liveliness_config"),
    (LivelinessConfig, "suspicion_periods", "liveliness_config"),
    (LivelinessConfig, "quiescence_fallback", "liveliness_config"),
    (LivelinessConfig, "fallback_after", "liveliness_config"),
    (OrderingConfig, "ack_piggyback", "ordering_config"),
    (AdmissionConfig, "queue_delay_low", "admission"),
    (AdmissionConfig, "pushback_high", "admission"),
    (AdmissionConfig, "probe_interval", "admission"),
    (AdmissionConfig, "queue_delay_high", "admission"),
    (AdmissionConfig, "retry_after", "admission"),
    (RetryPolicy, "jitter", "retry"),
]


@pytest.mark.parametrize(
    "cls, option, section", DELETED_OPTIONS, ids=[row[1] for row in DELETED_OPTIONS]
)
def test_deleted_options_are_rejected_by_name(cls, option, section):
    with pytest.raises(TypeError, match=option):
        cls(**{option: 1})
    if section is None:
        group, path = {option: 1}, rf"group spec .*{option}"
    else:
        group, path = {section: {option: 1}}, rf"group\.{section}.*{option}"
    with pytest.raises(ValueError, match=path):
        load_spec({"name": "deleted-option", "group": group})


# ---------------------------------------------------------------------------
# every wire field has a reader
# ---------------------------------------------------------------------------
#: ``struct.field`` carried on the wire though nothing under ``src/repro``
#: loads it, kept regardless.  Each needs its reason; any other unread field
#: fails the audit below and should be deleted instead.
READER_ALLOW_LIST = {
    # delivered to the forward target's application, whose code is not in
    # the library; test_gmi_matrix reads it there
    "ForwardedReply.origin",
}

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _own_dunders(tree: ast.Module, struct_names):
    """The ``__init__``/``__repr__`` bodies of the registered structs defined
    in ``tree``: a struct reading its own fields there is no receiver."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in struct_names:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in (
                    "__init__", "__repr__"
                ):
                    yield item


def _loaded_attributes():
    """Every attribute name loaded as a value under ``src/repro``.
    ``x.name(...)`` is a method call, not a field read, so it does not
    count."""
    struct_names = {cls.__name__ for cls, _fields in _STRUCT_REGISTRY.values()}
    loaded = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = {id(node) for fn in _own_dunders(tree, struct_names) for node in ast.walk(fn)}
        skip.update(
            id(node.func)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        )
        loaded.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in skip
        )
    return loaded


def test_every_wire_field_has_a_reader():
    loaded = _loaded_attributes()
    unread = {
        f"{cls.__name__}.{field}"
        for cls, fields in _STRUCT_REGISTRY.values()
        for field in fields
        if field not in loaded
    }
    assert not READER_ALLOW_LIST - unread, (
        "allow-listed fields gained a reader: drop them from READER_ALLOW_LIST"
    )
    assert sorted(unread - READER_ALLOW_LIST) == [], (
        "wire fields no receiver reads: delete them (every byte moves the "
        "virtual clock) or allow-list them here with a reason"
    )
