import math
import struct
from ipaddress import IPv4Address

import pytest
from hypothesis import given, strategies as st

from dssm.core import (
    Ait,
    AitEntry,
    InvalidValue,
    Message,
    MessageKind,
    WrongLength,
    decode_ait_entry,
    decode_message,
    encode_ait_entry,
    encode_message,
    message_size_bytes,
    transit_size_bytes,
)

# Hand-assembled from the byte layout: uint32 id, 4 IP octets, two
# big-endian binary64 reals, 8 reserved zero bytes.
ENTRY_1_HEX = (
    "00000001"          # id 1
    "c0a8100a"          # 192.168.16.10
    "4090000000000000"  # 1024.0
    "40a5e00000000000"  # 2800.0
    "0000000000000000"
)


def entry(node_id=1, ip="192.168.16.10", cap=1024.0, power=2800.0):
    return AitEntry(node_id, ip, cap, power)


def test_encode_known_entry():
    assert encode_ait_entry(entry()) == bytes.fromhex(ENTRY_1_HEX)


def test_encode_prefix_bytes():
    block = encode_ait_entry(entry())
    assert block[:8] == bytes([0, 0, 0, 1, 0xC0, 0xA8, 0x10, 0x0A])


def test_encode_zero_case():
    block = encode_ait_entry(AitEntry(1, "0.0.0.0", 0.0, 1.0))
    assert block[4:16] == b"\x00" * 12
    assert block[16:24] == struct.pack(">d", 1.0)
    assert block[24:] == b"\x00" * 8


def test_encode_length_is_32():
    assert len(encode_ait_entry(entry())) == 32
    assert len(encode_ait_entry(AitEntry(2**32 - 1, "255.255.255.255", 1e9, 1e6))) == 32


def test_decode_round_trip_example():
    e = AitEntry(7, "10.0.0.1", 512.5, 2660.0)
    assert decode_ait_entry(encode_ait_entry(e)) == e


entries = st.builds(
    AitEntry,
    node_id=st.integers(min_value=1, max_value=2**32 - 1),
    ip=st.builds(IPv4Address, st.integers(min_value=0, max_value=2**32 - 1)),
    storage_capacity_mb=st.floats(min_value=0.0, max_value=1e15, allow_nan=False),
    processing_power_mhz=st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
)


@given(entries)
def test_round_trip_property(e):
    block = encode_ait_entry(e)
    assert len(block) == 32
    assert decode_ait_entry(block) == e


@given(entries, st.floats(min_value=0.0, max_value=1e15, allow_nan=False))
def test_with_capacity_equals_the_entry_built_with_that_capacity(e, capacity_mb):
    before = encode_ait_entry(e)
    built = AitEntry(e.node_id, e.ip, capacity_mb, e.processing_power_mhz)
    replaced = e.with_capacity(capacity_mb)
    assert replaced == built and hash(replaced) == hash(built)
    assert encode_ait_entry(replaced) == encode_ait_entry(built)
    assert encode_ait_entry(e) == before  # the entry itself is not changed


@pytest.mark.parametrize("capacity_mb", [-1.0, math.inf, math.nan])
def test_with_capacity_refuses_a_bad_capacity_as_the_constructor_does(capacity_mb):
    e = entry()
    with pytest.raises(InvalidValue) as built:
        AitEntry(e.node_id, e.ip, capacity_mb, e.processing_power_mhz)
    with pytest.raises(InvalidValue) as replaced:
        e.with_capacity(capacity_mb)
    assert str(replaced.value) == str(built.value)


def test_decode_wrong_length():
    with pytest.raises(WrongLength):
        decode_ait_entry(b"\x00" * 31)
    with pytest.raises(WrongLength):
        decode_ait_entry(b"\x00" * 33)


def test_decode_rejects_sentinel_id():
    block = b"\x00" * 4 + encode_ait_entry(entry())[4:]
    with pytest.raises(InvalidValue):
        decode_ait_entry(block)


def test_decode_rejects_bad_reals():
    good = encode_ait_entry(entry())
    neg_cap = good[:8] + struct.pack(">d", -1.0) + good[16:]
    with pytest.raises(InvalidValue):
        decode_ait_entry(neg_cap)
    zero_power = good[:16] + struct.pack(">d", 0.0) + good[24:]
    with pytest.raises(InvalidValue):
        decode_ait_entry(zero_power)
    nan_cap = good[:8] + struct.pack(">d", math.nan) + good[16:]
    with pytest.raises(InvalidValue):
        decode_ait_entry(nan_cap)


def test_decode_ignores_padding():
    block = encode_ait_entry(entry())[:24] + b"\xff" * 8
    assert decode_ait_entry(block) == entry()


def test_entry_constructor_validation():
    with pytest.raises(InvalidValue):
        AitEntry(0, "1.2.3.4", 1.0, 1.0)
    with pytest.raises(InvalidValue):
        AitEntry(1, "1.2.3.4", -1.0, 1.0)
    with pytest.raises(InvalidValue):
        AitEntry(1, "1.2.3.4", 1.0, 0.0)
    with pytest.raises(InvalidValue):
        AitEntry(1, "1.2.3.4", math.inf, 1.0)


# -- AIT ------------------------------------------------------------------


def test_upsert_into_empty():
    ait = Ait()
    ait.upsert(entry())
    assert len(ait) == 1
    assert 1 in ait


def test_upsert_replaces():
    ait = Ait([entry()])
    ait.upsert(entry(cap=99.0))
    assert len(ait) == 1
    assert ait.get(1).storage_capacity_mb == 99.0


def test_upsert_returns_the_replaced_entry():
    ait = Ait()
    first, second = entry(), entry(cap=99.0)
    assert ait.upsert(first) is None
    assert ait.upsert(second) is first
    assert ait.upsert(entry(2, "10.0.0.2")) is None
    assert ait.get(1) is second


def test_upsert_idempotent():
    ait = Ait()
    ait.upsert(entry())
    snapshot = Ait(ait.entries())
    ait.upsert(entry())
    assert ait == snapshot


def test_remove():
    ait = Ait([entry(1), entry(2, "10.0.0.2"), entry(3, "10.0.0.3")])
    ait.remove(2)
    assert len(ait) == 2
    ait.remove(2)  # absent: no-op
    assert len(ait) == 2
    ait.remove(99)
    assert ait.ids() == {1, 3}


def test_remove_then_upsert():
    ait = Ait([entry()])
    ait.remove(1)
    assert 1 not in ait
    ait.upsert(entry())
    assert 1 in ait


def test_size_law_1000_entries():
    ait = Ait()
    for i in range(1, 1001):
        ait.upsert(entry(i, "10.0.0.1"))
    assert ait.size_bytes() == 32000
    assert len(b"".join(encode_ait_entry(e) for e in ait.entries())) == 32000


def test_size_law_small():
    ait = Ait()
    assert ait.size_bytes() == 0
    for i in (1, 2, 3):
        ait.upsert(entry(i))
    assert ait.size_bytes() == 96


@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=40))))
def test_size_law_under_any_op_sequence(ops):
    ait = Ait()
    for is_upsert, node_id in ops:
        if is_upsert:
            ait.upsert(entry(node_id, "10.9.9.9"))
        else:
            ait.remove(node_id)
        assert ait.size_bytes() == 32 * len(ait)


# -- messages --------------------------------------------------------------


def test_message_sizes():
    sizes = {
        MessageKind.JOIN: 33,
        MessageKind.ACCEPT: 33,
        MessageKind.LEAVE: 33,
        MessageKind.HEARTBEAT: 33,
        MessageKind.AGENT_ANNOUNCE: 33,
        MessageKind.QUERY: 49,
        MessageKind.QUERY_RESP: 73,
        MessageKind.DATA: 41,
    }
    for kind, size in sizes.items():
        assert message_size_bytes(kind) == size


def test_message_round_trips():
    e = entry()
    cases = [
        Message(MessageKind.JOIN, e),
        Message(MessageKind.ACCEPT, e),
        Message(MessageKind.LEAVE, e),
        Message(MessageKind.HEARTBEAT, e),
        Message(MessageKind.AGENT_ANNOUNCE, e),
        Message(MessageKind.QUERY, e, query_id=77, required_mb=123.5),
        Message(MessageKind.QUERY_RESP, e, query_id=77, candidate=entry(9, "10.1.1.9")),
        Message(MessageKind.QUERY_RESP, e, query_id=78, candidate=None),
        Message(MessageKind.DATA, e, size_mb=100.0),
    ]
    for msg in cases:
        block = encode_message(msg)
        assert len(block) == message_size_bytes(msg.kind)
        assert decode_message(block) == msg


def test_query_resp_zeroed_candidate():
    msg = Message(MessageKind.QUERY_RESP, entry(), query_id=5, candidate=None)
    block = encode_message(msg)
    assert block[-32:] == b"\x00" * 32
    assert decode_message(block).candidate is None


def test_decode_message_unknown_kind():
    block = b"\x7f" + encode_ait_entry(entry())
    with pytest.raises(InvalidValue):
        decode_message(block)


def test_decode_message_wrong_length():
    block = encode_message(Message(MessageKind.QUERY, entry(), query_id=1, required_mb=2.0))
    with pytest.raises(WrongLength):
        decode_message(block[:-1])


def test_data_transit_size_is_virtual_body():
    msg = Message(MessageKind.DATA, entry(), size_mb=100.0)
    assert transit_size_bytes(msg) == 100.0 * 1024 * 1024
    assert repr(transit_size_bytes(Message(MessageKind.DATA, entry(), size_mb=5))) == "5242880.0"
    assert transit_size_bytes(Message(MessageKind.HEARTBEAT, entry())) == 33.0
