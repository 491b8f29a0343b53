"""Compact binary codec for bag pairs — the WAL and checkpoint encoding.

Write-ahead-log records (:mod:`repro.durability.records`) and checkpoint
blobs (:mod:`repro.durability.checkpoint`) persist bags as
``(element, multiplicity)`` pairs through this codec, and fall back to
pickle only for the values it refuses.  Pickling everything would work
mechanically, but it would also *lie*: values whose equality or hash is
identity-dependent (``NaN`` floats, arbitrary user objects) do not survive a
round-trip faithfully — ``pickle.loads(pickle.dumps(nan))`` is a new object
with a new id-based hash, so a replayed fold could keep two dict entries
where the original run kept one.  This codec therefore plays two roles:

* a **compact binary encoding** for ``(element, multiplicity)`` pairs over
  the value vocabulary of the data model — ``None``, booleans, ints
  (arbitrary precision), floats, strings, bytes, tuples, nested
  :class:`~repro.bag.bag.Bag` values and :class:`~repro.labels.Label`
  occurrences — with LEB128 varints and zigzag-encoded multiplicities;
* the **sendability contract**: :exc:`UnsendableValueError` is raised for
  exactly the values whose round-trip would not preserve dict-key
  semantics (non-self-equal floats, unknown types).  The durability layer
  treats that error as the signal to take the pickle fallback for the
  whole bag.

Round-trip guarantee (the property tests pin it): for every encodable value
``decode_value(encode_value(v)) == v``, the decoded value hashes equal to
the original *within the receiving process*, and bag/dict folds over decoded
values agree with folds over the originals.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, List, Tuple

from repro.bag.bag import Bag, EMPTY_BAG

__all__ = [
    "UnsendableValueError",
    "decode_bag",
    "decode_pairs",
    "decode_value",
    "encode_bag",
    "encode_pairs",
    "encode_value",
    "is_sendable",
    "read_uvarint",
    "write_uvarint",
]


class UnsendableValueError(ValueError):
    """A value whose encode/decode round-trip would not be faithful.

    Raised for ``NaN`` (equality is identity-based across pickling, so a
    decoded bag could diverge from the original) and for values outside
    the codec's vocabulary (arbitrary objects hash by id).  The WAL and
    checkpoint writers catch this and pickle the bag instead.
    """


_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_STR = 0x04
_TAG_FLOAT = 0x05
_TAG_BYTES = 0x06
_TAG_TUPLE = 0x07
_TAG_BAG = 0x08
_TAG_LABEL = 0x09

_FLOAT_PACK = struct.Struct(">d")


def write_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint (arbitrary precision)."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_value(out: bytearray, value: Any) -> None:
    # bool before int: bool is an int subclass but hashes like one, so either
    # tag would round-trip — the dedicated tag keeps ``True`` distinct in repr
    # and saves the varint.
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif type(value) is int:
        out.append(_TAG_INT)
        encoded = (value << 1) if value >= 0 else (((-value) << 1) - 1)
        write_uvarint(out, encoded)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        write_uvarint(out, len(raw))
        out += raw
    elif type(value) is float:
        if value != value:
            raise UnsendableValueError(
                "NaN is not sendable: its hash is id-based, so a cross-process "
                "round-trip would not preserve dict-key identity"
            )
        out.append(_TAG_FLOAT)
        out += _FLOAT_PACK.pack(value)
    elif type(value) is bytes:
        out.append(_TAG_BYTES)
        write_uvarint(out, len(value))
        out += value
    elif type(value) is tuple:
        out.append(_TAG_TUPLE)
        write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, Bag):
        data = value._data
        out.append(_TAG_BAG)
        write_uvarint(out, len(data))
        for element, multiplicity in data.items():
            _write_value(out, element)
            encoded = (multiplicity << 1) if multiplicity >= 0 else (((-multiplicity) << 1) - 1)
            write_uvarint(out, encoded)
    elif _is_label(value):
        out.append(_TAG_LABEL)
        _write_value(out, value.iota)
        _write_value(out, value.values)
    else:
        raise UnsendableValueError(
            f"{type(value).__name__} is outside the sendable value vocabulary"
        )


def _is_label(value: Any) -> bool:
    from repro.labels import Label

    return isinstance(value, Label)


def read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode the LEB128 varint at ``pos``; returns ``(value, next pos)``."""
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def _read_value(data: bytes, pos: int) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        raw, pos = read_uvarint(data, pos)
        return _unzigzag(raw), pos
    if tag == _TAG_STR:
        length, pos = read_uvarint(data, pos)
        return data[pos : pos + length].decode("utf-8"), pos + length
    if tag == _TAG_FLOAT:
        return _FLOAT_PACK.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_BYTES:
        length, pos = read_uvarint(data, pos)
        return data[pos : pos + length], pos + length
    if tag == _TAG_TUPLE:
        length, pos = read_uvarint(data, pos)
        items = []
        for _ in range(length):
            item, pos = _read_value(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _TAG_BAG:
        length, pos = read_uvarint(data, pos)
        bag_data: Dict[Any, int] = {}
        for _ in range(length):
            element, pos = _read_value(data, pos)
            raw, pos = read_uvarint(data, pos)
            bag_data[element] = _unzigzag(raw)
        return (EMPTY_BAG if not bag_data else Bag._from_clean_dict(bag_data)), pos
    if tag == _TAG_LABEL:
        from repro.labels import Label

        iota, pos = _read_value(data, pos)
        values, pos = _read_value(data, pos)
        return Label(iota, values), pos
    raise ValueError(f"corrupt bag-pair payload: unknown tag 0x{tag:02x}")


# ---------------------------------------------------------------------- #
# Public API
# ---------------------------------------------------------------------- #
def encode_value(value: Any) -> bytes:
    """Encode one value; raises :exc:`UnsendableValueError` outside the contract."""
    out = bytearray()
    _write_value(out, value)
    return bytes(out)


def decode_value(payload: bytes) -> Any:
    value, pos = _read_value(payload, 0)
    if pos != len(payload):
        raise ValueError("corrupt bag-pair payload: trailing bytes")
    return value


def encode_pairs(pairs: Iterable[Tuple[Any, int]]) -> bytes:
    """Encode ``(element, multiplicity)`` pairs (a delta, a store's contents)."""
    out = bytearray()
    body = bytearray()
    count = 0
    for element, multiplicity in pairs:
        _write_value(body, element)
        encoded = (multiplicity << 1) if multiplicity >= 0 else (((-multiplicity) << 1) - 1)
        write_uvarint(body, encoded)
        count += 1
    write_uvarint(out, count)
    out += body
    return bytes(out)


def decode_pairs(payload: bytes) -> List[Tuple[Any, int]]:
    count, pos = read_uvarint(payload, 0)
    pairs: List[Tuple[Any, int]] = []
    for _ in range(count):
        element, pos = _read_value(payload, pos)
        raw, pos = read_uvarint(payload, pos)
        pairs.append((element, _unzigzag(raw)))
    if pos != len(payload):
        raise ValueError("corrupt bag-pair payload: trailing bytes")
    return pairs


def encode_bag(bag: Bag) -> bytes:
    """Encode a bag's contents."""
    return encode_pairs(bag._data.items())


def decode_bag(payload: bytes) -> Bag:
    return Bag.from_pairs(decode_pairs(payload))


def is_sendable(value: Any) -> bool:
    """True iff ``value`` round-trips faithfully under this codec."""
    try:
        encode_value(value)
    except UnsendableValueError:
        return False
    return True
