"""WAL record payloads: every logged operation as self-describing bytes.

The log records *operations*, not state: ``U`` an applied
:class:`~repro.ivm.updates.Update`, ``D`` a dataset registration and ``V`` a
view creation (with its strategy pinned, so replay never re-plans).
Replaying the records through the normal engine API reproduces the state
machine exactly — label assignment included, because the shredder's label
counter is part of every checkpoint and the records preserve insertion
order.  ``X`` (an operator's vacuum pass) is no longer written; logs that
hold one still decode, and replay treats it as a no-op.

Bags travel in the PR 7 pair codec (:mod:`repro.bag.codec`) whenever the
codec accepts them — compact, allocation-light, and it *rejects* the values
pickle would silently corrupt across processes — with a pickle fallback for
codec-unsendable values (NaN floats, exotic element types).  Registration
and view records carry schemas and NRC+ expressions, which are plain frozen
dataclasses and pickle exactly; a view whose expression cannot be pickled
(e.g. a hand-built backend closure) fails loudly at creation time rather
than corrupting the log.

Framing (length prefix + CRC32) is the WAL's job, not the payload's — see
:mod:`repro.durability.wal`.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.bag.bag import Bag
from repro.bag.codec import (
    UnsendableValueError,
    decode_bag,
    decode_value,
    encode_bag,
    encode_value,
    read_uvarint,
    write_uvarint,
)
from repro.errors import EngineError
from repro.ivm.updates import Update

__all__ = [
    "KIND_CODEC",
    "KIND_PICKLE",
    "PICKLE_PROTOCOL",
    "decode_blob",
    "decode_record",
    "encode_blob",
    "encode_dataset_record",
    "encode_update_record",
    "encode_view_record",
]

#: Payload type bytes (first byte of every record payload).
_RT_UPDATE = ord("U")
_RT_DATASET = ord("D")
_RT_VIEW = ord("V")
#: Decoded only: written by logs that predate write-time retirement.
_RT_VACUUM = ord("X")

#: Blob encodings (the kind byte before every blob here and in checkpoint
#: files): the pair codec when it accepts the value, pickle otherwise.
KIND_CODEC = 0x01
KIND_PICKLE = 0x02

PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def encode_blob(value: Any, encode: Callable[[Any], bytes]) -> Tuple[int, bytes]:
    """``(kind, blob)``: ``encode(value)`` when the codec accepts it, else pickle."""
    try:
        return KIND_CODEC, encode(value)
    except UnsendableValueError:
        return KIND_PICKLE, pickle.dumps(value, protocol=PICKLE_PROTOCOL)


def decode_blob(kind: int, blob: bytes, decode: Callable[[bytes], Any]) -> Any:
    """Inverse of :func:`encode_blob`."""
    if kind == KIND_CODEC:
        return decode(blob)
    if kind == KIND_PICKLE:
        return pickle.loads(blob)
    raise ValueError(f"unknown blob kind 0x{kind:02x}")


def _write_blob(out: bytearray, kind: int, blob: bytes) -> None:
    out.append(kind)
    write_uvarint(out, len(blob))
    out += blob


def _read_blob(data: bytes, pos: int) -> Tuple[int, bytes, int]:
    kind = data[pos]
    length, pos = read_uvarint(data, pos + 1)
    return kind, data[pos : pos + length], pos + length


def _write_str(out: bytearray, text: str) -> None:
    blob = text.encode("utf-8")
    write_uvarint(out, len(blob))
    out += blob


def _read_str(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = read_uvarint(data, pos)
    return data[pos : pos + length].decode("utf-8"), pos + length


def _write_coded(out: bytearray, value: Any, encode: Callable[[Any], bytes]) -> None:
    _write_blob(out, *encode_blob(value, encode))


def _read_coded(data: bytes, pos: int, decode: Callable[[bytes], Any]) -> Tuple[Any, int]:
    kind, blob, pos = _read_blob(data, pos)
    return decode_blob(kind, blob, decode), pos


# ---------------------------------------------------------------------- #
# Encoders
# ---------------------------------------------------------------------- #

def encode_update_record(update: Update) -> bytes:
    """``U`` record: relation deltas plus deep (per-label) dictionary deltas."""
    out = bytearray([_RT_UPDATE])
    write_uvarint(out, len(update.relations))
    for name, bag in update.relations.items():
        _write_str(out, name)
        _write_coded(out, bag, encode_bag)
    write_uvarint(out, len(update.deep))
    for dict_name, entries in update.deep.items():
        _write_str(out, dict_name)
        write_uvarint(out, len(entries))
        for label, bag in entries.items():
            _write_coded(out, label, encode_value)
            _write_coded(out, bag, encode_bag)
    return bytes(out)


def encode_dataset_record(name: str, schema: Any, rows: Optional[Bag]) -> bytes:
    """``D`` record: the registration call, initial rows in the bag codec."""
    out = bytearray([_RT_DATASET])
    _write_blob(out, KIND_PICKLE, pickle.dumps((name, schema), protocol=PICKLE_PROTOCOL))
    if rows is None:
        out.append(0)
    else:
        out.append(1)
        _write_coded(out, rows, encode_bag)
    return bytes(out)


def encode_view_record(
    name: str,
    strategy: str,
    expr: Any,
    targets: Optional[Sequence[str]],
) -> bytes:
    """``V`` record: view spec with the *resolved* strategy pinned.

    Pinning means replay recreates the view with the exact backend the
    original run chose, even if a later planner would pick another.
    """
    spec = (name, strategy, expr, tuple(targets) if targets is not None else None)
    try:
        blob = pickle.dumps(spec, protocol=PICKLE_PROTOCOL)
    except Exception as error:
        raise EngineError(
            f"view {name!r} cannot be persisted: its query does not pickle "
            f"({error}); durable engines require picklable view expressions"
        ) from error
    out = bytearray([_RT_VIEW])
    _write_blob(out, KIND_PICKLE, blob)
    return bytes(out)


# ---------------------------------------------------------------------- #
# Decoder
# ---------------------------------------------------------------------- #

def decode_record(payload: bytes) -> Tuple[str, Any]:
    """Decode one record payload to ``(kind, value)``.

    ``("update", Update)``, ``("dataset", (name, schema, rows))``,
    ``("view", (name, strategy, expr, targets))``, or
    ``("vacuum", None)`` for a legacy ``X`` record.  Raises ``ValueError``
    on an unknown type byte — the manager treats that as segment corruption.
    """
    if not payload:
        raise ValueError("empty WAL record payload")
    record_type = payload[0]
    pos = 1
    if record_type == _RT_UPDATE:
        relations: Dict[str, Bag] = {}
        count, pos = read_uvarint(payload, pos)
        for _ in range(count):
            name, pos = _read_str(payload, pos)
            relations[name], pos = _read_coded(payload, pos, decode_bag)
        deep: Dict[str, Dict[Any, Bag]] = {}
        count, pos = read_uvarint(payload, pos)
        for _ in range(count):
            dict_name, pos = _read_str(payload, pos)
            entry_count, pos = read_uvarint(payload, pos)
            entries: Dict[Any, Bag] = {}
            for _ in range(entry_count):
                label, pos = _read_coded(payload, pos, decode_value)
                entries[label], pos = _read_coded(payload, pos, decode_bag)
            deep[dict_name] = entries
        return "update", Update(relations=relations, deep=deep)
    if record_type == _RT_DATASET:
        kind, blob, pos = _read_blob(payload, pos)
        name, schema = pickle.loads(blob)
        rows: Optional[Bag] = None
        if payload[pos]:
            rows, _ = _read_coded(payload, pos + 1, decode_bag)
        return "dataset", (name, schema, rows)
    if record_type == _RT_VIEW:
        kind, blob, _ = _read_blob(payload, pos)
        # Records written before the planner became a rule carry a fifth
        # field (an assumed update size); the pinned strategy makes it moot.
        return "view", tuple(pickle.loads(blob)[:4])
    if record_type == _RT_VACUUM:
        return "vacuum", None
    raise ValueError(f"unknown WAL record type byte 0x{record_type:02x}")
