"""The write-ahead log: segmented, checksummed, fsync-policied appends.

Layout: ``<wal_dir>/wal-00000001.log``, ``wal-00000002.log``, … — each
segment an 8-byte magic header (:data:`SEGMENT_MAGIC`) followed by record
frames ``u32 length (LE) | u32 crc32 (LE) | payload``.  This module is the
only one that knows the frame layout: checkpoint files and the replication
feed frame and check their bytes through :func:`encode_frame`,
:func:`walk_frames` and :func:`unframe`.  Segments rotate at
:data:`DEFAULT_SEGMENT_BYTES` (or ``segment_bytes=``) and at every
checkpoint capture, so a checkpoint covers exactly the segments before its
``wal_start_segment``.

**Fsync policy** (``Engine(fsync=...)``, default ``batch``):

* ``always`` — every append is written *and* fsynced before returning;
* ``batch`` — appends accumulate in an application-level buffer until
  :meth:`WriteAheadLog.sync` (the serving layer syncs once per
  acknowledged batch; checkpoints and ``close`` also sync);
* ``off`` — appends buffer and are written without ever fsyncing (the
  64 KiB threshold bounds the buffer); durability is best-effort.

The buffering is deliberately application-level over an *unbuffered* file
(``open(..., "ab", buffering=0)``): the file's content at any instant is
exactly the bytes a power loss would preserve, which is what lets the
fault-injection harness simulate a crash faithfully in-process by simply
discarding the buffer (:meth:`WriteAheadLog.simulate_crash`) — no OS page
cache to lie about what was durable.

**Recovery scan** (:func:`scan_segment`): records are read until the first
frame that fails its length or CRC check (:func:`walk_frames` says which).
A failure that extends to the end of the *last* segment is a **torn
tail** — the bytes a mid-write crash left behind — and is truncated away;
a failure anywhere else (mid-segment garbage, a non-final segment that
ends early, a bad magic header) is **corruption**, and the manager
quarantines the segment.  After recovery, appends always start a fresh
segment.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from repro.durability.faults import FaultInjector, InjectedCrash, fire

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "FSYNC_POLICIES",
    "SEGMENT_MAGIC",
    "SegmentScan",
    "WAL_HEADER_BYTES",
    "WriteAheadLog",
    "encode_frame",
    "list_segments",
    "resolve_fsync_policy",
    "resolve_segment_bytes",
    "scan_segment",
    "segment_filename",
    "unframe",
    "walk_frames",
]

#: First 8 bytes of every segment file.
SEGMENT_MAGIC = b"RWAL0001"

#: Offset of a segment's first record frame, and the canonical "start of
#: segment" position of the replication feed.
WAL_HEADER_BYTES = len(SEGMENT_MAGIC)

#: ``u32 length | u32 crc32``, little-endian.
_FRAME = struct.Struct("<II")

FSYNC_POLICIES = ("always", "batch", "off")

DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: The ``off`` policy still drains its buffer past this size.
_OFF_FLUSH_BYTES = 64 * 1024


def resolve_fsync_policy(policy: Optional[str] = None) -> str:
    """Explicit argument, else ``batch``."""
    if policy is None:
        return "batch"
    if policy not in FSYNC_POLICIES:
        raise ValueError(
            f"fsync policy must be one of {FSYNC_POLICIES}, got {policy!r}"
        )
    return policy


def resolve_segment_bytes(segment_bytes: Optional[int] = None) -> int:
    """Explicit argument, else 4 MiB."""
    if segment_bytes is None:
        return DEFAULT_SEGMENT_BYTES
    if segment_bytes < 1:
        raise ValueError(f"segment size must be positive, got {segment_bytes}")
    return segment_bytes


def segment_filename(number: int) -> str:
    return f"wal-{number:08d}.log"


def segment_number(filename: str) -> Optional[int]:
    if not (filename.startswith("wal-") and filename.endswith(".log")):
        return None
    digits = filename[4:-4]
    return int(digits) if digits.isdigit() else None


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(number, path)`` of every segment file, ascending."""
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        number = segment_number(name)
        if number is not None:
            found.append((number, os.path.join(directory, name)))
    return sorted(found)


def encode_frame(payload: bytes) -> bytes:
    """``payload`` framed as ``u32 length | u32 crc32 | payload``."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def walk_frames(
    data: bytes, pos: int, budget: Optional[int] = None
) -> Tuple[List[Tuple[int, int]], int, str]:
    """``(spans, end, reason)``: the complete, CRC-valid frames from ``pos``.

    ``spans`` are their ``(start, end)`` offsets, ``end`` where the walk
    stopped, ``reason`` why: ``""`` at the end of ``data`` or once the spans
    cover ``budget`` bytes, else ``"truncated frame header"``,
    ``"truncated payload"``, ``"crc mismatch"`` or ``"crc mismatch at
    tail"`` (the bad frame ends where ``data`` ends, like a torn final
    append).  A truncated payload may also be a corrupt length prefix.
    """
    size = len(data)
    spans: List[Tuple[int, int]] = []
    start = pos
    with memoryview(data) as view:
        while pos < size and (budget is None or pos - start < budget):
            if size - pos < _FRAME.size:
                return spans, pos, "truncated frame header"
            length, crc = _FRAME.unpack_from(data, pos)
            end = pos + _FRAME.size + length
            if end > size:
                return spans, pos, "truncated payload"
            if zlib.crc32(view[pos + _FRAME.size : end]) != crc:
                return spans, pos, "crc mismatch at tail" if end == size else "crc mismatch"
            spans.append((pos, end))
            pos = end
    return spans, pos, ""


def unframe(data: bytes) -> bytes:
    """The payload of ``data`` holding exactly one valid frame, else ``ValueError``."""
    spans, _, reason = walk_frames(data, 0)
    if reason or len(spans) != 1:
        raise ValueError(reason or f"{len(spans)} frames where one was expected")
    return data[_FRAME.size :]


def _fsync_directory(directory: str) -> None:
    """Make a file creation/rename durable (best effort off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class SegmentScan:
    """The result of scanning one segment file."""

    __slots__ = ("number", "path", "payloads", "status", "valid_bytes", "detail")

    def __init__(
        self,
        number: int,
        path: str,
        payloads: List[bytes],
        status: str,
        valid_bytes: int,
        detail: str = "",
    ) -> None:
        self.number = number
        self.path = path
        self.payloads = payloads  # the valid prefix, in order
        self.status = status  # "ok" | "torn" | "corrupt"
        self.valid_bytes = valid_bytes  # where the valid prefix ends
        self.detail = detail


def scan_segment(number: int, path: str, is_last: bool) -> SegmentScan:
    """Read one segment's valid record prefix and classify what follows.

    Torn (truncatable) requires *both* that the damage extends to the end
    of the file and that this is the final segment — only there can a crash
    mid-append explain the bytes.  Everything else is corruption: replay
    keeps the valid prefix but must not continue past the gap.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    tail_kind = "torn" if is_last else "corrupt"
    if not data:
        # A crash between segment creation and the header write, or a torn
        # tail a previous recovery truncated away entirely: no records were
        # ever durable here, so there is nothing lost and nothing to replay.
        return SegmentScan(number, path, [], "ok", 0, "empty segment")
    if len(data) < len(SEGMENT_MAGIC):
        if SEGMENT_MAGIC.startswith(data):
            # A crash mid-header (rotation) leaves a magic prefix.
            return SegmentScan(number, path, [], tail_kind, 0, "partial segment header")
        return SegmentScan(number, path, [], "corrupt", 0, "bad segment header")
    if data[:WAL_HEADER_BYTES] != SEGMENT_MAGIC:
        return SegmentScan(number, path, [], "corrupt", 0, "bad segment magic")
    spans, end, reason = walk_frames(data, WAL_HEADER_BYTES)
    payloads = [data[start + _FRAME.size : stop] for start, stop in spans]
    if not reason:
        return SegmentScan(number, path, payloads, "ok", len(data))
    # Truncation reaches EOF by definition; a CRC failure only explains
    # itself as a torn append when the bad frame ends there too.
    status = tail_kind if reason != "crc mismatch" else "corrupt"
    return SegmentScan(number, path, payloads, status, end, reason)


class WriteAheadLog:
    """Appends framed records to the current segment under one fsync policy."""

    def __init__(
        self,
        directory: str,
        *,
        fsync: Optional[str] = None,
        segment_bytes: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
        start_segment: Optional[int] = None,
    ) -> None:
        self.directory = directory
        self.policy = resolve_fsync_policy(fsync)
        self.segment_bytes = resolve_segment_bytes(segment_bytes)
        self._faults = faults
        self._buffer = bytearray()
        self._file: Optional[io.FileIO] = None
        self._segment = 0
        self._segment_written = 0
        self._closed = False
        self.records_appended = 0
        self.records_synced = 0
        self.syncs = 0
        self.rotations = 0
        self.bytes_written = 0
        if start_segment is None:
            existing = list_segments(directory)
            start_segment = (existing[-1][0] + 1) if existing else 1
        self._open_segment(start_segment, rotation=False)

    # ------------------------------------------------------------------ #
    @property
    def segment(self) -> int:
        """The segment number appends currently go to."""
        return self._segment

    @property
    def closed(self) -> bool:
        return self._closed

    def _open_segment(self, number: int, rotation: bool) -> None:
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, segment_filename(number))
        # Unbuffered: the file's bytes are exactly what a crash preserves.
        file = open(path, "ab", buffering=0)
        if rotation and fire(self._faults, "wal.mid_rotation"):
            file.write(SEGMENT_MAGIC[: len(SEGMENT_MAGIC) // 2])
            file.close()
            self._file = None
            raise InjectedCrash("wal.mid_rotation")
        file.write(SEGMENT_MAGIC)
        if self.policy != "off":
            os.fsync(file.fileno())
            _fsync_directory(self.directory)
        self._file = file
        self._segment = number
        self._segment_written = len(SEGMENT_MAGIC)

    # ------------------------------------------------------------------ #
    def append(self, payload: bytes) -> None:
        """Buffer one framed record; the policy decides when it hits disk."""
        self._check_open()
        frame = encode_frame(payload)
        if fire(self._faults, "wal.mid_record"):
            # The torn half of the physical write: earlier buffered-but-
            # unsynced records are lost (they were in the same doomed
            # buffer), and this frame reaches the file cut in half.
            self._buffer.clear()
            assert self._file is not None
            self._file.write(frame[: max(1, len(frame) // 2)])
            raise InjectedCrash("wal.mid_record")
        self._buffer += frame
        self.records_appended += 1
        if self.policy == "always":
            self._sync_buffer()
        elif self.policy == "off" and len(self._buffer) >= _OFF_FLUSH_BYTES:
            self._write_buffer()
        self._maybe_rotate()

    def sync(self) -> None:
        """Make every appended record durable (a no-op burden under ``off``)."""
        self._check_open()
        if self.policy == "off":
            self._write_buffer()
        else:
            self._sync_buffer()
        self._maybe_rotate()

    def rotate(self) -> int:
        """Seal the current segment and open the next; returns its number.

        The checkpoint writer calls this at capture time: everything before
        the returned segment is covered by the checkpoint.
        """
        self._check_open()
        if self.policy == "off":
            self._write_buffer()
        else:
            self._sync_buffer()
        assert self._file is not None
        self._file.close()
        self._file = None
        self.rotations += 1
        self._open_segment(self._segment + 1, rotation=True)
        return self._segment

    def close(self) -> None:
        """Flush (and fsync, policy permitting) then close the segment file."""
        if self._closed:
            return
        if self._file is not None:
            if self.policy == "off":
                self._write_buffer()
            else:
                self._sync_buffer()
            self._file.close()
            self._file = None
        self._closed = True

    def simulate_crash(self) -> None:
        """Drop the unwritten buffer and abandon the file — a power loss."""
        self._buffer.clear()
        if self._file is not None:
            self._file.close()
            self._file = None
        self._closed = True

    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("write-ahead log is closed")

    def _write_buffer(self) -> None:
        if not self._buffer:
            return
        assert self._file is not None
        self._file.write(bytes(self._buffer))
        written = len(self._buffer)
        self._segment_written += written
        self.bytes_written += written
        self._buffer.clear()
        self.records_synced = self.records_appended

    def _sync_buffer(self) -> None:
        if fire(self._faults, "wal.pre_fsync"):
            # The buffered records never reached the file: modelling the
            # worst case of a crash before (or during) the write+fsync.
            raise InjectedCrash("wal.pre_fsync")
        self._write_buffer()
        assert self._file is not None
        os.fsync(self._file.fileno())
        self.syncs += 1
        if fire(self._faults, "wal.post_fsync"):
            raise InjectedCrash("wal.post_fsync")

    def _maybe_rotate(self) -> None:
        if self._segment_written >= self.segment_bytes:
            self.rotate()

    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "segment": self._segment,
            "segment_bytes": self.segment_bytes,
            "records_appended": self.records_appended,
            "records_synced": self.records_synced,
            "buffered_bytes": len(self._buffer),
            "bytes_written": self.bytes_written,
            "syncs": self.syncs,
            "rotations": self.rotations,
        }

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.directory!r}, policy={self.policy}, "
            f"segment={self._segment}, appended={self.records_appended})"
        )
