"""The WAL shipping feed: byte-addressed frame tailing and mirroring.

Replication ships the primary's WAL **verbatim**: a subscriber names a
``(segment, offset)`` byte position, the feed answers with the complete
record frames on disk past it, and the replica appends those frames —
header, CRC, payload, unchanged — into same-numbered local segment files.
The replica's WAL is therefore a byte-identical prefix of the primary's,
which buys the two properties failover needs:

* **crash-safe resume** — the replica's position is derived from its own
  files (:func:`wal_end_position`) after a normal recovery, so a crash
  between mirror-append and apply needs no separate position ledger:
  restart replays the local mirror, and re-fetching starts exactly where
  the durable bytes end.
* **bit-for-bit promotion** — a promoted replica recovers from the same
  bytes the primary would have, so its state is the primary's acknowledged
  prefix, not an approximation of it.

Positions advance across **rotation boundaries** deterministically: a
position at the exact end of a sealed segment (one a later segment
follows) normalizes to ``(next_segment, header)``, so a subscriber parked
at a rotation point resumes on the next segment without skipping or
duplicating a record (the ``tests/test_durability.py`` tailing cases).

Only bytes on disk ship.  Under every fsync policy the WAL's
application-level buffer drains to the file at the sync points, so the
shipped stream never contains a record the primary could still lose in a
crash — acked-before-shipped, by construction.
"""

from __future__ import annotations

import base64
import os
import shutil
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.checkpoint import list_checkpoints, read_manifest
from repro.durability.wal import (
    SEGMENT_MAGIC,
    WAL_HEADER_BYTES,
    list_segments,
    segment_filename,
    unframe,
    walk_frames,
)
from repro.errors import ReproError

__all__ = [
    "FeedChunk",
    "ReplicationError",
    "WAL_HEADER_BYTES",
    "append_mirror_frames",
    "count_lag",
    "install_bootstrap",
    "normalize_position",
    "package_bootstrap",
    "read_frames",
    "wal_end_position",
]

#: Default byte budget of one feed chunk (keeps long-poll responses and
#: replica apply batches bounded).
DEFAULT_MAX_BYTES = 1 << 20


class ReplicationError(ReproError):
    """A shipping-stream invariant broke (gap, divergence, bad frame)."""


class FeedChunk:
    """One feed response: frames plus where to resume and where the end is.

    ``status`` is ``"ok"`` (frames — possibly none — from a live stream),
    ``"pruned"`` (the requested segment was checkpoint-pruned away: the
    subscriber must bootstrap from a checkpoint), or ``"diverged"`` (the
    requested position does not exist in this WAL — the subscriber is
    ahead of, or forked from, this primary and must reseed).
    """

    __slots__ = ("status", "frames", "next", "end")

    def __init__(
        self,
        status: str,
        frames: List[Tuple[int, int, bytes]],
        next_position: Tuple[int, int],
        end_position: Tuple[int, int],
    ) -> None:
        self.status = status
        self.frames = frames  # (segment, offset, raw frame bytes), in order
        self.next = next_position
        self.end = end_position

    def __repr__(self) -> str:
        return (
            f"FeedChunk({self.status}, frames={len(self.frames)}, "
            f"next={self.next}, end={self.end})"
        )


# ---------------------------------------------------------------------- #
# Positions
# ---------------------------------------------------------------------- #

def wal_end_position(wal_dir: str) -> Tuple[int, int]:
    """The ``(segment, offset)`` one past the last durable byte.

    An empty (or missing) WAL directory is position ``(1, header)`` — the
    very first frame a segment-1 append would produce.
    """
    segments = list_segments(wal_dir)
    if not segments:
        return (1, WAL_HEADER_BYTES)
    number, path = segments[-1]
    try:
        size = os.path.getsize(path)
    except OSError:
        size = 0
    return (number, max(size, WAL_HEADER_BYTES))


def normalize_position(wal_dir: str, segment: int, offset: int) -> Tuple[int, int]:
    """Canonicalize a position: header-floor the offset, hop sealed ends.

    A position at (or past) the end of a segment that a *later* segment
    follows advances to the next segment's first frame; a position at the
    end of the live tail segment stays put (there is nothing to hop to
    yet).  ``segment`` 0 or negative means "from the very beginning".
    """
    if segment < 1:
        segment = 1
    offset = max(offset, WAL_HEADER_BYTES)
    by_number = dict(list_segments(wal_dir))
    while True:
        path = by_number.get(segment)
        if path is None:
            return (segment, offset)
        try:
            size = os.path.getsize(path)
        except OSError:
            return (segment, offset)
        if offset >= max(size, WAL_HEADER_BYTES) and (segment + 1) in by_number:
            segment += 1
            offset = WAL_HEADER_BYTES
            continue
        return (segment, offset)


# ---------------------------------------------------------------------- #
# Reading (the primary side of the feed)
# ---------------------------------------------------------------------- #

def read_frames(
    wal_dir: str,
    from_segment: int,
    from_offset: int,
    *,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> FeedChunk:
    """Complete record frames on disk past ``(from_segment, from_offset)``.

    Stops at the first incomplete or CRC-failing frame (an append or torn
    tail in progress — the bytes will be re-read complete on the next
    poll), at ``max_bytes``, or at the end of the durable stream.  Reading
    races appends harmlessly: frames are parsed from a point-in-time read
    of the file, and a partial trailing frame is simply not shipped yet.
    """
    segments = list_segments(wal_dir)
    end = wal_end_position(wal_dir)
    if not segments:
        position = (max(from_segment, 1), max(from_offset, WAL_HEADER_BYTES))
        return FeedChunk("ok", [], position, end)
    oldest = segments[0][0]
    newest = segments[-1][0]
    if max(from_segment, 1) < oldest:
        return FeedChunk("pruned", [], (from_segment, from_offset), end)
    segment, offset = normalize_position(wal_dir, from_segment, from_offset)
    if segment > newest:
        if segment == newest + 1 and offset == WAL_HEADER_BYTES:
            # Parked exactly where the next rotation will create a segment.
            return FeedChunk("ok", [], (segment, offset), end)
        return FeedChunk("diverged", [], (segment, offset), end)
    by_number = dict(segments)
    frames: List[Tuple[int, int, bytes]] = []
    shipped = 0
    while segment <= newest and shipped < max_bytes:
        path = by_number.get(segment)
        if path is None:
            # A hole in the numbering below the newest segment cannot come
            # from normal operation (pruning removes prefixes only).
            return FeedChunk(
                "diverged", frames, (segment, offset), wal_end_position(wal_dir)
            )
        try:
            with open(path, "rb") as handle:
                header = handle.read(WAL_HEADER_BYTES)
                size = os.fstat(handle.fileno()).st_size
                handle.seek(offset)
                data = handle.read()
        except FileNotFoundError:
            # Checkpoint-pruned between listing and reading.
            return FeedChunk("pruned", frames, (segment, offset), end)
        if header != SEGMENT_MAGIC:
            if segment == newest and len(header) < WAL_HEADER_BYTES:
                # A rotation in progress: the new segment exists but its
                # header is not durable yet.  Nothing to ship from it.
                break
            return FeedChunk("diverged", frames, (segment, offset), end)
        if offset > size:
            return FeedChunk("diverged", frames, (segment, offset), end)
        spans, walked, _ = walk_frames(data, 0, budget=max_bytes - shipped)
        for start, stop in spans:
            frames.append((segment, offset + start, data[start:stop]))
        shipped += walked
        offset += walked
        if shipped >= max_bytes:
            break
        if segment < newest and walked >= len(data):
            segment += 1
            offset = WAL_HEADER_BYTES
        else:
            break
    next_position = normalize_position(wal_dir, segment, offset)
    return FeedChunk("ok", frames, next_position, wal_end_position(wal_dir))


def count_lag(
    wal_dir: str, position: Tuple[int, int], end: Optional[Tuple[int, int]] = None
) -> Tuple[int, int]:
    """``(records, bytes)`` of durable stream between ``position`` and the end.

    What ``/health`` and ``/stats`` report as ``replication_lag``: the
    complete, CRC-valid frames a subscriber parked at ``position`` has not
    yet shipped — the frames :func:`read_frames` would ship, so the lag
    stops where the feed stops (a missing segment or an invalid frame).
    """
    if end is None:
        end = wal_end_position(wal_dir)
    segment, offset = normalize_position(wal_dir, *position)
    by_number = dict(list_segments(wal_dir))
    records = 0
    lag_bytes = 0
    while segment <= end[0] and segment in by_number:
        try:
            with open(by_number[segment], "rb") as handle:
                handle.seek(offset)
                data = handle.read(max(0, end[1] - offset) if segment == end[0] else -1)
        except OSError:
            break
        spans, walked, _ = walk_frames(data, 0)
        records += len(spans)
        lag_bytes += walked
        if walked < len(data):
            break
        segment, offset = segment + 1, WAL_HEADER_BYTES
    return records, lag_bytes


# ---------------------------------------------------------------------- #
# Mirroring (the replica side of the feed)
# ---------------------------------------------------------------------- #

def append_mirror_frames(
    wal_dir: str,
    frames: List[Tuple[int, int, bytes]],
    *,
    fsync: bool = True,
) -> Tuple[int, int]:
    """Append shipped frames verbatim into the local mirror segments.

    Each frame must land exactly at the current end of its segment file
    (frames already present are skipped — redelivery after a crash is
    idempotent); a frame that would leave a gap raises
    :class:`ReplicationError`, because a mirror with holes is not a prefix
    of the primary's WAL and must reseed instead.  Returns the mirror's
    end position.  ``fsync=True`` makes the appended frames durable before
    returning — the replica applies records only after this, so its engine
    state never runs ahead of its durable mirror across a crash.
    """
    os.makedirs(wal_dir, exist_ok=True)
    touched: Dict[str, Any] = {}
    try:
        for segment, offset, frame in frames:
            path = os.path.join(wal_dir, segment_filename(segment))
            handle = touched.get(path)
            if handle is None:
                handle = touched[path] = open(path, "ab", buffering=0)
                handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size < WAL_HEADER_BYTES:
                if size != 0:
                    raise ReplicationError(
                        f"mirror segment {segment_filename(segment)} has a "
                        f"partial header ({size} bytes); reseed required"
                    )
                handle.write(SEGMENT_MAGIC)
                size = WAL_HEADER_BYTES
            if offset < size:
                # Already mirrored (redelivery); verify length coherence
                # cheaply by requiring the claimed end not to pass our end.
                if offset + len(frame) > size:
                    raise ReplicationError(
                        f"mirror segment {segment_filename(segment)} diverges "
                        f"at offset {offset}; reseed required"
                    )
                continue
            if offset > size:
                raise ReplicationError(
                    f"shipped frame for segment {segment_filename(segment)} "
                    f"starts at {offset} but the mirror ends at {size}; "
                    f"a gap means lost frames — reseed required"
                )
            handle.write(frame)
        if fsync:
            for handle in touched.values():
                os.fsync(handle.fileno())
    finally:
        for handle in touched.values():
            handle.close()
    return wal_end_position(wal_dir)


# ---------------------------------------------------------------------- #
# Bootstrap (checkpoint shipping for cold or pruned-behind replicas)
# ---------------------------------------------------------------------- #

def package_bootstrap(checkpoint_root: str) -> Optional[Dict[str, Any]]:
    """The newest checkpoint directory, packaged for the wire.

    ``None`` when no checkpoint exists (the WAL then still starts at
    segment 1, so a cold subscriber needs no bootstrap).  Files travel
    base64-encoded; they are already CRC-framed internally, so the replica
    detects transit rot at install time via the normal checkpoint loader.
    """
    checkpoints = list_checkpoints(checkpoint_root)
    if not checkpoints:
        return None
    seq, path = checkpoints[-1]
    try:
        manifest = read_manifest(path)
        files = {}
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as handle:
                files[name] = base64.b64encode(handle.read()).decode("ascii")
    except (OSError, ValueError):
        # Pruned or damaged under us; the subscriber will retry.
        return None
    return {
        "seq": seq,
        "dirname": os.path.basename(path),
        "state_version": manifest["state_version"],
        "wal_start_segment": manifest["wal_start_segment"],
        "epoch": manifest.get("epoch", 0),
        "files": files,
    }


def install_bootstrap(data_dir: str, bootstrap: Dict[str, Any]) -> None:
    """Reseed a tenant directory from a shipped checkpoint package.

    Wipes the local WAL mirror and checkpoints (they are not a prefix of
    the stream the bootstrap belongs to), writes the shipped checkpoint
    directory atomically, and seeds the mirror with an empty (magic-only)
    segment at the checkpoint's ``wal_start_segment`` — so the replica's
    :func:`wal_end_position` lands exactly where the primary's stream
    resumes after the checkpoint, not back at segment 1.  The caller must
    have closed the tenant's engine and reopens it afterwards.
    """
    wal_dir = os.path.join(data_dir, "wal")
    checkpoint_root = os.path.join(data_dir, "checkpoints")
    shutil.rmtree(wal_dir, ignore_errors=True)
    shutil.rmtree(checkpoint_root, ignore_errors=True)
    os.makedirs(checkpoint_root, exist_ok=True)
    dirname = str(bootstrap["dirname"])
    if os.sep in dirname or dirname in (".", ".."):
        raise ReplicationError(f"bad bootstrap checkpoint dirname {dirname!r}")
    tmp = os.path.join(checkpoint_root, f".tmp-{dirname}")
    final = os.path.join(checkpoint_root, dirname)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    for name, encoded in bootstrap["files"].items():
        name = str(name)
        if os.sep in name or name in (".", ".."):
            raise ReplicationError(f"bad bootstrap file name {name!r}")
        with open(os.path.join(tmp, name), "wb") as handle:
            handle.write(base64.b64decode(encoded))
            handle.flush()
            os.fsync(handle.fileno())
    os.rename(tmp, final)
    start_segment = int(bootstrap.get("wal_start_segment", 1))
    os.makedirs(wal_dir, exist_ok=True)
    with open(os.path.join(wal_dir, segment_filename(start_segment)), "wb") as handle:
        handle.write(SEGMENT_MAGIC)
        handle.flush()
        os.fsync(handle.fileno())


# ---------------------------------------------------------------------- #
# Wire encoding of frames
# ---------------------------------------------------------------------- #

def encode_frames(frames: List[Tuple[int, int, bytes]]) -> List[Dict[str, Any]]:
    """Frames as JSON-safe objects (raw bytes base64-encoded)."""
    return [
        {
            "segment": segment,
            "offset": offset,
            "data": base64.b64encode(frame).decode("ascii"),
        }
        for segment, offset, frame in frames
    ]


def decode_frames(encoded: List[Dict[str, Any]]) -> List[Tuple[int, int, bytes]]:
    """Inverse of :func:`encode_frames`, with CRC re-verification.

    The frame's own CRC already covers the payload; re-checking here means
    a frame corrupted in transit is rejected before it can poison the
    mirror.
    """
    frames = []
    for entry in encoded:
        data = base64.b64decode(entry["data"])
        frame_payload(data)
        frames.append((int(entry["segment"]), int(entry["offset"]), data))
    return frames


def frame_payload(frame: bytes) -> bytes:
    """The record payload of one raw frame (header stripped, CRC checked)."""
    try:
        return unframe(frame)
    except ValueError as error:
        raise ReplicationError(f"shipped frame failed its check: {error}") from None
