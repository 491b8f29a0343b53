"""Snapshot checkpoints: per-store blobs plus a manifest, written atomically.

A checkpoint is a directory ``<checkpoints>/ckpt-00000042/`` holding

* one **blob file per store** (``blob-0000.bin``, …) — the store's
  ``(element, multiplicity)`` pairs in the pair codec, pickle fallback
  for codec-unsendable elements; each file is one WAL frame
  (:func:`~repro.durability.wal.encode_frame`) around ``kind byte +
  payload``, so load detects rot.
  The manifest lists a *list* of blobs per store: checkpoints written by
  sharded stores hold one blob per shard, and load still merges them;
* a **dictionaries blob** (the shredded input dictionaries) and a
  **shredder blob** (the label factory counter and value→label memo —
  what makes replayed label assignment deterministic);
* ``manifest.bin``, written **last**: engine ``state_version``, every
  dataset's schema, every view's spec (name, pinned strategy, pickled
  expression), and
  ``wal_start_segment`` — the WAL segment the log was rotated to at
  capture time, so replay starts exactly where the checkpoint's coverage
  ends.

**Capture never blocks writers**: the state it grabs is the storage
layer's frozen copy-on-write snapshots (``O(1)`` per store) plus an
``O(labels)`` copy of the dictionary entries and shredder state; the
``O(|DB|)`` encoding happens later, in :func:`write_checkpoint`, against
those immutable snapshots — the serving layer runs it on a handler thread
while the ingest worker keeps applying.

**Atomicity**: blobs are written into a ``.tmp-ckpt-*`` directory, each
file fsynced, the manifest written last, and the directory renamed into
place in one step.  A crash anywhere before the rename leaves only a tmp
directory (deleted on the next open); a crash after it leaves a complete,
valid checkpoint.  Load walks checkpoints newest-first and falls back past
any that fail CRC validation.
"""

from __future__ import annotations

import os
import pickle
import shutil
from typing import Any, Dict, List, Optional, Tuple

from repro.bag.bag import Bag
from repro.bag.codec import decode_bag, encode_bag
from repro.durability.faults import FaultInjector, InjectedCrash, fire
from repro.durability.records import (
    KIND_PICKLE,
    PICKLE_PROTOCOL,
    decode_blob,
    encode_blob,
)
from repro.durability.wal import _fsync_directory, encode_frame, unframe

__all__ = [
    "CheckpointCapture",
    "LoadedCheckpoint",
    "list_checkpoints",
    "load_newest_checkpoint",
    "read_manifest",
    "write_checkpoint",
]

_MANIFEST = "manifest.bin"


class CheckpointCapture:
    """Everything a checkpoint needs, pinned at one state version.

    Holds *frozen* bag snapshots (copy-on-write: retaining them is free
    until the next write touches the store) plus already-copied dictionary
    entries and pickled shredder state.  Safe to encode on another thread
    while the engine keeps applying updates.
    """

    __slots__ = (
        "state_version",
        "wal_start_segment",
        "datasets",
        "dictionaries",
        "shredder_blob",
        "views",
        "epoch",
    )

    def __init__(
        self,
        state_version: int,
        wal_start_segment: int,
        datasets: List[Dict[str, Any]],
        dictionaries: Dict[str, Dict[Any, Bag]],
        shredder_blob: bytes,
        views: List[Dict[str, Any]],
        epoch: int = 0,
    ) -> None:
        self.state_version = state_version
        self.wal_start_segment = wal_start_segment
        self.datasets = datasets
        self.dictionaries = dictionaries
        self.shredder_blob = shredder_blob
        self.views = views
        self.epoch = epoch


class LoadedCheckpoint:
    """A validated checkpoint: manifest plus decoded per-store bags."""

    __slots__ = ("seq", "path", "manifest", "bags", "dictionaries", "shredder_blob")

    def __init__(
        self,
        seq: int,
        path: str,
        manifest: Dict[str, Any],
        bags: Dict[str, Bag],
        dictionaries: Dict[str, Dict[Any, Bag]],
        shredder_blob: bytes,
    ) -> None:
        self.seq = seq
        self.path = path
        self.manifest = manifest
        self.bags = bags  # blob-list key → merged bag
        self.dictionaries = dictionaries
        self.shredder_blob = shredder_blob


# ---------------------------------------------------------------------- #
# Directory layout
# ---------------------------------------------------------------------- #

def checkpoint_dirname(seq: int) -> str:
    return f"ckpt-{seq:08d}"


def checkpoint_seq(dirname: str) -> Optional[int]:
    if not dirname.startswith("ckpt-"):
        return None
    digits = dirname[5:]
    return int(digits) if digits.isdigit() else None


def list_checkpoints(root: str) -> List[Tuple[int, str]]:
    """``(seq, path)`` of every finalized checkpoint directory, ascending."""
    found = []
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    for name in names:
        seq = checkpoint_seq(name)
        path = os.path.join(root, name)
        if seq is not None and os.path.isdir(path):
            found.append((seq, path))
    return sorted(found)


def next_checkpoint_seq(root: str) -> int:
    existing = list_checkpoints(root)
    return (existing[-1][0] + 1) if existing else 1


# ---------------------------------------------------------------------- #
# Framed file IO
# ---------------------------------------------------------------------- #

def _write_framed(path: str, payload: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(encode_frame(payload))
        handle.flush()
        os.fsync(handle.fileno())


def _read_framed(path: str) -> bytes:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return unframe(data)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


def _encode_blob(bag: Bag) -> bytes:
    kind, blob = encode_blob(bag, encode_bag)
    return bytes([kind]) + blob


def _decode_blob(payload: bytes) -> Bag:
    return decode_blob(payload[0], payload[1:], decode_bag)


# ---------------------------------------------------------------------- #
# Write
# ---------------------------------------------------------------------- #

def write_checkpoint(
    root: str,
    capture: CheckpointCapture,
    faults: Optional[FaultInjector] = None,
) -> Tuple[str, int]:
    """Encode a capture into ``root`` atomically; returns ``(path, seq)``."""
    os.makedirs(root, exist_ok=True)
    seq = next_checkpoint_seq(root)
    tmp = os.path.join(root, f".tmp-{checkpoint_dirname(seq)}")
    final = os.path.join(root, checkpoint_dirname(seq))
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    blob_counter = 0

    def _next_blob(payload: bytes) -> str:
        nonlocal blob_counter
        name = f"blob-{blob_counter:04d}.bin"
        blob_counter += 1
        _write_framed(os.path.join(tmp, name), payload)
        if fire(faults, "checkpoint.mid_write"):
            raise InjectedCrash("checkpoint.mid_write")
        return name

    datasets_meta: List[Dict[str, Any]] = []
    for entry in capture.datasets:
        datasets_meta.append(
            {
                "name": entry["name"],
                "schema": entry["schema"],
                "nested_blobs": [_next_blob(_encode_blob(entry["nested_bag"]))],
                "flat_blobs": [_next_blob(_encode_blob(entry["flat_bag"]))],
            }
        )
    dictionaries_blob = _next_blob(
        bytes([KIND_PICKLE])
        + pickle.dumps(capture.dictionaries, protocol=PICKLE_PROTOCOL)
    )
    shredder_blob = _next_blob(bytes([KIND_PICKLE]) + capture.shredder_blob)
    manifest = {
        "format": 1,
        "seq": seq,
        "state_version": capture.state_version,
        "wal_start_segment": capture.wal_start_segment,
        # The replication epoch at capture time.  Checkpoints double as the
        # bootstrap a cold replica seeds from, so the fencing epoch must
        # travel with them (readers default a missing key to 0 — manifests
        # from before replication existed stay loadable).
        "epoch": capture.epoch,
        "datasets": datasets_meta,
        "dictionaries_blob": dictionaries_blob,
        "shredder_blob": shredder_blob,
        "views": capture.views,
    }
    _write_framed(
        os.path.join(tmp, _MANIFEST), pickle.dumps(manifest, protocol=PICKLE_PROTOCOL)
    )
    if fire(faults, "checkpoint.pre_rename"):
        raise InjectedCrash("checkpoint.pre_rename")
    os.rename(tmp, final)
    _fsync_directory(root)
    if fire(faults, "checkpoint.post_rename"):
        raise InjectedCrash("checkpoint.post_rename")
    return final, seq


# ---------------------------------------------------------------------- #
# Load
# ---------------------------------------------------------------------- #

def read_manifest(path: str) -> Dict[str, Any]:
    """Decode one checkpoint's manifest without loading its blobs."""
    manifest = pickle.loads(_read_framed(os.path.join(path, _MANIFEST)))
    if manifest.get("format") != 1:
        raise ValueError(f"{path}: unknown manifest format {manifest.get('format')!r}")
    return manifest


def _read_checkpoint(seq: int, path: str) -> LoadedCheckpoint:
    manifest = read_manifest(path)
    bags: Dict[str, Bag] = {}
    for entry in manifest["datasets"]:
        for side in ("nested", "flat"):
            merged: List[Tuple[Any, int]] = []
            for blob_name in entry[f"{side}_blobs"]:
                part = _decode_blob(_read_framed(os.path.join(path, blob_name)))
                merged.extend(part.items())
            # Checkpoints of sharded stores split a store over several
            # blobs holding disjoint elements, so folding is a plain union.
            bags[f"{side}:{entry['name']}"] = Bag.from_pairs(merged)
    dict_payload = _read_framed(os.path.join(path, manifest["dictionaries_blob"]))
    if dict_payload[0] != KIND_PICKLE:
        raise ValueError(f"{path}: bad dictionaries blob")
    dictionaries = pickle.loads(dict_payload[1:])
    shredder_payload = _read_framed(os.path.join(path, manifest["shredder_blob"]))
    if shredder_payload[0] != KIND_PICKLE:
        raise ValueError(f"{path}: bad shredder blob")
    return LoadedCheckpoint(seq, path, manifest, bags, dictionaries, shredder_payload[1:])


def load_newest_checkpoint(
    root: str,
) -> Tuple[Optional[LoadedCheckpoint], List[Dict[str, str]]]:
    """The newest checkpoint that validates, plus the ones that did not.

    Walks finalized checkpoints newest-first; any that fail to read
    (missing files, CRC mismatches, undecodable manifests) are reported in
    the second element for the manager to quarantine, and the walk falls
    back to the next older one.
    """
    discarded: List[Dict[str, str]] = []
    for seq, path in sorted(list_checkpoints(root), reverse=True):
        try:
            return _read_checkpoint(seq, path), discarded
        except Exception as error:  # noqa: BLE001 - any damage means fall back
            discarded.append(
                {"path": path, "reason": f"{type(error).__name__}: {error}"}
            )
    return None, discarded
