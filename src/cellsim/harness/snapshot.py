"""Versioned, checksummed snapshots of a paused simulation.

A snapshot captures everything the deterministic scheduler needs to resume
bit-identically: cell state, engine state, rng states and the tick index.
Event sources are not serialized; they are deterministic, so resuming
replays and discards the already-consumed windows instead.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from pathlib import Path

MAGIC = b"CSIMSNAP"
#: Version 2: the broker cache became a plain dict and the engine's writers
#: left its config, so version-1 pickles no longer load.  Version 3: the
#: payload carries the anomaly counts, which a resumed run restores.
#: Version 4: the pickled cell changed shape (each node holds its residents
#: and load sums, ``pending`` is a dict, the cell holds the anomaly sink)
#: and node agents no longer carry their own copy of those sums.  Version 5:
#: node agents and broker cache entries read totals and attributes from the
#: cell, and the engine keeps no negotiation-source index.  Version 6: the
#: cell holds a migration profile, no cost model or sink.
VERSION = 6


class SnapshotError(RuntimeError):
    """Unreadable, corrupted or version-mismatched snapshot file."""


def save_snapshot(path: Path, payload: object) -> None:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(digest)
        fh.write(body)


def load_snapshot(path: Path) -> object:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    header_len = len(MAGIC) + 4 + 32
    if len(raw) < header_len or raw[: len(MAGIC)] != MAGIC:
        raise SnapshotError(f"{path} is not a snapshot file")
    (version,) = struct.unpack("<I", raw[len(MAGIC): len(MAGIC) + 4])
    if version != VERSION:
        raise SnapshotError(f"snapshot version {version} unsupported (expected {VERSION})")
    digest = raw[len(MAGIC) + 4: header_len]
    body = raw[header_len:]
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotError(f"{path} is corrupted (checksum mismatch)")
    return pickle.loads(body)
