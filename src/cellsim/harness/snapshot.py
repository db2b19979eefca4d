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
#: Raised whenever the pickled payload changes shape (the history is in the
#: version control log).  Version 7: the engine keeps a one-round transfer
#: list, not a due-time queue, and brokers keep their constraint matches.
VERSION = 7


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
