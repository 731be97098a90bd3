"""Saving and loading built indexes.

Building an index costs a full pass over the collection plus the
optimization loop; a production deployment builds once and serves many
sessions.  This module persists a built
:class:`~repro.core.index.SetSimilarityIndex` -- embedder parameters,
plan, filter structures, simulated pages, vectors and the set store --
to a single file.

Format: a magic header + format version, then a pickle of the index
object (everything inside is plain Python/numpy state).  The version is
checked on load so stale files fail loudly rather than subtly.

Writes are crash-safe: the payload goes to a temporary file in the
target directory and is renamed into place with ``os.replace``, so a
failed or interrupted save leaves any pre-existing file untouched.
For a zero-copy format whose *open* is O(ms) instead of a full
deserialization, see :mod:`repro.exec.snapfile`.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

MAGIC = b"REPRO-SSI"
#: Bumped to 2 when the key fingerprint changed from blake2b to the
#: splitmix64 word fold: fingerprints are baked into every stored page,
#: so version-1 files must fail loudly rather than probe-miss silently.
#: Bumped to 3 when filter indexes began pickling their samplers'
#: stacked bit positions (every probe reads them).  Bumped to 4 when
#: hash tables began maintaining their bucket directories on every
#: write: a version-3 file may carry a stale (``None``) directory that
#: nothing rebuilds any more.  Bumped to 5 when the per-sid hash-array
#: and size dicts became one hash arena.
FORMAT_VERSION = 5

#: Indirection for fault-injection in tests (simulating a mid-write
#: failure without monkeypatching the global ``os`` module).
_fsync = os.fsync


class PersistenceError(RuntimeError):
    """Raised when a file is not a valid saved index."""


def save_index(index, path) -> None:
    """Serialize a built index to ``path``, atomically.

    The bytes are staged in a temporary file next to ``path`` and
    renamed over it only after a successful write + fsync; on any
    failure the temporary file is removed and a pre-existing ``path``
    is left exactly as it was.
    """
    path = Path(path)
    payload = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC)
            f.write(FORMAT_VERSION.to_bytes(2, "little"))
            f.write(payload)
            f.flush()
            _fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_index(path):
    """Load an index previously written by :func:`save_index`.

    Only load files you trust -- the payload is a pickle.  Short,
    empty or truncated files raise :class:`PersistenceError` (the
    header read is bounded, so a 1-byte file cannot masquerade as a
    surprising version number).
    """
    path = Path(path)
    header_len = len(MAGIC) + 2
    with open(path, "rb") as f:
        header = f.read(header_len)
        if len(header) < header_len:
            raise PersistenceError(
                f"{path} is not a saved index: only {len(header)} bytes, "
                f"shorter than the {header_len}-byte header"
            )
        if header[: len(MAGIC)] != MAGIC:
            raise PersistenceError(f"{path} is not a saved index (bad magic)")
        version = int.from_bytes(header[len(MAGIC):], "little")
        if version != FORMAT_VERSION:
            raise PersistenceError(
                f"{path} has format version {version}; this build reads {FORMAT_VERSION}"
            )
        try:
            return pickle.load(f)
        except EOFError as exc:
            raise PersistenceError(f"{path} is truncated: {exc}") from exc
        except pickle.UnpicklingError as exc:
            raise PersistenceError(f"{path} payload is corrupt: {exc}") from exc
