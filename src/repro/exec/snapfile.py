"""Snapshot directories: the one on-disk format of a built index.

``SetSimilarityIndex.save(path)`` writes a frozen
:class:`~repro.exec.snapshot.IndexSnapshot` (``index.freeze()``) as a
**directory of aligned raw numpy arrays** plus a JSON manifest;
``SetSimilarityIndex.load(path)`` thaws it back into a live index
through the bulk build path.  :func:`open_snapshot` maps the same
directory for serving: it parses the manifest and builds ``np.memmap``
views over one arrays file, so opening is O(ms) regardless of
collection size, array bytes are paged in as queries touch them, and
every process that opens the snapshot shares one page cache (the
substrate of the ``backend="process"`` executor).  Reading a snapshot
never runs stored code: every byte is JSON or a typed array.

Layout of a snapshot directory::

    manifest.json   format name + version; embedder parameters (k, b,
                    seed, codec), the plan, the D_S histogram, planner
                    and cost-model constants, the next sid to assign,
                    per-filter parameters and table bounds; per array
                    its dtype/shape/offset/crc32
    arrays.bin      every array, 64-byte aligned, in manifest order

The arrays: the ``(N, k)`` signature code matrix (each set's ``k``
MinHash values mod ``2**b``, ``uint8`` up to b = 8, else ``uint16``;
the packed Hamming vectors are derived from it, never stored), the CSR
of each set's sorted element hashes (the one element hash,
:func:`~repro.core.minhash.stable_element_hash`, whose values the
signatures were computed from; a lone-surrogate ``str`` hashes as it is
stored) and set sizes, the per-row fetch costs, per
filter (``f###_<field>``) its ``(l, r)`` sampled bit positions and its
:class:`~repro.storage.hashtable.TableStack` arrays (the manifest names
each table's bucket count and run offsets), and the set elements,
columnar: ``int64`` when every element is a builtin int in int64 range,
else ``tagged`` -- a type tag and a byte payload per element, for ints
of any size, floats, complex numbers, strs and bytes; any other element
type is refused at save with :class:`SnapshotError`.  The exact
verification fallback materializes ``frozenset`` objects lazily, one
set at a time (``snapshot.sets_materialized`` counts them).

A save is staged in a sibling directory and committed by pointing
``path`` -- a symlink -- at it with one atomic rename: a failed save
leaves an earlier snapshot at ``path`` as it was, and a process that
mapped the old one keeps its pages.

Integrity: format, version, file sizes, disjoint array extents, every
array's dtype, rank and shape, the type and range of every manifest
field, and that the manifest's embedder re-signs one stored set to its
stored codes are checked at every open.  Per-array crc32 and content checks
are opt-in (``verify=True`` / :func:`verify_snapshot`) to keep opening
O(ms); ``load`` reads every byte anyway, so it always verifies.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import struct
import uuid
import zlib
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from repro.core.codec import CodecError
from repro.core.distribution import SimilarityDistribution
from repro.core.embedding import SetEmbedder
from repro.core.filter_index import FrozenFilterProbe
from repro.core.optimizer import IndexPlan, PlannedFilter
from repro.core.planner import QueryPlanner
from repro.exec.snapshot import IndexSnapshot
from repro.obs import metrics, trace
from repro.storage.hashtable import TableStack
from repro.storage.iomodel import IOCostModel

FORMAT_NAME = "repro-ssi-snapshot"
#: v7: each set's signature is stored as its codes (``code_matrix``),
#: not as the packed vector matrix v6 stored.  Since v6 the verify rows
#: (``set_data``) hold the one element hash,
#: :func:`~repro.core.minhash.stable_element_hash` -- the values the
#: signatures are computed from.  Since v5 the one on-disk format:
#: embedder, plan, D_S and planner statistics in the manifest, sampled
#: bit positions as arrays, set elements ``int64`` or ``tagged``, and
#: the next sid to assign, so a live index thaws from it.  The only
#: version read; re-save older directories from a live index.
FORMAT_VERSION = 7

#: Byte alignment of every array in ``arrays.bin`` (cache-line sized,
#: and a multiple of every dtype's itemsize so views never misalign).
ALIGNMENT = 64

MANIFEST_FILE = "manifest.json"
ARRAYS_FILE = "arrays.bin"

#: Indirection for fault injection in tests (a failing write without
#: monkeypatching the global ``os`` module).
_fsync = os.fsync

_SAVES = metrics.counter("snapshot.saves")
_OPENS = metrics.counter("snapshot.opens")
_ARRAYS_MAPPED = metrics.counter("snapshot.arrays_mapped")
_BYTES_MAPPED = metrics.counter("snapshot.bytes_mapped")
#: Lazy ``frozenset`` materializations -- each one touches (faults in)
#: that set's slice of the element arrays, so this is the mmap
#: page-fault proxy for the exact-verification fallback path.
_SETS_MATERIALIZED = metrics.counter("snapshot.sets_materialized")


class SnapshotError(RuntimeError):
    """A path is not a usable snapshot (missing/garbled files), or an
    index cannot be saved as one."""


class SnapshotFormatError(SnapshotError):
    """The snapshot's format, version or manifest is not one this build
    reads."""


class SnapshotIntegrityError(SnapshotError):
    """Stored bytes disagree with the manifest (truncation/corruption)."""


# -- the array pack layer (exposed for property tests) ---------------------


def write_arrays(path, arrays: dict[str, np.ndarray]) -> dict[str, dict]:
    """Write arrays back-to-back, ``ALIGNMENT``-aligned, to one file.

    Returns the manifest specs: per array name its dtype string, shape,
    byte offset, byte length and crc32, in file order.
    """
    specs: dict[str, dict] = {}
    offset = 0
    with open(path, "wb") as f:
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            pad = (-offset) % ALIGNMENT
            if pad:
                f.write(b"\x00" * pad)
                offset += pad
            data = array.tobytes()
            f.write(data)
            specs[name] = {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": len(data),
                "crc32": zlib.crc32(data),
            }
            offset += len(data)
        f.flush()
        _fsync(f.fileno())
    return specs


def _parse_spec(name: str, spec) -> tuple:
    """``(dtype, shape, offset, nbytes)`` of a well-typed, consistent spec."""
    try:
        dtype, shape = np.dtype(spec["dtype"]), tuple(spec["shape"])
        offset, nbytes = spec["offset"], spec["nbytes"]
        typed = type(spec["dtype"]) is str and all(
            type(v) is int for v in (offset, nbytes, *shape)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"array {name!r}: malformed spec {spec!r}") from exc
    if (
        not typed or dtype.kind not in "biufc" or min(shape, default=0) < 0
        or offset < 0 or offset % dtype.itemsize
        or nbytes != math.prod(shape) * dtype.itemsize
    ):
        raise SnapshotFormatError(
            f"array {name!r}: {nbytes} bytes at offset {offset} cannot "
            f"hold shape {shape} of {dtype}"
        )
    return dtype, shape, offset, nbytes


def open_arrays(path, specs: dict[str, dict], verify: bool = False) -> dict[str, np.ndarray]:
    """Map every spec'd array as a read-only view over one ``np.memmap``.

    Structural validation (well-typed specs, offsets non-negative and
    item-aligned, lengths matching dtype x shape, extents inside the
    file and disjoint) always runs; ``verify=True`` additionally checks
    every array's crc32 (reads all bytes -- no longer O(ms)).
    """
    size = os.path.getsize(path)
    parsed = {name: _parse_spec(name, spec) for name, spec in specs.items()}
    end, last = 0, None
    for name, (_, _, offset, nbytes) in sorted(
        parsed.items(), key=lambda item: item[1][2]
    ):
        if not nbytes:
            continue
        if offset < end:
            raise SnapshotFormatError(
                f"array {name!r} at byte {offset} overlaps {last!r}, "
                f"which ends at byte {end}"
            )
        end, last = offset + nbytes, name
    if end > size:
        raise SnapshotIntegrityError(
            f"array {last!r} extends to byte {end} but {path} holds "
            f"only {size}: truncated arrays file"
        )
    buf = np.memmap(path, dtype=np.uint8, mode="r") if size else None
    arrays: dict[str, np.ndarray] = {}
    for name, (dtype, shape, offset, nbytes) in parsed.items():
        if nbytes == 0:
            arrays[name] = np.empty(shape, dtype=dtype)
            continue
        raw = buf[offset: offset + nbytes]
        if verify and zlib.crc32(raw) != specs[name].get("crc32"):
            raise SnapshotIntegrityError(
                f"array {name!r} fails its checksum: snapshot is corrupt"
            )
        # Hand out plain ndarray views of the mapping: np.memmap runs
        # Python-level hooks on every slice, which the table probes and
        # CSR gathers would pay per access.
        arrays[name] = raw.view(dtype).reshape(shape).view(np.ndarray)
    return arrays


#: Per-filter stacked table arrays (``f###_<field>``) and their dtypes:
#: the array attributes of a :class:`~repro.storage.hashtable.TableStack`.
_TABLE_FIELDS = {
    "chain_pages": "<i8", "run_fps": "<u8", "run_indptr": "<i8",
    "run_sids": "<i8",
}

#: Dtype and shape of every fixed-name array, checked at every open: a
#: dimension is ``"n"`` (the set count), ``"n+1"``, ``"k"`` (signature
#: length), ``"tags+1"``, or None (any length); the dtype ``"codes"`` is
#: the embedder's ``code_dtype``.
_ARRAY_TYPES = {
    "sid_array": ("<i8", ("n",)), "code_matrix": ("codes", ("n", "k")),
    "set_indptr": ("<i8", ("n+1",)), "set_data": ("<u8", (None,)),
    "set_sizes": ("<i8", ("n",)), "fetch_random": ("<i8", ("n",)),
    "fetch_seq": ("<i8", ("n",)), "fallback_array": ("<i8", (None,)),
}
#: The element arrays of each set encoding, typed the same way.
_ELEMENT_ARRAYS = {
    "int64": {"elem_indptr": ("<i8", ("n+1",)), "elem_data": ("<i8", (None,))},
    "tagged": {
        "elem_indptr": ("<i8", ("n+1",)), "elem_tags": ("|u1", (None,)),
        "elem_bytes_indptr": ("<i8", ("tags+1",)), "elem_bytes": ("|u1", (None,)),
    },
}
_COSTS = ("seq_cost", "random_cost", "cpu_cost")
#: An embedder is immutable and costs more to build than the rest of an
#: open, so the snapshots of one process (a fleet's shards) share them.
_embedder = lru_cache(maxsize=64)(SetEmbedder)


# -- set-element encodings -------------------------------------------------

#: The ``tagged`` element types, a type's tag being its index: each
#: with its payload encoder and decoder.
_TAGGED = (
    (int, lambda e: e.to_bytes(e.bit_length() // 8 + 1, "little", signed=True),
     lambda p: int.from_bytes(p, "little", signed=True)),
    (float, struct.Struct("<d").pack, lambda p: struct.unpack("<d", p)[0]),
    (complex, lambda e: struct.pack("<2d", e.real, e.imag),
     lambda p: complex(*struct.unpack("<2d", p))),
    (str, lambda e: e.encode("utf-8", "surrogatepass"),
     lambda p: p.decode("utf-8", "surrogatepass")),
    (bytes, bytes, bytes),
)
_TAG_OF = {kind: tag for tag, (kind, _, _) in enumerate(_TAGGED)}


def _csr_indptr(lengths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _encode_sets(sets_in_order: list[frozenset]):
    """``(encoding, arrays)``: the stored sets' elements, columnar.

    ``"int64"`` when every element is a builtin int in int64 range,
    else ``"tagged"``; an element of any other type raises
    :class:`SnapshotError` before anything is written.
    """
    indptr = _csr_indptr([len(s) for s in sets_in_order])
    if all(
        type(e) is int and -(2 ** 63) <= e < 2 ** 63
        for s in sets_in_order for e in s
    ):
        data = np.fromiter(
            (e for s in sets_in_order for e in sorted(s)),
            dtype=np.int64, count=int(indptr[-1]),
        )
        return "int64", {"elem_indptr": indptr, "elem_data": data}
    tags, payloads = [], []
    for s in sets_in_order:
        for e in s:
            tag = _TAG_OF.get(type(e))
            if tag is None:
                raise SnapshotError(
                    f"cannot save set element {e!r} of type {type(e).__name__}: "
                    "a snapshot stores int, float, complex, str and bytes elements"
                )
            tags.append(tag)
            payloads.append(_TAGGED[tag][1](e))
    return "tagged", {
        "elem_indptr": indptr,
        "elem_tags": np.asarray(tags, dtype=np.uint8),
        "elem_bytes_indptr": _csr_indptr([len(p) for p in payloads]),
        "elem_bytes": np.frombuffer(b"".join(payloads), dtype=np.uint8),
    }


def _decode_tagged(tags: np.ndarray, bounds: np.ndarray, blob: np.ndarray) -> list:
    """The elements of a run of ``tagged`` entries: ``tags`` and their
    ``len(tags) + 1`` payload ``bounds`` into ``blob``."""
    base = int(bounds[0])
    raw = blob[base:int(bounds[-1])].tobytes()
    cuts = (bounds - base).tolist()
    decode = [d for _, _, d in _TAGGED]
    try:
        return [
            decode[tag](raw[cuts[i]:cuts[i + 1]])
            for i, tag in enumerate(tags.tolist())
        ]
    except (IndexError, ValueError, struct.error) as exc:
        raise SnapshotIntegrityError(f"corrupt tagged set elements: {exc}") from exc


class _LazySets(dict):
    """``sid -> frozenset``, each set materialized (and memoized) on first
    access: cold serving never pages in the whole element file."""

    def __init__(self, load):
        super().__init__()
        self._load = load

    def __missing__(self, sid: int) -> frozenset:
        got = self[sid] = self._load(sid)
        _SETS_MATERIALIZED.inc()
        return got


# -- the mapped snapshot ---------------------------------------------------


class MappedSnapshot(IndexSnapshot):
    """An :class:`~repro.exec.snapshot.IndexSnapshot` whose bulk state
    lives in ``np.memmap`` views over one snapshot directory.

    Query semantics, page charges and counter movements are identical
    to a live ``index.freeze()`` snapshot -- the executor equivalence
    suites run unchanged over either.  Python objects the hot path
    derives from the arrays are built on first use and cached.
    """

    @cached_property
    def sets(self) -> _LazySets:
        row_of = self.row_of
        return _LazySets(
            lambda sid: frozenset(self._elements(row_of[sid], row_of[sid] + 1))
        )

    def _elements(self, start: int, stop: int) -> list:
        """The elements of rows ``start .. stop - 1``, concatenated."""
        a, b = self.elem_indptr[[start, stop]].tolist()
        if self.sets_encoding == "int64":
            return self.elem_data[a:b].tolist()
        return _decode_tagged(
            self.elem_tags[a:b], self.elem_bytes_indptr[a:b + 1], self.elem_bytes
        )

    def all_sets(self) -> list[frozenset]:
        """Every stored set, in row (ascending sid) order, decoded in one pass."""
        flat = self._elements(0, self.n_sets)
        bounds = self.elem_indptr.tolist()
        return [frozenset(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


# -- save ------------------------------------------------------------------


def save_snapshot(snapshot: IndexSnapshot, path) -> Path:
    """Serialize an ``index.freeze()`` image (not a :class:`MappedSnapshot`:
    save from the live index) as a snapshot directory at ``path``,
    staged beside it and committed atomically (:func:`_commit`): a failed
    save leaves whatever was at ``path`` untouched and nothing behind."""
    if isinstance(snapshot, MappedSnapshot):
        raise SnapshotError(
            "cannot re-save a mapped snapshot; save from a live index.freeze()"
        )
    path = Path(path)
    if path.is_dir() and not path.is_symlink() and any(path.iterdir()):
        raise SnapshotError(f"{path} is a non-empty directory; refusing to replace it")
    with trace.span("snapshot_save", path=str(path)) as sp:
        sids = snapshot.sids
        encoding, set_arrays = _encode_sets([snapshot.sets[sid] for sid in sids])
        arrays = {name: getattr(snapshot, name) for name in _ARRAY_TYPES}
        arrays.update(set_arrays)
        filter_meta: list[dict] = []
        for kind, filters in (("sfi", snapshot.sfis), ("dfi", snapshot.dfis)):
            for point in sorted(filters):
                fp, prefix = filters[point], f"f{len(filter_meta):03d}_"
                arrays[prefix + "positions"] = fp.positions
                for field in _TABLE_FIELDS:
                    arrays[prefix + field] = getattr(fp.stack, field)
                filter_meta.append({
                    "kind": kind, "point": point, "threshold": fp.threshold,
                    "sigma_point": fp.sigma_point, "r": fp.r, "l": fp.n_tables,
                    "n_buckets": fp.stack.n_buckets.tolist(),
                    "run_offsets": fp.stack.run_offsets.tolist(),
                })
        embedder, planner, cost = snapshot.embedder, snapshot.planner, snapshot.cost
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "codec": embedder.codec,
            "embedder": {"k": embedder.k, "b": embedder.b, "seed": embedder.seed},
            "plan": dataclasses.asdict(snapshot.plan),
            "distribution": {
                "mass": planner.distribution.mass.tolist(),
                "n_sets": planner.distribution.n_sets,
            },
            "avg_set_size": planner.avg_set_size,
            "n_sets": len(sids),
            "next_sid": snapshot.next_sid,
            "n_bits": snapshot.n_bits,
            "scan_pages": snapshot.scan_pages,
            "page_size": snapshot.page_size,
            "cost": {key: getattr(cost, key) for key in _COSTS},
            "sets_encoding": encoding,
            "filters": filter_meta,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        staged = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}")
        staged.mkdir()
        try:
            manifest["arrays"] = write_arrays(staged / ARRAYS_FILE, arrays)
            manifest["arrays_bytes"] = os.path.getsize(staged / ARRAYS_FILE)
            with open(staged / MANIFEST_FILE, "w") as f:
                json.dump(manifest, f)
                f.flush()
                _fsync(f.fileno())
            _commit(staged, path)
        except BaseException:
            shutil.rmtree(staged, ignore_errors=True)
            raise
        if sp.recording:
            sp.set(n_arrays=len(arrays), arrays_bytes=manifest["arrays_bytes"],
                   n_sets=len(sids), sets_encoding=encoding)
    _SAVES.inc()
    return path


def _commit(staged: Path, path: Path) -> None:
    """Point ``path`` (a symlink) at the staged directory with one atomic
    rename, then remove the generation it replaced (or an empty dir)."""
    link = staged.with_name(staged.name + ".link")
    os.symlink(staged.name, link)
    old = None
    try:
        if path.is_symlink():
            target = os.readlink(path)
            if "/" not in target and target.startswith(f".{path.name}."):
                old = path.with_name(target)
        elif path.is_dir():
            path.rmdir()
        os.replace(link, path)
    except BaseException:
        link.unlink(missing_ok=True)
        raise
    if old is not None:
        shutil.rmtree(old, ignore_errors=True)


# -- open ------------------------------------------------------------------

_REAL = (int, float)


def _get(where, key, kinds, lo=None, hi=None, name: str = ""):
    """``where[key]`` if it is one of ``kinds`` (never a bool standing
    in for a number) inside ``[lo, hi]``; else a
    :class:`SnapshotFormatError` naming the manifest field."""
    try:
        value = where[key]
    except (KeyError, IndexError, TypeError):
        value = None
    if (
        not isinstance(value, kinds) or isinstance(value, bool)
        or lo is not None and not lo <= value
        or hi is not None and not value <= hi
    ):
        raise SnapshotFormatError(
            f"manifest field {name}{key!r} is missing or out of range: {value!r}"
        )
    return value


def _each(where, key, kinds, lo=None, hi=None, name: str = "", min_len: int = 0):
    """``where[key]``: a list of at least ``min_len`` numbers of ``kinds``
    (``int`` or ``_REAL``) inside ``[lo, hi]``."""
    values = _get(where, key, list, name=name)
    try:
        array = np.asarray(values, dtype=None if values else np.int64)
        ok = (
            len(values) >= min_len and array.ndim == 1
            and array.dtype.kind in ("i" if kinds is int else "if")
            and (not values or (lo is None or lo <= array.min())
                 and (hi is None or array.max() <= hi))
        )
    except (ValueError, TypeError):
        ok = False
    if not ok:
        raise SnapshotFormatError(f"manifest field {name}{key!r} is not a list of "
                                  f"at least {min_len} {kinds} in [{lo}, {hi}]")
    return values


def _check_array(specs: dict, name: str, dtype: str, shape: tuple) -> None:
    """Refuse an array whose manifest spec is not the dtype and shape
    (``None``: any length) the layout fixes."""
    spec = specs.get(name)
    got = spec.get("shape") if isinstance(spec, dict) else None
    if (
        not isinstance(got, list) or spec.get("dtype") != dtype or len(got) != len(shape)
        or any(want not in (None, have) for want, have in zip(shape, got))
    ):
        raise SnapshotFormatError(
            f"array {name!r} must be a {dtype} array of shape {shape} "
            f"(None: any), manifest says {spec}"
        )


def _open_stack(
    prefix: str, meta: dict, specs: dict, arrays: dict, verify: bool
) -> TableStack:
    """Wrap one filter's mapped table arrays as a
    :class:`~repro.storage.hashtable.TableStack`, refusing arrays and
    table bounds that do not fit each other (from the manifest alone);
    ``verify=True`` also reads the arrays to check the order the probe's
    binary search and run slicing rely on."""
    for field, dtype in _TABLE_FIELDS.items():
        _check_array(specs, prefix + field, dtype, (None,))
    n_pages, n_runs, n_indptr, n_sids = (
        specs[prefix + field]["shape"][0] for field in _TABLE_FIELDS
    )
    n_buckets = _each(meta, "n_buckets", int, 1, name=prefix, min_len=1)
    run_offsets = _each(meta, "run_offsets", int, 0, name=prefix, min_len=1)
    if (
        len(n_buckets) != meta["l"] or len(run_offsets) != meta["l"] + 1
        or run_offsets[0] != 0 or run_offsets[-1] != n_runs
        or any(b < a for a, b in zip(run_offsets, run_offsets[1:]))
        or n_pages != sum(n_buckets) or n_indptr != n_runs + 1
    ):
        raise SnapshotFormatError(
            f"filter {prefix!r}: its {meta['l']} tables' bounds do not fit "
            f"its arrays ({n_pages} chain_pages for buckets {n_buckets}, "
            f"{n_indptr} run_indptr and run_offsets {run_offsets} for "
            f"{n_runs} run_fps)"
        )
    stack = TableStack(
        n_buckets, arrays[prefix + "chain_pages"], run_offsets,
        *(arrays[prefix + field] for field in ("run_fps", "run_indptr", "run_sids")),
    )
    if verify:
        fps = stack.run_fps
        # Strictly ascending inside each table; a table starts afresh.
        rises = fps[1:] > fps[:-1]
        cuts = np.asarray(run_offsets[1:-1], dtype=np.int64)
        rises[cuts[(cuts > 0) & (cuts < n_runs)] - 1] = True
        if not rises.all() or not _rises(stack.run_indptr, n_sids):
            raise SnapshotIntegrityError(
                f"filter {prefix!r}: run_fps must ascend strictly within "
                f"each table and run_indptr must rise from 0 to {n_sids}"
            )
    return stack


def _rises(indptr: np.ndarray, end: int) -> bool:
    """Whether a CSR ``indptr`` rises (weakly) from 0 to ``end``."""
    return bool(
        len(indptr) and indptr[0] == 0 and indptr[-1] == end
        and not np.any(indptr[1:] < indptr[:-1])
    )


def _plan(doc: dict) -> IndexPlan:
    """The index plan from its manifest JSON."""
    at, b = "plan.", doc.get("b")
    return IndexPlan(
        cut_points=_each(doc, "cut_points", _REAL, 0.0, 1.0, at),
        filters=[
            PlannedFilter(
                _get(f, "point", _REAL, 0.0, 1.0, at), _get(f, "kind", str, name=at),
                _get(f, "n_tables", int, 0, name=at),
            )
            for f in _get(doc, "filters", list, name=at)
        ],
        b=b if b is None else _get(doc, "b", int, 1, name=at),
        met_target=doc.get("met_target") is not False,
        **{key: _get(doc, key, _REAL, name=at)
           for key in ("delta", "expected_recall", "expected_precision")},
    )


def _check_contents(snap: "MappedSnapshot") -> None:
    """The array contents a ``verify=True`` open checks -- everything a
    thaw indexes with: sid order, CSR bounds, element tags, positions,
    one entry of each stored set in every table
    (:meth:`~repro.storage.hashtable.TableStack.sid_order`) -- and every
    code inside ``[0, 2**b)``."""
    sids, tagged = snap.sid_array, snap.sets_encoding == "tagged"
    if not (
        (snap.n_sets == 0 or sids[0] >= 0 and sids[-1] < snap.next_sid
         and int(snap.code_matrix.max()) < snap.embedder.m)
        and not np.any(sids[1:] <= sids[:-1])
        and _rises(snap.set_indptr, len(snap.set_data))
        and np.all(np.diff(snap.set_indptr) <= snap.set_sizes)
        and np.isin(snap.fallback_array, sids).all()
        and _rises(snap.elem_indptr, len(snap.elem_tags if tagged else snap.elem_data))
        and (not tagged or _rises(snap.elem_bytes_indptr, len(snap.elem_bytes))
             and not np.any(snap.elem_tags >= len(_TAGGED)))
        and all(
            ((0 <= fp.positions) & (fp.positions < snap.n_bits)).all()
            for fp in (*snap.sfis.values(), *snap.dfis.values())
        )
    ):
        raise SnapshotIntegrityError(
            f"{snap.path}: arrays are inconsistent (sid order, codes, CSR "
            "bounds, set sizes, element tags or bit positions)"
        )
    for point, probe in (*snap.sfis.items(), *snap.dfis.items()):
        for t in range(probe.n_tables):
            try:
                probe.stack.sid_order(t, sids)
            except ValueError as exc:
                raise SnapshotIntegrityError(
                    f"{snap.path}: {probe.kind} at {point}: {exc}"
                ) from None


def _check_signing(snap: "MappedSnapshot") -> None:
    """Re-sign the first non-empty stored set with the manifest's
    embedder and refuse the snapshot unless its stored codes come out.

    The manifest's ``codec`` and ``embedder.seed`` say how queries are
    signed; an edit to either would sign every query differently from
    the stored sets, and answers would shrink without an error.  The
    set's row of the verify CSR holds its element hashes exactly as
    :func:`~repro.core.minhash.hash_rows` gave them to the build, so
    only :meth:`~repro.core.embedding.SetEmbedder.code_hashes` runs:
    the check costs a fraction of a millisecond at every open, whatever
    the collection size."""
    # Row 0 is almost always non-empty; scan the offsets only if not.
    nonempty = np.flatnonzero(np.diff(snap.set_indptr[:2]) > 0)
    if not len(nonempty):
        nonempty = np.flatnonzero(np.diff(snap.set_indptr) > 0)
        if not len(nonempty):
            return
    row = int(nonempty[0])
    a, b = snap.set_indptr[[row, row + 1]].tolist()
    hashes = snap.set_data[a:b]
    # Offsets past the hash data (unverified) give no hashes.
    if not len(hashes) or not np.array_equal(
        snap.embedder.code_hashes(np.array([0, len(hashes)]), hashes)[0],
        snap.code_matrix[row],
    ):
        raise SnapshotIntegrityError(
            f"{snap.path}: the manifest's embedder (codec "
            f"{snap.embedder.codec!r}, seed {snap.embedder.seed}) does not "
            "re-sign the stored sets to their stored codes"
        )


def _read_manifest(path: Path) -> dict:
    """The manifest of a snapshot directory, refused unless it names
    this format and version."""
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.is_file():
        raise SnapshotError(f"{path} is not a snapshot directory (no {MANIFEST_FILE})")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotFormatError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise SnapshotFormatError(f"{path} is not a {FORMAT_NAME} snapshot")
    if manifest.get("version") != FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{path} has snapshot format version {manifest.get('version')}; "
            f"this build reads only version {FORMAT_VERSION} -- re-save it "
            "from the live index"
        )
    return manifest


def open_snapshot(path, verify: bool = False) -> MappedSnapshot:
    """Map a snapshot directory written by :func:`save_snapshot`.

    O(ms) regardless of collection size: only the manifest is read
    eagerly; every array is an ``np.memmap`` view paged in on use.
    ``verify=True`` additionally checksums every array and checks the
    arrays' contents against each other (reads everything).  Every open
    re-signs one stored set with the manifest's embedder
    (:func:`_check_signing`), so an edited ``codec`` or seed is refused
    with :class:`SnapshotIntegrityError`.
    """
    path = Path(path)
    manifest = _read_manifest(path)
    with trace.span("snapshot_open", path=str(path), verify=verify) as sp:
        # An unknown codec fails loudly here so a stale reader never
        # misinterprets stored codes.
        emb = manifest.get("embedder")
        try:
            embedder = _embedder(
                k=_get(emb, "k", int, 1, 1 << 20, "embedder."),
                b=_get(emb, "b", int, 1, 64, "embedder."),
                seed=_get(emb, "seed", int, 0, name="embedder."),
                codec=_get(manifest, "codec", str),
            )
        except (CodecError, ValueError) as exc:
            raise SnapshotFormatError(
                f"{path}: unsupported embedder or signature codec: {exc}"
            ) from exc
        n_bits = manifest.get("n_bits")
        if n_bits != embedder.dimension or type(n_bits) is not int:
            raise SnapshotFormatError(
                f"{path}: {n_bits!r} embedding bits, but the embedder (codec "
                f"{embedder.codec!r}) embeds into {embedder.dimension}"
            )
        arrays_path = path / ARRAYS_FILE
        if not arrays_path.is_file():
            raise SnapshotIntegrityError(f"{path} is missing {ARRAYS_FILE}")
        size = os.path.getsize(arrays_path)
        if size != _get(manifest, "arrays_bytes", int, 0):
            raise SnapshotIntegrityError(
                f"{arrays_path} holds {size} bytes, manifest expects "
                f"{manifest['arrays_bytes']}: truncated or rewritten"
            )
        specs = _get(manifest, "arrays", dict)
        n = _get(manifest, "n_sets", int, 0)
        encoding = manifest.get("sets_encoding")
        if encoding not in _ELEMENT_ARRAYS:
            raise SnapshotFormatError(f"unknown sets encoding: {encoding!r}")
        named = {**_ARRAY_TYPES, **_ELEMENT_ARRAYS[encoding]}
        dims = {None: None, "n": n, "n+1": n + 1, "k": embedder.k}
        for name, (dtype, shape) in named.items():
            if name == "elem_bytes_indptr":
                dims["tags+1"] = specs["elem_tags"]["shape"][0] + 1
            if dtype == "codes":
                dtype = embedder.code_dtype.str
            _check_array(specs, name, dtype, tuple(dims[d] for d in shape))
        arrays = open_arrays(arrays_path, specs, verify=verify)
        probes: dict[tuple[str, float], FrozenFilterProbe] = {}
        for i, meta in enumerate(_get(manifest, "filters", list)):
            prefix = f"f{i:03d}_"
            kind = _get(meta, "kind", str, name=prefix)
            if kind not in ("sfi", "dfi"):
                raise SnapshotFormatError(f"filter {prefix!r}: unknown kind {kind!r}")
            r, l = (_get(meta, key, int, 1, name=prefix) for key in ("r", "l"))
            _check_array(specs, prefix + "positions", "<i8", (l, r))
            probes[kind, _get(meta, "point", _REAL, 0.0, 1.0, prefix)] = FrozenFilterProbe(
                kind, _get(meta, "threshold", _REAL, 0.0, 1.0, prefix),
                _get(meta, "sigma_point", _REAL, 0.0, 1.0, prefix), r, n_bits,
                arrays[prefix + "positions"],
                _open_stack(prefix, meta, specs, arrays, verify), kind == "dfi",
            )
        plan = _plan(_get(manifest, "plan", dict))
        if {key: probe.n_tables for key, probe in probes.items()} != {
            (f.kind, f.point): f.n_tables for f in plan.filters if f.n_tables
        }:
            raise SnapshotFormatError(f"{path}: the filters do not match the plan")
        dist = manifest.get("distribution")
        cost = IOCostModel(**{
            key: _get(manifest.get("cost"), key, _REAL, 0.0, name="cost.")
            for key in _COSTS
        })
        scan_pages = _get(manifest, "scan_pages", int, 0)
        snap = MappedSnapshot(
            path=path,
            manifest=manifest,
            sets_encoding=encoding,
            embedder=embedder,
            plan=plan,
            planner=QueryPlanner(
                plan,
                SimilarityDistribution(
                    _each(dist, "mass", _REAL, 0.0, name="distribution.", min_len=1),
                    _get(dist, "n_sets", int, 0, name="distribution."),
                ),
                cost, n, scan_pages, _get(manifest, "avg_set_size", _REAL, 0.0),
            ),
            cost=cost,
            n_bits=n_bits,
            scan_pages=scan_pages,
            next_sid=_get(manifest, "next_sid", int, n),
            page_size=_get(manifest, "page_size", int, 1),
            sfis={p: probe for (k, p), probe in probes.items() if k == "sfi"},
            dfis={p: probe for (k, p), probe in probes.items() if k == "dfi"},
            **{name: arrays[name] for name in named},
        )
        if verify:
            _check_contents(snap)
        _check_signing(snap)
        mapped_bytes = sum(int(s["nbytes"]) for s in specs.values())
        if sp.recording:
            sp.set(n_arrays=len(arrays), bytes_mapped=mapped_bytes,
                   n_sets=snap.n_sets, sets_encoding=encoding)
    _OPENS.inc()
    _ARRAYS_MAPPED.inc(len(arrays))
    _BYTES_MAPPED.inc(mapped_bytes)
    return snap


def verify_snapshot(path) -> dict:
    """Fully checksum a snapshot; returns a summary dict or raises."""
    snap = open_snapshot(path, verify=True)
    manifest = snap.manifest
    return {
        "path": str(path),
        "n_sets": snap.n_sets,
        "n_arrays": len(manifest["arrays"]),
        "arrays_bytes": manifest["arrays_bytes"],
        "sets_encoding": manifest["sets_encoding"],
        "filters": len(manifest["filters"]),
    }


def _group(name: str) -> str:
    """``byte_breakdown`` group of one array."""
    if name == "code_matrix":
        return "signatures"
    if name[0] == "f" and name[1:4].isdigit():
        return "buckets"
    return "other" if name in ("sid_array", "fetch_random", "fetch_seq") else "verify_csr"


def byte_breakdown(manifest: dict) -> dict:
    """Per-group byte accounting of a snapshot's mapped arrays.

    Groups the manifest's array specs into the buckets that matter for
    capacity planning -- the signature code matrix, the CSR verify
    arrays (exact columnar verification),
    and the filter tables' stacked fingerprint runs -- and derives
    bytes-per-set figures.  Pure manifest arithmetic; nothing is
    mapped or read.
    """
    groups = {"signatures": 0, "verify_csr": 0, "buckets": 0, "other": 0}
    for name, spec in manifest["arrays"].items():
        groups[_group(name)] += int(spec["nbytes"])
    n_sets = int(manifest["n_sets"])
    total = int(manifest["arrays_bytes"])
    # Alignment padding between arrays is real file bytes; charge it to
    # "other" so the groups partition the total exactly.
    groups["other"] += total - sum(groups.values())
    return {
        "codec": manifest["codec"],
        "n_sets": n_sets,
        "total_bytes": total,
        "groups": groups,
        "bytes_per_set": total / n_sets if n_sets else 0.0,
        "signature_bytes_per_set": (
            groups["signatures"] / n_sets if n_sets else 0.0
        ),
    }
