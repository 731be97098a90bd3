"""Zero-copy on-disk snapshots of a frozen index.

A pickle of the whole index (:mod:`repro.core.persistence`) costs a
full deserialization pass on every cold start -- O(index size) before
the first query can run, with every byte copied onto the Python heap.
This module instead serializes an
:class:`~repro.exec.snapshot.IndexSnapshot` as a **directory of aligned
raw numpy arrays** plus a small JSON manifest, so that
:func:`open_snapshot` only parses the manifest, unpickles a few small
parameter objects (embedder, plan, planner, bit samplers) and builds
``np.memmap`` views over one arrays file.  Opening is O(milliseconds)
regardless of collection size; array bytes are paged in lazily by the
OS as queries touch them, and every process that opens the same
snapshot shares one page cache -- the substrate of the
``backend="process"`` executor (:mod:`repro.exec.parallel`).

Layout of a snapshot directory::

    manifest.json   format name + version, per-array dtype/shape/
                    offset/crc32, cost-model constants, filter summary
    arrays.bin      every array, 64-byte aligned, in manifest order
    objects.pkl     small Python state: embedder, plan, planner,
                    per-filter samplers/thresholds (crc-checked)
    sets.pkl        only when set elements defy a columnar encoding

The arrays cover everything the hot path touches: the packed ``(N,
words)`` uint64 vector matrix, the CSR sorted-hash set arrays and set
sizes, the per-row measured fetch costs, per-filter bucket directories
(chain page counts plus fingerprint runs in CSR form, every table of a
filter stacked into one array per field -- the arrays of a
:class:`~repro.storage.hashtable.TableStack`, written as ``freeze()``
built them and wrapped in the same class at open; the manifest's filter
entry names each table's bucket count and run offsets),
and the set elements themselves (int64 or utf-8 CSR when the elements
allow it).  ``frozenset`` objects needed by the exact-verification
fallback are materialized lazily, one set at a time, memoized
(``snapshot.sets_materialized`` counts them -- a proxy for element
pages actually faulted in).

Integrity: structural checks (format, version, file sizes, offsets)
always run at open and catch truncation; per-array crc32 verification
is opt-in (``verify=True`` / :func:`verify_snapshot`) to keep opening
O(ms).  ``objects.pkl`` is always crc-checked before unpickling --- but
as with the pickle persistence, only open snapshots you trust.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import zlib
from pathlib import Path

import numpy as np

from repro.core.codec import CodecError, parse_codec
from repro.core.filter_index import FrozenFilterProbe
from repro.exec.snapshot import IndexSnapshot
from repro.obs import metrics, trace
from repro.storage.hashtable import TableStack
from repro.storage.iomodel import IOCostModel

FORMAT_NAME = "repro-ssi-snapshot"
#: v4: a filter's tables are stacked (one array per field per filter,
#: table bounds in the manifest's ``n_buckets`` / ``run_offsets``).
#: The only version read; re-save older directories from the live index.
FORMAT_VERSION = 4

#: Byte alignment of every array in ``arrays.bin`` (cache-line sized,
#: and a multiple of every dtype's itemsize so views never misalign).
ALIGNMENT = 64

MANIFEST_FILE = "manifest.json"
ARRAYS_FILE = "arrays.bin"
OBJECTS_FILE = "objects.pkl"
SETS_FILE = "sets.pkl"

_SAVES = metrics.counter("snapshot.saves")
_OPENS = metrics.counter("snapshot.opens")
_ARRAYS_MAPPED = metrics.counter("snapshot.arrays_mapped")
_BYTES_MAPPED = metrics.counter("snapshot.bytes_mapped")
#: Lazy ``frozenset`` materializations -- each one touches (faults in)
#: that set's slice of the element arrays, so this is the mmap
#: page-fault proxy for the exact-verification fallback path.
_SETS_MATERIALIZED = metrics.counter("snapshot.sets_materialized")


class SnapshotError(RuntimeError):
    """A path is not a usable snapshot (missing/garbled files)."""


class SnapshotFormatError(SnapshotError):
    """The snapshot's format name or version is not one this build reads."""


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
        os.fsync(f.fileno())
    return specs


def open_arrays(path, specs: dict[str, dict], verify: bool = False) -> dict[str, np.ndarray]:
    """Map every spec'd array as a read-only view over one ``np.memmap``.

    Structural validation (offsets are non-negative and item-aligned,
    offsets/lengths fit the file, lengths match dtype x shape) always
    runs; ``verify=True`` additionally checks
    every array's crc32 (reads all bytes -- no longer O(ms)).
    """
    size = os.path.getsize(path)
    buf = np.memmap(path, dtype=np.uint8, mode="r") if size else None
    arrays: dict[str, np.ndarray] = {}
    for name, spec in specs.items():
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        nbytes = int(spec["nbytes"])
        offset = int(spec["offset"])
        want = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes != want:
            raise SnapshotFormatError(
                f"array {name!r}: {nbytes} bytes cannot hold "
                f"shape {shape} of {dtype} ({want} bytes)"
            )
        if offset < 0 or offset % dtype.itemsize:
            raise SnapshotFormatError(
                f"array {name!r}: offset {offset} is negative or not a "
                f"multiple of the {dtype.itemsize}-byte {dtype} item"
            )
        if offset + nbytes > size:
            raise SnapshotIntegrityError(
                f"array {name!r} extends to byte {offset + nbytes} but "
                f"{path} holds only {size}: truncated arrays file"
            )
        if nbytes == 0:
            arrays[name] = np.empty(shape, dtype=dtype)
            continue
        raw = buf[offset: offset + nbytes]
        if verify and zlib.crc32(raw) != spec["crc32"]:
            raise SnapshotIntegrityError(
                f"array {name!r} fails its checksum: snapshot is corrupt"
            )
        # Hand out plain ndarray views of the mapping: np.memmap runs
        # Python-level hooks on every slice, which the table probes and
        # CSR gathers would pay per access.
        arrays[name] = raw.view(dtype).reshape(shape).view(np.ndarray)
    return arrays


#: Per-filter stacked table arrays (``f###_<field>``) and their dtypes:
#: the array attributes of a :class:`~repro.storage.hashtable.TableStack`
#: (and of each :class:`~repro.storage.hashtable.TableView` slice of it).
_TABLE_FIELDS = {
    "chain_pages": "<i8", "run_fps": "<u8", "run_indptr": "<i8",
    "run_sids": "<i8",
}


# -- set-element encodings -------------------------------------------------


def _encode_sets(sets_in_order: list[frozenset]):
    """Columnar encoding of the stored sets, if their elements allow it.

    Returns ``(encoding, arrays, sets_obj)``: ``"int64"``/``"utf8"``
    with CSR arrays when every element is a builtin int in int64 range
    / a builtin str, else ``"pickle"`` with the original dict shipped
    in ``sets.pkl`` (loaded lazily at serve time).
    """
    if all(
        type(e) is int and -(2 ** 63) <= e < 2 ** 63
        for s in sets_in_order for e in s
    ):
        indptr = np.zeros(len(sets_in_order) + 1, dtype=np.int64)
        if sets_in_order:
            np.cumsum([len(s) for s in sets_in_order], out=indptr[1:])
        data = np.empty(int(indptr[-1]), dtype=np.int64)
        for row, s in enumerate(sets_in_order):
            data[int(indptr[row]): int(indptr[row + 1])] = sorted(s)
        return "int64", {"elem_indptr": indptr, "elem_data": data}, None
    if all(type(e) is str for s in sets_in_order for e in s):
        indptr = np.zeros(len(sets_in_order) + 1, dtype=np.int64)
        if sets_in_order:
            np.cumsum([len(s) for s in sets_in_order], out=indptr[1:])
        encoded = [e.encode("utf-8") for s in sets_in_order for e in sorted(s)]
        str_indptr = np.zeros(len(encoded) + 1, dtype=np.int64)
        if encoded:
            np.cumsum([len(b) for b in encoded], out=str_indptr[1:])
        str_data = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
        return "utf8", {
            "elem_indptr": indptr,
            "str_indptr": str_indptr,
            "str_data": str_data,
        }, None
    return "pickle", {}, dict(
        zip(range(len(sets_in_order)), sets_in_order)
    )


class _LazySets:
    """``sid -> frozenset`` mapping that materializes (and memoizes)
    each set on first access -- the exact-verification fallback touches
    only the sets it needs, so cold serving never pages in the whole
    element file."""

    __slots__ = ("_load", "_memo")

    def __init__(self, load):
        self._load = load
        self._memo: dict[int, frozenset] = {}

    def __getitem__(self, sid: int) -> frozenset:
        got = self._memo.get(sid)
        if got is None:
            got = self._memo[sid] = self._load(sid)
            _SETS_MATERIALIZED.inc()
        return got


# -- the mapped snapshot ---------------------------------------------------


class MappedSnapshot(IndexSnapshot):
    """An :class:`~repro.exec.snapshot.IndexSnapshot` whose bulk state
    lives in ``np.memmap`` views over one snapshot directory.

    Query semantics, page charges and counter movements are identical
    to a live ``index.freeze()`` snapshot -- the executor equivalence
    suites run unchanged over either.  Derived Python objects the hot
    path needs (`row_of`, the fallback ``frozenset``
    objects) are built lazily on first use and cached; concurrent first
    touches from the thread backend may build one twice, but the
    results are identical so the race is benign.
    """

    @property
    def n_sets(self) -> int:
        return int(self.sid_array.shape[0])

    @property
    def sids(self) -> list[int]:
        got = self.__dict__.get("_sids")
        if got is None:
            got = self.__dict__["_sids"] = self.sid_array.tolist()
        return got

    @property
    def row_of(self) -> dict[int, int]:
        got = self.__dict__.get("_row_of")
        if got is None:
            got = self.__dict__["_row_of"] = {
                sid: row for row, sid in enumerate(self.sids)
            }
        return got

    @property
    def fallback_sids(self) -> frozenset:
        got = self.__dict__.get("_fallback_sids")
        if got is None:
            got = self.__dict__["_fallback_sids"] = frozenset(
                self.fallback_array.tolist()
            )
        return got

    @property
    def sets(self) -> _LazySets:
        got = self.__dict__.get("_sets")
        if got is None:
            got = self.__dict__["_sets"] = _LazySets(self._set_loader())
        return got

    def _set_loader(self):
        encoding = self.sets_encoding
        if encoding == "int64":
            indptr, data, row_of = self.elem_indptr, self.elem_data, self.row_of

            def load(sid: int) -> frozenset:
                row = row_of[sid]
                return frozenset(
                    data[int(indptr[row]): int(indptr[row + 1])].tolist()
                )
        elif encoding == "utf8":
            indptr, row_of = self.elem_indptr, self.row_of
            str_indptr, str_data = self.str_indptr, self.str_data

            def load(sid: int) -> frozenset:
                row = row_of[sid]
                return frozenset(
                    str_data[int(str_indptr[e]): int(str_indptr[e + 1])]
                    .tobytes().decode("utf-8")
                    for e in range(int(indptr[row]), int(indptr[row + 1]))
                )
        elif encoding == "pickle":
            path, row_of = self.path, self.row_of
            memo: dict = {}

            def load(sid: int) -> frozenset:
                if not memo:
                    blob = (Path(path) / SETS_FILE).read_bytes()
                    memo.update(pickle.loads(blob))
                return memo[row_of[sid]]
        else:
            raise SnapshotFormatError(f"unknown sets encoding: {encoding!r}")
        return load

    def __repr__(self) -> str:
        return (
            f"MappedSnapshot(path={str(self.path)!r}, n_sets={self.n_sets}, "
            f"sfis={len(self.sfis)}, dfis={len(self.dfis)})"
        )


# -- save / open -----------------------------------------------------------


def save_snapshot(snapshot: IndexSnapshot, path) -> Path:
    """Serialize a frozen snapshot as a mapped-array directory.

    ``snapshot`` is an ``index.freeze()`` image (a
    :class:`MappedSnapshot` cannot be re-saved; save from the live
    index it came from).  The manifest is written last, atomically, so
    a crashed save never leaves an openable half-snapshot.
    """
    if isinstance(snapshot, MappedSnapshot):
        raise SnapshotError(
            "cannot re-save a mapped snapshot; save from a live index.freeze()"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    with trace.span("snapshot_save", path=str(path)) as sp:
        sids = snapshot.sids
        arrays: dict[str, np.ndarray] = {
            "sid_array": snapshot.sid_array,
            "vector_matrix": snapshot.vector_matrix,
            "set_indptr": snapshot.set_indptr,
            "set_data": snapshot.set_data,
            "set_sizes": snapshot.set_sizes,
            "fetch_random": snapshot.fetch_random,
            "fetch_seq": snapshot.fetch_seq,
            "fallback_array": np.asarray(
                sorted(snapshot.fallback_sids), dtype=np.int64
            ),
        }
        filters = (
            [("sfi", p) for p in sorted(snapshot.sfis)]
            + [("dfi", p) for p in sorted(snapshot.dfis)]
        )
        filter_meta: list[dict] = []
        filter_objects: list[dict] = []
        for i, (kind, point) in enumerate(filters):
            fp = snapshot.filter_probe(kind, point)
            for field in _TABLE_FIELDS:
                arrays[f"f{i:03d}_{field}"] = getattr(fp.stack, field)
            filter_meta.append({
                "kind": kind, "point": point, "threshold": fp.threshold,
                "sigma_point": fp.sigma_point, "r": fp.r, "l": fp.n_tables,
                "n_buckets": fp.stack.n_buckets.tolist(),
                "run_offsets": fp.stack.run_offsets.tolist(),
            })
            filter_objects.append({
                "kind": kind, "point": point, "threshold": fp.threshold,
                "sigma_point": fp.sigma_point, "r": fp.r,
                "n_bits": fp.n_bits, "complement_query": fp.complement_query,
                "positions": fp.positions,
            })
        encoding, set_arrays, sets_obj = _encode_sets(
            [snapshot.sets[sid] for sid in sids]
        )
        arrays.update(set_arrays)
        specs = write_arrays(path / ARRAYS_FILE, arrays)
        objects_blob = pickle.dumps(
            {
                "embedder": snapshot.embedder,
                "plan": snapshot.plan,
                "planner": snapshot.planner,
                "filters": filter_objects,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        (path / OBJECTS_FILE).write_bytes(objects_blob)
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "codec": snapshot.embedder.codec,
            "n_sets": len(sids),
            "n_bits": snapshot.n_bits,
            "scan_pages": snapshot.scan_pages,
            "cost": {
                "seq_cost": snapshot.cost.seq_cost,
                "random_cost": snapshot.cost.random_cost,
                "cpu_cost": snapshot.cost.cpu_cost,
            },
            "sets_encoding": encoding,
            "objects_crc32": zlib.crc32(objects_blob),
            "arrays_bytes": os.path.getsize(path / ARRAYS_FILE),
            "filters": filter_meta,
            "arrays": specs,
        }
        if sets_obj is not None:
            sets_blob = pickle.dumps(sets_obj, protocol=pickle.HIGHEST_PROTOCOL)
            (path / SETS_FILE).write_bytes(sets_blob)
            manifest["sets_crc32"] = zlib.crc32(sets_blob)
        # Commit point: the manifest names everything, so a snapshot
        # either opens completely or (no/partial manifest) not at all.
        fd, tmp = tempfile.mkstemp(dir=path, prefix=MANIFEST_FILE + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(manifest, f, indent=1)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path / MANIFEST_FILE)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if sp.recording:
            sp.set(
                n_arrays=len(specs),
                arrays_bytes=manifest["arrays_bytes"],
                n_sets=len(sids),
                sets_encoding=encoding,
            )
    _SAVES.inc()
    return path


def _offsets(prefix: str, meta: dict, key: str, length: int) -> list[int]:
    """A filter's manifest list of table bounds, refused unless it is
    ``length`` integers."""
    got = meta.get(key)
    if (
        not isinstance(got, list) or len(got) != length
        or not all(type(v) is int for v in got)
    ):
        raise SnapshotFormatError(
            f"filter {prefix!r}: manifest {key!r} must list {length} "
            f"integers, found {got!r}"
        )
    return got


def _open_stack(
    prefix: str, meta: dict, specs: dict, arrays: dict, verify: bool
) -> TableStack:
    """Wrap one filter's mapped table arrays, refusing a set that cannot
    be a :class:`~repro.storage.hashtable.TableStack`.

    The always-on checks read only the manifest (dtypes, table bounds,
    and lengths that must fit each other), so opening stays O(ms);
    ``verify=True`` also reads the arrays to check the order the probe's
    binary search and run slicing rely on.
    """
    for field, dtype in _TABLE_FIELDS.items():
        spec = specs.get(prefix + field)
        if spec is None or spec["dtype"] != dtype or len(spec["shape"]) != 1:
            raise SnapshotFormatError(
                f"table array {prefix + field!r} must be a 1-d {dtype} "
                f"array, manifest says {spec}"
            )
    n_pages, n_runs, n_indptr, n_sids = (
        specs[prefix + field]["shape"][0] for field in _TABLE_FIELDS
    )
    n_tables = meta.get("l")
    if type(n_tables) is not int or n_tables < 1:
        raise SnapshotFormatError(
            f"filter {prefix!r}: table count {n_tables!r} is not positive"
        )
    n_buckets = _offsets(prefix, meta, "n_buckets", n_tables)
    run_offsets = _offsets(prefix, meta, "run_offsets", n_tables + 1)
    if (
        min(n_buckets) < 1 or run_offsets[0] != 0
        or any(b < a for a, b in zip(run_offsets, run_offsets[1:]))
        or run_offsets[-1] != n_runs
    ):
        raise SnapshotFormatError(
            f"filter {prefix!r}: table bounds out of range -- every "
            "n_buckets must be positive and run_offsets must rise from 0 "
            f"to the {n_runs} runs"
        )
    if n_pages != sum(n_buckets) or n_indptr != n_runs + 1:
        raise SnapshotFormatError(
            f"filter {prefix!r} arrays do not fit each other: {n_pages} "
            f"chain_pages for {sum(n_buckets)} buckets, {n_indptr} "
            f"run_indptr for {n_runs} run_fps"
        )
    stack = TableStack(
        n_buckets, arrays[prefix + "chain_pages"], run_offsets,
        *(arrays[prefix + field] for field in ("run_fps", "run_indptr", "run_sids")),
    )
    if verify:
        fps, indptr = stack.run_fps, stack.run_indptr
        # Strictly ascending inside each table; a table starts afresh.
        rises = fps[1:] > fps[:-1]
        cuts = np.asarray(run_offsets[1:-1], dtype=np.int64)
        rises[cuts[(cuts > 0) & (cuts < n_runs)] - 1] = True
        if (
            not rises.all()
            or indptr[0] != 0 or indptr[-1] != n_sids
            or np.any(indptr[1:] < indptr[:-1])
        ):
            raise SnapshotIntegrityError(
                f"filter {prefix!r}: run_fps must ascend strictly within "
                f"each table and run_indptr must rise from 0 to {n_sids}"
            )
    return stack


def open_snapshot(path, verify: bool = False) -> MappedSnapshot:
    """Map a snapshot directory written by :func:`save_snapshot`.

    O(ms) regardless of collection size: only the manifest and the
    small object pickle are read eagerly; every array is an
    ``np.memmap`` view paged in on use.  ``verify=True`` additionally
    checksums every array (reads everything).
    """
    path = Path(path)
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.is_file():
        raise SnapshotError(
            f"{path} is not a snapshot directory (no {MANIFEST_FILE})"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotFormatError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if manifest.get("format") != FORMAT_NAME:
        raise SnapshotFormatError(
            f"{path} is not a {FORMAT_NAME} snapshot "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{path} has snapshot format version {manifest.get('version')}; "
            f"this build reads only version {FORMAT_VERSION} -- re-save it "
            "from the live index"
        )
    # Unknown tags fail loudly here so a stale reader never
    # misinterprets packed bytes.
    codec_tag = manifest.get("codec")
    try:
        codec_spec = parse_codec(codec_tag)
    except CodecError as exc:
        raise SnapshotFormatError(
            f"{path} uses unsupported signature codec {codec_tag!r}: {exc}"
        ) from exc
    with trace.span("snapshot_open", path=str(path), verify=verify) as sp:
        arrays_path = path / ARRAYS_FILE
        if not arrays_path.is_file():
            raise SnapshotIntegrityError(f"{path} is missing {ARRAYS_FILE}")
        size = os.path.getsize(arrays_path)
        if size != manifest["arrays_bytes"]:
            raise SnapshotIntegrityError(
                f"{arrays_path} holds {size} bytes, manifest expects "
                f"{manifest['arrays_bytes']}: truncated or rewritten"
            )
        arrays = open_arrays(arrays_path, manifest["arrays"], verify=verify)
        objects_blob = (path / OBJECTS_FILE).read_bytes()
        if zlib.crc32(objects_blob) != manifest["objects_crc32"]:
            raise SnapshotIntegrityError(
                f"{path / OBJECTS_FILE} fails its checksum: snapshot is corrupt"
            )
        objects = pickle.loads(objects_blob)
        embedder_codec = objects["embedder"].codec
        if parse_codec(embedder_codec).name != codec_spec.name:
            raise SnapshotFormatError(
                f"{path} manifest declares codec {codec_spec.name!r} but its "
                f"embedder uses {embedder_codec!r}: snapshot is inconsistent"
            )
        if manifest["sets_encoding"] == "pickle":
            sets_path = path / SETS_FILE
            if not sets_path.is_file():
                raise SnapshotIntegrityError(f"{path} is missing {SETS_FILE}")
            if verify and zlib.crc32(sets_path.read_bytes()) != manifest["sets_crc32"]:
                raise SnapshotIntegrityError(
                    f"{sets_path} fails its checksum: snapshot is corrupt"
                )
        cost_spec = manifest["cost"]
        sfis: dict[float, FrozenFilterProbe] = {}
        dfis: dict[float, FrozenFilterProbe] = {}
        if len(manifest["filters"]) != len(objects["filters"]):
            raise SnapshotFormatError(
                f"{path} manifest lists {len(manifest['filters'])} filters "
                f"but {OBJECTS_FILE} holds {len(objects['filters'])}"
            )
        for i, (meta, fo) in enumerate(zip(manifest["filters"], objects["filters"])):
            stack = _open_stack(
                f"f{i:03d}_", meta, manifest["arrays"], arrays, verify
            )
            probe = FrozenFilterProbe(
                fo["kind"], fo["threshold"], fo["sigma_point"], fo["r"],
                fo["n_bits"], fo["positions"], stack, fo["complement_query"],
            )
            (sfis if fo["kind"] == "sfi" else dfis)[fo["point"]] = probe
        state = {
            "path": path,
            "manifest": manifest,
            "sets_encoding": manifest["sets_encoding"],
            "embedder": objects["embedder"],
            "plan": objects["plan"],
            "planner": objects["planner"],
            "cost": IOCostModel(
                seq_cost=cost_spec["seq_cost"],
                random_cost=cost_spec["random_cost"],
                cpu_cost=cost_spec["cpu_cost"],
            ),
            "n_bits": manifest["n_bits"],
            "scan_pages": manifest["scan_pages"],
            "sfis": sfis,
            "dfis": dfis,
            "sid_array": arrays["sid_array"],
            "vector_matrix": arrays["vector_matrix"],
            "set_indptr": arrays["set_indptr"],
            "set_data": arrays["set_data"],
            "set_sizes": arrays["set_sizes"],
            "fetch_random": arrays["fetch_random"],
            "fetch_seq": arrays["fetch_seq"],
            "fallback_array": arrays["fallback_array"],
        }
        for field in ("elem_indptr", "elem_data", "str_indptr", "str_data"):
            if field in arrays:
                state[field] = arrays[field]
        snap = MappedSnapshot(**state)
        mapped_bytes = sum(int(s["nbytes"]) for s in manifest["arrays"].values())
        if sp.recording:
            sp.set(
                n_arrays=len(arrays),
                bytes_mapped=mapped_bytes,
                n_sets=snap.n_sets,
                sets_encoding=manifest["sets_encoding"],
            )
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


#: ``byte_breakdown`` group of each fixed-name array.  Bucket directory
#: arrays (``f###_*``) are grouped by prefix instead.
_BREAKDOWN_GROUPS = {
    "vector_matrix": "signatures",
    "set_indptr": "verify_csr",
    "set_data": "verify_csr",
    "set_sizes": "verify_csr",
    "elem_indptr": "verify_csr",
    "elem_data": "verify_csr",
    "str_indptr": "verify_csr",
    "str_data": "verify_csr",
    "fallback_array": "verify_csr",
    "sid_array": "other",
    "fetch_random": "other",
    "fetch_seq": "other",
}


def byte_breakdown(manifest: dict) -> dict:
    """Per-group byte accounting of a snapshot's mapped arrays.

    Groups the manifest's array specs into the buckets that matter for
    capacity planning -- the packed signature matrix (what the codec
    compresses), the CSR verify arrays (exact columnar verification),
    and the bucket directories (filter tables) -- and derives
    bytes-per-set figures.  Pure manifest arithmetic; nothing is
    mapped or read.
    """
    groups = {"signatures": 0, "verify_csr": 0, "buckets": 0, "other": 0}
    for name, spec in manifest["arrays"].items():
        group = _BREAKDOWN_GROUPS.get(name)
        if group is None:
            group = "buckets" if name[0] == "f" and name[1:4].isdigit() else "other"
        groups[group] += int(spec["nbytes"])
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
