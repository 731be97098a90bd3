"""Execution engine: frozen index snapshots and executor batch queries.

The live :class:`~repro.core.index.SetSimilarityIndex` mutates shared
storage structures (page chains, write deltas, counters), so it cannot
be probed from several threads at once.
This package provides the serving-side counterpart:

- :class:`~repro.exec.snapshot.IndexSnapshot` -- an immutable image of
  a built index (``index.freeze()``) sharing every filter's compacted
  table stack, signature codes stacked into one matrix, and stored sets in a
  columnar CSR hash layout;
- :class:`~repro.exec.parallel.ParallelExecutor` -- runs the one
  query pipeline (:mod:`~repro.exec.pipeline`) over a snapshot on a
  :class:`~repro.exec.parallel.WorkerPool` (inline on the calling
  thread, or a pool of ``spawn`` processes), with deterministic merges
  so answers, page counts and CPU accounting are bit-identical to the
  sequential ``query_batch`` at any worker count;
- :mod:`~repro.exec.columnar` -- the vectorized sorted-hash-array
  kernels behind exact Jaccard verification (shared with the live
  sequential path);
- :mod:`~repro.exec.snapfile` -- the one on-disk format:
  :func:`~repro.exec.snapfile.save_snapshot` (behind
  ``SetSimilarityIndex.save``) writes a directory of aligned raw arrays
  + a checksummed JSON manifest,
  :func:`~repro.exec.snapfile.open_snapshot` maps it back in O(ms)
  with ``np.memmap`` (a :class:`~repro.exec.snapfile.MappedSnapshot`,
  the substrate of ``ParallelExecutor(..., backend="process")``), and
  ``SetSimilarityIndex.load`` thaws it into a live index;
- :mod:`~repro.exec.shard` -- scatter-gather over a K-shard fleet of
  one shape: :func:`~repro.exec.shard.build_sharded` hash-partitions a
  collection, bulk-builds every shard from the one
  global plan and saves each as its own snapshot under a checksummed
  shard manifest with per-shard routing summaries
  (:mod:`~repro.exec.route`);
  :class:`~repro.exec.shard.ShardedExecutor` runs the same pipeline
  shard by shard on the caller's thread, every shard on the fleet's
  one ``WorkerPool``, skips verification for (query, shard) pairs the
  routing bound rules out, and merges deterministically --
  bit-identical to the unsharded answers.
"""

from repro.exec.columnar import build_csr, hash_set, intersect_counts, jaccard_values
from repro.exec.parallel import ParallelExecutor
from repro.exec.shard import (
    ShardedExecutor,
    ShardedSnapshot,
    ShardError,
    build_sharded,
    is_sharded,
    open_sharded,
    partition_sets,
    verify_sharded,
)
from repro.exec.snapshot import IndexSnapshot
from repro.exec.snapfile import (
    MappedSnapshot,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    open_snapshot,
    save_snapshot,
    verify_snapshot,
)

__all__ = [
    "IndexSnapshot",
    "MappedSnapshot",
    "ParallelExecutor",
    "ShardError",
    "ShardedExecutor",
    "ShardedSnapshot",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "build_sharded",
    "is_sharded",
    "build_csr",
    "hash_set",
    "intersect_counts",
    "jaccard_values",
    "open_sharded",
    "open_snapshot",
    "partition_sets",
    "save_snapshot",
    "verify_sharded",
    "verify_snapshot",
]
