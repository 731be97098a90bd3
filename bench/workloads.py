"""The benchmark's inputs and the table of workloads.

Collections and build parameters are constants: the planner sizes its
filters from 20,000 sampled pairs and the table count jumps with the
sample, so a per-run build seed would put the planner's luck into every
timing.  ``--seed`` reaches only the query pool and the sets a churn
cycle inserts; the program under test receives only the generated sets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

COLLECTION_SEED = 7
BUILD_SEED = 11
#: The ROADMAP re-anchor rung.
BUILD = dict(
    k=100, b=6, budget=200, recall_target=0.9, sample_pairs=20000,
    codec="full64",
)
N_SETS = 3000
SMOKE_N_SETS = 400
POOL_SIZE = 512
SMOKE_POOL_SIZE = 128
BATCH = 64
RANGE = (0.5, 1.0)
#: The second coalescer key of ``serve_weblog`` (20% of its requests).
NARROW_RANGE = (0.8, 1.0)
#: Elements no generator emits (planted stays below 40,000, weblog
#: below 8,000), for perturbed and foreign queries.
FOREIGN_BASE = 10_000_000
PERTURB_RATE = 0.1
#: Pool make-up in 512ths: perturbed copies, exact copies, foreign sets
#: with no answer, empty sets.
POOL_MIX = (358, 102, 46, 6)

CHURN_INSERTS = 16
CHURN_DELETES = 16
CHURN_QUERIES = 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    collection: str
    #: CPUs the driver process is pinned to.
    driver_cpus: tuple[int, ...]
    #: CPUs whose reference clock normalises the program's intervals.
    program_cpus: tuple[int, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "batch_planted",
            "Verify-bound: live query_batch(64) on planted clusters at ~0.3% "
            "candidate precision; a size filter, prescreen or prebuilt CSR "
            "must show here, a probe, wire or shard change must not.",
            "planted", (0,), (0,),
        ),
        Workload(
            "serve_weblog",
            "The whole path wire -> coalescer -> ParallelExecutor -> mmap probe "
            "-> verify -> wire through `repro serve`; probing, dispatch and the "
            "wire dominate, verify is a small share.",
            "weblog", (1,), (0,),
        ),
        Workload(
            "shard_planted",
            "batch_planted's collection, pool and range through "
            "ShardedExecutor K=2, so its qps over batch_planted's is the "
            "measured cost of sharding; stresses scatter/merge and routing.",
            "planted", (0, 1), (0, 1),
        ),
        Workload(
            "build_churn",
            "Bulk build in set-up, then insert/delete/query_batch cycles with "
            "read-your-writes checks; anything that buys query speed with "
            "build-time or per-insert work pays here.",
            "weblog", (0,), (0,),
        ),
    )
}


def collection(kind: str, n_sets: int = N_SETS) -> list[frozenset[int]]:
    """The fixed stored collection of a workload."""
    from repro.data.generators import planted_clusters
    from repro.data.weblog import make_set1

    if kind == "planted":
        return planted_clusters(
            n_sets // 10, 10, 40, 20000, 0.2, seed=COLLECTION_SEED
        )
    if kind == "weblog":
        return make_set1(n_sets, seed=COLLECTION_SEED)
    raise ValueError(f"unknown collection: {kind!r}")


def perturbed(stored: frozenset[int], rng: np.random.Generator) -> frozenset[int]:
    """A copy with each element replaced by a foreign one w.p. 0.1."""
    elements = np.fromiter(stored, dtype=np.int64, count=len(stored))
    elements.sort()
    swap = rng.random(len(elements)) < PERTURB_RATE
    elements[swap] = FOREIGN_BASE + rng.integers(0, FOREIGN_BASE, int(swap.sum()))
    return frozenset(elements.tolist())


def query_pool(
    sets: list[frozenset[int]], seed: int, size: int = POOL_SIZE
) -> list[frozenset[int]]:
    """``size`` query sets from ``seed``: ~70% perturbed stored sets,
    20% exact stored sets, 9% foreign sets, 1% empty sets, shuffled."""
    rng = np.random.default_rng([seed, 0x9E3779B9])
    counts = [m * size // POOL_SIZE for m in POOL_MIX]
    counts[0] += size - sum(counts)
    kinds = np.repeat(np.arange(4), counts)
    rng.shuffle(kinds)
    pool: list[frozenset[int]] = []
    for kind in kinds:
        stored = sets[int(rng.integers(0, len(sets)))]
        if kind == 0:
            pool.append(perturbed(stored, rng))
        elif kind == 1:
            pool.append(stored)
        elif kind == 2:
            pool.append(frozenset(
                (FOREIGN_BASE + rng.integers(0, FOREIGN_BASE, len(stored))).tolist()
            ))
        else:
            pool.append(frozenset())
    return pool


def churn_inserts(
    sets: list[frozenset[int]], seed: int, n: int
) -> list[frozenset[int]]:
    """The sets churn cycles insert, in order: perturbed stored sets."""
    rng = np.random.default_rng([seed, 0x85EBCA6B])
    return [
        perturbed(sets[int(rng.integers(0, len(sets)))], rng) for _ in range(n)
    ]


def digest(sets) -> str:
    """Order-sensitive digest of a list of integer sets."""
    h = hashlib.sha256()
    for s in sets:
        h.update(np.asarray(sorted(s), dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]
