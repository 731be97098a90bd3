"""Microbenchmarks of the pipeline's kernels (wall clock).

Not a paper artifact -- these put real times on the operations the
simulated cost model abstracts: signature computation, ECC encoding,
filter probes, candidate verification, index build and dynamic
maintenance.
"""

import numpy as np
import pytest

from repro.core.ecc import HadamardCode
from repro.core.embedding import SetEmbedder
from repro.core.filter_index import FilterIndex
from repro.core.index import SetSimilarityIndex
from repro.core.minhash import MinHasher
from repro.data.weblog import make_weblog_collection
from repro.obs.explain import explain_json
from repro.storage.btree import BTree
from repro.storage.iomodel import IOCostModel, IOStats
from repro.storage.pager import PageManager


@pytest.fixture(scope="module")
def sets(scale):
    return make_weblog_collection(n_sets=min(scale.n_sets, 1000), seed=17)


@pytest.fixture(scope="module")
def query_index(sets, scale):
    """A built index shared by the read-only query benchmarks."""
    return SetSimilarityIndex.build(
        sets[:300], budget=100, recall_target=0.85, k=scale.k, seed=3,
        sample_pairs=20_000,
    )


def test_minhash_signature(benchmark, sets, scale):
    hasher = MinHasher(k=scale.k, seed=0)
    benchmark(hasher.signature, sets[0])


def test_ecc_encode(benchmark, scale):
    code = HadamardCode(6)
    rng = np.random.default_rng(0)
    values = rng.integers(0, 64, size=scale.k, dtype=np.uint64)
    benchmark(code.encode, values)


def test_embed_set(benchmark, sets, scale):
    embedder = SetEmbedder(k=scale.k, b=6, seed=0)
    benchmark(embedder.embed, sets[0])


def test_sfi_probe(benchmark, sets, scale):
    embedder = SetEmbedder(k=scale.k, b=6, seed=0)
    matrix = embedder.embed_many(sets)
    sfi = FilterIndex(
        "sfi", 0.8, 32, embedder.dimension, PageManager(IOCostModel()),
        expected_entries=len(sets), seed=1,
    )
    sfi.insert_many(matrix, list(range(len(sets))))
    query = embedder.embed(sets[0])[None]
    benchmark(sfi.probe_tables, 0, sfi.n_tables, query, IOStats())


def test_query_untraced(benchmark, query_index, sets):
    """Full query pipeline with tracing off (the no-op span path).

    Compare against ``test_query_traced``: the gap is the total cost
    of the observability layer, required to stay under 5%... for the
    *disabled* path it is the cost of the disabled checks themselves.
    """
    benchmark(query_index.query, sets[0], 0.5, 1.0)


def test_query_traced(benchmark, query_index, sets, emit_json):
    """Full query pipeline with per-query tracing forced on."""

    def traced():
        return query_index.query(sets[0], 0.5, 1.0, explain=True)

    emit_json("MICRO-query-trace", explain_json(traced().trace))
    benchmark(traced)


def test_index_build_small(benchmark, sets, scale):
    subset = sets[:300]

    def build():
        return SetSimilarityIndex.build(
            subset, budget=100, recall_target=0.85, k=scale.k, seed=3,
            sample_pairs=20_000,
        )

    benchmark.pedantic(build, rounds=1, iterations=1)


def test_index_insert(benchmark, sets, scale):
    index = SetSimilarityIndex.build(
        sets[:300], budget=100, recall_target=0.85, k=scale.k, seed=3,
        sample_pairs=20_000,
    )
    fresh = iter(range(10**6, 10**7))

    def insert_one():
        return index.insert({next(fresh) for _ in range(40)})

    benchmark(insert_one)


def test_btree_insert_search(benchmark):
    def run():
        tree = BTree(PageManager(IOCostModel()), min_degree=32)
        for i in range(1000):
            tree.insert(i, i)
        for i in range(0, 1000, 7):
            tree.search(i)
        return tree

    benchmark.pedantic(run, rounds=3, iterations=1)
