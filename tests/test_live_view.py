"""The live view's fetch (``repro.core.index._LiveView``).

A fetch only charges the set store's page rule -- one random read plus
``span - 1`` sequential reads per set, or one sequential pass for a
scan -- and verification gathers hash rows from the index's arena,
reading a set (uncharged) only for the exact fallback paths.
"""

from __future__ import annotations

import pytest

from repro.core.index import SetSimilarityIndex, _LiveView
from repro.data.generators import planted_clusters
from repro.exec.columnar import SMALL_VERIFY_CUTOFF
from repro.storage.iomodel import IOStats
from repro.storage.setstore import SetStore


def _index() -> SetSimilarityIndex:
    # A page holds 64 elements: one-page and two-page sets.
    sets = [
        s
        for base_size, seed in ((40, 5), (100, 6))
        for s in planted_clusters(
            n_clusters=3, per_cluster=8, base_size=base_size,
            universe=3000, mutation_rate=0.2, seed=seed,
        )
    ]
    return SetSimilarityIndex.build(
        sets, budget=30, recall_target=0.8, k=20, b=4, seed=5,
        sample_pairs=1_500,
    )


@pytest.fixture(scope="module")
def index():
    return _index()


def _measured(index, read) -> IOStats:
    before = index.io.snapshot()
    read()
    return index.io.snapshot() - before


def test_fetch_charges_what_the_store_reads(index):
    sids = sorted(index.sids)
    spans = index.store.set_pages(index._hashes.size[sids])
    assert spans.min() == 1 and spans.max() > 1
    view = _LiveView(index)
    charged = IOStats()
    view.fetch(sids, charged)
    assert charged == _measured(
        index, lambda: [index.store.get(sid) for sid in sids]
    )
    charged = IOStats()
    view.fetch(None, charged)
    assert charged == _measured(index, lambda: list(index.store.scan()))


@pytest.mark.parametrize("strategy", ["index", "scan"])
def test_verify_reads_no_set(index, monkeypatch, strategy):
    """Past the small-list cutoff, with no collided set or query, a
    query charges its fetches but never reads a set."""
    reads = []
    get = SetStore.get
    monkeypatch.setattr(
        SetStore, "get", lambda store, sid: reads.append(sid) or get(store, sid)
    )
    query = index.store.peek(0)
    result = index.query(query, 0.0, 1.0, strategy=strategy)
    assert result.n_candidates > SMALL_VERIFY_CUTOFF
    assert not index._cfallback
    assert result.io.random_reads + result.io.sequential_reads > 0
    assert reads == []

