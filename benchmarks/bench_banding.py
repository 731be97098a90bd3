"""ABL-BANDING -- the paper's filter vs modern signature banding.

Was the ECC embedding necessary?  The later-standard MinHash-LSH bands
``r`` raw signature values per key, colliding with probability
``s**r`` in *Jaccard* similarity; the paper's bit-sampling filter
obeys the same law but in Hamming similarity ``(1+s)/2``, which
compresses all of Jaccard into the top half of the curve.

Shape to confirm: at the same threshold and table count, banding
retrieves similar sets with comparable recall while dragging in far
fewer dissimilar candidates (better screen precision).  What banding
cannot do is the paper's dissimilarity retrieval -- there is no
complement of a min-hash signature -- which is the genuine payoff of
the Hamming-space formalism.
"""

import numpy as np
import pytest

from repro.baselines.banding_lsh import BandingIndex
from repro.core.embedding import SetEmbedder
from repro.core.filter_index import FilterIndex
from repro.core.similarity import jaccard
from repro.data.weblog import make_set1
from repro.eval.report import format_table
from repro.storage.iomodel import IOCostModel, IOStats
from repro.storage.pager import PageManager

THRESHOLD = 0.4
N_TABLES = 32


def _filter_probe(fi, vector):
    """The filter's candidates for one packed query vector: its
    ``probe_tables`` over every table, the query pipeline's probe."""
    (_, sids), _ = fi.probe_tables(0, fi.n_tables, vector[None], IOStats())
    return set(sids.tolist())


def test_banding_vs_bit_sampling(benchmark, emit, scale):
    sets = make_set1(min(scale.n_sets, 1000), seed=111)
    k = min(scale.k, 64)

    def run():
        embedder = SetEmbedder(k=k, b=6, seed=12)
        signatures = embedder.hasher.signature_matrix(sets)
        vectors = embedder.code.encode_many(signatures % np.uint64(64))

        banding = BandingIndex(
            THRESHOLD, N_TABLES, k, PageManager(IOCostModel()),
            expected_entries=len(sets), seed=13,
        )
        banding.insert_many(signatures, list(range(len(sets))))

        bit_sampling = FilterIndex(
            "sfi", (1 + THRESHOLD) / 2, N_TABLES, embedder.dimension,
            PageManager(IOCostModel()), expected_entries=len(sets), seed=13,
        )
        bit_sampling.insert_many(vectors, list(range(len(sets))))

        rng = np.random.default_rng(3)
        queries = [int(rng.integers(0, len(sets))) for _ in range(30)]
        rows = []
        for label, probe in (
            ("banding (modern)", lambda qi: banding.probe(signatures[qi])),
            ("bit-sampling (paper)", lambda qi: _filter_probe(bit_sampling, vectors[qi])),
        ):
            recalls, candidate_counts = [], []
            for qi in queries:
                truth = {
                    i for i, s in enumerate(sets)
                    if jaccard(s, sets[qi]) >= THRESHOLD
                }
                hits = probe(qi)
                recalls.append(len(hits & truth) / len(truth))
                candidate_counts.append(len(hits))
            rows.append(
                [label, float(np.mean(recalls)), float(np.mean(candidate_counts))]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ABL-BANDING",
        format_table(
            ["structure", "avg recall (>= 0.4 truth)", "avg candidates"], rows
        )
        + f"\n(threshold {THRESHOLD}, {N_TABLES} tables each; banding has no "
        "dissimilarity/complement analogue)",
    )
    band_row, bits_row = rows
    # Banding keeps recall while screening out far more dissimilar sets.
    assert band_row[1] >= bits_row[1] - 0.1
    assert band_row[2] < bits_row[2]
