"""Reproduction of "Efficient and Tunable Similar Set Retrieval"
(Gionis, Gunopulos, Koudas; SIGMOD 2001).

The package indexes collections of sets for Jaccard-similarity *range*
queries: "return every stored set whose similarity with the query set
lies in [sigma_1, sigma_2]".  Sets are embedded into a Hamming space by
min-hash signatures plus an error-correcting code, the Hamming space is
probed by tunable hash-based filter indices, and an optimizer places
and sizes those filters under a space budget to maximize precision
subject to a recall floor.

Quick start::

    from repro import SetSimilarityIndex

    index = SetSimilarityIndex.build(my_sets, budget=500, recall_target=0.9)
    result = index.query(query_set, 0.4, 0.7)
    for sid, similarity in result.answers:
        ...

Subpackages: :mod:`repro.core` (the contribution), :mod:`repro.hamming`
(bit-level primitives), :mod:`repro.storage` (simulated disk engine),
:mod:`repro.data` (workload generators), :mod:`repro.baselines`
(sequential scan, naive embedding, exact inverted index), and
:mod:`repro.eval` (the experiment harness for the paper's figures).
"""

from repro.core import (
    FilterFunction,
    FilterIndex,
    HadamardCode,
    IndexPlan,
    MinHasher,
    QueryResult,
    SetEmbedder,
    SetSimilarityIndex,
    SimilarityDistribution,
    jaccard,
    jaccard_distance,
    plan_index,
)

__version__ = "1.0.0"

__all__ = [
    "FilterFunction",
    "FilterIndex",
    "HadamardCode",
    "IndexPlan",
    "MinHasher",
    "QueryResult",
    "SetEmbedder",
    "SetSimilarityIndex",
    "SimilarityDistribution",
    "__version__",
    "jaccard",
    "jaccard_distance",
    "plan_index",
]
