"""The paper's primary contribution: tunable similar-set retrieval.

Pipeline (Sections 3-5):

* :mod:`repro.core.similarity` -- the Jaccard measure (Definition 1).
* :mod:`repro.core.minhash` -- min-wise signatures (Section 3.1).
* :mod:`repro.core.ecc` -- the distance-``m/2`` code (Section 3.2).
* :mod:`repro.core.embedding` -- set -> Hamming embedding (Theorem 1).
* :mod:`repro.core.filter_function` -- ``p_{r,l}`` (Equation 4).
* :mod:`repro.core.filter_index` -- SFI and DFI (Sections 4.1-4.2).
* :mod:`repro.core.distribution` -- ``D_S`` and equidepth (Section 5).
* :mod:`repro.core.optimizer` -- Fig. 4 / Fig. 5 construction.
* :mod:`repro.core.index` -- the composite index (Section 4.3).
* :mod:`repro.core.metrics` -- precision/recall scoring.
"""

from repro.core.codec import CodecError, CodecSpec, parse_codec
from repro.core.distribution import SimilarityDistribution
from repro.core.ecc import HadamardCode
from repro.core.embedding import SetEmbedder, hamming_to_jaccard, jaccard_to_hamming
from repro.core.filter_function import FilterFunction, filter_probability, solve_r, turning_point
from repro.core.filter_index import FilterIndex
from repro.core.index import QueryResult, SetSimilarityIndex
from repro.core.metrics import QueryQuality, evaluate_query
from repro.core.minhash import MinHasher, SuperMinHasher
from repro.core.optimizer import (
    DFI,
    SFI,
    CaptureModel,
    IndexPlan,
    PlannedFilter,
    RangeStats,
    average_precision,
    average_recall,
    default_range_workload,
    evaluate_plan,
    evaluate_ranges,
    greedy_allocate,
    place_filters,
    plan_index,
    uniform_allocate,
    worst_precision,
    worst_recall,
)
from repro.core.estimator import (
    chernoff_error_bound,
    estimate_interval,
    required_signature_length,
)
from repro.core.planner import PlanEstimate, QueryPlanner
from repro.core.similarity import containment, dice, jaccard, jaccard_distance, overlap
from repro.core.weighted import (
    WeightedSetSimilarityIndex,
    quantize,
    weighted_jaccard,
)

__all__ = [
    "CodecError",
    "CodecSpec",
    "DFI",
    "SFI",
    "CaptureModel",
    "SuperMinHasher",
    "parse_codec",
    "RangeStats",
    "average_precision",
    "average_recall",
    "default_range_workload",
    "evaluate_ranges",
    "worst_precision",
    "worst_recall",
    "FilterFunction",
    "FilterIndex",
    "HadamardCode",
    "IndexPlan",
    "MinHasher",
    "PlannedFilter",
    "QueryQuality",
    "QueryResult",
    "PlanEstimate",
    "QueryPlanner",
    "SetEmbedder",
    "SetSimilarityIndex",
    "SimilarityDistribution",
    "WeightedSetSimilarityIndex",
    "chernoff_error_bound",
    "containment",
    "estimate_interval",
    "quantize",
    "required_signature_length",
    "weighted_jaccard",
    "dice",
    "evaluate_plan",
    "evaluate_query",
    "filter_probability",
    "greedy_allocate",
    "hamming_to_jaccard",
    "jaccard",
    "jaccard_distance",
    "jaccard_to_hamming",
    "overlap",
    "place_filters",
    "plan_index",
    "solve_r",
    "turning_point",
    "uniform_allocate",
]
