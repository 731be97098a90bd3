"""The Section 4.3 query plans, once.

A range query picks the cut points minimally enclosing
``[sigma_low, sigma_high]``, probes the SFI/DFI structures placed
there, and combines the probe results by set difference (or, when the
two points carry different filter kinds, by a union through the
dual-kind pivot point between them).  Which plan a range gets depends
only on the plan's cut points and on which filter kinds exist at them,
so the live index and the frozen snapshots share these functions:
``sfis`` / ``dfis`` are any containers keyed by cut point.  Probe
results and candidates are candidate CSRs over query rows
(:func:`repro.exec.columnar.pairs_csr`), and the algebra runs on them.
"""

from __future__ import annotations

from typing import Callable, Container, Iterable, Sequence

import numpy as np


def enclosing_points(
    cut_points: Iterable[float], sigma_low: float, sigma_high: float
) -> tuple[float | None, float | None]:
    """Cut points minimally enclosing the range; None = virtual 0/1."""
    lo = max((c for c in cut_points if c <= sigma_low), default=None)
    up = min((c for c in cut_points if c >= sigma_high), default=None)
    return lo, up


def pivot_between(
    cut_points: Iterable[float],
    sfis: Container[float],
    dfis: Container[float],
    lo: float,
    up: float,
) -> float:
    """The dual-kind cut point a mixed DFI/SFI range pivots through."""
    for point in cut_points:
        if lo <= point <= up and point in sfis and point in dfis:
            return point
    raise RuntimeError(
        f"no dual-kind pivot between cut points {lo} and {up}; "
        "the plan is inconsistent"
    )


def plan_probes(
    cut_points: Sequence[float],
    sfis: Container[float],
    dfis: Container[float],
    sigma_low: float,
    sigma_high: float,
) -> tuple[str, list[tuple[str, float]], float | None]:
    """The plan family for a range and the filter probes it needs.

    Returns ``(plan, probes, pivot)``: ``probes`` lists the distinct
    ``(kind, point)`` filters to probe, in the order
    :func:`combine_candidates` consumes them.
    """
    lo, up = enclosing_points(cut_points, sigma_low, sigma_high)
    if lo is None and up is None:
        return "full_collection", [], None
    if lo is None:
        if up in dfis:
            return "dfi(up)", [("dfi", up)], None
        # Inefficient fallback the DFI exists to avoid.
        return "complement_sfi(up)", [("sfi", up)], None
    if up is None:
        if lo in sfis:
            return "sfi(lo)", [("sfi", lo)], None
        return "complement_dfi(lo)", [("dfi", lo)], None
    if lo in sfis and up in sfis:
        return "sfi_difference", [("sfi", lo), ("sfi", up)], None
    if lo in dfis and up in dfis:
        return "dfi_difference", [("dfi", lo), ("dfi", up)], None
    # Mixed case: lo is a pure DFI point, up a pure SFI point; pivot
    # through the dual-kind point between them.
    pivot = pivot_between(cut_points, sfis, dfis, lo, up)
    return (
        "pivot_union",
        [("dfi", pivot), ("dfi", lo), ("sfi", pivot), ("sfi", up)],
        pivot,
    )


def plan_batch(
    cut_points: Sequence[float],
    sfis: Container[float],
    dfis: Container[float],
    query_sets: list[frozenset],
    sigma_low: float,
    sigma_high: float,
) -> tuple[str, list[tuple[str, float]], float | None, list[int]]:
    """:func:`plan_probes` for a batch: ``(plan, probes, pivot, rows)``
    with ``rows`` the batch positions of the query sets that get
    embedded and probed.

    The empty set cannot be embedded (min over nothing) and is disjoint
    from every stored set, so only ``full_collection`` can return
    anything for it; a batch of nothing but empty sets probes nothing
    (``plan="empty_queries"``).
    """
    plan, probes, pivot = plan_probes(
        cut_points, sfis, dfis, sigma_low, sigma_high
    )
    rows: list[int] = []
    if plan != "full_collection":
        rows = [i for i, q in enumerate(query_sets) if q]
        if not rows:
            plan, probes = "empty_queries", []
    return plan, probes, pivot, rows


def _keys(csr, span: int) -> np.ndarray:
    """A CSR's entries as ascending ``row * span + sid`` keys."""
    from repro.exec.columnar import csr_rows, row_keys

    indptr, sids = csr
    return row_keys(csr_rows(indptr), sids, len(indptr) - 1, span)


def _difference(a, b):
    """Row-wise ``a - b`` of two candidate CSRs over the same rows."""
    from repro.exec.columnar import csr_from_counts, csr_rows

    indptr, sids = a
    if len(sids) == 0 or len(b[1]) == 0:
        return a
    span = 1 + max(int(sids.max()), int(b[1].max()))
    keys, drop = _keys(a, span), _keys(b, span)
    pos = np.minimum(np.searchsorted(drop, keys), len(drop) - 1)
    keep = drop[pos] != keys
    return (
        csr_from_counts(np.bincount(
            csr_rows(indptr)[keep], minlength=len(indptr) - 1
        )),
        sids[keep],
    )


def _union(a, b):
    """Row-wise ``a | b`` of two candidate CSRs over the same rows."""
    from repro.exec.columnar import csr_rows, pairs_csr

    return pairs_csr(
        np.concatenate([csr_rows(a[0]), csr_rows(b[0])]),
        np.concatenate([a[1], b[1]]),
        len(a[0]) - 1,
    )


def _everything(all_sids: np.ndarray, n_rows: int):
    """The CSR of ``n_rows`` rows that each hold every stored sid."""
    return (
        np.arange(n_rows + 1, dtype=np.int64) * len(all_sids),
        np.tile(all_sids, n_rows),
    )


def combine_candidates(
    plan: str,
    probed: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]],
    probes: list[tuple[str, float]],
    n_queries: int,
    rows: list[int],
    all_sids: Callable[[], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a plan's candidate algebra to its probe results.

    Every operand and the result is a candidate CSR (see
    :func:`repro.exec.columnar.pairs_csr`): ``probed[(kind, point)]``
    has one row per *non-empty* query, ``rows[j]`` (ascending) being
    the batch position of row ``j``, and the result has one row per
    query of the batch.  Set difference and union run on the rows'
    ascending ``row * span + sid`` keys, so no per-query set is built.
    ``all_sids()`` is the ascending array of every stored sid, asked
    for only by the plans that need it.  Empty query sets cannot be
    embedded and are disjoint from every stored set, so outside
    ``full_collection`` they keep no candidates
    (``plan="empty_queries"`` when the whole batch is empty).
    """
    from repro.exec.columnar import csr_from_counts

    if plan == "full_collection":
        return _everything(all_sids(), n_queries)
    if plan == "empty_queries":
        return np.zeros(n_queries + 1, dtype=np.int64), np.empty(0, np.int64)
    if plan in ("dfi(up)", "sfi(lo)"):
        per_row = probed[probes[0]]
    elif plan in ("complement_sfi(up)", "complement_dfi(lo)"):
        per_row = _difference(_everything(all_sids(), len(rows)), probed[probes[0]])
    elif plan == "sfi_difference":
        per_row = _difference(probed[probes[0]], probed[probes[1]])
    elif plan == "dfi_difference":
        per_row = _difference(probed[probes[1]], probed[probes[0]])
    elif plan == "pivot_union":
        pivot_dissim, lo_dissim, pivot_sim, up_sim = (
            probed[p] for p in probes
        )
        per_row = _union(
            _difference(pivot_dissim, lo_dissim),
            _difference(pivot_sim, up_sim),
        )
    else:
        raise ValueError(f"unknown plan family: {plan!r}")
    indptr, sids = per_row
    counts = np.zeros(n_queries, dtype=np.int64)
    counts[rows] = np.diff(indptr)
    return csr_from_counts(counts), sids


def estimate_in_range(
    embedder,
    candidates: tuple[np.ndarray, np.ndarray],
    codes: np.ndarray | None,
    rows: list[int],
    codes_of: Callable[[np.ndarray], np.ndarray],
    sigma_low: float,
    sigma_high: float,
) -> int:
    """How many (query, candidate) pairs the signature estimate already
    places in range -- the ``est_in_range`` EXPLAIN aggregate.

    ``candidates`` is the batch's candidate CSR, ``codes`` holds the
    signature codes of the non-empty queries (``rows`` their batch
    positions) and ``codes_of(sids)`` the stored codes of the given
    ascending sids, one row each.  Wall-clock work only: never
    accounted as simulated CPU.
    """
    from repro.exec.columnar import csr_rows, positions_in, sorted_unique

    if codes is None or not rows:
        return 0
    indptr, sids = candidates
    code_row = np.full(len(indptr) - 1, -1, dtype=np.int64)
    code_row[rows] = np.arange(len(rows), dtype=np.int64)
    q_rows = code_row[csr_rows(indptr)]
    embedded = q_rows >= 0
    q_rows, sids = q_rows[embedded], sids[embedded]
    if len(sids) == 0:
        return 0
    distinct = sorted_unique(sids)
    c_cols = positions_in(distinct, sids)
    # Slot agreement with the fixed-precision collision correction.
    vals = embedder.estimate_pairs(codes[q_rows], codes_of(distinct)[c_cols])
    return int(((sigma_low <= vals) & (vals <= sigma_high)).sum())
