"""The Section 4.3 query plans, once.

A range query picks the cut points minimally enclosing
``[sigma_low, sigma_high]``, probes the SFI/DFI structures placed
there, and combines the probe results by set difference (or, when the
two points carry different filter kinds, by a union through the
dual-kind pivot point between them).  Which plan a range gets depends
only on the plan's cut points and on which filter kinds exist at them,
so the live index and the frozen snapshots share these functions:
``sfis`` / ``dfis`` are any containers keyed by cut point.
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


def combine_candidates(
    plan: str,
    probed: dict[tuple[str, float], list[set[int]]],
    probes: list[tuple[str, float]],
    n_queries: int,
    rows: list[int],
    all_sids: Iterable[int],
) -> list[set[int]]:
    """Apply a plan's candidate algebra to its probe results.

    ``probed[(kind, point)][j]`` is the sid set that filter returned
    for the ``j``-th *non-empty* query; ``rows[j]`` is that query's
    batch position.  Empty query sets cannot be embedded and are
    disjoint from every stored set, so outside ``full_collection`` they
    keep an empty candidate set (``plan="empty_queries"`` when the
    whole batch is empty).
    """
    if plan == "full_collection":
        return [set(all_sids) for _ in range(n_queries)]
    results: list[set[int]] = [set() for _ in range(n_queries)]
    if plan == "empty_queries":
        return results
    per_row: list[set[int]]
    if plan in ("dfi(up)", "sfi(lo)"):
        per_row = probed[probes[0]]
    elif plan in ("complement_sfi(up)", "complement_dfi(lo)"):
        everything = set(all_sids)
        per_row = [everything - s for s in probed[probes[0]]]
    elif plan == "sfi_difference":
        low_sets, up_sets = probed[probes[0]], probed[probes[1]]
        per_row = [a - b for a, b in zip(low_sets, up_sets)]
    elif plan == "dfi_difference":
        low_sets, up_sets = probed[probes[0]], probed[probes[1]]
        per_row = [b - a for a, b in zip(low_sets, up_sets)]
    elif plan == "pivot_union":
        pivot_dissim, lo_dissim, pivot_sim, up_sim = (
            probed[p] for p in probes
        )
        per_row = [
            (pd - ld) | (ps - us)
            for pd, ld, ps, us in zip(
                pivot_dissim, lo_dissim, pivot_sim, up_sim
            )
        ]
    else:
        raise ValueError(f"unknown plan family: {plan!r}")
    for row, i in enumerate(rows):
        results[i] = per_row[row]
    return results


def estimate_in_range(
    embedder,
    candidates_list: list[set[int]],
    matrix: np.ndarray | None,
    rows: list[int],
    vectors_of: Callable[[list[int]], np.ndarray],
    sigma_low: float,
    sigma_high: float,
) -> int:
    """How many (query, candidate) pairs the Hamming estimate already
    places in range -- the ``est_in_range`` EXPLAIN aggregate.

    ``matrix`` holds the embedded non-empty queries (``rows`` their
    batch positions) and ``vectors_of(sids)`` the stored vectors of the
    given sids, one row each.  Wall-clock work only: never accounted as
    simulated CPU.
    """
    if matrix is None or not rows:
        return 0
    row_of_query = {i: row for row, i in enumerate(rows)}
    distinct = sorted(set().union(*candidates_list))
    col = {sid: j for j, sid in enumerate(distinct)}
    q_rows: list[int] = []
    c_cols: list[int] = []
    for i, candidates in enumerate(candidates_list):
        row = row_of_query.get(i)
        if row is None or not candidates:
            continue
        q_rows.extend([row] * len(candidates))
        c_cols.extend(col[sid] for sid in candidates)
    if not q_rows:
        return 0
    # Codec-calibrated estimate: full64 inverts Theorem 1 with the
    # fixed-precision collision bias, b-bit applies the Li & Koenig
    # slot correction.
    vals = embedder.estimate_pairs(matrix[q_rows], vectors_of(distinct)[c_cols])
    return int(((sigma_low <= vals) & (vals <= sigma_high)).sum())
