"""Columnar exact-Jaccard kernels over sorted stable-hash arrays.

Exact verification dominates query CPU once the filters have done
their job: every (query, candidate) pair needs ``|A & B| / |A | B|``
on the *actual* sets.  Doing that with Python ``frozenset``
intersections costs an interpreter round-trip per pair.  These kernels
instead represent every set as a **sorted array of 64-bit stable
element hashes**; a whole candidate list is verified in a few linear
passes over the concatenated (CSR) hash arrays.

Correctness: Jaccard only consumes element *identity*, so any
injective mapping of elements preserves it.  The mapping here is the
engine's one element hash, :func:`repro.core.minhash.stable_element_hash`
(the same values the signatures are computed from) -- collisions
between distinct elements are astronomically rare (~2^-64 per pair),
and the one observable failure mode that is cheap to detect -- two
distinct elements of the *same* set colliding, which would corrupt
that set's array length -- is detected at hash time (:func:`hash_set`
returns a ``collided`` flag) so callers can fall back to exact
``frozenset`` verification for the affected set.

Bit-identity with the scalar path: ``intersection / union`` on Python
ints and on int64 numpy arrays both perform correctly-rounded IEEE-754
double division for operands below 2**53, so the produced similarity
floats are identical to :func:`repro.core.similarity.jaccard`.

:func:`verify_batch` is the one composition of these kernels every
query path runs (live index, snapshot, executors): per batch it either
verifies query by query (``pairwise``) or intersects each *distinct*
candidate once against all the batch's queries (``join``), chosen from
the batch's own counts.  The join screens every candidate hash through
a bitmap of the queries' hashes and searches only the survivors.

The candidate side sorts only when it must.  A batch's candidate keys
and sids fill small dense ranges, so deduplicating them
(:func:`sorted_unique`) and mapping sids to rows (:func:`positions_in`)
mark or index one dense array whenever the range is at most
``MARK_SPAN_FACTOR`` times the input (:func:`dense_span`), and sort or
search otherwise.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

import numpy as np

from repro.core.minhash import hash_rows
from repro.core.similarity import jaccard
from repro.obs import metrics
from repro.storage.iomodel import IOStats

_JOIN_BATCHES = metrics.counter("verify.join_batches")
_PAIRWISE_BATCHES = metrics.counter("verify.pairwise_batches")


_NO_HASHES = np.empty(0, dtype=np.uint64)

#: Candidate-list length below which the kernels lose to a plain
#: Python loop: the pipeline costs ~15 fixed-overhead numpy calls per
#: query, while exact per-pair Jaccard on already-fetched frozensets
#: is ~1-2us.  Callers fall back to the exact loop at or under this
#: size -- answers and accounting are identical either way.
SMALL_VERIFY_CUTOFF = 24


def hash_set(elements) -> tuple[np.ndarray, bool]:
    """Sorted uint64 hash array of a set, plus an intra-set collision flag.

    The one-row case of :func:`repro.core.minhash.hash_rows`.
    ``collided=True`` means two *distinct* elements of this set share a
    hash; its array then under-counts the set and the caller must use
    exact verification for any pair involving it.
    """
    _, data, collided = hash_rows([elements])
    return data, bool(collided[0])


def build_csr(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-set hash arrays into ``(indptr, data)`` CSR form.

    ``data[indptr[i]:indptr[i+1]]`` is row ``i``'s sorted hash array.
    """
    indptr = np.zeros(len(arrays) + 1, dtype=np.int64)
    if arrays:
        np.cumsum([len(a) for a in arrays], out=indptr[1:])
        data = (
            np.concatenate(arrays)
            if indptr[-1]
            else np.empty(0, dtype=np.uint64)
        )
    else:
        data = np.empty(0, dtype=np.uint64)
    return indptr, data


def gather_csr(
    indptr: np.ndarray, data: np.ndarray, rows: np.ndarray,
    lens: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sub-CSR of the given rows, in the given order, without a Python loop.

    The classic repeat/arange gather: absolute element indices are the
    repeated row starts plus each element's offset within its row.
    Given ``lens``, ``indptr[r]`` is only row ``r``'s start and
    ``lens[r]`` its length, so rows may sit anywhere in ``data`` (a
    :class:`HashArena`); otherwise a row ends where the next begins.
    """
    rows = np.asarray(rows, dtype=np.int64)
    lens = indptr[rows + 1] - indptr[rows] if lens is None else lens[rows]
    sub_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=sub_indptr[1:])
    total = int(sub_indptr[-1])
    if total == 0:
        return sub_indptr, np.empty(0, dtype=data.dtype)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        sub_indptr[:-1], lens
    )
    sub_data = data[np.repeat(indptr[rows], lens) + offsets]
    return sub_indptr, sub_data


def stored_rows(starts, data, sizes, rows=None, lens=None) -> dict:
    """:func:`verify_batch`'s ``csr`` / ``sizes`` adapters over stored
    hash rows, one gather and one fancy index each: a candidate's row
    is ``rows(sids)`` (default: its sid) of ``starts`` / ``sizes`` /
    ``lens``, as :func:`gather_csr` reads them."""
    at = (lambda sids: sids) if rows is None else rows
    return {
        "csr": lambda sids: gather_csr(starts, data, at(sids), lens),
        "sizes": lambda sids: sizes[at(sids)],
    }


def _grown(array: np.ndarray, need: int) -> np.ndarray:
    """``array`` copied into zeroed room for at least ``need`` entries
    (doubling, so appends are amortised O(1))."""
    out = np.zeros(max(need, 2 * len(array)), dtype=array.dtype)
    out[: len(array)] = array
    return out


class HashArena:
    """Every stored set's :func:`hash_set` array in one growable uint64
    arena, with per-sid ``start`` / ``lens`` / ``size`` arrays indexed
    by sid: set ``sid``'s row is ``data[start[sid]:start[sid] +
    lens[sid]]`` and ``size[sid]`` its cardinality.

    A row is written once, when its set is stored.  A deleted sid's row
    stays behind unreferenced, as its heap record does.
    """

    def __init__(self):
        self.data = np.empty(0, dtype=np.uint64)
        self.start = np.zeros(0, dtype=np.int64)
        self.lens = np.zeros(0, dtype=np.int64)
        self.size = np.zeros(0, dtype=np.int64)
        self.used = 0
        self.rows = 0

    def put(self, sid: int, hashes: np.ndarray, size: int) -> None:
        """Store set ``sid``'s sorted hash array and cardinality."""
        end = self.used + len(hashes)
        if end > len(self.data):
            self.data = _grown(self.data, end)
        if sid >= len(self.start):
            self.start, self.lens, self.size = (
                _grown(a, sid + 1) for a in (self.start, self.lens, self.size)
            )
        self.data[self.used:end] = hashes
        self.start[sid], self.lens[sid], self.size[sid] = (
            self.used, len(hashes), size
        )
        self.used, self.rows = end, max(self.rows, sid + 1)

    @classmethod
    def from_csr(cls, sids, indptr, data, sizes) -> "HashArena":
        """An arena holding row ``i`` of the CSR ``(indptr, data)`` (and
        cardinality ``sizes[i]``) as set ``sids[i]``'s, copied."""
        arena = cls()
        arena.rows = int(sids[-1]) + 1 if len(sids) else 0
        arena.data = np.array(data, dtype=np.uint64)
        arena.start, arena.lens, arena.size = (
            np.zeros(arena.rows, dtype=np.int64) for _ in range(3)
        )
        arena.start[sids] = indptr[:-1]
        arena.lens[sids] = np.diff(indptr)
        arena.size[sids] = sizes
        arena.used = len(arena.data)
        return arena


def intersect_counts(
    query: np.ndarray, indptr: np.ndarray, data: np.ndarray
) -> np.ndarray:
    """``|row_i & query|`` for every CSR row, as an int64 array.

    ``query`` must be sorted and duplicate-free (a :func:`hash_set`
    array without collisions).  One vectorized ``searchsorted`` +
    cumulative-sum pass serves all rows; empty rows correctly count 0
    (which ``np.add.reduceat`` would get wrong).
    """
    n_rows = len(indptr) - 1
    if len(query) == 0 or len(data) == 0:
        return np.zeros(n_rows, dtype=np.int64)
    pos = np.searchsorted(query, data)
    found = (pos < len(query)) & (
        query[np.minimum(pos, len(query) - 1)] == data
    )
    cs = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum(found, out=cs[1:])
    return cs[indptr[1:]] - cs[indptr[:-1]]


def in_range_answers(
    cand_list, values, sigma_low: float, sigma_high: float
) -> list[tuple[int, float]]:
    """Filter (sid, similarity) pairs to the range, sorted best-first
    (sid ties ascending) -- the order every verification path produces.

    ``cand_list`` holds distinct sids and ``values`` their similarities
    (an array or a list of floats).  The range test and the order run on
    arrays; Python tuples are built for the in-range hits only.
    """
    sids = np.asarray(cand_list, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    keep = np.flatnonzero((sigma_low <= values) & (values <= sigma_high))
    keep = keep[np.lexsort((sids[keep], -values[keep]))]
    return list(zip(sids[keep].tolist(), values[keep].tolist()))


def jaccard_values(query_len, sizes: np.ndarray, inter: np.ndarray) -> np.ndarray:
    """Exact Jaccard of the query against each candidate, vectorized.

    ``sizes[i]`` is candidate ``i``'s cardinality and ``inter[i]`` its
    intersection count with the query; ``query_len`` is the query's
    cardinality (or one per pair, for pairs of several queries).
    Matches :func:`repro.core.similarity.jaccard` bit for bit, including
    the empty-vs-empty convention (similarity 1).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    inter = np.asarray(inter, dtype=np.int64)
    union = sizes + np.asarray(query_len, dtype=np.int64) - inter
    values = np.ones(len(sizes), dtype=np.float64)
    np.divide(inter, union, out=values, where=union > 0)
    return values


#: Sharing (candidate pairs over distinct candidates) from which the
#: join is tried.  A join that runs beats pairwise from the start --
#: verify stage 3.2x faster at sharing 1.4, 4-5x at 2.4, 8x at 4.6, 22x
#: at 37 (live ``query_batch`` on the benchmark's planted collection,
#: batch size swept 2..64) -- so this is not that crossover.  It bounds
#: what a try costs when the size rule then rejects it: the distinct
#: CSR, the query union's bitmap and the search are +95% of the verify
#: stage at sharing 1..1.5 and +120% at 2.2 (the benchmark's weblog
#: collection, whose Zipf-hot elements reject every try, batches of
#: 2..64), and about +40% at 4, +25% at 8 and +15% at 16 (synthetic
#: sets with 32 of 40 elements hot, where the bitmap screens nothing
#: out).  3 would add joins only for the planted batches with sharing
#: in [3, 4) (one batch of the sweep) while narrowing the margin over
#: weblog's 2.2.
JOIN_MIN_SHARING = 4


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equals in a sorted array."""
    mask = np.ones(len(values), dtype=bool)
    mask[1:] = values[1:] != values[:-1]
    return mask


#: Span (largest value + 1) over input length up to which a dense array
#: replaces a sort.  Marking costs one pass over the span, sorting
#: n log n: for 50k random int64 values marking beats ``np.sort`` plus
#: a run mask 5-7x at span factor 1, 2-3x at 4 and breaks even near 8;
#: at 200k values it is 4x at 1 and 1.8x at 4; at 5k, 2.5-3x at 1 and
#: 1.2x at 4; at 500 they tie at 4.  The rule's min/max pass costs ~2%
#: of a sort.  At 4 a bool mark array is half the int64 input it
#: replaces.
MARK_SPAN_FACTOR = 4


def dense_span(values: np.ndarray) -> int:
    """``max(values) + 1`` when ``values`` fit a dense array -- non-empty,
    non-negative, that span at most ``MARK_SPAN_FACTOR x len(values)``
    -- else 0.  The one rule every mark and lookup path here applies."""
    if len(values) == 0 or (values.dtype.kind == "i" and values.min() < 0):
        return 0
    span = int(values.max()) + 1
    return span if span <= MARK_SPAN_FACTOR * len(values) else 0


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d integer array: ascending, each value once,
    in the input's dtype.

    Values in a small dense range (:func:`dense_span`) set a bool mark
    array whose ``np.flatnonzero`` is the answer; any others take
    ``np.sort`` plus a run mask.  Either way this is far faster than
    ``np.unique`` on numpy 2.4 (sorting: 0.98 vs 20.8 ms at 82k int64
    elements), which is why the candidate CSR code below never calls
    the latter.
    """
    span = dense_span(values)
    if span:
        mark = np.zeros(span, dtype=bool)
        mark[values] = True
        return np.flatnonzero(mark).astype(values.dtype, copy=False)
    values = np.sort(values)
    return values[_run_starts(values)]


def positions_in(distinct: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's index in ``distinct``, which is ascending and holds
    every value (its :func:`sorted_unique`): one gather from a dense
    lookup array when the values pass :func:`dense_span` (the array is
    then at most ``MARK_SPAN_FACTOR`` times the int64 input), else a
    binary search."""
    span = dense_span(values)
    if not span:
        return np.searchsorted(distinct, values)
    lookup = np.empty(span, dtype=np.int64)
    lookup[distinct] = np.arange(len(distinct), dtype=np.int64)
    return lookup[values]


# -- candidate CSR -----------------------------------------------------------
#
# A batch's candidates travel as one CSR over its query rows: ``(indptr,
# sids)``, row ``i`` owning ``sids[indptr[i]:indptr[i + 1]]``, ascending
# and unique.  Sids are non-negative int64, so a row's entries and the
# whole CSR sort as the keys ``row * span + sid`` for any ``span`` above
# the largest sid -- the form the plan algebra and every merge use, all
# built by :func:`row_keys`.


class KeyOverflowError(ValueError):
    """A candidate CSR's ``row * span + sid`` keys would not fit int64
    (huge, sparse sids in a batch of several rows)."""


def row_keys(rows: np.ndarray, sids: np.ndarray, n_rows: int, span: int) -> np.ndarray:
    """The int64 keys ``row * span + sid`` of ``(row, sid)`` pairs with
    rows in ``[0, n_rows)`` and sids in ``[0, span)``; raises
    :class:`KeyOverflowError` before multiplying when the largest key,
    ``n_rows * span - 1``, would not fit int64."""
    if n_rows * span - 1 > np.iinfo(np.int64).max:
        raise KeyOverflowError(
            f"candidate keys of {n_rows} rows over sids below {span} "
            "overflow int64"
        )
    return rows * span + sids


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a CSR with this ``indptr``."""
    return np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
    )


def csr_from_counts(counts: np.ndarray) -> np.ndarray:
    """The ``indptr`` of rows holding ``counts`` entries each."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def pairs_csr(
    rows: np.ndarray, sids: np.ndarray, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate CSR over ``n_rows`` rows of ``(row, sid)`` pairs
    given in any order, repeats dropped: one :func:`sorted_unique` of
    combined keys."""
    sids = np.asarray(sids, dtype=np.int64)
    if len(sids) == 0:
        return np.zeros(n_rows + 1, dtype=np.int64), sids
    span = int(sids.max()) + 1
    keys = sorted_unique(
        row_keys(np.asarray(rows, dtype=np.int64), sids, n_rows, span)
    )
    rows = keys // span
    return (
        csr_from_counts(np.bincount(rows, minlength=n_rows)),
        keys - rows * span,
    )


def csr_of(rows: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The candidate CSR of per-row sid collections (sets, lists or
    arrays): the adapter for callers that hold Python sets."""
    counts = [len(row) for row in rows]
    sids = np.fromiter(
        chain.from_iterable(rows), dtype=np.int64, count=sum(counts)
    )
    return pairs_csr(
        np.repeat(np.arange(len(rows), dtype=np.int64), counts), sids,
        len(rows),
    )


def csr_split(indptr: np.ndarray, sids: np.ndarray) -> list[np.ndarray]:
    """Each row's sids, as views into ``sids``."""
    bounds = indptr.tolist()
    return [sids[a:b] for a, b in zip(bounds, bounds[1:])]


def csr_slice(
    csr: tuple[np.ndarray, np.ndarray], start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``start .. stop - 1`` of a CSR, as a CSR of their own."""
    indptr, sids = csr
    return (
        indptr[start:stop + 1] - indptr[start],
        sids[indptr[start]:indptr[stop]],
    )


#: Bitmap slots (bools) per distinct query hash in :func:`join_counts`'
#: screen, rounded up to a power of two: a non-member passes with odds
#: of at most ``1 / BITMAP_SLOTS_PER_HASH``.  A planted benchmark batch
#: of 64 queries has ~2.4k distinct query hashes -- a 2^18 bitmap (256
#: KiB), which ~20k of its ~120k candidate hashes pass, ~19k of them
#: members.
BITMAP_SLOTS_PER_HASH = 64


def join_counts(
    query_arrays: Sequence[np.ndarray],
    indptr: np.ndarray,
    data: np.ndarray,
    max_entries: int,
) -> tuple[np.ndarray | None, int]:
    """``|row & query|`` for every (query, row), each row searched once.

    ``query_arrays[q]`` is query ``q``'s sorted duplicate-free hash array
    and ``(indptr, data)`` the CSR of the rows.  A bitmap indexed by the
    low bits of the union of the query hashes screens ``data`` in one
    gather: a row element whose low bits no query hash has is held by
    no query.  Element hashes are uniform, so at ``BITMAP_SLOTS_PER_HASH``
    slots per query hash few non-members pass, and only the survivors are
    searched in the sorted union and kept on exact equality -- the
    counts stay exact.  The hits are expanded into (query, row) entries
    -- one per query holding the element -- and counted into a
    ``len(query_arrays) x n_rows`` table.

    Returns ``(table, join_size)``.  ``join_size`` is the number of
    entries the expansion holds, known before it is materialised; when
    ``join_size``, ``len(data)`` and the table together exceed
    ``max_entries`` nothing is expanded and ``table`` is None.
    """
    n_queries, n_rows = len(query_arrays), len(indptr) - 1
    lens = np.fromiter(
        (len(a) for a in query_arrays), dtype=np.int64, count=n_queries
    )
    if len(data) == 0 or not lens.any():
        fits = n_queries * n_rows + len(data) <= max_entries
        return (
            np.zeros((n_queries, n_rows), dtype=np.int64) if fits else None
        ), 0
    # Inverted view of the queries: the sorted union of their hashes and,
    # per union element, the run of queries that hold it.
    hashes = np.concatenate(query_arrays)
    order = np.argsort(hashes, kind="stable")
    hashes = hashes[order]
    holders = np.repeat(np.arange(n_queries, dtype=np.int64), lens)[order]
    starts = np.flatnonzero(_run_starts(hashes))
    union = hashes[starts]
    runs = np.append(starts, len(hashes))
    mask = (1 << (BITMAP_SLOTS_PER_HASH * len(union)).bit_length()) - 1
    bitmap = np.zeros(mask + 1, dtype=bool)
    bitmap[union & np.uint64(mask)] = True
    passed = np.flatnonzero(bitmap[data & np.uint64(mask)])
    pos = np.minimum(np.searchsorted(union, data[passed]), len(union) - 1)
    found = union[pos] == data[passed]
    hit, pos = passed[found], pos[found]
    first = runs[pos]
    fan = runs[pos + 1] - first
    join_size = int(fan.sum())
    if join_size + n_queries * n_rows + len(data) > max_entries:
        return None, join_size
    hit_row = np.searchsorted(indptr, hit, side="right") - 1
    # Entry e of hit h is the e-th holder of h's element.
    of_hit = np.repeat(np.arange(len(hit), dtype=np.int64), fan)
    holder_at = (first - (np.cumsum(fan) - fan))[of_hit] + np.arange(
        join_size, dtype=np.int64
    )
    table = np.bincount(
        holders[holder_at] * n_rows + hit_row[of_hit],
        minlength=n_queries * n_rows,
    )
    return table.reshape(n_queries, n_rows), join_size


def verify_batch(
    query_sets: Sequence[frozenset],
    candidates: tuple[np.ndarray, np.ndarray],
    sigma_low: float,
    sigma_high: float,
    io: IOStats,
    *,
    csr: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    sizes: Callable[[np.ndarray], np.ndarray],
    fallback_sids,
    get_set: Callable[[int], frozenset],
    query_hashes: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[list[list[tuple[int, float]]], dict]:
    """Exact in-range answers of a batch, best-first per query.

    The one verify composition every path runs.  ``candidates`` is the
    batch's candidate CSR (see :func:`pairs_csr`): one row per query,
    sids ascending and unique.  The caller describes
    its stored sets through four adapters: ``csr(sids)`` is the sorted
    hash arrays of the given sids (an ascending int64 array) in CSR
    form, ``sizes(sids)`` their cardinalities, ``fallback_sids`` those
    whose hash array is unusable (intra-set collision) and
    ``get_set(sid)`` the actual set, for them and for collided queries.
    ``query_hashes`` is the queries' :func:`~repro.core.minhash.hash_rows`
    CSR ``(indptr, data, collided)``, as the embed stage made it.
    ``io.cpu_ops`` is charged what the scalar loop charges per pair,
    ``len(stored) + len(query)``.

    Two kernels, same answers, order and charges.  *Pairwise* verifies
    each query against its own candidates' CSR (:func:`intersect_counts`).
    *Join* builds the CSR of the batch's distinct candidates once and
    intersects it with all the queries in one pass (:func:`join_counts`),
    which pays when the queries share candidates.  The batch picks from
    its own counts: join when pairs >= ``JOIN_MIN_SHARING`` x distinct
    and everything the join materialises -- its expansion, whose exact
    size is known before it is built, the distinct CSR and the count
    table -- stays within what the pairwise path would touch (pairs x
    mean set size).  Elements that every query and every candidate hold
    make the expansion quadratic; the bound is also the memory cap.

    Returns ``(answers_list, info)``; ``info`` names the kernel that ran
    (``verify_kernel``: ``join`` | ``pairwise``) and the counts it was
    chosen from (``pairs``, ``distinct``, ``join_size``).
    """
    bounds, pair_sid = candidates
    counts = np.diff(bounds)
    pairs = len(pair_sid)
    distinct = sorted_unique(pair_sid)
    adapters = dict(
        csr=csr, sizes=sizes, fallback_sids=fallback_sids, get_set=get_set
    )
    answers_list, join_size = None, 0
    if pairs and pairs >= JOIN_MIN_SHARING * len(distinct):
        answers_list, join_size = _verify_join(
            query_sets, query_hashes, counts, pair_sid, distinct,
            sigma_low, sigma_high, io, **adapters,
        )
    joined = answers_list is not None
    if not joined:
        answers_list = [
            _verify_pairwise(
                query_sets[q], query_hashes, q, pair_sid[a:b],
                sigma_low, sigma_high, io, **adapters,
            )
            for q, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
    (_JOIN_BATCHES if joined else _PAIRWISE_BATCHES).inc()
    return answers_list, {
        "verify_kernel": "join" if joined else "pairwise",
        "pairs": pairs, "distinct": len(distinct), "join_size": join_size,
    }


def merge_verify_info(infos: Sequence[dict]) -> dict:
    """One ``info`` for several :func:`verify_batch` calls (the chunks of
    a batch, the shards of a fleet): counts summed, ``verify_kernel``
    ``mixed`` when the calls did not all take the same side."""
    kernels = {info["verify_kernel"] for info in infos} or {"pairwise"}
    merged = {"verify_kernel": kernels.pop() if len(kernels) == 1 else "mixed"}
    for key in ("pairs", "distinct", "join_size"):
        merged[key] = sum(info[key] for info in infos)
    return merged


def _verify_pairwise(
    query_set, query_hashes, q, cand_sids, sigma_low, sigma_high, io,
    *, csr, sizes, fallback_sids, get_set,
) -> list[tuple[int, float]]:
    """Query ``q`` against its own candidates (ascending sids)."""
    if len(cand_sids) == 0:
        return []
    cand_list = cand_sids.tolist()
    cand_sizes = sizes(cand_sids)
    io.cpu_ops += int(cand_sizes.sum()) + len(cand_list) * len(query_set)
    indptr, data, collided = query_hashes
    if len(cand_list) <= SMALL_VERIFY_CUTOFF or collided[q]:
        values = [jaccard(get_set(sid), query_set) for sid in cand_list]
    else:
        query_arr = data[indptr[q]:indptr[q + 1]]
        inter = intersect_counts(query_arr, *csr(cand_sids))
        values = jaccard_values(len(query_set), cand_sizes, inter)
        if fallback_sids:
            for j, sid in enumerate(cand_list):
                if sid in fallback_sids:
                    values[j] = jaccard(get_set(sid), query_set)
    return in_range_answers(cand_sids, values, sigma_low, sigma_high)


def _verify_join(
    query_sets, query_hashes, counts, pair_sid, distinct, sigma_low,
    sigma_high, io, *, csr, sizes, fallback_sids, get_set,
) -> tuple[list[list[tuple[int, float]]] | None, int]:
    """The whole batch through :func:`join_counts`: ``(answers_list,
    join_size)``, with no answers (and nothing charged) when the join
    would outgrow the pairwise path."""
    n = len(query_sets)
    pair_query = np.repeat(np.arange(n, dtype=np.int64), counts)
    pair_row = positions_in(distinct, pair_sid)
    pair_size = sizes(distinct)[pair_row]
    pairwise_entries = int(pair_size.sum())
    # A query without candidates or a collided one joins as an empty
    # array; the collided one's pairs are redone exactly below, like
    # those of collided stored sets.
    indptr, data, collided = query_hashes
    bounds = indptr.tolist()
    table, join_size = join_counts(
        [
            data[a:b] if c and not collided[q] else _NO_HASHES
            for q, (a, b, c) in enumerate(
                zip(bounds, bounds[1:], counts.tolist())
            )
        ],
        *csr(distinct), pairwise_entries,
    )
    if table is None:
        return None, join_size
    inter = table[pair_query, pair_row]
    query_len = np.fromiter(
        (len(q) for q in query_sets), dtype=np.int64, count=n
    )
    io.cpu_ops += pairwise_entries + int((counts * query_len).sum())
    values = jaccard_values(query_len[pair_query], pair_size, inter)
    exact = collided[pair_query]
    if fallback_sids:
        exact |= np.isin(
            pair_sid, np.fromiter(fallback_sids, dtype=np.int64)
        )
    for j in np.flatnonzero(exact).tolist():
        values[j] = jaccard(
            get_set(int(pair_sid[j])), query_sets[pair_query[j]]
        )
    # Range test and best-first order (sid ties ascending) on arrays;
    # Python tuples only for the in-range hits.
    keep = np.flatnonzero((sigma_low <= values) & (values <= sigma_high))
    keep = keep[np.lexsort((pair_sid[keep], -values[keep], pair_query[keep]))]
    hits = list(zip(pair_sid[keep].tolist(), values[keep].tolist()))
    cuts = np.searchsorted(pair_query[keep], np.arange(n + 1)).tolist()
    return [hits[a:b] for a, b in zip(cuts, cuts[1:])], join_size
