"""Shard routing: sound per-shard Jaccard upper bounds from tiny summaries.

A fleet runs every batch on every live shard, so it pays ``K``
fetch/verify costs even when most shards provably contain nothing in
the query's similarity range.  This module computes, at
``build_sharded`` time, a small **routing summary** per live shard:

* the exact ``[size_min, size_max]`` range of set sizes in the shard;
* a membership bitset over the shard's element universe -- every
  distinct element's :func:`~repro.core.minhash.stable_element_hash`
  (the hash its signatures come from) is avalanched (splitmix64) into
  an ``m``-bit table (``m`` a power of two, sized to <= 12.5% fill at
  build time), so a query element whose bit is clear is *provably
  absent* from every set in the shard.

:class:`ShardRouter` turns a summary into a **sound upper bound** on
``max_{S in shard} J(q, S)``:

* ``|q ∩ S| <= c`` where ``c`` counts the query elements whose bit is
  set (the bitset has no false negatives; hash collisions only inflate
  ``c``, never deflate it);
* ``|q ∩ S| <= min(|q|, |S|)`` with ``|S|`` in ``[size_min,
  size_max]``.

Writing ``t = min(|q|, c)``, the Jaccard ``J = i / (|q| + s - i)`` with
``i <= min(t, s)`` is maximized at ``i = min(t, s)``; as a function of
``s`` that is increasing for ``s <= t`` and decreasing for ``s >= t``,
so the max over ``s in [size_min, size_max]`` sits at ``s* =
clamp(t, size_min, size_max)``:

    ``bound = min(s*, t) / (s* + |q| - min(s*, t))``

A (query, shard) pair is prunable iff ``bound < sigma_low`` (strictly
-- ``sigma_low = 0`` never prunes).  Because the bound is an upper
bound on the *true* Jaccard of every set in the shard, a pruned pair
can contribute no in-range answer: skipping its verification loses
nothing.  The empty query is handled exactly: it matches only empty
sets (``J = 1``, the engine-wide empty-vs-empty convention), so its
bound is 1.0 iff the shard holds an empty set.

The bound is only as sound as the summary, so :func:`load_routing`
checks every summary against the shard it describes before a fleet
serves a query.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.minhash import hash_rows
from repro.hamming.splitmix import mix64_array

#: Per-shard routing bitsets, written next to the shard manifest by
#: ``build_sharded``.
ROUTING_FILE = "routing.bin"

_MIN_BITS = 1 << 10
_MAX_BITS = 1 << 22


class RoutingError(ValueError):
    """A routing block that does not describe its fleet."""


def jaccard_upper_bound(
    q_size: int, c: int, size_lo: int, size_hi: int
) -> float:
    """Max possible ``J(q, S)`` over sets with ``|S| in [size_lo,
    size_hi]`` and ``|q ∩ S| <= c`` (see the module docstring for the
    derivation and soundness argument)."""
    if q_size == 0:
        # The empty query matches only empty sets (J = 1 by the
        # engine-wide empty-vs-empty convention).
        return 1.0 if size_lo == 0 else 0.0
    t = min(q_size, c)
    s = min(max(t, size_lo), size_hi)
    i = min(s, t)
    return i / (s + q_size - i)


def _pick_bits(max_universe: int) -> int:
    """Global bitset width: power of two, >= 8x the largest shard
    universe (<= 12.5% fill), clamped to [2^10, 2^22] (128 B - 512 KiB
    of words per shard)."""
    target = max(_MIN_BITS, 8 * max(1, max_universe))
    return min(_MAX_BITS, 1 << (target - 1).bit_length())


def _bit_positions(hashes: np.ndarray, m_bits: int):
    """(word index, word mask) arrays for an array of element hashes."""
    pos = mix64_array(hashes) & np.uint64(m_bits - 1)
    return (pos >> np.uint64(6)).astype(np.int64), (
        np.uint64(1) << (pos & np.uint64(63))
    )


@dataclass
class ShardSummary:
    """Decoded routing summary of one live shard."""

    size_min: int
    size_max: int
    bits: np.ndarray  # uint64 words, m_bits / 64 of them


@dataclass
class RoutingInfo:
    """All shard summaries plus the shared bitset width."""

    m_bits: int
    summaries: list  # ShardSummary | None per shard (None = empty shard)


def build_routing(shard_sets) -> tuple[dict, dict]:
    """Compute routing summaries for a partitioned collection.

    Returns ``(meta, arrays)``: the JSON-safe manifest block (sans
    array specs -- the caller persists ``arrays`` via ``write_arrays``
    and attaches the specs) and the uint64 arrays for ``routing.bin``.
    """
    shard_sets = [
        [s if isinstance(s, frozenset) else frozenset(s) for s in ss]
        for ss in shard_sets
    ]
    # One hash pass over every stored set; a shard's bits are read off
    # its sets' rows.
    indptr, data, _ = hash_rows([s for ss in shard_sets for s in ss])
    ends = np.cumsum([len(ss) for ss in shard_sets]).tolist()
    m_bits = _pick_bits(max(
        (len(frozenset().union(*ss)) for ss in shard_sets if ss), default=0
    ))
    arrays: dict[str, np.ndarray] = {}
    entries: list[dict | None] = []
    for i, ss in enumerate(shard_sets):
        if not ss:
            entries.append(None)  # empty shard: never dispatched
            continue
        words = np.zeros(m_bits // 64, dtype=np.uint64)
        widx, wmask = _bit_positions(
            data[indptr[ends[i] - len(ss)]:indptr[ends[i]]], m_bits
        )
        np.bitwise_or.at(words, widx, wmask)
        arrays[f"route{i:03d}_bits"] = words
        sizes = [len(s) for s in ss]
        entries.append({"size_min": min(sizes), "size_max": max(sizes)})
    return {"m_bits": m_bits, "shards": entries}, arrays


def load_routing(path, meta, set_sizes, verify: bool = False) -> RoutingInfo:
    """Decode and check the routing block of a shard manifest.

    ``set_sizes`` holds, per shard, the mapped ``set_sizes`` array of
    its snapshot (None for an empty shard).  A summary that
    understates a shard's sizes or elements would prune pairs that
    hold answers, so every field is checked against the shard it
    describes: ``m_bits`` a power of two in ``[2^10, 2^22]``, exactly
    one summary per live shard and none per empty shard, each bits
    array ``m_bits / 64`` uint64 words, and ``size_min`` / ``size_max``
    the integer min / max of the shard's ``set_sizes``.  Raises
    :class:`RoutingError` on any mismatch.
    """
    from repro.exec.snapfile import open_arrays

    if not isinstance(meta, dict):
        raise RoutingError("shard manifest has no routing block")
    m_bits = meta.get("m_bits")
    if (
        type(m_bits) is not int or not _MIN_BITS <= m_bits <= _MAX_BITS
        or m_bits & (m_bits - 1)
    ):
        raise RoutingError(
            f"m_bits {m_bits!r} is not a power of two in "
            f"[{_MIN_BITS}, {_MAX_BITS}]"
        )
    entries = meta.get("shards")
    if not isinstance(entries, list) or len(entries) != len(set_sizes):
        raise RoutingError(
            f"routing block does not list one entry per shard "
            f"({len(set_sizes)})"
        )
    specs = meta.get("arrays")
    if not isinstance(specs, dict):
        raise RoutingError("routing block has no array specs")
    arrays = (
        open_arrays(Path(path) / ROUTING_FILE, specs, verify=verify)
        if specs else {}
    )
    summaries: list = []
    for i, (entry, sizes) in enumerate(zip(entries, set_sizes)):
        bits = arrays.get(f"route{i:03d}_bits")
        if sizes is None:
            if entry is not None or bits is not None:
                raise RoutingError(f"empty shard {i} has a routing summary")
            summaries.append(None)
            continue
        if not isinstance(entry, dict) or bits is None:
            raise RoutingError(f"live shard {i} has no routing summary")
        if bits.dtype != np.uint64 or bits.shape != (m_bits // 64,):
            raise RoutingError(
                f"shard {i}: bitset of {bits.dtype} {bits.shape} for "
                f"{m_bits} bits"
            )
        want = (int(sizes.min()), int(sizes.max()))
        got = (entry.get("size_min"), entry.get("size_max"))
        if any(type(v) is not int for v in got) or got != want:
            raise RoutingError(
                f"shard {i}: routing sizes {got[0]!r}-{got[1]!r}, but its "
                f"sets hold {want[0]}-{want[1]} elements"
            )
        summaries.append(ShardSummary(*want, bits=bits))
    return RoutingInfo(m_bits=m_bits, summaries=summaries)


@dataclass
class RouteDecision:
    """Which (query, shard) pairs survive routing for one batch."""

    kept: dict  # shard index -> sorted list of surviving query rows
    n_queries: int
    n_pairs: int  # (query, live shard) pairs considered
    pruned_pairs: int


class ShardRouter:
    """Batch routing decisions from a :class:`RoutingInfo`.

    ``route(...)`` evaluates the sound bound of the module docstring
    for every (query, live shard) pair and keeps the pair iff
    ``bound >= sigma_low``.
    """

    def __init__(self, routing: RoutingInfo):
        self.routing = routing

    def route(
        self, query_sets, sigma_low: float, shard_ids, hashes=None,
    ) -> RouteDecision:
        """The decision for a batch; ``hashes`` is its queries'
        :func:`~repro.core.minhash.hash_rows` CSR when the caller has
        already hashed them (a fleet prepares each batch once)."""
        info = self.routing
        shard_ids = list(shard_ids)
        kept: dict[int, list[int]] = {i: [] for i in shard_ids}
        # The shards' bitsets stacked, so each query computes every
        # shard's overlap cap in one numpy expression (the decision
        # must stay far below one shard's probe wall).
        bits = np.stack([info.summaries[i].bits for i in shard_ids])
        pruned = 0
        # One hash row per query: the per-query splitmix positions are
        # slices of one array.
        offsets, data, _ = hash_rows(query_sets) if hashes is None else hashes
        widx_all, wmask_all = _bit_positions(data, info.m_bits)
        for r, q in enumerate(query_sets):
            q_size = len(q)
            if q_size == 0:
                counts = np.zeros(len(shard_ids), dtype=np.int64)
            else:
                sl = slice(offsets[r], offsets[r + 1])
                counts = np.count_nonzero(
                    bits[:, widx_all[sl]] & wmask_all[np.newaxis, sl], axis=1
                )
            for j, i in enumerate(shard_ids):
                summary = info.summaries[i]
                bound = jaccard_upper_bound(
                    q_size, int(counts[j]), summary.size_min,
                    summary.size_max,
                )
                if bound < sigma_low:
                    pruned += 1
                else:
                    kept[i].append(r)
        return RouteDecision(
            kept=kept,
            n_queries=len(query_sets),
            n_pairs=len(shard_ids) * len(query_sets),
            pruned_pairs=pruned,
        )
