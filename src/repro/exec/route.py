"""Shard routing: sound per-shard Jaccard upper bounds from tiny summaries.

PR 8's scatter-gather fans every batch out to all ``K`` shards, so the
fleet pays ``K`` probe/verify costs even when most shards provably
contain nothing in the query's similarity range.  This module computes,
at ``build_sharded`` time, a few hundred bytes of **routing summary**
per shard:

* the exact ``[size_min, size_max]`` range of set sizes in the shard;
* a membership bitset over the shard's element universe -- every
  distinct element's :func:`~repro.core.minhash.stable_element_hash`
  (the hash its signatures come from) is avalanched (splitmix64) into
  an ``m``-bit table (``m`` a power of two, sized to <= 12.5% fill at
  build time), so a query element whose bit is clear is *provably
  absent* from every set in the shard;
* a ``k``-coordinate MinHash signature of the shard's universe (the
  D_S-profile used by the opt-in ``sketch`` mode).

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

A shard is prunable for a query iff ``bound < sigma_low`` (strictly --
``sigma_low = 0`` never prunes).  Because the bound is an upper bound
on the *true* Jaccard of every set in the shard, a pruned (query,
shard) pair can contribute no in-range answer: skipping its
verification (``route="safe"``) or its whole dispatch
(``route="sketch"``) loses nothing.  The empty query is handled
exactly: it matches only empty sets (``J = 1``, the engine-wide
empty-vs-empty convention), so its bound is 1.0 iff the shard holds an
empty set.

``sketch`` mode additionally tightens ``c`` with the MinHash profile:
the agreement fraction ``a`` between the query's signature and the
shard-universe signature estimates ``J(q, U)``, hence ``|q ∩ U| ~
a/(1+a) * (|q| + |U|)``.  The estimate carries MinHash variance (an
upper-confidence slack of ``1/sqrt(k)`` is added), so sketch routing
is *not* exact -- its recall is measured by
``tests/test_route.py::test_sketch_recall_measured_on_overlapping_clusters``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.minhash import hash_rows
from repro.hamming.splitmix import mix64_array

#: Per-shard routing summaries (bitset words + universe signatures),
#: written next to the shard manifest by ``build_sharded``.
ROUTING_FILE = "routing.bin"

#: MinHash coordinates in the per-shard universe profile.
DEFAULT_SIG_K = 32

#: Folded into the build seed for the routing MinHasher, so the
#: router's permutations are independent of the index embedding's
#: (which derive from ``seed + 7919 * (offset + 1)``).
SIG_SEED_OFFSET = 9173

_MIN_BITS = 1 << 10
_MAX_BITS = 1 << 22


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
    n_universe: int
    bits: np.ndarray  # uint64 words, m_bits / 64 of them
    signature: np.ndarray | None  # uint64 (sig_k,), None if universe empty


@dataclass
class RoutingInfo:
    """All shard summaries plus the shared hashing parameters."""

    m_bits: int
    sig_k: int
    sig_seed: int
    summaries: list  # ShardSummary | None per shard (None = empty shard)
    #: Signature generator of the universe profiles ("minhash" or
    #: "superminhash") -- the index codec's generator, so sketch-mode
    #: agreement estimates share the builder's variance profile.
    #: Pre-v3 manifests omit the key and default to "minhash".
    sig_scheme: str = "minhash"


def build_routing(
    shard_sets, seed: int = 0, sig_k: int = DEFAULT_SIG_K,
    sig_scheme: str = "minhash",
) -> tuple[dict, dict]:
    """Compute routing summaries for a partitioned collection.

    Returns ``(meta, arrays)``: the JSON-safe manifest block (sans
    array specs -- the caller persists ``arrays`` via ``write_arrays``
    and attaches the specs) and the uint64 arrays for ``routing.bin``.

    ``sig_scheme`` picks the universe-profile generator; sharded
    builds pass their codec's generator so the router's sketch
    estimates reuse the same signature scheme as the index.
    """
    from repro.core.codec import make_hasher

    shard_sets = [
        [s if isinstance(s, frozenset) else frozenset(s) for s in ss]
        for ss in shard_sets
    ]
    universes = [
        frozenset().union(*ss) if ss else frozenset() for ss in shard_sets
    ]
    # One hash pass over every stored set; a shard's bits and universe
    # signature are read off its sets' rows.
    indptr, data, _ = hash_rows([s for ss in shard_sets for s in ss])
    ends = np.cumsum([len(ss) for ss in shard_sets]).tolist()
    m_bits = _pick_bits(max((len(u) for u in universes), default=0))
    sig_seed = seed + SIG_SEED_OFFSET
    hasher = make_hasher(sig_scheme, sig_k, sig_seed)
    arrays: dict[str, np.ndarray] = {}
    entries: list[dict | None] = []
    for i, (ss, universe) in enumerate(zip(shard_sets, universes)):
        if not ss:
            entries.append(None)  # empty shard: never dispatched
            continue
        words = np.zeros(m_bits // 64, dtype=np.uint64)
        if universe:
            hashes = data[indptr[ends[i] - len(ss)]:indptr[ends[i]]]
            widx, wmask = _bit_positions(hashes, m_bits)
            np.bitwise_or.at(words, widx, wmask)
            arrays[f"route{i:03d}_sig"] = hasher.signature_csr(
                np.array([0, len(hashes)]), hashes
            )[0]
        arrays[f"route{i:03d}_bits"] = words
        sizes = [len(s) for s in ss]
        entries.append({
            "size_min": min(sizes),
            "size_max": max(sizes),
            "n_universe": len(universe),
        })
    meta = {
        "m_bits": m_bits,
        "sig_k": sig_k,
        "sig_seed": sig_seed,
        "sig_scheme": sig_scheme,
        "shards": entries,
    }
    return meta, arrays


def load_routing(path, manifest: dict, verify: bool = False):
    """Decode the routing block of a shard manifest; None if absent
    (builds with ``routing=False``)."""
    from repro.exec.snapfile import open_arrays

    meta = manifest.get("routing")
    if not meta:
        return None
    arrays = (
        open_arrays(Path(path) / ROUTING_FILE, meta["arrays"], verify=verify)
        if meta.get("arrays") else {}
    )
    summaries: list = []
    for i, entry in enumerate(meta["shards"]):
        if entry is None:
            summaries.append(None)
            continue
        sig = arrays.get(f"route{i:03d}_sig")
        summaries.append(ShardSummary(
            size_min=int(entry["size_min"]),
            size_max=int(entry["size_max"]),
            n_universe=int(entry["n_universe"]),
            bits=np.asarray(arrays[f"route{i:03d}_bits"], dtype=np.uint64),
            signature=(
                np.asarray(sig, dtype=np.uint64) if sig is not None else None
            ),
        ))
    return RoutingInfo(
        m_bits=int(meta["m_bits"]),
        sig_k=int(meta["sig_k"]),
        sig_seed=int(meta["sig_seed"]),
        summaries=summaries,
        sig_scheme=meta["sig_scheme"],
    )


@dataclass
class RouteDecision:
    """Which (query, shard) pairs survive routing for one batch."""

    mode: str  # "safe" | "sketch"
    kept: dict  # shard index -> sorted list of surviving query rows
    n_queries: int
    n_pairs: int  # (query, live shard) pairs considered
    pruned_pairs: int

    def skipped_shards(self) -> list[int]:
        """Shards with no surviving query (undispatched in sketch
        mode; fully verify-masked in safe mode)."""
        return [i for i, rows in self.kept.items() if not rows]


class ShardRouter:
    """Batch routing decisions from a :class:`RoutingInfo`.

    ``route(...)`` evaluates the sound bound of the module docstring
    for every (query, live shard) pair and keeps the pair iff
    ``bound >= sigma_low``.  With ``sketch=True`` the MinHash universe
    profile additionally tightens ``c`` -- deeper pruning, estimated
    rather than proven, so only the opt-in ``route="sketch"`` path
    uses it.
    """

    def __init__(self, routing: RoutingInfo):
        from repro.core.codec import make_hasher

        self.routing = routing
        self._hasher = make_hasher(
            routing.sig_scheme, routing.sig_k, routing.sig_seed
        )

    def route(
        self, query_sets, sigma_low: float, shard_ids, sketch: bool = False,
        hashes=None,
    ) -> RouteDecision:
        """The decision for a batch; ``hashes`` is its queries'
        :func:`~repro.core.minhash.hash_rows` CSR when the caller has
        already hashed them (a fleet prepares each batch once)."""
        info = self.routing
        shard_ids = list(shard_ids)
        kept: dict[int, list[int]] = {i: [] for i in shard_ids}
        # Shards with summaries, their bitsets stacked so each query
        # computes every shard's overlap cap in one numpy expression
        # (the decision must stay far below one shard's probe wall).
        # A live shard without a summary (a foreign manifest) is never
        # pruned -- kept blind for every query.
        summarized = [i for i in shard_ids if info.summaries[i] is not None]
        blind = [i for i in shard_ids if info.summaries[i] is None]
        bits = (
            np.stack([info.summaries[i].bits for i in summarized])
            if summarized else None
        )
        pruned = 0
        n_pairs = len(summarized) * len(query_sets)
        slack = 1.0 / math.sqrt(info.sig_k) if info.sig_k > 0 else 0.0
        # One hash row per query (the per-query splitmix positions are
        # slices of one array), and -- in sketch mode -- the whole
        # batch's universe-profile signatures from the same hashes.
        offsets, data, _ = hash_rows(query_sets) if hashes is None else hashes
        widx_all, wmask_all = _bit_positions(data, info.m_bits)
        qsigs: dict[int, np.ndarray] = {}
        sig_stack = have_sig = n_universe = None
        if sketch and summarized:
            nonempty = np.flatnonzero(np.diff(offsets)).tolist()
            if nonempty:
                matrix = self._hasher.signature_csr(
                    np.append(offsets[nonempty], offsets[-1]), data
                )
                qsigs = {r: matrix[j] for j, r in enumerate(nonempty)}
            have_sig = np.array([
                info.summaries[i].signature is not None for i in summarized
            ])
            sig_stack = np.stack([
                info.summaries[i].signature
                if info.summaries[i].signature is not None
                else np.zeros(info.sig_k, dtype=np.uint64)
                for i in summarized
            ])
            n_universe = np.array([
                info.summaries[i].n_universe for i in summarized
            ], dtype=np.float64)
        for r, q in enumerate(query_sets):
            for i in blind:
                kept[i].append(r)
            if not summarized:
                continue
            q_size = len(q)
            if q_size == 0:
                counts = np.zeros(len(summarized), dtype=np.int64)
            else:
                sl = slice(offsets[r], offsets[r + 1])
                counts = np.count_nonzero(
                    bits[:, widx_all[sl]] & wmask_all[np.newaxis, sl], axis=1
                )
            qsig = qsigs.get(r)
            if qsig is not None:
                # Tighten every shard's cap at once: the J(q, U)
                # agreement estimate a -> |q ∩ U| ~ a/(1+a) *
                # (|q| + |U|), padded by the signature's sampling noise
                # (slack) before it may shrink c.
                a = np.minimum(
                    1.0, (sig_stack == qsig).mean(axis=1) + slack
                )
                c_sig = np.ceil(a / (1.0 + a) * (q_size + n_universe))
                counts = np.where(
                    have_sig,
                    np.minimum(counts, c_sig.astype(np.int64)),
                    counts,
                )
            for j, i in enumerate(summarized):
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
            mode="sketch" if sketch else "safe",
            kept=kept,
            n_queries=len(query_sets),
            n_pairs=n_pairs,
            pruned_pairs=pruned,
        )
