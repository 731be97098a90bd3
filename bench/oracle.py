"""Brute-force oracle: exact Jaccard of a query against every stored set.

numpy only, nothing from ``repro``: an inverted index (sorted element
vocabulary, CSR postings) turns one query into one ``bincount`` of
intersection sizes.  A similarity is one float64 division of two
integers -- correctly rounded, as the program's own ``len(a & b) /
len(a | b)`` is -- so answers compare with ``==``.

Sets added since the postings were last rebuilt sit in a small overlay
that is merged in when it grows; removed sets are masked.  Run the
module to self-test against Python ``set`` arithmetic.
"""

from __future__ import annotations

import numpy as np

_OVERLAY_MAX = 256


def _as_array(elements) -> np.ndarray:
    arr = np.fromiter(elements, dtype=np.int64, count=len(elements))
    arr.sort()
    return arr


class Oracle:
    """Sets of integers keyed by sid (a dense non-negative integer)."""

    def __init__(self, sets=()):
        self._elements: list[np.ndarray | None] = []
        self._alive = np.zeros(0, dtype=bool)
        self._sizes = np.zeros(0, dtype=np.int64)
        self._overlay: list[int] = []
        for sid, s in enumerate(sets):
            self._store(sid, s)
        self._rebuild()

    def _store(self, sid: int, elements) -> None:
        if sid >= len(self._elements):
            grow = sid + 1 - len(self._elements)
            self._elements.extend([None] * grow)
            self._alive = np.concatenate([self._alive, np.zeros(grow, dtype=bool)])
            self._sizes = np.concatenate([self._sizes, np.zeros(grow, dtype=np.int64)])
        if self._elements[sid] is not None:
            raise ValueError(f"sid {sid} already stored")
        self._elements[sid] = _as_array(elements)
        self._alive[sid] = True
        self._sizes[sid] = len(self._elements[sid])

    def _rebuild(self) -> None:
        live = [sid for sid in np.flatnonzero(self._alive)]
        arrays = [self._elements[sid] for sid in live]
        if arrays and sum(len(a) for a in arrays):
            elems = np.concatenate(arrays)
            owners = np.repeat(
                np.asarray(live, dtype=np.int64), [len(a) for a in arrays]
            )
            order = np.argsort(elems, kind="stable")
            elems, owners = elems[order], owners[order]
            self._vocab, starts = np.unique(elems, return_index=True)
            self._indptr = np.append(starts, len(elems)).astype(np.int64)
            self._postings = owners
        else:
            self._vocab = np.zeros(0, dtype=np.int64)
            self._indptr = np.zeros(1, dtype=np.int64)
            self._postings = np.zeros(0, dtype=np.int64)
        self._overlay = []

    def add(self, sid: int, elements) -> None:
        self._store(sid, elements)
        self._overlay.append(sid)
        if len(self._overlay) > _OVERLAY_MAX:
            self._rebuild()

    def remove(self, sid: int) -> None:
        if not (0 <= sid < len(self._alive) and self._alive[sid]):
            raise KeyError(sid)
        self._alive[sid] = False

    @property
    def n_sets(self) -> int:
        return int(self._alive.sum())

    def intersections(self, query) -> np.ndarray:
        """``|query & S|`` for every sid slot (dead slots included)."""
        q = _as_array(query)
        n = len(self._alive)
        counts = np.zeros(n, dtype=np.int64)
        if len(q) and len(self._vocab):
            pos = np.searchsorted(self._vocab, q)
            known = pos < len(self._vocab)
            known[known] = self._vocab[pos[known]] == q[known]
            pos = pos[known]
            if len(pos):
                lo, hi = self._indptr[pos], self._indptr[pos + 1]
                lens = hi - lo
                offsets = np.arange(int(lens.sum())) - np.repeat(
                    np.cumsum(lens) - lens, lens
                )
                hit = self._postings[np.repeat(lo, lens) + offsets]
                counts += np.bincount(hit, minlength=n)
        for sid in self._overlay:
            counts[sid] = int(np.isin(self._elements[sid], q).sum())
        return counts

    def similarities(self, query) -> np.ndarray:
        """Exact Jaccard against every sid slot; dead slots read -1."""
        inter = self.intersections(query)
        union = self._sizes + np.int64(len(query)) - inter
        sims = np.full(len(inter), -1.0)
        ok = self._alive & (union > 0)
        sims[ok] = inter[ok] / union[ok]
        # Empty against empty is 1 by the program's convention.
        sims[self._alive & (union == 0)] = 1.0
        return sims

    def answers(self, query, low: float, high: float) -> dict[int, float]:
        """``{sid: similarity}`` of the live sets within ``[low, high]``."""
        sims = self.similarities(query)
        hits = np.flatnonzero((sims >= low) & (sims <= high))
        return {int(sid): float(sims[sid]) for sid in hits}


def check_answers(returned, expected: dict[int, float]) -> tuple[bool, int]:
    """Is every returned ``(sid, similarity)`` a true answer with exactly
    the oracle's similarity, each sid once?  Also the number returned.
    (Missing answers lower recall; they are not wrong.)"""
    seen = set()
    for sid, sim in returned:
        if sid in seen or expected.get(sid) != sim:
            return False, len(seen)
        seen.add(sid)
    return True, len(seen)


def self_test(seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    sets = [
        set(rng.integers(0, 60, int(rng.integers(1, 25))).tolist())
        for _ in range(80)
    ]
    oracle = Oracle(sets)
    live = dict(enumerate(sets))

    def verify() -> None:
        queries = [set(rng.integers(0, 70, int(rng.integers(0, 25))).tolist())
                   for _ in range(40)]
        queries += [set(), set(live[min(live)])]
        for q in queries:
            want = {
                sid: len(q & s) / len(q | s) for sid, s in live.items() if q | s
            }
            for low, high in ((0.0, 1.0), (0.3, 0.8), (1.0, 1.0)):
                got = oracle.answers(q, low, high)
                exp = {s: v for s, v in want.items() if low <= v <= high}
                assert got == exp, (q, low, high, got, exp)

    verify()
    next_sid = len(sets)
    for step in range(3 * _OVERLAY_MAX):
        s = set(rng.integers(0, 60, int(rng.integers(1, 25))).tolist())
        oracle.add(next_sid, s)
        live[next_sid] = s
        next_sid += 1
        if step % 3 == 0:
            victim = int(rng.choice(sorted(live)))
            oracle.remove(victim)
            del live[victim]
        if step % 97 == 0:
            verify()
    verify()
    assert oracle.n_sets == len(live)


if __name__ == "__main__":
    self_test()
    print("oracle self-test ok")
