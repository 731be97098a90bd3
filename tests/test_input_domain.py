"""The input-domain property: ``a == b`` is one set element.

Python set semantics identify every spelling of a value that compares
equal -- ``1 == 1.0 == True == 1+0j == np.int64(1) == np.float32(1)``,
``"a" == np.str_("a")`` -- so every layer that turns an element into a
number must agree on them: the one stable element hash behind MinHash
signatures, verify rows, routing bits and shard partitioning (and its
vectorised batch pass), the signature generators, and therefore the
index itself, which must find a stored set again when the query spells
its elements with another equal type.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import SetSimilarityIndex
from repro.core.minhash import (
    MinHasher,
    SuperMinHasher,
    stable_element_hash,
    stable_hashes,
)

_NP_INTS = (np.int8, np.int16, np.int32, np.int64,
            np.uint8, np.uint16, np.uint32, np.uint64)
_NP_FLOATS = (np.float16, np.float32, np.float64)


def _try(make, x):
    try:
        return [make(x)]
    except (OverflowError, ValueError):
        return []


def spellings(x) -> list:
    """Every spelling of ``x`` across int, bool, ``np.bool_``, numpy
    ints, float, numpy floats, complex, str and bytes that ``== x``.

    Equality is judged on the builtin value: numpy casts a Python
    operand to the scalar's own dtype, so ``np.float16(2048) == 2049``.
    """
    with np.errstate(over="ignore"):
        return [
            s for s in _spell(x)
            if (s.item() if isinstance(s, np.generic) else s) == x
        ]


def _spell(x) -> list:
    out = [x]
    if isinstance(x, (int, float)):
        for make in (float, complex, np.complex128, *_NP_FLOATS):
            out += _try(make, x)
        if isinstance(x, int) or x.is_integer():
            n = int(x)
            out.append(n)
            out += [t(n) for t in _NP_INTS
                    if np.iinfo(t).min <= n <= np.iinfo(t).max]
            if n in (0, 1):
                out += [bool(n), np.bool_(n)]
    elif isinstance(x, complex):
        out.append(np.complex128(x))
    elif isinstance(x, str):
        out.append(np.str_(x))
    elif isinstance(x, bytes):
        out.append(np.bytes_(x))
    return out


elements = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([0, 1, -1, 2 ** 63, 2 ** 64 - 1, -(2 ** 63)]),
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False),
    # Lone surrogates included: snapshots store them (``surrogatepass``).
    st.text(
        st.one_of(st.characters(), st.characters(categories=["Cs"])),
        max_size=8,
    ),
    st.binary(max_size=8),
)


class TestEqualElementsHashEqually:
    @given(elements)
    @settings(max_examples=300, deadline=None)
    def test_stable_element_hash(self, x):
        assert len({stable_element_hash(s) for s in spellings(x)}) == 1

    @given(elements)
    @settings(max_examples=300, deadline=None)
    def test_element_hash(self, x):
        """The batch pass (its int fast path included) hashes every
        spelling alike, and as the scalar hash does."""
        spelled = spellings(x)
        hashes = stable_hashes(spelled)
        assert len(set(hashes.tolist())) == 1
        assert int(hashes[0]) == stable_element_hash(x)

    @given(elements)
    @settings(max_examples=100, deadline=None)
    def test_signatures(self, x):
        for hasher in (MinHasher(k=16, seed=3), SuperMinHasher(k=16, seed=3)):
            signatures = {
                hasher.signature([s, "context"]).tobytes()
                for s in spellings(x)
            }
            assert len(signatures) == 1, hasher

    def test_int_hashes_unchanged(self):
        """Int elements take the fast path: their hashes (and so every
        int-built index image) are what they always were."""
        assert stable_element_hash(42) == 0x0DC8156C1CF9ADC4
        assert stable_element_hash("a") == 0x1393410D2C03E5A4
        assert stable_element_hash(np.int64(-7)) == stable_element_hash(-7)


class TestBatchHashPass:
    """:func:`stable_hashes` digests each distinct element once, on
    either side of its int fast path, and equals the scalar hash."""

    @given(st.lists(st.integers(-(2 ** 70), 2 ** 70), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_int_batches_match_the_scalar_hash(self, xs):
        got = stable_hashes(xs).tolist()
        assert got == [stable_element_hash(x) for x in xs]

    def test_each_distinct_element_is_digested_once(self, monkeypatch):
        from repro.core import minhash

        digested = []
        real = minhash.stable_element_hash

        def counting(element):
            digested.append(element)
            return real(element)

        monkeypatch.setattr(minhash, "stable_element_hash", counting)
        elements = ["a", "b", "a", 1, 1.0, True, b"a", "b"]
        hashes = stable_hashes(elements).tolist()
        assert hashes == [real(e) for e in elements]
        assert digested == ["a", "b", 1, b"a"]
        digested.clear()
        stable_hashes([5, 3, 5, -1])  # the int fast path
        assert digested == []

    def test_long_str_element_builds_no_fixed_width_array(self):
        """One long token among many short ones costs its own bytes,
        not element count x longest element (a ``<U10000`` numpy array
        of these 2001 strings would take 80 MB)."""
        import tracemalloc

        elements = ["x" * 10_000] + [f"t{i}" for i in range(2_000)]
        tracemalloc.start()
        try:
            hashes = stable_hashes(elements)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert hashes.tolist() == [stable_element_hash(e) for e in elements]


# -- the index finds a stored set spelled with any equal type ---------------

#: Spellings every element of an int set can take; bools only spell 0/1.
_SET_SPELLINGS = {
    "float": float,
    "np.float64": np.float64,
    "np.float32": np.float32,
    "complex": complex,
    "np.int64": np.int64,
    "np.uint32": np.uint32,
    "np.int32": np.int32,
}


@pytest.fixture(scope="module")
def int_index():
    """Dissimilar int sets (plus ``{0, 1}``, which bools can spell)
    behind one SFI at 0.9: a query finds its stored twin only if it
    embeds to the same vector."""
    from repro.core.distribution import SimilarityDistribution
    from repro.core.optimizer import SFI, IndexPlan, PlannedFilter

    rng = np.random.default_rng(5)
    sets = [frozenset({0, 1})] + [
        frozenset(int(e) for e in rng.choice(1 << 20, size=30, replace=False))
        for _ in range(80)
    ]
    plan = IndexPlan(
        cut_points=[0.9], delta=0.9,
        filters=[PlannedFilter(0.9, SFI, n_tables=8)],
        expected_recall=1.0, expected_precision=1.0, b=6,
    )
    dist = SimilarityDistribution.from_sets(sets, n_bins=50)
    index = SetSimilarityIndex.from_plan(sets, plan, dist, k=64, b=6, seed=2)
    return index, sets


class TestIndexFindsEqualSpellings:
    @given(st.integers(1, 80), st.sampled_from(sorted(_SET_SPELLINGS)))
    @settings(max_examples=60, deadline=None)
    def test_int_set_spelled_with_another_type(self, int_index, sid, name):
        index, sets = int_index
        spelled = frozenset(_SET_SPELLINGS[name](e) for e in sets[sid])
        assert spelled == sets[sid]
        result = index.query(spelled, 0.9, 1.0, strategy="index")
        assert (sid, 1.0) in result.answers

    @pytest.mark.parametrize(
        "spell", [bool, np.bool_, float, np.float32],
        ids=["bool", "np.bool_", "float", "np.float32"],
    )
    def test_zero_one_set_spelled_as_bools_and_floats(self, int_index, spell):
        index, sets = int_index
        spelled = frozenset(spell(e) for e in sets[0])
        assert spelled == sets[0]
        result = index.query(spelled, 0.9, 1.0, strategy="index")
        assert (0, 1.0) in result.answers


# -- set-typed and lone-surrogate elements ------------------------------------


class TestSetTypedElements:
    def test_member_order_does_not_matter(self):
        """``frozenset([1, 9])`` and ``frozenset([9, 1])`` are one
        element, but iterate (and so ``repr``) in insertion order."""
        a, b = frozenset([1, 9]), frozenset([9, 1])
        assert a == b and repr(a) != repr(b)
        assert stable_element_hash(a) == stable_element_hash(b)
        assert stable_element_hash(frozenset([a, "x"])) == stable_element_hash(
            frozenset(["x", b])
        )
        assert stable_element_hash(a) != stable_element_hash(frozenset([1, 8]))

    def test_query_spelling_the_other_order_is_identical(self):
        stored = [frozenset({frozenset([1, 9])})] + [
            frozenset({frozenset([i, i + 100]), f"s{i}"}) for i in range(2, 40)
        ]
        index = SetSimilarityIndex.build(
            stored, budget=24, k=32, b=4, seed=1, sample_pairs=500
        )
        query = frozenset({frozenset([9, 1])})
        assert query == stored[0]
        for strategy in ("index", "scan"):
            result = index.query(query, 0.9, 1.0, strategy=strategy)
            assert (0, 1.0) in result.answers, strategy


class TestLoneSurrogates:
    def test_build_save_load_query_round_trip(self, tmp_path):
        from repro.exec import ParallelExecutor, open_snapshot

        lone = "\ud800"
        stored = [frozenset({lone, "a", "b"})] + [
            frozenset({f"e{i}", f"e{i + 1}", f"e{i + 2}"}) for i in range(40)
        ]
        index = SetSimilarityIndex.build(
            stored, budget=24, k=32, b=4, seed=1, sample_pairs=500
        )
        query = frozenset({"a", lone, "b"})
        want = index.query(query, 0.9, 1.0).answers
        assert (0, 1.0) in want
        index.save(tmp_path / "snap")
        assert SetSimilarityIndex.load(tmp_path / "snap").query(
            query, 0.9, 1.0
        ).answers == want
        with ParallelExecutor(open_snapshot(tmp_path / "snap")) as executor:
            assert executor.query_batch([query], 0.9, 1.0).results[0].answers == want
