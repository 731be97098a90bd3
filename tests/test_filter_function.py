"""Unit tests for the probabilistic filter function p_{r,l} (Eq. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filter_function import (
    FilterFunction,
    filter_probability,
    solve_r,
    turning_point,
)

r_values = st.integers(1, 50)
l_values = st.integers(1, 500)
sim_values = st.floats(0.0, 1.0)


class TestFilterProbability:
    def test_formula(self):
        assert filter_probability(0.5, 2, 3) == pytest.approx(1 - (1 - 0.25) ** 3)

    def test_endpoints(self):
        assert filter_probability(0.0, 3, 5) == 0.0
        assert filter_probability(1.0, 3, 5) == 1.0

    def test_array_input(self):
        out = filter_probability(np.array([0.0, 0.5, 1.0]), 1, 1)
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_r1_l1_is_identity(self):
        for s in (0.1, 0.4, 0.9):
            assert filter_probability(s, 1, 1) == pytest.approx(s)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            filter_probability(0.5, 0, 1)
        with pytest.raises(ValueError):
            filter_probability(0.5, 1, 0)

    def test_clips_out_of_range_similarity(self):
        assert filter_probability(1.5, 2, 2) == 1.0
        assert filter_probability(-0.5, 2, 2) == 0.0

    @given(sim_values, r_values, l_values)
    @settings(max_examples=100)
    def test_bounds(self, s, r, l):
        assert 0.0 <= filter_probability(s, r, l) <= 1.0

    @given(sim_values, sim_values, r_values, l_values)
    @settings(max_examples=100)
    def test_monotone_in_similarity(self, s1, s2, r, l):
        lo, hi = sorted((s1, s2))
        assert filter_probability(lo, r, l) <= filter_probability(hi, r, l) + 1e-12

    @given(sim_values, r_values, l_values)
    @settings(max_examples=50)
    def test_monotone_in_l(self, s, r, l):
        """More tables can only increase collision probability."""
        assert filter_probability(s, r, l) <= filter_probability(s, r, l + 1) + 1e-12

    @given(sim_values, r_values, l_values)
    @settings(max_examples=50)
    def test_antitone_in_r(self, s, r, l):
        """More sampled bits can only decrease collision probability."""
        assert filter_probability(s, r + 1, l) <= filter_probability(s, r, l) + 1e-12


class TestTurningPoint:
    @given(st.floats(0.05, 0.95), l_values)
    @settings(max_examples=100)
    def test_solve_r_places_turning_point_near_target(self, s_star, l):
        r = solve_r(s_star, l)
        # With integer r the turning point moves; the *real* solution
        # brackets the target between r and r+1 (or is clamped at 1).
        at_r = turning_point(r, l)
        if r > 1:
            lo, hi = sorted((turning_point(r + 1, l), turning_point(r - 1, l)))
            assert lo <= s_star <= hi or abs(at_r - s_star) < 0.2
        assert 0.0 < at_r < 1.0

    def test_probability_half_at_turning_point(self):
        for l in (1, 4, 32, 200):
            for r in (1, 3, 10):
                s = turning_point(r, l)
                assert filter_probability(s, r, l) == pytest.approx(0.5)

    def test_solve_r_increases_with_l(self):
        """Steeper filters: as l grows, r grows (the Section 4.1 tradeoff)."""
        rs = [solve_r(0.8, l) for l in (1, 10, 100, 1000)]
        assert rs == sorted(rs)
        assert rs[-1] > rs[0]

    def test_solve_r_minimum_one(self):
        assert solve_r(0.05, 1) >= 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            solve_r(0.0, 5)
        with pytest.raises(ValueError):
            solve_r(1.0, 5)
        with pytest.raises(ValueError):
            solve_r(0.5, 0)
        with pytest.raises(ValueError):
            turning_point(0, 5)


class TestFilterFunctionObject:
    def test_for_threshold(self):
        ff = FilterFunction.for_threshold(0.7, 20)
        assert ff.l == 20
        assert ff.r == solve_r(0.7, 20)
        assert ff(turning_point(ff.r, ff.l)) == pytest.approx(0.5)

    def test_callable_matches_function(self):
        ff = FilterFunction(r=4, l=10)
        s = np.linspace(0, 1, 11)
        assert np.allclose(ff(s), filter_probability(s, 4, 10))

    def test_error_integrals_manual(self):
        """FP/FN integrals against a tiny hand-computed histogram."""
        ff = FilterFunction(r=1, l=1)  # p(s) = s
        grid = np.array([0.25, 0.75])
        mass = np.array([10.0, 20.0])
        s_star = 0.5
        # FP: mass below * p = 10 * 0.25; FN: mass above * (1-p) = 20 * 0.25
        assert ff.expected_false_positives(grid, mass, s_star) == pytest.approx(2.5)
        assert ff.expected_false_negatives(grid, mass, s_star) == pytest.approx(5.0)
        assert ff.expected_error(grid, mass, s_star) == pytest.approx(7.5)

    def test_steeper_filter_less_error_far_from_point(self):
        """With mass far from the turning point, more tables help."""
        grid = np.array([0.2, 0.9])
        mass = np.array([100.0, 100.0])
        s_star = 0.6
        shallow = FilterFunction.for_threshold(s_star, 2)
        steep = FilterFunction.for_threshold(s_star, 100)
        assert steep.expected_error(grid, mass, s_star) < shallow.expected_error(
            grid, mass, s_star
        )

    def test_frozen(self):
        ff = FilterFunction(r=2, l=2)
        with pytest.raises(AttributeError):
            ff.r = 3


class TestEmpiricalConformance:
    """A real SFI's collision rate must track p_{r,l}(s) (Eq. 4).

    The analytical filter function is the load-bearing model: the
    optimizer sizes every filter with it.  Here we *measure* the
    collision probability of an actual
    :class:`~repro.core.filter_index.FilterIndex` SFI on pairs
    of packed vectors with controlled Hamming similarity and assert
    the empirical rate stays within a binomial confidence bound of the
    model (plus a small slack for sampling bit positions without
    replacement, which the s^r model idealizes).  Everything is
    seeded, so the test is deterministic.
    """

    N_BITS = 256
    N_PAIRS = 300
    SIM_POINTS = (0.30, 0.50, 0.70, 0.85, 0.95)

    @staticmethod
    def _controlled_pairs(n_bits, n_pairs, similarity, rng):
        """Query/stored bit matrices agreeing in an exact bit count."""
        d = int(round((1.0 - similarity) * n_bits))
        query_bits = rng.integers(0, 2, size=(n_pairs, n_bits), dtype=np.uint8)
        stored_bits = query_bits.copy()
        positions = rng.permuted(
            np.tile(np.arange(n_bits), (n_pairs, 1)), axis=1
        )[:, :d]
        rows = np.repeat(np.arange(n_pairs), d)
        stored_bits[rows, positions.ravel()] ^= 1
        return query_bits, stored_bits, 1.0 - d / n_bits

    def _measure(self, threshold, n_tables, seed):
        """Empirical collision rate per similarity point, plus (r, l)."""
        from repro.core.filter_index import FilterIndex
        from repro.exec.columnar import csr_split
        from repro.hamming.bitvector import pack_bits
        from repro.storage.iomodel import IOCostModel, IOStats
        from repro.storage.pager import PageManager

        rng = np.random.default_rng(seed)
        rates = {}
        r = l = None
        for similarity in self.SIM_POINTS:
            sfi = FilterIndex(
                "sfi",
                threshold=threshold,
                n_tables=n_tables,
                n_bits=self.N_BITS,
                pager=PageManager(IOCostModel()),
                expected_entries=self.N_PAIRS,
                seed=seed,
            )
            r, l = sfi.filter.r, sfi.filter.l
            query_bits, stored_bits, s_exact = self._controlled_pairs(
                self.N_BITS, self.N_PAIRS, similarity, rng
            )
            sids = list(range(self.N_PAIRS))
            sfi.insert_many(pack_bits(stored_bits), sids)
            csr, _ = sfi.probe_tables(
                0, sfi.n_tables, pack_bits(query_bits), IOStats()
            )
            hits = sum(
                1 for sid, got in enumerate(csr_split(*csr)) if sid in got
            )
            rates[s_exact] = hits / self.N_PAIRS
        return rates, r, l

    @pytest.mark.parametrize(
        "threshold,n_tables,seed", [(0.8, 8, 42), (0.6, 4, 99)]
    )
    def test_collision_rate_tracks_model(self, threshold, n_tables, seed):
        rates, r, l = self._measure(threshold, n_tables, seed)
        for s_exact, empirical in rates.items():
            expected = filter_probability(s_exact, r, l)
            # 4 sigma of the binomial estimator + modelling slack for
            # without-replacement bit sampling.
            bound = 4.0 * np.sqrt(
                max(expected * (1 - expected), 1e-4) / self.N_PAIRS
            ) + 0.03
            assert abs(empirical - expected) <= bound, (
                f"s={s_exact:.3f}: empirical {empirical:.3f} vs "
                f"p_{{{r},{l}}} = {expected:.3f} (bound {bound:.3f})"
            )

    def test_collision_rate_monotone_in_similarity(self):
        rates, _, _ = self._measure(0.8, 8, seed=7)
        ordered = [rates[s] for s in sorted(rates)]
        # Binomial noise allows tiny inversions; the trend must hold.
        for lower, upper in zip(ordered, ordered[1:]):
            assert upper >= lower - 0.05
        assert ordered[-1] > ordered[0]
