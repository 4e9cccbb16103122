import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envborn import ensemble
from envborn.ensemble import (
    SampleRun,
    _draw_counts,
    frequency_check,
    sample_outcomes,
)


def per_draw_counts(p, n, rng):
    """The inverse-CDF count as one outcome index per draw, then a histogram."""
    cum = np.cumsum(p)
    cum[-1] = 1.0
    outcomes = np.searchsorted(cum, rng.random(n), side="right")
    return np.bincount(outcomes, minlength=len(p))


def one_array_counts(p, n, rng):
    """The reference count on all n draws sorted as one array, 8 bytes a draw."""
    cum = np.cumsum(p)
    cum /= cum[-1]
    draws = rng.random(n)
    draws.sort()
    return np.diff(np.searchsorted(draws, cum, side="left"), prepend=0)


class FixedDraws:
    """A generator stub serving the given draws in order: ``random(n)`` returns
    the next ``n`` of them and ``random(out=buf)`` fills ``buf`` with them."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=float)
        self.used = 0

    def random(self, size=None, out=None):
        k = size if out is None else len(out)
        assert self.used + k <= len(self.draws)
        draws = self.draws[self.used : self.used + k]
        self.used += k
        if out is None:
            return draws.copy()
        out[:] = draws
        return out


class TestDrawCounts:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=12).filter(any),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_draw_reference(self, weights, n, seed):
        # zero weights are zero-width bins, at the ends and in the middle
        p = np.array(weights) / sum(weights)
        counts = _draw_counts(p, n, np.random.default_rng(seed))
        expected = per_draw_counts(p, n, np.random.default_rng(seed))
        assert counts.tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_point_mass_between_empty_bins(self, seed):
        p = np.array([0.0, 1.0, 0.0])
        counts = _draw_counts(p, 1000, np.random.default_rng(seed))
        assert counts.tolist() == [0, 1000, 0]

    def test_draw_on_a_cumulative_value_counts_above_it(self):
        # cum = [0.25, 0.5, 0.5, 1.0]: a draw equal to cum[k] falls above it,
        # so 0.25 is outcome 1 and 0.5 skips the zero-width bin 2 to outcome 3
        p = np.array([0.25, 0.25, 0.0, 0.5])
        draws = [0.0, 0.25, np.nextafter(0.25, 0), 0.5, 0.5, np.nextafter(0.5, 1), 0.75, np.nextafter(1, 0)]
        counts = _draw_counts(p, len(draws), FixedDraws(draws))
        assert counts.tolist() == per_draw_counts(p, len(draws), FixedDraws(draws)).tolist()
        assert counts.tolist() == [2, 1, 0, 5]

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 8])
    def test_draws_on_a_cumulative_value_straddling_blocks_count_above_it(self, block):
        # cum = [0.25, 0.5, 0.5, 1.0] again; at a block of 4 the draws on 0.25
        # fall in blocks 0 and 1, and the two on 0.5 sit either side of the
        # first boundary
        p = np.array([0.25, 0.25, 0.0, 0.5])
        draws = [0.0, 0.75, 0.25, 0.5, 0.5, 0.25, np.nextafter(0.25, 0), np.nextafter(0.5, 1), np.nextafter(1, 0)]
        stub = FixedDraws(draws)
        with mock.patch.object(ensemble, "DRAW_BLOCK", block):
            counts = _draw_counts(p, len(draws), stub)
        assert stub.used == len(draws)
        assert counts.tolist() == one_array_counts(p, len(draws), FixedDraws(draws)).tolist()
        assert counts.tolist() == per_draw_counts(p, len(draws), FixedDraws(draws)).tolist()
        assert counts.tolist() == [2, 2, 0, 5]


class TestDrawBlocks:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=12).filter(any),
        st.floats(1 - 1e-7, 1 + 1e-7),
        st.integers(1, 200),
        st.sampled_from([1, 7]),
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_count_as_one_sorted_array(self, weights, scale, n, block, seed):
        # zero-width bins anywhere, and sums off 1 within the tolerance
        p = np.array(weights) / sum(weights) * scale
        with mock.patch.object(ensemble, "DRAW_BLOCK", block):
            run = sample_outcomes(p, n, seed, tol=1e-6)
        assert list(run.counts) == one_array_counts(p, n, np.random.default_rng(seed)).tolist()

    @pytest.mark.parametrize(
        "p", [[0.0, 0.3, 0.0, 0.7 + 1e-10, 0.0], [0.25, 0.25, 0.0, 0.5], [1 / 3] * 3]
    )
    def test_unpatched_blocks_count_as_one_sorted_array(self, p):
        n = 3 * ensemble.DRAW_BLOCK + 5
        run = sample_outcomes(p, n, seed=11)
        assert list(run.counts) == one_array_counts(np.array(p), n, np.random.default_rng(11)).tolist()

    def test_peak_memory_does_not_grow_with_n(self):
        p = np.full(8, 1 / 8)

        def peak(n):
            tracemalloc.start()
            try:
                sample_outcomes(p, n, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2**22) <= 2 * peak(2**16)


class TestSampleOutcomes:
    def test_certainty_is_exact(self):
        run = sample_outcomes([1.0, 0.0], 1000, seed=0)
        assert run.counts == (1000, 0)

    def test_fair_coin_within_four_sigma(self):
        # 4 * sqrt(N/4) = 632.45... for N = 100000
        run = sample_outcomes([0.5, 0.5], 100000, seed=42)
        for c in run.counts:
            assert abs(c - 50000) <= 633

    def test_two_thirds_within_four_sigma(self):
        # 4 * sqrt(N * 2/9) = 565.7 for N = 90000
        run = sample_outcomes([2 / 3, 1 / 3], 90000, seed=42)
        assert abs(run.counts[0] - 60000) <= 566
        assert abs(run.counts[1] - 30000) <= 566

    def test_same_seed_same_counts(self):
        a = sample_outcomes([0.3, 0.3, 0.4], 5000, seed=777)
        b = sample_outcomes([0.3, 0.3, 0.4], 5000, seed=777)
        assert a.counts == b.counts

    def test_different_seeds_differ(self):
        a = sample_outcomes([0.5, 0.5], 5000, seed=1)
        b = sample_outcomes([0.5, 0.5], 5000, seed=2)
        assert a.counts != b.counts

    def test_invalid_distribution(self):
        with pytest.raises(ValueError, match="sum"):
            sample_outcomes([0.5, 0.4], 100, seed=0)
        with pytest.raises(ValueError, match="negative"):
            sample_outcomes([1.5, -0.5], 100, seed=0)
        # a loose tolerance admits no empty distribution: it is drawn over its sum
        with pytest.raises(ValueError, match="sum"):
            sample_outcomes([0.0, 0.0], 100, seed=0, tol=2.0)

    @given(st.integers(0, 2**32 - 1))
    def test_boundary_outcomes_are_exact(self, seed):
        run = sample_outcomes([0.0, 1.0, 0.0], 257, seed=seed)
        assert run.counts == (0, 257, 0)

    def test_frequency_convergence(self):
        # median (over 20 seeds) of the worst frequency error shrinks with N
        p = [2 / 3, 1 / 3]
        medians = []
        for n in (10**3, 10**4, 10**5):
            errors = []
            for seed in range(20):
                run = sample_outcomes(p, n, seed)
                errors.append(max(abs(f - q) for f, q in zip(run.frequencies, p)))
            medians.append(np.median(errors))
        assert medians[0] >= medians[1] >= medians[2]


class TestFrequencyCheck:
    def test_certainty_run_passes_with_no_zscores(self):
        report = frequency_check(sample_outcomes([1.0, 0.0], 500, seed=5))
        assert report.passed
        assert report.zscores == (None, None)

    def test_sampler_output_passes(self):
        report = frequency_check(sample_outcomes([0.5, 0.5], 100000, seed=42))
        assert report.passed
        assert max(abs(z) for z in report.zscores) <= 4.0

    def test_ten_sigma_shift_fails(self):
        run = sample_outcomes([0.5, 0.5], 100000, seed=42)
        sigma = np.sqrt(100000 * 0.25)
        shift = int(10 * sigma)
        shifted = SampleRun(
            probabilities=run.probabilities,
            sample_count=run.sample_count,
            seed=run.seed,
            counts=(run.counts[0] + shift, run.counts[1] - shift),
        )
        assert not frequency_check(shifted).passed

    def test_broken_certainty_fails(self):
        run = SampleRun(
            probabilities=(1.0, 0.0), sample_count=100, seed=0, counts=(99, 1)
        )
        report = frequency_check(run)
        assert not report.exact_ok
        assert not report.passed

    def test_counts_must_sum_to_n(self):
        with pytest.raises(ValueError, match="sum"):
            SampleRun(probabilities=(0.5, 0.5), sample_count=10, seed=0, counts=(4, 5))
