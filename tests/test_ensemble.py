import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envborn.ensemble import (
    SampleRun,
    frequency_check,
    sample_outcomes,
)


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
