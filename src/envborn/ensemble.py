"""Finite-sample realization of probabilities as ensemble frequencies.

Outcome counts are drawn by inverse-CDF categorical sampling: one uniform draw
per trial against cumulative sums computed once, using numpy's seeded PCG64
generator (identical seed, identical counts within one release).  Acceptance
is a z-score bound per outcome; deterministic outcomes (p of 0 or 1) must be
reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SampleRun",
    "FrequencyReport",
    "sample_outcomes",
    "frequency_check",
]

_DIST_TOL = 1e-9


def _validated_distribution(probabilities: Sequence[float]) -> np.ndarray:
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    if p.size == 0:
        raise ValueError("empty distribution")
    if np.any(p < 0):
        raise ValueError(f"negative probability in {p.tolist()}")
    if abs(p.sum() - 1.0) > _DIST_TOL:
        raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
    return p


@dataclass(frozen=True)
class SampleRun:
    """Counts from N categorical draws of a distribution under a fixed seed."""

    probabilities: tuple[float, ...]
    sample_count: int
    seed: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample count must be positive")
        if len(self.counts) != len(self.probabilities):
            raise ValueError("one count per outcome is required")
        if sum(self.counts) != self.sample_count:
            raise ValueError(
                f"counts sum to {sum(self.counts)}, expected {self.sample_count}"
            )

    @property
    def frequencies(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.sample_count


def _draw_counts(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    # Inverse CDF on one uniform per trial.  Zero-width bins are never hit
    # (searchsorted side="right" skips repeated cumulative values) and the top
    # of the ladder is pinned to 1.0, so boundary outcomes are exact.
    cum = np.cumsum(p)
    cum[-1] = 1.0
    draws = rng.random(n)
    outcomes = np.searchsorted(cum, draws, side="right")
    return np.bincount(outcomes, minlength=len(p))


def sample_outcomes(probabilities: Sequence[float], n: int, seed: int) -> SampleRun:
    """N independent categorical draws; identical seeds give identical counts."""
    p = _validated_distribution(probabilities)
    if n < 1:
        raise ValueError("sample count must be positive")
    counts = _draw_counts(p, n, np.random.default_rng(seed))
    return SampleRun(
        probabilities=tuple(p.tolist()),
        sample_count=int(n),
        seed=int(seed),
        counts=tuple(int(c) for c in counts),
    )


@dataclass(frozen=True)
class FrequencyReport:
    """Per-outcome z-scores (None where p is 0 or 1) and the overall verdict."""

    zscores: tuple[float | None, ...]
    exact_ok: bool
    sigmas: float

    @property
    def passed(self) -> bool:
        defined = [z for z in self.zscores if z is not None]
        return self.exact_ok and all(abs(z) <= self.sigmas for z in defined)

    @property
    def max_abs_z(self) -> float:
        defined = [abs(z) for z in self.zscores if z is not None]
        return max(defined) if defined else 0.0


def frequency_check(run: SampleRun, sigmas: float = 4.0) -> FrequencyReport:
    """Binomial z-score acceptance: ``z_k = (c_k - N p_k) / sqrt(N p_k (1 - p_k))``
    for probabilities strictly between 0 and 1; boundary probabilities must be
    matched exactly by the counts."""
    n = run.sample_count
    zscores: list[float | None] = []
    exact_ok = True
    for p_k, c_k in zip(run.probabilities, run.counts):
        if p_k <= 0.0 or p_k >= 1.0:
            zscores.append(None)
            expected = 0 if p_k <= 0.0 else n
            if c_k != expected:
                exact_ok = False
        else:
            zscores.append((c_k - n * p_k) / np.sqrt(n * p_k * (1.0 - p_k)))
    return FrequencyReport(zscores=tuple(zscores), exact_ok=exact_ok, sigmas=float(sigmas))
