"""Finite-sample realization of probabilities as ensemble frequencies.

Outcome counts are drawn by inverse-CDF categorical sampling: one uniform draw
per trial against cumulative sums computed once, using numpy's seeded PCG64
generator (identical seed, identical counts within one release) in blocks of
``DRAW_BLOCK`` draws, so memory does not grow with n.  A block is counted by one
comparison pass per cumulative sum up to ``COUNT_BY_COMPARISON`` outcomes, and
sorted and bisected above that; both count the draws strictly below each sum.
Acceptance is a z-score bound per outcome; deterministic outcomes (p of 0 or 1)
must be reproduced exactly.
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
# Uniform draws made and counted at a time: 256 KiB, within a 2 MiB L2 cache.
DRAW_BLOCK = 2**15
# Up to this many outcomes a block is counted by one comparison pass per
# outcome, which costs a pass per outcome; sorting the block once and bisecting
# it costs the same at any count.  At 250k draws (2 vCPUs) the passes took 0.64x
# the sort's time at 8 outcomes, 0.85x at 16, 0.99x at 24 and 1.26x at 32.
COUNT_BY_COMPARISON = 16
SIGMAS = 4.0  # the z-score bound of ``frequency_check``


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


def _draw_counts(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    # Inverse CDF on one uniform per trial, counting per block the draws below
    # each cum[k], which are outcomes 0..k (a draw equal to cum[k] is k + 1), so
    # zero-width bins count 0; the top is cum / sum = 1.0 exactly, so a sum off 1
    # is spread over every outcome.  The blocks follow the stream, and the draws
    # below cum[k] add over blocks, so the counts are those of one sorted array.
    cum = np.cumsum(p)
    cum /= cum[-1]
    below = np.zeros(cum.size, dtype=np.int64)
    buf = np.empty(min(n, DRAW_BLOCK))
    for start in range(0, n, DRAW_BLOCK):
        block = buf[: n - start]
        rng.random(out=block)
        if cum.size <= COUNT_BY_COMPARISON:
            below += [np.count_nonzero(block < c) for c in cum]
        else:
            block.sort()
            below += np.searchsorted(block, cum, side="left")
    return np.diff(below, prepend=0)


def sample_outcomes(
    probabilities: Sequence[float], n: int, seed: int, tol: float = _DIST_TOL
) -> SampleRun:
    """N independent categorical draws; identical seeds give identical counts.

    The probabilities must sum to 1 within ``tol``, and never within less than
    1e-9: derived probabilities are drawn at the tolerance they were derived at.
    """
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    if p.size == 0:
        raise ValueError("empty distribution")
    if np.any(p < 0):
        raise ValueError(f"negative probability in {p.tolist()}")
    if not (abs(p.sum() - 1.0) <= max(tol, _DIST_TOL) and p.sum() > 0):  # also rejects NaN
        raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
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


def frequency_check(run: SampleRun) -> FrequencyReport:
    """Binomial z-score acceptance within ``SIGMAS``: ``z_k = (c_k - N p_k) /
    sqrt(N p_k (1 - p_k))`` for ``p_k`` strictly between 0 and 1, with ``p``
    divided by its sum as drawn (where that misses 1 by over 1e-9); the counts
    must match a boundary ``p_k``."""
    n, total = run.sample_count, float(np.sum(run.probabilities))
    p = np.divide(run.probabilities, total if abs(total - 1.0) > _DIST_TOL else 1.0)
    zscores: list[float | None] = []
    exact_ok = True
    for p_k, c_k in zip(p, run.counts):
        if p_k <= 0.0 or p_k >= 1.0:
            zscores.append(None)
            expected = 0 if p_k <= 0.0 else n
            if c_k != expected:
                exact_ok = False
        else:
            zscores.append((c_k - n * p_k) / np.sqrt(n * p_k * (1.0 - p_k)))
    return FrequencyReport(zscores=tuple(zscores), exact_ok=exact_ok, sigmas=SIGMAS)
