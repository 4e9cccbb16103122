"""Seeded random objects: unit vectors, unitaries, projector bases, partitions.

Used by the mixture equivalence check (random projector trials) and
throughout the test suite; the derivation audits draw nothing.  All generators take an
explicit ``numpy.random.Generator`` so that callers own reproducibility.
"""

from __future__ import annotations

import numpy as np

from .hilbert import StateVector, make_state

__all__ = [
    "random_unit_vector",
    "random_state",
    "random_unitary",
    "random_projector",
    "random_orthogonal_partition",
]


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector via normalized complex Gaussian."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    return make_state(random_unit_vector(dim, rng))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phase fixed."""
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-``rank`` orthogonal projector of dimension ``dim``, as its
    basis: the first ``rank`` columns of a Haar unitary."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    return random_unitary(dim, rng)[:, :rank]


def random_orthogonal_partition(dim: int, parts: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Split a Haar-random unitary into ``parts`` blocks of columns: mutually
    orthogonal eigenspace bases (``dim x r``) of random ranks summing to
    ``dim`` (each part nonempty)."""
    if not 1 <= parts <= dim:
        raise ValueError(f"parts must be in [1, {dim}], got {parts}")
    cuts = np.sort(rng.choice(np.arange(1, dim), size=parts - 1, replace=False))
    return np.split(random_unitary(dim, rng), cuts, axis=1)
