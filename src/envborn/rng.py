"""Seeded random objects: unit vectors, Haar unitaries, partitions.

``haar_unitary`` is the one Haar routine, one stacked QR over a stack of
Gaussian draws: ``random_unitary`` passes one, the mixture trials a chunk.  The
derivation audits draw nothing.  Every generator takes an explicit
``numpy.random.Generator`` so that callers own reproducibility.
"""

from __future__ import annotations

import numpy as np

from .hilbert import StateVector, make_state

__all__ = [
    "random_unit_vector",
    "random_state",
    "haar_unitary",
    "random_unitary",
    "random_orthogonal_partition",
]


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector via normalized complex Gaussian."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    return make_state(random_unit_vector(dim, rng))


def haar_unitary(ginibre: np.ndarray) -> np.ndarray:
    """Haar unitaries from real Gaussian pairs ``g`` of shape ``(..., 2, d, d)``: one stacked
    QR of the Ginibre matrices ``g[..., 0, :, :] + 1j g[..., 1, :, :]``, R-diagonal phases fixed."""
    q, r = np.linalg.qr(ginibre[..., 0, :, :] + 1j * ginibre[..., 1, :, :])
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from one Gaussian pair drawn from ``rng``."""
    return haar_unitary(rng.standard_normal((2, dim, dim)))


def random_orthogonal_partition(dim: int, parts: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Split a Haar-random unitary into ``parts`` blocks of columns: mutually
    orthogonal eigenspace bases (``dim x r``) of random ranks summing to
    ``dim`` (each part nonempty)."""
    if not 1 <= parts <= dim:
        raise ValueError(f"parts must be in [1, {dim}], got {parts}")
    cuts = np.sort(rng.choice(np.arange(1, dim), size=parts - 1, replace=False))
    return np.split(random_unitary(dim, rng), cuts, axis=1)
