"""Schmidt (biorthogonal) decomposition and envariance witnesses.

A bipartite pure state is held as its ``d1 x d2`` coefficient matrix ``Psi``
and decomposed by the SVD of ``Psi`` into ``sum_i a_i |i>_1 |i>_2`` with
nonnegative coefficients and orthonormal factor bases.  Twin unitaries
(opposite phases on matched Schmidt vectors) and counter-permutations of
equal-coefficient terms leave the composite state invariant;
``check_envariance`` measures the residual ``U1 @ Psi @ U2.T - Psi``.

``schmidt_probabilities`` returns {a_i^2}.  This is the probability assignment
for Schmidt states taken as an axiom by the derivation pipeline; it performs
no independent derivation, and the twin-unitary/swap witnesses are supporting
symmetry evidence only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    NORM_TOL,
    DensityOperator,
    HilbertSpace,
    Operator,
    Projector,
    StateVector,
)

__all__ = [
    "ZERO_BRANCH_THRESHOLD",
    "BipartiteState",
    "SchmidtForm",
    "SublemmaReport",
    "pointer_density",
    "schmidt_decompose",
    "reconstruct",
    "twin_unitary",
    "swap_witness",
    "check_envariance",
    "schmidt_probabilities",
    "sublemma_check",
]

# Singular values below this are treated as zero terms and dropped.
ZERO_BRANCH_THRESHOLD = 1e-12


@dataclass(frozen=True)
class BipartiteState:
    """A unit-norm bipartite pure state as its ``d1 x d2`` coefficient matrix:
    ``matrix[i, j]`` is the amplitude of ``|i>_1 |j>_2`` (flat index ``i * d2 + j``)."""

    matrix: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.matrix, dtype=complex)
        if psi.ndim != 2:
            raise ValueError(f"expected a d1 x d2 coefficient matrix, got shape {psi.shape}")
        if not abs(np.linalg.norm(psi) - 1.0) <= NORM_TOL:  # also rejects NaN
            raise ValueError(f"bipartite state is not normalized: norm {np.linalg.norm(psi)!r}")
        psi.setflags(write=False)
        object.__setattr__(self, "matrix", psi)

    @property
    def dims(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def d1(self) -> int:
        return self.dims[0]

    @property
    def d2(self) -> int:
        return self.dims[1]


def pointer_density(psi12: BipartiteState) -> DensityOperator:
    """Reduced state of the second factor, ``rho_2 = Psi.T @ Psi.conj()``."""
    psi = psi12.matrix
    return DensityOperator(HilbertSpace(psi12.d2, "pointer"), psi.T @ psi.conj())


def gram_residual(vectors: Sequence[StateVector]) -> float:
    """``||G - I||`` for the Gram matrix ``G`` of ``vectors``."""
    mat = np.column_stack([v.amplitudes for v in vectors])
    gram = mat.conj().T @ mat
    return float(np.linalg.norm(gram - np.eye(len(vectors))))


@dataclass(frozen=True)
class SchmidtForm:
    """Coefficients (positive, descending) with paired orthonormal bases."""

    coefficients: np.ndarray
    basis1: tuple[StateVector, ...]
    basis2: tuple[StateVector, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float).reshape(-1)
        n = len(coeffs)
        if len(self.basis1) != n or len(self.basis2) != n:
            raise ValueError("coefficients and bases must have equal lengths")
        if n == 0:
            raise ValueError("a Schmidt form needs at least one term")
        if np.any(coeffs <= 0):
            raise ValueError("coefficients must be strictly positive")
        if np.any(np.diff(coeffs) > 0):
            raise ValueError("coefficients must be in descending order")
        if abs(np.sum(coeffs**2) - 1.0) > self.tol:
            raise ValueError("squared coefficients must sum to 1")
        d1 = self.basis1[0].space.dim
        d2 = self.basis2[0].space.dim
        if n > min(d1, d2):
            raise ValueError(f"{n} terms exceed min factor dimension {min(d1, d2)}")
        for basis, name in ((self.basis1, "factor-1"), (self.basis2, "factor-2")):
            if gram_residual(basis) > self.tol:
                raise ValueError(f"{name} basis is not orthonormal within tolerance")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "basis1", tuple(self.basis1))
        object.__setattr__(self, "basis2", tuple(self.basis2))

    def __len__(self) -> int:
        return len(self.coefficients)


def schmidt_decompose(psi: BipartiteState) -> SchmidtForm:
    """Biorthogonal decomposition of a bipartite state via SVD.

    Singular values below ``ZERO_BRANCH_THRESHOLD`` are dropped; a product
    state yields a single-term form.  Output is deterministic: coefficients
    descend, equal coefficients are ordered by the first-nonzero-component
    index of the factor-1 vectors, and each factor-1 vector has its first
    nonzero component made real positive (compensating phase pushed into the
    factor-2 partner).
    """
    d1, d2 = psi.dims
    u, s, vh = np.linalg.svd(psi.matrix, full_matrices=False)
    keep = s >= ZERO_BRANCH_THRESHOLD
    s = s[keep]
    u = u[:, keep]
    vh = vh[keep, :]

    vecs1 = []
    vecs2 = []
    lead_index = []
    for i in range(len(s)):
        col = u[:, i].copy()
        row = vh[i, :].copy()
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        lead = int(nz[0]) if len(nz) else 0
        phase = col[lead] / abs(col[lead]) if len(nz) else 1.0
        vecs1.append(col / phase)
        vecs2.append(row * phase)
        lead_index.append(lead)

    # SVD returns descending singular values; break ties deterministically by
    # the factor-1 leading-component index.
    order = sorted(range(len(s)), key=lambda i: (-s[i], lead_index[i]))
    space1 = HilbertSpace(d1)
    space2 = HilbertSpace(d2)
    return SchmidtForm(
        coefficients=np.array([s[i] for i in order]),
        basis1=tuple(StateVector(space1, vecs1[i]) for i in order),
        basis2=tuple(StateVector(space2, vecs2[i]) for i in order),
    )


def reconstruct(form: SchmidtForm) -> BipartiteState:
    """Inverse of schmidt_decompose: ``sum_i a_i |i>_1 |i>_2``, normalized,
    with coefficient matrix ``sum_i a_i outer(|i>_1, |i>_2)``."""
    terms = zip(form.coefficients, form.basis1, form.basis2)
    psi = sum(a * np.outer(b1.amplitudes, b2.amplitudes) for a, b1, b2 in terms)
    return BipartiteState(psi / np.linalg.norm(psi))


def _phased_identity(dim: int, vectors: Sequence[StateVector], factors: np.ndarray) -> np.ndarray:
    """Identity plus (factor - 1) on each |v><v|; unitary for unimodular factors."""
    mat = np.eye(dim, dtype=complex)
    for f, v in zip(factors, vectors):
        amp = v.amplitudes
        mat += (f - 1.0) * np.outer(amp, amp.conj())
    return mat


def twin_unitary(form: SchmidtForm, phases: Sequence[float]) -> tuple[Operator, Operator]:
    """The paired unitaries e^{+i th_i} on |i>_1 and e^{-i th_i} on |i>_2
    (identity on the orthogonal complements).  Their tensor product leaves the
    source state invariant."""
    if len(phases) != len(form):
        raise ValueError(
            f"expected {len(form)} phases (one per Schmidt term), got {len(phases)}"
        )
    th = np.asarray(phases, dtype=float)
    d1 = form.basis1[0].space.dim
    d2 = form.basis2[0].space.dim
    u1 = _phased_identity(d1, form.basis1, np.exp(1j * th))
    u2 = _phased_identity(d2, form.basis2, np.exp(-1j * th))
    return Operator(HilbertSpace(d1), u1), Operator(HilbertSpace(d2), u2)


def swap_witness(form: SchmidtForm, perm: Sequence[int]) -> tuple[Operator, Operator]:
    """Counter-permutation witness for equal-coefficient Schmidt terms.

    ``perm[i]`` is the image of term index i.  Factor 1 sends |i>_1 to
    |perm[i]>_1; factor 2 applies the matching counter-permutation on the
    |i>_2 family (identity on both complements), so the composite state is
    invariant.  Coefficients moved by the permutation must be equal within
    1e-12, otherwise the swap is not envariant and a ValueError signals the
    misuse.
    """
    n = len(form)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}, got {list(perm)}")
    coeffs = form.coefficients
    moving = [i for i in range(n) if perm[i] != i]
    for i in moving:
        if abs(coeffs[i] - coeffs[perm[i]]) > 1e-12:
            raise ValueError(
                f"coefficients {coeffs[i]!r} and {coeffs[perm[i]]!r} moved by the "
                "permutation are unequal; the swap would not be envariant"
            )
    d1 = form.basis1[0].space.dim
    d2 = form.basis2[0].space.dim
    u1 = np.eye(d1, dtype=complex)
    u2 = np.eye(d2, dtype=complex)
    for i in moving:
        a1, t1 = form.basis1[i].amplitudes, form.basis1[perm[i]].amplitudes
        a2, t2 = form.basis2[i].amplitudes, form.basis2[perm[i]].amplitudes
        u1 += np.outer(t1, a1.conj()) - np.outer(a1, a1.conj())
        u2 += np.outer(t2, a2.conj()) - np.outer(a2, a2.conj())
    return Operator(HilbertSpace(d1), u1), Operator(HilbertSpace(d2), u2)


def check_envariance(
    psi: BipartiteState, u1: Operator, u2: Operator, tol: float = DEFAULT_TOL
) -> float:
    """The invariance residual ||(U1 x U2) Psi - Psi||, computed on the
    coefficient matrix as ``U1 @ Psi @ U2.T``."""
    d1, d2 = psi.dims
    if u1.space.dim != d1 or u2.space.dim != d2:
        raise ValueError(
            f"factor dimensions ({u1.space.dim}, {u2.space.dim}) do not match "
            f"state factors {psi.dims}"
        )
    for name, u in (("U1", u1), ("U2", u2)):
        if not u.is_unitary(tol):
            raise ValueError(f"{name} is not unitary within tolerance {tol:.1e}")
    coeffs = psi.matrix
    moved = u1.matrix @ coeffs @ u2.matrix.T
    return float(np.linalg.norm(moved - coeffs))


def schmidt_probabilities(form: SchmidtForm) -> np.ndarray:
    """Probabilities {a_i^2} of the Schmidt states.

    This is the axiom imported into the derivation pipeline: probabilities of
    Schmidt states are the squared coefficients.  No derivation happens here.
    """
    return form.coefficients**2


@dataclass(frozen=True)
class SublemmaReport:
    holds: bool
    max_residual: float


def sublemma_check(
    psi: BipartiteState, q2: Projector, tol: float = DEFAULT_TOL
) -> SublemmaReport:
    """Verify the sub-projector relation behind branch complements.

    Hypothesis: ``(I x Q2) Psi = Psi`` within ``tol`` (violations raise).
    Checked conclusions: Q2 fixes every factor-2 Schmidt vector with nonzero
    coefficient (equivalently the span projector is a sub-projector of Q2),
    and the first proof step ``Q2 rho_2 = rho_2``.  The hypothesis is
    checked on the coefficient matrix as ``Psi @ Q2.T``.
    """
    d2 = psi.d2
    if q2.space.dim != d2:
        raise ValueError(f"Q2 dim {q2.space.dim} does not match factor 2 dim {d2}")
    coeffs = psi.matrix
    hypothesis = float(np.linalg.norm(coeffs @ q2.matrix.T - coeffs))
    if hypothesis > tol:
        raise ValueError(
            f"hypothesis violated: ||(I x Q2) Psi - Psi|| = {hypothesis:.3e} > {tol:.1e}"
        )

    form = schmidt_decompose(psi)
    residuals = []
    sub = np.zeros((d2, d2), dtype=complex)
    for v in form.basis2:
        amp = v.amplitudes
        residuals.append(np.linalg.norm(q2.matrix @ amp - amp))
        sub += np.outer(amp, amp.conj())
    residuals.append(np.linalg.norm(q2.matrix @ sub - sub))

    rho2 = pointer_density(psi)
    residuals.append(np.linalg.norm(q2.matrix @ rho2.matrix - rho2.matrix))

    worst = float(max(residuals))
    return SublemmaReport(holds=worst <= tol, max_residual=worst)
