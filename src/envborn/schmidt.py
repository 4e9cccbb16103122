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
    Audit,
    DensityOperator,
    Operator,
    _freeze,
    _projector_basis,
    gram_residual,
    span_residual,
)

__all__ = [
    "ZERO_BRANCH_THRESHOLD",
    "BipartiteState",
    "SchmidtForm",
    "pointer_density",
    "schmidt_decompose",
    "schmidt_decompose_cores",
    "term_cutoff",
    "reconstruct",
    "twin_unitary",
    "swap_witness",
    "check_envariance",
    "schmidt_probabilities",
    "sublemma_check",
]

# Singular values below this are treated as zero terms and dropped.
ZERO_BRANCH_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """A unit-norm bipartite pure state as its ``d1 x d2`` coefficient matrix:
    ``matrix[i, j]`` is the amplitude of ``|i>_1 |j>_2`` (flat index ``i * d2 + j``)."""

    matrix: np.ndarray

    def __post_init__(self):
        psi = _freeze(self.matrix)
        if psi.ndim != 2:
            raise ValueError(f"expected a d1 x d2 coefficient matrix, got shape {psi.shape}")
        if not abs(np.linalg.norm(psi) - 1.0) <= NORM_TOL:  # also rejects NaN
            raise ValueError(f"bipartite state is not normalized: norm {np.linalg.norm(psi)!r}")
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
    return DensityOperator(psi.T @ psi.conj())


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Coefficients (positive, descending) with paired orthonormal bases:
    column ``i`` of ``basis1`` (``d1 x n``) and of ``basis2`` (``d2 x n``) is
    the factor vector of term ``i``.  The squared coefficients must sum to 1
    and the bases must be orthonormal within ``DEFAULT_TOL``."""

    coefficients: np.ndarray
    basis1: np.ndarray
    basis2: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float).reshape(-1)
        basis1, basis2 = _freeze(self.basis1), _freeze(self.basis2)
        if basis1.ndim != 2 or basis2.ndim != 2:
            raise ValueError("coefficients and bases must have equal lengths")
        _check_forms(coeffs[None], basis1[None], basis2[None])
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "basis1", basis1)
        object.__setattr__(self, "basis2", basis2)

    def __len__(self) -> int:
        return len(self.coefficients)


def _check_forms(coeffs: np.ndarray, basis1: np.ndarray, basis2: np.ndarray) -> None:
    """``SchmidtForm``'s checks on stacks of ``g`` forms of ``n`` terms each:
    ``g x n`` coefficients, ``g x d1 x n`` and ``g x d2 x n`` bases.  ValueError
    names the first check that any form of the stack fails."""
    n = coeffs.shape[1]
    if basis1.shape[2] != n or basis2.shape[2] != n:
        raise ValueError("coefficients and bases must have equal lengths")
    if n == 0:
        raise ValueError("a Schmidt form needs at least one term")
    if (coeffs <= 0).any():
        raise ValueError("coefficients must be strictly positive")
    if (coeffs[:, 1:] > coeffs[:, :-1]).any():
        raise ValueError("coefficients must be in descending order")
    if not (abs((coeffs**2).sum(axis=1) - 1.0) <= DEFAULT_TOL).all():  # also rejects NaN
        raise ValueError("squared coefficients must sum to 1")
    for basis, name in ((basis1, "factor-1"), (basis2, "factor-2")):
        # NaN fails both; more terms than dimensions fail the Gram check
        if not (gram_residual(basis) <= DEFAULT_TOL).all():
            raise ValueError(f"{name} basis is not orthonormal within tolerance")
        if not (abs(np.linalg.norm(basis, axis=1) - 1.0) <= NORM_TOL).all():
            raise ValueError(f"{name} basis vectors are not normalized")


def term_cutoff(error: float, terms: int) -> float:
    """The least Schmidt coefficient a form keeps when its factor-2 vectors
    carry an error ``error`` (a pointer basis's Gram residual): terms below
    ``10 * error`` are that error's image, not the state's.  It is capped at
    ``sqrt(DEFAULT_TOL / (2 terms))``, so that the squares of all dropped terms
    sum below ``DEFAULT_TOL / 2`` and the kept ones still sum to 1 within
    ``DEFAULT_TOL``, and is never below ``ZERO_BRANCH_THRESHOLD``."""
    return max(ZERO_BRANCH_THRESHOLD, min(10 * error, (DEFAULT_TOL / (2 * terms)) ** 0.5))


def schmidt_decompose(psi: BipartiteState) -> SchmidtForm:
    """Biorthogonal decomposition of a bipartite state via SVD.

    Singular values below ``ZERO_BRANCH_THRESHOLD`` are dropped; a product
    state yields a single-term form.  Output is deterministic: coefficients
    descend, equal coefficients are ordered by the first-nonzero-component
    index of the factor-1 vectors, and each factor-1 vector has its first
    nonzero component made real positive (compensating phase pushed into the
    factor-2 partner).
    """
    return schmidt_decompose_cores(psi.matrix[None])[0]


def schmidt_decompose_cores(
    cores: np.ndarray,
    bases: np.ndarray | None = None,
    cutoff: float | np.ndarray = ZERO_BRANCH_THRESHOLD,
) -> list[SchmidtForm]:
    """``schmidt_decompose`` of each state ``cores[k] @ bases[k].T`` of a stack
    (``g x d1 x r`` cores, ``g x d2 x r`` bases with orthonormal columns, or no
    bases for the states ``cores[k]`` themselves), from one stacked SVD of the
    cores: ``bases[k].T`` has orthonormal rows, so a state's coefficients and
    factor-1 vectors are its core's, and its factor-2 vectors are ``bases[k] @ v``.
    Terms below ``cutoff`` are dropped; a ``g x 1`` column of cutoffs gives
    each state its own.

    The phase fix and the ordering act on the whole stack, and the forms that
    keep equal numbers of terms are checked as one stack by ``SchmidtForm``'s
    checks.  LAPACK factors each matrix of a stack on its own, so a form does
    not depend on the stack it was computed in."""
    u, s, vh = np.linalg.svd(cores, full_matrices=False)
    v = (vh if bases is None else vh @ bases.swapaxes(1, 2)).swapaxes(1, 2)
    # a unit column has an entry of modulus at least 1/sqrt(d1) > 1e-12
    lead = np.argmax(np.abs(u) > 1e-12, axis=1)
    rows = np.arange(len(u))[:, None]
    top = u[rows, lead, np.arange(u.shape[2])]
    # hypot rounds as scalar abs() does; np.abs on arrays may differ in the last bit
    phase = (top / np.hypot(top.real, top.imag))[:, None, :]
    # SVD returns descending singular values; break ties deterministically by
    # the factor-1 leading-component index.  The terms kept lead the order.
    order = np.lexsort((lead, -s))
    s = s[rows, order]
    u = (u / phase)[rows, :, order].swapaxes(1, 2)
    v = (v * phase)[rows, :, order].swapaxes(1, 2)
    counts = (s >= cutoff).sum(axis=1).tolist()
    forms = [None] * len(counts)
    for n in set(counts):
        members = [k for k, count in enumerate(counts) if count == n]
        parts = s.take(members, 0)[:, :n], u.take(members, 0)[..., :n], v.take(members, 0)[..., :n]
        _check_forms(*parts)
        for k, coeffs, basis1, basis2 in zip(members, *parts):
            forms[k] = form = object.__new__(SchmidtForm)  # checked above as a stack
            for name, value in zip(("coefficients", "basis1", "basis2"), (coeffs, basis1, basis2)):
                value.setflags(write=False)
                object.__setattr__(form, name, value)
    return forms


def reconstruct(form: SchmidtForm) -> BipartiteState:
    """Inverse of schmidt_decompose: ``sum_i a_i |i>_1 |i>_2``, normalized,
    with coefficient matrix ``sum_i a_i outer(|i>_1, |i>_2)``."""
    terms = zip(form.coefficients, form.basis1.T, form.basis2.T)
    psi = sum(a * np.outer(b1, b2) for a, b1, b2 in terms)
    return BipartiteState(psi / np.linalg.norm(psi))


def twin_unitary(form: SchmidtForm, phases: Sequence[float]) -> tuple[Operator, Operator]:
    """The paired unitaries e^{+i th_i} on |i>_1 and e^{-i th_i} on |i>_2
    (identity on the orthogonal complements): ``I + B diag(f - 1) B^H`` for
    each factor basis ``B`` and its phase factors ``f``.  Their tensor product
    leaves the source state invariant.

    Public as one of the paper's witnesses; the derivation pipeline does not
    call it."""
    if len(phases) != len(form):
        raise ValueError(
            f"expected {len(form)} phases (one per Schmidt term), got {len(phases)}"
        )
    th = np.asarray(phases, dtype=float)
    b1, b2 = form.basis1, form.basis2
    u1 = np.eye(len(b1)) + (b1 * (np.exp(1j * th) - 1.0)) @ b1.conj().T
    u2 = np.eye(len(b2)) + (b2 * (np.exp(-1j * th) - 1.0)) @ b2.conj().T
    return Operator(u1), Operator(u2)


def swap_witness(form: SchmidtForm, perm: Sequence[int]) -> tuple[Operator, Operator]:
    """Counter-permutation witness for equal-coefficient Schmidt terms.

    ``perm[i]`` is the image of term index i.  Factor 1 sends |i>_1 to
    |perm[i]>_1; factor 2 applies the matching counter-permutation on the
    |i>_2 family (identity on both complements), so the composite state is
    invariant.  For a factor basis ``B`` the map is ``I + (B[:, perm] - B)
    B^H``.  Coefficients moved by the permutation must be equal within
    1e-12, otherwise the swap is not envariant and a ValueError signals the
    misuse.

    Public as one of the paper's witnesses; the derivation pipeline does not
    call it.
    """
    n = len(form)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}, got {list(perm)}")
    perm = list(perm)
    coeffs = form.coefficients
    for i in range(n):
        if abs(coeffs[i] - coeffs[perm[i]]) > 1e-12:
            raise ValueError(
                f"coefficients {coeffs[i]!r} and {coeffs[perm[i]]!r} moved by the "
                "permutation are unequal; the swap would not be envariant"
            )
    b1, b2 = form.basis1, form.basis2
    u1 = np.eye(len(b1)) + (b1[:, perm] - b1) @ b1.conj().T
    u2 = np.eye(len(b2)) + (b2[:, perm] - b2) @ b2.conj().T
    return Operator(u1), Operator(u2)


def check_envariance(psi: BipartiteState, u1: Operator, u2: Operator) -> float:
    """The invariance residual ||(U1 x U2) Psi - Psi||, computed on the
    coefficient matrix as ``U1 @ Psi @ U2.T``; ValueError unless each factor
    has a Gram residual within ``DEFAULT_TOL``.

    Public as one of the paper's witnesses; the derivation pipeline does not
    call it."""
    d1, d2 = psi.dims
    if u1.dim != d1 or u2.dim != d2:
        raise ValueError(
            f"factor dimensions ({u1.dim}, {u2.dim}) do not match "
            f"state factors {psi.dims}"
        )
    for name, u in (("U1", u1), ("U2", u2)):
        if not gram_residual(u.matrix) <= DEFAULT_TOL:
            raise ValueError(f"{name} is not unitary within tolerance {DEFAULT_TOL:.1e}")
    coeffs = psi.matrix
    moved = u1.matrix @ coeffs @ u2.matrix.T
    return float(np.linalg.norm(moved - coeffs))


def schmidt_probabilities(form: SchmidtForm) -> np.ndarray:
    """Probabilities {a_i^2} of the Schmidt states.

    This is the axiom imported into the derivation pipeline: probabilities of
    Schmidt states are the squared coefficients.  No derivation happens here.
    """
    return form.coefficients**2


def sublemma_check(psi: BipartiteState, basis: np.ndarray) -> Audit:
    """Verify the sub-projector relation behind branch complements for
    ``Q2 = basis basis^H`` (ValueError unless ``basis`` is a ``d2 x r``
    matrix with a Gram residual within ``DEFAULT_TOL``).

    Hypothesis: ``(I x Q2) Psi = Psi`` within ``DEFAULT_TOL`` (violations raise),
    checked as ``span_residual(basis, Psi^T)``.  Checked conclusion: Q2 fixes
    the factor-2 Schmidt vectors with nonzero coefficient, the columns of
    ``B``: the residual is ``span_residual(basis, B)``, for orthonormal ``B``
    equal to ``||Q2 S - S||_F`` with ``S = B B^H``.

    The first proof step ``Q2 rho_2 = rho_2`` needs no check of its own: with
    ``rho_2 = Psi.T @ Psi.conj()``, ``||Q2 rho_2 - rho_2||_F`` is at most the
    largest Schmidt coefficient (at most 1) times the hypothesis residual,
    which is already within ``DEFAULT_TOL``.

    Public as one of the paper's witnesses; the derivation pipeline applies
    the relation through ``born.complement_check`` instead, which records inf
    where the relation fails.
    """
    basis = _projector_basis(basis, psi.d2)
    hypothesis = span_residual(basis, psi.matrix.T)
    if hypothesis > DEFAULT_TOL:
        raise ValueError(
            f"hypothesis violated: ||(I x Q2) Psi - Psi|| = {hypothesis:.3e} > {DEFAULT_TOL:.1e}"
        )
    return Audit({None: span_residual(basis, schmidt_decompose(psi).basis2)}, DEFAULT_TOL)
