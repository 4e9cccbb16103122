"""Dense finite-dimensional Hilbert-space arithmetic.

States, operators, observables and density operators are immutable wrappers
around complex numpy arrays; an orthogonal projector ``Q = B B^H`` is the
``d x r`` matrix ``B`` of an orthonormal basis of its range, applied through
``B``.  A value's dimension is its array's shape.  Every operation is pure;
values are safe to share across threads.

Two absolute tolerances are used throughout the package: ``DEFAULT_TOL`` for
operator-identity checks (orthonormality, completeness, unitarity) and the
tighter ``NORM_TOL`` for vector-norm and trace checks.  The checks a
scenario's operator tolerance applies to take it as an argument, or carry it
as an observable, a pointer apparatus and a premeasurement model do.  Matrix
norms are Frobenius, vector norms Euclidean.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "NORM_TOL",
    "Audit",
    "StateVector",
    "Operator",
    "Observable",
    "DensityOperator",
    "make_state",
    "basis_state",
    "identity",
    "pure_density",
    "trace_probability",
    "complete_observable",
    "orthonormalize",
]

DEFAULT_TOL = 1e-10  # operator-identity checks (double-precision SVD/eig noise margin)
NORM_TOL = 1e-12     # vector-norm and trace checks
DEPENDENCE_TOL = 1e-10  # orthonormalize: least residual norm relative to the input norm


def _freeze(values) -> np.ndarray:
    """A read-only complex copy, so no caller's array is frozen or aliased."""
    a = np.array(values, dtype=complex)
    a.setflags(write=False)
    return a


def _as_vector(values, dim: int | None = None) -> np.ndarray:
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {vec.shape}")
    if dim is not None and vec.shape != (dim,):
        raise ValueError(f"expected a vector of length {dim}, got {vec.shape}")
    return vec


@dataclass(frozen=True)
class Audit:
    """One audited identity: a residual per outcome index (``None`` keys a
    check over the whole state) and the tolerance each must stay within."""

    residuals: Mapping[int | None, float]
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "residuals", MappingProxyType(dict(self.residuals)))

    @property
    def max_residual(self) -> float:
        values = list(self.residuals.values())
        return float(np.max(values)) if values else 0.0  # NaN anywhere gives NaN

    @property
    def passed(self) -> bool:
        return all(r <= self.tolerance for r in self.residuals.values())  # NaN fails


@dataclass(frozen=True, eq=False)
class StateVector:
    """A unit vector of complex amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = _freeze(_as_vector(self.amplitudes))
        if not abs(np.linalg.norm(vec) - 1.0) <= NORM_TOL:  # also rejects NaN
            raise ValueError(
                f"state vector is not normalized: |norm - 1| = "
                f"{abs(np.linalg.norm(vec) - 1.0):.3e}"
            )
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class Operator:
    """A general linear map as a dense dim x dim complex matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _freeze(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValueError(f"expected a non-empty square matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _norms(gaps: np.ndarray):
    """The Frobenius norm of a matrix as a float, or of each matrix of a stack
    as an array: each matrix's sum of squares is one dot product of its real
    and imaginary parts with themselves, so it does not depend on the stack's
    height."""
    if gaps.ndim < 3:
        return float(np.linalg.norm(gaps))
    flat = gaps.reshape(len(gaps), 1, -1).view(float)
    return np.sqrt(flat @ flat.swapaxes(1, 2)).reshape(-1)


def gram_residual(columns: np.ndarray):
    """``||M^H M - I||`` for the matrix ``M = columns``: zero when its columns
    are orthonormal, and the unitarity residual when ``M`` is square.  For a
    stack of matrices, the array of their residuals."""
    gram = columns.conj().swapaxes(-1, -2) @ columns
    return _norms(gram - np.eye(gram.shape[-1]))


def span_residual(basis: np.ndarray, columns: np.ndarray):
    """``||Q C - C||`` for the projector ``Q = B B^H`` of the orthonormal
    columns ``B = basis`` and ``C = columns``, computed as ``B (B^H C) - C``:
    zero when ``Q`` fixes every column, so that ``range(C)`` lies in ``range(B)``.
    For stacks of bases and column matrices, the array of their residuals."""
    return _norms(basis @ (basis.conj().swapaxes(-1, -2) @ columns) - columns)


def _projector_basis(basis, dim: int) -> np.ndarray:
    """``basis`` as a ``dim x r`` complex matrix with orthonormal columns, the
    form of an orthogonal projector; ValueError for any other shape or a Gram
    residual beyond ``DEFAULT_TOL`` (NaN included)."""
    b = np.asarray(basis, dtype=complex)
    if b.ndim != 2 or len(b) != dim:
        raise ValueError(f"expected a {dim} x r projector basis, got shape {b.shape}")
    residual = gram_residual(b)
    if not residual <= DEFAULT_TOL:  # also rejects NaN
        raise ValueError(f"projector basis is not orthonormal: Gram residual {residual:.3e}")
    return b


@dataclass(frozen=True, eq=False)
class Observable:
    """Spectral form ``A = sum_n a_n B_n B_n^H``: distinct finite real
    eigenvalues, each with an orthonormal basis ``B_n`` (``dim x r_n``) of its
    eigenspace; eigenvalues may be arbitrarily degenerate.

    The bases are kept side by side as one ``dim x dim`` matrix ``matrix =
    [B_1 | ... | B_N]`` with ``ranks = (r_1, ..., r_N)``, and ``bases`` holds
    each ``B_n`` as a read-only view of its columns.  The blocks are
    orthonormal, mutually orthogonal and complete exactly when ``matrix`` is
    unitary, so one Gram residual decides all three; for a square matrix it
    equals the completeness residual ``||sum_n P^n - I||`` of ``P^n = B_n
    B_n^H``; it is kept as ``residual``, and bounds the Gram residual of every
    block.
    """

    eigenvalues: tuple[float, ...]
    bases: Sequence[np.ndarray] = field(repr=False)
    tol: float = DEFAULT_TOL
    matrix: np.ndarray = field(init=False, repr=False)
    ranks: tuple[int, ...] = field(init=False)
    residual: float = field(init=False, repr=False)

    def __post_init__(self):
        values = tuple(float(v) for v in self.eigenvalues)
        blocks = [np.asarray(b, dtype=complex) for b in self.bases]
        if len(values) != len(blocks):
            raise ValueError("eigenvalues and eigenspace bases must have the same length")
        if not blocks:
            raise ValueError("an observable needs at least one outcome")
        if not all(abs(v) <= sys.float_info.max for v in values):  # also rejects NaN
            raise ValueError(f"eigenvalues must be finite: {values}")
        if len(set(values)) != len(values):
            raise ValueError(f"eigenvalues are not pairwise distinct: {values}")
        ranks = tuple(b.shape[1] if b.ndim == 2 else 0 for b in blocks)
        if min(ranks) < 1 or any(len(b) != sum(ranks) for b in blocks):
            raise ValueError(
                "eigenspace bases must be dim x rank matrices, rank >= 1, whose ranks "
                f"sum to dim; got shapes {[b.shape for b in blocks]}"
            )
        matrix = _freeze(np.hstack(blocks))
        residual = gram_residual(matrix)
        if not residual <= self.tol:  # also rejects NaN
            raise ValueError(
                f"eigenspace bases are not orthonormal and complete: residual {residual:.3e}"
            )
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "bases", tuple(np.split(matrix, np.cumsum(ranks[:-1]), axis=1)))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "residual", residual)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def outcome_count(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True, eq=False)
class DensityOperator(Operator):
    """A Hermitian, unit-trace, positive-semidefinite operator, each within
    ``DEFAULT_TOL``."""

    def __post_init__(self):
        super().__post_init__()
        mat = self.matrix
        herm = np.linalg.norm(mat - mat.conj().T)
        if herm > DEFAULT_TOL:
            raise ValueError(f"density operator is not Hermitian: residual {herm:.3e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > DEFAULT_TOL:
            raise ValueError(f"density operator trace is {tr:.12f}, expected 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -DEFAULT_TOL:
            raise ValueError(
                f"density operator has a negative eigenvalue: {lowest:.3e}"
            )


def make_state(amplitudes) -> StateVector:
    """Normalize ``amplitudes`` and wrap them as a StateVector.

    Raises ValueError on a non-vector input, a non-finite amplitude, a norm
    that overflows or a (numerically) zero vector.
    """
    vec = _as_vector(amplitudes)
    if not np.all(np.isfinite(vec)):
        raise ValueError("amplitudes must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if norm == np.inf:
        raise ValueError(f"cannot normalize a vector of norm {norm:.3e}")
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    return StateVector(vec / norm)


def basis_state(dim: int, index: int) -> StateVector:
    """The computational basis vector e_index of length ``dim``."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return StateVector(vec)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


def pure_density(state: StateVector) -> DensityOperator:
    """The rank-1 density operator |phi><phi|."""
    vec = state.amplitudes
    return DensityOperator(np.outer(vec, vec.conj()))


def trace_probability(basis: np.ndarray, rho: DensityOperator) -> float:
    """The trace-rule probability ``tr(Q rho) = tr(B^H rho B)`` of the
    projector ``Q = B B^H`` of an orthonormal basis ``B``, such as ``B_n``.

    This is the oracle every derivation step in the package is audited
    against.  The trace must be real within ``DEFAULT_TOL``, the tolerance
    ``rho`` was validated at (an imaginary part beyond that signals malformed
    inputs); excursions outside [0, 1] within it are clamped.
    """
    if len(basis) != rho.dim:
        raise ValueError(f"dimension mismatch in trace_probability: {len(basis)} vs {rho.dim}")
    value = complex(np.vdot(basis, rho.matrix @ basis))
    if abs(value.imag) > DEFAULT_TOL:
        raise ValueError(
            f"trace has imaginary part {value.imag:.3e} beyond tolerance {DEFAULT_TOL:.1e}"
        )
    p = value.real
    if p < -DEFAULT_TOL or p > 1.0 + DEFAULT_TOL:
        raise ValueError(f"trace value {p!r} lies outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def complete_observable(
    basis: Sequence[StateVector], eigenvalues: Sequence[float] | None = None
) -> Observable:
    """Nondegenerate observable with one-column eigenspace bases ``basis``.

    Eigenvalues default to 0, 1, 2, ...; they are labels for outcomes.
    """
    if eigenvalues is None:
        eigenvalues = list(range(len(basis)))
    return Observable(eigenvalues, [b.amplitudes[:, None] for b in basis])


def orthonormalize(vectors: Iterable[np.ndarray]) -> np.ndarray:
    """Classical Gram-Schmidt applied twice (CGS2): each vector loses its
    projection on the basis so far, ``w -= Q (Q^H w)``, in two passes of two
    mat-vecs, each formed as ``(w^H Q)^H`` so that no conjugate copy of ``Q``
    is made; the first vector is only normalized.  The basis is returned as
    the columns of a ``dim x count`` matrix.
    An entry that is zero in every input vector stays exactly zero.

    Raises ValueError when the input set is empty, mixes lengths, holds a
    vector whose norm overflows (as ``make_state`` does) or is linearly
    dependent (residual norm below ``DEPENDENCE_TOL`` relative to the input
    norm).
    """
    columns = list(vectors)
    if not columns:
        raise ValueError("span requires at least one vector")
    basis = np.empty((len(_as_vector(columns[0])), len(columns)), dtype=complex)
    for k, v in enumerate(columns):
        w = _as_vector(v, len(basis)).copy()
        with np.errstate(over="ignore"):
            scale = norm = np.linalg.norm(w)
        if not np.isfinite(scale):
            raise ValueError(f"cannot normalize a vector of norm {scale:.3e}")
        if k:  # the first vector has no basis to lose a projection on
            q = basis[:, :k]
            for _ in range(2):
                w -= q @ (w.conj() @ q).conj()
            norm = np.linalg.norm(w)
        if scale == 0.0 or norm < DEPENDENCE_TOL * scale:
            raise ValueError("input vectors are linearly dependent")
        basis[:, k] = w / norm
    return basis
