"""Dense finite-dimensional Hilbert-space arithmetic.

States, operators, observables and density operators are immutable wrappers
around complex numpy arrays; an orthogonal projector ``Q = B B^H`` is the
``d x r`` matrix ``B`` of an orthonormal basis of its range, applied through
``B``.  A value's dimension is its array's shape.  Every operation is pure;
values are safe to share across threads.

Two absolute tolerances are used throughout the package: ``DEFAULT_TOL`` for
operator-identity checks (orthonormality, completeness, unitarity) and the
tighter ``NORM_TOL`` for vector-norm and trace checks.  Both can be overridden
per call.  Matrix norms are Frobenius, vector norms Euclidean.
"""

from __future__ import annotations

import sys
from dataclasses import InitVar, dataclass, field
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
    "tensor",
    "identity",
    "pure_density",
    "partial_trace",
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
        return max(self.residuals.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


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

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        return gram_residual(self.matrix) <= tol


def gram_residual(columns: np.ndarray) -> float:
    """``||M^H M - I||`` for the matrix ``M = columns``: zero when its columns
    are orthonormal, and the unitarity residual when ``M`` is square."""
    gram = columns.conj().T @ columns
    return float(np.linalg.norm(gram - np.eye(gram.shape[0])))


def span_residual(basis: np.ndarray, columns: np.ndarray) -> float:
    """``||Q C - C||`` for the projector ``Q = B B^H`` of the orthonormal
    columns ``B = basis`` and ``C = columns``, computed as ``B (B^H C) - C``:
    zero when ``Q`` fixes every column, so that ``range(C)`` lies in ``range(B)``."""
    return float(np.linalg.norm(basis @ (basis.conj().T @ columns) - columns))


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
    [B_1 | ... | B_N]`` with ``ranks = (r_1, ..., r_N)``.  Its blocks are
    orthonormal, mutually orthogonal and complete exactly when it is unitary,
    so one Gram residual decides all three; for a square matrix it equals the
    completeness residual ``||sum_n P^n - I||`` of ``P^n = B_n B_n^H``.
    """

    eigenvalues: tuple[float, ...]
    bases: InitVar[Sequence[np.ndarray]]
    tol: float = DEFAULT_TOL
    matrix: np.ndarray = field(init=False, repr=False)
    ranks: tuple[int, ...] = field(init=False)

    def __post_init__(self, bases):
        values = tuple(float(v) for v in self.eigenvalues)
        blocks = [np.asarray(b, dtype=complex) for b in bases]
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
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "ranks", ranks)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def outcome_count(self) -> int:
        return len(self.eigenvalues)

    def basis(self, n: int) -> np.ndarray:
        """``B_n``, the columns of ``matrix`` that span eigenspace ``n``."""
        start = sum(self.ranks[:n])
        return self.matrix[:, start : start + self.ranks[n]]


@dataclass(frozen=True, eq=False)
class DensityOperator(Operator):
    """A Hermitian, unit-trace, positive-semidefinite operator."""

    tol: float = DEFAULT_TOL

    def __post_init__(self):
        super().__post_init__()
        mat = self.matrix
        herm = np.linalg.norm(mat - mat.conj().T)
        if herm > self.tol:
            raise ValueError(f"density operator is not Hermitian: residual {herm:.3e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > self.tol:
            raise ValueError(f"density operator trace is {tr:.12f}, expected 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -self.tol:
            raise ValueError(
                f"density operator has a negative eigenvalue: {lowest:.3e}"
            )


def make_state(amplitudes) -> StateVector:
    """Normalize ``amplitudes`` and wrap them as a StateVector.

    Raises ValueError on a non-vector input, a non-finite amplitude or a
    (numerically) zero vector.
    """
    vec = _as_vector(amplitudes)
    if not np.all(np.isfinite(vec)):
        raise ValueError("amplitudes must be finite")
    norm = np.linalg.norm(vec)
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


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Tensor product of two states; the first factor is the slow index.

    The amplitude at composite index (i, j) is ``u[i] * v[j]`` with flat index
    ``i * dim(v) + j``, matching ``np.kron``.
    """
    return StateVector(np.kron(u.amplitudes, v.amplitudes))


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


def pure_density(state: StateVector) -> DensityOperator:
    """The rank-1 density operator |phi><phi|."""
    vec = state.amplitudes
    return DensityOperator(np.outer(vec, vec.conj()))


def partial_trace(rho: DensityOperator, dims: tuple[int, int], keep: int) -> DensityOperator:
    """Reduced density operator of one factor of a declared bipartition.

    Parameters
    ----------
    rho : DensityOperator
        Density operator on the composite space.
    dims : (d1, d2)
        Declared factor dimensions; their product must equal the composite
        dimension.
    keep : int
        0 keeps the first factor (traces out the second), 1 keeps the second.
    """
    d1, d2 = dims
    if d1 * d2 != rho.dim:
        raise ValueError(f"declared factorization {d1}x{d2} does not match dim {rho.dim}")
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep}")
    blocks = rho.matrix.reshape(d1, d2, d1, d2)
    return DensityOperator(np.einsum("ajbj->ab" if keep == 0 else "jajb->ab", blocks))


def trace_probability(basis: np.ndarray, rho: DensityOperator) -> float:
    """The trace-rule probability ``tr(Q rho) = tr(B^H rho B)`` of the
    projector ``Q = B B^H`` of an orthonormal basis ``B``, such as ``B_n``.

    This is the oracle every derivation step in the package is audited
    against.  The trace must be real within ``rho.tol``, the tolerance ``rho``
    was validated at (an imaginary part beyond that signals malformed inputs);
    excursions outside [0, 1] within it are clamped.
    """
    if len(basis) != rho.dim:
        raise ValueError(f"dimension mismatch in trace_probability: {len(basis)} vs {rho.dim}")
    value = complex(np.vdot(basis, rho.matrix @ basis))
    if abs(value.imag) > rho.tol:
        raise ValueError(
            f"trace has imaginary part {value.imag:.3e} beyond tolerance {rho.tol:.1e}"
        )
    p = value.real
    if p < -rho.tol or p > 1.0 + rho.tol:
        raise ValueError(f"trace value {p!r} lies outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def complete_observable(
    basis: Sequence[StateVector],
    eigenvalues: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
) -> Observable:
    """Nondegenerate observable with one-column eigenspace bases ``basis``.

    Eigenvalues default to 0, 1, 2, ...; they are labels for outcomes.
    """
    if eigenvalues is None:
        eigenvalues = list(range(len(basis)))
    return Observable(eigenvalues, [b.amplitudes[:, None] for b in basis], tol)


def orthonormalize(vectors: Iterable[np.ndarray]) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass; the basis is
    returned as the columns of a ``dim x count`` matrix.

    Raises ValueError when the input set is empty, mixes lengths or is
    linearly dependent (residual norm below ``DEPENDENCE_TOL`` relative to the
    input norm).
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        w = _as_vector(v, len(basis[0]) if basis else None).copy()
        scale = np.linalg.norm(w)
        for _ in range(2):
            for b in basis:
                w -= b * (b.conj() @ w)
        norm = np.linalg.norm(w)
        if scale == 0.0 or norm < DEPENDENCE_TOL * scale:
            raise ValueError("input vectors are linearly dependent")
        basis.append(w / norm)
    if not basis:
        raise ValueError("span requires at least one vector")
    return np.column_stack(basis)
