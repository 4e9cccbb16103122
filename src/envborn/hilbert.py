"""Dense finite-dimensional Hilbert-space arithmetic.

States, operators, projectors, observables and density operators are immutable
wrappers around complex numpy arrays.  Every operation is pure; values are safe
to share across threads.

Two absolute tolerances are used throughout the package: ``DEFAULT_TOL`` for
operator-identity checks (idempotence, completeness, unitarity) and the
tighter ``NORM_TOL`` for vector-norm and trace checks.  Both can be overridden
per call.  Matrix norms are Frobenius, vector norms Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "NORM_TOL",
    "HilbertSpace",
    "StateVector",
    "Operator",
    "Projector",
    "Observable",
    "DensityOperator",
    "make_state",
    "basis_state",
    "tensor",
    "identity",
    "pure_density",
    "partial_trace",
    "trace_probability",
    "spectral_observable",
    "complete_observable",
    "projector_from_span",
    "orthonormalize",
]

DEFAULT_TOL = 1e-10  # operator-identity checks (double-precision SVD/eig noise margin)
NORM_TOL = 1e-12     # vector-norm and trace checks


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_vector(values, dim: int | None = None) -> np.ndarray:
    vec = np.asarray(values, dtype=complex).reshape(-1)
    if dim is not None and vec.shape != (dim,):
        raise ValueError(f"expected a vector of length {dim}, got {vec.shape}")
    return vec


@dataclass(frozen=True)
class HilbertSpace:
    """A finite-dimensional complex vector space with a cosmetic label.

    Compatibility between values is decided by dimension alone; the label
    exists for readable reports and error messages.
    """

    dim: int
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")


def _check_dim(space: HilbertSpace, other: HilbertSpace, what: str) -> None:
    if space.dim != other.dim:
        raise ValueError(
            f"dimension mismatch in {what}: {space.dim} vs {other.dim}"
        )


@dataclass(frozen=True)
class StateVector:
    """A unit vector of complex amplitudes over a HilbertSpace."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        vec = _as_vector(self.amplitudes, self.space.dim)
        if not abs(np.linalg.norm(vec) - 1.0) <= NORM_TOL:  # also rejects NaN
            raise ValueError(
                f"state vector is not normalized: |norm - 1| = "
                f"{abs(np.linalg.norm(vec) - 1.0):.3e}"
            )
        object.__setattr__(self, "amplitudes", _freeze(vec))

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass(frozen=True)
class Operator:
    """A general linear map as a dense dim x dim complex matrix."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got {mat.shape}")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.space.dim

    def unitary_residual(self) -> float:
        """Frobenius residual ``||M^H M - I||``."""
        d = self.space.dim
        return float(np.linalg.norm(self.matrix.conj().T @ self.matrix - np.eye(d)))

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        return self.unitary_residual() <= tol


@dataclass(frozen=True)
class Projector:
    """An orthogonal projector: Hermitian and idempotent within tolerance."""

    base: Operator
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        mat = self.base.matrix
        herm = np.linalg.norm(mat - mat.conj().T)
        if herm > self.tol:
            raise ValueError(f"projector is not Hermitian: residual {herm:.3e}")
        idem = np.linalg.norm(mat @ mat - mat)
        if idem > self.tol:
            raise ValueError(f"projector is not idempotent: residual {idem:.3e}")

    @property
    def space(self) -> HilbertSpace:
        return self.base.space

    @property
    def matrix(self) -> np.ndarray:
        return self.base.matrix

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.matrix).real))


def check_orthogonal(projectors: Sequence[Projector], tol: float) -> None:
    """Raise ValueError naming the first pair ``i < j`` of ``projectors`` with
    ``||P_i P_j|| > tol``."""
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            cross = np.linalg.norm(projectors[i].matrix @ projectors[j].matrix)
            if cross > tol:
                raise ValueError(f"projectors {i} and {j} are not orthogonal: residual {cross:.3e}")


@dataclass(frozen=True)
class Observable:
    """Spectral form: distinct real eigenvalues with an orthogonal, complete
    projector family (eigenvalues may be arbitrarily degenerate)."""

    space: HilbertSpace
    eigenvalues: tuple[float, ...]
    projectors: tuple[Projector, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        values = tuple(float(v) for v in self.eigenvalues)
        projs = tuple(self.projectors)
        if len(values) != len(projs):
            raise ValueError("one projector per eigenvalue is required")
        if len(set(values)) != len(values):
            raise ValueError(f"eigenvalues are not pairwise distinct: {values}")
        for p in projs:
            _check_dim(p.space, self.space, "observable projector")
            if p.rank < 1:
                raise ValueError("eigenprojectors must have rank >= 1")
        check_orthogonal(projs, self.tol)
        total = sum(p.matrix for p in projs)
        completeness = np.linalg.norm(total - np.eye(self.space.dim))
        if completeness > self.tol:
            raise ValueError(
                f"projectors do not resolve the identity: residual {completeness:.3e}"
            )
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "projectors", projs)

    @property
    def outcome_count(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class DensityOperator:
    """A Hermitian, unit-trace, positive-semidefinite operator."""

    space: HilbertSpace
    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got {mat.shape}")
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
        object.__setattr__(self, "matrix", _freeze(mat))


def make_state(space: HilbertSpace, amplitudes) -> StateVector:
    """Normalize ``amplitudes`` and wrap them as a StateVector on ``space``.

    Raises ValueError on length mismatch, a non-finite amplitude or a
    (numerically) zero vector.
    """
    vec = _as_vector(amplitudes, space.dim)
    if not np.all(np.isfinite(vec)):
        raise ValueError("amplitudes must be finite")
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    return StateVector(space, vec / norm)


def basis_state(space: HilbertSpace, index: int) -> StateVector:
    """The computational basis vector e_index."""
    if not 0 <= index < space.dim:
        raise ValueError(f"basis index {index} out of range for dim {space.dim}")
    vec = np.zeros(space.dim, dtype=complex)
    vec[index] = 1.0
    return StateVector(space, vec)


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Tensor product of two states; the first factor is the slow index.

    The amplitude at composite index (i, j) is ``u[i] * v[j]`` with flat index
    ``i * dim(v) + j``, matching ``np.kron``.
    """
    label = f"{u.space.label}*{v.space.label}" if u.space.label or v.space.label else ""
    space = HilbertSpace(u.dim * v.dim, label)
    return StateVector(space, np.kron(u.amplitudes, v.amplitudes))


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=complex))


def pure_density(state: StateVector) -> DensityOperator:
    """The rank-1 density operator |phi><phi|."""
    vec = state.amplitudes
    return DensityOperator(state.space, np.outer(vec, vec.conj()))


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
    if d1 * d2 != rho.space.dim:
        raise ValueError(
            f"declared factorization {d1}x{d2} does not match dim {rho.space.dim}"
        )
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep}")
    blocks = rho.matrix.reshape(d1, d2, d1, d2)
    if keep == 0:
        reduced = np.einsum("ajbj->ab", blocks)
        space = HilbertSpace(d1, rho.space.label and f"{rho.space.label}.0")
    else:
        reduced = np.einsum("jajb->ab", blocks)
        space = HilbertSpace(d2, rho.space.label and f"{rho.space.label}.1")
    return DensityOperator(space, reduced)


def trace_probability(P: Projector, rho: DensityOperator, tol: float = DEFAULT_TOL) -> float:
    """The trace-rule probability tr(P rho).

    This is the oracle every derivation step in the package is audited
    against.  The trace must be real within ``tol`` (an imaginary part beyond
    that signals malformed inputs); tiny excursions outside [0, 1] from
    floating-point projector algebra are clamped.
    """
    _check_dim(P.space, rho.space, "trace_probability")
    value = complex(np.trace(P.matrix @ rho.matrix))
    if abs(value.imag) > tol:
        raise ValueError(
            f"trace has imaginary part {value.imag:.3e} beyond tolerance {tol:.1e}"
        )
    p = value.real
    if p < -tol or p > 1.0 + tol:
        raise ValueError(f"trace value {p!r} lies outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def spectral_observable(
    eigenvalues: Sequence[float],
    projectors: Sequence[Projector],
    tol: float = DEFAULT_TOL,
) -> Observable:
    """Build an Observable from eigenvalues and eigenprojectors, verifying all
    invariants (distinctness, mutual orthogonality, completeness)."""
    if len(eigenvalues) != len(projectors):
        raise ValueError("eigenvalues and projectors must have the same length")
    if not projectors:
        raise ValueError("an observable needs at least one outcome")
    space = projectors[0].space
    return Observable(space, tuple(float(v) for v in eigenvalues), tuple(projectors), tol)


def complete_observable(
    basis: Sequence[StateVector],
    eigenvalues: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
) -> Observable:
    """Nondegenerate observable with rank-1 projectors onto ``basis``.

    Eigenvalues default to 0, 1, 2, ...; they are labels for outcomes.
    """
    if eigenvalues is None:
        eigenvalues = list(range(len(basis)))
    projectors = [projector_from_span([b], tol=tol) for b in basis]
    return spectral_observable(eigenvalues, projectors, tol=tol)


def orthonormalize(vectors: Iterable[np.ndarray], dependence_tol: float = 1e-10) -> list[np.ndarray]:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Raises ValueError when the input set is linearly dependent (residual norm
    below ``dependence_tol`` relative to the input norm).
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        w = np.asarray(v, dtype=complex).reshape(-1).copy()
        scale = np.linalg.norm(w)
        for _ in range(2):
            for b in basis:
                w -= b * (b.conj() @ w)
        norm = np.linalg.norm(w)
        if scale == 0.0 or norm < dependence_tol * scale:
            raise ValueError("input vectors are linearly dependent")
        basis.append(w / norm)
    return basis


def projector_from_span(
    vectors: Sequence[StateVector | np.ndarray],
    tol: float = DEFAULT_TOL,
) -> Projector:
    """Orthogonal projector onto the span of the given vectors."""
    if not vectors:
        raise ValueError("span requires at least one vector")
    first = vectors[0]
    space = first.space if isinstance(first, StateVector) else HilbertSpace(len(_as_vector(first)))
    raw = [
        v.amplitudes if isinstance(v, StateVector) else _as_vector(v, space.dim)
        for v in vectors
    ]
    basis = orthonormalize(raw)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for b in basis:
        mat += np.outer(b, b.conj())
    return Projector(Operator(space, mat), tol)
