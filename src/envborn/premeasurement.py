"""Synthesis and verification of nondemolition premeasurement couplings.

A model couples a measured observable ``A = sum_n a_n P^n`` on the system to a
pointer observable ``B = sum_n b_n Q^n`` on the apparatus through a composite
unitary ``U``.  The constructed coupling has the block form
``sum_n P^n (x) V_n`` where each ``V_n`` is an apparatus unitary taking the
ready state to pointer state n.  By inspection this satisfies the calibration
condition (a certain measured event makes the matching pointer event certain)
and nondemolition (branches stay in their eigenspace); the verify_* functions
check both numerically rather than trusting the construction.

A model holds its coupling in one of two forms.  ``build_premeasurement``
stores the blocks: one ``V_n`` per outcome, with ``P^n`` taken from the
measured observable; the ``(d1*d2)^2`` matrix is never formed.  A
user-supplied coupling (a negative control, a branch-entangling unitary) is a
dense composite ``Operator``.  Either way the model checks the same
unitarity residual ``||U^H U - I||_F`` against its tolerance at construction.
For blocks it is computed from the factor Grams, since
``U^H U = sum_{n,m} (P^n^H P^m) (x) (V_n^H V_m)``.

Construction also restricts the coupling to the ready state once, giving the
ready map ``W = U (. (x) ready)`` (``d1*d2 x d1``); ``evolve`` and
calibration read only ``W``; ``evolve`` reshapes ``W @ phi`` into the
``d1 x d2`` coefficient matrix ``Psi``, and each branch is such a matrix.
Every other step acts on one factor as a one-sided product on ``Psi``:
``(I (x) Q) psi`` is ``Psi @ Q.T`` and ``(P (x) I) psi`` is ``P @ Psi``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    HilbertSpace,
    Observable,
    Operator,
    Projector,
    StateVector,
    pure_density,
    trace_probability,
)
from .rng import random_unit_vector
from .schmidt import ZERO_BRANCH_THRESHOLD, BipartiteState, gram_residual

__all__ = [
    "PointerApparatus",
    "PremeasurementModel",
    "Branch",
    "BranchSet",
    "householder_map",
    "build_premeasurement",
    "evolve",
    "branches",
    "verify_calibration",
    "verify_nondemolition",
    "branch_norm_law",
    "CalibrationReport",
    "NondemolitionReport",
    "NormLawReport",
    "eigenspace_basis",
]


@dataclass(frozen=True)
class PointerApparatus:
    """Apparatus side of a premeasurement: ready state, pointer observable,
    and one designated pointer state inside each pointer eigenspace.

    Pointer projectors may have rank > 1; only the designated pointer state is
    used by the construction.  The ready state need not be orthogonal to the
    pointer states.  The number of outcomes is finite and at most the
    apparatus dimension (enforced through the observable's completeness).
    """

    space: HilbertSpace
    ready_state: StateVector
    pointer_observable: Observable
    pointer_states: tuple[StateVector, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        states = tuple(self.pointer_states)
        if self.ready_state.space.dim != self.space.dim:
            raise ValueError("ready state does not live on the apparatus space")
        if self.pointer_observable.space.dim != self.space.dim:
            raise ValueError("pointer observable does not live on the apparatus space")
        if len(states) != self.pointer_observable.outcome_count:
            raise ValueError(
                f"{len(states)} pointer states for "
                f"{self.pointer_observable.outcome_count} pointer outcomes"
            )
        if len(states) > self.space.dim:
            raise ValueError("more pointer outcomes than apparatus dimensions")
        if gram_residual(states) > self.tol:
            raise ValueError("pointer states are not orthonormal within tolerance")
        for n, (q, chi) in enumerate(zip(self.pointer_observable.projectors, states)):
            residual = np.linalg.norm(q.matrix @ chi.amplitudes - chi.amplitudes)
            if residual > self.tol:
                raise ValueError(
                    f"pointer state {n} is not in the range of its projector "
                    f"(residual {residual:.3e})"
                )
        object.__setattr__(self, "pointer_states", states)

    @property
    def outcome_count(self) -> int:
        return len(self.pointer_states)


@dataclass(frozen=True)
class PremeasurementModel:
    """Measured observable, apparatus, and the coupling unitary ``U``.

    ``coupling`` is either a tuple of apparatus operators ``V_n``, one per
    outcome, standing for ``U = sum_n P^n (x) V_n`` with the measured
    projectors ``P^n``, or a dense composite ``Operator`` for any other
    unitary.  Construction enforces type invariants only: matching outcome
    counts and ``||U^H U - I||_F <= tol``, the same quantity for both
    forms.  Whether the unitary actually calibrates is the job of
    verify_calibration, so adversarial couplings can be represented and
    flagged.  ``ready_map`` is ``W = U (. (x) ready)``, so that
    ``U (phi (x) ready) = W @ phi``.
    """

    measured: Observable
    apparatus: PointerApparatus
    coupling: Operator | tuple[Operator, ...]
    tol: float = DEFAULT_TOL
    ready_map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d1, d2 = self.d1, self.d2
        if isinstance(self.coupling, Operator) and self.coupling.space.dim != d1 * d2:
            raise ValueError(
                f"composite unitary dim {self.coupling.space.dim}, expected {d1 * d2}"
            )
        if self.measured.outcome_count != self.apparatus.outcome_count:
            raise ValueError(
                "measured and pointer outcome counts differ "
                f"({self.measured.outcome_count} vs {self.apparatus.outcome_count}); "
                "outcomes must pair one to one"
            )
        ready = self.apparatus.ready_state.amplitudes
        if isinstance(self.coupling, Operator):
            residual = self.coupling.unitary_residual()
            ready_map = self.coupling.matrix.reshape(d1 * d2, d1, d2) @ ready
        else:
            blocks = tuple(self.coupling)
            if len(blocks) != self.outcome_count or any(v.space.dim != d2 for v in blocks):
                raise ValueError(
                    f"a block coupling needs {self.outcome_count} apparatus operators "
                    f"of dim {d2}"
                )
            p = np.array([q.matrix for q in self.measured.projectors])
            v = np.array([b.matrix for b in blocks])
            residual = _block_unitarity_residual(p, v)
            # W[(i, a), j] = sum_n P^n[i, j] (V_n ready)[a]
            ready_map = (p.reshape(len(p), d1 * d1).T @ (v @ ready)).reshape(d1, d1, d2)
            ready_map = ready_map.transpose(0, 2, 1).reshape(d1 * d2, d1)
            object.__setattr__(self, "coupling", blocks)
        if residual > self.tol:
            raise ValueError(
                f"composite coupling is not unitary within tolerance: residual {residual:.3e}"
            )
        ready_map.setflags(write=False)
        object.__setattr__(self, "ready_map", ready_map)

    @property
    def d1(self) -> int:
        return self.measured.space.dim

    @property
    def d2(self) -> int:
        return self.apparatus.space.dim

    @property
    def outcome_count(self) -> int:
        return self.measured.outcome_count

    @property
    def composite_space(self) -> HilbertSpace:
        return HilbertSpace(self.d1 * self.d2, "system*pointer")


def _block_grams(blocks: np.ndarray) -> np.ndarray:
    """Row ``(n, m)`` is ``vec(blocks[n]^H @ blocks[m])``, taken from one
    product of the blocks concatenated side by side."""
    count, d, _ = blocks.shape
    side_by_side = blocks.transpose(1, 0, 2).reshape(d, count * d)
    gram = side_by_side.conj().T @ side_by_side
    return gram.reshape(count, d, count, d).transpose(0, 2, 1, 3).reshape(count * count, d * d)


def _block_unitarity_residual(p: np.ndarray, v: np.ndarray) -> float:
    """``||U^H U - I||_F`` of ``U = sum_n p[n] (x) v[n]`` without forming ``U``.

    Entry ``[(i, j), (a, b)]`` of the product below is ``<i, a| U^H U |j, b>``;
    the Frobenius norm does not depend on that entry order.
    """
    d1, d2 = p.shape[1], v.shape[1]
    residual = _block_grams(p).T @ _block_grams(v)
    # the identity is 1 where i == j and a == b
    residual[:: d1 + 1, :: d2 + 1] -= 1.0
    return float(np.linalg.norm(residual))


@dataclass(frozen=True)
class Branch:
    """One unnormalized pointer-projected term ``Psi @ Q^n.T`` (``d1 x d2``)."""

    outcome: int
    matrix: np.ndarray
    weight: float

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def normalized(self) -> np.ndarray:
        return self.matrix / np.sqrt(self.weight)


@dataclass(frozen=True)
class BranchSet:
    """Nonzero branches plus the outcome indices whose terms vanished."""

    branches: tuple[Branch, ...]
    omitted: tuple[int, ...]

    def __post_init__(self):
        for b in self.branches:
            if abs(b.weight - np.linalg.norm(b.matrix) ** 2) > 1e-12:
                raise ValueError(f"branch {b.outcome} weight does not match its norm")
        total = sum(b.weight for b in self.branches)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"branch weights sum to {total!r}, expected 1")
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "omitted", tuple(self.omitted))

    @property
    def weights(self) -> dict[int, float]:
        return {b.outcome: b.weight for b in self.branches}


def householder_map(origin: StateVector, target: StateVector) -> Operator:
    """Deterministic unitary sending ``origin`` exactly to ``target``.

    A Householder reflection takes origin to target up to phase; a diagonal
    phase rotation on the target direction then pins the image to ``target``
    with coefficient +1.  Equal states map to the identity.
    """
    if origin.space.dim != target.space.dim:
        raise ValueError("origin and target must share a dimension")
    d = origin.space.dim
    x = origin.amplitudes
    y = target.amplitudes
    overlap = complex(y.conj() @ x)
    alpha = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    w = x - alpha * y
    norm_w_sq = float((w.conj() @ w).real)
    phase_fix = np.eye(d, dtype=complex) + (np.conj(alpha) - 1.0) * np.outer(y, y.conj())
    if norm_w_sq < 1e-24:
        # origin is (numerically) a phase multiple of target: rotate that ray.
        return Operator(origin.space, phase_fix)
    # dividing by <w, w> instead of normalizing w keeps basis-to-basis maps
    # exact permutation matrices
    reflection = np.eye(d, dtype=complex) - (2.0 / norm_w_sq) * np.outer(w, w.conj())
    return Operator(origin.space, phase_fix @ reflection)


def build_premeasurement(
    measured: Observable, apparatus: PointerApparatus, tol: float = DEFAULT_TOL
) -> PremeasurementModel:
    """Construct the block coupling ``sum_n P^n (x) V_n`` with
    ``V_n ready = pointer_n``.

    The result is unitary because the system projectors are orthogonal and
    complete and each block is unitary; it satisfies calibration and
    nondemolition by construction.  Complete (nondegenerate) observables are
    the special case of all rank-1 system projectors.
    """
    blocks = tuple(householder_map(apparatus.ready_state, chi) for chi in apparatus.pointer_states)
    return PremeasurementModel(measured, apparatus, blocks, tol)


def evolve(model: PremeasurementModel, phi: StateVector) -> BipartiteState:
    """Couple ``phi`` to the ready apparatus: ``U (phi (x) ready)``,
    normalized, as the coefficient matrix ``W @ phi`` reshaped to ``d1 x d2``."""
    if phi.space.dim != model.d1:
        raise ValueError(f"input state dim {phi.space.dim}, expected {model.d1}")
    out = model.ready_map @ phi.amplitudes
    return BipartiteState((out / np.linalg.norm(out)).reshape(model.d1, model.d2))


def branches(model: PremeasurementModel, psi12: BipartiteState) -> BranchSet:
    """Pointer-projected terms ``(I (x) Q^n) psi = Psi @ Q^n.T`` with
    squared-norm weights.

    Terms with squared norm below ``ZERO_BRANCH_THRESHOLD`` are recorded as
    omitted outcomes instead of branches.
    """
    if psi12.dims != (model.d1, model.d2):
        raise ValueError(f"state dims {psi12.dims} do not match model")
    psi = psi12.matrix
    kept = []
    omitted = []
    for n, q in enumerate(model.apparatus.pointer_observable.projectors):
        term = psi @ q.matrix.T
        weight = float(np.linalg.norm(term) ** 2)
        if weight < ZERO_BRANCH_THRESHOLD:
            omitted.append(n)
        else:
            kept.append(Branch(outcome=n, matrix=term, weight=weight))
    return BranchSet(branches=tuple(kept), omitted=tuple(omitted))


def eigenspace_basis(projector: Projector, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the range of a projector (eigenvectors with
    eigenvalue near 1)."""
    values, vectors = np.linalg.eigh(projector.matrix)
    return [vectors[:, i] for i in range(len(values)) if values[i] > 0.5]


class _ResidualAudit:
    """Passes when ``max_residual`` is within ``tolerance``."""

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class CalibrationReport(_ResidualAudit):
    """Max post-coupling residual ``||(I (x) Q^n) Psi - Psi||`` per outcome,
    over eigenspace basis vectors and random eigenspace samples."""

    residuals: tuple[float, ...]
    tolerance: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def verify_calibration(
    model: PremeasurementModel,
    tol: float = DEFAULT_TOL,
    trials: int = 20,
    seed: int = 0,
) -> CalibrationReport:
    """Check the calibration condition outcome by outcome.

    For each outcome n, every eigenspace basis vector of P^n plus ``trials``
    random unit vectors in that eigenspace (inputs certain for outcome n) is
    coupled to the apparatus; the output must be fixed by I (x) Q^n.  The
    samples of one outcome are coupled together as the columns of one matrix.
    """
    rng = np.random.default_rng(seed)
    d1, d2 = model.d1, model.d2
    residuals = []
    for p, q in zip(model.measured.projectors, model.apparatus.pointer_observable.projectors):
        basis = np.column_stack(eigenspace_basis(p))
        coeffs = [random_unit_vector(basis.shape[1], rng) for _ in range(trials)]
        inputs = np.column_stack([basis] + [basis @ c for c in coeffs])
        inputs = inputs / np.linalg.norm(inputs, axis=0)
        out = model.ready_map @ inputs
        out = (out / np.linalg.norm(out, axis=0)).T.reshape(-1, d1, d2)
        residuals.append(float(np.linalg.norm(out @ q.matrix.T - out, axis=(1, 2)).max()))
    return CalibrationReport(residuals=tuple(residuals), tolerance=tol)


@dataclass(frozen=True)
class NondemolitionReport(_ResidualAudit):
    """Residual ``||(P^k (x) I) branch_k - branch_k||`` per nonzero branch."""

    residuals: dict[int, float]
    tolerance: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


def verify_nondemolition(
    model: PremeasurementModel, bset: BranchSet, tol: float = DEFAULT_TOL
) -> NondemolitionReport:
    """Each nonzero branch ``B_k`` must be fixed by its own system
    eigenprojector, ``P^k @ B_k = B_k`` (it is then a joint eigenvector of
    P^k (x) I and I (x) Q^k)."""
    residuals = {}
    for b in bset.branches:
        p = model.measured.projectors[b.outcome].matrix
        residuals[b.outcome] = float(np.linalg.norm(p @ b.matrix - b.matrix))
    return NondemolitionReport(residuals=residuals, tolerance=tol)


@dataclass(frozen=True)
class NormLawReport(_ResidualAudit):
    """Branch weights against the trace-rule values <phi|P^k|phi>."""

    deviations: dict[int, float]
    omitted_oracle: dict[int, float]
    tolerance: float

    @property
    def max_residual(self) -> float:
        entries = list(self.deviations.values()) + list(self.omitted_oracle.values())
        return max(entries) if entries else 0.0


def branch_norm_law(
    model: PremeasurementModel, phi: StateVector, bset: BranchSet, tol: float = DEFAULT_TOL
) -> NormLawReport:
    """Unitarity preserves each term's norm, so the weights of the branches
    ``bset`` of ``phi`` must equal the eigenspace probabilities of the input;
    omitted branches must correspond to vanishing eigenspace probability."""
    rho = pure_density(phi)
    deviations = {}
    for b in bset.branches:
        oracle = trace_probability(model.measured.projectors[b.outcome], rho)
        deviations[b.outcome] = abs(b.weight - oracle)
    omitted_oracle = {
        n: trace_probability(model.measured.projectors[n], rho) for n in bset.omitted
    }
    return NormLawReport(deviations=deviations, omitted_oracle=omitted_oracle, tolerance=tol)
