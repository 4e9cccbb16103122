"""Synthesis and verification of nondemolition premeasurement couplings.

A model couples a measured observable ``A = sum_n a_n P^n`` on the system to a
pointer observable ``B = sum_n b_n Q^n`` on the apparatus through a composite
unitary.  The constructed unitary has the block form ``sum_n P^n (x) V_n``
where each ``V_n`` is an apparatus unitary taking the ready state to pointer
state n.  By inspection this satisfies the calibration condition (a certain
measured event makes the matching pointer event certain) and nondemolition
(branches stay in their eigenspace); the verify_* functions check both
numerically rather than trusting the construction.

Only the coupling is a dense composite matrix.  Every other step acts on one
factor as a one-sided product on the ``d1 x d2`` coefficient matrix ``Psi``:
``(I (x) Q) psi`` is ``Psi @ Q.T`` and ``(P (x) I) psi`` is ``P @ Psi``.
Calibration couples all samples of an outcome at once through the coupling
restricted to the ready state, ``W = U (. (x) ready)`` (``d1*d2 x d1``).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Measured observable, apparatus, and the composite coupling unitary.

    Construction only enforces type invariants (unitarity, matching outcome
    counts); whether the unitary actually calibrates is the job of
    verify_calibration, so adversarial couplings can be represented and
    flagged.
    """

    measured: Observable
    apparatus: PointerApparatus
    unitary: Operator
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        expected = self.measured.space.dim * self.apparatus.space.dim
        if self.unitary.space.dim != expected:
            raise ValueError(
                f"composite unitary dim {self.unitary.space.dim}, expected {expected}"
            )
        if self.measured.outcome_count != self.apparatus.outcome_count:
            raise ValueError(
                "measured and pointer outcome counts differ "
                f"({self.measured.outcome_count} vs {self.apparatus.outcome_count}); "
                "outcomes must pair one to one"
            )
        if not self.unitary.is_unitary(self.tol):
            raise ValueError("composite coupling is not unitary within tolerance")

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
        return self.unitary.space


@dataclass(frozen=True)
class Branch:
    """One unnormalized pointer-projected term of the post-coupling state."""

    outcome: int
    vector: np.ndarray
    weight: float

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex).reshape(-1)
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    def normalized(self) -> np.ndarray:
        return self.vector / np.sqrt(self.weight)


@dataclass(frozen=True)
class BranchSet:
    """Nonzero branches plus the outcome indices whose terms vanished."""

    branches: tuple[Branch, ...]
    omitted: tuple[int, ...]

    def __post_init__(self):
        for b in self.branches:
            if abs(b.weight - np.linalg.norm(b.vector) ** 2) > 1e-12:
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
    if measured.outcome_count != apparatus.outcome_count:
        raise ValueError(
            f"outcome counts differ: measured {measured.outcome_count}, "
            f"apparatus {apparatus.outcome_count}"
        )
    d1 = measured.space.dim
    d2 = apparatus.space.dim
    u = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for p, chi in zip(measured.projectors, apparatus.pointer_states):
        v = householder_map(apparatus.ready_state, chi)
        u += np.kron(p.matrix, v.matrix)
    composite = HilbertSpace(d1 * d2, "system*pointer")
    return PremeasurementModel(measured, apparatus, Operator(composite, u), tol)


def evolve(model: PremeasurementModel, phi: StateVector) -> BipartiteState:
    """Couple ``phi`` to the ready apparatus: U (phi (x) ready), normalized."""
    if phi.space.dim != model.d1:
        raise ValueError(f"input state dim {phi.space.dim}, expected {model.d1}")
    joint = np.kron(phi.amplitudes, model.apparatus.ready_state.amplitudes)
    out = model.unitary.matrix @ joint
    out = out / np.linalg.norm(out)
    return BipartiteState(StateVector(model.composite_space, out), (model.d1, model.d2))


def branches(model: PremeasurementModel, psi12: BipartiteState) -> BranchSet:
    """Pointer-projected terms ``(I (x) Q^n) psi = Psi @ Q^n.T`` with
    squared-norm weights.

    Terms with squared norm below ``ZERO_BRANCH_THRESHOLD`` are recorded as
    omitted outcomes instead of branches.
    """
    if psi12.dims != (model.d1, model.d2):
        raise ValueError(f"state dims {psi12.dims} do not match model")
    psi = psi12.coefficient_matrix()
    kept = []
    omitted = []
    for n, q in enumerate(model.apparatus.pointer_observable.projectors):
        term = (psi @ q.matrix.T).reshape(-1)
        weight = float(np.linalg.norm(term) ** 2)
        if weight < ZERO_BRANCH_THRESHOLD:
            omitted.append(n)
        else:
            kept.append(Branch(outcome=n, vector=term, weight=weight))
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
    # U (phi (x) ready) = coupled @ phi for every system input phi
    coupled = model.unitary.matrix.reshape(d1 * d2, d1, d2) @ model.apparatus.ready_state.amplitudes
    residuals = []
    for p, q in zip(model.measured.projectors, model.apparatus.pointer_observable.projectors):
        basis = np.column_stack(eigenspace_basis(p))
        coeffs = [random_unit_vector(basis.shape[1], rng) for _ in range(trials)]
        inputs = np.column_stack([basis] + [basis @ c for c in coeffs])
        inputs = inputs / np.linalg.norm(inputs, axis=0)
        out = coupled @ inputs
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
        term = b.vector.reshape(model.d1, model.d2)
        p = model.measured.projectors[b.outcome].matrix
        residuals[b.outcome] = float(np.linalg.norm(p @ term - term))
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
