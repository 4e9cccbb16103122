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
stores the blocks: one ``V_n`` per outcome, with the dense ``P^n`` formed
only for the block Gram stack and the ready map; the ``(d1*d2)^2`` matrix is
never formed.  A user-supplied coupling (a negative control, a
branch-entangling unitary) is a dense composite ``Operator``.  Either way the
model checks the same unitarity residual ``||U^H U - I||_F`` against its
tolerance at construction.  For blocks it is computed from the factor Grams,
since ``U^H U = sum_{n,m} (P^n^H P^m) (x) (V_n^H V_m)``.

Construction also restricts the coupling to the ready state once, giving the
ready map ``W = U (. (x) ready)`` (``d1*d2 x d1``); ``evolve`` and
calibration read only ``W``; ``evolve`` reshapes ``W @ phi`` into the
``d1 x d2`` coefficient matrix ``Psi``, and each branch is such a matrix.
Every other step acts on one factor as a one-sided product on ``Psi``, with
each eigenprojector applied through its eigenspace basis: ``(I (x) Q) psi`` is
``Psi @ Q.T = (Psi @ B.conj()) @ B.T`` for ``Q = B B^H`` and ``(P (x) I) psi``
is ``B (B^H Psi)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    NORM_TOL,
    Audit,
    Observable,
    Operator,
    StateVector,
    _freeze,
    gram_residual,
    span_residual,
)
from .rng import random_unit_vector
from .schmidt import ZERO_BRANCH_THRESHOLD, BipartiteState

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
]


@dataclass(frozen=True, eq=False)
class PointerApparatus:
    """Apparatus side of a premeasurement: ready state, pointer observable,
    and one designated pointer state inside each pointer eigenspace, as
    column ``n`` of the ``dim x N`` matrix ``pointer_states``.

    Pointer eigenspaces may have rank > 1; only the designated pointer state
    is used by the construction.  The ready state need not be orthogonal to
    the pointer states.  The number of outcomes is finite and at most the
    apparatus dimension (enforced through the observable's completeness).
    """

    ready_state: StateVector
    pointer_observable: Observable
    pointer_states: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        states = _freeze(self.pointer_states)
        obs = self.pointer_observable
        if self.ready_state.dim != obs.dim:
            raise ValueError(
                f"ready state dim {self.ready_state.dim} does not match "
                f"pointer observable dim {obs.dim}"
            )
        if states.shape != (obs.dim, obs.outcome_count):
            raise ValueError(
                f"pointer states of shape {states.shape} for {obs.outcome_count} "
                f"pointer outcomes in dim {obs.dim}"
            )
        if not np.all(abs(np.linalg.norm(states, axis=0) - 1.0) <= NORM_TOL):
            raise ValueError("pointer states are not normalized")
        if not gram_residual(states) <= self.tol:  # also rejects NaN
            raise ValueError("pointer states are not orthonormal within tolerance")
        for n, chi in enumerate(states.T):
            residual = span_residual(obs.basis(n), chi)
            if residual > self.tol:
                raise ValueError(
                    f"pointer state {n} is not in the range of its projector "
                    f"(residual {residual:.3e})"
                )
        object.__setattr__(self, "pointer_states", states)

    @property
    def dim(self) -> int:
        return self.ready_state.dim

    @property
    def outcome_count(self) -> int:
        return self.pointer_states.shape[1]


@dataclass(frozen=True, eq=False)
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
    ready_map: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d1, d2 = self.d1, self.d2
        if isinstance(self.coupling, Operator) and self.coupling.dim != d1 * d2:
            raise ValueError(f"composite unitary dim {self.coupling.dim}, expected {d1 * d2}")
        if self.measured.outcome_count != self.apparatus.outcome_count:
            raise ValueError(
                "measured and pointer outcome counts differ "
                f"({self.measured.outcome_count} vs {self.apparatus.outcome_count}); "
                "outcomes must pair one to one"
            )
        ready = self.apparatus.ready_state.amplitudes
        if isinstance(self.coupling, Operator):
            residual = gram_residual(self.coupling.matrix)
            ready_map = self.coupling.matrix.reshape(d1 * d2, d1, d2) @ ready
        else:
            blocks = tuple(self.coupling)
            if len(blocks) != self.outcome_count or any(v.dim != d2 for v in blocks):
                raise ValueError(
                    f"a block coupling needs {self.outcome_count} apparatus operators "
                    f"of dim {d2}"
                )
            bases = map(self.measured.basis, range(self.outcome_count))
            p = np.array([b @ b.conj().T for b in bases])
            v = np.array([b.matrix for b in blocks])
            residual = _block_unitarity_residual(p, v)
            # W[(i, a), j] = sum_n P^n[i, j] (V_n ready)[a]
            ready_map = (p.reshape(len(p), d1 * d1).T @ (v @ ready)).reshape(d1, d1, d2)
            ready_map = ready_map.transpose(0, 2, 1).reshape(d1 * d2, d1)
            object.__setattr__(self, "coupling", blocks)
        if not residual <= self.tol:  # also rejects NaN
            raise ValueError(
                f"composite coupling is not unitary within tolerance: residual {residual:.3e}"
            )
        ready_map.setflags(write=False)
        object.__setattr__(self, "ready_map", ready_map)

    @property
    def d1(self) -> int:
        return self.measured.dim

    @property
    def d2(self) -> int:
        return self.apparatus.dim

    @property
    def outcome_count(self) -> int:
        return self.measured.outcome_count


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


@dataclass(frozen=True, eq=False)
class Branch:
    """One unnormalized pointer-projected term ``Psi @ Q^n.T`` (``d1 x d2``)."""

    outcome: int
    matrix: np.ndarray
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    def normalized(self) -> np.ndarray:
        return self.matrix / np.sqrt(self.weight)


@dataclass(frozen=True, eq=False)
class BranchSet:
    """Nonzero branches plus the outcome indices whose terms vanished."""

    branches: tuple[Branch, ...]
    omitted: tuple[int, ...]

    def __post_init__(self):
        for b in self.branches:
            if abs(b.weight - np.linalg.norm(b.matrix) ** 2) > 1e-12:
                raise ValueError(f"branch {b.outcome} weight does not match its norm")
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
    if origin.dim != target.dim:
        raise ValueError("origin and target must share a dimension")
    d = origin.dim
    x = origin.amplitudes
    y = target.amplitudes
    overlap = complex(y.conj() @ x)
    alpha = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    w = x - alpha * y
    norm_w_sq = float((w.conj() @ w).real)
    phase_fix = np.eye(d, dtype=complex) + (np.conj(alpha) - 1.0) * np.outer(y, y.conj())
    if norm_w_sq < 1e-24:
        # origin is (numerically) a phase multiple of target: rotate that ray.
        return Operator(phase_fix)
    # dividing by <w, w> instead of normalizing w keeps basis-to-basis maps
    # exact permutation matrices
    reflection = np.eye(d, dtype=complex) - (2.0 / norm_w_sq) * np.outer(w, w.conj())
    return Operator(phase_fix @ reflection)


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
    ready = apparatus.ready_state
    blocks = tuple(householder_map(ready, StateVector(chi)) for chi in apparatus.pointer_states.T)
    return PremeasurementModel(measured, apparatus, blocks, tol)


def evolve(model: PremeasurementModel, phi: StateVector) -> BipartiteState:
    """Couple ``phi`` to the ready apparatus: ``U (phi (x) ready)``,
    normalized, as the coefficient matrix ``W @ phi`` reshaped to ``d1 x d2``."""
    if phi.dim != model.d1:
        raise ValueError(f"input state dim {phi.dim}, expected {model.d1}")
    out = model.ready_map @ phi.amplitudes
    return BipartiteState((out / np.linalg.norm(out)).reshape(model.d1, model.d2))


def branches(model: PremeasurementModel, psi12: BipartiteState) -> BranchSet:
    """Pointer-projected terms ``(I (x) Q^n) psi = Psi @ Q^n.T``, taken as
    ``(Psi @ B.conj()) @ B.T`` for ``Q^n = B B^H``, with squared-norm weights.

    Terms with squared norm below ``ZERO_BRANCH_THRESHOLD`` are recorded as
    omitted outcomes instead of branches.  The weights must sum to 1 within
    ``model.tol`` (at least ``DEFAULT_TOL``), the pointer's admission tolerance.
    """
    if psi12.dims != (model.d1, model.d2):
        raise ValueError(f"state dims {psi12.dims} do not match model")
    psi = psi12.matrix
    pointer = model.apparatus.pointer_observable
    kept = []
    omitted = []
    for n in range(pointer.outcome_count):
        b = pointer.basis(n)
        term = (psi @ b.conj()) @ b.T
        weight = float(np.linalg.norm(term) ** 2)
        if weight < ZERO_BRANCH_THRESHOLD:
            omitted.append(n)
        else:
            kept.append(Branch(outcome=n, matrix=term, weight=weight))
    total = sum(b.weight for b in kept)
    if abs(total - 1.0) > max(model.tol, DEFAULT_TOL):
        raise ValueError(f"branch weights sum to {total!r}, expected 1")
    return BranchSet(branches=tuple(kept), omitted=tuple(omitted))


def verify_calibration(
    model: PremeasurementModel,
    tol: float = DEFAULT_TOL,
    trials: int = 20,
    seed: int = 0,
) -> Audit:
    """Check the calibration condition outcome by outcome.

    For each outcome n, every column of the eigenspace basis ``B_n`` plus
    ``trials`` random unit vectors ``B_n @ c`` (inputs certain for outcome n) is
    coupled to the apparatus; the output must be fixed by I (x) Q^n.  The
    samples of one outcome are coupled together as the columns of one matrix.
    The residual of outcome n is the largest ``||(I (x) Q^n) Psi - Psi||``
    over its samples.
    """
    rng = np.random.default_rng(seed)
    d1, d2 = model.d1, model.d2
    residuals = {}
    pointer = model.apparatus.pointer_observable
    for n in range(model.outcome_count):
        basis = model.measured.basis(n)
        coeffs = [random_unit_vector(basis.shape[1], rng) for _ in range(trials)]
        inputs = np.column_stack([basis] + [basis @ c for c in coeffs])
        inputs = inputs / np.linalg.norm(inputs, axis=0)
        out = model.ready_map @ inputs
        out = (out / np.linalg.norm(out, axis=0)).T.reshape(-1, d1, d2)
        b = pointer.basis(n)
        residuals[n] = float(np.linalg.norm((out @ b.conj()) @ b.T - out, axis=(1, 2)).max())
    return Audit(residuals, tol)


def verify_nondemolition(
    model: PremeasurementModel, bset: BranchSet, tol: float = DEFAULT_TOL
) -> Audit:
    """Each nonzero branch ``Psi_k`` must be fixed by its own system
    eigenprojector, ``P^k @ Psi_k = Psi_k`` (it is then a joint eigenvector of
    P^k (x) I and I (x) Q^k); the residual of branch k is
    ``||P^k @ Psi_k - Psi_k||``, the ``span_residual`` of the system basis."""
    residuals = {
        b.outcome: span_residual(model.measured.basis(b.outcome), b.matrix)
        for b in bset.branches
    }
    return Audit(residuals, tol)


def branch_norm_law(
    bset: BranchSet, oracle: Sequence[float], tol: float = DEFAULT_TOL
) -> Audit:
    """Unitarity preserves each term's norm, so the weights of the branches
    ``bset`` of an input ``phi`` must equal its eigenspace probabilities
    ``oracle[n] = <phi|P^n|phi>``; omitted branches must correspond to
    vanishing eigenspace probability.

    The residual of a kept branch k is ``|weight_k - oracle[k]|``, and of an
    omitted outcome n its trace-rule value ``oracle[n]``.
    """
    residuals = {b.outcome: abs(b.weight - oracle[b.outcome]) for b in bset.branches}
    residuals.update((n, oracle[n]) for n in bset.omitted)
    return Audit(residuals, tol)
