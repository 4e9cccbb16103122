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
stores the blocks, one ``V_n`` per outcome, all formed as one ``N x d2 x d2``
stack; the ``(d1*d2)^2`` matrix is never formed.  A user-supplied coupling
(a negative control, a branch-entangling unitary) is a dense composite
``Operator``.  Either way the model accepts it when ``||U^H U - I||_F`` is
within its tolerance.  A block coupling is first certified by an upper bound
from the measured basis matrix; only one that the bound cannot certify pays
for the exact residual and the dense ``P^n``.

Construction also restricts the coupling to the ready state once, giving the
ready map ``W = U (. (x) ready)`` (``d1*d2 x d1``); ``evolve`` and
calibration read only ``W``; ``evolve`` reshapes ``W @ phi`` into the
``d1 x d2`` coefficient matrix ``Psi``; each branch is held as its core, a
column block of one product ``Psi @ M.conj()`` with the pointer's basis
matrix.  Every other step acts on one factor as a one-sided product on
``Psi``, with each eigenprojector applied through its eigenspace basis:
``(I (x) Q) psi`` is ``Psi @ Q.T = (Psi @ B.conj()) @ B.T`` for ``Q = B B^H``
and ``(P (x) I) psi`` is ``B (B^H Psi)``.

The per-outcome steps run once per rank group, the outcomes whose matrices
share their shapes: ``_per_group`` stacks each group's matrices for one call
of the step's kernel, for the pointer states' range check, calibration, the
branches' Schmidt forms and nondemolition (and for complement and additivity
in ``born``).  A kernel computes each matrix of its stack by the same
operations as a stack of one, so a residual or a form does not depend on the
group it was computed in.
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
from .schmidt import (
    ZERO_BRANCH_THRESHOLD,
    BipartiteState,
    SchmidtForm,
    schmidt_decompose_cores,
    term_cutoff,
)

__all__ = [
    "PointerApparatus",
    "PremeasurementModel",
    "Branch",
    "build_premeasurement",
    "evolve",
    "branches",
    "schmidt_forms",
    "verify_calibration",
    "verify_nondemolition",
    "branch_norm_law",
]


def _per_group(kernel, *items) -> list:
    """``kernel`` called once per group of entries whose arrays share their
    shapes, where entry ``i`` is ``item[i]`` of each sequence in ``items`` (a
    NumPy array or scalar): each call gets, per sequence, the stack of its
    group's arrays.  Returns the kernel's results, one per entry, in entry
    order; an array of results comes back as Python floats."""
    groups: dict = {}
    for i, shapes in enumerate(zip(*([a.shape for a in item] for item in items))):
        groups.setdefault(shapes, []).append(i)
    if len(groups) == 1:  # one group: each sequence is stacked whole, with no gathering
        found = kernel(*map(np.array, items))
        return found.tolist() if isinstance(found, np.ndarray) else list(found)
    results: dict = {}
    for group in groups.values():
        found = kernel(*(np.array([item[i] for i in group]) for item in items))
        results.update(zip(group, found.tolist() if isinstance(found, np.ndarray) else found))
    return [results[i] for i in range(len(items[0]))]


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
        residuals = np.array(_per_group(span_residual, obs.bases, states.T[:, :, None]))
        failing = np.flatnonzero(residuals > self.tol)
        if failing.size:
            n = int(failing[0])
            raise ValueError(
                f"pointer state {n} is not in the range of its projector "
                f"(residual {residuals[n]:.3e})"
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
    counts and ``||U^H U - I||_F <= tol`` (for blocks, a bound within tol
    suffices; only otherwise is the exact value formed, over dense ``P^n``).
    Whether the unitary actually calibrates is the job of verify_calibration,
    so adversarial couplings can be represented and flagged.  ``ready_map`` is
    ``W = U (. (x) ready)``, so that ``U (phi (x) ready) = W @ phi``.
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
            s, v = self.measured.matrix, np.array([b.matrix for b in blocks])
            residual = _block_unitarity_bound(s, self.measured.ranks, v)
            if not residual <= self.tol:  # the exact residual decides and is reported
                residual = _block_unitarity_residual(self.measured, v)
            # W[(i, a), j] = sum_k s[i, k] (V_n(k) ready)[a] s[j, k]^*, column k in B_n(k)
            images = (v @ ready)[np.repeat(np.arange(len(v)), self.measured.ranks)].T
            ready_map = (s[:, None, :] * images).reshape(d1 * d2, d1) @ s.conj().T
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


def _block_unitarity_bound(s: np.ndarray, ranks: Sequence[int], v: np.ndarray) -> float:
    """An upper bound, rounding included, on ``||U^H U - I||_F`` for ``U = sum_n
    B_n B_n^H (x) v[n] = (s (x) I) D (s^H (x) I)``: ``s = [B_1 | ... | B_N]`` is
    square and ``D`` the block diagonal of ``I_{r_n} (x) V_n``.  With ``e = ||s^H
    s - I|| = ||s s^H - I||`` and ``g_n = ||V_n^H V_n - I||``, ``||s||_2^2 <= 1 +
    e`` and ``||D||_2^2 <= 1 + max g_n`` give ``(1 + e) sqrt(sum_n r_n g_n^2) +
    sqrt(d2) e (1 + (1 + e)(1 + max g_n))``.  It can be attained (``s = I``, N =
    1), and rounding grows with the values: the margin is ``4 d1 d2 eps (1 + bound)``."""
    d1, d2 = len(s), v.shape[1]
    e = gram_residual(s)
    g = gram_residual(v)
    bound = (1 + e) * np.sqrt(np.dot(ranks, g**2)) + np.sqrt(d2) * e * (1 + (1 + e) * (1 + g.max()))
    return float(bound + 4 * d1 * d2 * np.finfo(float).eps * (1 + bound))


def _block_unitarity_residual(measured: Observable, v: np.ndarray) -> float:
    """``||U^H U - I||_F`` of ``U = sum_n P^n (x) v[n]`` without forming ``U``,
    from ``U^H U = sum_{n,m} (P^n^H P^m) (x) (V_n^H V_m)``: row ``(n, m)`` of
    ``grams(x)`` is ``vec(x[n]^H x[m])``, so entry ``[(i, j), (a, b)]`` of the
    product below is ``<i, a| U^H U |j, b>``, in an order the norm ignores."""
    p = np.array([b @ b.conj().T for b in measured.bases])

    def grams(x):
        return np.einsum("nij,mik->nmjk", x.conj(), x, optimize=True).reshape(len(x) ** 2, -1)

    residual = grams(p).T @ grams(v)
    residual[:: p.shape[1] + 1, :: v.shape[1] + 1] -= 1.0  # where i == j and a == b
    return float(np.linalg.norm(residual))


@dataclass(frozen=True, eq=False)
class Branch:
    """One unnormalized pointer-projected term ``Psi @ Q^n.T`` (``d1 x d2``),
    held only as its ``d1 x r`` core, the term being ``core @ basis.T`` for a
    ``d2 x r`` ``basis`` with orthonormal columns: ``basis.T`` has orthonormal
    rows, so the core carries the term's weight ``||core||^2``, its Schmidt
    form and its system-side residuals.  Its Schmidt form keeps the terms of
    coefficient at least ``cutoff``."""

    outcome: int
    weight: float
    core: np.ndarray
    basis: np.ndarray
    cutoff: float = ZERO_BRANCH_THRESHOLD

    def __post_init__(self):
        for name in ("core", "basis"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def schmidt_forms(kept: Sequence[Branch]) -> dict[int, SchmidtForm]:
    """The Schmidt form of each branch's normalized term by outcome, from one
    ``schmidt_decompose_cores`` call per group of equal core shapes, each
    branch with its own cutoff; a form does not depend on the group it was
    computed in."""
    forms = _per_group(
        lambda cores, bases, cutoffs: schmidt_decompose_cores(cores, bases, cutoffs[:, None]),
        [b.core / np.sqrt(b.weight) for b in kept],
        [b.basis for b in kept],
        np.array([b.cutoff for b in kept]),
    )
    return dict(zip((b.outcome for b in kept), forms))


def _householder_blocks(ready: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The ``N x d x d`` stack of deterministic unitaries ``V_n`` that send
    ``ready`` exactly to column ``n`` of the ``d x N`` unit columns ``targets``.

    A Householder reflection ``I - s w w^H`` takes ready to a target ``y`` up
    to phase; a phase rotation ``I + a y y^H`` on the target direction then
    pins the image to the target with coefficient +1.  A target that is
    (numerically) a phase multiple of ready gets the rotation alone (``s =
    0``), so equal states map to the identity.  Each block is computed from
    its own column alone, by the same operations at any ``N``.
    """
    y = targets.T
    overlap = np.einsum("nj,j->n", y.conj(), ready)
    # hypot rounds as scalar abs() does; np.abs on arrays may differ in the last bit
    modulus = np.hypot(overlap.real, overlap.imag)
    # a subnormal overlap overflows the division; alpha = 1 then still maps ready
    # to the target, to within the overlap's modulus
    alpha = np.divide(overlap, modulus, out=np.ones_like(overlap), where=modulus >= np.finfo(float).tiny)
    w = ready - alpha[:, None] * y
    norm_w_sq = np.einsum("nj,nj->n", w.conj(), w).real
    # dividing by <w, w> instead of normalizing w keeps basis-to-basis maps
    # exact permutation matrices
    scale = np.divide(2.0, norm_w_sq, out=np.zeros_like(norm_w_sq), where=norm_w_sq >= 1e-24)
    # (I + a y y^H)(I - s w w^H) = I + a y y^H - s u w^H for u = w + a <y, w> y:
    # two outer products per block and no d^3 product
    a = alpha.conj() - 1.0
    u = w + (a * np.einsum("nj,nj->n", y.conj(), w))[:, None] * y
    blocks = a[:, None, None] * (y[:, :, None] * y.conj()[:, None, :])
    blocks += np.eye(len(ready))
    blocks -= scale[:, None, None] * (u[:, :, None] * w.conj()[:, None, :])
    return blocks


def build_premeasurement(
    measured: Observable, apparatus: PointerApparatus, tol: float = DEFAULT_TOL
) -> PremeasurementModel:
    """Construct the block coupling ``sum_n P^n (x) V_n`` with
    ``V_n ready = pointer_n``, every ``V_n`` formed in one stack.

    The result is unitary because the system projectors are orthogonal and
    complete and each block is unitary; it satisfies calibration and
    nondemolition by construction.  Complete (nondegenerate) observables are
    the special case of all rank-1 system projectors.
    """
    ready, targets = apparatus.ready_state.amplitudes, apparatus.pointer_states
    # the stack is freed once each block is copied into its Operator
    blocks = tuple(map(Operator, _householder_blocks(ready, targets)))
    return PremeasurementModel(measured, apparatus, blocks, tol)


def evolve(model: PremeasurementModel, phi: StateVector) -> BipartiteState:
    """Couple ``phi`` to the ready apparatus: ``U (phi (x) ready)``,
    normalized, as the coefficient matrix ``W @ phi`` reshaped to ``d1 x d2``."""
    if phi.dim != model.d1:
        raise ValueError(f"input state dim {phi.dim}, expected {model.d1}")
    out = model.ready_map @ phi.amplitudes
    return BipartiteState((out / np.linalg.norm(out)).reshape(model.d1, model.d2))


def branches(model: PremeasurementModel, psi12: BipartiteState) -> tuple[Branch, ...]:
    """Pointer-projected terms ``(I (x) Q^n) psi = Psi @ Q^n.T``, each held as
    its core ``Psi @ B.conj()`` for ``Q^n = B B^H`` (the term is ``core @
    B.T``, never formed), with squared-norm weights ``||core||^2``.  Every
    core is a column block of the one product ``Psi @ M.conj()`` of the
    pointer's basis matrix ``M = [B_1 | ... | B_N]``.

    That needs ``B`` orthonormal to rounding.  A pointer observable whose Gram
    residual exceeds ``NORM_TOL`` (admitted at a looser tol) would pass its
    error into the weights and the factor-2 Schmidt vectors ``B @ v``, so each
    of its terms is its own core, against the identity basis.  Either way a
    branch's Schmidt form drops the terms below ``term_cutoff`` of the
    pointer's Gram residual: at most 1e-11 for an exact pointer.

    Terms with squared norm below ``ZERO_BRANCH_THRESHOLD`` are omitted: their
    outcomes have no branch.  The weights must sum to 1 within ``model.tol``
    (at least ``DEFAULT_TOL``), the pointer's admission tolerance.
    """
    if psi12.dims != (model.d1, model.d2):
        raise ValueError(f"state dims {psi12.dims} do not match model")
    pointer = model.apparatus.pointer_observable
    exact = pointer.residual <= NORM_TOL
    # the loose route's cores are d1 x d2; the cap never binds on an exact pointer
    cutoff = term_cutoff(pointer.residual, min(model.d1, model.d2))
    cores = np.split(psi12.matrix @ pointer.matrix.conj(), np.cumsum(pointer.ranks[:-1]), axis=1)
    kept = []
    for n, (core, b) in enumerate(zip(cores, pointer.bases)):
        if not exact:
            core, b = core @ b.T, np.eye(model.d2)
        weight = float(np.linalg.norm(core) ** 2)
        if weight >= ZERO_BRANCH_THRESHOLD:
            kept.append(Branch(n, weight, core, b, cutoff))
    total = sum(b.weight for b in kept)
    if abs(total - 1.0) > max(model.tol, DEFAULT_TOL):
        raise ValueError(f"branch weights sum to {total!r}, expected 1")
    return tuple(kept)


def verify_calibration(model: PremeasurementModel, tol: float = DEFAULT_TOL) -> Audit:
    """Check the calibration condition outcome by outcome, over the whole
    eigenspace.

    An input certain for outcome n is ``B_n @ c``; its normalized output is a
    unit vector in the range of ``M_n = W @ B_n``.  The residual of outcome n is
    the supremum of ``||(I (x) Q^n) Psi - Psi||`` over every such output: the
    spectral norm of the leak ``(I (x) Q^n - I) O_n`` for the ``Q`` factor
    ``O_n`` of ``M_n``, taken as the square root of the top eigenvalue of the
    leak's ``r_n x r_n`` Gram matrix.  (LAPACK's SVD of a leak whose singular
    values are all equal, as an identity-like coupling makes them, returned
    its top one up to 40 eps low; the Gram eigenvalue was within 3 eps.)
    When the ``R`` of ``M_n`` is singular (numerical rank below ``r_n``), some
    certain input couples to the zero vector, and the residual is inf.

    The outcomes of a rank group (equal measured and pointer ranks) share one
    stacked call per step; LAPACK factors each matrix of a stack on its own,
    so every residual equals the one of a single outcome.
    """
    d1, d2 = model.d1, model.d2

    def leak_norms(a, b):  # the measured and the pointer bases of a rank group
        g, r = a.shape[0], a.shape[2]
        outputs, triangle = np.linalg.qr(model.ready_map @ a)
        # the rows of psi[k] are the d1 rows of the coefficient matrix of output k
        psi = outputs.transpose(0, 2, 1).reshape(g, r * d1, d2)
        del outputs  # a group's stack is as large as all of its outcomes' matrices
        leak = (psi @ b.conj()) @ b.transpose(0, 2, 1)
        leak -= psi
        leak = leak.reshape(g, r, d1 * d2)
        top = np.linalg.eigvalsh(leak @ leak.conj().transpose(0, 2, 1))[:, -1]
        singular = np.linalg.svd(triangle, compute_uv=False)
        cutoff = singular[:, 0] * max(d1 * d2, r) * np.finfo(float).eps
        return np.where(singular[:, -1] <= cutoff, np.inf, np.sqrt(top))

    pointer = model.apparatus.pointer_observable
    return Audit(dict(enumerate(_per_group(leak_norms, model.measured.bases, pointer.bases))), tol)


def verify_nondemolition(
    model: PremeasurementModel, kept: Sequence[Branch], tol: float = DEFAULT_TOL
) -> Audit:
    """Each nonzero branch ``Psi_k`` must be fixed by its own system
    eigenprojector, ``P^k @ Psi_k = Psi_k`` (it is then a joint eigenvector of
    P^k (x) I and I (x) Q^k); the residual of branch k is
    ``||P^k @ Psi_k - Psi_k||``, the ``span_residual`` of the system basis.
    It is taken on the core ``K_k``: ``Psi_k = K_k @ B^T`` and ``B^T`` has
    orthonormal rows, so ``||P^k K_k - K_k||`` is the same norm.  One stacked
    residual per group of equal measured ranks and core shapes; a residual does
    not depend on the group it was computed in."""
    bases = [model.measured.bases[b.outcome] for b in kept]
    residuals = _per_group(span_residual, bases, [b.core for b in kept])
    return Audit(dict(zip((b.outcome for b in kept), residuals)), tol)


def branch_norm_law(
    kept: Sequence[Branch], oracle: Sequence[float], tol: float = DEFAULT_TOL
) -> Audit:
    """Unitarity preserves each term's norm, so the weights of the branches
    ``kept`` of an input ``phi`` must equal its eigenspace probabilities
    ``oracle[n] = <phi|P^n|phi>``; an outcome without a branch must have
    vanishing eigenspace probability.

    The residual of a kept branch k is ``|weight_k - oracle[k]|``, and of an
    outcome n without a branch its trace-rule value ``oracle[n]``.
    """
    residuals = {b.outcome: abs(b.weight - oracle[b.outcome]) for b in kept}
    residuals.update((n, oracle[n]) for n in range(len(oracle)) if n not in residuals)
    return Audit(residuals, tol)
