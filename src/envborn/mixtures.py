"""Proper and improper mixtures and their probabilistic equivalence.

A proper mixture blends pure sub-ensembles, the columns of its ``d x K`` state
matrix ``A``, with statistical weights ``w`` (optionally realized as
sub-ensemble counts N_k / N); an improper mixture is a subsystem's reduced
density operator from an entangled partner.  Each probability is computed by
two routes that must agree, so a disagreement signals an arithmetic bug, not a
physics result:

* ``_proper``: the sub-ensemble sum ``sum_k w_k <phi_k|P|phi_k> = w @
  Re(diag(A^H P A))`` against the trace rule ``tr(P rho_mix)`` on the mixed
  density operator ``rho_mix = (A w) A^H``;
* ``_improper``: the composite expectation ``<Psi|(P x I)|Psi>`` against the
  trace rule ``tr(P rho_1)`` on the reduced state.

Both work on factor 1 only: with ``Psi`` the ``d1 x d2`` coefficient matrix of
the partner, the composite expectation is ``vdot(Psi, P @ Psi)`` and ``rho_1 =
Psi Psi^H``, so no composite-space lift or density matrix is formed.  The
public probabilities and every trial of ``proper_improper_equivalence`` (which
builds ``rho_mix`` and ``rho_1`` once) run both cross-checks, on the one
``P = B B^H`` each call or trial forms from the projector basis ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import NORM_TOL, DensityOperator, _freeze, _projector_basis
from .rng import random_projector
from .schmidt import BipartiteState

__all__ = [
    "MixtureSpec",
    "mix",
    "proper_probability",
    "improper_probability",
    "proper_improper_equivalence",
    "purify",
]

PURIFY_THRESHOLD = 1e-12  # purify drops eigenvalues below this


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Pure components with statistical weights: column ``k`` of the ``d x K``
    matrix ``states`` is the unit vector of component ``k`` and ``weights[k]``
    its weight.  Optional integer counts must reproduce the weights as N_k / N."""

    states: np.ndarray
    weights: np.ndarray
    counts: tuple[int, ...] | None = None

    def __post_init__(self):
        states, weights = _freeze(self.states), np.array(self.weights, dtype=float)
        if states.ndim != 2 or len(states) == 0 or weights.shape != states.shape[1:]:
            raise ValueError(
                f"expected a d x K state matrix and K weights, got {states.shape}, {weights.shape}"
            )
        if not weights.size:
            raise ValueError("a mixture needs at least one component")
        if not np.all(abs(np.linalg.norm(states, axis=0) - 1.0) <= NORM_TOL):  # also rejects NaN
            raise ValueError("mixture components are not normalized")
        if not np.all(weights > 0):  # also rejects NaN
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > NORM_TOL:
            raise ValueError(f"weights sum to {float(weights.sum())!r}, expected 1")
        if self.counts is not None:
            counts = tuple(int(n) for n in self.counts)
            if len(counts) != len(weights) or min(counts) <= 0:
                raise ValueError("counts must be one positive integer per component")
            grand = sum(counts)
            if any(abs(w - n / grand) > NORM_TOL for w, n in zip(weights.tolist(), counts)):
                raise ValueError(f"counts {counts} do not reproduce the weights")
            object.__setattr__(self, "counts", counts)
        weights.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.states.shape[0]


def mix(spec: MixtureSpec) -> DensityOperator:
    """The proper-mixture density operator ``sum_k w_k |phi_k><phi_k| = (A w) A^H``
    for the state matrix ``A`` and weights ``w``."""
    a = spec.states
    return DensityOperator((a * spec.weights) @ a.conj().T)


def _proper(P: np.ndarray, spec: MixtureSpec, rho_mix: DensityOperator, tol: float) -> float:
    a = spec.states
    by_components = float(spec.weights @ np.einsum("ik,ik->k", a.conj(), P @ a).real)
    by_trace = float(np.trace(P @ rho_mix.matrix).real)
    if abs(by_components - by_trace) > tol:
        raise ValueError(
            "sub-ensemble sum and trace rule disagree: "
            f"{by_components!r} vs {by_trace!r}"
        )
    return min(max(by_components, 0.0), 1.0)


def _improper(P1: np.ndarray, psi: np.ndarray, rho1: DensityOperator, tol: float) -> float:
    on_composite = float(np.vdot(psi, P1 @ psi).real)
    on_reduced = float(np.trace(P1 @ rho1.matrix).real)
    if abs(on_composite - on_reduced) > tol:
        raise ValueError(
            "composite and partial-trace routes disagree: "
            f"{on_composite!r} vs {on_reduced!r}"
        )
    return min(max(on_reduced, 0.0), 1.0)


def _reduced_first(psi: np.ndarray) -> DensityOperator:
    """``rho_1 = Psi Psi^H`` for the coefficient matrix ``Psi``."""
    return DensityOperator(np.einsum("aj,bj->ab", psi, psi.conj()))


def proper_probability(basis: np.ndarray, spec: MixtureSpec, tol: float = NORM_TOL) -> float:
    """Probability of the event ``P = B B^H`` of a projector basis ``B`` in a
    proper mixture via the sub-ensemble sum ``sum_k w_k <phi_k|P|phi_k>``,
    verified on every call against the trace rule on the mixed density operator."""
    b = _projector_basis(basis, spec.dim)
    return _proper(b @ b.conj().T, spec, mix(spec), tol)


def improper_probability(basis: np.ndarray, psi12: BipartiteState, tol: float = NORM_TOL) -> float:
    """Probability of the first-factor event ``P1 = B B^H`` of a projector basis
    ``B`` in an entangled composite, computed both on the composite state and
    through the reduced density operator; the two must agree within ``tol``."""
    b = _projector_basis(basis, psi12.d1)
    return _improper(b @ b.conj().T, psi12.matrix, _reduced_first(psi12.matrix), tol)


def proper_improper_equivalence(
    spec: MixtureSpec,
    psi12: BipartiteState,
    trials: int = 50,
    seed: int = 0,
    tol: float = 1e-10,
) -> float:
    """Max difference between proper and improper probabilities over random
    projectors of random rank.

    Requires the mixed density operator to equal the composite's reduced state
    (otherwise the comparison is meaningless and a ValueError is raised).
    Every trial runs both cross-checks of each route at ``NORM_TOL``.
    """
    rho_mix = mix(spec)
    psi = psi12.matrix
    rho1 = _reduced_first(psi)
    gap = np.linalg.norm(rho_mix.matrix - rho1.matrix)
    if gap > tol:
        raise ValueError(
            f"mixture does not match the reduced state (residual {gap:.3e}); "
            "proper/improper comparison is meaningless"
        )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rank = int(rng.integers(1, psi12.d1 + 1))
        b = random_projector(psi12.d1, rank, rng)
        P = b @ b.conj().T
        proper = _proper(P, spec, rho_mix, NORM_TOL)
        worst = max(worst, abs(proper - _improper(P, psi, rho1, NORM_TOL)))
    return worst


def purify(rho: DensityOperator) -> BipartiteState:
    """Canonical purification: ``sum_l sqrt(r_l) |l>_1 |l>_2`` over the
    eigenbasis of ``rho`` (eigenvalues below ``PURIFY_THRESHOLD`` dropped).  The
    partner factor has the same dimension; tracing it out recovers ``rho``.
    The coefficient matrix is ``V diag(sqrt(r)) V.T`` over the kept
    eigenvectors ``V``, in descending eigenvalue order."""
    values, vectors = np.linalg.eigh(rho.matrix)
    order = np.argsort(values)[::-1]
    kept = order[values[order] >= PURIFY_THRESHOLD]
    v = vectors[:, kept]
    psi = (v * np.sqrt(values[kept])) @ v.T
    return BipartiteState(psi / np.linalg.norm(psi))
