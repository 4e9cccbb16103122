"""Proper and improper mixtures and their probabilistic equivalence.

A proper mixture blends pure sub-ensembles with statistical weights (optionally
realized as sub-ensemble counts N_k / N); an improper mixture is a subsystem's
reduced density operator from an entangled partner.  Each probability is
computed by two routes that must agree, so a disagreement signals an
arithmetic bug, not a physics result:

* ``_proper``: the sub-ensemble sum ``sum_k w_k <phi_k|P|phi_k>`` against the
  trace rule ``tr(P rho_mix)`` on the mixed density operator;
* ``_improper``: the composite expectation ``<Psi|(P x I)|Psi>`` against the
  trace rule ``tr(P rho_1)`` on the reduced state.

Both work on factor 1 only: with ``Psi`` the ``d1 x d2`` coefficient matrix of
the partner, the composite expectation is ``vdot(Psi, P @ Psi)`` and ``rho_1 =
Psi Psi^H``, so no composite-space lift or density matrix is formed.  The
public probabilities and every trial of ``proper_improper_equivalence`` (which
builds ``rho_mix`` and ``rho_1`` once) run both cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    DensityOperator,
    HilbertSpace,
    Projector,
    StateVector,
    NORM_TOL,
)
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


@dataclass(frozen=True)
class MixtureSpec:
    """Pure components with statistical weights; optional integer counts must
    reproduce the weights as N_k / N."""

    components: tuple[tuple[StateVector, float], ...]
    counts: tuple[int, ...] | None = None

    def __post_init__(self):
        comps = tuple((s, float(w)) for s, w in self.components)
        if not comps:
            raise ValueError("a mixture needs at least one component")
        if any(w <= 0 for _, w in comps):
            raise ValueError("weights must be positive")
        total = sum(w for _, w in comps)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        dim = comps[0][0].space.dim
        if any(s.space.dim != dim for s, _ in comps):
            raise ValueError("all components must share one space")
        if self.counts is not None:
            counts = tuple(int(n) for n in self.counts)
            if len(counts) != len(comps):
                raise ValueError("one count per component is required")
            if any(n <= 0 for n in counts):
                raise ValueError("counts must be positive integers")
            grand = sum(counts)
            for (_, w), n in zip(comps, counts):
                if abs(w - n / grand) > NORM_TOL:
                    raise ValueError(
                        f"count {n}/{grand} does not reproduce weight {w!r}"
                    )
            object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "components", comps)

    @property
    def space(self) -> HilbertSpace:
        return self.components[0][0].space


def mix(spec: MixtureSpec) -> DensityOperator:
    """The proper-mixture density operator ``sum_k w_k |phi_k><phi_k|``."""
    d = spec.space.dim
    rho = np.zeros((d, d), dtype=complex)
    for state, w in spec.components:
        rho += w * np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityOperator(spec.space, rho)


def _proper(P: Projector, spec: MixtureSpec, rho_mix: DensityOperator, tol: float) -> float:
    by_components = 0.0
    for state, w in spec.components:
        amp = state.amplitudes
        by_components += w * float((amp.conj() @ (P.matrix @ amp)).real)
    by_trace = float(np.trace(P.matrix @ rho_mix.matrix).real)
    if abs(by_components - by_trace) > tol:
        raise ValueError(
            "sub-ensemble sum and trace rule disagree: "
            f"{by_components!r} vs {by_trace!r}"
        )
    return min(max(by_components, 0.0), 1.0)


def _improper(P1: Projector, psi: np.ndarray, rho1: DensityOperator, tol: float) -> float:
    on_composite = float(np.vdot(psi, P1.matrix @ psi).real)
    on_reduced = float(np.trace(P1.matrix @ rho1.matrix).real)
    if abs(on_composite - on_reduced) > tol:
        raise ValueError(
            "composite and partial-trace routes disagree: "
            f"{on_composite!r} vs {on_reduced!r}"
        )
    return min(max(on_reduced, 0.0), 1.0)


def _reduced_first(psi: np.ndarray) -> DensityOperator:
    """``rho_1 = Psi Psi^H`` for the coefficient matrix ``Psi``."""
    return DensityOperator(HilbertSpace(psi.shape[0]), np.einsum("aj,bj->ab", psi, psi.conj()))


def proper_probability(P: Projector, spec: MixtureSpec, tol: float = NORM_TOL) -> float:
    """Event probability in a proper mixture via the sub-ensemble sum
    ``sum_k w_k <phi_k|P|phi_k>``, verified on every call against the trace
    rule on the mixed density operator."""
    if P.space.dim != spec.space.dim:
        raise ValueError("projector and mixture spaces differ")
    return _proper(P, spec, mix(spec), tol)


def improper_probability(P1: Projector, psi12: BipartiteState, tol: float = NORM_TOL) -> float:
    """First-factor event probability in an entangled composite, computed both
    on the composite state and through the reduced density operator; the two
    must agree within ``tol``."""
    if P1.space.dim != psi12.d1:
        raise ValueError(f"projector dim {P1.space.dim} does not match factor 1 ({psi12.d1})")
    return _improper(P1, psi12.matrix, _reduced_first(psi12.matrix), tol)


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
    space1 = HilbertSpace(psi12.d1)
    worst = 0.0
    for _ in range(trials):
        rank = int(rng.integers(1, space1.dim + 1))
        P = random_projector(space1, rank, rng)
        proper = _proper(P, spec, rho_mix, NORM_TOL)
        worst = max(worst, abs(proper - _improper(P, psi, rho1, NORM_TOL)))
    return worst


def purify(rho: DensityOperator, threshold: float = 1e-12) -> BipartiteState:
    """Canonical purification: ``sum_l sqrt(r_l) |l>_1 |l>_2`` over the
    eigenbasis of ``rho`` (eigenvalues below ``threshold`` dropped).  The
    partner factor has the same dimension; tracing it out recovers ``rho``.
    The coefficient matrix is ``V diag(sqrt(r)) V.T`` over the kept
    eigenvectors ``V``, in descending eigenvalue order."""
    values, vectors = np.linalg.eigh(rho.matrix)
    order = np.argsort(values)[::-1]
    kept = order[values[order] >= threshold]
    v = vectors[:, kept]
    psi = (v * np.sqrt(values[kept])) @ v.T
    return BipartiteState(psi / np.linalg.norm(psi))
