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
Psi Psi^H``, so no composite-space lift or density matrix is formed.  Both
routes run, with both cross-checks, on a stack of projectors ``P = B B^H``: one
per public call, and ``trial_chunk(d)`` random ones per stacked Haar draw in
``proper_improper_equivalence``, which builds ``rho_mix`` and ``rho_1`` once.
Each route reduces a whole stack with one ``einsum``; its value for one
projector does not depend on the height of the stack it is reduced in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import NORM_TOL, DensityOperator, _freeze, _projector_basis
from .schmidt import BipartiteState

__all__ = [
    "MixtureSpec",
    "mix",
    "proper_probability",
    "improper_probability",
    "proper_improper_equivalence",
    "purify",
    "trial_chunk",
]

PURIFY_THRESHOLD = 1e-12  # purify drops eigenvalues below this
# bytes of one stack of d x d complex projectors (or of their Gaussian pairs)
# per equivalence chunk: 8 trials at d = 64, every one of 50 trials at d = 16;
# larger stacks outgrow the 2 MiB L2 at d = 64
STACK_BYTES = 2**19


def haar_unitary(ginibre: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Ginibre matrices ``(..., d, d)``, each entry's
    real and imaginary parts standard normal: one stacked QR, R-diagonal phases fixed."""
    q, r = np.linalg.qr(ginibre)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diagonal / np.abs(diagonal))[..., None, :]
    return q


def trial_chunk(d: int) -> int:
    """Equivalence trials per stacked draw in dimension ``d``: as many ``d x d``
    complex matrices as fit in ``STACK_BYTES``, at least one."""
    return max(1, STACK_BYTES // (16 * d * d))


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


def _agree(first: np.ndarray, second: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(np.abs(first - second) > NORM_TOL)
    if bad.size:
        raise ValueError(f"{what} disagree: {float(first[bad[0]])!r} vs {float(second[bad[0]])!r}")


def _proper(P: np.ndarray, spec: MixtureSpec, rho_mix: DensityOperator) -> np.ndarray:
    a = spec.states
    rows = np.einsum("ik,tik->tk", a.conj(), P @ a).real
    # not the gemv rows @ weights: its rounding of a row depends on the stack height
    by_components = np.einsum("tk,k->t", rows, spec.weights)
    by_trace = np.trace(P @ rho_mix.matrix, axis1=1, axis2=2).real
    _agree(by_components, by_trace, "sub-ensemble sum and trace rule")
    return np.clip(by_components, 0.0, 1.0)


def _improper(P1: np.ndarray, psi: np.ndarray, rho1: DensityOperator) -> np.ndarray:
    on_composite = np.einsum("ij,tij->t", psi.conj(), P1 @ psi).real
    on_reduced = np.trace(P1 @ rho1.matrix, axis1=1, axis2=2).real
    _agree(on_composite, on_reduced, "composite and partial-trace routes")
    return np.clip(on_reduced, 0.0, 1.0)


def _reduced_first(psi: np.ndarray) -> DensityOperator:
    """``rho_1 = Psi Psi^H`` for the coefficient matrix ``Psi``."""
    return DensityOperator(np.einsum("aj,bj->ab", psi, psi.conj()))


def proper_probability(basis: np.ndarray, spec: MixtureSpec) -> float:
    """Probability of the event ``P = B B^H`` of a projector basis ``B`` in a
    proper mixture via the sub-ensemble sum ``sum_k w_k <phi_k|P|phi_k>``,
    verified on every call against the trace rule on the mixed density operator."""
    b = _projector_basis(basis, spec.dim)
    return float(_proper((b @ b.conj().T)[None], spec, mix(spec))[0])


def improper_probability(basis: np.ndarray, psi12: BipartiteState) -> float:
    """Probability of the first-factor event ``P1 = B B^H`` of a projector basis
    ``B`` in an entangled composite, computed both on the composite state and
    through the reduced density operator; the two must agree within ``NORM_TOL``."""
    b, psi = _projector_basis(basis, psi12.d1), psi12.matrix
    return float(_improper((b @ b.conj().T)[None], psi, _reduced_first(psi))[0])


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
    rng, d, worst = np.random.default_rng(seed), psi12.d1, 0.0
    chunk = trial_chunk(d)
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        ranks, pairs = np.empty(count, dtype=int), np.empty((count, 2, d, d))
        for t in range(count):  # per trial the rank, then the Gaussian pair
            ranks[t] = rng.integers(1, d + 1)
            rng.standard_normal((2, d, d), out=pairs[t])
        ginibre = pairs[:, 0] + 1j * pairs[:, 1]
        del pairs  # not held through the QR, which holds four stacks itself
        P = np.stack([u[:, :r] @ u[:, :r].conj().T for u, r in zip(haar_unitary(ginibre), ranks)])
        proper = _proper(P, spec, rho_mix)
        worst = max(worst, float(np.max(np.abs(proper - _improper(P, psi, rho1)))))
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
