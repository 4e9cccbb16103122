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
per public call, and ``trial_chunk(d)`` random ones at a time in
``proper_improper_equivalence``, which builds ``rho_mix`` and ``rho_1`` once.
Each route reduces a whole stack with one ``einsum``, the trace rule as the
``d^2`` sum ``einsum("tij,ji->t", P, rho)``; its value for one projector does
not depend on the height of the stack it is reduced in.

The equivalence's projectors come from two child streams of its seed: every
trial's rank in one draw from the first, and each chunk's Gaussian pairs in
one draw from the second, so a trial's projector depends only on the seed and
its index.  A chunk's trials are split at rank ``d // 2``, and each half's
Haar QR factors only its top rank's columns of the Ginibre matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import DEFAULT_TOL, NORM_TOL, DensityOperator, _freeze, _projector_basis
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
    """The first ``w`` columns of Haar unitaries from the first ``w`` columns of
    complex Ginibre matrices, a ``(..., d, w)`` stack (``w <= d``) whose entries
    have standard normal real and imaginary parts: one stacked QR, R-diagonal
    phases fixed.  Householder QR makes column ``k`` of ``Q`` depend only on
    input columns ``<= k``, so these are the columns of the full ``d x d`` draw."""
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
    by_trace = np.einsum("tij,ji->t", P, rho_mix.matrix).real
    _agree(by_components, by_trace, "sub-ensemble sum and trace rule")
    return np.clip(by_components, 0.0, 1.0)


def _improper(P1: np.ndarray, psi: np.ndarray, rho1: DensityOperator) -> np.ndarray:
    on_composite = np.einsum("ij,tij->t", psi.conj(), P1 @ psi).real
    on_reduced = np.einsum("tij,ji->t", P1, rho1.matrix).real
    _agree(on_composite, on_reduced, "composite and partial-trace routes")
    return np.clip(on_reduced, 0.0, 1.0)


def _rank_halves(ranks: np.ndarray, pairs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """A chunk's trials split at rank ``d // 2``, given their ranks and their
    ``(count, 2, d, d)`` Gaussian pairs: per nonempty half, its ranks and the
    complex Ginibre stack of its pairs' first ``w`` columns, ``w`` its top rank."""
    d, halves = pairs.shape[-1], []
    for half in (ranks <= d // 2, ranks > d // 2):
        if half.any():
            rank = ranks[half]
            w = rank.max()
            ginibre = np.empty((rank.size, d, w), dtype=complex)
            ginibre.real, ginibre.imag = pairs[half, 0, :, :w], pairs[half, 1, :, :w]
            halves.append((rank, ginibre))
    return halves


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
    tol: float = DEFAULT_TOL,
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
    ranks_seed, pairs_seed = np.random.SeedSequence(seed).spawn(2)
    d, worst = psi12.d1, 0.0
    ranks = np.random.default_rng(ranks_seed).integers(1, d + 1, size=trials)
    normal = np.random.default_rng(pairs_seed).standard_normal
    chunk = trial_chunk(d)
    for start in range(0, trials, chunk):
        pairs = normal((min(chunk, trials - start), 2, d, d))
        halves = _rank_halves(ranks[start : start + chunk], pairs)
        del pairs  # not held through the QR, which holds four stacks itself
        while halves:
            rank, ginibre = halves.pop()
            u = haar_unitary(ginibre)
            del ginibre  # freed before P
            # each trial's columns past its rank
            np.swapaxes(u, 1, 2)[np.arange(u.shape[2]) >= rank[:, None]] = 0
            P = u @ np.swapaxes(u.conj(), 1, 2)
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
