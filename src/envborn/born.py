"""The audited probability-derivation pipeline.

Starting from an input system state and a premeasurement model, the pipeline
couples, splits the output into pointer branches, Schmidt-decomposes each
branch, and assembles the branch forms into one composite biorthogonal
decomposition.  The probability of each composite Schmidt state is its squared
coefficient (the imported axiom); summing within a branch by additivity, and
adding the zero contribution of the pointer-complement projector, yields the
pointer-event probability, which probability reproducibility transfers back to
the measured event on the input state.

Every surrounding step is machine-checked against the trace-rule oracle:
calibration, nondemolition, branch norms, cross-branch biorthogonality, finite
additivity, the complement annihilation, and the final reproducibility
residuals.  Each check is an ``Audit`` in the report; a failed audit is
reported instead of raised, so adversarial couplings produce a readable
diagnosis.

The pipeline couples and splits once; every audit reuses those branches.
The coupled state is a ``d1 x d2`` coefficient matrix; a branch ``core @
basis.T`` is held only as its ``d1 x r`` core, which nondemolition audits and
whose normalized SVD is the branch's Schmidt form.  The forms, nondemolition,
complement and additivity each run once per group of outcomes whose matrices
share their shapes, as one call of a stacked function: ``complement_check``
and ``check_additivity`` take one basis or a stack of them, return inf where
their precondition fails, and compute each entry of a stack as they would
alone.
Factor-side steps are one-sided products on the coefficient matrix ``Psi``:
the complement residual is the norm of ``Psi @ (Q^k)'.T`` and the pointer's
reduced state is ``rho_2 = Psi.T @ Psi.conj()``, so no composite-space
operator or density matrix is formed.  Each projector ``Q = B B^H`` is
applied through its basis ``B``, never dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    Audit,
    DensityOperator,
    StateVector,
    _norms,
    gram_residual,
    pure_density,
    span_residual,
    trace_probability,
)
from .premeasurement import (
    PremeasurementModel,
    _per_group,
    branch_norm_law,
    branches,
    evolve,
    schmidt_forms,
    verify_calibration,
    verify_nondemolition,
)
from .schmidt import BipartiteState, pointer_density

__all__ = [
    "OutcomeRecord",
    "ProbabilityReport",
    "derive_probabilities",
    "complement_check",
    "check_additivity",
]


@dataclass(frozen=True)
class OutcomeRecord:
    """Per-outcome result: derived probability, the trace-rule value, the
    per-term Schmidt contributions inside the branch, and the norm of the
    state after the pointer-complement projector (must be ~0)."""

    outcome: int
    eigenvalue: float
    derived: float
    oracle: float
    schmidt_detail: tuple[float, ...]
    complement_residual: float

    @property
    def residual(self) -> float:
        return abs(self.derived - self.oracle)


@dataclass(frozen=True)
class ProbabilityReport:
    """Per-outcome records plus the audits, by name in pipeline order."""

    records: tuple[OutcomeRecord, ...]
    audits: Mapping[str, Audit]

    def __post_init__(self):
        derived = [r.derived for r in self.records]
        if any(p < 0 for p in derived):
            raise ValueError("derived probabilities must be nonnegative")
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "audits", MappingProxyType(dict(self.audits)))

    @property
    def derived(self) -> list[float]:
        return [r.derived for r in self.records]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.audits.values())


def complement_check(
    psi12: BipartiteState, pointer: np.ndarray, schmidt2: np.ndarray, tol: float = DEFAULT_TOL
) -> float | np.ndarray:
    """Norm of ``(I (x) (Q^k)') psi = Psi @ (Q^k)'.T`` for ``(Q^k)' = Q^k - S
    S^H``, where ``Q^k = Bq Bq^H`` for the pointer basis ``Bq = pointer``
    (``d2 x r``) and the orthonormal columns ``S`` of ``schmidt2`` (``d2 x n``;
    ``n = 0`` for an omitted outcome) are the branch's factor-2 Schmidt vectors.
    It measures the Schmidt tail that the term cutoff dropped, as ``||Psi Bq^*
    Bq^T - Psi S^* S^T||``.  For stacks of bases, the array of the residuals,
    each computed by the same operations at any stack height.

    ``(Q^k)'`` is a projector when ``Q^k`` fixes ``S`` (the sub-projector
    relation of ``sublemma_check``); where ``span_residual(Bq, S)`` exceeds
    ``tol`` (NaN included) the residual is inf.
    """
    relation = span_residual(pointer, schmidt2)
    tails = (psi12.matrix @ pointer.conj()) @ pointer.swapaxes(-1, -2)
    tails -= (psi12.matrix @ schmidt2.conj()) @ schmidt2.swapaxes(-1, -2)
    # [()] makes the 0-d result of one basis a float (np.float64)
    return np.where(relation <= tol, _norms(tails), np.inf)[()]


def check_additivity(
    rho: DensityOperator, basis: np.ndarray, tol: float = DEFAULT_TOL
) -> float | np.ndarray:
    """Finite additivity of the trace rule: ``|p(sum parts) - sum p(parts)|``
    over the rank-1 parts ``v v^H`` of the columns ``v`` of ``basis`` (``d x
    n``), each part and their sum applied through its columns.  For a stack of
    bases, the array of the residuals, each computed by the same operations at
    any stack height.

    One Gram check of ``basis`` decides that the parts and their sum are
    orthogonal projectors; the residual is inf where it exceeds ``tol`` (NaN
    included) or where a trace ``p`` fails ``trace_probability``'s guards: an
    imaginary part beyond ``DEFAULT_TOL`` or a value outside [0, 1] beyond it
    (within it, ``p`` is clamped).  The residual is an implementation
    tripwire: the trace is linear, so only broken code moves it.
    """
    gram = gram_residual(basis)
    # entry [..., a, i] adds v_i[a]^* (rho v_i)[a] to the trace of part i
    terms = basis.conj() * (rho.matrix @ basis)
    traces = np.concatenate([terms.sum(axis=(-2, -1))[..., None], terms.sum(axis=-2)], axis=-1)
    p = traces.real
    guarded = (abs(traces.imag) <= DEFAULT_TOL) & (p >= -DEFAULT_TOL) & (p <= 1.0 + DEFAULT_TOL)
    p = p.clip(0.0, 1.0)
    whole, pieces = p[..., 0], p[..., 1:].sum(axis=-1)
    return np.where((gram <= tol) & guarded.all(axis=-1), abs(whole - pieces), np.inf)[()]


def derive_probabilities(
    model: PremeasurementModel,
    phi: StateVector,
    tol: float = DEFAULT_TOL,
) -> ProbabilityReport:
    """Run the full pipeline and audit every step.

    Steps: couple the input to the ready apparatus; split into pointer
    branches; Schmidt-decompose each normalized branch; verify the assembled
    composite decomposition is biorthogonal across branches (on factor 1;
    factor 2 holds by construction); square composite coefficients for
    per-term probabilities; sum terms within each branch (finite additivity,
    audited against the trace rule); verify the pointer-complement projector
    annihilates the state so it contributes zero; transfer each pointer-event
    probability to the measured event (probability reproducibility) and
    compare with the trace-rule oracle.

    The oracle ``tr(P^n rho_phi)`` is computed once and serves the norm law
    and ``prc``; a check whose precondition fails records inf.  An omitted
    outcome's complement residual (about ``sqrt(weight)``) stays in its record,
    out of the audit.  ``SchmidtForm`` holds ``sum(c^2) = 1``, so ``prc``
    beyond the norm law is an implementation tripwire.

    Audit failures are reported in ``audits``, never raised.  The derived
    probabilities must sum to 1 within ``model.tol`` (at least ``DEFAULT_TOL``).
    """
    psi12 = evolve(model, phi)
    kept = branches(model, psi12)
    rho_phi = pure_density(phi)
    rho2 = pointer_density(psi12)
    outcomes = range(model.outcome_count)
    oracle = [trace_probability(b, rho_phi) for b in model.measured.bases]
    forms = schmidt_forms(kept)
    weights = {b.outcome: b.weight for b in kept}

    # Biorthogonality on factor 1.  Factor 2 holds by construction: branch k's
    # vectors are its basis times the core's orthonormal SVD vectors, inside
    # range(Q^k), and the pointer projectors are mutually orthogonal.
    biorthogonality = gram_residual(np.hstack([form.basis1 for form in forms.values()]))
    # complement: one stacked call per group of outcomes with equal pointer
    # ranks and numbers of Schmidt terms (0 for an omitted outcome);
    # additivity: one per group of kept branches with equal numbers of terms
    pointer = model.apparatus.pointer_observable.bases
    empty = np.zeros((model.d2, 0))
    schmidt2 = [forms[n].basis2 if n in forms else empty for n in outcomes]
    complement = _per_group(lambda b, s: complement_check(psi12, b, s, tol), pointer, schmidt2)
    additivity = _per_group(lambda s: check_additivity(rho2, s, tol), [schmidt2[n] for n in forms])
    records = []
    for n, eigenvalue in enumerate(model.measured.eigenvalues):
        form = forms.get(n)
        detail = () if form is None else tuple(float(weights[n] * c**2) for c in form.coefficients)
        records.append(
            OutcomeRecord(n, eigenvalue, float(sum(detail)), oracle[n], detail, complement[n])
        )

    total = sum(r.derived for r in records)
    if abs(total - 1.0) > max(model.tol, DEFAULT_TOL):
        raise ValueError(f"derived probabilities sum to {total!r}")
    return ProbabilityReport(
        records=tuple(records),
        audits={
            "calibration": verify_calibration(model, tol),
            "nondemolition": verify_nondemolition(model, kept, tol),
            "norm_law": branch_norm_law(kept, oracle, tol),
            "biorthogonality": Audit({None: biorthogonality}, tol),
            "additivity": Audit(dict(zip(forms, additivity)), tol),
            "complement": Audit({n: complement[n] for n in forms}, tol),
            "prc": Audit({r.outcome: r.residual for r in records}, tol),
        },
    )
