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

The pipeline couples and splits once; every audit reuses that branch set.
The coupled state and each branch are ``d1 x d2`` coefficient matrices: a
normalized branch is Schmidt-decomposed by the SVD of its matrix as it
stands.  Factor-side steps are one-sided products on the coefficient matrix
``Psi`` of the coupled state: the complement residual is the norm of
``Psi @ (Q^k)'.T`` and the pointer's reduced state is ``rho_2 = Psi.T @
Psi.conj()``, so no composite-space operator or density matrix is formed.
Each projector ``Q = B B^H`` is applied through its basis ``B``, never dense.
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
    gram_residual,
    pure_density,
    span_residual,
    trace_probability,
)
from .premeasurement import (
    PremeasurementModel,
    branch_norm_law,
    branches,
    evolve,
    verify_calibration,
    verify_nondemolition,
)
from .schmidt import BipartiteState, pointer_density, schmidt_decompose

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
    model: PremeasurementModel,
    psi12: BipartiteState,
    outcome: int,
    schmidt2: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> float:
    """Norm of ``(I (x) (Q^k)') psi = Psi @ (Q^k)'.T`` for ``(Q^k)' = Q^k - S
    S^H``, where the orthonormal columns ``S`` of ``schmidt2`` (``d2 x r``;
    ``r = 0`` for an omitted outcome) are the branch's factor-2 Schmidt vectors.
    It measures the Schmidt tail that ``ZERO_BRANCH_THRESHOLD`` dropped, as
    ``||Psi Bq^* Bq^T - Psi S^* S^T||`` for ``Q^k = Bq Bq^H``.

    ``(Q^k)'`` is a projector when ``Q^k`` fixes ``S`` (the sub-projector
    relation of ``sublemma_check``); a ``span_residual(Bq, S)`` beyond
    ``tol`` raises ValueError rather than counting as a mere audit miss.
    """
    bq = model.apparatus.pointer_observable.basis(outcome)
    relation = span_residual(bq, schmidt2)
    if not relation <= tol:
        raise ValueError(f"Schmidt vectors leave the pointer eigenspace: residual {relation:.3e}")
    psi = psi12.matrix
    return float(np.linalg.norm((psi @ bq.conj()) @ bq.T - (psi @ schmidt2.conj()) @ schmidt2.T))


def check_additivity(rho: DensityOperator, basis: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Finite additivity of the trace rule: ``|p(sum parts) - sum p(parts)|``
    over the rank-1 parts ``v v^H`` of the columns ``v`` of ``basis``, each
    part and their sum applied through its columns by ``trace_probability``.

    One Gram check of ``basis`` decides that the parts and their sum are
    orthogonal projectors (a failure raises ValueError).  The residual is an
    implementation tripwire: the trace is linear, so only broken code moves it.
    """
    residual = gram_residual(basis)
    if not residual <= tol:  # also rejects NaN
        raise ValueError(f"additivity parts are not orthonormal: Gram residual {residual:.3e}")
    whole = trace_probability(basis, rho)
    pieces = sum(trace_probability(basis[:, [i]], rho) for i in range(basis.shape[1]))
    return abs(whole - pieces)


def _or_inf(check, *args) -> float:
    """``check(*args)``, or inf when the check's precondition raises."""
    try:
        return check(*args)
    except ValueError:
        return float("inf")


def derive_probabilities(
    model: PremeasurementModel,
    phi: StateVector,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
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
    bset = branches(model, psi12)
    rho_phi = pure_density(phi)
    rho2 = pointer_density(psi12)
    oracle = [
        trace_probability(model.measured.basis(n), rho_phi) for n in range(model.outcome_count)
    ]
    forms = {b.outcome: schmidt_decompose(BipartiteState(b.normalized())) for b in bset.branches}
    weights = bset.weights

    # Biorthogonality on factor 1.  Factor 2 holds by construction: branch k's
    # vectors are an orthonormal SVD basis inside range(Q^k), and the pointer
    # projectors are mutually orthogonal.
    biorthogonality = gram_residual(np.hstack([form.basis1 for form in forms.values()]))
    additivity = {n: _or_inf(check_additivity, rho2, form.basis2, tol) for n, form in forms.items()}
    empty = np.zeros((model.d2, 0))
    complement = [
        _or_inf(complement_check, model, psi12, n, forms[n].basis2 if n in forms else empty, tol)
        for n in range(model.outcome_count)
    ]
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
            "calibration": verify_calibration(model, tol, seed=seed),
            "nondemolition": verify_nondemolition(model, bset, tol),
            "norm_law": branch_norm_law(bset, oracle, tol),
            "biorthogonality": Audit({None: biorthogonality}, tol),
            "additivity": Audit(additivity, tol),
            "complement": Audit({n: complement[n] for n in forms}, tol),
            "prc": Audit({r.outcome: r.residual for r in records}, tol),
        },
    )
