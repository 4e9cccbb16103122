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
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    Audit,
    DensityOperator,
    Projector,
    StateVector,
    check_orthogonal,
    gram_residual,
    pure_density,
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
from .schmidt import BipartiteState, SchmidtForm, pointer_density, schmidt_decompose

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
        if abs(sum(derived) - 1.0) > 1e-10:
            raise ValueError(f"derived probabilities sum to {sum(derived)!r}")
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
    """Norm of ``(I (x) (Q^k)') psi = Psi @ (Q^k)'.T`` where ``(Q^k)'`` is the
    pointer projector minus the span of the branch's factor-2 Schmidt vectors,
    the columns of ``schmidt2`` (``d2 x r``; ``r = 0`` for an omitted outcome).

    The sub-projector relation guarantees ``(Q^k)'`` is again a projector;
    if its projector invariants fail a ValueError is raised, since that
    signals a violated sub-projector relation rather than a mere audit miss.
    """
    q = model.apparatus.pointer_observable.projectors[outcome]
    comp = q.matrix - schmidt2 @ schmidt2.conj().T
    # Raises when not Hermitian/idempotent within tol.
    Projector(comp, tol)
    return float(np.linalg.norm(psi12.matrix @ comp.T))


def check_additivity(
    rho: DensityOperator, parts: Sequence[Projector], tol: float = DEFAULT_TOL
) -> float:
    """Finite additivity of the trace rule: ``|p(sum parts) - sum p(parts)|``.

    Parts must be mutually orthogonal.  All finite-dimensional scenarios can
    only exercise the finite restriction of countable additivity.
    """
    check_orthogonal(parts, tol)
    total = np.zeros((rho.dim, rho.dim), dtype=complex)
    for p in parts:
        total += p.matrix
    whole = trace_probability(Projector(total, tol), rho, tol)
    pieces = sum(trace_probability(p, rho, tol) for p in parts)
    return abs(whole - pieces)


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
    factor 2 holds by construction);
    square composite coefficients for per-term probabilities; sum terms within
    each branch (finite additivity, audited against the trace rule); verify
    the pointer-complement projector annihilates the state so it contributes
    zero; transfer each pointer-event probability to the measured event
    (probability reproducibility) and compare with the trace-rule oracle.

    Audit failures are reported in ``audits``, never raised.
    """
    psi12 = evolve(model, phi)
    bset = branches(model, psi12)
    rho_phi = pure_density(phi)
    rho2 = pointer_density(psi12)

    branch_forms: dict[int, SchmidtForm] = {}
    for b in bset.branches:
        branch_forms[b.outcome] = schmidt_decompose(BipartiteState(b.normalized()))

    # Composite biorthogonality on factor 1.  Factor 2 holds by construction:
    # branch k's vectors are an orthonormal SVD basis inside range(Q^k), and
    # the pointer projectors are mutually orthogonal.
    biorth_residual = gram_residual(np.hstack([form.basis1 for form in branch_forms.values()]))

    weights = bset.weights
    additivity: dict[int, float] = {}
    # Complement annihilation is a step of the derivation only for kept
    # branches (the nonzero-term reindexing); omitted outcomes report the
    # full pointer-projector residual sqrt(weight) for information, and are
    # already covered by the norm law's vanishing-oracle check.  A complement
    # that is not a projector fails the audit for any outcome.
    complement: dict[int, float] = {}
    records = []
    for n in range(model.outcome_count):
        eigenvalue = model.measured.eigenvalues[n]
        if n in branch_forms:
            form = branch_forms[n]
            detail = tuple(float(weights[n] * c**2) for c in form.coefficients)
            derived = float(sum(detail))
            parts = [Projector(np.outer(v, v.conj())) for v in form.basis2.T]
            try:
                additivity[n] = check_additivity(rho2, parts, tol)
            except ValueError:
                additivity[n] = float("inf")
            schmidt2 = form.basis2
        else:
            detail = ()
            derived = 0.0
            schmidt2 = np.zeros((model.d2, 0))
        try:
            complement_residual = complement_check(model, psi12, n, schmidt2, tol)
        except ValueError:
            complement_residual = complement[n] = float("inf")
        if n in branch_forms:
            complement[n] = complement_residual
        oracle = trace_probability(model.measured.projectors[n], rho_phi, tol)
        records.append(
            OutcomeRecord(
                outcome=n,
                eigenvalue=eigenvalue,
                derived=derived,
                oracle=oracle,
                schmidt_detail=detail,
                complement_residual=complement_residual,
            )
        )

    return ProbabilityReport(
        records=tuple(records),
        audits={
            "calibration": verify_calibration(model, tol, seed=seed),
            "nondemolition": verify_nondemolition(model, bset, tol),
            "norm_law": branch_norm_law(model, phi, bset, tol),
            "biorthogonality": Audit({None: biorth_residual}, tol),
            "additivity": Audit(additivity, tol),
            "complement": Audit(complement, tol),
            "prc": Audit({r.outcome: r.residual for r in records}, tol),
        },
    )
