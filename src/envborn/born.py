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
residuals.  Audit failures set flags in the report instead of raising, so
adversarial couplings produce a readable diagnosis.

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
from typing import Sequence

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    DensityOperator,
    Operator,
    Projector,
    StateVector,
    check_orthogonal,
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
from .schmidt import BipartiteState, SchmidtForm, gram_residual, pointer_density, schmidt_decompose

__all__ = [
    "OutcomeRecord",
    "AuditFlags",
    "ProbabilityReport",
    "derive_probabilities",
    "pointer_density",
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
class AuditFlags:
    cc_ok: bool
    nondemolition_ok: bool
    norm_law_ok: bool
    biorthogonality_ok: bool
    additivity_ok: bool
    complement_ok: bool
    prc_ok: bool

    @property
    def all_ok(self) -> bool:
        return all(vars(self).values())


@dataclass(frozen=True)
class ProbabilityReport:
    records: tuple[OutcomeRecord, ...]
    flags: AuditFlags
    audit_residuals: dict[str, float]
    tolerance: float

    def __post_init__(self):
        derived = [r.derived for r in self.records]
        if any(p < 0 for p in derived):
            raise ValueError("derived probabilities must be nonnegative")
        if abs(sum(derived) - 1.0) > 1e-10:
            raise ValueError(f"derived probabilities sum to {sum(derived)!r}")
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def derived(self) -> list[float]:
        return [r.derived for r in self.records]

    @property
    def max_oracle_residual(self) -> float:
        return max(r.residual for r in self.records)


def complement_check(
    model: PremeasurementModel,
    psi12: BipartiteState,
    outcome: int,
    schmidt2: Sequence[StateVector],
    tol: float = DEFAULT_TOL,
) -> float:
    """Norm of ``(I (x) (Q^k)') psi = Psi @ (Q^k)'.T`` where ``(Q^k)'`` is the
    pointer projector minus the branch's factor-2 Schmidt span.

    The sub-projector relation guarantees ``(Q^k)'`` is again a projector;
    if its projector invariants fail a ValueError is raised, since that
    signals a violated sub-projector relation rather than a mere audit miss.
    """
    q = model.apparatus.pointer_observable.projectors[outcome]
    comp = np.array(q.matrix, dtype=complex)
    for v in schmidt2:
        comp -= np.outer(v.amplitudes, v.amplitudes.conj())
    # Raises when not Hermitian/idempotent within tol.
    Projector(Operator(q.space, comp), tol)
    return float(np.linalg.norm(psi12.matrix @ comp.T))


def check_additivity(
    rho: DensityOperator, parts: Sequence[Projector], tol: float = DEFAULT_TOL
) -> float:
    """Finite additivity of the trace rule: ``|p(sum parts) - sum p(parts)|``.

    Parts must be mutually orthogonal.  All finite-dimensional scenarios can
    only exercise the finite restriction of countable additivity.
    """
    check_orthogonal(parts, tol)
    total = np.zeros((rho.space.dim, rho.space.dim), dtype=complex)
    for p in parts:
        total += p.matrix
    whole = trace_probability(Projector(Operator(rho.space, total), tol), rho, tol)
    pieces = sum(trace_probability(p, rho, tol) for p in parts)
    return abs(whole - pieces)


def derive_probabilities(
    model: PremeasurementModel,
    phi: StateVector,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    calibration_trials: int = 20,
) -> ProbabilityReport:
    """Run the full pipeline and audit every step.

    Steps: couple the input to the ready apparatus; split into pointer
    branches; Schmidt-decompose each normalized branch; verify the assembled
    composite decomposition is biorthogonal across branches on both factors;
    square composite coefficients for per-term probabilities; sum terms within
    each branch (finite additivity, audited against the trace rule); verify
    the pointer-complement projector annihilates the state so it contributes
    zero; transfer each pointer-event probability to the measured event
    (probability reproducibility) and compare with the trace-rule oracle.

    Audit failures are reported through flags, never raised.
    """
    psi12 = evolve(model, phi)
    bset = branches(model, psi12)
    rho_phi = pure_density(phi)
    rho2 = pointer_density(psi12)

    branch_forms: dict[int, SchmidtForm] = {}
    for b in bset.branches:
        branch_forms[b.outcome] = schmidt_decompose(BipartiteState(b.normalized()))

    # Composite biorthogonality: the union of branch Schmidt vectors must be
    # orthonormal on each factor.
    all1 = [v for form in branch_forms.values() for v in form.basis1]
    all2 = [v for form in branch_forms.values() for v in form.basis2]
    biorth_residual = max(gram_residual(all1), gram_residual(all2))

    weights = bset.weights
    additivity_residuals = [0.0]
    # Complement annihilation is a step of the derivation only for kept
    # branches (the nonzero-term reindexing); omitted outcomes report the
    # full pointer-projector residual sqrt(weight) for information, and are
    # already covered by the norm law's vanishing-oracle check.
    kept_complement: list[float] = [0.0]
    complement_ok = True
    records = []
    for n in range(model.outcome_count):
        eigenvalue = model.measured.eigenvalues[n]
        if n in branch_forms:
            form = branch_forms[n]
            detail = tuple(float(weights[n] * c**2) for c in form.coefficients)
            derived = float(sum(detail))
            parts = [
                Projector(
                    Operator(form.basis2[0].space, np.outer(v.amplitudes, v.amplitudes.conj()))
                )
                for v in form.basis2
            ]
            try:
                additivity_residuals.append(check_additivity(rho2, parts, tol))
            except ValueError:
                additivity_residuals.append(float("inf"))
            schmidt2 = form.basis2
        else:
            detail = ()
            derived = 0.0
            schmidt2 = ()
        try:
            complement_residual = complement_check(model, psi12, n, schmidt2, tol)
        except ValueError:
            complement_residual = float("inf")
            complement_ok = False
        if n in branch_forms:
            kept_complement.append(complement_residual)
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

    calibration = verify_calibration(model, tol, trials=calibration_trials, seed=seed)
    nondemolition = verify_nondemolition(model, bset, tol)
    norm_law = branch_norm_law(model, phi, bset, tol)
    prc_residuals = [r.residual for r in records]

    max_complement = max(kept_complement)
    flags = AuditFlags(
        cc_ok=calibration.passed,
        nondemolition_ok=nondemolition.passed,
        norm_law_ok=norm_law.passed,
        biorthogonality_ok=biorth_residual <= tol,
        additivity_ok=max(additivity_residuals) <= tol,
        complement_ok=complement_ok and max_complement <= tol,
        prc_ok=max(prc_residuals) <= tol,
    )
    audit_residuals = {
        "calibration": calibration.max_residual,
        "nondemolition": nondemolition.max_residual,
        "norm_law": norm_law.max_residual,
        "biorthogonality": biorth_residual,
        "additivity": max(additivity_residuals),
        "complement": max_complement,
        "prc": max(prc_residuals),
    }
    return ProbabilityReport(
        records=tuple(records),
        flags=flags,
        audit_residuals=audit_residuals,
        tolerance=tol,
    )
