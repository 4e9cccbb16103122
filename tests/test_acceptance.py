"""Acceptance suite: one test per acceptance criterion, at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see them
inline; they also appear in captured output).  The randomized premeasurement
suite is built once per module and shared by the criteria that audit it.
"""

import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from importlib import resources

import numpy as np
import pytest
from conftest import entangle_branches, projector_from_span, random_density, random_scenario

from envborn.born import check_additivity, derive_probabilities
from envborn.cli import main
from envborn.ensemble import frequency_check, sample_outcomes
from envborn.hilbert import (
    Operator,
    basis_state,
    complete_observable,
    identity,
)
from envborn.mixtures import (
    MixtureSpec,
    improper_probability,
    mix,
    proper_improper_equivalence,
    proper_probability,
    purify,
)
from envborn.premeasurement import (
    PointerApparatus,
    PremeasurementModel,
    verify_calibration,
)
from envborn.rng import (
    random_orthogonal_partition,
    random_projector,
    random_state,
    random_unitary,
)
from envborn.schmidt import (
    BipartiteState,
    SchmidtForm,
    check_envariance,
    reconstruct,
    schmidt_decompose,
    sublemma_check,
    swap_witness,
    twin_unitary,
)

SUITE_SEED = 20260808
SUITE_SIZE = 207  # 23 sweeps over the 9-point (d1, d2) grid


def verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


@dataclass
class SuiteEntry:
    model: object
    phi: object
    report: object


@pytest.fixture(scope="module")
def random_suite():
    """>= 200 randomized scenarios over the (d1, d2) grid, derived and audited."""
    rng = np.random.default_rng(SUITE_SEED)
    grid = [(d1, d2) for d1 in (2, 3, 4) for d2 in (2, 3, 4)]
    entries = []
    started = time.monotonic()
    while len(entries) < SUITE_SIZE:
        for d1, d2 in grid:
            outcomes = int(rng.integers(1, min(d1, d2) + 1))
            model, phi = random_scenario(d1, d2, outcomes, rng)
            if len(entries) % 2 == 1:
                # every other scenario gets an entangling block rotation, so
                # multi-term branch Schmidt forms are part of the suite
                model = entangle_branches(model, rng)
            report = derive_probabilities(model, phi, seed=int(rng.integers(2**32)))
            entries.append(SuiteEntry(model, phi, report))
    elapsed = time.monotonic() - started
    return entries, elapsed


def test_criterion_end_to_end_born(random_suite):
    entries, elapsed = random_suite
    worst = max(e.report.audits["prc"].max_residual for e in entries)
    complete = sum(
        1 for e in entries if e.model.outcome_count == e.model.measured.dim
    )
    degenerate = sum(
        1 for e in entries if max(e.model.measured.ranks) >= 2
    )
    rank1_pointers = sum(
        1
        for e in entries
        if min(e.model.apparatus.pointer_observable.ranks) == 1
    )
    wide_pointers = sum(
        1
        for e in entries
        if max(e.model.apparatus.pointer_observable.ranks) >= 2
    )
    assert len(entries) >= 200
    assert min(complete, degenerate, rank1_pointers, wide_pointers) > 0
    verdict(
        "end-to-end Born derivation (>=200 scenarios, residual <= 1e-9, <= 60 s)",
        worst <= 1e-9 and elapsed <= 60.0,
        f"n={len(entries)} max residual {worst:.3e}, {elapsed:.1f} s",
    )


def test_criterion_calibration(random_suite):
    entries, _ = random_suite
    worst = 0.0
    for e in entries:
        report = verify_calibration(e.model, trials=20, seed=SUITE_SEED)
        worst = max(worst, report.max_residual)

    # negative control: identity coupling must be flagged
    pointer_obs = complete_observable([basis_state(2, 0), basis_state(2, 1)])
    apparatus = PointerApparatus(basis_state(2, 0), pointer_obs, np.eye(2))
    measured = complete_observable([basis_state(2, 0), basis_state(2, 1)])
    uncoupled = PremeasurementModel(measured, apparatus, identity(4))
    control_flagged = not verify_calibration(uncoupled).passed

    verdict(
        "calibration condition (eigenspace bases + 20 random vectors, <= 1e-10)",
        worst <= 1e-10 and control_flagged,
        f"max residual {worst:.3e}, identity control flagged={control_flagged}",
    )


def test_criterion_nondemolition_and_norm_law(random_suite):
    entries, _ = random_suite
    worst_nd = max(e.report.audits["nondemolition"].max_residual for e in entries)
    worst_norm = max(e.report.audits["norm_law"].max_residual for e in entries)
    verdict(
        "nondemolition and branch norm law (<= 1e-10 on the random suite)",
        worst_nd <= 1e-10 and worst_norm <= 1e-10,
        f"nondemolition {worst_nd:.3e}, norm law {worst_norm:.3e}",
    )


def test_criterion_composite_biorthogonality(random_suite):
    entries, _ = random_suite
    worst = max(e.report.audits["biorthogonality"].max_residual for e in entries)
    verdict(
        "composite Schmidt biorthogonality across branches (<= 1e-10)",
        worst <= 1e-10,
        f"max residual {worst:.3e}",
    )


def test_criterion_envariance_witnesses():
    rng = np.random.default_rng(SUITE_SEED + 1)
    worst_twin = 0.0
    for _ in range(100):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        psi = BipartiteState(random_state(d1 * d2, rng).amplitudes.reshape(d1, d2))
        form = schmidt_decompose(psi)
        phases = rng.uniform(-np.pi, np.pi, size=len(form))
        u1, u2 = twin_unitary(form, phases)
        worst_twin = max(worst_twin, check_envariance(psi, u1, u2))

    worst_swap = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        terms = int(rng.integers(2, d + 1))
        u, v = random_unitary(d, rng), random_unitary(d, rng)
        form = SchmidtForm(np.full(terms, 1.0 / np.sqrt(terms)), u[:, :terms], v[:, :terms])
        psi = reconstruct(form)
        perm = list(rng.permutation(terms))
        u1, u2 = swap_witness(form, perm)
        worst_swap = max(worst_swap, check_envariance(psi, u1, u2))

    # non-envariant control: a one-sided flip moves the Bell state by sqrt(2)
    bell = BipartiteState(np.array([[1, 0], [0, 1]]) / np.sqrt(2))
    sx = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
    ident = Operator(np.eye(2, dtype=complex))
    control = abs(check_envariance(bell, sx, ident) - np.sqrt(2))

    verdict(
        "envariance witnesses (twin/swap <= 1e-10; one-sided control = sqrt(2))",
        worst_twin <= 1e-10 and worst_swap <= 1e-10 and control <= 1e-10,
        f"twin {worst_twin:.3e}, swap {worst_swap:.3e}, control gap {control:.3e}",
    )


def test_criterion_subprojector_lemma():
    rng = np.random.default_rng(SUITE_SEED + 2)
    worst = 0.0
    rejected = 0
    for _ in range(100):
        d1 = int(rng.integers(2, 4))
        d2 = int(rng.integers(d1, 5))
        psi = BipartiteState(random_state(d1 * d2, rng).amplitudes.reshape(d1, d2))
        form = schmidt_decompose(psi)
        support = list(form.basis2.T)
        # random orthogonal extension of the factor-2 Schmidt support
        full = np.linalg.svd(np.column_stack(support), full_matrices=True)[0]
        extra = int(rng.integers(0, d2 - len(support) + 1))
        span = support + [full[:, len(support) + j] for j in range(extra)]
        report = sublemma_check(psi, projector_from_span(span))
        assert report.passed
        worst = max(worst, report.max_residual)

        if len(support) >= 2:
            # hypothesis-violating pair: drop one support vector
            try:
                sublemma_check(psi, projector_from_span(support[:-1]))
            except ValueError:
                rejected += 1

    verdict(
        "sub-projector lemma (100 hypothesis-satisfying pairs <= 1e-10, violations rejected)",
        worst <= 1e-10 and rejected > 0,
        f"max residual {worst:.3e}, {rejected} violating pairs rejected",
    )


def test_criterion_mixture_identities():
    rng = np.random.default_rng(SUITE_SEED + 3)
    worst_proper = 0.0
    worst_improper = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
        states = np.column_stack([random_state(d, rng).amplitudes for _ in weights])
        spec = MixtureSpec(states, weights)
        basis = random_projector(d, int(rng.integers(1, d + 1)), rng)
        p = basis @ basis.conj().T
        # route 1: sub-ensemble sum; route 2: trace rule
        by_parts = sum(
            w * float((s.conj() @ (p @ s)).real)
            for s, w in zip(spec.states.T, spec.weights)
        )
        by_trace = float(np.trace(p @ mix(spec).matrix).real)
        proper_probability(basis, spec)  # raises if its internal check exceeds 1e-12
        worst_proper = max(worst_proper, abs(by_parts - by_trace))

        d2 = int(rng.integers(2, 5))
        psi = BipartiteState(random_state(d * d2, rng).amplitudes.reshape(d, d2))
        vec = psi.matrix.reshape(-1)
        on_composite = float((vec.conj() @ (np.kron(p, np.eye(d2)) @ vec)).real)
        on_reduced = improper_probability(basis, psi)
        worst_improper = max(worst_improper, abs(on_composite - on_reduced))

    worst_equiv = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(d))
        basis = random_unitary(d, rng)
        spec = MixtureSpec(basis, weights)
        psi = purify(mix(spec))
        worst_equiv = max(
            worst_equiv,
            proper_improper_equivalence(spec, psi, trials=50, seed=int(rng.integers(2**32))),
        )

    verdict(
        "mixture identities (<= 1e-12) and proper/improper equivalence (<= 1e-10)",
        worst_proper <= 1e-12 and worst_improper <= 1e-12 and worst_equiv <= 1e-10,
        f"proper {worst_proper:.3e}, improper {worst_improper:.3e}, equivalence {worst_equiv:.3e}",
    )


def test_criterion_finite_additivity():
    rng = np.random.default_rng(SUITE_SEED + 4)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        bases = random_orthogonal_partition(d, int(rng.integers(1, d + 1)), rng)
        worst = max(worst, check_additivity(rho, np.hstack(bases)))
    verdict(
        "finite additivity over 100 random (state, partition) pairs (<= 1e-10)",
        worst <= 1e-10,
        f"max residual {worst:.3e}",
    )


def test_criterion_ensemble_frequencies():
    started = time.monotonic()
    ok = True
    for p in ([0.5, 0.5], [2 / 3, 1 / 3]):
        for seed in range(20):
            run = sample_outcomes(p, 100000, seed)
            ok = ok and frequency_check(run, sigmas=4.0).passed
    certainty = sample_outcomes([0.0, 1.0], 100000, 0)
    ok = ok and certainty.counts == (0, 100000)
    elapsed = time.monotonic() - started
    verdict(
        "ensemble frequencies (4-sigma over 20 seeds, exact certainty, <= 10 s)",
        ok and elapsed <= 10.0,
        f"{elapsed:.1f} s",
    )


def test_criterion_cli_golden_files():
    fixtures = resources.files("envborn.fixtures")
    cases = {
        "bell": ("schmidt", 0),
        "product-state": ("schmidt", 0),
        "random-3x4": ("schmidt", 0),
        "degenerate-3d": ("derive", 0),
        "certainty": ("derive", 0),
        "broken-unitary": ("derive", 1),
        "mixtures-purified": ("mixtures", 0),
        "mixtures-bell": ("mixtures", 0),
        "sample-fair": ("sample", 0),
        "sample-certainty": ("sample", 0),
        "sample-biased": ("sample", 1),
    }
    ok = True
    for name, (command, expected_code) in cases.items():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main([command, str(fixtures / f"{name}.json"), "--format", "structured"])
        golden = (fixtures / "golden" / f"{name}.report.json").read_text(encoding="utf-8")
        ok = ok and code == expected_code and buffer.getvalue() == golden
    verdict(
        "CLI golden files byte-identical for every bundled fixture",
        ok,
        f"{len(cases)} fixtures",
    )
