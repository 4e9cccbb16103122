import dataclasses

import numpy as np
import pytest
from conftest import entangle_branches, random_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

from envborn.born import (
    check_additivity,
    complement_check,
    derive_probabilities,
)
from envborn.hilbert import (
    HilbertSpace,
    Operator,
    Projector,
    StateVector,
    basis_state,
    complete_observable,
    identity,
    make_state,
    projector_from_span,
    pure_density,
    spectral_observable,
    trace_probability,
)
from envborn.premeasurement import (
    PointerApparatus,
    PremeasurementModel,
    branches,
    build_premeasurement,
    evolve,
)
from envborn.rng import random_density, random_orthogonal_partition, random_unitary
from envborn.schmidt import BipartiteState, schmidt_decompose

D2 = HilbertSpace(2, "sys")
D3 = HilbertSpace(3, "sys")
POINTER2 = HilbertSpace(2, "pointer")


def qubit_apparatus():
    b = complete_observable([basis_state(POINTER2, 0), basis_state(POINTER2, 1)])
    return PointerApparatus(
        POINTER2,
        basis_state(POINTER2, 0),
        b,
        (basis_state(POINTER2, 0), basis_state(POINTER2, 1)),
    )


def cnot_model():
    a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)], [1.0, -1.0])
    return build_premeasurement(a, qubit_apparatus())


def degenerate_model():
    a = spectral_observable(
        [1.0, -1.0],
        [
            projector_from_span([basis_state(D3, 0), basis_state(D3, 1)]),
            projector_from_span([basis_state(D3, 2)]),
        ],
    )
    return build_premeasurement(a, qubit_apparatus())


class TestDeriveProbabilities:
    def test_complete_observable_amplitude_squares(self):
        report = derive_probabilities(cnot_model(), make_state(D2, [0.6, 0.8]))
        assert report.derived == pytest.approx([0.36, 0.64], abs=1e-12)
        assert report.max_oracle_residual <= 1e-10
        assert report.flags.all_ok

    def test_degenerate_eigenspace_weights(self):
        report = derive_probabilities(degenerate_model(), make_state(D3, [1, 1, 1]))
        assert report.derived == pytest.approx([2 / 3, 1 / 3], abs=1e-10)
        assert report.flags.all_ok

    def test_eigenstate_certainty(self):
        report = derive_probabilities(degenerate_model(), basis_state(D3, 2))
        assert report.derived == pytest.approx([0.0, 1.0], abs=1e-12)
        assert report.flags.all_ok

    def test_audit_failures_reported_not_raised(self):
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)], [1.0, -1.0])
        broken = PremeasurementModel(a, qubit_apparatus(), identity(HilbertSpace(4)))
        report = derive_probabilities(broken, make_state(D2, [0.6, 0.8]))
        assert not report.flags.cc_ok
        assert not report.flags.prc_ok
        assert not report.flags.all_ok
        # derived values still form a distribution
        assert sum(report.derived) == pytest.approx(1.0, abs=1e-10)

    def test_branch_weight_below_threshold_still_passes(self):
        # weight 1e-14 falls under the zero-branch threshold: outcome omitted,
        # derived 0, and the audits must not trip on the sqrt(weight)-sized
        # leftover under the omitted pointer projector
        report = derive_probabilities(cnot_model(), make_state(D2, [1.0, 1e-7]))
        assert report.flags.all_ok
        assert report.records[1].derived == 0.0
        assert report.records[1].schmidt_detail == ()
        assert report.records[1].complement_residual == pytest.approx(1e-7, rel=1e-4)

    def test_global_phase_invariance(self):
        model = degenerate_model()
        phi = make_state(D3, [1, 1j, -1])
        shifted = make_state(D3, np.exp(0.9j) * phi.amplitudes)
        a = derive_probabilities(model, phi)
        b = derive_probabilities(model, shifted)
        for ra, rb in zip(a.records, b.records):
            assert abs(ra.derived - rb.derived) <= 1e-12
            assert abs(ra.oracle - rb.oracle) <= 1e-12

    def test_random_scenarios_match_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            outcomes = int(rng.integers(1, min(d1, d2) + 1))
            model, phi = random_scenario(d1, d2, outcomes, rng)
            report = derive_probabilities(model, phi, seed=int(rng.integers(2**32)))
            assert report.flags.all_ok
            assert report.max_oracle_residual <= 1e-9

    def test_composite_biorthogonality_residual(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            model, phi = random_scenario(4, 4, 2, rng)
            report = derive_probabilities(model, phi)
            assert report.audit_residuals["biorthogonality"] <= 1e-10

    def test_branch_detail_sums_to_branch_weight(self):
        # the per-term detail is basis-dependent; its sum is the weight
        rng = np.random.default_rng(43)
        model, phi = random_scenario(3, 4, 2, rng)
        report = derive_probabilities(model, phi)
        bset = branches(model, evolve(model, phi))
        for record in report.records:
            if record.schmidt_detail:
                assert sum(record.schmidt_detail) == pytest.approx(
                    bset.weights[record.outcome], abs=1e-12
                )

    def test_pointer_state_choice_does_not_move_probabilities(self):
        # two different designated pointer states inside the same rank-2
        # pointer eigenspace: details differ, outcome sums agree
        ptr3 = HilbertSpace(3, "pointer")
        q0 = projector_from_span([basis_state(ptr3, 0), basis_state(ptr3, 1)])
        q1 = projector_from_span([basis_state(ptr3, 2)])
        pointer_obs = spectral_observable([0.0, 1.0], [q0, q1])
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)])
        phi = make_state(D2, [0.6, 0.8])
        derived = []
        for chi0 in (basis_state(ptr3, 0), make_state(ptr3, [1, 1, 0])):
            apparatus = PointerApparatus(
                ptr3,
                basis_state(ptr3, 2),
                pointer_obs,
                (chi0, basis_state(ptr3, 2)),
            )
            model = build_premeasurement(a, apparatus)
            report = derive_probabilities(model, phi)
            assert report.flags.all_ok
            derived.append(report.derived)
        assert derived[0] == pytest.approx(derived[1], abs=1e-10)


class TestEntangledBranches:
    # couplings that entangle inside each P^k (x) Q^k block keep every
    # premeasurement property but give branches with Schmidt rank > 1

    def test_pipeline_passes_with_multi_term_branches(self):
        rng = np.random.default_rng(60)
        found_multi = False
        for _ in range(10):
            base, phi = random_scenario(4, 4, 2, rng)
            model = entangle_branches(base, rng)
            report = derive_probabilities(model, phi, seed=int(rng.integers(2**32)))
            assert report.flags.all_ok
            assert report.max_oracle_residual <= 1e-9
            found_multi = found_multi or any(
                len(r.schmidt_detail) > 1 for r in report.records
            )
        assert found_multi

    def test_additivity_sums_terms_to_branch_weight(self):
        rng = np.random.default_rng(61)
        base, phi = random_scenario(4, 4, 2, rng)
        model = entangle_branches(base, rng)
        report = derive_probabilities(model, phi)
        bset = branches(model, evolve(model, phi))
        for record in report.records:
            if len(record.schmidt_detail) > 1:
                assert sum(record.schmidt_detail) == pytest.approx(
                    bset.weights[record.outcome], abs=1e-12
                )

    def test_rank3_pointer_projector_with_rank2_branch(self):
        # explicit rank gap: Q^0 has rank 3, the branch Schmidt rank is at
        # most 2, so the complement keeps rank >= 1 yet annihilates the state
        rng = np.random.default_rng(62)
        ptr4 = HilbertSpace(4, "pointer")
        q0 = projector_from_span([basis_state(ptr4, i) for i in range(3)])
        q1 = projector_from_span([basis_state(ptr4, 3)])
        pointer_obs = spectral_observable([0.0, 1.0], [q0, q1])
        apparatus = PointerApparatus(
            ptr4,
            basis_state(ptr4, 0),
            pointer_obs,
            (basis_state(ptr4, 0), basis_state(ptr4, 3)),
        )
        a = spectral_observable(
            [1.0, -1.0],
            [
                projector_from_span([basis_state(D3, 0), basis_state(D3, 1)]),
                projector_from_span([basis_state(D3, 2)]),
            ],
        )
        model = entangle_branches(build_premeasurement(a, apparatus), rng)
        phi = make_state(D3, [1, 1, 1])
        psi12 = evolve(model, phi)
        b = branches(model, psi12).branches[0]
        form = schmidt_decompose(BipartiteState(b.normalized()))
        assert len(form.basis2) == 2
        assert complement_check(model, psi12, 0, form.basis2) <= 1e-10
        report = derive_probabilities(model, phi)
        assert report.flags.all_ok


class TestComplementCheck:
    def test_rank1_pointer_projector_gives_zero_complement(self):
        model = cnot_model()
        phi = make_state(D2, [0.6, 0.8])
        psi12 = evolve(model, phi)
        bset = branches(model, psi12)
        b = bset.branches[0]
        form = schmidt_decompose(BipartiteState(b.normalized()))
        residual = complement_check(model, psi12, 0, form.basis2)
        assert residual <= 1e-12

    def test_higher_rank_pointer_projector_annihilates(self):
        # rank-2 pointer eigenspace, branch Schmidt rank 1: the complement is
        # rank 1 yet annihilates the composite state
        ptr3 = HilbertSpace(3, "pointer")
        q0 = projector_from_span([basis_state(ptr3, 0), basis_state(ptr3, 1)])
        q1 = projector_from_span([basis_state(ptr3, 2)])
        pointer_obs = spectral_observable([0.0, 1.0], [q0, q1])
        apparatus = PointerApparatus(
            ptr3,
            basis_state(ptr3, 0),
            pointer_obs,
            (basis_state(ptr3, 0), basis_state(ptr3, 2)),
        )
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)])
        model = build_premeasurement(a, apparatus)
        phi = make_state(D2, [0.6, 0.8])
        psi12 = evolve(model, phi)
        b = branches(model, psi12).branches[0]
        form = schmidt_decompose(BipartiteState(b.normalized()))
        assert len(form.basis2) == 1
        residual = complement_check(model, psi12, 0, form.basis2)
        assert residual <= 1e-10

    def test_random_rank_gap_scenarios(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            model, phi = random_scenario(4, 4, 2, rng)
            psi12 = evolve(model, phi)
            for b in branches(model, psi12).branches:
                form = schmidt_decompose(BipartiteState(b.normalized()))
                assert complement_check(model, psi12, b.outcome, form.basis2) <= 1e-10


class TestCheckAdditivity:
    def test_complete_basis_partition(self):
        rng = np.random.default_rng(45)
        space = HilbertSpace(4)
        rho = random_density(space, rng)
        parts = [projector_from_span([basis_state(space, i)]) for i in range(4)]
        assert check_additivity(rho, parts) <= 1e-12

    def test_two_parts_of_a_rank2_projector(self):
        rng = np.random.default_rng(46)
        space = HilbertSpace(3)
        for _ in range(20):
            rho = random_density(space, rng)
            parts = random_orthogonal_partition(space, 3, rng)[:2]
            assert check_additivity(rho, parts) <= 1e-10

    def test_zero_projector_part(self):
        space = HilbertSpace(2)
        rho = pure_density(make_state(space, [1, 1]))
        zero = Projector(Operator(space, np.zeros((2, 2), dtype=complex)))
        p = projector_from_span([basis_state(space, 0)])
        assert check_additivity(rho, [p, zero]) == 0.0

    def test_non_orthogonal_parts_rejected(self):
        space = HilbertSpace(2)
        rho = pure_density(basis_state(space, 0))
        p = projector_from_span([basis_state(space, 0)])
        q = projector_from_span([make_state(space, [1, 1])])
        with pytest.raises(ValueError, match="0 and 1 are not orthogonal"):
            check_additivity(rho, [p, q])


class TestCheckPrc:
    def test_pipeline_reports_satisfy_prc(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            model, phi = random_scenario(3, 3, 2, rng)
            report = derive_probabilities(model, phi)
            assert max(r.residual for r in report.records) <= 1e-10

    def test_certainty_residual_zero(self):
        report = derive_probabilities(degenerate_model(), basis_state(D3, 2))
        residuals = [r.residual for r in report.records]
        assert residuals[1] <= 1e-14

    def test_corrupted_report_flagged(self):
        report = derive_probabilities(cnot_model(), make_state(D2, [0.6, 0.8]))
        # shift probability between outcomes to keep the distribution valid
        r0, r1 = report.records
        corrupted = dataclasses.replace(
            report,
            records=(
                dataclasses.replace(r0, derived=r0.derived + 1e-3),
                dataclasses.replace(r1, derived=r1.derived - 1e-3),
            ),
        )
        assert max(r.residual for r in corrupted.records) > 1e-4


class TestOracleAgreement:
    def test_derived_equals_trace_rule_on_input(self):
        rng = np.random.default_rng(48)
        model, phi = random_scenario(4, 3, 3, rng)
        report = derive_probabilities(model, phi)
        rho = pure_density(phi)
        for record in report.records:
            oracle = trace_probability(model.measured.projectors[record.outcome], rho)
            assert record.derived == pytest.approx(oracle, abs=1e-9)


def _rotated(projectors, u):
    return [Projector(Operator(p.space, u @ p.matrix @ u.conj().T)) for p in projectors]


def _moved(state, u):
    return StateVector(state.space, u @ state.amplitudes)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_local_basis_change_invariance(d1, d2, outcomes, seed):
    # A Haar U1 on the system (measured projectors and phi) and a Haar V2 on
    # the apparatus (pointer projectors, ready and pointer states) describe
    # the same measurement in other local bases: nothing derived may move.
    rng = np.random.default_rng(seed)
    model, phi = random_scenario(d1, d2, min(outcomes, d1, d2), rng)
    u1, v2 = random_unitary(d1, rng), random_unitary(d2, rng)
    measured = spectral_observable(
        model.measured.eigenvalues, _rotated(model.measured.projectors, u1)
    )
    app = model.apparatus
    pointer_obs = spectral_observable(
        app.pointer_observable.eigenvalues, _rotated(app.pointer_observable.projectors, v2)
    )
    apparatus = PointerApparatus(
        app.space,
        _moved(app.ready_state, v2),
        pointer_obs,
        tuple(_moved(chi, v2) for chi in app.pointer_states),
    )
    before = derive_probabilities(model, phi)
    after = derive_probabilities(build_premeasurement(measured, apparatus), _moved(phi, u1))
    assert np.max(np.abs(np.subtract(after.derived, before.derived))) <= 1e-10
    assert after.flags == before.flags


def test_parallel_scenarios_match_sequential():
    # independent scenarios share no state: a thread pool must reproduce the
    # sequential results bit for bit
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(49)
    scenarios = [random_scenario(3, 3, 2, rng) for _ in range(12)]
    sequential = [derive_probabilities(m, p, seed=7).derived for m, p in scenarios]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(
            pool.map(lambda mp: derive_probabilities(mp[0], mp[1], seed=7).derived, scenarios)
        )
    assert parallel == sequential
