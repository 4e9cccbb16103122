import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    entangle_branches,
    random_density,
    random_orthogonal_partition,
    random_scenario,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from envborn.born import (
    check_additivity,
    complement_check,
    derive_probabilities,
)
from envborn.hilbert import (
    Observable,
    Operator,
    StateVector,
    basis_state,
    complete_observable,
    identity,
    make_state,
    orthonormalize,
    pure_density,
    trace_probability,
)
from envborn.premeasurement import (
    PointerApparatus,
    PremeasurementModel,
    branches,
    build_premeasurement,
    evolve,
    schmidt_forms,
)

D2 = 2
D3 = 3
POINTER2 = 2


def qubit_apparatus():
    b = complete_observable([basis_state(POINTER2, 0), basis_state(POINTER2, 1)])
    return PointerApparatus(basis_state(POINTER2, 0), b, np.eye(POINTER2))


def cnot_model():
    a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)], [1.0, -1.0])
    return build_premeasurement(a, qubit_apparatus())


def degenerate_model():
    a = Observable([1.0, -1.0], [np.eye(D3)[:, :2], np.eye(D3)[:, 2:]])
    return build_premeasurement(a, qubit_apparatus())


def pointer_basis(model, n):
    return model.apparatus.pointer_observable.bases[n]


class TestDeriveProbabilities:
    def test_complete_observable_amplitude_squares(self):
        report = derive_probabilities(cnot_model(), make_state([0.6, 0.8]))
        assert report.derived == pytest.approx([0.36, 0.64], abs=1e-12)
        assert report.audits["prc"].max_residual <= 1e-10
        assert report.passed

    def test_degenerate_eigenspace_weights(self):
        report = derive_probabilities(degenerate_model(), make_state([1, 1, 1]))
        assert report.derived == pytest.approx([2 / 3, 1 / 3], abs=1e-10)
        assert report.passed

    def test_eigenstate_certainty(self):
        report = derive_probabilities(degenerate_model(), basis_state(D3, 2))
        assert report.derived == pytest.approx([0.0, 1.0], abs=1e-12)
        assert report.passed

    def test_audit_failures_reported_not_raised(self):
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)], [1.0, -1.0])
        broken = PremeasurementModel(a, qubit_apparatus(), identity(4))
        report = derive_probabilities(broken, make_state([0.6, 0.8]))
        assert not report.audits["calibration"].passed
        assert not report.audits["prc"].passed
        assert not report.passed
        with pytest.raises(TypeError):
            report.audits["calibration"] = report.audits["nondemolition"]
        # derived values still form a distribution
        assert sum(report.derived) == pytest.approx(1.0, abs=1e-10)

    def test_branch_weight_below_threshold_still_passes(self):
        # weight 1e-14 falls under the zero-branch threshold: outcome omitted,
        # derived 0, and the audits must not trip on the sqrt(weight)-sized
        # leftover under the omitted pointer projector
        report = derive_probabilities(cnot_model(), make_state([1.0, 1e-7]))
        assert report.passed
        assert report.records[1].derived == 0.0
        assert report.records[1].schmidt_detail == ()
        assert report.records[1].complement_residual == pytest.approx(1e-7, rel=1e-4)

    def test_global_phase_invariance(self):
        model = degenerate_model()
        phi = make_state([1, 1j, -1])
        shifted = make_state(np.exp(0.9j) * phi.amplitudes)
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
            report = derive_probabilities(model, phi)
            assert report.passed
            assert report.audits["prc"].max_residual <= 1e-9

    def test_composite_biorthogonality_residual(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            model, phi = random_scenario(4, 4, 2, rng)
            report = derive_probabilities(model, phi)
            assert report.audits["biorthogonality"].max_residual <= 1e-10

    def test_branch_detail_sums_to_branch_weight(self):
        # the per-term detail is basis-dependent; its sum is the weight
        rng = np.random.default_rng(43)
        model, phi = random_scenario(3, 4, 2, rng)
        report = derive_probabilities(model, phi)
        weights = {b.outcome: b.weight for b in branches(model, evolve(model, phi))}
        for record in report.records:
            if record.schmidt_detail:
                assert sum(record.schmidt_detail) == pytest.approx(
                    weights[record.outcome], abs=1e-12
                )

    def test_pointer_state_choice_does_not_move_probabilities(self):
        # two different designated pointer states inside the same rank-2
        # pointer eigenspace: details differ, outcome sums agree
        pointer_obs = Observable([0.0, 1.0], [np.eye(3)[:, :2], np.eye(3)[:, 2:]])
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)])
        phi = make_state([0.6, 0.8])
        derived = []
        for chi0 in (basis_state(3, 0), make_state([1, 1, 0])):
            states = np.column_stack([chi0.amplitudes, basis_state(3, 2).amplitudes])
            apparatus = PointerApparatus(basis_state(3, 2), pointer_obs, states)
            model = build_premeasurement(a, apparatus)
            report = derive_probabilities(model, phi)
            assert report.passed
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
            report = derive_probabilities(model, phi)
            assert report.passed
            assert report.audits["prc"].max_residual <= 1e-9
            found_multi = found_multi or any(
                len(r.schmidt_detail) > 1 for r in report.records
            )
        assert found_multi

    def test_additivity_sums_terms_to_branch_weight(self):
        rng = np.random.default_rng(61)
        base, phi = random_scenario(4, 4, 2, rng)
        model = entangle_branches(base, rng)
        report = derive_probabilities(model, phi)
        weights = {b.outcome: b.weight for b in branches(model, evolve(model, phi))}
        for record in report.records:
            if len(record.schmidt_detail) > 1:
                assert sum(record.schmidt_detail) == pytest.approx(
                    weights[record.outcome], abs=1e-12
                )

    def test_rank3_pointer_projector_with_rank2_branch(self):
        # explicit rank gap: Q^0 has rank 3, the branch Schmidt rank is at
        # most 2, so the complement keeps rank >= 1 yet annihilates the state
        rng = np.random.default_rng(62)
        pointer_obs = Observable([0.0, 1.0], [np.eye(4)[:, :3], np.eye(4)[:, 3:]])
        apparatus = PointerApparatus(basis_state(4, 0), pointer_obs, np.eye(4)[:, [0, 3]])
        a = Observable([1.0, -1.0], [np.eye(D3)[:, :2], np.eye(D3)[:, 2:]])
        model = entangle_branches(build_premeasurement(a, apparatus), rng)
        phi = make_state([1, 1, 1])
        psi12 = evolve(model, phi)
        form = schmidt_forms(branches(model, psi12))[0]
        assert form.basis2.shape[1] == 2
        assert complement_check(psi12, pointer_basis(model, 0), form.basis2) <= 1e-10
        report = derive_probabilities(model, phi)
        assert report.passed


class TestComplementCheck:
    def test_rank1_pointer_projector_gives_zero_complement(self):
        model = cnot_model()
        phi = make_state([0.6, 0.8])
        psi12 = evolve(model, phi)
        form = schmidt_forms(branches(model, psi12))[0]
        residual = complement_check(psi12, pointer_basis(model, 0), form.basis2)
        assert residual <= 1e-12

    def test_higher_rank_pointer_projector_annihilates(self):
        # rank-2 pointer eigenspace, branch Schmidt rank 1: the complement is
        # rank 1 yet annihilates the composite state
        pointer_obs = Observable([0.0, 1.0], [np.eye(3)[:, :2], np.eye(3)[:, 2:]])
        apparatus = PointerApparatus(basis_state(3, 0), pointer_obs, np.eye(3)[:, [0, 2]])
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)])
        model = build_premeasurement(a, apparatus)
        phi = make_state([0.6, 0.8])
        psi12 = evolve(model, phi)
        form = schmidt_forms(branches(model, psi12))[0]
        assert form.basis2.shape[1] == 1
        residual = complement_check(psi12, pointer_basis(model, 0), form.basis2)
        assert residual <= 1e-10

    def test_random_rank_gap_scenarios(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            model, phi = random_scenario(4, 4, 2, rng)
            psi12 = evolve(model, phi)
            for n, form in schmidt_forms(branches(model, psi12)).items():
                assert complement_check(psi12, pointer_basis(model, n), form.basis2) <= 1e-10

    @staticmethod
    def _skewed_pointer_model():
        # Q^1 spans orthonormalized complex vectors, so Q^1 fixes its own
        # vectors only to ~1e-16; Q^0 = e0 e0^H is exact
        q1 = orthonormalize([[0, 1, 2j], [0, 2j, 1]])
        apparatus = PointerApparatus(
            basis_state(3, 0),
            Observable([0.0, 1.0], [np.eye(3)[:, :1], q1]),
            np.column_stack([basis_state(3, 0).amplitudes, q1[:, 0]]),
        )
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)])
        return build_premeasurement(a, apparatus)

    def test_omitted_outcome_complement_is_not_revalidated(self):
        # outcome 1 is omitted: its complement is Q^1 itself, which the
        # pointer observable's Gram check already decided, so even at tol
        # 1e-20 it is reported, not re-validated, and stays out of the audit
        report = derive_probabilities(self._skewed_pointer_model(), basis_state(D2, 0), tol=1e-20)
        complement = report.audits["complement"]
        assert complement.residuals == {0: 0.0}
        assert complement.passed
        assert report.records[1].complement_residual == 0.0

    def test_kept_outcome_complement_failure_reports_inf(self):
        # outcome 1 is kept: at tol 1e-20 its Schmidt vector leaves Q^1 by a
        # rounding-sized residual, so the sub-projector relation fails and
        # the audit and the record both hold inf
        report = derive_probabilities(self._skewed_pointer_model(), make_state([1, 1]), tol=1e-20)
        complement = report.audits["complement"]
        assert complement.residuals == {0: 0.0, 1: float("inf")}
        assert not complement.passed
        assert report.records[1].complement_residual == float("inf")


class TestCheckAdditivity:
    def test_complete_basis_partition(self):
        rng = np.random.default_rng(45)
        rho = random_density(4, rng)
        assert check_additivity(rho, np.eye(4)) <= 1e-12

    def test_two_parts_of_a_rank2_projector(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            rho = random_density(3, rng)
            basis = np.hstack(random_orthogonal_partition(3, 3, rng)[:2])
            assert check_additivity(rho, basis) <= 1e-10

    def test_zero_projector_part(self):
        # no columns: the zero projector, with probability 0 on both sides;
        # a zero column is no basis vector and fails the Gram check
        rho = pure_density(make_state([1, 1]))
        assert check_additivity(rho, np.zeros((2, 0))) == 0.0
        assert check_additivity(rho, np.column_stack([[1, 0], [0, 0]])) == float("inf")

    def test_non_orthogonal_parts_rejected(self):
        rho = pure_density(basis_state(2, 0))
        basis = np.column_stack([[1, 0], make_state([1, 1]).amplitudes])
        assert check_additivity(rho, basis) == float("inf")


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
        report = derive_probabilities(cnot_model(), make_state([0.6, 0.8]))
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
            oracle = trace_probability(model.measured.bases[record.outcome], rho)
            assert record.derived == pytest.approx(oracle, abs=1e-9)


def _rotated(obs, u):
    return Observable(obs.eigenvalues, [u @ b for b in obs.bases])


def _moved(state, u):
    return StateVector(u @ state.amplitudes)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_local_basis_change_invariance(d1, d2, outcomes, seed):
    # A Haar U1 on the system (measured projectors and phi) and a Haar V2 on
    # the apparatus (pointer projectors, ready and pointer states) describe
    # the same measurement in other local bases: nothing derived may move.
    rng = np.random.default_rng(seed)
    model, phi = random_scenario(d1, d2, min(outcomes, d1, d2), rng)
    u1, v2 = random_unitary(d1, rng), random_unitary(d2, rng)
    measured = _rotated(model.measured, u1)
    app = model.apparatus
    apparatus = PointerApparatus(
        _moved(app.ready_state, v2),
        _rotated(app.pointer_observable, v2),
        v2 @ app.pointer_states,
    )
    before = derive_probabilities(model, phi)
    after = derive_probabilities(build_premeasurement(measured, apparatus), _moved(phi, u1))
    assert np.max(np.abs(np.subtract(after.derived, before.derived))) <= 1e-10
    assert [a.passed for a in after.audits.values()] == [
        a.passed for a in before.audits.values()
    ]


def test_parallel_scenarios_match_sequential():
    # independent scenarios share no state: a thread pool must reproduce the
    # sequential results bit for bit
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(49)
    scenarios = [random_scenario(3, 3, 2, rng) for _ in range(12)]
    sequential = [derive_probabilities(m, p).derived for m, p in scenarios]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(
            pool.map(lambda mp: derive_probabilities(mp[0], mp[1]).derived, scenarios)
        )
    assert parallel == sequential


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (example,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    exec(compile(example, "README.md", "exec"), {})
    derived, passed = capsys.readouterr().out.splitlines()
    assert derived.startswith("[0.36")
    assert passed == "True"
