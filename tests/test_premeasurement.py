import numpy as np
import pytest
from conftest import dense_coupling

from envborn.hilbert import (
    HilbertSpace,
    Observable,
    Operator,
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
    branch_norm_law,
    branches,
    build_premeasurement,
    eigenspace_basis,
    evolve,
    householder_map,
    verify_calibration,
    verify_nondemolition,
)
from envborn.rng import (
    random_orthogonal_partition,
    random_state,
    random_unit_vector,
)

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


def coupled_branches(model, phi):
    return branches(model, evolve(model, phi))


def cnot_model():
    a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)], [1.0, -1.0])
    return build_premeasurement(a, qubit_apparatus())


def degenerate_model():
    # P^1 = span{e0, e1}, P^2 = span{e2} on a 3-dim system with a qubit pointer
    a = spectral_observable(
        [1.0, -1.0],
        [
            projector_from_span([basis_state(D3, 0), basis_state(D3, 1)]),
            projector_from_span([basis_state(D3, 2)]),
        ],
    )
    return build_premeasurement(a, qubit_apparatus())


def random_model(d1, d2, outcomes, rng, pointer_label=""):
    """Random degenerate or complete model used across the verification suite."""
    sys_space = HilbertSpace(d1, "sys")
    ptr_space = HilbertSpace(d2, pointer_label or "pointer")
    measured = spectral_observable(
        sorted(rng.normal(size=outcomes) * 3, reverse=True),
        random_orthogonal_partition(sys_space, outcomes, rng),
    )
    pointer_projs = random_orthogonal_partition(ptr_space, outcomes, rng)
    pointer_obs = spectral_observable(list(range(outcomes)), pointer_projs)
    pointer_states = tuple(
        make_state(ptr_space, eigenspace_basis(q)[0]) for q in pointer_projs
    )
    ready = random_state(ptr_space, rng)
    apparatus = PointerApparatus(ptr_space, ready, pointer_obs, pointer_states)
    return build_premeasurement(measured, apparatus)


class TestHouseholderMap:
    def test_equal_states_give_identity(self):
        v = make_state(D2, [0.6, 0.8])
        assert np.allclose(householder_map(v, v).matrix, np.eye(2))

    def test_orthogonal_basis_states(self):
        u = householder_map(basis_state(D2, 0), basis_state(D2, 1))
        assert np.allclose(u.matrix @ [1, 0], [0, 1])

    def test_exact_on_random_complex_pairs(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 5):
            space = HilbertSpace(d)
            for _ in range(20):
                x = random_state(space, rng)
                y = random_state(space, rng)
                u = householder_map(x, y)
                assert u.is_unitary(1e-12)
                assert np.linalg.norm(u.matrix @ x.amplitudes - y.amplitudes) <= 1e-12

    def test_phase_multiple_target(self):
        x = make_state(D2, [1, 1])
        y = make_state(D2, np.exp(0.7j) * x.amplitudes)
        u = householder_map(x, y)
        assert np.linalg.norm(u.matrix @ x.amplitudes - y.amplitudes) <= 1e-12


class TestBuildPremeasurement:
    def test_complete_observable_gives_cnot(self):
        model = cnot_model()
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.allclose(dense_coupling(model), cnot)
        out = dense_coupling(model) @ np.kron([0, 1], [1, 0])
        assert np.allclose(out, np.kron([0, 1], [0, 1]))

    def test_degenerate_eigenvector_preserved(self):
        model = degenerate_model()
        chi = model.apparatus.pointer_states
        out = dense_coupling(model) @ np.kron(
            basis_state(D3, 1).amplitudes, model.apparatus.ready_state.amplitudes
        )
        assert np.allclose(out, np.kron(basis_state(D3, 1).amplitudes, chi[0].amplitudes))

    def test_unitarity(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            outcomes = int(rng.integers(1, min(d1, d2) + 1))
            model = random_model(d1, d2, outcomes, rng)
            u = dense_coupling(model)
            assert np.linalg.norm(u.conj().T @ u - np.eye(d1 * d2)) <= 1e-10

    def test_non_unitary_couplings_rejected(self):
        model = cnot_model()
        halved = Operator(HilbertSpace(4), 0.5 * np.eye(4))
        with pytest.raises(ValueError, match="not unitary"):
            PremeasurementModel(model.measured, model.apparatus, halved)
        blocks = (model.coupling[0], Operator(POINTER2, 0.5 * np.eye(2)))
        with pytest.raises(ValueError, match="not unitary"):
            PremeasurementModel(model.measured, model.apparatus, blocks)
        with pytest.raises(ValueError, match="block coupling needs 2"):
            PremeasurementModel(model.measured, model.apparatus, model.coupling[:1])

    def test_outcome_count_mismatch(self):
        a = complete_observable([basis_state(D3, i) for i in range(3)])
        with pytest.raises(ValueError, match="outcome counts differ"):
            build_premeasurement(a, qubit_apparatus())


class TestEvolve:
    def test_eigenstate_calibrates_exactly(self):
        model = cnot_model()
        psi = evolve(model, basis_state(D2, 1))
        expected = np.kron([0, 1], [0, 1])
        assert np.linalg.norm(psi.matrix.reshape(-1) - expected) <= 1e-12

    def test_linearity_on_superposition(self):
        model = cnot_model()
        psi = evolve(model, make_state(D2, [1, 1]))
        expected = (np.kron([1, 0], [1, 0]) + np.kron([0, 1], [0, 1])) / np.sqrt(2)
        assert np.allclose(psi.matrix.reshape(-1), expected)

    def test_degenerate_branch_structure(self):
        model = degenerate_model()
        psi = evolve(model, make_state(D3, [1, 1, 1]))
        # hand-assembled branch expression
        e = np.eye(3)
        expected = np.kron((e[0] + e[1]) / np.sqrt(3), [1, 0]) + np.kron(
            e[2] / np.sqrt(3), [0, 1]
        )
        assert np.allclose(psi.matrix.reshape(-1), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            evolve(cnot_model(), make_state(D3, [1, 0, 0]))


class TestBranches:
    def test_calibrated_state_single_branch(self):
        model = cnot_model()
        bset = branches(model, evolve(model, basis_state(D2, 0)))
        assert [b.outcome for b in bset.branches] == [0]
        assert bset.branches[0].weight == pytest.approx(1.0)
        assert bset.omitted == (1,)

    def test_uniform_superposition(self):
        model = cnot_model()
        bset = branches(model, evolve(model, make_state(D2, [1, 1])))
        assert bset.weights == pytest.approx({0: 0.5, 1: 0.5})

    def test_degenerate_weights_match_oracle(self):
        model = degenerate_model()
        phi = make_state(D3, [1, 1, 1])
        bset = branches(model, evolve(model, phi))
        rho = pure_density(phi)
        for b in bset.branches:
            oracle = trace_probability(model.measured.projectors[b.outcome], rho)
            assert b.weight == pytest.approx(oracle, abs=1e-12)
        assert bset.weights[0] == pytest.approx(2 / 3)
        assert bset.weights[1] == pytest.approx(1 / 3)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            model = random_model(3, 4, 2, rng)
            bset = branches(model, evolve(model, random_state(HilbertSpace(3), rng)))
            assert abs(sum(bset.weights.values()) - 1.0) <= 1e-10

    def test_branch_biorthogonality(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            model = random_model(4, 4, 3, rng)
            bset = branches(model, evolve(model, random_state(HilbertSpace(4), rng)))
            vecs = [b.matrix.reshape(-1) for b in bset.branches]
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    assert abs(vecs[i].conj() @ vecs[j]) <= 1e-10


class TestVerifyCalibration:
    def test_constructed_models_pass(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            outcomes = int(rng.integers(1, min(d1, d2) + 1))
            model = random_model(d1, d2, outcomes, rng)
            report = verify_calibration(model, trials=20, seed=int(rng.integers(2**32)))
            assert report.passed
            assert report.max_residual <= 1e-10

    def test_identity_coupling_fails_off_ready_outcomes(self):
        # ready state lies in range(Q^0) but not range(Q^1): outcome 1 cannot calibrate
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)], [1.0, -1.0])
        apparatus = qubit_apparatus()
        model = PremeasurementModel(a, apparatus, identity(HilbertSpace(4)))
        report = verify_calibration(model)
        assert not report.passed
        assert report.residuals[0] <= 1e-10
        assert report.residuals[1] == pytest.approx(1.0)

    def test_permutation_model_is_exact(self):
        report = verify_calibration(cnot_model())
        assert report.max_residual == 0.0


class TestVerifyNondemolition:
    def test_eigenstate_single_branch(self):
        model = cnot_model()
        report = verify_nondemolition(model, coupled_branches(model, basis_state(D2, 1)))
        assert report.passed
        assert list(report.residuals) == [1]

    def test_degenerate_model_passes(self):
        model = degenerate_model()
        report = verify_nondemolition(model, coupled_branches(model, make_state(D3, [1, 1, 1])))
        assert report.passed

    def test_swap_coupling_demolishes(self):
        # SWAP mixes the system eigenspaces into the pointer: a valid unitary
        # that is not nondemolition
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)], [1.0, -1.0])
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        model = PremeasurementModel(a, qubit_apparatus(), Operator(HilbertSpace(4), swap))
        report = verify_nondemolition(model, coupled_branches(model, make_state(D2, [1, 1])))
        assert not report.passed

    def test_random_inputs_pass(self):
        rng = np.random.default_rng(36)
        model = random_model(4, 3, 3, rng)
        for _ in range(100):
            phi = random_state(HilbertSpace(4), rng)
            report = verify_nondemolition(model, coupled_branches(model, phi))
            assert report.passed


class TestBranchNormLaw:
    def test_eigenstate(self):
        model, phi = cnot_model(), basis_state(D2, 0)
        report = branch_norm_law(model, phi, coupled_branches(model, phi))
        assert report.passed
        assert report.deviations[0] <= 1e-12

    def test_degenerate_weights(self):
        model, phi = degenerate_model(), make_state(D3, [1, 1, 1])
        report = branch_norm_law(model, phi, coupled_branches(model, phi))
        assert report.passed

    def test_omitted_branch_has_zero_oracle(self):
        model = degenerate_model()
        phi = basis_state(D3, 2)  # inside range(P^2) only
        report = branch_norm_law(model, phi, coupled_branches(model, phi))
        assert report.passed
        assert 0 in report.omitted_oracle
        assert report.omitted_oracle[0] <= 1e-12

    def test_calibration_implication_on_random_eigenspace_vectors(self):
        # an input fixed by P^n must produce an output fixed by I (x) Q^n
        rng = np.random.default_rng(37)
        for _ in range(5):
            model = random_model(4, 4, 2, rng)
            for n in range(model.outcome_count):
                basis = eigenspace_basis(model.measured.projectors[n])
                for _ in range(10):
                    coeff = random_unit_vector(len(basis), rng)
                    vec = sum(c * b for c, b in zip(coeff, basis))
                    phi = make_state(HilbertSpace(4), vec)
                    fixed = np.linalg.norm(
                        model.measured.projectors[n].matrix @ phi.amplitudes
                        - phi.amplitudes
                    )
                    assert fixed <= 1e-12  # input satisfies certainty premise
                    out = evolve(model, phi).matrix.reshape(-1)
                    q = model.apparatus.pointer_observable.projectors[n].matrix
                    lifted = np.kron(np.eye(model.d1), q)
                    assert np.linalg.norm(lifted @ out - out) <= 1e-10


class TestApparatusInvariants:
    def test_pointer_state_outside_projector_range(self):
        b = complete_observable([basis_state(POINTER2, 0), basis_state(POINTER2, 1)])
        with pytest.raises(ValueError, match="range"):
            PointerApparatus(
                POINTER2,
                basis_state(POINTER2, 0),
                b,
                (basis_state(POINTER2, 1), basis_state(POINTER2, 0)),
            )

    def test_non_orthonormal_pointer_states(self):
        space = HilbertSpace(3)
        q = projector_from_span([basis_state(space, 0), basis_state(space, 1)])
        q2 = projector_from_span([basis_state(space, 2)])
        b = spectral_observable([0.0, 1.0], [q, q2])
        with pytest.raises(ValueError, match="orthonormal"):
            PointerApparatus(
                space,
                basis_state(space, 0),
                b,
                (make_state(space, [1, 1, 0]), make_state(space, [1, 0, 0])),
            )

    def test_ready_state_may_overlap_pointer_states(self):
        # no orthogonality requirement between ready and pointer states
        b = complete_observable([basis_state(POINTER2, 0), basis_state(POINTER2, 1)])
        apparatus = PointerApparatus(
            POINTER2,
            make_state(POINTER2, [1, 1]),
            b,
            (basis_state(POINTER2, 0), basis_state(POINTER2, 1)),
        )
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)])
        model = build_premeasurement(a, apparatus)
        assert verify_calibration(model).passed
