import numpy as np
import pytest
from conftest import (
    dense_coupling,
    dense_projectors,
    random_orthogonal_partition,
    random_state,
    random_unit_vector,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from envborn.hilbert import (
    Observable,
    Operator,
    basis_state,
    complete_observable,
    gram_residual,
    identity,
    make_state,
    pure_density,
    trace_probability,
)
from envborn.premeasurement import (
    PointerApparatus,
    PremeasurementModel,
    _householder_blocks,
    _per_group,
    branch_norm_law,
    branches,
    build_premeasurement,
    evolve,
    verify_calibration,
    verify_nondemolition,
)

D2 = 2
D3 = 3
POINTER2 = 2


def qubit_apparatus():
    b = complete_observable([basis_state(POINTER2, 0), basis_state(POINTER2, 1)])
    return PointerApparatus(basis_state(POINTER2, 0), b, np.eye(POINTER2))


def coupled_branches(model, phi):
    return branches(model, evolve(model, phi))


def input_oracle(model, phi):
    """The trace-rule values ``<phi|P^n|phi>``, one per outcome."""
    rho = pure_density(phi)
    return [trace_probability(b, rho) for b in model.measured.bases]


def cnot_model():
    a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)], [1.0, -1.0])
    return build_premeasurement(a, qubit_apparatus())


def degenerate_model():
    # P^1 = span{e0, e1}, P^2 = span{e2} on a 3-dim system with a qubit pointer
    a = Observable([1.0, -1.0], [np.eye(D3)[:, :2], np.eye(D3)[:, 2:]])
    return build_premeasurement(a, qubit_apparatus())


def random_model(d1, d2, outcomes, rng):
    """Random degenerate or complete model used across the verification suite."""
    measured = Observable(
        sorted(rng.normal(size=outcomes) * 3, reverse=True),
        random_orthogonal_partition(d1, outcomes, rng),
    )
    pointer_bases = random_orthogonal_partition(d2, outcomes, rng)
    pointer_obs = Observable(list(range(outcomes)), pointer_bases)
    pointer_states = np.column_stack([b[:, 0] for b in pointer_bases])
    ready = random_state(d2, rng)
    apparatus = PointerApparatus(ready, pointer_obs, pointer_states)
    return build_premeasurement(measured, apparatus)


def _householder_map(origin, target):
    """The block that sends the state ``origin`` to the state ``target``: the
    one-column case of the stacked Householder kernel."""
    return _householder_blocks(origin.amplitudes, target.amplitudes[:, None])[0]


class TestHouseholderMap:
    def test_equal_states_give_identity(self):
        v = make_state([0.6, 0.8])
        assert np.allclose(_householder_map(v, v), np.eye(2))

    def test_orthogonal_basis_states(self):
        u = _householder_map(basis_state(D2, 0), basis_state(D2, 1))
        assert np.allclose(u @ [1, 0], [0, 1])

    def test_exact_on_random_complex_pairs(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 5):
            for _ in range(20):
                x = random_state(d, rng)
                y = random_state(d, rng)
                u = _householder_map(x, y)
                assert gram_residual(u) <= 1e-12
                assert np.linalg.norm(u @ x.amplitudes - y.amplitudes) <= 1e-12

    def test_phase_multiple_target(self):
        x = make_state([1, 1])
        y = make_state(np.exp(0.7j) * x.amplitudes)
        u = _householder_map(x, y)
        assert np.linalg.norm(u @ x.amplitudes - y.amplitudes) <= 1e-12


def product_householder(ready, chi):
    """One block ``V`` with ``V ready = chi`` as the product of its phase
    rotation and its reflection, ``(I + a chi chi^H)(I - s w w^H)``: the form
    the kernel's two outer products expand."""
    # the kernel's phase: a near-orthogonal pair leaves alpha free, and the
    # rounding of a tiny overlap picks it
    overlap = np.einsum("j,j->", chi.conj(), ready)
    modulus = np.hypot(overlap.real, overlap.imag)
    alpha = overlap / modulus if modulus > 0 else 1.0
    w = ready - alpha * chi
    norm_w_sq = np.vdot(w, w).real
    scale = 2.0 / norm_w_sq if norm_w_sq >= 1e-24 else 0.0
    eye = np.eye(len(ready))
    return (eye + (np.conj(alpha) - 1.0) * np.outer(chi, chi.conj())) @ (eye - scale * np.outer(w, w.conj()))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "ready is a pointer state", "basis states"]),
)
def test_stacked_householder_blocks_equal_the_outcome_loop(d, seed, case):
    rng = np.random.default_rng(seed)
    pointer = random_unitary(d, rng)[:, : int(rng.integers(1, d + 1))]
    ready = random_unit_vector(d, rng)
    if case == "ready is a pointer state":
        k = int(rng.integers(pointer.shape[1]))
        ready = pointer[:, k].copy()
    elif case == "basis states":
        pointer, ready = np.eye(d, dtype=complex)[:, ::-1], np.eye(d, dtype=complex)[:, 0]
    blocks = _householder_blocks(ready, pointer)
    assert blocks.shape == (pointer.shape[1], d, d)
    for block, chi in zip(blocks, pointer.T):
        # each block is the one the kernel forms from its column alone
        assert np.array_equal(block, _householder_blocks(ready, chi[:, None])[0])
        assert np.linalg.norm(block - product_householder(ready, chi)) <= 1e-14
        assert np.linalg.norm(block @ ready - chi) <= 1e-12
    if case == "ready is a pointer state":  # the phase rotation alone, about 1
        assert np.linalg.norm(blocks[k] - np.eye(d)) <= 1e-14
    if case == "basis states":  # exact permutations: e0 to e_{d-1-n}
        assert all(np.array_equal(np.abs(block), np.abs(block) ** 2) for block in blocks)


def test_per_group_calls_the_kernel_once_per_shape_in_entry_order():
    # entries of lengths 2, 1, 2, 3, 1 form three interleaved groups
    calls = []

    def kernel(values, labels):
        calls.append((values.tolist(), labels.tolist()))
        return values.sum(axis=1)

    values = [np.full(k, float(i)) for i, k in enumerate((2, 1, 2, 3, 1))]
    labels = np.array(list("abcde"))
    results = _per_group(kernel, values, labels)
    assert results == [0.0, 1.0, 4.0, 9.0, 4.0]
    assert all(type(r) is float for r in results)
    assert calls == [
        ([[0.0, 0.0], [2.0, 2.0]], ["a", "c"]),
        ([[1.0], [4.0]], ["b", "e"]),
        ([[3.0, 3.0, 3.0]], ["d"]),
    ]
    # one group is one call on the sequences whole
    calls.clear()
    assert _per_group(kernel, values[:3:2], labels[:3:2]) == [0.0, 4.0]
    assert calls == [([[0.0, 0.0], [2.0, 2.0]], ["a", "c"])]
    # a kernel's list of results is scattered as it is
    assert _per_group(lambda v: [f"n{len(x)}" for x in v], values) == ["n2", "n1", "n2", "n3", "n1"]


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
        assert np.allclose(out, np.kron(basis_state(D3, 1).amplitudes, chi[:, 0]))

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
        halved = Operator(0.5 * np.eye(4))
        with pytest.raises(ValueError, match="not unitary"):
            PremeasurementModel(model.measured, model.apparatus, halved)
        blocks = (model.coupling[0], Operator(0.5 * np.eye(2)))
        with pytest.raises(ValueError, match="not unitary"):
            PremeasurementModel(model.measured, model.apparatus, blocks)
        with pytest.raises(ValueError, match="block coupling needs 2"):
            PremeasurementModel(model.measured, model.apparatus, model.coupling[:1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_couplings_rejected(self, bad):
        model = cnot_model()
        dense = np.eye(4, dtype=complex)
        dense[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            PremeasurementModel(model.measured, model.apparatus, Operator(dense))
        block = np.eye(2, dtype=complex)
        block[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            blocks = (model.coupling[0], Operator(block))
            PremeasurementModel(model.measured, model.apparatus, blocks)

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
        psi = evolve(model, make_state([1, 1]))
        expected = (np.kron([1, 0], [1, 0]) + np.kron([0, 1], [0, 1])) / np.sqrt(2)
        assert np.allclose(psi.matrix.reshape(-1), expected)

    def test_degenerate_branch_structure(self):
        model = degenerate_model()
        psi = evolve(model, make_state([1, 1, 1]))
        # hand-assembled branch expression
        e = np.eye(3)
        expected = np.kron((e[0] + e[1]) / np.sqrt(3), [1, 0]) + np.kron(
            e[2] / np.sqrt(3), [0, 1]
        )
        assert np.allclose(psi.matrix.reshape(-1), expected)

    def test_dimension_mismatch(self):
        model = cnot_model()
        with pytest.raises(ValueError, match="dim"):
            evolve(model, make_state([1, 0, 0]))
        with pytest.raises(ValueError, match="composite unitary dim 3, expected 4"):
            PremeasurementModel(model.measured, model.apparatus, Operator(np.eye(3)))
        blocks = (model.coupling[0], Operator(np.eye(3)))
        with pytest.raises(ValueError, match="2 apparatus operators of dim 2"):
            PremeasurementModel(model.measured, model.apparatus, blocks)


class TestBranches:
    def test_calibrated_state_single_branch(self):
        model = cnot_model()
        kept = branches(model, evolve(model, basis_state(D2, 0)))
        assert [b.outcome for b in kept] == [0]
        assert kept[0].weight == pytest.approx(1.0)

    def test_uniform_superposition(self):
        model = cnot_model()
        kept = branches(model, evolve(model, make_state([1, 1])))
        assert [b.weight for b in kept] == pytest.approx([0.5, 0.5])

    def test_degenerate_weights_match_oracle(self):
        model = degenerate_model()
        phi = make_state([1, 1, 1])
        kept = branches(model, evolve(model, phi))
        rho = pure_density(phi)
        for b in kept:
            oracle = trace_probability(model.measured.bases[b.outcome], rho)
            assert b.weight == pytest.approx(oracle, abs=1e-12)
        assert [b.weight for b in kept] == pytest.approx([2 / 3, 1 / 3])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            model = random_model(3, 4, 2, rng)
            kept = branches(model, evolve(model, random_state(3, rng)))
            assert abs(sum(b.weight for b in kept) - 1.0) <= 1e-10

    def test_branch_biorthogonality(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            model = random_model(4, 4, 3, rng)
            kept = branches(model, evolve(model, random_state(4, rng)))
            vecs = [(b.core @ b.basis.T).reshape(-1) for b in kept]
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
            report = verify_calibration(model)
            assert report.passed
            assert report.max_residual <= 1e-10

    def test_identity_coupling_fails_off_ready_outcomes(self):
        # ready state lies in range(Q^0) but not range(Q^1): outcome 1 cannot calibrate
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)], [1.0, -1.0])
        apparatus = qubit_apparatus()
        model = PremeasurementModel(a, apparatus, identity(4))
        report = verify_calibration(model)
        assert not report.passed
        assert report.residuals[0] <= 1e-10
        assert report.residuals[1] == pytest.approx(1.0)

    def test_every_column_of_a_degenerate_eigenspace_is_sampled(self):
        # flipping the pointer for input e1 only breaks calibration inside the
        # rank-2 eigenspace span{e0, e1}: the basis column e1 is certain for
        # outcome 0 yet lands on pointer 1
        model = degenerate_model()
        flip_e1 = np.kron(np.diag([1.0, 0.0, 1.0]), np.eye(2)) + np.kron(
            np.diag([0.0, 1.0, 0.0]), np.eye(2)[::-1]
        )
        broken = PremeasurementModel(
            model.measured, model.apparatus, Operator(dense_coupling(model) @ flip_e1)
        )
        report = verify_calibration(broken)
        assert report.residuals[0] == pytest.approx(1.0)
        assert report.residuals[1] == 0.0

    def test_coupling_to_the_zero_vector_fails_with_inf(self):
        # at a tolerance that admits the non-unitary blocks (I, 0), an input
        # certain for outcome 1 couples to the zero vector
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)])
        blocks = (identity(POINTER2), Operator(np.zeros((POINTER2, POINTER2))))
        model = PremeasurementModel(a, qubit_apparatus(), blocks, tol=10.0)
        report = verify_calibration(model)
        assert report.residuals == {0: 0.0, 1: float("inf")}
        assert not report.passed

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
        report = verify_nondemolition(model, coupled_branches(model, make_state([1, 1, 1])))
        assert report.passed

    def test_swap_coupling_demolishes(self):
        # SWAP mixes the system eigenspaces into the pointer: a valid unitary
        # that is not nondemolition
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)], [1.0, -1.0])
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        model = PremeasurementModel(a, qubit_apparatus(), Operator(swap))
        report = verify_nondemolition(model, coupled_branches(model, make_state([1, 1])))
        assert not report.passed

    def test_random_inputs_pass(self):
        rng = np.random.default_rng(36)
        model = random_model(4, 3, 3, rng)
        for _ in range(100):
            phi = random_state(4, rng)
            report = verify_nondemolition(model, coupled_branches(model, phi))
            assert report.passed


class TestBranchNormLaw:
    def test_eigenstate(self):
        model, phi = cnot_model(), basis_state(D2, 0)
        report = branch_norm_law(coupled_branches(model, phi), input_oracle(model, phi))
        assert report.passed
        assert report.residuals[0] <= 1e-12

    def test_degenerate_weights(self):
        model, phi = degenerate_model(), make_state([1, 1, 1])
        report = branch_norm_law(coupled_branches(model, phi), input_oracle(model, phi))
        assert report.passed

    def test_omitted_branch_has_zero_oracle(self):
        model = degenerate_model()
        phi = basis_state(D3, 2)  # inside range(P^2) only
        kept = coupled_branches(model, phi)
        report = branch_norm_law(kept, input_oracle(model, phi))
        assert report.passed
        assert [b.outcome for b in kept] == [1]
        assert report.residuals[0] <= 1e-12

    def test_calibration_implication_on_random_eigenspace_vectors(self):
        # an input fixed by P^n must produce an output fixed by I (x) Q^n
        rng = np.random.default_rng(37)
        for _ in range(5):
            model = random_model(4, 4, 2, rng)
            for n in range(model.outcome_count):
                basis = model.measured.bases[n]
                for _ in range(10):
                    coeff = random_unit_vector(basis.shape[1], rng)
                    vec = sum(c * b for c, b in zip(coeff, basis.T))
                    phi = make_state(vec)
                    fixed = np.linalg.norm(
                        dense_projectors(model.measured)[n] @ phi.amplitudes
                        - phi.amplitudes
                    )
                    assert fixed <= 1e-12  # input satisfies certainty premise
                    out = evolve(model, phi).matrix.reshape(-1)
                    q = dense_projectors(model.apparatus.pointer_observable)[n]
                    lifted = np.kron(np.eye(model.d1), q)
                    assert np.linalg.norm(lifted @ out - out) <= 1e-10


class TestApparatusInvariants:
    def test_pointer_state_outside_projector_range(self):
        b = complete_observable([basis_state(POINTER2, 0), basis_state(POINTER2, 1)])
        with pytest.raises(ValueError, match="range"):
            PointerApparatus(basis_state(POINTER2, 0), b, np.eye(POINTER2)[:, ::-1])

    def test_first_pointer_state_outside_its_range_is_named(self):
        # ranks 1, 2, 1: the rank-1 outcomes share one stacked check, and the
        # first failing outcome in order is named with its residual
        b = Observable([0.0, 1.0, 2.0], [np.eye(4)[:, :1], np.eye(4)[:, 1:3], np.eye(4)[:, 3:]])
        states = np.eye(4)[:, :3]  # pointer state 2 is e2, in outcome 1's range
        with pytest.raises(ValueError, match=r"^pointer state 2 is not in the range of its projector \(residual 1.000e\+00\)$"):
            PointerApparatus(basis_state(4, 0), b, states)

    def test_non_orthonormal_pointer_states(self):
        b = Observable([0.0, 1.0], [np.eye(3)[:, :2], np.eye(3)[:, 2:]])
        states = np.column_stack([make_state([1, 1, 0]).amplitudes, basis_state(3, 0).amplitudes])
        with pytest.raises(ValueError, match="orthonormal"):
            PointerApparatus(basis_state(3, 0), b, states)

    def test_unnormalized_pointer_state_rejected(self):
        # a norm off by 1e-11 passes the Gram check at 1e-10, but a pointer
        # state must be a unit vector to 1e-12 like every StateVector
        b = complete_observable([basis_state(POINTER2, 0), basis_state(POINTER2, 1)])
        with pytest.raises(ValueError, match="not normalized"):
            PointerApparatus(basis_state(POINTER2, 0), b, np.diag([1.0, 1.0 + 1e-11]))

    def test_pointer_states_one_column_per_outcome(self):
        b = complete_observable([basis_state(POINTER2, 0), basis_state(POINTER2, 1)])
        with pytest.raises(ValueError, match=r"shape \(2, 1\) for 2 pointer outcomes"):
            PointerApparatus(basis_state(POINTER2, 0), b, np.eye(POINTER2)[:, :1])

    def test_ready_state_dimension_mismatch(self):
        b = complete_observable([basis_state(POINTER2, 0), basis_state(POINTER2, 1)])
        with pytest.raises(ValueError, match="ready state dim 3 does not match pointer observable"):
            PointerApparatus(basis_state(3, 0), b, np.eye(POINTER2))

    def test_ready_state_may_overlap_pointer_states(self):
        # no orthogonality requirement between ready and pointer states
        b = complete_observable([basis_state(POINTER2, 0), basis_state(POINTER2, 1)])
        apparatus = PointerApparatus(make_state([1, 1]), b, np.eye(POINTER2))
        a = complete_observable([basis_state(D2, 0), basis_state(D2, 1)])
        model = build_premeasurement(a, apparatus)
        assert verify_calibration(model).passed
