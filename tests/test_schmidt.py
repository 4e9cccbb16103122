import numpy as np
import pytest
from conftest import flat_state

from envborn.hilbert import (
    HilbertSpace,
    Operator,
    StateVector,
    basis_state,
    partial_trace,
    projector_from_span,
    pure_density,
)
from envborn.rng import random_state, random_unitary
from envborn.schmidt import (
    BipartiteState,
    SchmidtForm,
    check_envariance,
    reconstruct,
    schmidt_decompose,
    schmidt_probabilities,
    sublemma_check,
    swap_witness,
    twin_unitary,
)

INV_SQRT2 = 0.7071067811865476

D2 = HilbertSpace(2)
D3 = HilbertSpace(3)


def bell():
    return BipartiteState(np.array([[1, 0], [0, 1]]) / np.sqrt(2))


def skewed():
    # (2|00> + |11>) / sqrt(5)
    return BipartiteState(np.array([[2, 0], [0, 1]]) / np.sqrt(5))


def random_bipartite(d1, d2, rng):
    return BipartiteState(random_state(HilbertSpace(d1 * d2), rng).amplitudes.reshape(d1, d2))


def uniform_form(terms, d1, d2, rng):
    """Schmidt form with equal coefficients and Haar-random bases."""
    u = random_unitary(d1, rng)
    v = random_unitary(d2, rng)
    coeff = np.full(terms, 1.0 / np.sqrt(terms))
    return SchmidtForm(
        coeff,
        tuple(StateVector(HilbertSpace(d1), u[:, i]) for i in range(terms)),
        tuple(StateVector(HilbertSpace(d2), v[:, i]) for i in range(terms)),
    )


class TestBipartiteState:
    def test_dims_from_matrix_shape(self):
        psi = BipartiteState(np.outer([1, 0], [0, 0, 1]))
        assert psi.dims == (2, 3)
        assert (psi.d1, psi.d2) == (2, 3)
        assert not psi.matrix.flags.writeable

    @pytest.mark.parametrize(
        "matrix",
        [np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([[np.nan, 0.0]])],
        ids=["flat", "unnormalized", "nan"],
    )
    def test_invalid_matrix_rejected(self, matrix):
        with pytest.raises(ValueError):
            BipartiteState(matrix)


class TestDecompose:
    def test_bell_coefficients(self):
        form = schmidt_decompose(bell())
        assert np.allclose(form.coefficients, [INV_SQRT2, INV_SQRT2])

    def test_product_state_single_term(self):
        psi = BipartiteState(np.outer([1, 0], [1, 1]) / np.sqrt(2))
        form = schmidt_decompose(psi)
        assert len(form) == 1
        assert form.coefficients[0] == pytest.approx(1.0)

    def test_skewed_coefficients_match_reduced_spectrum(self):
        psi = skewed()
        form = schmidt_decompose(psi)
        # oracle: eigenvalues of the reduced density operator, square-rooted
        rho2 = partial_trace(pure_density(flat_state(psi)), (2, 2), keep=1)
        expected = np.sqrt(np.sort(np.linalg.eigvalsh(rho2.matrix))[::-1])
        assert np.allclose(form.coefficients, expected)
        assert np.allclose(form.coefficients, [2 / np.sqrt(5), 1 / np.sqrt(5)])

    def test_coefficients_match_reduced_spectrum_randomly(self):
        rng = np.random.default_rng(21)
        for d1 in (2, 3, 4):
            for d2 in (2, 3, 4):
                psi = random_bipartite(d1, d2, rng)
                form = schmidt_decompose(psi)
                rho2 = partial_trace(pure_density(flat_state(psi)), (d1, d2), keep=1)
                eigs = np.sort(np.linalg.eigvalsh(rho2.matrix))[::-1][: len(form)]
                assert np.allclose(
                    np.sort(form.coefficients**2), np.sort(eigs), atol=1e-8
                )

    def test_phase_convention(self):
        rng = np.random.default_rng(22)
        form = schmidt_decompose(random_bipartite(3, 3, rng))
        for v in form.basis1:
            lead = v.amplitudes[np.flatnonzero(np.abs(v.amplitudes) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0


class TestReconstruct:
    def test_single_term(self):
        form = SchmidtForm(
            np.array([1.0]), (basis_state(D2, 0),), (basis_state(D2, 1),)
        )
        psi = reconstruct(form)
        assert np.allclose(psi.matrix.reshape(-1), [0, 1, 0, 0])

    def test_bell_round_trip(self):
        psi = bell()
        back = reconstruct(schmidt_decompose(psi))
        assert np.linalg.norm(back.matrix.reshape(-1) - psi.matrix.reshape(-1)) <= 1e-12

    def test_random_round_trip(self):
        rng = np.random.default_rng(23)
        for d1, d2 in [(3, 4), (2, 3), (4, 2), (4, 4)]:
            psi = random_bipartite(d1, d2, rng)
            back = reconstruct(schmidt_decompose(psi))
            assert np.linalg.norm(back.matrix.reshape(-1) - psi.matrix.reshape(-1)) <= 1e-10


class TestTwinUnitary:
    def test_zero_phases_give_identity(self):
        form = schmidt_decompose(bell())
        u1, u2 = twin_unitary(form, [0.0, 0.0])
        assert np.allclose(u1.matrix, np.eye(2))
        assert np.allclose(u2.matrix, np.eye(2))

    def test_conjugate_phases_leave_state_invariant(self):
        psi = bell()
        form = schmidt_decompose(psi)
        u1, u2 = twin_unitary(form, [np.pi / 3, np.pi / 7])
        # brute-force application oracle
        moved = np.kron(u1.matrix, u2.matrix) @ psi.matrix.reshape(-1)
        assert np.linalg.norm(moved - psi.matrix.reshape(-1)) <= 1e-12
        assert check_envariance(psi, u1, u2) <= 1e-10

    def test_single_term_global_phase(self):
        psi = BipartiteState(np.outer([1, 0], [0, 1]))
        form = schmidt_decompose(psi)
        u1, u2 = twin_unitary(form, [np.pi])
        assert check_envariance(psi, u1, u2) <= 1e-12

    def test_phase_count_mismatch(self):
        form = schmidt_decompose(bell())
        with pytest.raises(ValueError, match="phases"):
            twin_unitary(form, [0.1])

    def test_random_states_and_phases(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            d1, d2 = rng.integers(2, 5, size=2)
            psi = random_bipartite(int(d1), int(d2), rng)
            form = schmidt_decompose(psi)
            phases = rng.uniform(-np.pi, np.pi, size=len(form))
            u1, u2 = twin_unitary(form, phases)
            assert check_envariance(psi, u1, u2) <= 1e-10


class TestSwapWitness:
    def test_bell_transposition(self):
        psi = bell()
        form = schmidt_decompose(psi)
        u1, u2 = swap_witness(form, [1, 0])
        assert check_envariance(psi, u1, u2) <= 1e-10

    def test_unequal_coefficients_rejected(self):
        form = schmidt_decompose(skewed())
        with pytest.raises(ValueError, match="unequal"):
            swap_witness(form, [1, 0])

    def test_three_cycle_on_uniform_state(self):
        rng = np.random.default_rng(25)
        form = uniform_form(3, 3, 3, rng)
        psi = reconstruct(form)
        u1, u2 = swap_witness(form, [1, 2, 0])
        assert check_envariance(psi, u1, u2) <= 1e-10

    def test_partial_swap_with_spectator_term(self):
        # only the moved indices need equal coefficients
        rng = np.random.default_rng(26)
        coeff = np.array([0.8, 0.42426406871192857, 0.42426406871192857])
        u = random_unitary(3, rng)
        v = random_unitary(3, rng)
        form = SchmidtForm(
            coeff / np.linalg.norm(coeff),
            tuple(StateVector(D3, u[:, i]) for i in range(3)),
            tuple(StateVector(D3, v[:, i]) for i in range(3)),
        )
        psi = reconstruct(form)
        u1, u2 = swap_witness(form, [0, 2, 1])
        assert check_envariance(psi, u1, u2) <= 1e-10

    def test_not_a_permutation(self):
        form = schmidt_decompose(bell())
        with pytest.raises(ValueError, match="permutation"):
            swap_witness(form, [0, 0])


class TestCheckEnvariance:
    def test_identity_pair(self):
        psi = bell()
        ident = Operator(D2, np.eye(2, dtype=complex))
        assert check_envariance(psi, ident, ident) == 0.0

    def test_one_sided_flip_is_not_envariant(self):
        # sigma_x on one side moves the Bell state by exactly sqrt(2)
        psi = bell()
        sx = Operator(D2, np.array([[0, 1], [1, 0]], dtype=complex))
        ident = Operator(D2, np.eye(2, dtype=complex))
        moved = np.kron(sx.matrix, np.eye(2)) @ psi.matrix.reshape(-1)
        assert np.linalg.norm(moved - psi.matrix.reshape(-1)) == pytest.approx(np.sqrt(2))
        assert check_envariance(psi, sx, ident) == pytest.approx(np.sqrt(2), abs=1e-10)

    def test_non_unitary_rejected(self):
        psi = bell()
        bad = Operator(D2, np.diag([1.0, 0.5]).astype(complex))
        ident = Operator(D2, np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="unitary"):
            check_envariance(psi, bad, ident)


class TestSchmidtProbabilities:
    def test_bell(self):
        assert np.allclose(schmidt_probabilities(schmidt_decompose(bell())), [0.5, 0.5])

    def test_single_term(self):
        psi = BipartiteState(np.outer([1, 0], [1, 0]))
        assert np.allclose(schmidt_probabilities(schmidt_decompose(psi)), [1.0])

    def test_skewed(self):
        probs = schmidt_probabilities(schmidt_decompose(skewed()))
        assert np.allclose(probs, [0.8, 0.2])

    def test_nonnegative_and_normalized(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            psi = random_bipartite(3, 4, rng)
            probs = schmidt_probabilities(schmidt_decompose(psi))
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) <= 1e-10


class TestSublemma:
    def test_identity_projector_holds(self):
        report = sublemma_check(bell(), projector_from_span([basis_state(D2, 0), basis_state(D2, 1)]))
        assert report.holds

    def test_hypothesis_violation_raises(self):
        with pytest.raises(ValueError, match="hypothesis"):
            sublemma_check(bell(), projector_from_span([basis_state(D2, 0)]))

    def test_supported_subspace(self):
        # state supported on span{|0>_2, |1>_2} inside d2 = 3
        vec = np.zeros(6, dtype=complex)
        vec[0] = 2.0  # |0>|0>
        vec[4] = 1.0  # |1>|1>
        psi = BipartiteState((vec / np.linalg.norm(vec)).reshape(2, 3))
        q2 = projector_from_span([basis_state(D3, 0), basis_state(D3, 1)])
        report = sublemma_check(psi, q2)
        assert report.holds
        assert report.max_residual <= 1e-12

    def test_random_support_extensions(self):
        # Q2 = projector onto (factor-2 Schmidt support + random orthogonal extension)
        rng = np.random.default_rng(28)
        for _ in range(20):
            d1, d2 = 2, 4
            psi = random_bipartite(d1, d2, rng)
            form = schmidt_decompose(psi)
            support = [v.amplitudes for v in form.basis2]
            basis = np.linalg.svd(np.column_stack(support), full_matrices=True)[0]
            extension = basis[:, len(support) : len(support) + 1]
            q2 = projector_from_span(support + [extension[:, 0]])
            assert sublemma_check(psi, q2).holds
