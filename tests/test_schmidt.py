import numpy as np
import pytest
from conftest import flat_state, partial_trace, projector_from_span, random_state, random_unitary

from envborn.hilbert import (
    Operator,
    basis_state,
    pure_density,
)
from envborn.schmidt import (
    ZERO_BRANCH_THRESHOLD,
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

D2 = 2
D3 = 3


def bell():
    return BipartiteState(np.array([[1, 0], [0, 1]]) / np.sqrt(2))


def skewed():
    # (2|00> + |11>) / sqrt(5)
    return BipartiteState(np.array([[2, 0], [0, 1]]) / np.sqrt(5))


def random_bipartite(d1, d2, rng):
    return BipartiteState(random_state(d1 * d2, rng).amplitudes.reshape(d1, d2))


def uniform_form(terms, d1, d2, rng):
    """Schmidt form with equal coefficients and Haar-random bases."""
    u = random_unitary(d1, rng)
    v = random_unitary(d2, rng)
    coeff = np.full(terms, 1.0 / np.sqrt(terms))
    return SchmidtForm(coeff, u[:, :terms], v[:, :terms])


def sparse_uniform(d1, d2, terms, rng):
    """Equal coefficients with random phases on permuted computational basis
    vectors of both factors: every singular value ties exactly."""
    psi = np.zeros((d1, d2), dtype=complex)
    rows, cols = rng.permutation(d1)[:terms], rng.permutation(d2)[:terms]
    psi[rows, cols] = np.exp(1j * rng.uniform(-np.pi, np.pi, size=terms)) / np.sqrt(terms)
    return BipartiteState(psi)


def per_term_decompose(psi):
    """``schmidt_decompose`` written term by term: each factor-1 vector gets
    its leading index and phase on its own, then the terms are sorted by
    (-coefficient, leading index).  Returns the coefficients and both bases
    as column matrices."""
    u, s, vh = np.linalg.svd(psi.matrix, full_matrices=False)
    keep = s >= ZERO_BRANCH_THRESHOLD
    s, u, vh = s[keep], u[:, keep], vh[keep, :]
    vecs1, vecs2, lead_index = [], [], []
    for i in range(len(s)):
        col = u[:, i].copy()
        row = vh[i, :].copy()
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        lead = int(nz[0]) if len(nz) else 0
        phase = col[lead] / abs(col[lead]) if len(nz) else 1.0
        vecs1.append(col / phase)
        vecs2.append(row * phase)
        lead_index.append(lead)
    order = sorted(range(len(s)), key=lambda i: (-s[i], lead_index[i]))
    return (
        np.array([s[i] for i in order]),
        np.column_stack([vecs1[i] for i in order]),
        np.column_stack([vecs2[i] for i in order]),
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
        for v in form.basis1.T:
            lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0

    @pytest.mark.parametrize("kind", ["random", "uniform", "sparse-uniform"])
    def test_matches_per_term_reference(self, kind):
        rng = np.random.default_rng(29)
        for _ in range(40):
            d1, d2 = (int(d) for d in rng.integers(1, 6, size=2))
            terms = int(rng.integers(1, min(d1, d2) + 1))
            if kind == "random":
                psi = random_bipartite(d1, d2, rng)
            elif kind == "uniform":
                psi = reconstruct(uniform_form(terms, d1, d2, rng))
            else:
                psi = sparse_uniform(d1, d2, terms, rng)
            form = schmidt_decompose(psi)
            coefficients, basis1, basis2 = per_term_decompose(psi)
            assert np.array_equal(form.coefficients, coefficients)
            assert np.array_equal(form.basis1, basis1)
            assert np.array_equal(form.basis2, basis2)

    def test_equal_coefficients_ordered_by_lead_index(self):
        rng = np.random.default_rng(30)
        ties = 0
        for _ in range(20):
            form = schmidt_decompose(sparse_uniform(5, 4, 4, rng))
            leads = np.argmax(np.abs(form.basis1) > 1e-12, axis=0)
            for i in np.flatnonzero(np.diff(form.coefficients) == 0):
                ties += 1
                assert leads[i] < leads[i + 1]
        assert ties >= 20


class TestSchmidtForm:
    def test_bases_are_column_matrices(self):
        form = schmidt_decompose(random_bipartite(3, 4, np.random.default_rng(31)))
        assert form.basis1.shape == (3, 3)
        assert form.basis2.shape == (4, 3)

    def test_nan_column_rejected(self):
        basis = np.eye(D2)[:, :1].astype(complex)
        basis[1, 0] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            SchmidtForm([1.0], basis, np.eye(D2)[:, :1])
        with pytest.raises(ValueError, match="orthonormal"):
            SchmidtForm([1.0], np.eye(D2)[:, :1], basis)

    def test_column_norm_off_by_1e_11_rejected(self):
        # the Gram residual 2e-11 is within tol; the norm check is not
        basis = np.eye(D3)[:, :2] * np.array([1.0, 1.0 + 1e-11])
        with pytest.raises(ValueError, match="factor-1 basis vectors are not normalized"):
            SchmidtForm([INV_SQRT2, INV_SQRT2], basis, np.eye(D2))
        with pytest.raises(ValueError, match="factor-2 basis vectors are not normalized"):
            SchmidtForm([INV_SQRT2, INV_SQRT2], np.eye(D2), basis)

    def test_nan_coefficient_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SchmidtForm([np.nan], np.eye(D2)[:, :1], np.eye(D2)[:, :1])

    @pytest.mark.parametrize(
        "basis", [np.array([1.0, 0.0]), np.eye(D2)], ids=["flat", "two-columns"]
    )
    def test_basis_shape_must_match_coefficients(self, basis):
        with pytest.raises(ValueError, match="equal lengths"):
            SchmidtForm([1.0], basis, np.eye(D2)[:, :1])


class TestReconstruct:
    def test_single_term(self):
        form = SchmidtForm(np.array([1.0]), np.eye(D2)[:, :1], np.eye(D2)[:, 1:])
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
        form = SchmidtForm(coeff / np.linalg.norm(coeff), u[:, :3], v[:, :3])
        psi = reconstruct(form)
        u1, u2 = swap_witness(form, [0, 2, 1])
        assert check_envariance(psi, u1, u2) <= 1e-10

    def test_sends_term_i_to_term_perm_i(self):
        form = uniform_form(3, 3, 4, np.random.default_rng(32))
        perm = [1, 2, 0]
        u1, u2 = swap_witness(form, perm)
        assert np.allclose(u1.matrix @ form.basis1, form.basis1[:, perm], atol=1e-12)
        assert np.allclose(u2.matrix @ form.basis2, form.basis2[:, perm], atol=1e-12)

    def test_not_a_permutation(self):
        form = schmidt_decompose(bell())
        with pytest.raises(ValueError, match="permutation"):
            swap_witness(form, [0, 0])


def test_witnesses_match_outer_product_sums():
    """The matrix forms of the twin and swap witnesses against their sums of
    one outer product per term; the summation order differs, so they agree
    to rounding."""
    rng = np.random.default_rng(33)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        terms = int(rng.integers(1, d + 1))
        form = uniform_form(terms, d, d + 1, rng)
        phases = rng.uniform(-np.pi, np.pi, size=terms)
        perm = list(rng.permutation(terms))
        twins, swaps = twin_unitary(form, phases), swap_witness(form, perm)
        for sign, basis, twin, swap in zip((1, -1), (form.basis1, form.basis2), twins, swaps):
            twin_sum = np.eye(len(basis), dtype=complex)
            swap_sum = np.eye(len(basis), dtype=complex)
            for i, v in enumerate(basis.T):
                twin_sum += (np.exp(sign * 1j * phases[i]) - 1) * np.outer(v, v.conj())
                swap_sum += np.outer(basis[:, perm[i]] - v, v.conj())
            assert np.linalg.norm(twin.matrix - twin_sum) <= 1e-12
            assert np.linalg.norm(swap.matrix - swap_sum) <= 1e-12


class TestCheckEnvariance:
    def test_identity_pair(self):
        psi = bell()
        ident = Operator(np.eye(2, dtype=complex))
        assert check_envariance(psi, ident, ident) == 0.0

    def test_one_sided_flip_is_not_envariant(self):
        # sigma_x on one side moves the Bell state by exactly sqrt(2)
        psi = bell()
        sx = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        ident = Operator(np.eye(2, dtype=complex))
        moved = np.kron(sx.matrix, np.eye(2)) @ psi.matrix.reshape(-1)
        assert np.linalg.norm(moved - psi.matrix.reshape(-1)) == pytest.approx(np.sqrt(2))
        assert check_envariance(psi, sx, ident) == pytest.approx(np.sqrt(2), abs=1e-10)

    def test_non_unitary_rejected(self):
        psi = bell()
        bad = Operator(np.diag([1.0, 0.5]).astype(complex))
        ident = Operator(np.eye(2, dtype=complex))
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
        assert report.passed

    def test_hypothesis_violation_raises(self):
        with pytest.raises(ValueError, match="hypothesis"):
            sublemma_check(bell(), projector_from_span([basis_state(D2, 0)]))

    def test_leak_at_small_coefficient_fails(self):
        # the term eps |1>|v> leaves Q2 by eps / sqrt(2), inside the hypothesis
        # tolerance, but its Schmidt vector v is half outside Q2: only the span
        # residual sees it (the rho_2 residual is of order eps^2)
        eps = 1e-11
        vec = np.zeros(6, dtype=complex)
        vec[0] = np.sqrt(1 - eps**2)  # |0>|0>
        vec[4] = vec[5] = eps / np.sqrt(2)  # |1>(|1> + |2>)/sqrt(2)
        psi = BipartiteState(vec.reshape(2, 3))
        q2 = projector_from_span([basis_state(D3, 0), basis_state(D3, 1)])
        report = sublemma_check(psi, q2)
        assert not report.passed
        assert report.max_residual == pytest.approx(np.sqrt(0.5), rel=1e-6)

    def test_supported_subspace(self):
        # state supported on span{|0>_2, |1>_2} inside d2 = 3
        vec = np.zeros(6, dtype=complex)
        vec[0] = 2.0  # |0>|0>
        vec[4] = 1.0  # |1>|1>
        psi = BipartiteState((vec / np.linalg.norm(vec)).reshape(2, 3))
        q2 = projector_from_span([basis_state(D3, 0), basis_state(D3, 1)])
        report = sublemma_check(psi, q2)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_random_support_extensions(self):
        # Q2 = projector onto (factor-2 Schmidt support + random orthogonal extension)
        rng = np.random.default_rng(28)
        for _ in range(20):
            d1, d2 = 2, 4
            psi = random_bipartite(d1, d2, rng)
            form = schmidt_decompose(psi)
            support = list(form.basis2.T)
            basis = np.linalg.svd(np.column_stack(support), full_matrices=True)[0]
            extension = basis[:, len(support) : len(support) + 1]
            q2 = projector_from_span(support + [extension[:, 0]])
            assert sublemma_check(psi, q2).passed


# a projector basis that is not orthonormal, holds a NaN, or has the wrong
# number of rows for factor 2 -> the message it is rejected with
BAD_BASES = {
    "non-orthonormal": (np.array([[1.0], [1.0]]), "not orthonormal: Gram residual 1.000e.00"),
    "nan": (np.array([[1.0], [np.nan]]), "not orthonormal: Gram residual nan"),
    "wrong-dimension": (np.eye(3)[:, :1], r"expected a 2 x r projector basis, got shape \(3, 1\)"),
}


@pytest.mark.parametrize("name", sorted(BAD_BASES))
def test_sublemma_rejects_a_bad_projector_basis(name):
    basis, message = BAD_BASES[name]
    with pytest.raises(ValueError, match=message):
        sublemma_check(bell(), basis)
