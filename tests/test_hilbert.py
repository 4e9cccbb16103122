import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envborn.hilbert import (
    DensityOperator,
    HilbertSpace,
    Operator,
    Projector,
    basis_state,
    complete_observable,
    identity,
    make_state,
    partial_trace,
    projector_from_span,
    pure_density,
    spectral_observable,
    tensor,
    trace_probability,
)
from envborn.rng import random_density, random_orthogonal_partition, random_projector, random_state

INV_SQRT2 = 0.7071067811865476
# amplitudes of [2, 0, 1] divided by its norm sqrt(5)
TWO_OVER_SQRT5 = 0.8944271909999159
ONE_OVER_SQRT5 = 0.4472135954999579

D2 = HilbertSpace(2)
D3 = HilbertSpace(3)
D4 = HilbertSpace(4)


def plus():
    return make_state(D2, [1, 1])


class TestMakeState:
    def test_basis_vector(self):
        assert np.allclose(make_state(D2, [1, 0]).amplitudes, [1, 0])

    def test_normalizes(self):
        assert np.allclose(make_state(D2, [1, 1]).amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_divides_by_norm(self):
        st_ = make_state(D3, [2, 0, 1])
        assert np.allclose(st_.amplitudes, [TWO_OVER_SQRT5, 0.0, ONE_OVER_SQRT5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            make_state(D2, [1, 0, 0])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            make_state(D2, [0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_amplitude(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_state(D2, [1, bad])

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    def test_always_unit_norm(self, values):
        if np.linalg.norm(values) < 1e-6:
            return
        state = make_state(HilbertSpace(len(values)), values)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


class TestTensor:
    def test_basis_product(self):
        out = tensor(basis_state(D2, 0), basis_state(D2, 1))
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_distributes(self):
        out = tensor(plus(), basis_state(D2, 0))
        assert np.allclose(out.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0])

    def test_kronecker_expansion(self):
        u = make_state(D2, [2, 1])
        out = tensor(u, basis_state(D2, 1))
        # oracle: direct Kronecker expansion
        expected = np.kron(u.amplitudes, [0, 1])
        assert np.allclose(out.amplitudes, expected)
        assert np.allclose(out.amplitudes, [0, TWO_OVER_SQRT5, 0, ONE_OVER_SQRT5])

    def test_first_factor_is_slow_index(self):
        u = make_state(D2, [1, 2])
        v = make_state(D3, [3, 4, 5])
        out = tensor(u, v)
        for i in range(2):
            for j in range(3):
                assert out.amplitudes[i * 3 + j] == pytest.approx(
                    u.amplitudes[i] * v.amplitudes[j]
                )


def reduced_by_loops(vec, dims, keep):
    """Independent oracle: partial trace by explicit index contraction."""
    d1, d2 = dims
    psi = vec.reshape(d1, d2)
    if keep == 0:
        out = np.zeros((d1, d1), dtype=complex)
        for a in range(d1):
            for b in range(d1):
                for j in range(d2):
                    out[a, b] += psi[a, j] * np.conj(psi[b, j])
    else:
        out = np.zeros((d2, d2), dtype=complex)
        for a in range(d2):
            for b in range(d2):
                for j in range(d1):
                    out[a, b] += psi[j, a] * np.conj(psi[j, b])
    return out


class TestPartialTrace:
    def test_bell_is_maximally_mixed(self):
        rho = pure_density(make_state(D4, [1, 0, 0, 1]))
        reduced = partial_trace(rho, (2, 2), keep=0)
        assert np.allclose(reduced.matrix, np.eye(2) / 2)

    def test_product_state_uncorrelated(self):
        rho = pure_density(tensor(basis_state(D2, 0), plus()))
        reduced = partial_trace(rho, (2, 2), keep=0)
        assert np.allclose(reduced.matrix, np.diag([1.0, 0.0]))

    def test_skewed_state_against_loop_oracle(self):
        psi = make_state(D4, [2, 0, 0, 1])
        reduced = partial_trace(pure_density(psi), (2, 2), keep=1)
        assert np.allclose(reduced.matrix, reduced_by_loops(psi.amplitudes, (2, 2), 1))
        assert np.allclose(reduced.matrix, np.diag([0.8, 0.2]))

    def test_non_factorizable_declaration(self):
        rho = pure_density(make_state(D3, [1, 1, 1]))
        with pytest.raises(ValueError, match="factorization"):
            partial_trace(rho, (2, 2), keep=0)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        for d1, d2 in [(2, 2), (2, 3), (3, 4)]:
            rho = random_density(HilbertSpace(d1 * d2), rng)
            for keep in (0, 1):
                reduced = partial_trace(rho, (d1, d2), keep)
                assert abs(np.trace(reduced.matrix) - 1.0) <= 1e-12

    def test_product_recovery(self):
        # tensor then partial trace recovers the kept factor's projector
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = random_state(D2, rng)
            v = random_state(D3, rng)
            rho = pure_density(tensor(u, v))
            back = partial_trace(rho, (2, 3), keep=0)
            expected = np.outer(u.amplitudes, u.amplitudes.conj())
            assert np.linalg.norm(back.matrix - expected) <= 1e-12


class TestTraceProbability:
    def test_completeness(self):
        rho = pure_density(plus())
        assert trace_probability(Projector(identity(D2)), rho) == pytest.approx(1.0)

    def test_symmetry(self):
        p = projector_from_span([basis_state(D2, 0)])
        assert trace_probability(p, pure_density(plus())) == pytest.approx(0.5)

    def test_pure_state_amplitude_square(self):
        # p(P, phi) = <phi|P|phi>: 0.6^2 = 0.36 for the matching eigen-event
        p = projector_from_span([basis_state(D2, 0)])
        phi = make_state(D2, [0.6, 0.8])
        assert trace_probability(p, pure_density(phi)) == pytest.approx(0.36, abs=1e-12)

    def test_imaginary_part_raises(self):
        # tol fields widened to smuggle in malformed inputs
        bad = Projector(Operator(D2, np.array([[0, 1j], [0, 0]])), tol=10)
        rho = DensityOperator(D2, np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="imaginary"):
            trace_probability(bad, rho)

    def test_clamps_tiny_negative(self):
        rho = DensityOperator(D2, np.diag([1 + 1e-12, -1e-12]).astype(complex))
        p = projector_from_span([basis_state(D2, 1)])
        assert trace_probability(p, rho) == 0.0

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            space = HilbertSpace(d)
            rho = random_density(space, rng)
            p = random_projector(space, int(rng.integers(1, d + 1)), rng)
            q = Projector(Operator(space, np.eye(d) - p.matrix))
            total = trace_probability(p, rho) + trace_probability(q, rho)
            assert abs(total - 1.0) <= 1e-10


class TestSpectralObservable:
    def test_complete_two_level(self):
        obs = spectral_observable(
            [1.0, -1.0],
            [projector_from_span([basis_state(D2, 0)]), projector_from_span([basis_state(D2, 1)])],
        )
        assert obs.outcome_count == 2

    def test_degenerate_partition(self):
        obs = spectral_observable(
            [1.0, -1.0],
            [
                projector_from_span([basis_state(D3, 0), basis_state(D3, 1)]),
                projector_from_span([basis_state(D3, 2)]),
            ],
        )
        assert obs.projectors[0].rank == 2
        assert obs.projectors[1].rank == 1

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="0 and 1 are not orthogonal"):
            spectral_observable(
                [1.0, -1.0],
                [projector_from_span([basis_state(D2, 0)]), projector_from_span([plus()])],
            )

    def test_duplicate_eigenvalues_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            spectral_observable(
                [1.0, 1.0],
                [projector_from_span([basis_state(D2, 0)]), projector_from_span([basis_state(D2, 1)])],
            )

    def test_incomplete_family_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            spectral_observable([1.0], [projector_from_span([basis_state(D2, 0)])])

    def test_rank_zero_projector_rejected(self):
        zero = Projector(Operator(D2, np.zeros((2, 2), dtype=complex)))
        with pytest.raises(ValueError, match="rank"):
            spectral_observable([0.0, 1.0], [Projector(identity(D2)), zero])

    def test_random_observables_satisfy_invariants(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            parts = int(rng.integers(1, d + 1))
            projs = random_orthogonal_partition(HilbertSpace(d), parts, rng)
            obs = spectral_observable(list(range(parts)), projs)
            total = sum(p.matrix for p in obs.projectors)
            assert np.linalg.norm(total - np.eye(d)) <= 1e-10
            for i in range(parts):
                for j in range(i + 1, parts):
                    cross = obs.projectors[i].matrix @ obs.projectors[j].matrix
                    assert np.linalg.norm(cross) <= 1e-10


class TestProjectorFromSpan:
    def test_single_basis_vector(self):
        assert np.allclose(projector_from_span([basis_state(D2, 0)]).matrix, np.diag([1, 0]))

    def test_two_basis_vectors(self):
        p = projector_from_span([basis_state(D3, 0), basis_state(D3, 1)])
        assert np.allclose(p.matrix, np.diag([1, 1, 0]))

    def test_superposition_outer_product(self):
        p = projector_from_span([plus()])
        assert np.allclose(p.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_unnormalized_input_ok(self):
        p = projector_from_span([np.array([1.0, 1.0])])
        assert np.allclose(p.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_dependent_set_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            projector_from_span([basis_state(D2, 0), basis_state(D2, 0)])


class TestInvariants:
    def test_density_operator_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityOperator(D2, np.diag([1.5, -0.5]).astype(complex))

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projector(Operator(D2, np.diag([0.5, 0.5]).astype(complex)))

    def test_state_vector_rejects_unnormalized(self):
        from envborn.hilbert import StateVector

        with pytest.raises(ValueError, match="normalized"):
            StateVector(D2, np.array([1.0, 1.0]))

    def test_state_vector_rejects_nan(self):
        from envborn.hilbert import StateVector

        with pytest.raises(ValueError, match="normalized"):
            StateVector(D2, np.array([np.nan, 0.0]))
