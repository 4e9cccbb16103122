import copy
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_projectors,
    mgs_orthonormalize,
    partial_trace,
    projector_from_span,
    random_density,
    random_orthogonal_partition,
    random_state,
    random_unitary,
    tensor,
)
from envborn.hilbert import (
    DEFAULT_TOL,
    Audit,
    DensityOperator,
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
from envborn.cli import _finite
from envborn.mixtures import MixtureSpec
from envborn.premeasurement import Branch, PointerApparatus, build_premeasurement
from envborn.schmidt import BipartiteState, SchmidtForm

INV_SQRT2 = 0.7071067811865476
# amplitudes of [2, 0, 1] divided by its norm sqrt(5)
TWO_OVER_SQRT5 = 0.8944271909999159
ONE_OVER_SQRT5 = 0.4472135954999579

D2 = 2
D3 = 3
D4 = 4


def plus():
    return make_state([1, 1])


class TestMakeState:
    def test_basis_vector(self):
        assert np.allclose(make_state([1, 0]).amplitudes, [1, 0])

    def test_normalizes(self):
        assert np.allclose(make_state([1, 1]).amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_divides_by_norm(self):
        st_ = make_state([2, 0, 1])
        assert np.allclose(st_.amplitudes, [TWO_OVER_SQRT5, 0.0, ONE_OVER_SQRT5])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            make_state([0, 0])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_cannot_be_normalized(self):
        # each entry is finite, but the norm overflows to inf and vec / inf
        # would be the zero vector
        with pytest.raises(ValueError, match="cannot normalize a vector of norm inf"):
            make_state([1e308, 1e308])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_amplitude(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_state([1, bad])

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    def test_always_unit_norm(self, values):
        if np.linalg.norm(values) < 1e-6:
            return
        state = make_state(values)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


class TestTensor:
    def test_basis_product(self):
        out = tensor(basis_state(D2, 0), basis_state(D2, 1))
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_distributes(self):
        out = tensor(plus(), basis_state(D2, 0))
        assert np.allclose(out.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0])

    def test_kronecker_expansion(self):
        u = make_state([2, 1])
        out = tensor(u, basis_state(D2, 1))
        # oracle: direct Kronecker expansion
        expected = np.kron(u.amplitudes, [0, 1])
        assert np.allclose(out.amplitudes, expected)
        assert np.allclose(out.amplitudes, [0, TWO_OVER_SQRT5, 0, ONE_OVER_SQRT5])

    def test_first_factor_is_slow_index(self):
        u = make_state([1, 2])
        v = make_state([3, 4, 5])
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
        rho = pure_density(make_state([1, 0, 0, 1]))
        reduced = partial_trace(rho, (2, 2), keep=0)
        assert np.allclose(reduced.matrix, np.eye(2) / 2)

    def test_product_state_uncorrelated(self):
        rho = pure_density(tensor(basis_state(D2, 0), plus()))
        reduced = partial_trace(rho, (2, 2), keep=0)
        assert np.allclose(reduced.matrix, np.diag([1.0, 0.0]))

    def test_skewed_state_against_loop_oracle(self):
        psi = make_state([2, 0, 0, 1])
        reduced = partial_trace(pure_density(psi), (2, 2), keep=1)
        assert np.allclose(reduced.matrix, reduced_by_loops(psi.amplitudes, (2, 2), 1))
        assert np.allclose(reduced.matrix, np.diag([0.8, 0.2]))

    def test_non_factorizable_declaration(self):
        rho = pure_density(make_state([1, 1, 1]))
        with pytest.raises(ValueError, match="factorization"):
            partial_trace(rho, (2, 2), keep=0)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        for d1, d2 in [(2, 2), (2, 3), (3, 4)]:
            rho = random_density(d1 * d2, rng)
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
        assert trace_probability(np.eye(D2), rho) == pytest.approx(1.0)

    def test_symmetry(self):
        p = projector_from_span([basis_state(D2, 0)])
        assert trace_probability(p, pure_density(plus())) == pytest.approx(0.5)

    def test_pure_state_amplitude_square(self):
        # p(P, phi) = <phi|P|phi>: 0.6^2 = 0.36 for the matching eigen-event
        p = projector_from_span([basis_state(D2, 0)])
        phi = make_state([0.6, 0.8])
        assert trace_probability(p, pure_density(phi)) == pytest.approx(0.36, abs=1e-12)

    def test_imaginary_part_raises(self):
        # a density admitted at DEFAULT_TOL (Hermitian residual 9.9e-11), read
        # through a basis that is not orthonormal: the trace's imaginary part is
        # 100 times the off-diagonal 7e-11, beyond DEFAULT_TOL
        rho = DensityOperator(np.array([[0.5, 0.0], [7e-11j, 0.5]]))
        with pytest.raises(ValueError, match=r"imaginary part 7.000e-09 beyond tolerance 1.0e-10"):
            trace_probability(np.array([[10.0], [10.0]]), rho)

    def test_clamps_tiny_negative(self):
        rho = DensityOperator(np.diag([1 + 1e-12, -1e-12]).astype(complex))
        p = projector_from_span([basis_state(D2, 1)])
        assert trace_probability(p, rho) == 0.0

    def test_dimension_mismatch(self):
        p = projector_from_span([basis_state(D2, 0)])
        with pytest.raises(ValueError, match="dimension mismatch in trace_probability: 2 vs 3"):
            trace_probability(p, pure_density(basis_state(D3, 0)))

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            # the complement of the first r columns of a unitary is the rest
            u = random_unitary(d, rng)
            rank = int(rng.integers(1, d + 1))
            total = trace_probability(u[:, :rank], rho) + trace_probability(u[:, rank:], rho)
            assert abs(total - 1.0) <= 1e-10


E2 = np.eye(D2)
E3 = np.eye(D3)


class TestObservable:
    def test_complete_two_level(self):
        obs = Observable([1.0, -1.0], [E2[:, :1], E2[:, 1:]])
        assert obs.outcome_count == 2

    def test_degenerate_partition(self):
        # the blocks are stored side by side in order, each with its own rank
        obs = Observable([1.0, -1.0], [E3[:, [2, 0]], E3[:, 1:2]])
        assert obs.ranks == (2, 1)
        assert np.array_equal(obs.matrix, E3[:, [2, 0, 1]])
        assert np.array_equal(obs.bases[0], E3[:, [2, 0]])
        assert np.array_equal(obs.bases[1], E3[:, 1:2])

    def test_bases_are_read_only_views_of_the_matrix(self):
        obs = Observable([1.0, -1.0, 0.5], [E3[:, [2]], E3[:, :1], E3[:, 1:2] * 1j])
        assert [b.shape for b in obs.bases] == [(3, 1), (3, 1), (3, 1)]
        for b in obs.bases:
            assert np.shares_memory(b, obs.matrix)
            assert not b.flags.writeable
        assert np.array_equal(np.hstack(obs.bases), obs.matrix)
        degenerate = Observable([1.0, -1.0], [E3[:, [2, 0]], E3[:, 1:2]])
        assert [b.shape for b in degenerate.bases] == [(3, 2), (3, 1)]
        assert np.array_equal(np.hstack(degenerate.bases), degenerate.matrix)

    def test_non_orthogonal_rejected(self):
        # the overlapping block is the last one, so every block counts
        with pytest.raises(ValueError, match="not orthonormal and complete"):
            Observable([1.0, -1.0], [E2[:, :1], plus().amplitudes[:, None]])

    def test_unnormalized_basis_rejected(self):
        with pytest.raises(ValueError, match="not orthonormal and complete"):
            Observable([1.0, -1.0], [E2[:, :1], 2 * E2[:, 1:]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_basis_rejected(self, bad):
        basis = E2.astype(complex)
        basis[1, 1] = bad
        # inf * 0 in the Gram product is NaN, which the check rejects
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not orthonormal"):
            Observable([1.0, -1.0], [basis[:, :1], basis[:, 1:]])

    def test_duplicate_eigenvalues_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Observable([1.0, 1.0], [E2[:, :1], E2[:, 1:]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_eigenvalues_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Observable([bad, 1.0], [E2[:, :1], E2[:, 1:]])
        with pytest.raises(ValueError, match="finite"):
            Observable([bad, bad], [E2[:, :1], E2[:, 1:]])

    def test_incomplete_family_rejected(self):
        with pytest.raises(ValueError, match="sum to dim"):
            Observable([1.0], [E2[:, :1]])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match=r"shapes \[\(2, 1\), \(3, 1\)\]"):
            Observable([0.0, 1.0], [E2[:, :1], E3[:, :1]])

    def test_rank_zero_projector_rejected(self):
        with pytest.raises(ValueError, match="rank >= 1"):
            Observable([0.0, 1.0], [E2, np.zeros((2, 0))])
        with pytest.raises(ValueError, match="rank >= 1"):
            Observable([0.0, 1.0], [E2[:, 0], E2[:, 1]])

    def test_random_observables_satisfy_invariants(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            parts = int(rng.integers(1, d + 1))
            bases = random_orthogonal_partition(d, parts, rng)
            obs = Observable(list(range(parts)), bases)
            assert obs.ranks == tuple(b.shape[1] for b in bases)
            for n, b in enumerate(bases):
                assert np.array_equal(obs.bases[n], b)
            projectors = dense_projectors(obs)
            assert np.linalg.norm(sum(projectors) - np.eye(d)) <= 1e-10
            for i in range(parts):
                for j in range(i + 1, parts):
                    assert np.linalg.norm(projectors[i] @ projectors[j]) <= 1e-10


@st.composite
def perturbed_partitions(draw, factors):
    """Eigenspace bases of a random partition, moved off unitarity so that
    ``||W^H W - I||`` is about ``factor * DEFAULT_TOL`` for a drawn factor:
    ``W + eps G`` has residual ``eps ||W^H G + G^H W||`` to first order."""
    d = draw(st.integers(1, 5))
    parts = draw(st.integers(1, d))
    factor = draw(factors)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = random_orthogonal_partition(d, parts, rng)
    w = np.hstack(bases)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    eps = factor * DEFAULT_TOL / np.linalg.norm(w.conj().T @ g + g.conj().T @ w)
    cuts = np.cumsum([b.shape[1] for b in bases])[:-1]
    return np.split(w + eps * g, cuts, axis=1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(perturbed_partitions(st.floats(0.5, 2.0)))
def test_observable_decides_like_completeness_sum(bases):
    """The Gram check of ``W`` accepts exactly when the completeness residual
    ``||sum_n P^n - I||`` of the dense projectors ``P^n = B_n B_n^H`` is
    within the tolerance.  The two residuals are equal in exact arithmetic;
    a decision is compared only outside their rounding difference."""
    w = np.hstack(bases)
    completeness = np.linalg.norm(sum(b @ b.conj().T for b in bases) - np.eye(len(w)))
    gram = np.linalg.norm(w.conj().T @ w - np.eye(len(w)))
    assert abs(gram - completeness) <= 1e-14
    if abs(completeness - DEFAULT_TOL) <= 1e-14:
        return
    try:
        Observable(list(range(len(bases))), bases)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (completeness <= DEFAULT_TOL)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(perturbed_partitions(st.floats(0.9, 0.999)), st.integers(0, 2**32 - 1))
def test_dense_projectors_of_an_accepted_observable_raise_nothing(bases, seed):
    """Bases just within the tolerance are accepted once; the trace rule
    through each ``B_n``, the form of ``P^n``, decides nothing again."""
    obs = Observable(list(range(len(bases))), bases)
    rho = random_density(obs.dim, np.random.default_rng(seed))
    total = sum(trace_probability(b, rho) for b in obs.bases)
    assert abs(total - 1.0) <= 2 * DEFAULT_TOL


def dense(basis):
    return basis @ basis.conj().T


class TestProjectorFromSpan:
    def test_single_basis_vector(self):
        assert np.allclose(dense(projector_from_span([basis_state(D2, 0)])), np.diag([1, 0]))

    def test_two_basis_vectors(self):
        p = projector_from_span([basis_state(D3, 0), basis_state(D3, 1)])
        assert np.allclose(dense(p), np.diag([1, 1, 0]))

    def test_superposition_outer_product(self):
        p = projector_from_span([plus()])
        assert np.allclose(dense(p), [[0.5, 0.5], [0.5, 0.5]])

    def test_unnormalized_input_ok(self):
        p = projector_from_span([np.array([1.0, 1.0])])
        assert np.allclose(dense(p), [[0.5, 0.5], [0.5, 0.5]])

    def test_dependent_set_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            projector_from_span([basis_state(D2, 0), basis_state(D2, 0)])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="length 2"):
            projector_from_span([basis_state(D2, 0), basis_state(D3, 2)])


class TestOrthonormalize:
    def test_structural_zero_row_stays_exact(self):
        # the skewed pointer span of tests/test_born.py: its pointer model
        # needs Q^1 to leave e0 exactly untouched
        q = orthonormalize([[0, 1, 2j], [0, 2j, 1]])
        assert q.shape == (3, 2)
        assert np.all(q[0] == 0)
        assert np.linalg.norm(q.conj().T @ q - np.eye(2)) <= 1e-15

    def test_dependent_set_message(self):
        with pytest.raises(ValueError, match="^input vectors are linearly dependent$"):
            orthonormalize([[1, 1j, 0], [2, 2j, 0]])

    def test_mixed_lengths_message(self):
        with pytest.raises(ValueError, match=r"^expected a vector of length 3, got \(2,\)$"):
            orthonormalize([[1, 0, 0], [0, 1]])

    def test_empty_set_message(self):
        with pytest.raises(ValueError, match="^span requires at least one vector$"):
            orthonormalize(iter([]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
    def test_matches_modified_gram_schmidt(self, dim, count, seed, data):
        rng = np.random.default_rng(seed)
        count = min(count, dim)
        zero_rows = data.draw(st.sets(st.integers(0, dim - 1), max_size=dim - count))
        vectors = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        vectors[:, sorted(zero_rows)] = 0
        # a well-conditioned set, so that the two orders of rounding stay close
        assume(np.linalg.cond(vectors) < 100)
        q = orthonormalize(list(vectors))
        assert np.max(np.abs(q - mgs_orthonormalize(vectors))) <= 1e-13
        assert np.all(q[sorted(zero_rows)] == 0)


class TestInvariants:
    def test_density_operator_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(np.array([1.0, 1.0]))

    def test_state_vector_rejects_nan(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("amplitudes", [np.eye(2)[:1], np.zeros(0)], ids=["2-D", "empty"])
    def test_state_vector_rejects_non_vector(self, amplitudes):
        with pytest.raises(ValueError, match="non-empty 1-D vector"):
            StateVector(amplitudes)

    @pytest.mark.parametrize(
        "matrix", [np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(4)], ids=["2x3", "empty", "1-D"]
    )
    def test_operator_rejects_non_square(self, matrix):
        with pytest.raises(ValueError, match="non-empty square matrix"):
            Operator(matrix)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("cls", [Operator, DensityOperator])
    def test_non_finite_entry_rejected(self, cls, bad):
        with pytest.raises(ValueError, match="finite"):
            cls(np.diag([1.0, bad]).astype(complex))


class TestAudit:
    def test_empty_map_passes_with_zero_residual(self):
        audit = Audit({}, 1e-10)
        assert audit.max_residual == 0.0
        assert audit.passed

    def test_infinite_residual_fails(self):
        audit = Audit({0: 1e-12, 1: math.inf}, 1e-10)
        assert audit.max_residual == math.inf
        assert not audit.passed

    @pytest.mark.parametrize("residuals", [{0: math.nan, 1: 0.0}, {0: 0.0, 1: math.nan}])
    def test_nan_residual_fails_in_any_position(self, residuals):
        assert not Audit(residuals, 1e-10).passed

    @pytest.mark.parametrize(
        "residuals",
        [{0: math.nan, 1: 0.0}, {0: 0.0, 1: math.nan}, {0: math.inf, 1: math.nan, 2: 1.0}],
    )
    def test_nan_residual_is_the_max_in_any_position(self, residuals):
        # a failed audit never reports a finite worst residual, and the CLI
        # prints the NaN as null
        audit = Audit(residuals, 1e-10)
        assert math.isnan(audit.max_residual)
        assert _finite(audit.max_residual) is None

    def test_tolerance_is_inclusive(self):
        assert Audit({None: 1e-10}, 1e-10).passed
        assert not Audit({None: math.nextafter(1e-10, 1.0)}, 1e-10).passed

    def test_residuals_are_a_read_only_copy(self):
        residuals = {0: 1.0}
        audit = Audit(residuals, 1e-10)
        residuals[0] = 0.0
        with pytest.raises(TypeError):
            audit.residuals[0] = 0.0
        assert audit.residuals == {0: 1.0}
        assert not audit.passed

    def test_max_over_outcomes(self):
        audit = Audit({0: 1e-13, 2: 3e-11, 1: 2e-12}, 1e-11)
        assert audit.max_residual == 3e-11
        assert not audit.passed


# class -> (the stored array of a value built from a caller's array, a maker
# of a fresh caller's array)
STORED_COPY_CASES = {
    "StateVector": (
        lambda a: StateVector(a).amplitudes,
        lambda: np.array([1, 0], dtype=complex),
    ),
    "Operator": (lambda a: Operator(a).matrix, lambda: np.eye(2, dtype=complex)),
    "DensityOperator": (
        lambda a: DensityOperator(a).matrix,
        lambda: np.diag([1, 0]).astype(complex),
    ),
    "BipartiteState": (
        lambda a: BipartiteState(a).matrix,
        lambda: np.eye(2, dtype=complex) / math.sqrt(2),
    ),
    "Branch": (
        lambda a: Branch(0, 1.0, a, np.eye(D2)[:, :1]).core,
        lambda: np.array([[1]], dtype=complex),
    ),
    "Branch.core": (
        lambda a: Branch(0, 1.0, a, np.eye(D2)).core,
        lambda: np.eye(2, dtype=complex) / math.sqrt(2),
    ),
    "Branch.basis": (
        lambda a: Branch(0, 1.0, np.eye(D2)[:1, :1], a).basis,
        lambda: np.array([[1], [0]], dtype=complex),
    ),
    "SchmidtForm": (
        lambda a: SchmidtForm(a, np.eye(D2)[:, :1], np.eye(D2)[:, :1]).coefficients,
        lambda: np.array([1.0]),
    ),
    "SchmidtForm.basis1": (
        lambda a: SchmidtForm([1.0], a, np.eye(D2)[:, :1]).basis1,
        lambda: np.array([[1], [0]], dtype=complex),
    ),
    "SchmidtForm.basis2": (
        lambda a: SchmidtForm([1.0], np.eye(D2)[:, :1], a).basis2,
        lambda: np.array([[0], [1]], dtype=complex),
    ),
    "MixtureSpec": (lambda a: MixtureSpec(a, [0.5, 0.5]).states, lambda: np.eye(D2, dtype=complex)),
    "MixtureSpec.weights": (
        lambda a: MixtureSpec(np.eye(D2), a).weights,
        lambda: np.array([0.5, 0.5]),
    ),
}


@pytest.mark.parametrize("name", sorted(STORED_COPY_CASES))
def test_constructor_stores_a_frozen_copy(name):
    stored_of, make = STORED_COPY_CASES[name]
    values = make()
    stored = stored_of(values)
    assert not stored.flags.writeable
    values[0] = 5  # the caller's array stays writable ...
    assert np.array_equal(stored, make())  # ... and the stored value does not move


def _qubit_model():
    obs = complete_observable([basis_state(D2, 0), basis_state(D2, 1)])
    return build_premeasurement(obs, PointerApparatus(basis_state(D2, 0), obs, np.eye(D2)))


# class -> a maker of a fresh value; two calls give equal contents
VALUE_MAKERS = {
    "StateVector": lambda: basis_state(D2, 0),
    "Operator": lambda: identity(D2),
    "Observable": lambda: Observable([0.0], [np.eye(D2)]),
    "DensityOperator": lambda: DensityOperator(np.eye(D2) / D2),
    "BipartiteState": lambda: BipartiteState(np.eye(D2) / math.sqrt(2)),
    "SchmidtForm": lambda: SchmidtForm([1.0], np.eye(D2)[:, :1], np.eye(D2)[:, :1]),
    "PointerApparatus": lambda: _qubit_model().apparatus,
    "PremeasurementModel": _qubit_model,
    "Branch": lambda: Branch(0, 1.0, np.eye(D2)[:1, :1], np.eye(D2)[:, :1]),
    "MixtureSpec": lambda: MixtureSpec(np.eye(D2), [0.5, 0.5]),
}


@pytest.mark.parametrize("name", sorted(VALUE_MAKERS))
def test_array_values_compare_and_hash_by_identity(name):
    # a generated __eq__ over ndarray fields raises on ambiguous truth values
    a, b = VALUE_MAKERS[name](), VALUE_MAKERS[name]()
    assert a == a
    assert a != b
    assert a != copy.copy(a)  # the same field objects, still another value
    assert len({a, b, a}) == 2


def test_hypothesis_prints_an_observable_field_by_field():
    # a falsifying example holding an Observable prints each constructor
    # argument, ``bases`` included, with no printer registered for the class
    from hypothesis.vendor.pretty import pretty

    observable = Observable([0.0, 1.0], [np.eye(2)[:, :1], np.eye(2)[:, 1:]])
    text = pretty(observable)
    assert text.startswith("Observable(eigenvalues=(0.0, 1.0), bases=(array(")
    assert text.endswith("), tol=1e-10)")
