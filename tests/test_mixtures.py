import numpy as np
import pytest
from conftest import flat_state, projector_from_span, random_density

from envborn.hilbert import (
    DensityOperator,
    basis_state,
    make_state,
    partial_trace,
    pure_density,
)
from envborn.mixtures import (
    MixtureSpec,
    improper_probability,
    mix,
    proper_improper_equivalence,
    proper_probability,
    purify,
)
from envborn.rng import random_projector, random_state, random_unitary
from envborn.schmidt import BipartiteState

D2 = 2


def zero_plus_mixture():
    states = np.column_stack([basis_state(D2, 0).amplitudes, make_state([1, 1]).amplitudes])
    return MixtureSpec(states, [0.5, 0.5])


def bell():
    return BipartiteState(np.array([[1, 0], [0, 1]]) / np.sqrt(2))


def random_spec(dim, parts, rng):
    weights = rng.dirichlet(np.ones(parts))
    states = np.column_stack([random_state(dim, rng).amplitudes for _ in weights])
    return MixtureSpec(states, weights)


def _nan_entry():
    states = np.eye(D2, dtype=complex)
    states[1, 0] = np.nan
    return states


class TestMixtureSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MixtureSpec(np.eye(D2), [0.5, 0.6])

    def test_counts_must_reproduce_weights(self):
        with pytest.raises(ValueError, match="count"):
            MixtureSpec(np.eye(D2), [0.5, 0.5], counts=(3, 1))

    def test_counts_accepted_when_proportional(self):
        spec = MixtureSpec(np.eye(D2), [0.75, 0.25], counts=(3, 1))
        assert spec.counts == (3, 1)

    def test_columns_are_the_components(self):
        states = np.column_stack([make_state([0.6, 0.8]).amplitudes, basis_state(D2, 1).amplitudes])
        spec = MixtureSpec(states, [0.25, 0.75])
        assert spec.dim == D2
        assert np.array_equal(spec.states, states)
        assert spec.weights.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize(
        "states, weights, counts, match",
        [
            (np.array([1.0, 0.0]), [1.0], None, "state matrix"),
            (np.zeros((D2, 0)), [], None, "at least one component"),
            (np.zeros((0, 1)), [1.0], None, "state matrix"),
            (np.eye(D2), [1.0], None, "state matrix"),
            (np.eye(D2), [[0.5, 0.5]], None, "state matrix"),
            (np.eye(D2) * np.array([1.0, 1.0 + 1e-11]), [0.5, 0.5], None, "not normalized"),
            (_nan_entry(), [0.5, 0.5], None, "not normalized"),
            (np.eye(D2), [np.nan, 1.0], None, "positive"),
            (np.eye(D2), [0.0, 1.0], None, "positive"),
            (np.eye(D2), [-0.5, 1.5], None, "positive"),
            (np.eye(D2), [0.5, 0.5 + 1e-9], None, "sum to"),
            (np.eye(D2), [0.5, 0.5], (1,), "one positive integer per component"),
            (np.eye(D2), [0.5, 0.5], (0, 0), "one positive integer per component"),
            (np.eye(D2), [0.75, 0.25], (2, 1), "do not reproduce"),
        ],
        ids=[
            "1-D", "no-columns", "no-rows", "too-few-weights", "2-D-weights", "norm-off-by-1e-11",
            "nan-entry", "nan-weight", "zero-weight", "negative-weight", "sum-off-by-1e-9",
            "count-length", "zero-counts", "counts-off-ratio",
        ],
    )
    def test_rejects(self, states, weights, counts, match):
        with pytest.raises(ValueError, match=match):
            MixtureSpec(states, weights, counts)


class TestMix:
    def test_single_component_is_pure_projector(self):
        spec = MixtureSpec(make_state([0.6, 0.8]).amplitudes[:, None], [1.0])
        assert np.allclose(mix(spec).matrix, [[0.36, 0.48], [0.48, 0.64]])

    def test_orthogonal_half_half_is_maximally_mixed(self):
        spec = MixtureSpec(np.eye(D2), [0.5, 0.5])
        assert np.allclose(mix(spec).matrix, np.eye(2) / 2)

    def test_overlapping_components(self):
        # 0.5 |0><0| + 0.5 |+><+|, outer products summed by hand
        assert np.allclose(
            mix(zero_plus_mixture()).matrix, [[0.75, 0.25], [0.25, 0.25]]
        )

    def test_random_specs_are_valid_densities(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            parts = int(rng.integers(2, 6))
            rho = mix(random_spec(dim, parts, rng))
            assert isinstance(rho, DensityOperator)  # invariants checked on build


class TestProperProbability:
    def test_sub_ensemble_sum(self):
        # 0.5 * 1 + 0.5 * 0.5 = 0.75
        p = projector_from_span([basis_state(D2, 0)])
        assert proper_probability(p, zero_plus_mixture()) == pytest.approx(0.75, abs=1e-12)

    def test_identity_event(self):
        assert proper_probability(np.eye(D2), zero_plus_mixture()) == pytest.approx(1.0)

    def test_single_component_reduces_to_pure_rule(self):
        phi = make_state([0.6, 0.8])
        spec = MixtureSpec(phi.amplitudes[:, None], [1.0])
        p = projector_from_span([basis_state(D2, 0)])
        assert proper_probability(p, spec) == pytest.approx(0.36, abs=1e-12)

    def test_internal_identity_over_random_pairs(self):
        # the sub-ensemble route must equal the trace rule on every call
        rng = np.random.default_rng(52)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            spec = random_spec(dim, int(rng.integers(2, 5)), rng)
            p = random_projector(dim, int(rng.integers(1, dim + 1)), rng)
            value = proper_probability(p, spec)  # raises on disagreement > 1e-12
            trace_route = float(np.trace(p @ p.conj().T @ mix(spec).matrix).real)
            assert value == pytest.approx(trace_route, abs=1e-12)


class TestImproperProbability:
    def test_bell_reduction(self):
        p = projector_from_span([basis_state(D2, 0)])
        assert improper_probability(p, bell()) == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        psi = BipartiteState(np.outer([1, 0], [1, 1]) / np.sqrt(2))
        p = projector_from_span([basis_state(D2, 0)])
        assert improper_probability(p, psi) == pytest.approx(1.0, abs=1e-12)

    def test_skewed_state(self):
        psi = BipartiteState(np.array([[2, 0], [0, 1]]) / np.sqrt(5))
        p = projector_from_span([basis_state(D2, 0)])
        assert improper_probability(p, psi) == pytest.approx(0.8, abs=1e-12)

    def test_both_routes_agree_randomly(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            psi = BipartiteState(random_state(d1 * d2, rng).amplitudes.reshape(d1, d2))
            p = random_projector(d1, int(rng.integers(1, d1 + 1)), rng)
            value = improper_probability(p, psi)  # raises on disagreement > 1e-12
            vec = psi.matrix.reshape(-1)
            composite_route = float(
                (vec.conj() @ (np.kron(p @ p.conj().T, np.eye(d2)) @ vec)).real
            )
            assert value == pytest.approx(composite_route, abs=1e-12)


class TestEquivalence:
    def test_bell_against_half_half(self):
        spec = MixtureSpec(np.eye(D2), [0.5, 0.5])
        assert proper_improper_equivalence(spec, bell(), trials=50, seed=1) <= 1e-10

    def test_purified_diagonal(self):
        spec = MixtureSpec(np.eye(D2), [0.8, 0.2])
        psi = purify(mix(spec))
        assert proper_improper_equivalence(spec, psi, trials=50, seed=2) <= 1e-10

    def test_mismatched_states_rejected(self):
        spec = MixtureSpec(np.eye(D2), [0.8, 0.2])
        with pytest.raises(ValueError, match="does not match"):
            proper_improper_equivalence(spec, bell(), trials=10, seed=3)


class TestPurify:
    def test_diagonal_purification_amplitudes(self):
        rho = DensityOperator(np.diag([0.8, 0.2]).astype(complex))
        psi = purify(rho)
        expected = np.zeros(4)
        expected[0] = np.sqrt(0.8)
        expected[3] = np.sqrt(0.2)
        assert np.allclose(np.abs(psi.matrix.reshape(-1)), expected)

    def test_round_trip_recovers_density(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            diag = rng.dirichlet(np.ones(dim))
            rho = DensityOperator(np.diag(diag).astype(complex))
            psi = purify(rho)
            back = partial_trace(pure_density(flat_state(psi)), psi.dims, keep=0)
            assert np.linalg.norm(back.matrix - rho.matrix) <= 1e-12

    def test_general_density_round_trip(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            rho = random_density(3, rng)
            psi = purify(rho)
            back = partial_trace(pure_density(flat_state(psi)), psi.dims, keep=0)
            assert np.linalg.norm(back.matrix - rho.matrix) <= 1e-12


# a projector basis that is not orthonormal, holds a NaN, or has the wrong
# number of rows -> the message it is rejected with
BAD_BASES = {
    "non-orthonormal": (np.array([[1.0], [1.0]]), "not orthonormal: Gram residual 1.000e.00"),
    "nan": (np.array([[1.0], [np.nan]]), "not orthonormal: Gram residual nan"),
    "wrong-dimension": (np.eye(3)[:, :1], r"expected a 2 x r projector basis, got shape \(3, 1\)"),
}


@pytest.mark.parametrize("name", sorted(BAD_BASES))
@pytest.mark.parametrize(
    "probability",
    [
        lambda basis: proper_probability(basis, zero_plus_mixture()),
        lambda basis: improper_probability(basis, bell()),
    ],
    ids=["proper", "improper"],
)
def test_bad_projector_basis_rejected(probability, name):
    basis, message = BAD_BASES[name]
    with pytest.raises(ValueError, match=message):
        probability(basis)


def test_random_projector_is_the_first_columns_of_a_haar_unitary():
    # the basis form keeps the draws of the dense form, so trial streams match
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    assert np.array_equal(random_projector(5, 2, a), random_unitary(5, b)[:, :2])
    assert a.random() == b.random()
