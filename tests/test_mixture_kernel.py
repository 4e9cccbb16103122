"""The mixture routes and the Schmidt witnesses against composite references.

``mixtures`` and the ``schmidt`` witnesses work on the ``d1 x d2`` coefficient
matrix of a bipartite state.  These properties rebuild every result with dense
``np.kron`` lifts and composite ``partial_trace(pure_density(...))`` reduced
states, over random mixtures with non-square partners (``d1 != d2``), and
require agreement to 1e-12.
"""

import numpy as np
from conftest import flat_state
from hypothesis import given, settings
from hypothesis import strategies as st

from envborn.hilbert import (
    DensityOperator,
    Operator,
    make_state,
    partial_trace,
    pure_density,
)
from envborn.mixtures import (
    MixtureSpec,
    improper_probability,
    proper_improper_equivalence,
    proper_probability,
    purify,
)
from envborn.rng import random_projector, random_unitary
from envborn.schmidt import (
    BipartiteState,
    check_envariance,
    schmidt_decompose,
    sublemma_check,
    twin_unitary,
)

AGREE = 1e-12
seeds = st.integers(0, 2**32 - 1)


def complex_normal(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def reduced(psi12, keep):
    return partial_trace(pure_density(flat_state(psi12)), psi12.dims, keep=keep).matrix


def lifted_expectation(P1, psi12):
    vec = psi12.matrix.reshape(-1)
    return float((vec.conj() @ np.kron(P1, np.eye(psi12.d2)) @ vec).real)


@st.composite
def mixtures_with_partners(draw):
    """A random mixture of ``parts`` components in ``d1`` and a partner in
    ``d1 x d2`` (``d2 >= parts``, independent of ``d1``) whose first factor
    reduces to exactly that mixture."""
    rng = np.random.default_rng(draw(seeds))
    d1 = draw(st.integers(1, 5))
    parts = draw(st.integers(1, 4))
    d2 = parts + draw(st.integers(0, 2))
    weights = rng.dirichlet(np.ones(parts))
    states = np.column_stack([make_state(complex_normal(d1, rng)).amplitudes for _ in range(parts)])
    spec = MixtureSpec(states, weights)
    partner_basis = random_unitary(d2, rng)[:, :parts]
    coeffs = sum(
        np.sqrt(w) * np.outer(s, partner_basis[:, k])
        for k, (s, w) in enumerate(zip(states.T, weights))
    )
    psi12 = BipartiteState(coeffs / np.linalg.norm(coeffs))
    return spec, psi12, rng


@settings(max_examples=60, deadline=None)
@given(mixtures_with_partners())
def test_mixture_routes_match_composite_references(case):
    spec, psi12, rng = case
    d1 = psi12.d1
    rho1 = reduced(psi12, 0)
    rho_mix = sum(w * np.outer(s, s.conj()) for s, w in zip(spec.states.T, spec.weights))
    assert np.linalg.norm(rho_mix - rho1) <= AGREE

    for _ in range(3):
        basis = random_projector(d1, int(rng.integers(1, d1 + 1)), rng)
        P = basis @ basis.conj().T
        by_components = sum(
            w * float((s.conj() @ P @ s).real)
            for s, w in zip(spec.states.T, spec.weights)
        )
        assert abs(proper_probability(basis, spec) - by_components) <= AGREE
        assert abs(proper_probability(basis, spec) - np.trace(P @ rho_mix).real) <= AGREE
        improper = improper_probability(basis, psi12)
        assert abs(improper - lifted_expectation(P, psi12)) <= AGREE
        assert abs(improper - np.trace(P @ rho1).real) <= AGREE


@settings(max_examples=30, deadline=None)
@given(mixtures_with_partners(), seeds)
def test_equivalence_matches_lifted_trial_loop(case, seed):
    spec, psi12, _ = case
    trials = 8
    rng = np.random.default_rng(seed)
    rho1 = reduced(psi12, 0)
    expected = 0.0
    for _ in range(trials):
        basis = random_projector(psi12.d1, int(rng.integers(1, psi12.d1 + 1)), rng)
        P = basis @ basis.conj().T
        proper = sum(
            w * float((s.conj() @ P @ s).real)
            for s, w in zip(spec.states.T, spec.weights)
        )
        assert abs(lifted_expectation(P, psi12) - np.trace(P @ rho1).real) <= AGREE
        improper = float(np.trace(P @ rho1).real)
        expected = max(expected, abs(min(max(proper, 0.0), 1.0) - min(max(improper, 0.0), 1.0)))
    got = proper_improper_equivalence(spec, psi12, trials=trials, seed=seed)
    assert abs(got - expected) <= AGREE


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), seeds)
def test_purify_matches_kron_sum(d, rank, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, d)
    g = complex_normal((d, rank), rng)
    w = g @ g.conj().T
    rho = DensityOperator(w / np.trace(w).real)

    values, vectors = np.linalg.eigh(rho.matrix)
    expected = np.zeros(d * d, dtype=complex)
    for idx in np.argsort(values)[::-1]:
        if values[idx] >= 1e-12:
            expected += np.sqrt(values[idx]) * np.kron(vectors[:, idx], vectors[:, idx])
    expected /= np.linalg.norm(expected)

    psi12 = purify(rho)
    assert psi12.dims == (d, d)
    assert np.linalg.norm(psi12.matrix.reshape(-1) - expected) <= AGREE
    assert np.linalg.norm(reduced(psi12, 0) - rho.matrix) <= 1e-10


@st.composite
def bipartite_states(draw):
    rng = np.random.default_rng(draw(seeds))
    d1 = draw(st.integers(1, 5))
    d2 = draw(st.integers(1, 5))
    vec = complex_normal(d1 * d2, rng)
    return BipartiteState((vec / np.linalg.norm(vec)).reshape(d1, d2)), rng


@settings(max_examples=60, deadline=None)
@given(bipartite_states())
def test_envariance_residual_matches_kron_lift(case):
    psi12, rng = case
    d1, d2 = psi12.dims
    vec = psi12.matrix.reshape(-1)
    form = schmidt_decompose(psi12)
    twins = twin_unitary(form, rng.uniform(0, 2 * np.pi, size=len(form)))
    generic = (
        Operator(random_unitary(d1, rng)),
        Operator(random_unitary(d2, rng)),
    )
    for u1, u2 in (twins, generic):
        lifted = np.kron(u1.matrix, u2.matrix) @ vec
        expected = np.linalg.norm(lifted - vec)
        assert abs(check_envariance(psi12, u1, u2) - expected) <= AGREE
    assert check_envariance(psi12, *twins) <= AGREE


@settings(max_examples=60, deadline=None)
@given(bipartite_states(), st.integers(1, 5))
def test_sublemma_matches_composite_references(case, rank):
    psi12, rng = case
    d1, d2 = psi12.dims
    basis = random_projector(d2, min(rank, d2), rng)
    q2 = basis @ basis.conj().T
    # a state supported inside range(Q2) on the second factor
    coeffs = psi12.matrix @ q2.T
    if np.linalg.norm(coeffs) < 1e-6:
        return
    psi = BipartiteState(coeffs / np.linalg.norm(coeffs))
    vec = psi.matrix.reshape(-1)
    assert np.linalg.norm(np.kron(np.eye(d1), q2) @ vec - vec) <= AGREE

    report = sublemma_check(psi, basis)
    residuals = []
    sub = np.zeros((d2, d2), dtype=complex)
    for v in schmidt_decompose(psi).basis2.T:
        residuals.append(np.linalg.norm(q2 @ v - v))
        sub += np.outer(v, v.conj())
    residuals.append(np.linalg.norm(q2 @ sub - sub))
    rho2 = reduced(psi, 1)
    residuals.append(np.linalg.norm(q2 @ rho2 - rho2))
    assert abs(report.max_residual - max(residuals)) <= AGREE
    assert report.passed
