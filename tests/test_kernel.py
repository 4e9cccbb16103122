"""The one-sided coefficient-matrix products against explicit composite lifts.

Every factor-side step of the pipeline is computed as a product on the
``d1 x d2`` coefficient matrix of the coupled state.  These properties rebuild
each step with dense ``np.kron`` lifts on the composite space and require
agreement to 1e-12 over random models, branch-entangling couplings and the
identity coupling.
"""

import numpy as np
from conftest import entangle_branches, random_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

from envborn.born import complement_check, pointer_density
from envborn.hilbert import StateVector, identity
from envborn.premeasurement import (
    PremeasurementModel,
    branches,
    eigenspace_basis,
    evolve,
    verify_calibration,
    verify_nondemolition,
)
from envborn.rng import random_unit_vector
from envborn.schmidt import BipartiteState, schmidt_decompose

AGREE = 1e-12
TRIALS = 5


def lifted_evolve(model, vec):
    joint = np.kron(vec, model.apparatus.ready_state.amplitudes)
    out = model.unitary.matrix @ joint
    return out / np.linalg.norm(out)


def pointer_lift(model, q):
    return np.kron(np.eye(model.d1), q)


def lifted_calibration(model, trials, seed):
    rng = np.random.default_rng(seed)
    residuals = []
    for p, q in zip(model.measured.projectors, model.apparatus.pointer_observable.projectors):
        basis = eigenspace_basis(p)
        samples = list(basis)
        for _ in range(trials):
            coeff = random_unit_vector(len(basis), rng)
            samples.append(sum(c * b for c, b in zip(coeff, basis)))
        lifted_q = pointer_lift(model, q.matrix)
        worst = 0.0
        for vec in samples:
            out = lifted_evolve(model, vec / np.linalg.norm(vec))
            worst = max(worst, float(np.linalg.norm(lifted_q @ out - out)))
        residuals.append(worst)
    return residuals


def lifted_partial_trace(vec, d1, d2):
    rho = np.outer(vec, vec.conj())
    rows = [np.kron(np.eye(d1)[i], np.eye(d2)) for i in range(d1)]
    return sum(r @ rho @ r.T for r in rows)


@st.composite
def models(draw):
    d1 = draw(st.integers(2, 5))
    d2 = draw(st.integers(2, 5))
    outcomes = draw(st.integers(1, min(d1, d2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model, phi = random_scenario(d1, d2, outcomes, rng)
    coupling = draw(st.sampled_from(["built", "entangled", "identity"]))
    if coupling == "entangled":
        model = entangle_branches(model, rng)
    elif coupling == "identity":
        model = PremeasurementModel(
            model.measured, model.apparatus, identity(model.composite_space)
        )
    return model, phi


@settings(max_examples=40, deadline=None)
@given(models(), st.integers(0, 2**32 - 1))
def test_one_sided_products_match_composite_lifts(case, seed):
    model, phi = case
    d1, d2 = model.d1, model.d2
    pointer_projectors = model.apparatus.pointer_observable.projectors
    psi12 = evolve(model, phi)
    vec = psi12.state.amplitudes
    assert np.linalg.norm(vec - lifted_evolve(model, phi.amplitudes)) <= AGREE

    bset = branches(model, psi12)
    kept = {b.outcome: b for b in bset.branches}
    for n, q in enumerate(pointer_projectors):
        term = pointer_lift(model, q.matrix) @ vec
        if n in kept:
            assert np.linalg.norm(kept[n].vector - term) <= AGREE
            assert abs(kept[n].weight - np.linalg.norm(term) ** 2) <= AGREE
        else:
            assert n in bset.omitted

    calibration = verify_calibration(model, trials=TRIALS, seed=seed)
    reference = lifted_calibration(model, TRIALS, seed)
    assert np.max(np.abs(np.subtract(calibration.residuals, reference))) <= AGREE

    nondemolition = verify_nondemolition(model, bset)
    for b in bset.branches:
        lifted_p = np.kron(model.measured.projectors[b.outcome].matrix, np.eye(d2))
        expected = np.linalg.norm(lifted_p @ b.vector - b.vector)
        assert abs(nondemolition.residuals[b.outcome] - expected) <= AGREE

    for n, q in enumerate(pointer_projectors):
        schmidt2 = ()
        if n in kept:
            normalized = StateVector(psi12.state.space, kept[n].normalized())
            schmidt2 = schmidt_decompose(BipartiteState(normalized, (d1, d2))).basis2
        comp = q.matrix - sum(
            (np.outer(v.amplitudes, v.amplitudes.conj()) for v in schmidt2),
            np.zeros((d2, d2), dtype=complex),
        )
        expected = np.linalg.norm(pointer_lift(model, comp) @ vec)
        assert abs(complement_check(model, psi12, n, schmidt2) - expected) <= AGREE

    rho2 = pointer_density(psi12)
    assert np.linalg.norm(rho2.matrix - lifted_partial_trace(vec, d1, d2)) <= AGREE
