"""The one-sided coefficient-matrix products and the block-form coupling
against explicit composite lifts.

Every factor-side step of the pipeline is computed as a product on the
``d1 x d2`` coefficient matrix of the coupled state.  These properties rebuild
each step with dense ``np.kron`` lifts on the composite space and require
agreement to 1e-12 over random models, branch-entangling couplings and the
identity coupling.  A block coupling ``sum_n P^n (x) V_n`` is checked against
its own kron-built dense ``U``: the unitarity residual ``||U^H U - I||``
(unperturbed, perturbed, and straddling the tolerance), the ready map, evolve
and calibration.
"""

import numpy as np
import pytest
from conftest import dense_coupling, entangle_branches, random_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

from envborn.born import complement_check, pointer_density
from envborn.hilbert import (
    DEFAULT_TOL,
    Observable,
    Operator,
    Projector,
    identity,
)
from envborn.premeasurement import (
    PremeasurementModel,
    branches,
    eigenspace_basis,
    evolve,
    verify_calibration,
    verify_nondemolition,
)
from envborn.rng import random_unit_vector, random_unitary
from envborn.schmidt import BipartiteState, schmidt_decompose

AGREE = 1e-12
TRIALS = 5
LOOSE = 1e3  # a tolerance that accepts any perturbation used here


def lifted_evolve(model, vec):
    joint = np.kron(vec, model.apparatus.ready_state.amplitudes)
    out = dense_coupling(model) @ joint
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
    vec = psi12.matrix.reshape(-1)
    assert np.linalg.norm(vec - lifted_evolve(model, phi.amplitudes)) <= AGREE

    bset = branches(model, psi12)
    kept = {b.outcome: b for b in bset.branches}
    for n, q in enumerate(pointer_projectors):
        term = pointer_lift(model, q.matrix) @ vec
        if n in kept:
            assert np.linalg.norm(kept[n].matrix.reshape(-1) - term) <= AGREE
            assert abs(kept[n].weight - np.linalg.norm(term) ** 2) <= AGREE
        else:
            assert n in bset.omitted

    calibration = verify_calibration(model, trials=TRIALS, seed=seed)
    reference = lifted_calibration(model, TRIALS, seed)
    assert np.max(np.abs(np.subtract(calibration.residuals, reference))) <= AGREE

    nondemolition = verify_nondemolition(model, bset)
    for b in bset.branches:
        lifted_p = np.kron(model.measured.projectors[b.outcome].matrix, np.eye(d2))
        term = b.matrix.reshape(-1)
        expected = np.linalg.norm(lifted_p @ term - term)
        assert abs(nondemolition.residuals[b.outcome] - expected) <= AGREE

    for n, q in enumerate(pointer_projectors):
        schmidt2 = ()
        if n in kept:
            schmidt2 = schmidt_decompose(BipartiteState(kept[n].normalized())).basis2
        comp = q.matrix - sum(
            (np.outer(v.amplitudes, v.amplitudes.conj()) for v in schmidt2),
            np.zeros((d2, d2), dtype=complex),
        )
        expected = np.linalg.norm(pointer_lift(model, comp) @ vec)
        assert abs(complement_check(model, psi12, n, schmidt2) - expected) <= AGREE

    rho2 = pointer_density(psi12)
    assert np.linalg.norm(rho2.matrix - lifted_partial_trace(vec, d1, d2)) <= AGREE


def dense_residual(model):
    u = dense_coupling(model)
    return float(np.linalg.norm(u.conj().T @ u - np.eye(len(u))))


def assert_block_residual(model, reference):
    """The block check of ``model``'s coupling accepts at ``reference +
    AGREE`` and rejects below ``reference - AGREE``, so the block residual is
    within AGREE of ``reference``."""
    PremeasurementModel(model.measured, model.apparatus, model.coupling, reference + AGREE)
    if reference > AGREE:
        with pytest.raises(ValueError, match="not unitary"):
            PremeasurementModel(
                model.measured, model.apparatus, model.coupling, reference - AGREE
            )


@st.composite
def block_models(draw):
    """Random block couplings: Householder blocks as built, or Haar-random
    ``V_n`` (unitary but not calibrating), over non-square dims with
    degenerate and complete observables and every outcome count."""
    d1 = draw(st.integers(1, 5))
    d2 = draw(st.integers(1, 5))
    outcomes = draw(st.integers(1, min(d1, d2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model, phi = random_scenario(d1, d2, outcomes, rng)
    if draw(st.booleans()):
        space = model.apparatus.space
        blocks = tuple(Operator(space, random_unitary(d2, rng)) for _ in range(outcomes))
        model = PremeasurementModel(model.measured, model.apparatus, blocks)
    return model, phi, rng


def perturbed(model, tol, p_delta=None, v_delta=None):
    """The model with ``P^n + p_delta[n]`` and ``V_n + v_delta[n]``, checked
    at ``tol``; the observable is rebuilt with a loose tolerance so that
    perturbed projectors are still accepted."""
    measured, blocks = model.measured, model.coupling
    if p_delta is not None:
        projectors = tuple(
            Projector(Operator(p.space, p.matrix + dp), LOOSE)
            for p, dp in zip(measured.projectors, p_delta)
        )
        measured = Observable(measured.space, measured.eigenvalues, projectors, LOOSE)
    if v_delta is not None:
        blocks = tuple(Operator(v.space, v.matrix + dv) for v, dv in zip(blocks, v_delta))
    return PremeasurementModel(measured, model.apparatus, blocks, tol)


@settings(max_examples=60, deadline=None)
@given(block_models(), st.integers(0, 2**32 - 1))
def test_block_coupling_matches_dense_coupling(case, seed):
    model, phi, _ = case
    d1, d2 = model.d1, model.d2
    u = dense_coupling(model)
    assert_block_residual(model, dense_residual(model))

    ready = model.apparatus.ready_state.amplitudes
    assert np.linalg.norm(model.ready_map - u.reshape(d1 * d2, d1, d2) @ ready) <= AGREE

    psi12 = evolve(model, phi)
    assert np.linalg.norm(psi12.matrix.reshape(-1) - lifted_evolve(model, phi.amplitudes)) <= AGREE

    calibration = verify_calibration(model, trials=TRIALS, seed=seed)
    reference = lifted_calibration(model, TRIALS, seed)
    assert np.max(np.abs(np.subtract(calibration.residuals, reference))) <= AGREE


@settings(max_examples=60, deadline=None)
@given(block_models(), st.sampled_from(["P", "V", "both"]), st.sampled_from([1e-6, 1e-4, 1e-2]))
def test_block_residual_of_perturbed_coupling(case, factors, scale):
    """Generic perturbations of every ``P^n`` (Hermitian), every ``V_n``
    (non-Hermitian) or both make each cross term of ``U^H U`` count."""
    model, _, rng = case
    n, d1, d2 = model.outcome_count, model.d1, model.d2
    g1 = rng.standard_normal((n, d1, d1)) + 1j * rng.standard_normal((n, d1, d1))
    g2 = rng.standard_normal((n, d2, d2)) + 1j * rng.standard_normal((n, d2, d2))
    broken = perturbed(
        model,
        LOOSE,
        p_delta=scale * (g1 + g1.conj().transpose(0, 2, 1)) if factors != "V" else None,
        v_delta=scale * g2 if factors != "P" else None,
    )
    assert_block_residual(broken, dense_residual(broken))


@settings(max_examples=60, deadline=None)
@given(block_models(), st.booleans(), st.sampled_from([1e-11, 3e-11, 1e-10, 1e-9]))
def test_block_check_decides_like_dense_check(case, system_side, delta):
    """Scaling one ``P^k`` or one ``V_k`` by ``1 + delta`` moves the
    residual across the tolerance; the block check accepts exactly when the
    dense check does, at the default tolerance and just either side of the
    dense residual."""
    model, _, rng = case
    k = int(rng.integers(model.outcome_count))
    blocks = [p.matrix for p in model.measured.projectors] if system_side else [
        v.matrix for v in model.coupling
    ]
    delta_k = [delta * b if n == k else 0 * b for n, b in enumerate(blocks)]
    change = {"p_delta" if system_side else "v_delta": delta_k}
    reference = dense_residual(perturbed(model, LOOSE, **change))
    for tol in (DEFAULT_TOL, reference * (1 + 1e-3), reference * (1 - 1e-3)):
        if reference <= tol:
            perturbed(model, tol, **change)
        else:
            with pytest.raises(ValueError, match="not unitary"):
                perturbed(model, tol, **change)
