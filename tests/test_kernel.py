"""The one-sided coefficient-matrix products and the block-form coupling
against explicit composite lifts.

Every factor-side step of the pipeline is computed as a product on the
``d1 x d2`` coefficient matrix of the coupled state.  These properties rebuild
each step with dense ``np.kron`` lifts on the composite space and require
agreement to 1e-12 over random models, branch-entangling couplings and the
identity coupling.  A block coupling ``sum_n P^n (x) V_n`` is checked against
its own kron-built dense ``U``: the unitarity residual ``||U^H U - I||``
(unperturbed, perturbed, and straddling the tolerance), the ready map, evolve
and calibration.  The certified calibration supremum is checked against the
generalized eigenvalue problem of the lifts and against the sampled loop it
replaced, on unperturbed and perturbed models.  The certified unitarity bound
is checked to cover the exact residual, to be attained where the algebra says
so, and to hand the decision to the exact residual when it cannot certify.
The calibration of a rank group from one call per step must equal the
per-outcome loop kept here bit for bit.  The Schmidt form of each kept branch,
taken from its ``d1 x r_n`` core, must agree with the SVD of the normalized
full branch kept here to within rounding, term for term.
"""

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    dense_coupling,
    dense_projectors,
    entangle_branches,
    random_scenario,
    random_unit_vector,
    random_unitary,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envborn.born import check_additivity, complement_check, derive_probabilities
from envborn.hilbert import (
    DEFAULT_TOL,
    Observable,
    Operator,
    basis_state,
    identity,
    make_state,
    span_residual,
)
from envborn.premeasurement import (
    PointerApparatus,
    PremeasurementModel,
    _block_unitarity_bound,
    _block_unitarity_residual,
    branches,
    build_premeasurement,
    evolve,
    schmidt_forms,
    verify_calibration,
    verify_nondemolition,
)
from envborn.schmidt import (
    BipartiteState,
    pointer_density,
    reconstruct,
)

AGREE = 1e-12
TRIALS = 5
LOOSE = 1e3  # a tolerance that accepts any perturbation used here
EXTENDED = np.clongdouble


def lifted_evolve(model, vec):
    joint = np.kron(vec, model.apparatus.ready_state.amplitudes)
    out = dense_coupling(model) @ joint
    return out / np.linalg.norm(out)


def pointer_lift(model, q):
    return np.kron(np.eye(model.d1), q)


def extended_norm(vec):
    return np.sqrt(np.sum(np.abs(vec) ** 2))


def lifted_calibration(model, trials, seed):
    """The sampled calibration loop, on dense lifts: per outcome, the worst
    residual over the eigenspace basis columns and ``trials`` random unit
    combinations of them.  It is a lower bound on the certified supremum.

    It runs in ``np.clongdouble`` (a 64-bit mantissa on x86-64) on the model's
    float64 data, so that its own rounding is small beside the allowance for
    the certified value's; in float64 the two roundings together exceeded that
    allowance in about one hypothesis draw in 500."""
    rng = np.random.default_rng(seed)
    u = dense_coupling(model, EXTENDED)
    ready = model.apparatus.ready_state.amplitudes.astype(EXTENDED)
    residuals = []
    for n, q in enumerate(dense_projectors(model.apparatus.pointer_observable, EXTENDED)):
        basis = model.measured.bases[n].astype(EXTENDED)
        samples = list(basis.T)
        for _ in range(trials):
            samples.append(basis @ random_unit_vector(basis.shape[1], rng).astype(EXTENDED))
        lifted_q = pointer_lift(model, q)
        worst = np.longdouble(0.0)
        for vec in samples:
            out = u @ np.kron(vec / extended_norm(vec), ready)
            out /= extended_norm(out)
            worst = max(worst, extended_norm(lifted_q @ out - out))
        residuals.append(worst)
    return residuals


def certified_reference(model):
    """``sup_c ||A_n c|| / ||M_n c||`` per outcome, for ``M_n`` the dense
    coupling on the inputs ``B_n (x) ready`` and ``A_n = (I (x) Q^n - I) M_n``:
    the square root of the largest eigenvalue of the generalized problem
    ``(A_n^H A_n, M_n^H M_n)``."""
    u = dense_coupling(model)
    ready = model.apparatus.ready_state.amplitudes[:, None]
    residuals = []
    for n, q in enumerate(dense_projectors(model.apparatus.pointer_observable)):
        m = u @ np.kron(model.measured.bases[n], ready)
        a = pointer_lift(model, q) @ m - m
        top = scipy.linalg.eigh(a.conj().T @ a, m.conj().T @ m, eigvals_only=True)[-1]
        residuals.append(np.sqrt(max(top, 0.0)))
    return residuals


def assert_certified_calibration(model, seed):
    """verify_calibration equals the generalized-eigenvalue reference within
    AGREE and is at least the sampled loop, up to its own rounding of products
    over the ``d1 d2`` composite entries: ``d1 d2 eps max(1, sampled)``."""
    certified = list(verify_calibration(model).residuals.values())
    assert np.max(np.abs(np.subtract(certified, certified_reference(model)))) <= AGREE
    sampled = np.array(lifted_calibration(model, TRIALS, seed))
    rounding = model.d1 * model.d2 * np.finfo(float).eps * np.maximum(1.0, sampled)
    assert np.all(np.subtract(certified, sampled) >= -rounding)


def lifted_partial_trace(vec, d1, d2):
    rho = np.outer(vec, vec.conj())
    rows = [np.kron(np.eye(d1)[i], np.eye(d2)) for i in range(d1)]
    return sum(r @ rho @ r.T for r in rows)


def model_case(d1, d2, outcomes, seed, coupling):
    """A random model and input state on ``d1 x d2``, with its built coupling,
    that coupling entangling each branch, or the identity coupling."""
    rng = np.random.default_rng(seed)
    model, phi = random_scenario(d1, d2, outcomes, rng)
    if coupling == "entangled":
        model = entangle_branches(model, rng)
    elif coupling == "identity":
        model = PremeasurementModel(
            model.measured, model.apparatus, identity(model.d1 * model.d2)
        )
    return model, phi


@st.composite
def models(draw):
    d1 = draw(st.integers(2, 5))
    d2 = draw(st.integers(2, 5))
    outcomes = draw(st.integers(1, min(d1, d2)))
    seed = draw(st.integers(0, 2**32 - 1))
    coupling = draw(st.sampled_from(["built", "entangled", "identity"]))
    return model_case(d1, d2, outcomes, seed, coupling)


@settings(max_examples=40, deadline=None)
@given(models(), st.integers(0, 2**32 - 1))
def test_one_sided_products_match_composite_lifts(case, seed):
    model, phi = case
    d1, d2 = model.d1, model.d2
    pointer_projectors = dense_projectors(model.apparatus.pointer_observable)
    psi12 = evolve(model, phi)
    vec = psi12.matrix.reshape(-1)
    assert np.linalg.norm(vec - lifted_evolve(model, phi.amplitudes)) <= AGREE

    kept = {b.outcome: b for b in branches(model, psi12)}
    for n, q in enumerate(pointer_projectors):
        term = pointer_lift(model, q) @ vec
        if n in kept:
            branch = kept[n].core @ kept[n].basis.T
            assert np.linalg.norm(branch.reshape(-1) - term) <= AGREE
            assert abs(kept[n].weight - np.linalg.norm(term) ** 2) <= AGREE
        else:
            assert np.linalg.norm(term) ** 2 < 1e-12 + AGREE

    assert_certified_calibration(model, seed)

    nondemolition = verify_nondemolition(model, tuple(kept.values()))
    for b in kept.values():
        lifted_p = np.kron(dense_projectors(model.measured)[b.outcome], np.eye(d2))
        term = (b.core @ b.basis.T).reshape(-1)
        expected = np.linalg.norm(lifted_p @ term - term)
        assert abs(nondemolition.residuals[b.outcome] - expected) <= AGREE

    for n, q in enumerate(pointer_projectors):
        schmidt2 = np.zeros((d2, 0))
        if n in kept:
            schmidt2 = schmidt_forms([kept[n]])[n].basis2
        comp = q - sum(
            (np.outer(v, v.conj()) for v in schmidt2.T),
            np.zeros((d2, d2), dtype=complex),
        )
        expected = np.linalg.norm(pointer_lift(model, comp) @ vec)
        bq = model.apparatus.pointer_observable.bases[n]
        assert abs(complement_check(psi12, bq, schmidt2) - expected) <= AGREE

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
        blocks = tuple(Operator(random_unitary(d2, rng)) for _ in range(outcomes))
        model = PremeasurementModel(model.measured, model.apparatus, blocks)
    return model, phi, rng


def perturbed(model, tol, b_delta=None, v_delta=None):
    """The model with eigenspace bases ``B_n + b_delta[n]`` and blocks
    ``V_n + v_delta[n]``, checked at ``tol``; the observable is rebuilt with a
    loose tolerance so that perturbed bases are still accepted.  Each
    ``P^n = B_n B_n^H`` then stays Hermitian but is no longer idempotent."""
    measured, blocks = model.measured, model.coupling
    if b_delta is not None:
        bases = [measured.bases[n] + db for n, db in enumerate(b_delta)]
        measured = Observable(measured.eigenvalues, bases, LOOSE)
    if v_delta is not None:
        blocks = tuple(Operator(v.matrix + dv) for v, dv in zip(blocks, v_delta))
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

    assert_certified_calibration(model, seed)


@settings(max_examples=60, deadline=None)
@given(block_models(), st.sampled_from(["P", "V", "both"]), st.sampled_from([1e-6, 1e-4, 1e-2]))
def test_block_residual_of_perturbed_coupling(case, factors, scale):
    """Generic perturbations of every ``B_n`` (so every ``P^n``), every
    ``V_n`` or both make each cross term of ``U^H U`` count."""
    model, _, rng = case
    n, d1, d2 = model.outcome_count, model.d1, model.d2
    g1 = [
        rng.standard_normal((d1, r)) + 1j * rng.standard_normal((d1, r))
        for r in model.measured.ranks
    ]
    g2 = rng.standard_normal((n, d2, d2)) + 1j * rng.standard_normal((n, d2, d2))
    broken = perturbed(
        model,
        LOOSE,
        b_delta=[scale * g for g in g1] if factors != "V" else None,
        v_delta=scale * g2 if factors != "P" else None,
    )
    assert_block_residual(broken, dense_residual(broken))


@settings(max_examples=60, deadline=None)
@given(block_models(), st.booleans(), st.sampled_from([1e-11, 3e-11, 1e-10, 1e-9]))
def test_block_check_decides_like_dense_check(case, system_side, delta):
    """Scaling one ``B_k`` or one ``V_k`` by ``1 + delta`` moves the
    residual across the tolerance; the block check accepts exactly when the
    dense check does, at the default tolerance and just either side of the
    dense residual."""
    model, _, rng = case
    k = int(rng.integers(model.outcome_count))
    if system_side:
        blocks = model.measured.bases
    else:
        blocks = [v.matrix for v in model.coupling]
    delta_k = [delta * b if n == k else 0 * b for n, b in enumerate(blocks)]
    change = {"b_delta" if system_side else "v_delta": delta_k}
    reference = dense_residual(perturbed(model, LOOSE, **change))
    for tol in (DEFAULT_TOL, reference * (1 + 1e-3), reference * (1 - 1e-3)):
        if reference <= tol:
            perturbed(model, tol, **change)
        else:
            with pytest.raises(ValueError, match="not unitary"):
                perturbed(model, tol, **change)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(models(), block_models()),
    st.sampled_from([1e-14, 1e-6, 1e-2]),
    st.integers(0, 2**32 - 1),
)
# certified 0.7449446188415653 against sampled 0.7449446188415686: a rounding
# gap of 3.3e-15 on an O(1) residual, beyond an absolute 1e-15
@example(case=model_case(4, 5, 2, 133, "identity"), scale=1e-14, seed=0)
# LAPACK's SVD put the norm of this leak, whose three singular values are
# equal, 2.8 allowances below the sampled loop; its Gram eigenvalue does not
@example(case=model_case(4, 2, 2, 8, "identity"), scale=1e-14, seed=1)
def test_certified_calibration_of_perturbed_models(case, scale, seed):
    """Every ``B_n`` and the coupling (each ``V_n``, or the dense ``U``)
    perturbed, so that no ``M_n`` is an isometry and the certified value is
    a ratio, not a norm of unit outputs."""
    model, rng = case[0], np.random.default_rng(seed)

    def noise(*shape):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    b_delta = [noise(model.d1, r) for r in model.measured.ranks]
    if isinstance(model.coupling, Operator):
        coupling = Operator(model.coupling.matrix + noise(*model.coupling.matrix.shape))
        model = PremeasurementModel(model.measured, model.apparatus, coupling, LOOSE)
        broken = perturbed(model, LOOSE, b_delta=b_delta)
    else:
        v_delta = [noise(model.d2, model.d2) for _ in model.coupling]
        broken = perturbed(model, LOOSE, b_delta=b_delta, v_delta=v_delta)
    assert_certified_calibration(broken, seed)


def leaking_model(theta):
    """A rank-3 eigenspace ``span{e0, e1, e2}`` of a 4-level system, measured
    by a qubit pointer; the coupling then rotates ``|v, 0>`` toward ``|v, 1>``
    by ``theta`` for ``v = (e0 + e1 + e2) / sqrt(3)``.  Only inputs along
    ``v`` leak fully: the calibration supremum is ``sin(theta)``, attained at
    ``v`` and at no basis column."""
    measured = Observable([0.0, 1.0], [np.eye(4)[:, :3], np.eye(4)[:, 3:]])
    pointer = Observable([0.0, 1.0], [np.eye(2)[:, :1], np.eye(2)[:, 1:]])
    apparatus = PointerApparatus(basis_state(2, 0), pointer, np.eye(2))
    built = build_premeasurement(measured, apparatus)
    v = np.array([1.0, 1.0, 1.0, 0.0]) / np.sqrt(3)
    v0, v1 = np.kron(v, [1.0, 0.0]), np.kron(v, [0.0, 1.0])
    rotation = (
        np.eye(8)
        + (np.cos(theta) - 1) * (np.outer(v0, v0) + np.outer(v1, v1))
        + np.sin(theta) * (np.outer(v1, v0) - np.outer(v0, v1))
    )
    return PremeasurementModel(measured, apparatus, Operator(rotation @ dense_coupling(built)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certified_calibration_fails_a_leak_that_samples_miss(seed):
    model = leaking_model(1e-6)
    certified = verify_calibration(model, tol=9e-7)
    assert certified.residuals[0] == pytest.approx(np.sin(1e-6), rel=1e-9)
    assert certified.residuals[1] <= AGREE
    assert not certified.passed
    sampled = lifted_calibration(model, trials=20, seed=seed)
    assert max(sampled) <= 9e-7


SCALES = [0.0, 1e-14, 1e-10, 1e-6, 1e-2, 1.0]


def noise(rng, scale, *shape):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def split_basis(s, ranks):
    """The eigenspace bases ``B_n``: the blocks of columns of ``s``."""
    return np.split(s, np.cumsum(ranks)[:-1], axis=1)


def kron_residual(s, ranks, v):
    """``||U^H U - I||`` of ``U = sum_n B_n B_n^H (x) V_n`` from dense lifts."""
    u = sum(np.kron(b @ b.conj().T, vn) for b, vn in zip(split_basis(s, ranks), v))
    return float(np.linalg.norm(u.conj().T @ u - np.eye(len(u))))


def unchecked_observable(eigenvalues, s, ranks):
    """An observable whose basis matrix ``s`` may be far from unitary."""
    return Observable(eigenvalues, split_basis(s, ranks), np.inf)


@settings(max_examples=200, deadline=None)
@given(block_models(), st.data())
def test_unitarity_bound_covers_the_exact_residual(case, data):
    """The certified bound is at least the exact residual, the kron-built one
    and the block-Gram one, with the basis matrix ``S`` and each ``V_n``
    unperturbed or perturbed at a scale from 1e-14 to 1."""
    model, _, rng = case
    d1, d2, ranks = model.d1, model.d2, model.measured.ranks
    count = len(ranks) + 1
    scales = data.draw(st.lists(st.sampled_from(SCALES), min_size=count, max_size=count))
    s = model.measured.matrix + noise(rng, scales[0], d1, d1)
    v = np.array([b.matrix + noise(rng, c, d2, d2) for b, c in zip(model.coupling, scales[1:])])
    bound = _block_unitarity_bound(s, ranks, v)
    assert bound >= kron_residual(s, ranks, v)
    measured = unchecked_observable(model.measured.eigenvalues, s, ranks)
    assert bound >= _block_unitarity_residual(measured, v)


@pytest.mark.parametrize("d1, d2", [(1, 1), (3, 2), (4, 4)])
def test_unitarity_bound_is_attained(d1, d2):
    """With ``S = I`` the bound is ``sqrt(sum_n r_n g_n^2)``, and with every
    ``V_n = I`` it is ``sqrt(d2) e (2 + e)``: both equal the exact residual to
    first order, so neither the rank weights nor the ``sqrt(d2)`` factor can be
    dropped."""
    ranks = [d1] if d1 == 1 else [d1 - 1, 1]
    scaled_blocks = np.array([(1 + 1e-6 * (n + 1)) * np.eye(d2) for n in range(len(ranks))])
    identity_blocks = np.array([np.eye(d2)] * len(ranks))
    for s, v in ((np.eye(d1), scaled_blocks), ((1 + 1e-6) * np.eye(d1), identity_blocks)):
        exact = kron_residual(s, ranks, v)
        assert exact <= _block_unitarity_bound(s, ranks, v) <= exact * (1 + 1e-5)


def test_block_check_falls_back_to_the_exact_residual():
    """A coupling whose bound exceeds tol but whose exact residual meets it is
    accepted; below the exact residual it is rejected with the exact value."""
    rng = np.random.default_rng(17)
    model, _ = random_scenario(4, 3, 2, rng)
    b_delta = [noise(rng, 1e-9, model.d1, r) for r in model.measured.ranks]
    v_delta = [noise(rng, 1e-9, model.d2, model.d2) for _ in model.coupling]
    broken = perturbed(model, LOOSE, b_delta=b_delta, v_delta=v_delta)
    v = np.array([b.matrix for b in broken.coupling])
    exact = _block_unitarity_residual(broken.measured, v)
    bound = _block_unitarity_bound(broken.measured.matrix, broken.measured.ranks, v)
    tol = (exact + bound) / 2
    assert exact < tol < bound
    PremeasurementModel(broken.measured, broken.apparatus, broken.coupling, tol)
    message = f"composite coupling is not unitary within tolerance: residual {exact:.3e}"
    with pytest.raises(ValueError, match=message):
        PremeasurementModel(broken.measured, broken.apparatus, broken.coupling, exact / 2)


@pytest.mark.parametrize("a, b", [(2.27, 1.54), (2.38, 1.78), (1.17, 2.67)])
def test_block_check_decides_like_the_exact_residual_where_the_bound_is_attained(a, b):
    """For ``U = a^2 b`` (d1 = d2 = 1) the bound equals the exact residual
    ``a^4 b^2 - 1``, yet the two roundings differ by an ulp of a residual near
    10 or 100, far above ``eps``: only a margin that grows with the bound keeps
    the decision the exact one on both sides of the exact residual."""
    measured = Observable([0.0], [[[a]]], np.inf)
    pointer = Observable([0.0], [[[1.0]]])
    apparatus = PointerApparatus(basis_state(1, 0), pointer, np.eye(1))
    blocks = (Operator([[b]]),)
    exact = _block_unitarity_residual(measured, np.array([[[b]]], dtype=complex))
    PremeasurementModel(measured, apparatus, blocks, exact)
    with pytest.raises(ValueError, match="not unitary"):
        PremeasurementModel(measured, apparatus, blocks, np.nextafter(exact, 0.0))


def looped_schmidt_form(psi, cutoff=1e-12):
    """``schmidt_decompose`` of one state by the SVD of its full ``d1 x d2``
    matrix, keeping the terms of coefficient at least ``cutoff``: the form
    that each branch's core form must agree with."""
    u, s, vh = np.linalg.svd(psi.matrix, full_matrices=False)
    keep = s >= cutoff
    s, u, v = s[keep], u[:, keep], vh[keep, :].T
    lead = np.argmax(np.abs(u) > 1e-12, axis=0)
    top = u[lead, np.arange(len(s))]
    phase = top / np.hypot(top.real, top.imag)
    order = np.lexsort((lead, -s))
    return s[order], (u / phase)[:, order], (v * phase)[:, order]


def looped_calibration(model):
    """``verify_calibration`` outcome by outcome: one QR of each ``M_n``, the
    singular test on the singular values of its ``R``, and the leak's spectral
    norm from the top eigenvalue of the leak's Gram matrix."""
    d1, d2 = model.d1, model.d2
    pointer = model.apparatus.pointer_observable
    residuals = {}
    for n in range(model.outcome_count):
        m = model.ready_map @ model.measured.bases[n]
        outputs, triangle = np.linalg.qr(m)
        singular = np.linalg.svd(triangle, compute_uv=False)
        if singular[-1] <= singular[0] * max(m.shape) * np.finfo(float).eps:
            residuals[n] = float("inf")
            continue
        psi = outputs.T.reshape(-1, d2)
        b = pointer.bases[n]
        leak = ((psi @ b.conj()) @ b.T - psi).reshape(m.shape[1], d1 * d2)
        residuals[n] = float(np.sqrt(np.linalg.eigvalsh(leak @ leak.conj().T)[-1]))
    return residuals


def singular_coupling(model):
    """A dense coupling ``(I - v v^H) (x) I`` for the first basis vector ``v`` of
    the first eigenspace of rank at least 2: ``M_n`` of that outcome has rank
    ``r_n - 1``.  It is accepted only at the tolerance ``LOOSE``."""
    n = next(n for n, r in enumerate(model.measured.ranks) if r >= 2)
    v = model.measured.bases[n][:, 0]
    lifted = np.kron(np.eye(model.d1) - np.outer(v, v.conj()), np.eye(model.d2))
    return PremeasurementModel(model.measured, model.apparatus, Operator(lifted), LOOSE)


MODEL_CASES = ("built", "entangled", "identity")


def loose_pointer(model, rng):
    """The built model on a pointer observable whose bases are perturbed by
    about 2e-12 an entry: its Gram residual lies between ``NORM_TOL`` and
    ``DEFAULT_TOL``, so each branch is its own core against the identity basis."""
    pointer = model.apparatus.pointer_observable
    bases = [b + noise(rng, 2e-12, *b.shape) for b in pointer.bases]
    loose = Observable(pointer.eigenvalues, bases)
    assert 1e-12 < loose.residual <= DEFAULT_TOL
    apparatus = PointerApparatus(model.apparatus.ready_state, loose, model.apparatus.pointer_states)
    return build_premeasurement(model.measured, apparatus)


@st.composite
def stacked_cases(draw, couplings=("built", "entangled", "identity", "singular")):
    """A model with random ranks and couplings (built, branch-entangling,
    identity, one that makes some ``M_n`` singular, or built on a loosely
    orthonormal pointer), and an input state
    inside a random nonempty subset of the measured eigenspaces, so that the
    other outcomes' branches are omitted under the built coupling."""
    d1 = draw(st.integers(2, 6))
    d2 = draw(st.integers(2, 6))
    outcomes = draw(st.integers(1, min(d1, d2)))
    seed = draw(st.integers(0, 2**32 - 1))
    coupling = draw(st.sampled_from(couplings))
    if coupling == "singular":  # some eigenspace of rank at least 2
        outcomes = min(outcomes, d1 - 1)
    model, _ = model_case(d1, d2, outcomes, seed, coupling if coupling in MODEL_CASES else "built")
    if coupling == "singular":
        model = singular_coupling(model)
    elif coupling == "loose":
        model = loose_pointer(model, np.random.default_rng(seed))
    support = draw(st.sets(st.integers(0, outcomes - 1), min_size=1))
    rng = np.random.default_rng(seed)
    phi = sum(model.measured.bases[n] @ random_unit_vector(model.measured.ranks[n], rng) for n in support)
    return model, make_state(phi / np.linalg.norm(phi)), coupling


@settings(max_examples=150, deadline=None)
@given(stacked_cases())
def test_stacked_calibration_equals_the_outcome_loop(case):
    model, _, coupling = case
    residuals = verify_calibration(model).residuals
    assert residuals == looped_calibration(model)
    if coupling == "singular":
        assert float("inf") in residuals.values()


@settings(max_examples=150, deadline=None)
@given(stacked_cases())
def test_kept_branches_carry_their_core_and_weight(case):
    model, phi, _ = case
    for b in branches(model, evolve(model, phi)):
        assert np.array_equal(b.basis, model.apparatus.pointer_observable.bases[b.outcome])
        assert abs(b.weight - np.linalg.norm(b.core @ b.basis.T) ** 2) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(stacked_cases(couplings=("built", "entangled", "identity")))
def test_core_schmidt_forms_equal_the_branch_loop(case):
    model, phi, _ = case
    kept = branches(model, evolve(model, phi))
    records = derive_probabilities(model, phi).records
    for b in kept:
        form = schmidt_forms([b])[b.outcome]
        branch = b.core @ b.basis.T
        psi = BipartiteState(branch / np.sqrt(b.weight))
        coefficients, _, _ = looped_schmidt_form(psi)
        assert len(form) == len(coefficients)
        assert np.max(np.abs(form.coefficients - coefficients)) <= 1e-14
        assert np.linalg.norm(reconstruct(form).matrix - psi.matrix) <= 1e-13
        bq = model.apparatus.pointer_observable.bases[b.outcome]
        assert span_residual(bq, form.basis2) <= 1e-14
        detail = records[b.outcome].schmidt_detail
        looped = np.linalg.norm(branch) ** 2 * coefficients**2
        assert np.max(np.abs(np.array(detail) - looped)) <= 1e-14
        assert detail == tuple(float(b.weight * c**2) for c in form.coefficients)


def skewed_pointer_model(skew, tol):
    """A qubit measured by a 4-dim pointer whose outcome-0 basis ``[e0, e1 +
    skew e2]`` overlaps the outcome-1 basis ``[e2, e3]`` by ``skew``: the
    pointer observable's Gram residual is about ``sqrt(2) skew``, admitted at
    ``tol``."""
    b0 = np.array([[1, 0], [0, 1], [0, skew], [0, 0]], dtype=complex)
    pointer = Observable([0.0, 1.0], [b0, np.eye(4)[:, 2:]], tol)
    chi = (b0[:, 0] + b0[:, 1]) / np.linalg.norm(b0[:, 0] + b0[:, 1])
    states = np.column_stack([chi, np.eye(4)[:, 3]])
    apparatus = PointerApparatus(basis_state(4, 0), pointer, states, tol)
    measured = Observable([0.0, 1.0], [np.eye(2)[:, :1], np.eye(2)[:, 1:]])
    return build_premeasurement(measured, apparatus, tol)


@pytest.mark.parametrize(
    "skew, tol, failing",
    [
        (0.0, DEFAULT_TOL, set()),
        (1e-13, DEFAULT_TOL, set()),
        # the skew leaves a Schmidt term of about 5e-12 on e0 in branch 1,
        # below the term cutoff of 10x the pointer's Gram residual
        (1e-11, DEFAULT_TOL, set()),
        (
            1e-4,
            1e-3,
            {"biorthogonality", "calibration", "complement", "nondemolition", "norm_law", "prc"},
        ),
    ],
)
def test_loosely_orthonormal_pointers_are_reported_from_the_full_branch(skew, tol, failing):
    # a pointer basis orthonormal only beyond NORM_TOL would carry its error
    # into the weights and the factor-2 vectors B @ v (beyond DEFAULT_TOL a
    # SchmidtForm raises), so such a branch is its own core against the
    # identity basis and matches the full-branch SVD exactly
    model = skewed_pointer_model(skew, tol)
    phi = make_state([0.6, 0.8])
    report = derive_probabilities(model, phi)
    assert {name for name, audit in report.audits.items() if not audit.passed} == failing
    exact = model.apparatus.pointer_observable.residual <= 1e-12
    for b in branches(model, evolve(model, phi)):
        if exact:
            assert b.basis.shape == (4, 2)
            continue
        assert np.array_equal(b.basis, np.eye(4))
        branch = b.core @ b.basis.T
        assert b.weight == np.linalg.norm(branch) ** 2
        form = schmidt_forms([b])[b.outcome]
        psi = BipartiteState(branch / np.sqrt(b.weight))
        coefficients, basis1, basis2 = looped_schmidt_form(psi, b.cutoff)
        assert np.array_equal(form.coefficients, coefficients)
        assert np.array_equal(form.basis1, basis1)
        assert np.array_equal(form.basis2, basis2)
        assert report.records[b.outcome].derived == sum(b.weight * coefficients**2)


@settings(max_examples=150, deadline=None)
@given(stacked_cases(couplings=(*MODEL_CASES, "loose")))
def test_stacked_audits_equal_their_one_outcome_functions(case):
    """The Schmidt forms, nondemolition, complement and additivity residuals
    that derive computes per rank group equal those of the public stacked
    functions called on each outcome alone, a stack of one, bit for bit, over
    mixed rank groups and omitted outcomes."""
    model, phi, coupling = case
    psi12 = evolve(model, phi)
    kept = branches(model, psi12)
    forms = schmidt_forms(kept)
    report = derive_probabilities(model, phi)
    rho2 = pointer_density(psi12)
    pointer = model.apparatus.pointer_observable
    assert list(forms) == [b.outcome for b in kept]
    for b in kept:
        assert coupling != "loose" or np.array_equal(b.basis, np.eye(model.d2))
        form, one = forms[b.outcome], schmidt_forms([b])[b.outcome]
        for name in ("coefficients", "basis1", "basis2"):
            assert np.array_equal(getattr(form, name), getattr(one, name))
        assert report.records[b.outcome].schmidt_detail == tuple(float(b.weight * c**2) for c in one.coefficients)
        nondemolition = verify_nondemolition(model, [b]).residuals[b.outcome]
        assert report.audits["nondemolition"].residuals[b.outcome] == nondemolition
        (additivity,) = check_additivity(rho2, one.basis2[None])
        assert report.audits["additivity"].residuals[b.outcome] == additivity
    for n, record in enumerate(report.records):
        schmidt2 = forms[n].basis2 if n in forms else np.zeros((model.d2, 0))
        (complement,) = complement_check(psi12, pointer.bases[n][None], schmidt2[None])
        assert record.complement_residual == complement


def test_core_schmidt_forms_skip_omitted_branches():
    model, _ = model_case(4, 4, 3, 7, "built")
    phi = make_state(model.measured.bases[1][:, 0])
    assert [b.outcome for b in branches(model, evolve(model, phi))] == [1]
    records = derive_probabilities(model, phi).records
    assert [len(r.schmidt_detail) for r in records] == [0, 1, 0]
