"""Every derive audit can fail, and each checks its identity once.

The table names, for each of the seven audits of ``derive_probabilities``,
an input that fails it or one textual mutation of ``envborn/born.py`` that
does, with the full set of audits that then fail.  An audit that only a
mutation fails is an implementation tripwire: additivity's residual (the
trace is linear) and ``prc`` beyond the norm law (``SchmidtForm`` holds
``sum(c^2) = 1``).  The cross-checks of the mixture routes run on every trial
of the chunked equivalence check: one side of one route corrupted at one trial
of the second chunk raises.

The reference test keeps the previous dense forms of ``check_additivity``
(per-part projector checks, a pairwise orthogonality loop, a dense projector
for the sum), ``complement_check`` (a dense complement projector), the branch
split (``Psi @ Q.T``), nondemolition (``||P B - B||``) and the trace-rule
oracle (``tr(P rho)``), and requires the forms that apply each projector
through its basis to make the same accept/reject decisions with values within
1e-15.
"""

import sys
import types
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    dense_projectors,
    entangle_branches,
    random_scenario,
    random_state,
    random_unitary,
)

import envborn.born
import envborn.mixtures
from envborn.born import check_additivity, complement_check, derive_probabilities
from envborn.hilbert import (
    DEFAULT_TOL,
    Observable,
    Operator,
    StateVector,
    basis_state,
    complete_observable,
    make_state,
    pure_density,
    trace_probability,
)
from envborn.mixtures import MixtureSpec, mix, proper_improper_equivalence, purify, trial_chunk
from envborn.premeasurement import (
    PointerApparatus,
    PremeasurementModel,
    branches,
    build_premeasurement,
    evolve,
    schmidt_forms,
    verify_nondemolition,
)
from envborn.scenario import load_scenario
from envborn.schmidt import pointer_density

AUDITS = {
    "calibration",
    "nondemolition",
    "norm_law",
    "biorthogonality",
    "additivity",
    "complement",
    "prc",
}
BROKEN = {"calibration", "nondemolition", "norm_law", "prc"}


def broken_unitary():
    scenario = load_scenario(resources.files("envborn.fixtures") / "broken-unitary.json")
    return scenario.model(), scenario.input_state()


def dense_3x3():
    """A Haar-random composite coupling with complete observables on 3x3: the
    measured one on the standard basis, and the pointer one, the pointer states
    and the ready state on the columns of a random unitary, which are
    orthonormal only to about 1e-16."""
    obs = complete_observable([basis_state(3, i) for i in range(3)])
    columns = random_unitary(3, np.random.default_rng(1))
    pointer = Observable([0.0, 1.0, 2.0], [columns[:, [i]] for i in range(3)])
    apparatus = PointerApparatus(StateVector(columns[:, 0]), pointer, columns)
    coupling = Operator(random_unitary(9, np.random.default_rng(7)))
    return PremeasurementModel(obs, apparatus, coupling), make_state([1, 1, 1])


def schmidt_tail(eps):
    """One outcome on 2x2: the coupling rotates ``|00>`` into
    ``sqrt(1 - eps^2) |00> + eps |11>``, a branch with a Schmidt tail ``eps``."""
    u = np.eye(4, dtype=complex)
    u[[0, 3], [0, 3]] = np.sqrt(1 - eps**2)
    u[3, 0], u[0, 3] = eps, -eps
    one = Observable([0.0], [np.eye(2)])
    apparatus = PointerApparatus(basis_state(2, 0), one, np.eye(2)[:, :1])
    return PremeasurementModel(one, apparatus, Operator(u)), basis_state(2, 0)


def qubit_cnot():
    obs = complete_observable([basis_state(2, 0), basis_state(2, 1)])
    apparatus = PointerApparatus(basis_state(2, 0), obs, np.eye(2))
    return build_premeasurement(obs, apparatus), make_state([0.6, 0.8])


def mutated(monkeypatch, original, old: str, new: str, **names) -> types.ModuleType:
    """The module ``original`` with its one occurrence of ``old`` replaced by
    ``new`` and ``names`` bound in it, registered in ``sys.modules`` for the
    test's duration (its dataclasses look their module up there)."""
    path = Path(original.__file__)
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1, old
    module = types.ModuleType(f"{original.__name__}_mutant")
    module.__package__ = "envborn"
    module.__dict__.update(names)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), str(path), "exec"), module.__dict__)
    return module


# audit, case, tol, mutation (old, new) or None, the audits that fail, the
# audit's max residual
FAILURES = [
    ("calibration", broken_unitary, 1e-10, None, BROKEN, 1.0),
    ("nondemolition", broken_unitary, 1e-10, None, BROKEN, 0.5773502691896258),
    ("norm_law", broken_unitary, 1e-10, None, BROKEN, 1 / 3),
    ("prc", broken_unitary, 1e-10, None, BROKEN, 1 / 3),
    ("biorthogonality", dense_3x3, 1e-10, None, BROKEN | {"biorthogonality"}, 1.5326143867877735),
    ("complement", lambda: schmidt_tail(5e-13), 1e-13, None, {"complement"}, 5e-13),
    # the Schmidt factor-2 bases, the pointer basis times a unitary, are
    # orthonormal only to ~1e-16: the Gram preconditions of additivity and the
    # complement fail and record inf (null in reports)
    (
        "additivity",
        dense_3x3,
        1e-16,
        None,
        BROKEN | {"biorthogonality", "additivity", "complement"},
        float("inf"),
    ),
    # tripwires: only a broken implementation fails them
    (
        "additivity",
        qubit_cnot,
        1e-10,
        ("p[..., 1:].sum(axis=-1)", "p[..., 1:-1].sum(axis=-1)"),
        {"additivity"},
        0.64,
    ),
    (
        "prc",
        lambda: schmidt_tail(1e-11),
        1e-13,
        ("weights[n] * c**2", "weights[n] * c"),
        {"prc"},
        1e-11,
    ),
]


def _row_id(row):
    audit, _, _, mutation, _, _ = row
    return f"{audit}-{'mutation' if mutation else 'input'}"


@pytest.mark.parametrize("row", FAILURES, ids=[_row_id(r) for r in FAILURES])
def test_audit_fails(row, monkeypatch):
    audit, case, tol, mutation, failing, residual = row
    model, phi = case()
    derive = derive_probabilities
    if mutation is not None:
        # the mutation, not the input, fails the audit
        assert derive(model, phi, tol).passed
        derive = mutated(monkeypatch, envborn.born, *mutation).derive_probabilities
    report = derive(model, phi, tol)
    assert {name for name, a in report.audits.items() if not a.passed} == failing
    assert report.audits[audit].max_residual == pytest.approx(residual, rel=1e-9)


def test_every_audit_has_a_failing_row():
    model, phi = qubit_cnot()
    assert set(derive_probabilities(model, phi).audits) == AUDITS
    assert {row[0] for row in FAILURES} == AUDITS


class OneTrialBump:
    """Adds ``delta`` to the value of equivalence trial ``trial`` alone,
    counting trials over the stacks that one route is called with."""

    def __init__(self, trial: int, delta: float = 1e-6):
        self.trial, self.delta, self.seen = trial, delta, 0

    def __call__(self, values: np.ndarray) -> np.ndarray:
        out = values.copy()
        if self.seen <= self.trial < self.seen + len(values):
            out[self.trial - self.seen] += self.delta
        self.seen += len(values)
        return out


# one side of each route's cross-check, and the message its disagreement raises
ROUTE_SIDES = {
    "proper": (
        'by_trace = np.einsum("tij,ji->t", P, rho_mix.matrix).real',
        "sub-ensemble sum and trace rule disagree",
    ),
    "improper": (
        'on_composite = np.einsum("ij,tij->t", psi.conj(), P1 @ psi).real',
        "composite and partial-trace routes disagree",
    ),
}


CHUNK = trial_chunk(4)


@pytest.mark.parametrize("trial", [CHUNK, 2 * CHUNK - 1], ids=["first", "last"])
@pytest.mark.parametrize("route", sorted(ROUTE_SIDES))
def test_every_equivalence_trial_is_cross_checked(route, trial, monkeypatch):
    # the second chunk's first and last trial
    rng = np.random.default_rng(6)
    states = np.column_stack([random_state(4, rng).amplitudes for _ in range(3)])
    spec = MixtureSpec(states, [0.5, 0.3, 0.2])
    partner, trials = purify(mix(spec)), 2 * CHUNK
    assert proper_improper_equivalence(spec, partner, trials=trials, seed=1) <= 1e-10
    line, message = ROUTE_SIDES[route]
    side = line.split(" = ")[0]
    bumped = f"{line}; {side} = bump({side})"
    mutant = mutated(monkeypatch, envborn.mixtures, line, bumped, bump=OneTrialBump(trial))
    with pytest.raises(ValueError, match=message):
        mutant.proper_improper_equivalence(spec, partner, trials=trials, seed=1)


def dense_projector(matrix, tol=DEFAULT_TOL):
    """``matrix`` if it is Hermitian and idempotent within ``tol``."""
    herm = np.linalg.norm(matrix - matrix.conj().T)
    idem = np.linalg.norm(matrix @ matrix - matrix)
    if not (herm <= tol and idem <= tol):
        raise ValueError("not a projector")
    return matrix


def dense_trace(p, rho, tol):
    """``tr(P rho)`` for a dense ``P``, real and in [0, 1] within ``tol``, clamped."""
    value = complex(np.trace(p @ rho.matrix))
    if abs(value.imag) > tol or not -tol <= value.real <= 1.0 + tol:
        raise ValueError("trace is not a probability")
    return min(max(value.real, 0.0), 1.0)


def previous_check_additivity(rho, basis, tol):
    parts = [dense_projector(np.outer(v, v.conj())) for v in basis.T]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if np.linalg.norm(parts[i] @ parts[j]) > tol:
                raise ValueError("not orthogonal")
    total = sum(parts, np.zeros((rho.dim, rho.dim), dtype=complex))
    whole = dense_trace(dense_projector(total, tol), rho, tol)
    pieces = sum(dense_trace(p, rho, tol) for p in parts)
    return abs(whole - pieces)


def previous_complement_check(model, psi12, outcome, schmidt2, tol):
    q = dense_projectors(model.apparatus.pointer_observable)[outcome]
    comp = dense_projector(q - schmidt2 @ schmidt2.conj().T, tol)
    return float(np.linalg.norm(psi12.matrix @ comp.T))


def or_inf(check, *args):
    try:
        return check(*args)
    except ValueError:
        return float("inf")


def assert_same(value, reference):
    """The same decision (inf on both sides for a rejection) and, for an
    accepted case, values within 1e-15."""
    assert (value == float("inf")) == (reference == float("inf"))
    if reference < float("inf"):
        assert abs(value - reference) <= 1e-15


@pytest.mark.parametrize("tol", [1e-10, 1e-13, 1e-14])
def test_one_check_forms_match_previous_forms(tol):
    # random complex models, half with entangled branches; a doubled basis
    # and another outcome's pointer projector are rejected
    rng = np.random.default_rng(70)
    decisions = {True: 0, False: 0}
    for i in range(120):
        d1, d2 = (int(d) for d in rng.integers(2, 7, size=2))
        model, phi = random_scenario(d1, d2, int(rng.integers(1, min(d1, d2) + 1)), rng)
        if i % 2:
            model = entangle_branches(model, rng)
        psi12 = evolve(model, phi)
        rho2 = pointer_density(psi12)
        rho_phi = pure_density(phi)
        kept = {b.outcome: b for b in branches(model, psi12)}

        # the branch split through Q^n = B B^H against the dense Psi @ Q^n.T
        for n, q in enumerate(dense_projectors(model.apparatus.pointer_observable)):
            term = psi12.matrix @ q.T
            if n in kept:
                assert np.abs(kept[n].core @ kept[n].basis.T - term).max() <= 1e-15
                assert_same(kept[n].weight, float(np.linalg.norm(term) ** 2))
            else:
                assert float(np.linalg.norm(term) ** 2) < 1e-12
        nondemolition = verify_nondemolition(model, tuple(kept.values()), tol)
        for n, p in enumerate(dense_projectors(model.measured)):
            reference = or_inf(dense_trace, p, rho_phi, tol)
            assert_same(or_inf(trace_probability, model.measured.bases[n], rho_phi), reference)
            if n in kept:
                branch = kept[n].core @ kept[n].basis.T
                assert_same(nondemolition.residuals[n], np.linalg.norm(p @ branch - branch))

        # the current forms record inf where the previous ones raised
        pointer = model.apparatus.pointer_observable
        for n, form in schmidt_forms(tuple(kept.values())).items():
            basis2 = form.basis2
            cases = [
                (check_additivity(rho2, s, tol), or_inf(previous_check_additivity, rho2, s, tol))
                for s in (basis2, 2 * basis2)
            ] + [
                (
                    complement_check(psi12, pointer.bases[k], basis2, tol),
                    or_inf(previous_complement_check, model, psi12, k, basis2, tol),
                )
                for k in (n, (n + 1) % model.outcome_count)
            ]
            for value, reference in cases:
                assert_same(value, reference)
                decisions[value < float("inf")] += 1
    assert decisions[True] > 500 and decisions[False] > 300
