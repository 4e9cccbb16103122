"""Shared builders for randomized premeasurement scenarios."""

import numpy as np

from envborn.hilbert import HilbertSpace, Operator, StateVector, make_state, spectral_observable
from envborn.premeasurement import (
    PointerApparatus,
    PremeasurementModel,
    build_premeasurement,
    eigenspace_basis,
)
from envborn.rng import (
    random_orthogonal_partition,
    random_state,
    random_unit_vector,
    random_unitary,
)


def random_scenario(d1, d2, outcomes, rng):
    """A random premeasurement model plus a random input state.

    System and pointer eigenspaces get random ranks (so degenerate and
    complete observables, rank-1 and higher-rank pointer projectors all occur),
    the designated pointer states are random unit vectors inside their
    eigenspaces, and the ready state is unconstrained.
    """
    sys_space = HilbertSpace(d1, "sys")
    ptr_space = HilbertSpace(d2, "pointer")
    eigenvalues = sorted(rng.normal(size=outcomes) * 3, reverse=True)
    measured = spectral_observable(
        eigenvalues, random_orthogonal_partition(sys_space, outcomes, rng)
    )
    pointer_projs = random_orthogonal_partition(ptr_space, outcomes, rng)
    pointer_obs = spectral_observable(list(range(outcomes)), pointer_projs)
    pointer_states = []
    for q in pointer_projs:
        basis = eigenspace_basis(q)
        coeff = random_unit_vector(len(basis), rng)
        pointer_states.append(
            make_state(ptr_space, sum(c * b for c, b in zip(coeff, basis)))
        )
    apparatus = PointerApparatus(
        ptr_space, random_state(ptr_space, rng), pointer_obs, tuple(pointer_states)
    )
    model = build_premeasurement(measured, apparatus)
    phi = random_state(sys_space, rng)
    return model, phi


def flat_state(psi12):
    """The composite amplitudes of a BipartiteState as a StateVector (first
    factor is the slow index), for oracles on the composite space."""
    return StateVector(HilbertSpace(psi12.d1 * psi12.d2), psi12.matrix.reshape(-1))


def dense_coupling(model):
    """The model's coupling as a dense composite matrix: the blocks lifted as
    ``sum_n np.kron(P^n, V_n)``, or the user-supplied operator itself."""
    if isinstance(model.coupling, Operator):
        return model.coupling.matrix
    return sum(
        np.kron(p.matrix, v.matrix)
        for p, v in zip(model.measured.projectors, model.coupling)
    )


def entangle_branches(model, rng):
    """Compose the coupling with a random unitary acting inside each
    range(P^k) (x) range(Q^k) block.

    The result is still a valid nondemolition premeasurement (each block is
    mapped to itself, so calibration, nondemolition and the branch norms are
    untouched) but its branches are generically entangled, which exercises
    multi-term branch Schmidt forms and nontrivial pointer complements.
    """
    d1, d2 = model.d1, model.d2
    dim = d1 * d2
    mixer = np.eye(dim, dtype=complex)
    block_total = np.zeros((dim, dim), dtype=complex)
    for k in range(model.outcome_count):
        sys_basis = eigenspace_basis(model.measured.projectors[k])
        ptr_basis = eigenspace_basis(model.apparatus.pointer_observable.projectors[k])
        cols = np.column_stack(
            [np.kron(s, p) for s in sys_basis for p in ptr_basis]
        )
        block = cols @ random_unitary(cols.shape[1], rng) @ cols.conj().T
        mixer += block
        block_total += cols @ cols.conj().T
    mixer -= block_total  # identity outside the blocks, random inside
    unitary = Operator(model.composite_space, mixer @ dense_coupling(model))
    return PremeasurementModel(model.measured, model.apparatus, unitary)
