"""Shared builders for randomized premeasurement scenarios, the seeded random
generators they draw from, composite-space reference helpers for the one-sided
products of the library, random projector bases, and scenario documents shared
by the parser and CLI tests."""

import numpy as np

from envborn.hilbert import (
    DensityOperator,
    Observable,
    Operator,
    StateVector,
    make_state,
    orthonormalize,
)
from envborn.mixtures import haar_unitary
from envborn.premeasurement import (
    PointerApparatus,
    PremeasurementModel,
    build_premeasurement,
)


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector via normalized complex Gaussian."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    return make_state(random_unit_vector(dim, rng))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from one Gaussian pair drawn from ``rng``."""
    pair = rng.standard_normal((2, dim, dim))
    return haar_unitary(pair[0] + 1j * pair[1])


def random_orthogonal_partition(dim: int, parts: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Split a Haar-random unitary into ``parts`` blocks of columns: mutually
    orthogonal eigenspace bases (``dim x r``) of random ranks summing to
    ``dim`` (each part nonempty)."""
    if not 1 <= parts <= dim:
        raise ValueError(f"parts must be in [1, {dim}], got {parts}")
    cuts = np.sort(rng.choice(np.arange(1, dim), size=parts - 1, replace=False))
    return np.split(random_unitary(dim, rng), cuts, axis=1)


def random_scenario(d1, d2, outcomes, rng):
    """A random premeasurement model plus a random input state.

    System and pointer eigenspaces get random ranks (so degenerate and
    complete observables, rank-1 and higher-rank pointer projectors all occur),
    the designated pointer states are random unit vectors inside their
    eigenspaces, and the ready state is unconstrained.
    """
    eigenvalues = sorted(rng.normal(size=outcomes) * 3, reverse=True)
    measured = Observable(
        eigenvalues, random_orthogonal_partition(d1, outcomes, rng)
    )
    pointer_bases = random_orthogonal_partition(d2, outcomes, rng)
    pointer_obs = Observable(list(range(outcomes)), pointer_bases)
    pointer_states = np.column_stack(
        [b @ random_unit_vector(b.shape[1], rng) for b in pointer_bases]
    )
    apparatus = PointerApparatus(random_state(d2, rng), pointer_obs, pointer_states)
    model = build_premeasurement(measured, apparatus)
    phi = random_state(d1, rng)
    return model, phi


def projector_from_span(vectors) -> np.ndarray:
    """Orthogonal projector onto the span of the given states or arrays, as
    its orthonormal basis (a column matrix)."""
    return orthonormalize(v.amplitudes if isinstance(v, StateVector) else v for v in vectors)


def mgs_orthonormalize(vectors) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass, one basis
    vector at a time: a reference for ``orthonormalize`` on independent sets."""
    basis = []
    for v in vectors:
        w = np.array(v, dtype=complex)
        for _ in range(2):
            for b in basis:
                w -= b * (b.conj() @ w)
        basis.append(w / np.linalg.norm(w))
    return np.column_stack(basis)


def dense_projectors(obs, dtype=complex):
    """The dense eigenprojectors ``P^n = B_n B_n^H`` of an observable, as
    references for the forms that apply them through ``B_n``, formed in
    ``dtype``."""
    bases = (b.astype(dtype) for b in obs.bases)
    return [b @ b.conj().T for b in bases]


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Random full-rank density operator (normalized Wishart)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return DensityOperator(w / np.trace(w).real)


def flat_state(psi12):
    """The composite amplitudes of a BipartiteState as a StateVector (first
    factor is the slow index), for oracles on the composite space."""
    return StateVector(psi12.matrix.reshape(-1))


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Tensor product of two states; the first factor is the slow index.

    The amplitude at composite index (i, j) is ``u[i] * v[j]`` with flat index
    ``i * dim(v) + j``, matching ``np.kron``.
    """
    return StateVector(np.kron(u.amplitudes, v.amplitudes))


def partial_trace(rho: DensityOperator, dims: tuple[int, int], keep: int) -> DensityOperator:
    """Reduced density operator of one factor of a declared bipartition of the
    composite density ``rho``: ``keep`` 0 keeps the first factor (traces out
    the second), 1 keeps the second."""
    d1, d2 = dims
    if d1 * d2 != rho.dim:
        raise ValueError(f"declared factorization {d1}x{d2} does not match dim {rho.dim}")
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep}")
    blocks = rho.matrix.reshape(d1, d2, d1, d2)
    return DensityOperator(np.einsum("ajbj->ab" if keep == 0 else "jajb->ab", blocks))


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-``rank`` orthogonal projector of dimension ``dim``, as its
    basis: the first ``rank`` columns of a Haar unitary."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    return random_unitary(dim, rng)[:, :rank]


def dense_coupling(model, dtype=complex):
    """The model's coupling as a dense composite matrix in ``dtype``: the
    blocks lifted as ``sum_n np.kron(P^n, V_n)``, or the user-supplied operator
    itself."""
    if isinstance(model.coupling, Operator):
        return model.coupling.matrix.astype(dtype)
    projectors = dense_projectors(model.measured, dtype)
    return sum(np.kron(p, v.matrix.astype(dtype)) for p, v in zip(projectors, model.coupling))


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
        sys_basis = model.measured.bases[k]
        ptr_basis = model.apparatus.pointer_observable.bases[k]
        cols = np.column_stack(
            [np.kron(s, p) for s in sys_basis.T for p in ptr_basis.T]
        )
        block = cols @ random_unitary(cols.shape[1], rng) @ cols.conj().T
        mixer += block
        block_total += cols @ cols.conj().T
    mixer -= block_total  # identity outside the blocks, random inside
    unitary = Operator(mixer @ dense_coupling(model))
    return PremeasurementModel(model.measured, model.apparatus, unitary)


def overflowing_span_scenario(section: str) -> dict:
    """A 2x2 derive scenario document whose second ``section`` projector
    (``observable`` or ``apparatus``) is spanned by a vector holding the
    largest float: a valid direction whose norm overflows."""
    spans = [[[[1, 0], [0, 0]]], [[[0, 0], [1.7976931348623157e308, 0]]]]
    basis = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    data = {
        "dims": [2, 2],
        "observable": {"complete": basis},
        "apparatus": {"ready_state": basis[0], "pointer_states": basis},
        "input_state": [[1, 0], [1, 0]],
    }
    if section == "observable":
        data["observable"] = {"eigenvalues": [0, 1], "projectors": spans}
    else:
        data["apparatus"]["pointer_projectors"] = spans
    return data
