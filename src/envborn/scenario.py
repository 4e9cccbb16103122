"""Scenario files: parsing, validation, and canonical serialization.

A scenario is a JSON object describing dimensions, an observable, a pointer
apparatus, input states, and optional mixture/sampling sections.  Complex
scalars are two-element arrays ``[re, im]`` of decimal floats, vectors are
arrays of such pairs, and projectors are lists of spanning vectors.

Parsing converts every vector once (a section's list of vectors in one
conversion, whose float array also gives the canonical echo), resolves all
defaults and builds each declared section.  ``Scenario.raw`` is the canonical
form: plain floats with every default spelled out, which parses back to an
identical scenario and keeps reports self-contained and diffable.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    NORM_TOL,
    Observable,
    StateVector,
    identity,
    make_state,
    orthonormalize,
)
from .mixtures import MixtureSpec, mix, purify
from .premeasurement import PointerApparatus, PremeasurementModel, build_premeasurement
from .schmidt import BipartiteState

__all__ = ["ScenarioError", "Scenario", "load_scenario", "parse_scenario"]

SCHEMA_VERSION = "envborn.report.v1"
# Largest accepted d1 * d2: a dense composite complex matrix, or the d1^2 x d2^2
# Gram product of a block coupling, stays within 256 MiB.
MAX_COMPOSITE_DIM = 4096
# Largest accepted sampling.n: the draws stream through one fixed-size buffer,
# so this bounds the run time (under 0.3 s at the cap), not the memory.
MAX_SAMPLES = 2**24
# Largest accepted mixture.trials: the trials run in fixed-size chunks, so this
# too bounds the run time, not the memory.
MAX_TRIALS = 2**16
_JSON_NUMBERS = frozenset((int, float))


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input (CLI exit code 2)."""


def _shown(value) -> str:
    """``repr(value)`` for an error message, cut to 60 characters plus ``...``,
    so that a huge rejected value cannot swamp the message."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def encode_vector(vec: np.ndarray) -> list[list[float]]:
    vec = np.asarray(vec, dtype=complex)
    return np.column_stack((vec.real, vec.imag)).tolist()


def _pairs(vectors: list, dim: int) -> np.ndarray | None:
    """``vectors`` in one conversion, as a ``k x dim x 2`` float array whose
    ``tolist()`` is their canonical echo, when each is a list of ``dim`` pairs
    of two JSON numbers below the largest float (strictly: an integer may round
    down to it); else None.  The type checks run at C level."""
    if set(map(type, vectors)) != {list} or set(map(len, vectors)) != {dim}:
        return None
    pairs = list(chain.from_iterable(vectors))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    numbers = list(chain.from_iterable(pairs))
    if not set(map(type, numbers)) <= _JSON_NUMBERS:
        return None
    try:  # a flat list converts faster than the nested one
        values = np.array(numbers, dtype=float)
    except OverflowError:  # an integer too large to convert
        return None
    return values.reshape(len(vectors), dim, 2) if (np.abs(values) < sys.float_info.max).all() else None


def _complex(values: np.ndarray) -> np.ndarray:
    """The complex vectors of a ``... x dim x 2`` float array: each row (re, im)
    is one complex128."""
    return values.view(complex)[..., 0]


def decode_vector(data, what: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ScenarioError(f"{what} must be a non-empty array of [re, im] pairs")
    values = _pairs([data], len(data))
    if values is None:  # name the first fault
        for i, pair in enumerate(data):
            if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
                raise ScenarioError(f"{what}[{i}] is not a [re, im] pair: {_shown(pair)}")
            if not all(abs(x) <= sys.float_info.max for x in pair):
                raise ScenarioError(f"{what}[{i}] is not finite: {_shown(pair)}")
        values = np.array([data], dtype=float)
    if dim is not None and values.shape[1] != dim:
        raise ScenarioError(f"{what} has length {values.shape[1]}, expected {dim}")
    return _complex(values)[0]


def _decode_vectors(data: list, what: str, dim: int) -> np.ndarray:
    """The ``k x dim x 2`` float array of a list of ``k`` vectors, in one
    conversion; otherwise each vector is decoded on its own, so that the first
    fault is named as ``decode_vector`` names it."""
    values = _pairs(data, dim)
    if values is None:
        vectors = [decode_vector(v, f"{what}[{i}]", dim) for i, v in enumerate(data)]
        values = np.array(vectors, dtype=complex).view(float).reshape(len(data), dim, 2)
    return values


def _decode_span(data, what: str, dim: int) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ScenarioError(f"{what} must be a non-empty list of spanning vectors")
    return _decode_vectors(data, what, dim)


def _decode_spans(data, what: str, dim: int) -> list[np.ndarray]:
    """The float arrays of the spans of a section, all in one conversion when
    every span is a non-empty list of well-formed vectors; otherwise span by
    span, so that the first fault is named."""
    if not isinstance(data, list):
        raise ScenarioError(f"{what} must be a list of spans")
    if data and set(map(type, data)) == {list} and all(data):
        values = _pairs(list(chain.from_iterable(data)), dim)
        if values is not None:
            return np.split(values, np.cumsum(list(map(len, data[:-1]))).tolist())
    return [_decode_span(span, f"{what}[{n}]", dim) for n, span in enumerate(data)]


@dataclass(frozen=True)
class Scenario:
    """A fully resolved scenario: ``raw`` is the canonical dictionary, and each
    section it declares is built once, by ``parse_scenario``, and kept."""

    raw: dict
    _input_state: StateVector | None = field(default=None, repr=False, compare=False)
    _composite_state: BipartiteState | None = field(default=None, repr=False, compare=False)
    _model: PremeasurementModel | None = field(default=None, repr=False, compare=False)
    _mixture: MixtureSpec | None = field(default=None, repr=False, compare=False)

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def operator_tol(self) -> float:
        return self.raw["tolerances"]["operator"]

    def input_state(self) -> StateVector:
        return _present(self._input_state, "input_state")

    def composite_state(self) -> BipartiteState:
        return _present(self._composite_state, "composite_state")

    def model(self) -> PremeasurementModel:
        # the model exists exactly when both halves do; name the first one missing
        missing = "apparatus" if "observable" in self.raw else "observable"
        return _present(self._model, missing)

    def mixture_spec(self) -> MixtureSpec:
        return _present(self._mixture, "mixture section")

    def mixture_partner(self) -> BipartiteState:
        spec = self.mixture_spec()
        if self.raw["mixture"]["auto_purify"]:
            return purify(mix(spec))
        return self.composite_state()

    def sampling(self) -> dict:
        if "sampling" not in self.raw:
            raise ScenarioError("scenario has no sampling section")
        return self.raw["sampling"]


def _present(part, what: str):
    if part is None:
        raise ScenarioError(f"scenario has no {what}")
    return part


def _normalized(vec: np.ndarray, what: str) -> StateVector:
    try:
        return make_state(vec)
    except ValueError as exc:
        raise ScenarioError(f"invalid {what}: {exc}") from exc


def _require(data: dict, key: str, kind, what: str):
    if key not in data:
        raise ScenarioError(f"missing required field {what}.{key}")
    value = data[key]
    if not isinstance(value, kind):
        raise ScenarioError(f"{what}.{key} has wrong type {type(value).__name__}")
    return value


def parse_scenario(data: dict, default_operator_tol: float = DEFAULT_TOL) -> Scenario:
    """Validate a scenario dictionary, resolve every default and build each
    declared section.

    The result's ``raw`` dictionary is canonical and shares no mutable object
    with ``data``: serializing and re-parsing it yields an identical scenario.
    ``default_operator_tol`` applies only when the scenario does not pin
    ``tolerances.operator`` itself.
    """
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    known = {
        "name",
        "dims",
        "seed",
        "tolerances",
        "input_state",
        "composite_state",
        "observable",
        "apparatus",
        "unitary_override",
        "mixture",
        "sampling",
    }
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {_shown(sorted(unknown))}")

    out: dict = {}
    out["name"] = data.get("name", "scenario")
    if not isinstance(out["name"], str):
        raise ScenarioError(f"name must be a string, got {_shown(out['name'])}")
    # JSON admits a lone surrogate, which no UTF-8 output can write
    if out["name"].encode(errors="replace").decode() != out["name"]:
        raise ScenarioError(f"name must be Unicode text, got {_shown(out['name'])}")
    out["seed"] = _integer(data.get("seed", 0), "seed", 0)

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict) or set(tolerances) - {"operator", "norm"}:
        raise ScenarioError("tolerances must be an object with operator/norm keys")
    out["tolerances"] = {
        "operator": _positive_float(tolerances.get("operator", default_operator_tol), "tolerances.operator"),
        "norm": _positive_float(tolerances.get("norm", NORM_TOL), "tolerances.norm"),
    }
    tol = out["tolerances"]["operator"]

    dims = data.get("dims")
    if dims is None:
        mixture = data.get("mixture")
        if isinstance(mixture, dict) and mixture.get("auto_purify"):
            d = _infer_component_dim(mixture)
            dims = [d, d]
        else:
            raise ScenarioError("missing required field dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(_is_integer(d) and d >= 1 for d in dims)
    ):
        raise ScenarioError(f"dims must be two positive integers, got {_shown(dims)}")
    if dims[0] * dims[1] > MAX_COMPOSITE_DIM:
        raise ScenarioError(
            f"dims {_shown(dims)} give a composite dimension {_shown(dims[0] * dims[1])} "
            f"above the limit {MAX_COMPOSITE_DIM}"
        )
    out["dims"] = [int(dims[0]), int(dims[1])]
    d1, d2 = out["dims"]

    phi = psi = observable = apparatus = model = mixture = None
    if "input_state" in data:
        vec = decode_vector(data["input_state"], "input_state", d1)
        out["input_state"] = encode_vector(vec)
        phi = _normalized(vec, "input_state")
    if "composite_state" in data:
        vec = decode_vector(data["composite_state"], "composite_state", d1 * d2)
        out["composite_state"] = encode_vector(vec)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(vec)
        if not 1e-12 <= norm < np.inf:
            raise ScenarioError(f"composite_state cannot be normalized: norm {norm:.3e}")
        psi = BipartiteState((vec / norm).reshape(d1, d2))

    if "observable" in data:
        out["observable"], observable = _parse_observable(data["observable"], d1, tol)
    if "apparatus" in data:
        out["apparatus"], apparatus = _parse_apparatus(data["apparatus"], d2, tol)
    if "unitary_override" in data:
        if data["unitary_override"] != "identity":
            raise ScenarioError(f"unknown unitary_override {_shown(data['unitary_override'])}")
        out["unitary_override"] = "identity"
    if observable is not None and apparatus is not None:
        try:
            model = build_premeasurement(observable, apparatus, tol)
        except ValueError as exc:
            raise ScenarioError(f"cannot build premeasurement: {exc}") from exc
        if "unitary_override" in out:
            # negative-control hook: the identity coupling, as blocks V_n = I
            blocks = (identity(d2),) * observable.outcome_count
            model = PremeasurementModel(observable, apparatus, blocks, tol)

    if "mixture" in data:
        out["mixture"], mixture = _parse_mixture(data["mixture"], d1, psi is not None)
    if "sampling" in data:
        out["sampling"] = _canonical_sampling(data["sampling"])

    return Scenario(
        out,
        _input_state=phi,
        _composite_state=psi,
        _model=model,
        _mixture=mixture,
    )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_float(value, what: str) -> float:
    # an upper bound of the largest float also rejects integers too large to convert
    if not _is_number(value) or not 0 < value <= sys.float_info.max:
        raise ScenarioError(f"{what} must be a finite number > 0, got {_shown(value)}")
    return float(value)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, what: str, minimum: int) -> int:
    if not _is_integer(value) or value < minimum:
        raise ScenarioError(f"{what} must be an integer >= {minimum}, got {_shown(value)}")
    return value


def _integer_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or not all(_is_integer(v) for v in value):
        raise ScenarioError(f"{what} must be a list of integers")
    # a copy, so the canonical dictionary shares no list with the caller
    return list(value)


def _infer_component_dim(mixture: dict) -> int:
    components = mixture.get("components")
    if not isinstance(components, list) or not components:
        raise ScenarioError("mixture.components must be a non-empty list")
    state = components[0].get("state") if isinstance(components[0], dict) else None
    if not isinstance(state, list):
        raise ScenarioError("mixture.components[0].state is required")
    return len(state)


def _parse_observable(spec, d1: int, tol: float) -> tuple[dict, Observable]:
    if not isinstance(spec, dict):
        raise ScenarioError("observable must be an object")
    if "complete" in spec:
        # sugar: a full orthonormal basis with rank-1 projectors
        basis = _decode_span(spec["complete"], "observable.complete", d1)
        if len(basis) != d1:
            raise ScenarioError(
                f"a complete observable needs {d1} basis vectors, got {len(basis)}"
            )
        eigenvalues = spec.get("eigenvalues", list(range(d1)))
        spans = list(basis[:, None])
    else:
        if "projectors" not in spec or "eigenvalues" not in spec:
            raise ScenarioError("observable needs eigenvalues and projectors (or complete)")
        eigenvalues = spec["eigenvalues"]
        spans = _decode_spans(spec["projectors"], "observable.projectors", d1)
    if not isinstance(eigenvalues, list):
        raise ScenarioError("observable.eigenvalues must be a list of numbers")
    for n, v in enumerate(eigenvalues):
        # the bound rejects NaN, infinities and integers too large to convert
        if not _is_number(v) or not abs(v) <= sys.float_info.max:
            raise ScenarioError(
                f"observable.eigenvalues[{n}] must be a finite number, got {_shown(v)}"
            )
    if len(eigenvalues) != len(spans):
        raise ScenarioError("observable needs one eigenvalue per projector")
    canonical = {
        "eigenvalues": [float(v) for v in eigenvalues],
        "projectors": [span.tolist() for span in spans],
    }
    return canonical, _observable(canonical["eigenvalues"], spans, tol, "observable")


def _parse_apparatus(spec, d2: int, tol: float) -> tuple[dict, PointerApparatus]:
    if not isinstance(spec, dict):
        raise ScenarioError("apparatus must be an object")
    ready = decode_vector(_require(spec, "ready_state", list, "apparatus"), "ready_state", d2)
    pointer_states = _decode_vectors(
        _require(spec, "pointer_states", list, "apparatus"), "apparatus.pointer_states", d2
    )
    if "pointer_projectors" in spec:
        spans = _decode_spans(spec["pointer_projectors"], "apparatus.pointer_projectors", d2)
    else:
        if len(pointer_states) != d2:
            raise ScenarioError(
                "pointer_projectors can only default to rank-1 when the pointer "
                f"states form a full basis ({len(pointer_states)} states in dim {d2})"
            )
        spans = list(pointer_states[:, None])
    canonical = {
        "ready_state": encode_vector(ready),
        "pointer_states": pointer_states.tolist(),
        "pointer_projectors": [span.tolist() for span in spans],
    }
    ready_state = _normalized(ready, "ready_state")
    states = _unit_columns(_complex(pointer_states).T, "pointer state")
    pointer = _observable(range(len(spans)), spans, tol, "apparatus")
    try:
        return canonical, PointerApparatus(ready_state, pointer, states, tol)
    except ValueError as exc:
        raise ScenarioError(f"invalid apparatus: {exc}") from exc


def _observable(eigenvalues, spans: list, tol: float, what: str) -> Observable:
    """The observable whose eigenspaces are the spans of the float-pair arrays
    ``spans``, each orthonormalized, checked at operator tolerance ``tol``; a
    ValueError from either step becomes ``invalid <what>: ...``."""
    try:
        return Observable(eigenvalues, [orthonormalize(_complex(span)) for span in spans], tol)
    except ValueError as exc:
        raise ScenarioError(f"invalid {what}: {exc}") from exc


def _unit_columns(columns: np.ndarray, what: str) -> np.ndarray:
    """The columns of ``columns`` normalized as one matrix.  When a column
    cannot be normalized, ``make_state`` runs column by column and raises
    ``invalid <what> n: ...`` for the first such column ``n``."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(columns, axis=0)
    if np.all((norms >= 1e-12) & (norms < np.inf)):
        return columns / norms
    return np.column_stack(
        [_normalized(v, f"{what} {n}").amplitudes for n, v in enumerate(columns.T)]
    )


def _parse_mixture(spec, d1: int, has_partner: bool) -> tuple[dict, MixtureSpec]:
    if not isinstance(spec, dict):
        raise ScenarioError("mixture must be an object")
    canon_components, states = [], []
    for n, comp in enumerate(_require(spec, "components", list, "mixture")):
        if not isinstance(comp, dict) or "state" not in comp or "weight" not in comp:
            raise ScenarioError(f"mixture.components[{n}] needs state and weight")
        vec = decode_vector(comp["state"], f"mixture.components[{n}].state", d1)
        weight = _positive_float(comp["weight"], f"mixture.components[{n}].weight")
        canon_components.append({"state": encode_vector(vec), "weight": weight})
        states.append(vec)
    states = _unit_columns(np.reshape(states, (-1, d1)).T, "mixture component")
    auto_purify = spec.get("auto_purify", False)
    if not isinstance(auto_purify, bool):
        raise ScenarioError(f"mixture.auto_purify must be true or false, got {_shown(auto_purify)}")
    out = {
        "components": canon_components,
        "auto_purify": auto_purify,
        "trials": _integer(spec.get("trials", 50), "mixture.trials", 1),
    }
    if out["trials"] > MAX_TRIALS:
        raise ScenarioError(
            f"mixture.trials must be at most {MAX_TRIALS}, got {_shown(out['trials'])}"
        )
    if "counts" in spec:
        out["counts"] = _integer_list(spec["counts"], "mixture.counts")
    if auto_purify and has_partner:
        raise ScenarioError("give either auto_purify or composite_state, not both")
    if not auto_purify and not has_partner:
        raise ScenarioError("mixture needs composite_state or auto_purify for a partner")
    try:
        weights = [c["weight"] for c in canon_components]
        mixture = MixtureSpec(states, weights)
    except ValueError as exc:
        raise ScenarioError(f"invalid mixture: {exc}") from exc
    if "counts" not in out:
        return out, mixture
    try:
        return out, MixtureSpec(mixture.states, mixture.weights, tuple(out["counts"]))
    except ValueError as exc:
        # the reason echoes the counts in full, so only the clipped list is shown
        raise ScenarioError(
            f"mixture.counts must be one positive count per component in the ratio "
            f"of the weights, got {_shown(out['counts'])}"
        ) from exc


def _canonical_sampling(spec) -> dict:
    if not isinstance(spec, dict):
        raise ScenarioError("sampling must be an object")
    out = {
        "n": _integer(_require(spec, "n", object, "sampling"), "sampling.n", 1),
        "seed": _integer(_require(spec, "seed", object, "sampling"), "sampling.seed", 0),
    }
    if out["n"] > MAX_SAMPLES:
        raise ScenarioError(f"sampling.n must be at most {MAX_SAMPLES}, got {_shown(out['n'])}")
    if "bias" in spec:
        out["bias"] = _integer_list(spec["bias"], "sampling.bias")
    return out


def load_scenario(path: str | Path, default_operator_tol: float = DEFAULT_TOL) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    # json.loads raises a plain ValueError for an integer of over 4300 digits
    # and RecursionError for deep nesting
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    return parse_scenario(data, default_operator_tol)
