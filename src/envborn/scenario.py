"""Scenario files: parsing, validation, and canonical serialization.

A scenario is a JSON object describing dimensions, an observable, a pointer
apparatus, input states, and optional mixture/sampling sections.  Complex
scalars are two-element arrays ``[re, im]`` of decimal floats, vectors are
arrays of such pairs, and projectors are lists of spanning vectors.

Parsing resolves all defaults; ``Scenario.canonical()`` re-serializes to a
normal form that parses back to an identical scenario, which keeps reports
self-contained and diffable.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    NORM_TOL,
    HilbertSpace,
    Observable,
    StateVector,
    identity,
    make_state,
    projector_from_span,
    spectral_observable,
)
from .mixtures import MixtureSpec, mix, purify
from .premeasurement import PointerApparatus, PremeasurementModel, build_premeasurement
from .schmidt import BipartiteState

__all__ = ["ScenarioError", "Scenario", "load_scenario", "parse_scenario"]

SCHEMA_VERSION = "envborn.report.v1"
# Largest accepted d1 * d2: a dense composite complex matrix, or the d1^2 x d2^2
# Gram product of a block coupling, stays within 256 MiB.
MAX_COMPOSITE_DIM = 4096
# Largest accepted sampling.n: about 16 bytes per draw, the same 256 MiB budget.
MAX_SAMPLES = 2**24


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input (CLI exit code 2)."""


def encode_vector(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]


def decode_vector(data, what: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ScenarioError(f"{what} must be a non-empty array of [re, im] pairs")
    out = np.empty(len(data), dtype=complex)
    for i, pair in enumerate(data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_number(x) for x in pair)
        ):
            raise ScenarioError(f"{what}[{i}] is not a [re, im] pair: {pair!r}")
        # the bound rejects NaN, infinities and integers too large to convert
        if not all(abs(x) <= sys.float_info.max for x in pair):
            raise ScenarioError(f"{what}[{i}] is not finite: {pair!r}")
        out[i] = complex(float(pair[0]), float(pair[1]))
    if dim is not None and len(out) != dim:
        raise ScenarioError(f"{what} has length {len(out)}, expected {dim}")
    return out


def _decode_span(data, what: str, dim: int) -> list[np.ndarray]:
    if not isinstance(data, list) or not data:
        raise ScenarioError(f"{what} must be a non-empty list of spanning vectors")
    return [decode_vector(v, f"{what}[{i}]", dim) for i, v in enumerate(data)]


@dataclass(frozen=True)
class Scenario:
    """A fully resolved scenario; ``raw`` is the canonical dictionary.  The
    premeasurement model and the mixture are built once (``parse_scenario``
    does it) and kept."""

    raw: dict
    _model: PremeasurementModel | None = field(default=None, init=False, repr=False, compare=False)
    _mixture: MixtureSpec | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.raw["name"]

    @property
    def dims(self) -> tuple[int, int]:
        return tuple(self.raw["dims"])

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def operator_tol(self) -> float:
        return self.raw["tolerances"]["operator"]

    def canonical(self) -> dict:
        return json.loads(json.dumps(self.raw, sort_keys=True))

    # -- builders -----------------------------------------------------------

    def system_space(self) -> HilbertSpace:
        return HilbertSpace(self.dims[0], "sys")

    def pointer_space(self) -> HilbertSpace:
        return HilbertSpace(self.dims[1], "pointer")

    def input_state(self) -> StateVector:
        if "input_state" not in self.raw:
            raise ScenarioError("scenario has no input_state")
        vec = decode_vector(self.raw["input_state"], "input_state", self.dims[0])
        return _normalized(self.system_space(), vec, "input_state")

    def composite_state(self) -> BipartiteState:
        if "composite_state" not in self.raw:
            raise ScenarioError("scenario has no composite_state")
        d1, d2 = self.dims
        vec = decode_vector(self.raw["composite_state"], "composite_state", d1 * d2)
        norm = np.linalg.norm(vec)
        if not 1e-12 <= norm < np.inf:
            raise ScenarioError(f"composite_state cannot be normalized: norm {norm:.3e}")
        return BipartiteState((vec / norm).reshape(d1, d2))

    def observable(self) -> Observable:
        if "observable" not in self.raw:
            raise ScenarioError("scenario has no observable")
        spec = self.raw["observable"]
        d1 = self.dims[0]
        try:
            projectors = [
                projector_from_span(_decode_span(span, f"observable.projectors[{n}]", d1))
                for n, span in enumerate(spec["projectors"])
            ]
            return spectral_observable(spec["eigenvalues"], projectors, self.operator_tol)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"invalid observable: {exc}") from exc

    def apparatus(self) -> PointerApparatus:
        if "apparatus" not in self.raw:
            raise ScenarioError("scenario has no apparatus")
        spec = self.raw["apparatus"]
        d2 = self.dims[1]
        space = self.pointer_space()
        try:
            ready = _normalized(
                space, decode_vector(spec["ready_state"], "apparatus.ready_state", d2), "ready_state"
            )
            states = tuple(
                _normalized(
                    space,
                    decode_vector(v, f"apparatus.pointer_states[{n}]", d2),
                    f"pointer state {n}",
                )
                for n, v in enumerate(spec["pointer_states"])
            )
            projectors = [
                projector_from_span(
                    _decode_span(span, f"apparatus.pointer_projectors[{n}]", d2)
                )
                for n, span in enumerate(spec["pointer_projectors"])
            ]
            pointer_obs = spectral_observable(
                list(range(len(projectors))), projectors, self.operator_tol
            )
            return PointerApparatus(space, ready, pointer_obs, states, self.operator_tol)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"invalid apparatus: {exc}") from exc

    def model(self) -> PremeasurementModel:
        if self._model is not None:
            return self._model
        measured = self.observable()
        apparatus = self.apparatus()
        try:
            model = build_premeasurement(measured, apparatus, self.operator_tol)
        except ValueError as exc:
            raise ScenarioError(f"cannot build premeasurement: {exc}") from exc
        override = self.raw.get("unitary_override")
        if override == "identity":
            # negative-control hook: replace the coupling with the identity
            model = PremeasurementModel(
                measured, apparatus, identity(model.composite_space), self.operator_tol
            )
        elif override is not None:
            raise ScenarioError(f"unknown unitary_override {override!r}")
        object.__setattr__(self, "_model", model)
        return model

    def mixture_spec(self) -> MixtureSpec:
        if self._mixture is not None:
            return self._mixture
        if "mixture" not in self.raw:
            raise ScenarioError("scenario has no mixture section")
        spec = self.raw["mixture"]
        d1 = self.dims[0]
        space = self.system_space()
        components = []
        for n, comp in enumerate(spec["components"]):
            vec = decode_vector(comp["state"], f"mixture.components[{n}].state", d1)
            components.append(
                (_normalized(space, vec, f"mixture component {n}"), float(comp["weight"]))
            )
        counts = tuple(spec["counts"]) if "counts" in spec else None
        try:
            mixture = MixtureSpec(tuple(components), counts)
        except ValueError as exc:
            raise ScenarioError(f"invalid mixture: {exc}") from exc
        object.__setattr__(self, "_mixture", mixture)
        return mixture

    def mixture_partner(self) -> BipartiteState:
        spec = self.raw["mixture"]
        if spec["auto_purify"]:
            return purify(mix(self.mixture_spec()))
        return self.composite_state()

    def sampling(self) -> dict:
        if "sampling" not in self.raw:
            raise ScenarioError("scenario has no sampling section")
        return self.raw["sampling"]


def _normalized(space: HilbertSpace, vec: np.ndarray, what: str) -> StateVector:
    try:
        return make_state(space, vec)
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
    """Validate a scenario dictionary and resolve every default.

    The result's ``raw`` dictionary is canonical: serializing and re-parsing
    it yields an identical scenario.  ``default_operator_tol`` applies only
    when the scenario does not pin ``tolerances.operator`` itself.
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
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")

    out: dict = {}
    out["name"] = str(data.get("name", "scenario"))
    out["seed"] = _integer(data.get("seed", 0), "seed", 0)

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict) or set(tolerances) - {"operator", "norm"}:
        raise ScenarioError("tolerances must be an object with operator/norm keys")
    out["tolerances"] = {
        "operator": _positive_float(tolerances.get("operator", default_operator_tol), "tolerances.operator"),
        "norm": _positive_float(tolerances.get("norm", NORM_TOL), "tolerances.norm"),
    }

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
        raise ScenarioError(f"dims must be two positive integers, got {dims!r}")
    if dims[0] * dims[1] > MAX_COMPOSITE_DIM:
        raise ScenarioError(
            f"dims {dims!r} give a composite dimension {dims[0] * dims[1]} "
            f"above the limit {MAX_COMPOSITE_DIM}"
        )
    out["dims"] = [int(dims[0]), int(dims[1])]
    d1, d2 = out["dims"]

    for key in ("input_state", "composite_state"):
        if key in data:
            expected = d1 if key == "input_state" else d1 * d2
            out[key] = encode_vector(decode_vector(data[key], key, expected))

    if "observable" in data:
        out["observable"] = _canonical_observable(data["observable"], d1)
    if "apparatus" in data:
        out["apparatus"] = _canonical_apparatus(data["apparatus"], d2)
    if "unitary_override" in data:
        out["unitary_override"] = str(data["unitary_override"])
    if "mixture" in data:
        out["mixture"] = _canonical_mixture(data["mixture"], d1, "composite_state" in out)
    if "sampling" in data:
        out["sampling"] = _canonical_sampling(data["sampling"])

    scenario = Scenario(raw=json.loads(json.dumps(out, sort_keys=True)))
    # eager validation of every declared section; the model covers both halves
    if "observable" in out and "apparatus" in out:
        scenario.model()
    elif "observable" in out:
        scenario.observable()
    elif "apparatus" in out:
        scenario.apparatus()
    if "input_state" in out:
        scenario.input_state()
    if "composite_state" in out:
        scenario.composite_state()
    if "mixture" in out:
        scenario.mixture_spec()
    return scenario


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_float(value, what: str) -> float:
    # an upper bound of the largest float also rejects integers too large to convert
    if not _is_number(value) or not 0 < value <= sys.float_info.max:
        raise ScenarioError(f"{what} must be a finite number > 0, got {value!r}")
    return float(value)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, what: str, minimum: int) -> int:
    if not _is_integer(value) or value < minimum:
        raise ScenarioError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _infer_component_dim(mixture: dict) -> int:
    components = mixture.get("components")
    if not isinstance(components, list) or not components:
        raise ScenarioError("mixture.components must be a non-empty list")
    state = components[0].get("state") if isinstance(components[0], dict) else None
    if not isinstance(state, list):
        raise ScenarioError("mixture.components[0].state is required")
    return len(state)


def _canonical_observable(spec, d1: int) -> dict:
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
        spans = [[v] for v in basis]
    else:
        if "projectors" not in spec or "eigenvalues" not in spec:
            raise ScenarioError("observable needs eigenvalues and projectors (or complete)")
        eigenvalues = spec["eigenvalues"]
        spans = [
            _decode_span(span, f"observable.projectors[{n}]", d1)
            for n, span in enumerate(spec["projectors"])
        ]
    if not isinstance(eigenvalues, list):
        raise ScenarioError("observable.eigenvalues must be a list of numbers")
    for n, v in enumerate(eigenvalues):
        # the bound rejects NaN, infinities and integers too large to convert
        if not _is_number(v) or not abs(v) <= sys.float_info.max:
            raise ScenarioError(f"observable.eigenvalues[{n}] must be a finite number, got {v!r}")
    if len(eigenvalues) != len(spans):
        raise ScenarioError("observable needs one eigenvalue per projector")
    return {
        "eigenvalues": [float(v) for v in eigenvalues],
        "projectors": [[encode_vector(v) for v in span] for span in spans],
    }


def _canonical_apparatus(spec, d2: int) -> dict:
    if not isinstance(spec, dict):
        raise ScenarioError("apparatus must be an object")
    ready = decode_vector(_require(spec, "ready_state", list, "apparatus"), "ready_state", d2)
    pointer_states = [
        decode_vector(v, f"apparatus.pointer_states[{n}]", d2)
        for n, v in enumerate(_require(spec, "pointer_states", list, "apparatus"))
    ]
    if "pointer_projectors" in spec:
        spans = [
            _decode_span(span, f"apparatus.pointer_projectors[{n}]", d2)
            for n, span in enumerate(spec["pointer_projectors"])
        ]
    else:
        if len(pointer_states) != d2:
            raise ScenarioError(
                "pointer_projectors can only default to rank-1 when the pointer "
                f"states form a full basis ({len(pointer_states)} states in dim {d2})"
            )
        spans = [[v] for v in pointer_states]
    return {
        "ready_state": encode_vector(ready),
        "pointer_states": [encode_vector(v) for v in pointer_states],
        "pointer_projectors": [[encode_vector(v) for v in span] for span in spans],
    }


def _canonical_mixture(spec, d1: int, has_partner: bool) -> dict:
    if not isinstance(spec, dict):
        raise ScenarioError("mixture must be an object")
    components = _require(spec, "components", list, "mixture")
    canon_components = []
    for n, comp in enumerate(components):
        if not isinstance(comp, dict) or "state" not in comp or "weight" not in comp:
            raise ScenarioError(f"mixture.components[{n}] needs state and weight")
        vec = decode_vector(comp["state"], f"mixture.components[{n}].state", d1)
        weight = _positive_float(comp["weight"], f"mixture.components[{n}].weight")
        canon_components.append({"state": encode_vector(vec), "weight": weight})
    auto_purify = spec.get("auto_purify", False)
    if not isinstance(auto_purify, bool):
        raise ScenarioError(f"mixture.auto_purify must be true or false, got {auto_purify!r}")
    out = {
        "components": canon_components,
        "auto_purify": auto_purify,
        "trials": _integer(spec.get("trials", 50), "mixture.trials", 1),
    }
    if "counts" in spec:
        counts = spec["counts"]
        if not isinstance(counts, list) or not all(_is_integer(c) for c in counts):
            raise ScenarioError("mixture.counts must be a list of integers")
        out["counts"] = counts
    if out["auto_purify"] and has_partner:
        raise ScenarioError("give either auto_purify or composite_state, not both")
    if not out["auto_purify"] and not has_partner:
        raise ScenarioError("mixture needs composite_state or auto_purify for a partner")
    return out


def _canonical_sampling(spec) -> dict:
    if not isinstance(spec, dict):
        raise ScenarioError("sampling must be an object")
    out = {
        "n": _integer(_require(spec, "n", object, "sampling"), "sampling.n", 1),
        "seed": _integer(_require(spec, "seed", object, "sampling"), "sampling.seed", 0),
    }
    if out["n"] > MAX_SAMPLES:
        raise ScenarioError(f"sampling.n must be at most {MAX_SAMPLES}, got {out['n']!r}")
    if "bias" in spec:
        bias = spec["bias"]
        if not isinstance(bias, list) or not all(_is_integer(b) for b in bias):
            raise ScenarioError("sampling.bias must be a list of integers")
        out["bias"] = bias
    return out


def load_scenario(path: str | Path, default_operator_tol: float = DEFAULT_TOL) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    return parse_scenario(data, default_operator_tol)
