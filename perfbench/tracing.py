"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces every binding of a public envborn function, and
every public method (plus ``__post_init__``) of an envborn class, with a
wrapper that records a span.  ``from .x import f`` copies ``f`` into other
modules, so each copy is replaced, not only the definition.  ``numpy.kron``
is wrapped to count calls and output bytes.  ``Tracer.uninstall`` restores
every original binding.

Spans are aggregated as they close: per function, the call count, the
inclusive time and the self time (the span minus the time its child spans
cover).  A layer is the envborn module that defines the function.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

import numpy as np

PACKAGE = "envborn"
LAYERS = (
    "cli",
    "scenario",
    "hilbert",
    "premeasurement",
    "born",
    "schmidt",
    "mixtures",
    "rng",
    "ensemble",
)
# functions whose ``n`` argument is a number of categorical draws
_DRAW_FUNCTIONS = {"ensemble.sample_outcomes", "ensemble.split_sample"}


class Stat:
    __slots__ = ("calls", "total", "own")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.top_level = 0.0
        self.draws = 0
        self.kron_calls = 0
        self.kron_bytes = 0
        self._children: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _span(self, key: str, func):
        stat = self.stats.setdefault(key, Stat())
        children = self._children
        counts_draws = key in _DRAW_FUNCTIONS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counts_draws:
                self.draws += int(kwargs["n"] if "n" in kwargs else args[1])
            children.append(0.0)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.own += elapsed - inner
                if children:
                    children[-1] += elapsed
                else:
                    self.top_level += elapsed

        return wrapper

    def _kron(self, kron):
        @functools.wraps(kron)
        def wrapper(a, b):
            out = kron(a, b)
            self.kron_calls += 1
            self.kron_bytes += out.nbytes
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and _layer(value):
                    if id(value) not in wrappers:
                        key = f"{_layer(value)}.{value.__qualname__}"
                        wrappers[id(value)] = self._span(key, value)
                    self._replace(module, name, wrappers[id(value)])
                elif (
                    isinstance(value, type)
                    and value.__module__ == module.__name__
                    and _layer(value)
                ):
                    self._wrap_class(value)
        self._replace(np, "kron", self._kron(np.kron))

    def _wrap_class(self, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if not isinstance(attr, types.FunctionType):
                continue
            if name.startswith("_") and name != "__post_init__":
                continue
            key = f"{_layer(cls)}.{attr.__qualname__}"
            self._replace(cls, name, self._span(key, attr))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- reporting -------------------------------------------------------------

    def self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return 1e3 * sum(s.own for k, s in self.stats.items() if k.startswith(prefix))

    def calls(self, key: str) -> int:
        stat = self.stats.get(key)
        return stat.calls if stat else 0

    def total_ms(self, key: str) -> float:
        stat = self.stats.get(key)
        return 1e3 * stat.total if stat else 0.0


def _layer(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith(PACKAGE + "."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics as ``name -> (value, unit)``."""
    per_op = 1.0 / ops
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (tracer.self_ms(layer) * per_op, "ms")
    counts = {
        "scenario.parse_calls": "scenario.parse_scenario",
        "premeasurement.build_calls": "premeasurement.build_premeasurement",
        "premeasurement.evolve_calls": "premeasurement.evolve",
        "premeasurement.branches_calls": "premeasurement.branches",
        "schmidt.decompose_calls": "schmidt.schmidt_decompose",
        "hilbert.density_checks": "hilbert.DensityOperator.__post_init__",
    }
    for metric, key in counts.items():
        out[metric] = (tracer.calls(key) * per_op, "count")
    spans = {
        "premeasurement.build_ms": "premeasurement.build_premeasurement",
        "premeasurement.calibration_ms": "premeasurement.verify_calibration",
        "born.complement_ms": "born.complement_check",
        "born.additivity_ms": "born.check_additivity",
        "hilbert.density_check_ms": "hilbert.DensityOperator.__post_init__",
        "hilbert.unitary_check_ms": "hilbert.Operator.is_unitary",
        "hilbert.partial_trace_ms": "hilbert.partial_trace",
        "mixtures.improper_ms": "mixtures.improper_probability",
        "mixtures.proper_ms": "mixtures.proper_probability",
    }
    for metric, key in spans.items():
        out[metric] = (tracer.total_ms(key) * per_op, "ms")
    out["ensemble.draws"] = (tracer.draws * per_op, "count")
    out["numpy.kron_calls"] = (tracer.kron_calls * per_op, "count")
    out["numpy.kron_out_mb"] = (tracer.kron_bytes * per_op / 1e6, "MB")
    return out
