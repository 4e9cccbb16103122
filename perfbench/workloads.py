"""Seeded inputs and correctness checks for the three benchmark workloads.

Each workload writes scenario JSON files into a work directory and returns
the ops a run cycles over.  An op is a list of CLI calls, each with the exit
code it must return and a check on its structured report.  The program under
test only ever sees the written files; the seed stays here.
"""

from __future__ import annotations

import ast
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    # None: 0 when the report passes and 1 when it does not
    expected_code: int | None
    check: Callable[[str], bool]


def _encode(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return str(path)


def _structured(command: str, path: str) -> tuple[str, ...]:
    return (command, path, "--format", "structured")


# -- fixtures ------------------------------------------------------------------


def _fixture_cases(root: Path) -> dict[str, tuple[str, int]]:
    """The fixture -> (subcommand, exit code) table the golden reports were
    generated from, read without importing the script."""
    script = root / "tools" / "regenerate_goldens.py"
    for node in ast.parse(script.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CASES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise ValueError(f"no CASES table in {script}")


def _golden_check(expected: str) -> Callable[[str], bool]:
    return lambda text: text == expected


def _fixtures(seed: int, root: Path, workdir: Path) -> list[list[Call]]:
    src = root / "src" / "envborn" / "fixtures"
    cases = _fixture_cases(root)
    order = list(np.random.default_rng(seed).permutation(sorted(cases)))
    op = []
    for name in order:
        command, code = cases[name]
        path = workdir / f"{name}.json"
        shutil.copyfile(src / f"{name}.json", path)
        golden = (src / "golden" / f"{name}.report.json").read_text(encoding="utf-8")
        op.append(Call(_structured(command, str(path)), code, _golden_check(golden)))
    return [op]


# -- derive-24x24 -----------------------------------------------------------------

DERIVE_DIMS = 24
DERIVE_OUTCOMES = 8
DERIVE_RANK = 3
DERIVE_SCENARIOS = 6
DRAWS = 250_000
# The program flags counts beyond 4 sigma, which a correct sampler does by
# chance in about 1 scenario in 2000; the benchmark accepts that verdict when
# it is consistent, and fails counts beyond this bound, which a correct
# sampler never reaches.
SAMPLER_SIGMAS = 7.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _sample_check(oracle: list[float]) -> Callable[[str], bool]:
    """Derivation within tolerance of ``oracle`` and self-consistent counts."""

    def check(text: str) -> bool:
        report = json.loads(text)
        section = report["derivation"]
        tol = section["tolerance"]
        derived = [rec["derived"] for rec in section["outcomes"]]
        sampling = report["sampling"]
        counts, probs = sampling["counts"], sampling["probabilities"]
        if not (
            len(derived) == len(oracle) == len(counts) == len(probs)
            and all(abs(d - o) <= tol for d, o in zip(derived, oracle))
            and all(abs(p - o) <= tol for p, o in zip(probs, oracle))
            and all(audit["ok"] is True for audit in section["audits"].values())
            and sampling["n"] == DRAWS
            and sum(counts) == DRAWS
            and min(counts) >= 0
        ):
            return False
        zscores = [
            (c - DRAWS * p) / math.sqrt(DRAWS * p * (1.0 - p)) for c, p in zip(counts, probs)
        ]
        within = all(abs(z) <= sampling["sigmas"] for z in zscores)
        return (
            all(_close(z, reported) for z, reported in zip(zscores, sampling["zscores"]))
            and max(abs(z) for z in zscores) <= SAMPLER_SIGMAS
            and sampling["pass"] is within
            and report["pass"] is within
        )

    return check


def derive_scenario(rng: np.random.Generator, name: str) -> tuple[dict, list[float]]:
    """A 24x24 sample scenario and its trace-rule probabilities <phi|P^n|phi>.

    Eight outcomes with rank-3 system projectors in a random basis; pointer
    states are the first eight columns of a random pointer basis, and the last
    pointer projector also takes the sixteen unused columns, so the pointer
    projectors resolve the identity.  The sampling section asks for 250k
    ensemble draws.
    """
    d, k, rank = DERIVE_DIMS, DERIVE_OUTCOMES, DERIVE_RANK
    system = _haar_unitary(d, rng)
    pointer = _haar_unitary(d, rng)
    ready = _unit_vector(d, rng)
    phi = _unit_vector(d, rng)
    blocks = [system[:, n * rank : (n + 1) * rank] for n in range(k)]
    spans = [[pointer[:, n]] for n in range(k)]
    spans[-1] += [pointer[:, j] for j in range(k, d)]
    scenario = {
        "name": name,
        "dims": [d, d],
        "seed": int(rng.integers(2**31)),
        "input_state": _encode(phi),
        "observable": {
            "eigenvalues": [float(n) for n in range(k)],
            "projectors": [[_encode(b[:, j]) for j in range(rank)] for b in blocks],
        },
        "apparatus": {
            "ready_state": _encode(ready),
            "pointer_states": [_encode(pointer[:, n]) for n in range(k)],
            "pointer_projectors": [[_encode(v) for v in span] for span in spans],
        },
        "sampling": {"n": DRAWS, "seed": int(rng.integers(2**31))},
    }
    oracle = [float(np.linalg.norm(b.conj().T @ phi) ** 2) for b in blocks]
    return scenario, oracle


def _derive(seed: int, root: Path, workdir: Path) -> list[list[Call]]:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(DERIVE_SCENARIOS):
        scenario, oracle = derive_scenario(rng, f"derive-24x24-{seed}-{i}")
        path = _write(workdir / f"{scenario['name']}.json", scenario)
        ops.append([Call(_structured("sample", path), None, _sample_check(oracle))])
    return ops


# -- mixtures-16 --------------------------------------------------------------------

MIXTURE_DIM = 16
MIXTURE_COMPONENTS = 16
MIXTURE_TRIALS = 50
MIXTURE_SCENARIOS = 6


def _mixtures_check(text: str) -> bool:
    report = json.loads(text)
    section = report["mixtures"]
    return (
        report["pass"] is True
        and section["trials"] == MIXTURE_TRIALS
        and section["max_equivalence_residual"] <= section["tolerance"]
    )


def mixture_scenario(rng: np.random.Generator, name: str) -> dict:
    """Sixteen random pure components in d = 16, purified by the program."""
    weights = rng.random(MIXTURE_COMPONENTS) + 0.1
    weights /= weights.sum()
    components = [
        {"state": _encode(_unit_vector(MIXTURE_DIM, rng)), "weight": float(w)}
        for w in weights
    ]
    return {
        "name": name,
        "seed": int(rng.integers(2**31)),
        "mixture": {
            "components": components,
            "auto_purify": True,
            "trials": MIXTURE_TRIALS,
        },
    }


def _mixtures(seed: int, root: Path, workdir: Path) -> list[list[Call]]:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(MIXTURE_SCENARIOS):
        scenario = mixture_scenario(rng, f"mixtures-16-{seed}-{i}")
        path = _write(workdir / f"{scenario['name']}.json", scenario)
        ops.append([Call(_structured("mixtures", path), 0, _mixtures_check)])
    return ops


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "fixtures": _fixtures,
    "derive-24x24": _derive,
    "mixtures-16": _mixtures,
}


def write_inputs(name: str, seed: int, root: Path, workdir: Path) -> list[list[Call]]:
    """Write workload ``name``'s inputs for ``seed`` into an empty ``workdir``
    and return the ops a run cycles over."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return WORKLOADS[name](seed, root, workdir)
