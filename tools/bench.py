#!/usr/bin/env python3
"""Time coupling synthesis and the audited derivation over a dimension ladder,
the proper/improper mixture equivalence over a second ladder, and the CLI's
stages on the bundled fixtures.

For each rung ``d1 x d2`` (2x2 up to 64x64) and outcome count ``N`` in
``{2, ~d1/3, min(d1, d2)}``, a random model (random eigenspace ranks, random
pointer states and ready state) and a random input state are built once from
a fixed seed.  Then ``build_premeasurement``, ``derive_probabilities`` and
``verify_calibration`` on the built model are timed in process with
``time.perf_counter``; each figure is the median over repeats.  One more,
untimed build runs under ``tracemalloc``, whose peak counts numpy's buffers.
BLAS is pinned to one thread before numpy is imported, and the thread count,
numpy and BLAS versions and core count are recorded with the results.

The mixture ladder builds, for each ``d`` in ``{4, 16, 64}``, a random mixture
of ``d`` pure components in ``d`` dimensions, purifies it as the ``mixtures``
command's ``auto_purify`` does, and times ``proper_improper_equivalence`` over
50 trials.

The CLI section runs each bundled fixture with its subcommand, plus one
24x24 ``sample`` scenario from ``perfbench/workloads.py`` (seed 3, 250k
draws), and times each stage of one structured run: ``load_scenario``, the
subcommand's run on the loaded scenario, ``sample_outcomes`` on the report's
probabilities (``sample`` only), ``_dump`` of the report, and the whole
in-process ``cli.main`` with its output discarded.

The wall section runs ``python -m envborn.cli <command> <fixture> --format
structured`` as a fresh process for each case of the ``CASES`` table in
``tools/regenerate_goldens.py``, with BLAS pinned to one thread in the child's
environment, and records the median wall time: the CLI end to end, interpreter
start and the numpy import included.

Run from the repository root.  Each run appends one round to the output
file under ``--label``, so two source trees can be compared in one file;
alternate the labels over several rounds so that drift in machine speed
falls on both sides:

    python3 tools/bench.py --label parent --src ../parent/src --out BENCH.json
    python3 tools/bench.py --label change --out BENCH.json

This harness is not part of the test suite.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = [(2, 2), (3, 4), (4, 4), (8, 8), (16, 8), (16, 16), (24, 24), (32, 32), (64, 32), (64, 64)]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
REPEATS = 7
SEED = 5
MIXTURE_DIMS = (4, 16, 64)
MIXTURE_TRIALS = 50


def outcome_counts(d1: int, d2: int) -> list[int]:
    top = min(d1, d2)
    return sorted({min(2, top), max(1, min(round(d1 / 3), top)), top})


def random_case(d1: int, d2: int, outcomes: int, seed: int):
    import numpy as np

    from envborn.hilbert import Observable
    from envborn.premeasurement import PointerApparatus
    from envborn.rng import random_orthogonal_partition, random_state, random_unit_vector

    rng = np.random.default_rng(seed)
    measured = Observable(list(range(outcomes)), random_orthogonal_partition(d1, outcomes, rng))
    pointer_bases = random_orthogonal_partition(d2, outcomes, rng)
    pointer_obs = Observable(list(range(outcomes)), pointer_bases)
    pointer_states = np.column_stack([b @ random_unit_vector(b.shape[1], rng) for b in pointer_bases])
    apparatus = PointerApparatus(random_state(d2, rng), pointer_obs, pointer_states)
    return measured, apparatus, random_state(d1, rng)


def timed(func, repeats: int, min_total_ms: float = 200.0) -> tuple[float, int, object]:
    """Median wall time in ms, the number of calls and the last result.

    Calls at least ``repeats`` times and until ``min_total_ms`` has passed,
    so that sub-millisecond rungs get enough samples; a call above 0.5 s
    stops after three.
    """
    times = []
    result = None
    while len(times) < repeats or sum(times) < min_total_ms:
        start = time.perf_counter()
        result = func()
        times.append(1e3 * (time.perf_counter() - start))
        if times[0] > 500 and len(times) >= 3:
            break
    return statistics.median(times), len(times), result


def peak_mib(func) -> float:
    """The ``tracemalloc`` peak of one call of ``func``, in MiB."""
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_ladder(repeats: int, seed: int) -> list[dict]:
    from envborn.born import derive_probabilities
    from envborn.premeasurement import build_premeasurement, verify_calibration

    rungs = []
    for d1, d2 in LADDER:
        for outcomes in outcome_counts(d1, d2):
            measured, apparatus, phi = random_case(d1, d2, outcomes, seed)
            build_ms, build_n, model = timed(
                lambda: build_premeasurement(measured, apparatus), repeats
            )
            derive_ms, derive_n, report = timed(lambda: derive_probabilities(model, phi), repeats)
            if not report.passed:
                raise RuntimeError(f"audits failed at {d1}x{d2}, N={outcomes}")
            calibration_ms, calibration_n, _ = timed(lambda: verify_calibration(model), repeats)
            rung = {
                "dims": [d1, d2],
                "outcomes": outcomes,
                "build_ms": round(build_ms, 3),
                "build_repeats": build_n,
                "build_peak_mib": round(peak_mib(lambda: build_premeasurement(measured, apparatus)), 3),
                "derive_ms": round(derive_ms, 3),
                "derive_repeats": derive_n,
                "calibration_ms": round(calibration_ms, 3),
                "calibration_repeats": calibration_n,
            }
            print(json.dumps(rung), flush=True)
            rungs.append(rung)
    return rungs


def mixture_case(dim: int, seed: int):
    """A random mixture of ``dim`` pure components in ``dim`` dimensions and
    its canonical purification."""
    import numpy as np

    from envborn.mixtures import MixtureSpec, mix, purify
    from envborn.rng import random_state

    rng = np.random.default_rng(seed)
    weights = rng.random(dim) + 0.1
    weights /= weights.sum()
    states = np.column_stack([random_state(dim, rng).amplitudes for _ in weights])
    spec = MixtureSpec(states, weights)
    return spec, purify(mix(spec))


def mixture_rung(dim: int, repeats: int, seed: int) -> dict:
    from envborn.mixtures import proper_improper_equivalence

    spec, partner = mixture_case(dim, seed)
    equivalence_ms, equivalence_n, residual = timed(
        lambda: proper_improper_equivalence(spec, partner, trials=MIXTURE_TRIALS, seed=seed),
        repeats,
    )
    if not residual <= 1e-10:
        raise RuntimeError(f"mixture equivalence failed at d = {dim}: {residual!r}")
    return {
        "dim": dim,
        "components": dim,
        "trials": MIXTURE_TRIALS,
        "equivalence_ms": round(equivalence_ms, 3),
        "equivalence_repeats": equivalence_n,
        "max_equivalence_residual": residual,
    }


def run_mixture_ladder(repeats: int, seed: int) -> list[dict]:
    rungs = []
    for dim in MIXTURE_DIMS:
        rung = mixture_rung(dim, repeats, seed)
        print(json.dumps(rung), flush=True)
        rungs.append(rung)
    return rungs


def cli_cases(src: Path, workdir: Path) -> list[tuple[str, str, str]]:
    """``(name, subcommand, path)`` for every bundled fixture and the 24x24 scenario."""
    import importlib.util

    import numpy as np

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    fixtures = src / "envborn" / "fixtures"
    cases = [
        (name, command, str(fixtures / f"{name}.json"))
        for name, (command, _) in sorted(workloads._fixture_cases(ROOT).items())
    ]
    scenario, _ = workloads.derive_scenario(np.random.default_rng(3), "sample-24x24")
    path = workdir / "sample-24x24.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return cases + [("sample-24x24", "sample", str(path))]


def run_cli_stages(repeats: int, src: Path, workdir: Path) -> list[dict]:
    import contextlib
    import io

    from envborn import cli
    from envborn.ensemble import sample_outcomes
    from envborn.scenario import load_scenario

    runs = {
        "schmidt": cli.run_schmidt,
        "derive": cli.run_derive,
        "mixtures": cli.run_mixtures,
        "sample": cli.run_sample,
    }

    def main(command: str, path: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([command, path, "--format", "structured"])

    rows = []
    for name, command, path in cli_cases(src, workdir):
        load_ms, _, scenario = timed(lambda: load_scenario(path), repeats)
        run_ms, _, report = timed(lambda: runs[command](scenario), repeats)
        row = {"case": name, "command": command, "load_ms": load_ms, "run_ms": run_ms}
        if command == "sample":
            sampling = report["sampling"]
            probabilities, n, seed = sampling["probabilities"], sampling["n"], sampling["seed"]
            row["sample_ms"] = timed(lambda: sample_outcomes(probabilities, n, seed), repeats)[0]
        row["dump_ms"] = timed(lambda: cli._dump(report), repeats)[0]
        row["main_ms"] = timed(lambda: main(command, path), repeats)[0]
        row = {k: round(v, 3) if isinstance(v, float) else v for k, v in row.items()}
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def golden_cases() -> dict[str, tuple[str, int]]:
    """Fixture name -> (subcommand, expected exit code), the ``CASES`` table
    of ``tools/regenerate_goldens.py``."""
    import importlib.util

    path = ROOT / "tools" / "regenerate_goldens.py"
    spec = importlib.util.spec_from_file_location("regenerate_goldens", path)
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    return goldens.CASES


def cli_wall_row(name: str, command: str, expected: int, repeats: int, src: Path) -> dict:
    """Median wall time of the CLI as a fresh process on one bundled fixture."""
    fixture = src / "envborn" / "fixtures" / f"{name}.json"
    argv = [sys.executable, "-m", "envborn.cli", command, str(fixture), "--format", "structured"]
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    env.update((var, str(BLAS_THREADS)) for var in THREAD_VARS)

    def run() -> None:
        done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if done.returncode != expected:
            raise RuntimeError(f"{name} exited {done.returncode}, not {expected}: {done.stderr!r}")

    wall_ms, wall_n, _ = timed(run, repeats)
    return {"case": name, "command": command, "wall_ms": round(wall_ms, 3), "wall_repeats": wall_n}


def run_cli_wall(repeats: int, src: Path) -> list[dict]:
    rows = []
    for name, (command, expected) in golden_cases().items():
        row = cli_wall_row(name, command, expected, repeats, src)
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import envborn from")
    parser.add_argument("--out", required=True, help="JSON file to append this run's round to")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(Path(args.src).resolve()))

    rungs = run_ladder(REPEATS, SEED)
    mixture_rungs = run_mixture_ladder(REPEATS, SEED)
    with tempfile.TemporaryDirectory() as workdir:
        cli_rows = run_cli_stages(REPEATS, Path(args.src), Path(workdir))
    wall_rows = run_cli_wall(REPEATS, Path(args.src))
    out = Path(args.out)
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data["harness"] = "tools/bench.py"
    data["metrics"] = {
        "build_ms": "build_premeasurement, median wall time in ms",
        "build_peak_mib": "build_premeasurement, tracemalloc peak of one call in MiB",
        "derive_ms": "derive_probabilities on the built model, median wall time in ms",
        "calibration_ms": "verify_calibration on the built model, median wall time in ms",
        "equivalence_ms": (
            f"proper_improper_equivalence, {MIXTURE_TRIALS} trials on an auto-purified "
            "random mixture, median wall time in ms"
        ),
        "load_ms": "cli: load_scenario of the case's file, median wall time in ms",
        "run_ms": "cli: the subcommand's run_* on the loaded scenario, median wall time in ms",
        "sample_ms": "cli: sample_outcomes on the report's probabilities, median wall time in ms",
        "dump_ms": "cli: _dump of the structured report, median wall time in ms",
        "main_ms": "cli: the whole in-process cli.main, structured, median wall time in ms",
        "wall_ms": (
            "python -m envborn.cli <command> <fixture> --format structured as a fresh "
            "process, median wall time in ms"
        ),
    }
    data.setdefault("runs", {}).setdefault(args.label, []).append(
        {
            "seed": SEED,
            "environment": environment(),
            "rungs": rungs,
            "mixtures": mixture_rungs,
            "cli": cli_rows,
            "cli_wall": wall_rows,
        }
    )
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
