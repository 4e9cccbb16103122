#!/usr/bin/env python3
"""Time coupling synthesis and the audited derivation over a dimension ladder,
the proper/improper mixture equivalence over a second ladder, the sampler over
a ladder of sample counts, and the CLI's stages on the bundled fixtures.

For each rung ``d1 x d2`` (2x2 up to 64x64) and outcome count ``N`` in
``{2, ~d1/3, min(d1, d2)}``, a random model (random eigenspace ranks, random
pointer states and ready state) and a random input state are built once from
a fixed seed.  Then ``build_premeasurement``, ``derive_probabilities`` and
``verify_calibration`` on the built model are timed in process with
``time.perf_counter``; each figure is the median over repeats.  One more,
untimed build runs under ``tracemalloc``, whose peak counts numpy's buffers.
BLAS is pinned to one thread before numpy is imported, and the thread count,
numpy and BLAS versions, core count and bytecode settings are recorded with
the results.

The mixture ladder builds, for each ``d`` in ``{4, 16, 64}``, a random mixture
of ``d`` pure components in ``d`` dimensions, purifies it as the ``mixtures``
command's ``auto_purify`` does, and times ``proper_improper_equivalence`` over
50 trials.

Given a second source tree with ``--baseline``, its ``envborn`` is imported
beside the first as ``envborn_baseline``; every rung of both ladders and
every sampling row builds its case in each tree from the same seed and times
the two trees' calls alternately, recording each ``baseline_*`` figure beside
its own.

The sampling section runs ``sample_outcomes`` on a random distribution of 8
and of 64 outcomes, either side of the sampler's switch from comparison
passes to sorting, for ``n`` in ``SAMPLE_SIZES`` (250k up to the cap
``2**24``) and records the median time and the ``tracemalloc`` peak of one
call.

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
start and the numpy import included.  Each row says whether envborn's
bytecode was cached for the processes or each compiled the source.  Given
``--baseline``, it times each case on both trees, alternating them per
repeat, and records both medians, so that drift in machine speed falls on both
alike.

Run from the repository root.  Each run appends one round to the output
file under ``--label``; with ``--baseline``, one round holds both trees'
figures, each pair timed alternately.  Repeat it for several rounds:

    python3 tools/bench.py --label change --baseline ../parent/src --out BENCH.json

This harness is not part of the test suite.
"""

import argparse
import importlib
import importlib.util
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
REPEATS = 30  # least alternating calls per tree: fewer let machine noise flip a 64x64 rung
SEED = 5
MIXTURE_DIMS = (4, 16, 64)
MIXTURE_TRIALS = 50
SAMPLE_SIZES = (250_000, 2**20, 2**22, 2**24)
# outcome counts on either side of ensemble.COUNT_BY_COMPARISON, which picks
# how each block of draws is counted
SAMPLE_OUTCOMES = (8, 64)
BASELINE_PACKAGE = "envborn_baseline"


def load_baseline(src: Path) -> str:
    """Import the ``envborn`` package of the source tree ``src`` as
    ``BASELINE_PACKAGE`` and return that name.  Its modules import one another
    relatively, so the copy binds only to itself."""
    init = Path(src).resolve() / "envborn" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        BASELINE_PACKAGE, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[BASELINE_PACKAGE] = package
    spec.loader.exec_module(package)
    return BASELINE_PACKAGE


def module(package: str, name: str):
    """Module ``name`` of the envborn package imported as ``package``."""
    return importlib.import_module(f"{package}.{name}")


def outcome_counts(d1: int, d2: int) -> list[int]:
    top = min(d1, d2)
    return sorted({min(2, top), max(1, min(round(d1 / 3), top)), top})


# The three generators below draw what those of tests/conftest.py draw, in the
# same order, so that a seed builds the same models in the tests and in every
# recorded round of this harness.


def _unit_vector(dim: int, rng):
    """Haar-uniform unit vector via normalized complex Gaussian."""
    import numpy as np

    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _state(dim: int, rng, package: str):
    return module(package, "hilbert").make_state(_unit_vector(dim, rng))


def _partition(dim: int, parts: int, rng):
    """The columns of a Haar unitary split into ``parts`` blocks of random
    sizes: the cuts are drawn first, then the unitary's Gaussian pair."""
    import numpy as np

    cuts = np.sort(rng.choice(np.arange(1, dim), size=parts - 1, replace=False))
    ginibre = rng.standard_normal((2, dim, dim))
    q, r = np.linalg.qr(ginibre[0] + 1j * ginibre[1])
    diagonal = np.diagonal(r)
    return np.split(q * (diagonal / np.abs(diagonal)), cuts, axis=1)


def random_case(d1: int, d2: int, outcomes: int, seed: int, package: str = "envborn"):
    import numpy as np

    Observable = module(package, "hilbert").Observable
    PointerApparatus = module(package, "premeasurement").PointerApparatus

    rng = np.random.default_rng(seed)
    measured = Observable(list(range(outcomes)), _partition(d1, outcomes, rng))
    pointer_bases = _partition(d2, outcomes, rng)
    pointer_obs = Observable(list(range(outcomes)), pointer_bases)
    pointer_states = np.column_stack([b @ _unit_vector(b.shape[1], rng) for b in pointer_bases])
    apparatus = PointerApparatus(_state(d2, rng, package), pointer_obs, pointer_states)
    return measured, apparatus, _state(d1, rng, package)


def timed_alternating(funcs, repeats: int, min_total_ms: float = 200.0) -> tuple[list[float], int]:
    """Median wall time in ms of each of ``funcs`` and the number of calls of each.

    Calls the functions in turn, reversing their order every repeat, so that
    drift in machine speed falls on each alike.  Calls the first at least
    ``repeats`` times and until ``min_total_ms`` has passed, so that
    sub-millisecond rungs get enough samples; a call above 0.5 s stops after
    three.
    """
    times = [[] for _ in funcs]
    while len(times[0]) < repeats or sum(times[0]) < min_total_ms:
        order = list(enumerate(funcs))
        for i, func in order if len(times[0]) % 2 == 0 else reversed(order):
            start = time.perf_counter()
            func()
            times[i].append(1e3 * (time.perf_counter() - start))
        if times[0][0] > 500 and len(times[0]) >= 3:
            break
    return [statistics.median(t) for t in times], len(times[0])


def timed(func, repeats: int, min_total_ms: float = 200.0) -> tuple[float, int, object]:
    """Median wall time in ms, the number of calls and the last result, as
    ``timed_alternating`` times one function."""
    result = None

    def call() -> None:
        nonlocal result
        result = func()

    (median,), calls = timed_alternating([call], repeats, min_total_ms)
    return median, calls, result


def peak_mib(func) -> float:
    """The ``tracemalloc`` peak of one call of ``func``, in MiB."""
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def alternately(name: str, funcs, repeats: int) -> dict:
    """``{name}_ms`` and ``{name}_repeats`` of the first of ``funcs`` timed
    alternately with the second, whose median is ``baseline_{name}_ms``."""
    medians, calls = timed_alternating(funcs, repeats)
    row = {f"{name}_ms": round(medians[0], 3)}
    if len(medians) > 1:
        row[f"baseline_{name}_ms"] = round(medians[1], 3)
    row[f"{name}_repeats"] = calls
    return row


def run_ladder(repeats: int, seed: int, baseline: str | None = None) -> list[dict]:
    """Time build, derive and calibration per rung, on ``envborn`` and, when
    ``baseline`` names a second package, on that one alternately."""
    packages = ["envborn"] if baseline is None else ["envborn", baseline]
    build = [module(p, "premeasurement").build_premeasurement for p in packages]
    derive = [module(p, "born").derive_probabilities for p in packages]
    calibrate = [module(p, "premeasurement").verify_calibration for p in packages]
    rungs = []
    for d1, d2 in LADDER:
        for outcomes in outcome_counts(d1, d2):
            cases = [random_case(d1, d2, outcomes, seed, p) for p in packages]
            models = [b(measured, apparatus) for b, (measured, apparatus, _) in zip(build, cases)]
            for model, derive_one, (_, _, phi) in zip(models, derive, cases):
                if not derive_one(model, phi).passed:
                    raise RuntimeError(f"audits failed at {d1}x{d2}, N={outcomes}")
            measured, apparatus, _ = cases[0]
            rung = {
                "dims": [d1, d2],
                "outcomes": outcomes,
                **alternately(
                    "build", [lambda b=b, c=c: b(c[0], c[1]) for b, c in zip(build, cases)], repeats
                ),
                "build_peak_mib": round(peak_mib(lambda: build[0](measured, apparatus)), 3),
                **alternately(
                    "derive",
                    [lambda f=f, m=m, c=c: f(m, c[2]) for f, m, c in zip(derive, models, cases)],
                    repeats,
                ),
                **alternately(
                    "calibration", [lambda f=f, m=m: f(m) for f, m in zip(calibrate, models)], repeats
                ),
            }
            print(json.dumps(rung), flush=True)
            rungs.append(rung)
    return rungs


def mixture_case(dim: int, seed: int, package: str = "envborn"):
    """A random mixture of ``dim`` pure components in ``dim`` dimensions and
    its canonical purification."""
    import numpy as np

    mixtures = module(package, "mixtures")

    rng = np.random.default_rng(seed)
    weights = rng.random(dim) + 0.1
    weights /= weights.sum()
    states = np.column_stack([_state(dim, rng, package).amplitudes for _ in weights])
    spec = mixtures.MixtureSpec(states, weights)
    return spec, mixtures.purify(mixtures.mix(spec))


def mixture_rung(dim: int, repeats: int, seed: int, baseline: str | None = None) -> dict:
    packages = ["envborn"] if baseline is None else ["envborn", baseline]
    runs = []
    for package in packages:
        spec, partner = mixture_case(dim, seed, package)
        equivalence = module(package, "mixtures").proper_improper_equivalence
        runs.append(
            lambda f=equivalence, s=spec, p=partner: f(s, p, trials=MIXTURE_TRIALS, seed=seed)
        )
    residuals = [run() for run in runs]
    if not all(r <= 1e-10 for r in residuals):
        raise RuntimeError(f"mixture equivalence failed at d = {dim}: {residuals!r}")
    return {
        "dim": dim,
        "components": dim,
        "trials": MIXTURE_TRIALS,
        **alternately("equivalence", runs, repeats),
        "max_equivalence_residual": residuals[0],
    }


def run_mixture_ladder(repeats: int, seed: int, baseline: str | None = None) -> list[dict]:
    rungs = []
    for dim in MIXTURE_DIMS:
        rung = mixture_rung(dim, repeats, seed, baseline)
        print(json.dumps(rung), flush=True)
        rungs.append(rung)
    return rungs


def sampling_row(
    n: int, outcomes: int, repeats: int, seed: int, baseline: str | None = None
) -> dict:
    import numpy as np

    packages = ["envborn"] if baseline is None else ["envborn", baseline]
    samplers = [module(package, "ensemble").sample_outcomes for package in packages]
    p = np.random.default_rng(seed).random(outcomes)
    p = (p / p.sum()).tolist()
    return {
        "n": n,
        "outcomes": outcomes,
        **alternately("sampling", [lambda f=f: f(p, n, seed) for f in samplers], repeats),
        "sampling_peak_mib": round(peak_mib(lambda: samplers[0](p, n, seed)), 3),
    }


def run_sampling(repeats: int, seed: int, baseline: str | None = None) -> list[dict]:
    rows = []
    for outcomes in SAMPLE_OUTCOMES:
        for n in SAMPLE_SIZES:
            row = sampling_row(n, outcomes, repeats, seed, baseline)
            print(json.dumps(row), flush=True)
            rows.append(row)
    return rows


def cli_cases(src: Path, workdir: Path) -> list[tuple[str, str, str]]:
    """``(name, subcommand, path)`` for every bundled fixture and the 24x24 scenario."""
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
    path = ROOT / "tools" / "regenerate_goldens.py"
    spec = importlib.util.spec_from_file_location("regenerate_goldens", path)
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    return goldens.CASES


def cli_process(name: str, command: str, expected: int, src: Path):
    """A function running the CLI of ``src`` as a fresh process on one bundled
    fixture and checking its exit code."""
    fixture = src / "envborn" / "fixtures" / f"{name}.json"
    argv = [sys.executable, "-m", "envborn.cli", command, str(fixture), "--format", "structured"]
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    env.update((var, str(BLAS_THREADS)) for var in THREAD_VARS)

    def run() -> None:
        done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if done.returncode != expected:
            raise RuntimeError(f"{name} exited {done.returncode}, not {expected}: {done.stderr!r}")

    return run


def bytecode_cached(src: Path) -> bool:
    """Whether a process started as ``cli_process`` does finds valid bytecode
    for every module of ``src``'s envborn and so compiles none of its source:
    the ``.pyc`` where this process's ``PYTHONPYCACHEPREFIX`` puts it exists
    and its header matches the source's modification time and size."""
    for path in (Path(src) / "envborn").glob("*.py"):
        try:
            header = Path(importlib.util.cache_from_source(str(path))).read_bytes()[:16]
        except OSError:
            return False
        stat = path.stat()
        expected = (
            importlib.util.MAGIC_NUMBER
            + bytes(4)
            + (int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
            + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little")
        )
        if header != expected:
            return False
    return True


def cli_wall_row(
    name: str, command: str, expected: int, repeats: int, src: Path, baseline: Path | None = None
) -> dict:
    """Median wall time of the CLI as a fresh process on one bundled fixture,
    and of the ``baseline`` tree's CLI timed alternately with it; for each tree,
    whether its bytecode was cached after the timed processes (if not, each of
    them compiled envborn's source)."""
    trees = [src] if baseline is None else [src, baseline]
    medians, wall_n = timed_alternating(
        [cli_process(name, command, expected, tree) for tree in trees], repeats
    )
    row = {
        "case": name,
        "command": command,
        "wall_ms": round(medians[0], 3),
        "wall_repeats": wall_n,
        "bytecode_cached": bytecode_cached(src),
    }
    if baseline is not None:
        row["baseline_wall_ms"] = round(medians[1], 3)
        row["baseline_bytecode_cached"] = bytecode_cached(baseline)
    return row


def run_cli_wall(repeats: int, src: Path, baseline: Path | None = None) -> list[dict]:
    rows = []
    for name, (command, expected) in golden_cases().items():
        row = cli_wall_row(name, command, expected, repeats, src, baseline)
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
        # the CLI processes of the wall section inherit both
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "pycache_prefix": os.environ.get("PYTHONPYCACHEPREFIX"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import envborn from")
    parser.add_argument(
        "--baseline",
        help="second source tree, timed alternately with --src's in the ladders, the sampling "
        "rows and the wall section",
    )
    parser.add_argument("--out", required=True, help="JSON file to append this run's round to")
    args = parser.parse_args(argv)
    baseline = None if args.baseline is None else Path(args.baseline)

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(Path(args.src).resolve()))

    package = None if baseline is None else load_baseline(baseline)
    rungs = run_ladder(REPEATS, SEED, package)
    mixture_rungs = run_mixture_ladder(REPEATS, SEED, package)
    sampling_rows = run_sampling(REPEATS, SEED, package)
    with tempfile.TemporaryDirectory() as workdir:
        cli_rows = run_cli_stages(REPEATS, Path(args.src), Path(workdir))
    wall_rows = run_cli_wall(REPEATS, Path(args.src), baseline)
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
        "sampling_ms": "sample_outcomes, n draws over the row's outcomes, median wall time in ms",
        "sampling_peak_mib": "sample_outcomes, tracemalloc peak of one call in MiB",
        "load_ms": "cli: load_scenario of the case's file, median wall time in ms",
        "run_ms": "cli: the subcommand's run_* on the loaded scenario, median wall time in ms",
        "sample_ms": "cli: sample_outcomes on the report's probabilities, median wall time in ms",
        "dump_ms": "cli: _dump of the structured report, median wall time in ms",
        "main_ms": "cli: the whole in-process cli.main, structured, median wall time in ms",
        "wall_ms": (
            "python -m envborn.cli <command> <fixture> --format structured as a fresh "
            "process, median wall time in ms"
        ),
        "bytecode_cached": (
            "whether every envborn module of --src had valid cached bytecode after the "
            "wall_ms processes; false means each process compiled the source"
        ),
        "baseline_*": (
            "the same figure for the --baseline tree, timed alternately with --src's per repeat"
        ),
    }
    data.setdefault("runs", {}).setdefault(args.label, []).append(
        {
            "seed": SEED,
            "baseline": args.baseline,
            "environment": environment(),
            "rungs": rungs,
            "mixtures": mixture_rungs,
            "sampling": sampling_rows,
            "cli": cli_rows,
            "cli_wall": wall_rows,
        }
    )
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
