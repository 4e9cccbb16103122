#!/usr/bin/env python3
"""Time coupling synthesis and the audited derivation over a dimension ladder.

For each rung ``d1 x d2`` (2x2 up to 64x32) and outcome count ``N`` in
``{2, ~d1/3, min(d1, d2)}``, a random model (random eigenspace ranks, random
pointer states and ready state) and a random input state are built once from
a fixed seed.  Then ``build_premeasurement`` and ``derive_probabilities`` are
timed in process with ``time.perf_counter``; each figure is the median over
repeats.  BLAS is pinned to one thread before numpy is imported, and the
thread count, numpy and BLAS versions and core count are recorded with the
results.

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
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = [(2, 2), (3, 4), (4, 4), (8, 8), (16, 8), (16, 16), (24, 24), (32, 32), (64, 32)]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
REPEATS = 7
SEED = 5


def outcome_counts(d1: int, d2: int) -> list[int]:
    top = min(d1, d2)
    return sorted({min(2, top), max(1, min(round(d1 / 3), top)), top})


def random_case(d1: int, d2: int, outcomes: int, seed: int):
    import numpy as np

    from envborn.hilbert import HilbertSpace, make_state, spectral_observable
    from envborn.premeasurement import PointerApparatus, eigenspace_basis
    from envborn.rng import random_orthogonal_partition, random_state, random_unit_vector

    rng = np.random.default_rng(seed)
    sys_space = HilbertSpace(d1, "sys")
    ptr_space = HilbertSpace(d2, "pointer")
    measured = spectral_observable(
        list(range(outcomes)), random_orthogonal_partition(sys_space, outcomes, rng)
    )
    pointer_projs = random_orthogonal_partition(ptr_space, outcomes, rng)
    pointer_obs = spectral_observable(list(range(outcomes)), pointer_projs)
    pointer_states = []
    for q in pointer_projs:
        basis = np.column_stack(eigenspace_basis(q))
        pointer_states.append(make_state(ptr_space, basis @ random_unit_vector(basis.shape[1], rng)))
    apparatus = PointerApparatus(
        ptr_space, random_state(ptr_space, rng), pointer_obs, tuple(pointer_states)
    )
    return measured, apparatus, random_state(sys_space, rng)


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


def run_ladder(repeats: int, seed: int) -> list[dict]:
    from envborn.born import derive_probabilities
    from envborn.premeasurement import build_premeasurement

    rungs = []
    for d1, d2 in LADDER:
        for outcomes in outcome_counts(d1, d2):
            measured, apparatus, phi = random_case(d1, d2, outcomes, seed)
            build_ms, build_n, model = timed(
                lambda: build_premeasurement(measured, apparatus), repeats
            )
            derive_ms, derive_n, report = timed(lambda: derive_probabilities(model, phi), repeats)
            if not report.flags.all_ok:
                raise RuntimeError(f"audits failed at {d1}x{d2}, N={outcomes}")
            rung = {
                "dims": [d1, d2],
                "outcomes": outcomes,
                "build_ms": round(build_ms, 3),
                "build_repeats": build_n,
                "derive_ms": round(derive_ms, 3),
                "derive_repeats": derive_n,
            }
            print(json.dumps(rung), flush=True)
            rungs.append(rung)
    return rungs


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
    out = Path(args.out)
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data["harness"] = "tools/bench.py"
    data["metrics"] = {
        "build_ms": "build_premeasurement, median wall time in ms",
        "derive_ms": "derive_probabilities on the built model, median wall time in ms",
    }
    data.setdefault("runs", {}).setdefault(args.label, []).append(
        {"seed": SEED, "environment": environment(), "rungs": rungs}
    )
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
