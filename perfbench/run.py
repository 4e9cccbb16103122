#!/usr/bin/env python3
"""envborn benchmark: closed-loop CLI workloads with a correctness gate.

One run measures one workload in this process, with one client and BLAS
pinned to one thread, for ``--seconds`` seconds, and prints one JSON result
as the last line of standard output:

    python3 perfbench/run.py --workload derive-24x24 --seed 1 --seconds 55 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and then with spans around every envborn layer, and reports
per-layer metrics and the tracing overhead.  ``--workload all`` runs every
workload in both modes in child processes and prints every metric by name
and unit.  Run it from the repository root; perfbench/README.md defines the
metrics.
"""

import os

# The pin must be in place before numpy loads OpenBLAS.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from stats import latency_summary, median  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Call, write_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# fresh interpreters timed for setup_s, before and again after the timed
# loop, so that the samples span the run
COLD_IMPORTS_EACH_SIDE = 5
# input generations timed per run for setup_s
GENERATIONS = 3
CHILD_TIMEOUT_S = 170


# -- environment -----------------------------------------------------------------


def _thread_count() -> int | None:
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def environment(seed: int) -> dict:
    """Record the run's environment and verify the BLAS pin held."""
    a = np.ones((256, 256))
    for _ in range(3):
        a = a @ a / 256.0
    threads = _thread_count()
    if threads is not None and threads != 1:
        raise RuntimeError(f"BLAS pin failed: {threads} threads after a matmul")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "threads_after_matmul": threads,
    }


# -- set-up ------------------------------------------------------------------------


def cold_import_s() -> float:
    """Wall time of a fresh interpreter that imports the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import envborn.cli"],
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
    )
    # Popen.wait(timeout=...) polls in steps of up to 50 ms, which would
    # quantize the measurement; a blocking wait with a kill timer does not.
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
        killer.join()
    elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"cold import of envborn.cli exited {code}")
    return elapsed


def generate(name: str, seed: int, workdir: Path) -> tuple[list[list[Call]], list[float]]:
    """Write the inputs several times; return the ops and each duration."""
    times = []
    for _ in range(GENERATIONS):
        start = perf_counter()
        ops = write_inputs(name, seed, ROOT, workdir)
        times.append(perf_counter() - start)
    return ops, times


# -- the closed loop -----------------------------------------------------------------


class Loop:
    """Runs ops one after another and keeps every outcome."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def run_op(self, calls: list[Call]) -> tuple[float, bool]:
        elapsed = 0.0
        ok = True
        for call in calls:
            out = io.StringIO()
            start = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = self.cli.main(list(call.argv))
            except Exception:
                code = None
                self._note(traceback.format_exc())
            elapsed += perf_counter() - start
            ok = ok and self._verified(call, code, out.getvalue())
        self.attempted += 1
        if not ok:
            self.failed += 1
        return elapsed, ok

    def _verified(self, call: Call, code, text: str) -> bool:
        try:
            expected = call.expected_code
            if expected is None:
                expected = 0 if json.loads(text)["pass"] is True else 1
            if code != expected:
                self._note(f"{call.argv}: exit {code}, expected {expected}")
                return False
            if call.check(text):
                return True
        except (ArithmeticError, KeyError, TypeError, ValueError):
            self._note(traceback.format_exc())
            return False
        self._note(f"{call.argv}: report failed its correctness check")
        return False

    def _note(self, message: str) -> None:
        if self.first_failure is None:
            self.first_failure = message

    def measure(self, ops: list[list[Call]], seconds: float, tracer: Tracer | None = None):
        """Cycle through ``ops`` for ``seconds``; return one record per side.

        Without a tracer there is one side.  With one, each op runs untraced
        and then traced, so both sides of the tracing overhead see the same
        inputs and the same machine state.
        """
        tracers = (None,) if tracer is None else (None, tracer)
        sides = [{"samples": [], "scenarios": 0} for _ in tracers]
        start = perf_counter()
        i = 0
        while perf_counter() - start < seconds:
            op = ops[i % len(ops)]
            i += 1
            for side, side_tracer in zip(sides, tracers):
                if side_tracer is None:
                    elapsed, ok = self.run_op(op)
                else:
                    side_tracer.install()
                    try:
                        elapsed, ok = self.run_op(op)
                    finally:
                        side_tracer.uninstall()
                side["samples"].append(elapsed)
                if ok:
                    side["scenarios"] += len(op)
        wall = perf_counter() - start
        for side in sides:
            side["wall_s"] = wall
        return sides


def check_result(result: dict) -> None:
    """Invariants every emitted result must satisfy."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("attempted/failed counts are inconsistent")
    metrics = result["metrics"]
    if "latency_p50_ms" in metrics:
        if metrics["latency_p50_ms"]["value"] > metrics["latency_p90_ms"]["value"]:
            raise ValueError("latency_p50_ms exceeds latency_p90_ms")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(loop: Loop, timed: dict, setup_s: float) -> dict:
    latency = latency_summary(timed["samples"])
    return {
        "scenarios_per_s": _metric(timed["scenarios"] / timed["wall_s"], "1/s"),
        "latency_p50_ms": _metric(1e3 * latency["p50"], "ms"),
        "latency_p90_ms": _metric(1e3 * latency["p90"], "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "success_ratio": _metric((loop.attempted - loop.failed) / loop.attempted, "ratio"),
    }


def _per_layer(tracer: Tracer, plain: dict, traced: dict) -> dict:
    count = len(traced["samples"])
    metrics = {k: _metric(v, unit) for k, (v, unit) in layer_metrics(tracer, count).items()}
    metrics["unattributed_ms"] = _metric(
        1e3 * (sum(traced["samples"]) - tracer.top_level) / count, "ms"
    )
    plain_rate = plain["scenarios"] / sum(plain["samples"])
    traced_rate = traced["scenarios"] / sum(traced["samples"])
    metrics["trace.untraced_scenarios_per_s"] = _metric(plain_rate, "1/s")
    metrics["trace.traced_scenarios_per_s"] = _metric(traced_rate, "1/s")
    # with every traced op failed there is no rate to compare
    overhead = 100.0 * (plain_rate / traced_rate - 1.0) if traced_rate else 0.0
    metrics["trace.overhead_pct"] = _metric(overhead, "%")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    info = {"workload": name, "environment": environment(seed)}
    sys.path.insert(0, str(SRC))
    import envborn.cli as cli

    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    loop = Loop(cli)
    try:
        cold = [cold_import_s() for _ in range(COLD_IMPORTS_EACH_SIDE)]
        ops, generation = generate(name, seed, workdir)
        loop.run_op(ops[0])  # warm-up, verified but not timed
        if trace:
            tracer = Tracer()
            plain, traced = loop.measure(ops, seconds, tracer)
            info["latency"] = latency_summary(plain["samples"])
            info["spans"] = {
                k: {"calls": s.calls, "total_ms": 1e3 * s.total, "self_ms": 1e3 * s.own}
                for k, s in sorted(tracer.stats.items())
                if s.calls
            }
        else:
            (timed,) = loop.measure(ops, seconds)
            info["latency"] = latency_summary(timed["samples"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still has its inputs there
            pass
    cold += [cold_import_s() for _ in range(COLD_IMPORTS_EACH_SIDE)]
    setup_s = median(cold) + median(generation)
    info["setup"] = {"cold_import_s": cold, "generation_s": generation, "setup_s": setup_s}
    if trace:
        metrics = _per_layer(tracer, plain, traced)
    else:
        metrics = _end_to_end(loop, timed, setup_s)
    if loop.first_failure:
        info["first_failure"] = loop.first_failure
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    check_result(result)
    return result, info


# -- every workload at once ------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Run each workload in its own process in both modes; print a table."""
    rows = []
    correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S + 60,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            rows.append((name, trace, result))
    for name, trace, result in rows:
        print(f"{name} (trace {trace}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
    print("correctness gate:", "PASS" if correct else "FAIL")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "envborn" / "cli.py").is_file():
        print(f"error: no envborn sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, m in result["metrics"].items():
        print(f"{metric} {m['value']!r} {m['unit']}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
