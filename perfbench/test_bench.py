"""Tests of the benchmark's own helpers.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from stats import MIN_BEYOND, latency_summary, percentile
from tracing import Tracer

HERE = Path(__file__).resolve().parent
FIXED = [12.5, 3.0, 7.25, 3.0, 101.0, 0.5, 44.0, 9.75, 18.0, 2.0, 65.5]


@pytest.mark.parametrize("q", [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0])
def test_percentile_matches_numpy_on_fixed_vector(q):
    assert percentile(sorted(FIXED), q) == pytest.approx(
        float(np.percentile(FIXED, q)), rel=0, abs=1e-12
    )


def test_percentile_matches_numpy_on_seeded_vectors():
    rng = np.random.default_rng(7)
    for size in (1, 2, 10, 99, 100, 1001):
        values = rng.lognormal(size=size)
        ordered = sorted(values.tolist())
        for q in (50.0, 90.0):
            assert percentile(ordered, q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12
            )


def test_latency_summary_orders_and_counts_the_tail():
    summary = latency_summary(list(range(1, 201)))
    assert summary["count"] == 200
    assert summary["p50"] <= summary["p90"]
    assert summary["beyond_p90"] == 20
    assert summary["p90_resolved"]
    short = latency_summary(list(range(1, 51)))
    assert short["beyond_p90"] < MIN_BEYOND
    assert not short["p90_resolved"]


def _result(p50, p90):
    return {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
        },
    }


def test_check_result_rejects_p50_above_p90():
    run.check_result(_result(1.0, 2.0))
    with pytest.raises(ValueError):
        run.check_result(_result(2.0, 1.0))


def test_emitted_run_passes_its_gate():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fixtures",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run.check_result(result)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["latency_p50_ms"]["value"] <= metrics["latency_p90_ms"]["value"]
    assert metrics["success_ratio"]["value"] == 1.0


def test_tracer_replaces_every_copied_binding_and_restores_it():
    sys.path.insert(0, str(run.SRC))
    import envborn.born as born
    import envborn.cli as cli
    import envborn.premeasurement as premeasurement
    from envborn.hilbert import DensityOperator

    originals = (born.evolve, cli.parse_scenario, DensityOperator.__post_init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert born.evolve is premeasurement.evolve
        assert born.evolve is not originals[0]
        assert cli.parse_scenario is not originals[1]
        assert DensityOperator.__post_init__ is not originals[2]
    finally:
        tracer.uninstall()
    assert (born.evolve, cli.parse_scenario, DensityOperator.__post_init__) == originals


def _shifted(report: dict, shift: int, dst: int, src: int) -> dict:
    """``report`` with ``shift`` counts moved from outcome ``src`` to ``dst``
    and the z-scores and verdicts the program would then print."""
    report = json.loads(json.dumps(report))
    sampling = report["sampling"]
    sampling["counts"][dst] += shift
    sampling["counts"][src] -= shift
    n = sampling["n"]
    sampling["zscores"] = [
        (c - n * p) / (n * p * (1.0 - p)) ** 0.5
        for c, p in zip(sampling["counts"], sampling["probabilities"])
    ]
    sampling["pass"] = all(abs(z) <= sampling["sigmas"] for z in sampling["zscores"])
    report["pass"] = sampling["pass"]
    return report


def test_sample_check_accepts_a_consistent_verdict_and_rejects_a_broken_sampler(tmp_path):
    sys.path.insert(0, str(run.SRC))
    import envborn.cli as cli

    scenario, oracle = workloads.derive_scenario(np.random.default_rng(5), "check")
    path = tmp_path / "check.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["sample", str(path), "--format", "structured"]) == 0
    report = json.loads(out.getvalue())
    check = workloads._sample_check(oracle)
    assert check(json.dumps(report))

    # move counts between the two likeliest outcomes, whose spreads are close
    dst, src = sorted(range(len(oracle)), key=oracle.__getitem__)[-2:]
    sd = [(workloads.DRAWS * oracle[k] * (1.0 - oracle[k])) ** 0.5 for k in (dst, src)]
    flagged = _shifted(report, round(5 * max(sd)), dst, src)
    assert flagged["pass"] is False
    assert check(json.dumps(flagged))

    assert not check(json.dumps(_shifted(report, round(9 * max(sd)), dst, src)))
    unflagged = _shifted(report, round(5 * max(sd)), dst, src)
    unflagged["pass"] = unflagged["sampling"]["pass"] = True
    assert not check(json.dumps(unflagged))
