import importlib.util
from pathlib import Path

import pytest

from envborn.born import derive_probabilities
from envborn.premeasurement import build_premeasurement
from envborn.scenario import load_scenario

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_random_case_builds_and_derives():
    measured, apparatus, phi = load_bench().random_case(2, 2, 2, 0)
    report = derive_probabilities(build_premeasurement(measured, apparatus), phi)
    assert report.passed


def test_bench_ladder_times_calibration(monkeypatch):
    bench = load_bench()
    monkeypatch.setattr(bench, "LADDER", [(2, 2)])
    rungs = bench.run_ladder(repeats=1, seed=bench.SEED)
    assert [rung["outcomes"] for rung in rungs] == bench.outcome_counts(2, 2)
    assert all(rung["calibration_ms"] > 0 for rung in rungs)


def test_bench_ladder_records_build_peak_memory(monkeypatch):
    bench = load_bench()
    assert bench.LADDER[-1] == (64, 64)
    monkeypatch.setattr(bench, "LADDER", [(4, 4)])
    rungs = bench.run_ladder(repeats=1, seed=bench.SEED)
    # the 4 x 4 ready map alone takes 1 KiB
    assert all(rung["build_peak_mib"] * 2**20 >= 4 * 4 * 4 * 16 for rung in rungs)
    assert bench.peak_mib(lambda: bytearray(2**20)) >= 1.0


def test_bench_mixture_rung_builds_and_passes():
    bench = load_bench()
    spec, partner = bench.mixture_case(4, bench.SEED)
    assert spec.states.shape == (4, 4) and partner.dims == (4, 4)
    rung = bench.mixture_rung(4, repeats=1, seed=bench.SEED)
    assert (rung["dim"], rung["trials"]) == (4, 50)
    assert rung["max_equivalence_residual"] <= 1e-10
    assert rung["equivalence_ms"] > 0


def test_bench_cli_cases_are_the_goldens_and_one_large_sample(tmp_path):
    bench = load_bench()
    cases = bench.cli_cases(bench.ROOT / "src", tmp_path)
    golden = bench.ROOT / "src" / "envborn" / "fixtures" / "golden"
    assert [name for name, _, _ in cases[:-1]] == sorted(
        p.name.removesuffix(".report.json") for p in golden.glob("*.report.json")
    )
    name, command, path = cases[-1]
    assert (name, command) == ("sample-24x24", "sample")
    scenario = load_scenario(path)
    assert scenario.dims == (24, 24)
    assert scenario.sampling()["n"] == 250_000


def test_bench_cli_wall_times_a_fixture_as_a_process():
    bench = load_bench()
    assert bench.golden_cases()["bell"] == ("schmidt", 0)
    row = bench.cli_wall_row("bell", "schmidt", 0, repeats=1, src=bench.ROOT / "src")
    assert (row["case"], row["command"]) == ("bell", "schmidt")
    assert row["wall_ms"] > 0 and row["wall_repeats"] >= 1


def test_bench_cli_wall_rejects_an_unexpected_exit_code():
    bench = load_bench()
    with pytest.raises(RuntimeError, match="broken-unitary exited 1, not 0"):
        bench.cli_wall_row("broken-unitary", "derive", 0, repeats=1, src=bench.ROOT / "src")


def test_bench_sampling_times_the_draws_and_their_peak(monkeypatch):
    bench = load_bench()
    assert bench.SAMPLE_SIZES[0] == 250_000 and bench.SAMPLE_SIZES[-1] == 2**24
    monkeypatch.setattr(bench, "SAMPLE_SIZES", (1000, 5000))
    rows = bench.run_sampling(repeats=1, seed=bench.SEED)
    assert [(row["n"], row["outcomes"]) for row in rows] == [(1000, 8), (5000, 8)]
    assert all(row["sampling_ms"] > 0 and row["sampling_peak_mib"] > 0 for row in rows)


def test_bench_timed_alternating_reverses_the_order_every_repeat():
    calls = []
    medians, repeats = load_bench().timed_alternating(
        [lambda: calls.append("a"), lambda: calls.append("b")], repeats=3, min_total_ms=0
    )
    assert repeats == 3 and len(medians) == 2
    assert calls == ["a", "b", "b", "a", "a", "b"]


def test_bench_cli_wall_interleaves_a_baseline_tree():
    bench = load_bench()
    src = bench.ROOT / "src"
    row = bench.cli_wall_row("bell", "schmidt", 0, repeats=2, src=src, baseline=src)
    assert row["wall_repeats"] >= 2
    assert row["wall_ms"] > 0 and row["baseline_wall_ms"] > 0
