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
