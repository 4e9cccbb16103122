import importlib.util
import py_compile
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_orthogonal_partition, random_state, random_unit_vector

from envborn.born import derive_probabilities
from envborn.ensemble import COUNT_BY_COMPARISON
from envborn.premeasurement import build_premeasurement
from envborn.scenario import load_scenario

TOOLS = Path(__file__).resolve().parent.parent / "tools"
BENCH = TOOLS / "bench.py"


def load_tool(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def load_bench():
    return load_tool(BENCH)


def test_bench_random_case_builds_and_derives():
    measured, apparatus, phi = load_bench().random_case(2, 2, 2, 0)
    report = derive_probabilities(build_premeasurement(measured, apparatus), phi)
    assert report.passed


def test_bench_cases_draw_the_arrays_of_the_test_generators():
    # the bench keeps its own generators; a seed must build the same models
    bench = load_bench()
    measured, apparatus, phi = bench.random_case(8, 6, 3, bench.SEED)
    rng = np.random.default_rng(bench.SEED)
    bases = random_orthogonal_partition(8, 3, rng)
    pointer_bases = random_orthogonal_partition(6, 3, rng)
    pointer_states = np.column_stack([b @ random_unit_vector(b.shape[1], rng) for b in pointer_bases])
    ready, expected_phi = random_state(6, rng), random_state(8, rng)
    assert measured.ranks == tuple(b.shape[1] for b in bases)
    assert np.array_equal(measured.matrix, np.hstack(bases))
    assert apparatus.pointer_observable.ranks == tuple(b.shape[1] for b in pointer_bases)
    assert np.array_equal(apparatus.pointer_observable.matrix, np.hstack(pointer_bases))
    assert np.array_equal(apparatus.pointer_states, pointer_states)
    assert np.array_equal(apparatus.ready_state.amplitudes, ready.amplitudes)
    assert np.array_equal(phi.amplitudes, expected_phi.amplitudes)

    spec, _ = bench.mixture_case(4, bench.SEED)
    rng = np.random.default_rng(bench.SEED)
    weights = rng.random(4) + 0.1
    weights /= weights.sum()
    states = np.column_stack([random_state(4, rng).amplitudes for _ in weights])
    assert np.array_equal(spec.weights, weights)
    assert np.array_equal(spec.states, states)


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
    assert scenario.raw["dims"] == [24, 24]
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
    # 8 and 64 outcomes, either side of the switch from comparison passes to sorting
    assert bench.SAMPLE_OUTCOMES[0] <= COUNT_BY_COMPARISON < bench.SAMPLE_OUTCOMES[1]
    rows = bench.run_sampling(repeats=1, seed=bench.SEED)
    assert [(row["n"], row["outcomes"]) for row in rows] == [
        (1000, 8), (5000, 8), (1000, 64), (5000, 64)
    ]
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


def test_bench_ladders_time_a_baseline_tree_alternately(monkeypatch):
    bench = load_bench()
    src = bench.ROOT / "src"
    package = bench.load_baseline(src)
    assert package == bench.BASELINE_PACKAGE
    assert bench.module(package, "premeasurement").__name__ == f"{package}.premeasurement"
    monkeypatch.setattr(bench, "LADDER", [(2, 2)])
    for rung in bench.run_ladder(repeats=1, seed=bench.SEED, baseline=package):
        for name in ("build", "derive", "calibration"):
            assert rung[f"{name}_ms"] > 0 and rung[f"baseline_{name}_ms"] > 0
    rung = bench.mixture_rung(4, repeats=1, seed=bench.SEED, baseline=package)
    assert rung["equivalence_ms"] > 0 and rung["baseline_equivalence_ms"] > 0
    assert rung["max_equivalence_residual"] <= 1e-10
    row = bench.sampling_row(1000, 8, repeats=1, seed=bench.SEED, baseline=package)
    assert row["sampling_ms"] > 0 and row["baseline_sampling_ms"] > 0


def test_bench_records_the_bytecode_state(tmp_path, monkeypatch):
    bench = load_bench()
    env = bench.environment()
    assert isinstance(env["dont_write_bytecode"], bool)
    assert "pycache_prefix" in env
    package = tmp_path / "envborn"
    package.mkdir()
    (package / "mod.py").write_text("x = 1\n", encoding="utf-8")
    assert not bench.bytecode_cached(tmp_path)
    monkeypatch.setattr(sys, "pycache_prefix", None)
    py_compile.compile(str(package / "mod.py"), doraise=True)
    assert bench.bytecode_cached(tmp_path)
    (package / "mod.py").write_text("x = 22\n", encoding="utf-8")  # stale: the size differs
    assert not bench.bytecode_cached(tmp_path)


LOC_SNIPPET = '''"""A module docstring
over two lines."""

import numpy as np  # a comment after code


def f(x):
    """A one-line docstring."""
    # a comment line
    y = np.array(
        [x, x],  # one expression over three lines
    )
    return y
'''


def test_loc_counts_lines_and_code_lines(tmp_path, capsys):
    loc = load_tool(TOOLS / "loc.py")
    # the import, the def, the three lines of the expression and the return
    assert loc.code_lines(LOC_SNIPPET) == 6
    assert loc.code_lines("") == 0
    package = tmp_path / "envborn"
    package.mkdir()
    (package / "a.py").write_text(LOC_SNIPPET, encoding="utf-8")
    (package / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "13", "6"], ["b.py", "2", "1"], ["total", "15", "7"]]
