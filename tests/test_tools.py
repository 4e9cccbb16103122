import importlib.util
from pathlib import Path

from envborn.born import derive_probabilities
from envborn.premeasurement import build_premeasurement

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


def test_bench_random_case_builds_and_derives():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    measured, apparatus, phi = bench.random_case(2, 2, 2, 0)
    report = derive_probabilities(build_premeasurement(measured, apparatus), phi)
    assert report.passed
