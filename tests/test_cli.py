import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import envborn.born
import envborn.mixtures
import envborn.premeasurement
import envborn.scenario
from envborn.cli import main
from envborn.rng import random_unit_vector, random_unitary
from envborn.scenario import encode_vector, parse_scenario

FIXTURES = resources.files("envborn.fixtures")

GOLDEN_CASES = {
    "bell": ("schmidt", 0),
    "product-state": ("schmidt", 0),
    "random-3x4": ("schmidt", 0),
    "degenerate-3d": ("derive", 0),
    "certainty": ("derive", 0),
    "broken-unitary": ("derive", 1),
    "mixtures-purified": ("mixtures", 0),
    "mixtures-bell": ("mixtures", 0),
    "sample-fair": ("sample", 0),
    "sample-certainty": ("sample", 0),
    "sample-biased": ("sample", 1),
}


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_fixture_reproduces_stored_report(self, name):
        command, expected_code = GOLDEN_CASES[name]
        code, out, _ = run_cli([command, fixture_path(name), "--format", "structured"])
        assert code == expected_code
        golden = (FIXTURES / "golden" / f"{name}.report.json").read_text(encoding="utf-8")
        assert out == golden

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_runs_are_deterministic(self, name):
        command, _ = GOLDEN_CASES[name]
        _, first, _ = run_cli([command, fixture_path(name), "--format", "structured"])
        _, second, _ = run_cli([command, fixture_path(name), "--format", "structured"])
        assert first == second


class TestSchmidtCommand:
    def test_bell_coefficients(self):
        code, out, _ = run_cli(["schmidt", fixture_path("bell"), "--format", "structured"])
        assert code == 0
        report = json.loads(out)
        assert report["schmidt"]["coefficients"] == pytest.approx(
            [0.7071067811865476, 0.7071067811865476], abs=1e-15
        )

    def test_product_state_single_coefficient(self):
        _, out, _ = run_cli(["schmidt", fixture_path("product-state"), "--format", "structured"])
        coeffs = json.loads(out)["schmidt"]["coefficients"]
        assert coeffs == [1.0]

    def test_round_trip_residual_reported(self):
        _, out, _ = run_cli(["schmidt", fixture_path("random-3x4"), "--format", "structured"])
        assert json.loads(out)["schmidt"]["round_trip_residual"] <= 1e-10

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(["schmidt", str(bad)])
        assert code == 2
        assert "error" in err


class TestDeriveCommand:
    def test_degenerate_scenario_passes(self):
        code, out, _ = run_cli(["derive", fixture_path("degenerate-3d"), "--format", "structured"])
        assert code == 0
        report = json.loads(out)
        derived = [rec["derived"] for rec in report["derivation"]["outcomes"]]
        assert derived == pytest.approx([2 / 3, 1 / 3], abs=1e-10)
        assert report["pass"] is True

    def test_certainty_scenario(self):
        _, out, _ = run_cli(["derive", fixture_path("certainty"), "--format", "structured"])
        derived = [rec["derived"] for rec in json.loads(out)["derivation"]["outcomes"]]
        assert derived == [0.0, 1.0]

    def test_broken_unitary_flagged(self):
        code, out, _ = run_cli(["derive", fixture_path("broken-unitary"), "--format", "structured"])
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["derivation"]["audits"]["calibration"]["ok"] is False

    def test_unknown_field_rejected(self, tmp_path):
        data = json.loads(Path(fixture_path("certainty")).read_text(encoding="utf-8"))
        data["frobnicate"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run_cli(["derive", str(bad)])
        assert code == 2
        assert "frobnicate" in err

    def test_overrides_are_echoed(self):
        _, out, _ = run_cli(
            [
                "derive",
                fixture_path("degenerate-3d"),
                "--tolerance",
                "1e-8",
                "--seed",
                "99",
                "--format",
                "structured",
            ]
        )
        scenario = json.loads(out)["scenario"]
        assert scenario["tolerances"]["operator"] == 1e-8
        assert scenario["seed"] == 99

    def test_env_var_sets_default_tolerance(self, monkeypatch):
        monkeypatch.setenv("ENVBORN_TOLERANCE", "1e-7")
        _, out, _ = run_cli(["derive", fixture_path("degenerate-3d"), "--format", "structured"])
        assert json.loads(out)["scenario"]["tolerances"]["operator"] == 1e-7

    def test_invalid_env_var_exits_2(self, monkeypatch):
        monkeypatch.setenv("ENVBORN_TOLERANCE", "verysmall")
        code, _, err = run_cli(["derive", fixture_path("degenerate-3d")])
        assert code == 2
        assert "ENVBORN_TOLERANCE" in err


class TestMixturesCommand:
    def test_auto_purified_diagonal(self):
        code, out, _ = run_cli(["mixtures", fixture_path("mixtures-purified"), "--format", "structured"])
        assert code == 0
        assert json.loads(out)["mixtures"]["max_equivalence_residual"] <= 1e-10

    def test_bell_against_half_half(self):
        code, _, _ = run_cli(["mixtures", fixture_path("mixtures-bell")])
        assert code == 0

    def test_mismatch_exits_2(self):
        code, _, err = run_cli(["mixtures", fixture_path("mixtures-mismatch")])
        assert code == 2
        assert "does not match" in err

    def test_trials_override(self):
        _, out, _ = run_cli(
            ["mixtures", fixture_path("mixtures-bell"), "--trials", "7", "--format", "structured"]
        )
        assert json.loads(out)["mixtures"]["trials"] == 7


class TestSampleCommand:
    def test_fair_coin_counts_reported(self):
        code, out, _ = run_cli(["sample", fixture_path("sample-fair"), "--format", "structured"])
        assert code == 0
        section = json.loads(out)["sampling"]
        assert sum(section["counts"]) == 100000
        assert section["pass"] is True

    def test_certainty_counts_exact(self):
        _, out, _ = run_cli(["sample", fixture_path("sample-certainty"), "--format", "structured"])
        assert json.loads(out)["sampling"]["counts"] == [0, 50000]

    def test_bias_hook_fails_zbound(self):
        code, out, _ = run_cli(["sample", fixture_path("sample-biased"), "--format", "structured"])
        assert code == 1
        section = json.loads(out)["sampling"]
        assert section["pass"] is False
        assert max(abs(z) for z in section["zscores"]) > 4

    def test_fail_fast_skips_sampling_after_derive_failure(self, tmp_path):
        data = json.loads(Path(fixture_path("broken-unitary")).read_text(encoding="utf-8"))
        data["sampling"] = {"n": 1000, "seed": 1}
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run_cli(["sample", str(bad), "--fail-fast", "--format", "structured"])
        assert code == 1
        assert json.loads(out)["sampling"] is None


class TestReportCommand:
    def test_pretty_prints_stored_report(self):
        golden = str(FIXTURES / "golden" / "degenerate-3d.report.json")
        code, out, _ = run_cli(["report", golden])
        assert code == 0
        assert "degenerate-3d" in out
        assert "PASS" in out

    def test_failing_report_exits_1(self):
        golden = str(FIXTURES / "golden" / "broken-unitary.report.json")
        code, out, _ = run_cli(["report", golden])
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_text_output_matches_report_of_structured_output(self, name, tmp_path):
        command, expected_code = GOLDEN_CASES[name]
        stored = str(tmp_path / "report.json")
        code, text, _ = run_cli([command, fixture_path(name)])
        run_cli([command, fixture_path(name), "--format", "structured", "--out", stored])
        report_code, rendered, _ = run_cli(["report", stored])
        assert code == report_code == expected_code
        assert text == rendered

    def test_unknown_schema_rejected(self, tmp_path):
        bogus = tmp_path / "r.json"
        bogus.write_text(json.dumps({"schema_version": "nope"}), encoding="utf-8")
        code, _, err = run_cli(["report", str(bogus)])
        assert code == 2
        assert "schema" in err


class TestScenarioEcho:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_echoed_scenario_reparses_identically(self, name):
        command, _ = GOLDEN_CASES[name]
        _, out, _ = run_cli([command, fixture_path(name), "--format", "structured"])
        echoed = json.loads(out)["scenario"]
        assert parse_scenario(echoed).canonical() == echoed

    def test_canonicalization_is_a_fixpoint(self):
        data = json.loads(Path(fixture_path("sample-fair")).read_text(encoding="utf-8"))
        once = parse_scenario(data).canonical()
        twice = parse_scenario(once).canonical()
        assert once == twice


class TestBatchAndOutput:
    def test_multiple_files_structured_array(self):
        code, out, _ = run_cli(
            [
                "derive",
                fixture_path("degenerate-3d"),
                fixture_path("certainty"),
                "--format",
                "structured",
            ]
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["scenario"]["name"] for r in reports] == ["degenerate-3d", "certainty"]

    def test_exit_code_is_worst_of_batch(self):
        code, _, _ = run_cli(
            ["derive", fixture_path("degenerate-3d"), fixture_path("broken-unitary")]
        )
        assert code == 1

    def test_fail_fast_stops_batch(self):
        code, out, _ = run_cli(
            [
                "derive",
                fixture_path("broken-unitary"),
                fixture_path("degenerate-3d"),
                "--fail-fast",
                "--format",
                "structured",
            ]
        )
        assert code == 1
        assert json.loads(out)["scenario"]["name"] == "broken-unitary"

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        _, out, _ = run_cli(
            ["schmidt", fixture_path("bell"), "--format", "structured", "--out", str(target)]
        )
        assert target.read_text(encoding="utf-8") == out


def write_variant(tmp_path, name: str, **changes) -> str:
    data = json.loads(Path(fixture_path(name)).read_text(encoding="utf-8"))
    data.update(changes)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestInputHardening:
    """Malformed numbers end in exit 2 with a message naming the field."""

    def assert_input_error(self, args, field):
        code, _, err = run_cli(args)
        assert code == 2
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["derive", "sample"])
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="huge-int")]
    )
    def test_non_finite_input_amplitude(self, tmp_path, command, bad):
        path = write_variant(
            tmp_path,
            "degenerate-3d",
            input_state=[[1.0, 0.0], [bad, 0.0], [0.0, 1.0]],
            sampling={"n": 100, "seed": 1},
        )
        self.assert_input_error([command, path], "input_state[1]")

    def test_non_finite_pointer_state(self, tmp_path):
        data = json.loads(Path(fixture_path("degenerate-3d")).read_text(encoding="utf-8"))
        apparatus = data["apparatus"]
        apparatus["ready_state"] = [[float("nan"), 0.0]] + apparatus["ready_state"][1:]
        path = write_variant(tmp_path, "degenerate-3d", apparatus=apparatus)
        self.assert_input_error(["derive", path], "ready_state[0]")

    @pytest.mark.parametrize("seed", [True, 2.7, "x", [1]])
    def test_malformed_seed(self, tmp_path, seed):
        path = write_variant(tmp_path, "degenerate-3d", seed=seed)
        self.assert_input_error(["derive", path], "seed")

    @pytest.mark.parametrize("key", ["operator", "norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0, 10**400, "1e-9", True])
    def test_malformed_scenario_tolerance(self, tmp_path, key, value):
        path = write_variant(tmp_path, "degenerate-3d", tolerances={key: value})
        self.assert_input_error(["derive", path], f"tolerances.{key}")

    @pytest.mark.parametrize("weight", [None, "abc", float("nan"), float("inf"), 0.0, -0.5, True])
    def test_malformed_mixture_weight(self, tmp_path, weight):
        data = json.loads(Path(fixture_path("mixtures-bell")).read_text(encoding="utf-8"))
        mixture = data["mixture"]
        mixture["components"][1]["weight"] = weight
        path = write_variant(tmp_path, "mixtures-bell", mixture=mixture)
        self.assert_input_error(["mixtures", path], "mixture.components[1].weight")

    @pytest.mark.parametrize("trials", [True, 2.7, "5", 0, -3])
    def test_malformed_mixture_trials(self, tmp_path, trials):
        data = json.loads(Path(fixture_path("mixtures-bell")).read_text(encoding="utf-8"))
        mixture = dict(data["mixture"], trials=trials)
        path = write_variant(tmp_path, "mixtures-bell", mixture=mixture)
        self.assert_input_error(["mixtures", path], "mixture.trials")

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="huge-int")]
    )
    def test_non_finite_observable_eigenvalue(self, tmp_path, bad):
        data = json.loads(Path(fixture_path("degenerate-3d")).read_text(encoding="utf-8"))
        observable = data["observable"]
        observable["eigenvalues"] = [bad] + observable["eigenvalues"][1:]
        path = write_variant(tmp_path, "degenerate-3d", observable=observable)
        self.assert_input_error(["derive", path], "observable.eigenvalues[0]")

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_auto_purify_must_be_bool(self, tmp_path, value):
        data = json.loads(Path(fixture_path("mixtures-bell")).read_text(encoding="utf-8"))
        del data["composite_state"]
        data["mixture"]["auto_purify"] = value
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        self.assert_input_error(["mixtures", str(path)], "mixture.auto_purify")

    def test_boolean_mixture_counts(self, tmp_path):
        data = json.loads(Path(fixture_path("mixtures-bell")).read_text(encoding="utf-8"))
        mixture = dict(data["mixture"], counts=[True, True])
        path = write_variant(tmp_path, "mixtures-bell", mixture=mixture)
        self.assert_input_error(["mixtures", path], "mixture.counts")

    def test_boolean_sampling_bias(self, tmp_path):
        path = write_variant(
            tmp_path, "sample-biased", sampling={"n": 100, "seed": 1, "bias": [True, -1]}
        )
        self.assert_input_error(["sample", path], "sampling.bias")

    def test_boolean_input_amplitude(self, tmp_path):
        path = write_variant(
            tmp_path, "degenerate-3d", input_state=[[1.0, 0.0], [0.0, False], [0.0, 1.0]]
        )
        self.assert_input_error(["derive", path], "input_state[1]")

    def test_boolean_pointer_state(self, tmp_path):
        data = json.loads(Path(fixture_path("degenerate-3d")).read_text(encoding="utf-8"))
        apparatus = data["apparatus"]
        apparatus["pointer_states"][1] = [[0.0, 0.0], [True, 0.0]]
        path = write_variant(tmp_path, "degenerate-3d", apparatus=apparatus)
        self.assert_input_error(["derive", path], "apparatus.pointer_states[1][1]")

    def test_boolean_observable_projector_span(self, tmp_path):
        data = json.loads(Path(fixture_path("degenerate-3d")).read_text(encoding="utf-8"))
        observable = data["observable"]
        observable["projectors"][0][0] = [[True, 0.0], [0.0, 0.0], [0.0, 0.0]]
        path = write_variant(tmp_path, "degenerate-3d", observable=observable)
        self.assert_input_error(["derive", path], "observable.projectors[0][0][0]")

    def test_oversized_sample_count(self, tmp_path):
        path = write_variant(tmp_path, "sample-fair", sampling={"n": 10**15, "seed": 42})
        self.assert_input_error(["sample", path], "sampling.n")

    @pytest.mark.parametrize(
        "dims", [[True, 2], [3, True], [4097, 1], [65, 64], [1, 10**12]]
    )
    def test_malformed_or_oversized_dims(self, tmp_path, dims):
        path = write_variant(tmp_path, "degenerate-3d", dims=dims)
        self.assert_input_error(["derive", path], "dims")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_malformed_tolerance_option(self, value):
        self.assert_input_error(
            ["derive", fixture_path("degenerate-3d"), "--tolerance", value], "--tolerance"
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_malformed_tolerance_env_var(self, monkeypatch, value):
        monkeypatch.setenv("ENVBORN_TOLERANCE", value)
        self.assert_input_error(["derive", fixture_path("degenerate-3d")], "ENVBORN_TOLERANCE")


@pytest.mark.parametrize(
    "command, name", [("derive", "degenerate-3d"), ("sample", "sample-fair")]
)
def test_one_coupling_build_and_one_evolve_per_command(monkeypatch, command, name):
    calls = {"build_premeasurement": 0, "evolve": 0}

    def counted(func):
        def wrapper(*args, **kwargs):
            calls[func.__name__] += 1
            return func(*args, **kwargs)

        return wrapper

    build = counted(envborn.premeasurement.build_premeasurement)
    evolve = counted(envborn.premeasurement.evolve)
    monkeypatch.setattr(envborn.scenario, "build_premeasurement", build)
    monkeypatch.setattr(envborn.premeasurement, "build_premeasurement", build)
    monkeypatch.setattr(envborn.born, "evolve", evolve)
    monkeypatch.setattr(envborn.premeasurement, "evolve", evolve)
    code, _, _ = run_cli([command, fixture_path(name)])
    assert code == 0
    assert calls == {"build_premeasurement": 1, "evolve": 1}


@pytest.mark.parametrize("extra, parses", [([], 1), (["--trials", "7"], 2)])
def test_mixture_parsed_once_per_scenario(monkeypatch, extra, parses):
    specs = []

    def counted(*args, **kwargs):
        specs.append(envborn.mixtures.MixtureSpec(*args, **kwargs))
        return specs[-1]

    monkeypatch.setattr(envborn.scenario, "MixtureSpec", counted)
    code, _, _ = run_cli(["mixtures", fixture_path("mixtures-purified"), *extra])
    assert code == 0
    assert len(specs) == parses


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "envborn.cli", "schmidt", fixture_path("bell")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout


def _large_scenarios(tmp_path) -> list[tuple[str, str]]:
    """A 24x24 scenario with eight rank-3 outcomes for derive and sample, and
    sixteen components in d = 16 with a 256-dim purified partner for mixtures."""
    rng = np.random.default_rng(11)
    d, outcomes, rank = 24, 8, 3
    system, pointer = random_unitary(d, rng), random_unitary(d, rng)
    spans = [[pointer[:, n]] for n in range(outcomes)]
    spans[-1] += [pointer[:, j] for j in range(outcomes, d)]
    derive = {
        "name": "large-24x24",
        "dims": [d, d],
        "input_state": encode_vector(random_unit_vector(d, rng)),
        "observable": {
            "eigenvalues": [float(n) for n in range(outcomes)],
            "projectors": [
                [encode_vector(system[:, n * rank + j]) for j in range(rank)]
                for n in range(outcomes)
            ],
        },
        "apparatus": {
            "ready_state": encode_vector(random_unit_vector(d, rng)),
            "pointer_states": [encode_vector(pointer[:, n]) for n in range(outcomes)],
            "pointer_projectors": [[encode_vector(v) for v in span] for span in spans],
        },
        "sampling": {"n": 20000, "seed": 5},
    }
    weights = rng.random(16) + 0.1
    mixtures = {
        "name": "large-mixtures",
        "mixture": {
            "components": [
                {"state": encode_vector(random_unit_vector(16, rng)), "weight": float(w)}
                for w in weights / weights.sum()
            ],
            "auto_purify": True,
            "trials": 20,
        },
    }
    paths = {}
    for scenario in (derive, mixtures):
        paths[scenario["name"]] = tmp_path / f"{scenario['name']}.json"
        paths[scenario["name"]].write_text(json.dumps(scenario), encoding="utf-8")
    return [
        ("derive", str(paths["large-24x24"])),
        ("sample", str(paths["large-24x24"])),
        ("mixtures", str(paths["large-mixtures"])),
    ]


_EACH_STRUCTURED = """
import sys
from envborn.cli import main
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    print(command, path, main([command, path, "--format", "structured"]), flush=True)
"""


def test_reports_identical_across_blas_thread_counts(tmp_path):
    runs = [(command, fixture_path(name)) for name, (command, _) in sorted(GOLDEN_CASES.items())]
    runs += [("mixtures", fixture_path("mixtures-mismatch"))] + _large_scenarios(tmp_path)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        result = subprocess.run(
            [sys.executable, "-c", _EACH_STRUCTURED, *(arg for run in runs for arg in run)],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    for command, path in runs[-3:]:
        assert f"{command} {path} 0\n".encode() in outputs[0]
    assert outputs[0] == outputs[1]
