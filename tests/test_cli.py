import copy
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from conftest import overflowing_span_scenario, random_unit_vector, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

import envborn.born
import envborn.mixtures
import envborn.premeasurement
import envborn.scenario
from envborn.cli import _dump, main
from envborn.scenario import MAX_COMPOSITE_DIM, encode_vector, parse_scenario
from envborn.scenario import _pairs as pairs

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

    @pytest.mark.parametrize("tolerance", ["1e-18", "1e-300", "5e-324"])
    def test_tolerance_below_rounding_fails_audits(self, tmp_path, tolerance):
        # the oracle's imaginary rounding (about 4e-18 here) is guarded at the
        # tolerance of the input's density, so a tiny --tolerance fails audits
        # and does not end the run
        complex_input = [[0.3, 0.7], [0.1, -0.9], [0.55, 0.2]]
        path = write_variant(tmp_path, "degenerate-3d", input_state=complex_input)
        code, out, err = run_cli(["derive", path, "--tolerance", tolerance, "--format", "structured"])
        assert (code, err) == (1, "")
        derivation = json.loads(out)["derivation"]
        assert derivation["audits"]["additivity"] == {"ok": False, "max_residual": None}
        assert not derivation["audits"]["prc"]["ok"]
        derived = [rec["derived"] for rec in derivation["outcomes"]]
        assert derived == pytest.approx([0.803443328551, 0.196556671449], abs=1e-12)

    @pytest.mark.parametrize("command", ["derive", "sample"])
    @pytest.mark.parametrize("tolerance, overlap", [(1e-3, 5e-4), (0.1, 0.05), (0.5, 0.3)])
    def test_loose_tolerance_reports_a_skewed_pointer(self, tmp_path, command, tolerance, overlap):
        # pointer states at this overlap pass the pointer observable's check at
        # the loose tolerance, and the branch weights then miss 1 by up to
        # ~tolerance: the run reports its failed audits instead of raising, and
        # sample draws the derived values at that same tolerance
        pointer = [[[1, 0], [0, 0]], [[overlap, 0], [1, 0]]]
        apparatus = {
            "ready_state": [[1, 0], [0, 0]],
            "pointer_states": pointer,
            "pointer_projectors": [[v] for v in pointer],
        }
        path = write_variant(
            tmp_path,
            "degenerate-3d",
            tolerances={"operator": tolerance},
            apparatus=apparatus,
            sampling={"n": 1000, "seed": 1},
        )
        code, out, err = run_cli([command, path, "--format", "structured"])
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["pass"] is False
        assert report["derivation"]["audits"]["biorthogonality"]["ok"] is False
        if command == "sample":
            derived = [rec["derived"] for rec in report["derivation"]["outcomes"]]
            assert report["sampling"]["probabilities"] == derived

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

    def test_loose_tolerance_draws_a_sum_off_by_rounding(self, tmp_path):
        # at tolerance 1e-3 these pointer states pass every audit and the
        # derived values sum to 1 + 4e-8: the sampler must accept the sum the
        # derivation accepted, not a fixed 1e-9
        pointer = [[[1, 0], [0, 0]], [[2e-4, 0], [1, 0]]]
        apparatus = {
            "ready_state": [[1, 0], [0, 0]],
            "pointer_states": pointer,
            "pointer_projectors": [[v] for v in pointer],
        }
        path = write_variant(
            tmp_path,
            "degenerate-3d",
            tolerances={"operator": 1e-3},
            apparatus=apparatus,
            sampling={"n": 1000, "seed": 1},
        )
        code, out, err = run_cli(["sample", path, "--format", "structured"])
        report = json.loads(out)
        derived = [rec["derived"] for rec in report["derivation"]["outcomes"]]
        assert abs(sum(derived) - 1.0) > 1e-9
        assert all(audit["ok"] for audit in report["derivation"]["audits"].values())
        assert report["sampling"]["probabilities"] == derived
        assert (code, err, report["pass"]) == (0, "", True)

    def test_loose_tolerance_draws_and_checks_the_normalized_distribution(self, tmp_path):
        # at tolerance 0.5 a pointer overlap of 0.3 derives values summing to
        # 1.083 (biorthogonality fails); the draws and the z-scores both use p
        # divided by that sum, so the slack is not all given to the last
        # outcome and blamed on the draw (z = -53 when the top was pinned)
        pointer = [[[1, 0], [0, 0]], [[0.3, 0], [1, 0]]]
        apparatus = {
            "ready_state": [[1, 0], [0, 0]],
            "pointer_states": pointer,
            "pointer_projectors": [[v] for v in pointer],
        }
        path = write_variant(
            tmp_path,
            "degenerate-3d",
            tolerances={"operator": 0.5},
            apparatus=apparatus,
            sampling={"n": 100000, "seed": 1},
        )
        code, out, err = run_cli(["sample", path, "--format", "structured"])
        report = json.loads(out)
        derived = [rec["derived"] for rec in report["derivation"]["outcomes"]]
        assert sum(derived) == pytest.approx(1.083, abs=1e-3)
        section = report["sampling"]
        assert section["probabilities"] == derived
        assert section["pass"] is True
        assert max(abs(z) for z in section["zscores"]) <= 4
        frequencies = np.divide(section["counts"], section["n"])
        assert np.allclose(frequencies, np.divide(derived, sum(derived)), atol=0.01)
        assert (code, err, report["pass"]) == (1, "", False)

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

    def test_batch_round_trip(self, tmp_path):
        files = [fixture_path("degenerate-3d"), fixture_path("broken-unitary")]
        stored = str(tmp_path / "batch.json")
        code, text, _ = run_cli(["derive", *files])
        run_cli(["derive", *files, "--format", "structured", "--out", stored])
        report_code, rendered, err = run_cli(["report", stored])
        assert code == report_code == 1
        assert text == rendered
        assert err == ""

    @pytest.mark.parametrize(
        "stored, reason",
        [
            ({"schema_version": "envborn.report.v1", "scenario": 5}, "no attribute 'get'"),
            ({"schema_version": "envborn.report.v1", "derivation": {"outcomes": 3}}, "not iterable"),
            ({"schema_version": "envborn.report.v1", "schmidt": {}}, "missing field 'coefficients'"),
            ([], "expected an object, got list"),
            ([{"schema_version": "envborn.report.v1"}, 5], "expected an object, got int"),
            # valid JSON, but its text has no UTF-8 form for stdout to write
            ({"schema_version": "envborn.report.v1", "scenario": {"name": "\ud800x"}}, "surrogates"),
        ],
        ids=["scenario-int", "outcomes-int", "schmidt-empty", "empty-batch", "batch-int", "surrogate"],
    )
    def test_malformed_report_exits_2(self, tmp_path, stored, reason):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(stored), encoding="utf-8")
        code, out, err = run_cli(["report", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path} is not a valid envborn report: ")
        assert reason in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["derive", "report"])
    @pytest.mark.parametrize(
        "content",
        [b"[" * 100_000, b'{"seed": ' + b"9" * 5000 + b"}", b'{"name": "\xff"}'],
        ids=["deep", "long-int", "not-utf8"],
    )
    def test_unreadable_json_exits_2(self, tmp_path, command, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code, _, err = run_cli([command, str(path)])
        assert code == 2
        assert str(path) in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(GOLDEN_CASES)), data=st.data())
    def test_one_field_mutations_exit_cleanly(self, fuzz_dir, name, data):
        """A wrong type, number, length or a deleted key anywhere in a stored
        report ends in exit 0, 1 or 2, never in an exception."""
        golden = FIXTURES / "golden" / f"{name}.report.json"
        report = json.loads(golden.read_text(encoding="utf-8"))
        path = fuzz_dir / "mutated.report.json"
        path.write_text(json.dumps(_mutate_one_field(report, data)), encoding="utf-8")
        code, _, _ = run_cli(["report", str(path)])
        assert code in (0, 1, 2)

    def test_non_finite_residuals_stored_as_null(self, monkeypatch):
        # the complement's precondition fails for every outcome (a NaN
        # sub-projector residual, as from broken inputs): each records inf
        def broken_relation(basis, columns):
            return np.full(len(basis), np.nan)

        monkeypatch.setattr(envborn.born, "span_residual", broken_relation)
        code, out, _ = run_cli(["derive", fixture_path("degenerate-3d"), "--format", "structured"])
        assert code == 1
        derivation = json.loads(out)["derivation"]
        assert derivation["audits"]["complement"] == {"ok": False, "max_residual": None}
        assert [r["complement_residual"] for r in derivation["outcomes"]] == [None, None]


class TestScenarioEcho:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_echoed_scenario_reparses_identically(self, name):
        command, _ = GOLDEN_CASES[name]
        _, out, _ = run_cli([command, fixture_path(name), "--format", "structured"])
        echoed = json.loads(out)["scenario"]
        assert parse_scenario(echoed).raw == echoed

    def test_canonicalization_is_a_fixpoint(self):
        data = json.loads(Path(fixture_path("sample-fair")).read_text(encoding="utf-8"))
        once = parse_scenario(data).raw
        twice = parse_scenario(once).raw
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

    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_exits_2(self, tmp_path, target):
        target = tmp_path / target
        code, _, err = run_cli(["derive", fixture_path("certainty"), "--out", str(target)])
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err


def stdlib_dump(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOAT,
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 2**64 + 1, -(2**65), 10**40, 1e308]),
    st.text(),  # non-ASCII and control characters included
)
# lists that take the vector path, and near misses that must not: an int in a
# pair, a third element, a tuple pair, an empty pair
_PAIR_LISTS = st.lists(
    st.one_of(
        st.lists(_FLOAT, min_size=2, max_size=2),
        st.lists(st.one_of(_FLOAT, st.integers(), st.booleans()), min_size=0, max_size=3),
        st.tuples(_FLOAT, _FLOAT),
    ),
    max_size=4,
)
_REPORTS = st.recursive(
    st.one_of(_SCALARS, _PAIR_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=40,
)


class TestCanonicalEmitter:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_REPORTS)
    def test_matches_stdlib(self, report):
        assert _dump(report) == stdlib_dump(report)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "place",
        [
            lambda x: x,
            lambda x: {"v": [[x, 0.0]]},
            lambda x: {"v": [[1.0, 0.0], [0.5, x]]},
            lambda x: [{"a": [[[0.0, 1.0], [x, x]]]}],
        ],
        ids=["alone", "re", "im", "nested"],
    )
    def test_non_finite_float_raises(self, bad, place):
        with pytest.raises(ValueError):
            _dump(place(bad))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(_FLOAT, min_size=2, max_size=2), min_size=1, max_size=4), st.data())
    def test_numpy_float_pairs_match_stdlib(self, pairs, data):
        # %r of an np.float64 is "np.float64(...)": such pairs take the item path
        mixed = [
            [np.float64(x) if data.draw(st.booleans()) else x for x in pair] for pair in pairs
        ]
        for report in ([[np.float64(x) for x in pair] for pair in pairs], {"v": mixed}):
            assert _dump(report) == stdlib_dump(report)

    def test_pairs_whose_sum_overflows_match_stdlib(self):
        report = {"v": [[1.7e308, 1.7e308], [-0.0, 5e-324]]}
        assert _dump(report) == stdlib_dump(report)

    def test_large_and_batch_reports_match_stdlib(self, tmp_path):
        large = _large_scenarios(tmp_path)[1][1]
        for args in (["sample", large], ["derive", fixture_path("degenerate-3d"), large]):
            code, out, _ = run_cli([*args, "--format", "structured"])
            assert code == 0
            assert out == stdlib_dump(json.loads(out))


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

    def test_input_state_with_an_overflowing_norm(self, tmp_path):
        # two finite 1e308 entries: the norm overflows, and the reason names it
        huge = [[1e308, 0.0], [1e308, 0.0], [0.0, 0.0]]
        path = write_variant(tmp_path, "degenerate-3d", input_state=huge)
        code, _, err = run_cli(["derive", path])
        assert (code, err) == (
            2,
            "error: invalid input_state: cannot normalize a vector of norm inf\n",
        )

    @pytest.mark.parametrize("section", ["observable", "apparatus"])
    def test_span_vector_with_an_overflowing_norm(self, tmp_path, section):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(overflowing_span_scenario(section)), encoding="utf-8")
        assert run_cli(["derive", str(path)]) == (
            2,
            "",
            f"error: invalid {section}: cannot normalize a vector of norm inf\n",
        )

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

    def test_non_list_observable_projectors(self, tmp_path):
        data = json.loads(Path(fixture_path("degenerate-3d")).read_text(encoding="utf-8"))
        observable = dict(data["observable"], projectors=5)
        path = write_variant(tmp_path, "degenerate-3d", observable=observable)
        self.assert_input_error(["derive", path], "observable.projectors")

    def test_non_list_pointer_projectors(self, tmp_path):
        data = json.loads(Path(fixture_path("degenerate-3d")).read_text(encoding="utf-8"))
        apparatus = dict(data["apparatus"], pointer_projectors=5)
        path = write_variant(tmp_path, "degenerate-3d", apparatus=apparatus)
        self.assert_input_error(["derive", path], "apparatus.pointer_projectors")

    @pytest.mark.parametrize("name", [[1], None, 5, True])
    def test_non_string_name(self, tmp_path, name):
        data = json.loads(Path(fixture_path("bell")).read_text(encoding="utf-8"))
        data["name"] = name
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        self.assert_input_error(["schmidt", str(path)], "name")

    def test_name_with_a_lone_surrogate(self, tmp_path):
        # valid JSON, but no UTF-8 output can write it: a real stdout encodes,
        # where run_cli's StringIO does not
        data = json.loads(Path(fixture_path("certainty")).read_text(encoding="utf-8"))
        data["name"] = "\ud800x"
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for args in (["--format", "structured"], []):
            result = subprocess.run(
                [sys.executable, "-m", "envborn.cli", "derive", str(path), *args],
                capture_output=True,
                text=True,
            )
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == "error: name must be Unicode text, got '\\ud800x'\n"

    @pytest.mark.parametrize(
        "ready",
        [[[1.0, 0.0], [5e-324, 0.0]], [[0.0, 5e-324], [1.0, 0.0]], [[1.0, 0.0], [1e-310, 1e-310]]],
        ids=["subnormal-real", "subnormal-imaginary", "subnormal-pair"],
    )
    def test_ready_state_with_a_subnormal_component(self, tmp_path, ready):
        # a unit vector: its overlap with a pointer state is subnormal, whose
        # phase the coupling's synthesis must not divide out (warnings are errors)
        data = json.loads(Path(fixture_path("certainty")).read_text(encoding="utf-8"))
        apparatus = dict(data["apparatus"], ready_state=ready)
        code, out, err = run_cli(["derive", write_variant(tmp_path, "certainty", apparatus=apparatus)])
        assert (code, err) == (0, "")
        assert out.endswith("PASS\n")

    @pytest.mark.parametrize("fixture, command", [("degenerate-3d", "derive"), ("bell", "schmidt")])
    @pytest.mark.parametrize("override", [5, "swap", "Identity", None])
    def test_unknown_unitary_override(self, tmp_path, fixture, command, override):
        path = write_variant(tmp_path, fixture, unitary_override=override)
        self.assert_input_error([command, path], "unitary_override")

    @pytest.mark.parametrize(
        "command, name, drop, section",
        [
            ("derive", "bell", None, "observable"),
            ("mixtures", "degenerate-3d", None, "mixture section"),
            ("sample", "degenerate-3d", None, "sampling section"),
            ("schmidt", "degenerate-3d", None, "composite_state"),
            ("derive", "degenerate-3d", "apparatus", "apparatus"),
            ("derive", "degenerate-3d", "input_state", "input_state"),
        ],
    )
    def test_missing_section(self, tmp_path, command, name, drop, section):
        data = json.loads(Path(fixture_path(name)).read_text(encoding="utf-8"))
        data.pop(drop, None)
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        self.assert_input_error([command, str(path)], f"scenario has no {section}")

    @pytest.mark.parametrize(
        "command, name, section, edit, message",
        [
            ("sample", "sample-fair", "sampling", lambda s: s.update(bias=[1, -1, 0]),
             "sampling.bias length does not match outcome count"),
            ("sample", "sample-fair", "sampling", lambda s: s.update(bias=[1, 1]),
             "must sum to zero"),
            ("sample", "sample-fair", "sampling", lambda s: s.update(bias=[-100001, 100001]),
             "drives a count negative"),
            ("derive", "degenerate-3d", "observable",
             lambda s: s.update(complete=list(map(encode_vector, np.eye(3))), eigenvalues=[1, 0, -1]),
             "cannot build premeasurement: measured and pointer outcome counts differ (3 vs 2)"),
            ("derive", "degenerate-3d", "apparatus",
             lambda s: s.update(pointer_projectors=[
                 [encode_vector(np.eye(2)[0]), encode_vector(2 * np.eye(2)[0])],
                 [encode_vector(np.eye(2)[1])],
             ]),
             "invalid apparatus: input vectors are linearly dependent"),
            ("mixtures", "mixtures-bell", "mixture", lambda s: s["components"][0].update(weight=0.2),
             "invalid mixture: weights sum to 0.7"),
        ],
        ids=["bias-length", "bias-sum", "bias-negative", "outcome-counts", "dependent-span",
             "mixture-weights"],
    )
    def test_rejected_section_value(self, tmp_path, command, name, section, edit, message):
        # well-typed values that a later check rejects: the sample's bias, the
        # model build, the span's orthonormalization and the mixture's weights
        spec = json.loads(Path(fixture_path(name)).read_text(encoding="utf-8"))[section]
        edit(spec)
        self.assert_input_error([command, write_variant(tmp_path, name, **{section: spec})], message)

    @pytest.mark.parametrize(
        "command, name, keys, field",
        [
            # 10**400 is a valid seed, so the seed case is negative
            ("derive", "degenerate-3d", ("seed",), "seed"),
            ("derive", "degenerate-3d", ("dims",), "dims"),
            ("derive", "degenerate-3d", ("dims", 0), "dims"),
            ("sample", "sample-fair", ("sampling", "n"), "sampling.n"),
            ("mixtures", "mixtures-bell", ("mixture", "trials"), "mixture.trials"),
            ("mixtures", "mixtures-bell", ("mixture", "counts", 0), "mixture.counts"),
            ("derive", "degenerate-3d", ("input_state", 0, 0), "input_state[0]"),
        ],
        ids=[
            "seed", "dims", "dims-entry", "sampling.n", "mixture.trials", "mixture.counts",
            "amplitude",
        ],
    )
    def test_huge_value_is_clipped_in_message(self, tmp_path, command, name, keys, field):
        data = json.loads(Path(fixture_path(name)).read_text(encoding="utf-8"))
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = -(10**400) if keys == ("seed",) else 10**400
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run_cli([command, str(path)])
        assert code == 2
        assert field in err
        assert err.count("\n") == 1 and len(err) < 200

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


def _count_vectors(value) -> int:
    """The number of JSON vectors (non-empty lists of [re, im] pairs) in ``value``."""
    if isinstance(value, dict):
        return sum(_count_vectors(v) for v in value.values())
    if not isinstance(value, list) or not value:
        return 0
    if all(isinstance(pair, list) and len(pair) == 2 for pair in value):
        if all(isinstance(x, (int, float)) for pair in value for x in pair):
            return 1
    return sum(_count_vectors(v) for v in value)


def test_each_json_vector_decoded_once(monkeypatch, tmp_path):
    # every conversion of JSON vectors to floats goes through _pairs, one call
    # per section: input_state, the projectors, ready_state, the pointer
    # states and the pointer projectors
    command, path = _large_scenarios(tmp_path)[1]
    converted = []

    def counted(vectors, dim):
        values = pairs(vectors, dim)
        if values is not None:
            converted.append(len(values))
        return values

    monkeypatch.setattr(envborn.scenario, "_pairs", counted)
    code, _, _ = run_cli([command, path, "--format", "structured"])
    assert code == 0
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    assert sum(converted) == _count_vectors(data) == 58
    assert sorted(converted) == [1, 1, 8, 24, 24]


@pytest.mark.parametrize(
    "section, where",
    [
        (("observable", "projectors", 4, 1), "observable.projectors[4][1][11]"),
        (("apparatus", "pointer_states", 5), "apparatus.pointer_states[5][11]"),
        (("apparatus", "pointer_projectors", 7, 9), "apparatus.pointer_projectors[7][9][11]"),
    ],
)
@pytest.mark.parametrize(
    "bad, fault",
    [
        ([0.25, True], "is not a [re, im] pair: [0.25, True]"),
        ("0.5", "is not a [re, im] pair: '0.5'"),
        ([0.1, 0.2, 0.3], "is not a [re, im] pair: [0.1, 0.2, 0.3]"),
        ([10**400, 0.0], "is not finite: [1" + "0" * 58 + "..."),
    ],
    ids=["bool", "string", "triple", "huge-int"],
)
def test_fault_mid_span_is_named(tmp_path, section, where, bad, fault):
    # a section whose one conversion fails is decoded vector by vector,
    # naming its first fault as a per-vector decode does
    _, path = _large_scenarios(tmp_path)[0]
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    part, key, *index = section
    vector = data[part][key]
    for i in index:
        vector = vector[i]
    vector[11] = bad
    Path(path).write_text(json.dumps(data), encoding="utf-8")
    assert run_cli(["derive", path]) == (2, "", f"error: {where} {fault}\n")


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


# Every bundled scenario, fuzzed one field at a time.
_FUZZ_FIXTURES = sorted([*GOLDEN_CASES, "mixtures-mismatch"])
_FUZZ_VALUES = [
    7, -1, 0, "x", {}, [], None, True, False,
    math.nan, math.inf, -math.inf, 10**400, MAX_COMPOSITE_DIM + 1,
    5e-324, -5e-324, 1e-310, 1e308, -1e308,
]
_FUZZ_EDITS = ["delete", "shorten", "lengthen"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _mutate_one_field(document, data):
    """``document`` with one field, picked by a random walk from the root,
    replaced by a fuzz value, deleted, shortened or lengthened."""
    parent, key, node = None, None, document
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        parent = node
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    edit = data.draw(st.sampled_from(_FUZZ_VALUES + _FUZZ_EDITS))
    if edit == "delete" and parent is not None:
        del parent[key]
    elif edit in ("shorten", "lengthen") and isinstance(node, list) and node:
        node[:] = node[:-1] if edit == "shorten" else node + [copy.deepcopy(node[-1])]
    elif edit not in _FUZZ_EDITS:
        if parent is None:
            return edit
        parent[key] = copy.deepcopy(edit)
    return document


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(_FUZZ_FIXTURES),
    command=st.sampled_from(["schmidt", "derive", "mixtures", "sample"]),
    data=st.data(),
)
def test_one_field_mutations_exit_cleanly(fuzz_dir, name, command, data):
    """A wrong type, a non-finite or huge number, a wrong length or a deleted
    key anywhere in a fixture ends in exit 0, 1 or 2, never in an exception."""
    scenario = json.loads(Path(fixture_path(name)).read_text(encoding="utf-8"))
    path = fuzz_dir / "mutated.json"
    path.write_text(json.dumps(_mutate_one_field(scenario, data)), encoding="utf-8")
    code, _, _ = run_cli([command, str(path)])
    assert code in (0, 1, 2)


# Option values: signs, zero, huge, non-finite, subnormal, malformed text.
_OPTION_VALUES = st.one_of(
    st.sampled_from([
        "0", "-0", "-1", "1" + "0" * 400, "-" + "9" * 400, "1e308", "-1e308",
        "nan", "-nan", "inf", "-inf", "5e-324", "-5e-324", "1e-320", "2.2250738585072014e-308",
        "", "x", "0x10", "1_000", " 3", "1e400", "--",
    ]),
    st.integers(-3, 3).map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(_FUZZ_FIXTURES),
    command=st.sampled_from(["schmidt", "derive", "mixtures", "sample"]),
    options=st.lists(
        st.tuples(st.sampled_from(["--trials", "--seed", "--tolerance"]), _OPTION_VALUES),
        min_size=1,
        max_size=3,
    ),
)
def test_option_values_exit_cleanly(name, command, options):
    """Any value of --trials, --seed or --tolerance ends in exit 0, 1 or 2
    (argparse rejects a malformed one with SystemExit(2)), never in an
    exception."""
    args = [command, fixture_path(name)] + [part for option in options for part in option]
    try:
        code, _, err = run_cli(args)
    except SystemExit as exc:
        code, err = exc.code, ""
    assert code in (0, 1, 2)
    assert "Traceback" not in err


_PARSER_BUILDS = """
import argparse, contextlib, io, sys
builds = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    builds.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import envborn.cli
print(len(builds))
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        envborn.cli.main(["report", sys.argv[1]])
    print(len(builds))
"""


def test_parser_built_once_per_process_not_at_import():
    # a cold import stays free of argparse work; the first main builds the
    # parser and its subparsers, and the second reuses them
    golden = str(FIXTURES / "golden" / "bell.report.json")
    result = subprocess.run(
        [sys.executable, "-c", _PARSER_BUILDS, golden], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    at_import, first, second = map(int, result.stdout.split())
    assert at_import == 0
    assert first == second > 0


def test_second_run_in_process_drops_earlier_options():
    path = fixture_path("sample-fair")
    structured = ["sample", path, "--format", "structured"]
    _, overridden, _ = run_cli([*structured, "--seed", "9", "--trials", "3", "--tolerance", "1e-9"])
    _, second, _ = run_cli(structured)
    fresh = subprocess.run(
        [sys.executable, "-m", "envborn.cli", *structured], capture_output=True, text=True, timeout=60
    )
    assert fresh.returncode == 0, fresh.stderr
    assert overridden != second == fresh.stdout
