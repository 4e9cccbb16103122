"""Command-line front end: scenario ingestion, pipeline runs, verification reports.

Subcommands
-----------
schmidt   decompose a composite state, print coefficients and probabilities
derive    run the full premeasurement/probability pipeline with audits
mixtures  proper vs improper mixture equivalence over random projectors
sample    derive, then realize the probabilities as seeded ensemble counts
report    pretty-print a stored structured report

Exit codes: 0 all checks pass, 1 verification failure, 2 input error.
Structured output is canonical JSON, the text of ``json.dumps(report,
sort_keys=True, indent=2)``, byte-stable for a fixed scenario and seed.
``ENVBORN_TOLERANCE`` overrides the built-in operator tolerance for
scenarios that do not pin one; ``--tolerance`` overrides both.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .born import derive_probabilities
from .ensemble import SampleRun, frequency_check, sample_outcomes
from .hilbert import DEFAULT_TOL
from .mixtures import proper_improper_equivalence
from .scenario import (
    SCHEMA_VERSION,
    Scenario,
    ScenarioError,
    encode_vector,
    load_scenario,
    parse_scenario,
)
from .schmidt import reconstruct, schmidt_decompose, schmidt_probabilities

__all__ = ["main"]

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2

_ENV_TOLERANCE = "ENVBORN_TOLERANCE"
# json.dumps(value, allow_nan=False) without building an encoder per call
_SCALAR = json.JSONEncoder(allow_nan=False).encode


def _finite(x: float) -> float | None:
    """``x``, or ``None`` for the ``inf`` a failed audit step records."""
    return x if math.isfinite(x) else None


def _dump(report: dict | list) -> str:
    # the builders emit plain Python values; a non-finite float is a bug, not output
    return _canonical(report, "\n") + "\n"


def _canonical(value, newline: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`` with line
    breaks written as ``newline``; a vector of finite float pairs is one join."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = (f"{encode_basestring_ascii(k)}: {_canonical(value[k], inner)}" for k in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if not isinstance(value, (list, tuple)) or not value:
        return _SCALAR(value)
    if all(
        type(p) is list and len(p) == 2 and isinstance(p[0], float) and isinstance(p[1], float)
        and math.isfinite(p[0]) and math.isfinite(p[1])
        for p in value
    ):
        pad = inner + "  "
        items = (f"[{pad}{float.__repr__(re)},{pad}{float.__repr__(im)}{inner}]" for re, im in value)
    else:
        items = (_canonical(item, inner) for item in value)
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if args.tolerance is None and args.seed is None and args.trials is None:
        return scenario
    raw = copy.deepcopy(scenario.raw)
    if args.tolerance is not None:
        raw["tolerances"]["operator"] = args.tolerance
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.trials is not None and "mixture" in raw:
        raw["mixture"]["trials"] = args.trials
    return parse_scenario(raw)


def _envelope(command: str, scenario: Scenario, section_name: str, section: dict, passed: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "scenario": scenario.raw,
        section_name: section,
        "pass": bool(passed),
    }


# -- command implementations --------------------------------------------------


def run_schmidt(scenario: Scenario) -> dict:
    psi = scenario.composite_state()
    form = schmidt_decompose(psi)
    back = reconstruct(form)
    residual = float(np.linalg.norm(back.matrix - psi.matrix))
    section = {
        "coefficients": [float(c) for c in form.coefficients],
        "basis1": [encode_vector(v) for v in form.basis1.T],
        "basis2": [encode_vector(v) for v in form.basis2.T],
        "probabilities": [float(p) for p in schmidt_probabilities(form)],
        "round_trip_residual": residual,
        "tolerance": scenario.operator_tol,
    }
    return _envelope("schmidt", scenario, "schmidt", section, residual <= scenario.operator_tol)


def _derivation_section(scenario: Scenario) -> tuple[dict, list[float], bool]:
    model = scenario.model()
    phi = scenario.input_state()
    report = derive_probabilities(
        model, phi, tol=scenario.operator_tol, seed=scenario.seed
    )
    audits = {
        name: {"ok": audit.passed, "max_residual": _finite(audit.max_residual)}
        for name, audit in report.audits.items()
    }
    section = {
        "outcomes": [
            {
                "outcome": r.outcome,
                "eigenvalue": r.eigenvalue,
                "derived": r.derived,
                "oracle": r.oracle,
                "residual": r.residual,
                "schmidt_detail": list(r.schmidt_detail),
                "complement_residual": _finite(r.complement_residual),
            }
            for r in report.records
        ],
        "audits": audits,
        "audit_seed": scenario.seed,
        "tolerance": scenario.operator_tol,
    }
    return section, report.derived, report.passed


def run_derive(scenario: Scenario) -> dict:
    section, _, passed = _derivation_section(scenario)
    return _envelope("derive", scenario, "derivation", section, passed)


def run_mixtures(scenario: Scenario) -> dict:
    spec = scenario.mixture_spec()
    partner = scenario.mixture_partner()
    trials = scenario.raw["mixture"]["trials"]
    try:
        residual = proper_improper_equivalence(
            spec, partner, trials=trials, seed=scenario.seed, tol=scenario.operator_tol
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    section = {
        "trials": trials,
        "seed": scenario.seed,
        "auto_purify": scenario.raw["mixture"]["auto_purify"],
        "max_equivalence_residual": residual,
        "tolerance": scenario.operator_tol,
    }
    return _envelope(
        "mixtures", scenario, "mixtures", section, residual <= scenario.operator_tol
    )


def run_sample(scenario: Scenario, fail_fast: bool = False) -> dict:
    derivation, derived, derive_ok = _derivation_section(scenario)
    sampling = scenario.sampling()
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "sample",
        "scenario": scenario.raw,
        "derivation": derivation,
    }
    run = None
    if derive_ok or not fail_fast:
        try:
            run = sample_outcomes(derived, sampling["n"], sampling["seed"])
        except ValueError:  # a loose tolerance admits derived values that are no distribution
            pass
    if run is None:
        report["sampling"] = None
        report["pass"] = False
        return report
    bias = sampling.get("bias")
    if bias is not None:
        # documented test hook: shift counts to exercise the z-bound detector
        if len(bias) != len(run.counts):
            raise ScenarioError("sampling.bias length does not match outcome count")
        if sum(bias) != 0:
            raise ScenarioError("sampling.bias must sum to zero")
        counts = tuple(c + b for c, b in zip(run.counts, bias))
        if any(c < 0 for c in counts):
            raise ScenarioError("sampling.bias drives a count negative")
        run = SampleRun(run.probabilities, run.sample_count, run.seed, counts)
    freq = frequency_check(run)
    report["sampling"] = {
        "n": run.sample_count,
        "seed": run.seed,
        "probabilities": list(run.probabilities),
        "counts": list(run.counts),
        "zscores": list(freq.zscores),
        "sigmas": freq.sigmas,
        "bias_applied": list(bias) if bias is not None else None,
        "pass": freq.passed,
    }
    report["pass"] = bool(derive_ok and freq.passed)
    return report


# -- text rendering ------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def render_text(report: dict) -> str:
    lines = []
    scenario = report.get("scenario", {})
    lines.append(f"scenario: {scenario.get('name', '?')}  command: {report.get('command', '?')}")
    if "schmidt" in report:
        s = report["schmidt"]
        lines.append(f"  coefficients:  {'  '.join(_fmt(c) for c in s['coefficients'])}")
        lines.append(f"  probabilities: {'  '.join(_fmt(p) for p in s['probabilities'])}")
        for side in ("basis1", "basis2"):
            for i, vec in enumerate(s[side]):
                amps = "  ".join(f"{re:+.6f}{im:+.6f}j" for re, im in vec)
                lines.append(f"  {side}[{i}]:  {amps}")
        lines.append(f"  round-trip residual: {_fmt(s['round_trip_residual'])}")
    if "derivation" in report and report["derivation"] is not None:
        d = report["derivation"]
        lines.append("  outcome  eigenvalue      derived         oracle          residual")
        for rec in d["outcomes"]:
            lines.append(
                f"  {rec['outcome']:<8}"
                f" {_fmt(rec['eigenvalue']):<15}"
                f" {_fmt(rec['derived']):<15}"
                f" {_fmt(rec['oracle']):<15}"
                f" {_fmt(rec['residual'])}"
            )
        audit_bits = []
        for name, audit in sorted(d["audits"].items()):
            status = "ok" if audit["ok"] else "FAIL"
            audit_bits.append(f"{name}={status}({_fmt(audit['max_residual'])})")
        lines.append("  audits: " + " ".join(audit_bits))
    if "mixtures" in report:
        m = report["mixtures"]
        lines.append(
            f"  equivalence over {m['trials']} random projectors: "
            f"max residual {_fmt(m['max_equivalence_residual'])}"
        )
    if "sampling" in report and report["sampling"] is not None:
        s = report["sampling"]
        lines.append(f"  sampling: N={s['n']} seed={s['seed']}")
        lines.append(f"  counts:   {'  '.join(str(c) for c in s['counts'])}")
        lines.append(f"  z-scores: {'  '.join(_fmt(z) for z in s['zscores'])}")
    lines.append("PASS" if report.get("pass") else "FAIL")
    return "\n".join(lines) + "\n"


def _render_stored(report) -> str:
    """``render_text`` of a report read back from JSON; raises ValueError,
    with the reason, for anything this version cannot render."""
    if not isinstance(report, dict):
        raise ValueError(
            f"is not a valid envborn report: expected an object, got {type(report).__name__}"
        )
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"has unsupported schema {report.get('schema_version')!r}")
    try:
        return render_text(report)
    except KeyError as exc:
        raise ValueError(f"is not a valid envborn report: missing field {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"is not a valid envborn report: {exc}") from exc


# -- argument parsing and dispatch ----------------------------------------------


@functools.cache  # one parser per process; argparse keeps no state between parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envborn",
        description="Audit premeasurement scenarios against the trace rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("files", nargs="+", help="scenario file(s), JSON")
        p.add_argument("--tolerance", type=float, default=None, help="operator tolerance override")
        p.add_argument("--seed", type=int, default=None, help="audit seed override")
        p.add_argument("--trials", type=int, default=None, help="mixture trials override")
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="report format (default text)",
        )
        p.add_argument("--out", default=None, help="also write the report to this path")
        p.add_argument(
            "--fail-fast",
            action="store_true",
            help="stop at the first failing section or file",
        )

    for name, doc in (
        ("schmidt", "decompose a composite state"),
        ("derive", "run the derivation pipeline with audits"),
        ("mixtures", "proper/improper mixture equivalence"),
        ("sample", "derive then sample ensemble frequencies"),
    ):
        add_common(sub.add_parser(name, help=doc))

    rp = sub.add_parser("report", help="pretty-print a structured report file")
    rp.add_argument("files", nargs="+", help="report file(s), JSON")
    return parser


def _run_one(command: str, path: str, args, default_tol: float) -> tuple[dict, int]:
    scenario = _apply_overrides(load_scenario(path, default_tol), args)
    runs = {"schmidt": run_schmidt, "derive": run_derive, "mixtures": run_mixtures}
    report = run_sample(scenario, args.fail_fast) if command == "sample" else runs[command](scenario)
    return report, EXIT_PASS if report["pass"] else EXIT_VERIFICATION


def main(argv: list[str] | None = None) -> int:
    tol_env = os.environ.get(_ENV_TOLERANCE)
    default_tol = DEFAULT_TOL
    if tol_env is not None:
        try:
            default_tol = float(tol_env)
        except ValueError:
            default_tol = math.nan
        if not 0 < default_tol < math.inf:
            print(f"invalid {_ENV_TOLERANCE}={tol_env!r}: must be a finite number > 0", file=sys.stderr)
            return EXIT_INPUT

    args = _build_parser().parse_args(argv)
    tol_arg = getattr(args, "tolerance", None)
    if tol_arg is not None and not 0 < tol_arg < math.inf:
        print(f"error: --tolerance must be a finite number > 0, got {tol_arg!r}", file=sys.stderr)
        return EXIT_INPUT

    if args.command == "report":
        code = EXIT_PASS
        for path in args.files:
            try:
                stored = json.loads(Path(path).read_text(encoding="utf-8"))
            # json.loads raises a plain ValueError for an integer of over 4300
            # digits and RecursionError for deep nesting
            except (OSError, ValueError, RecursionError) as exc:
                print(f"error: cannot read report {path}: {exc}", file=sys.stderr)
                return EXIT_INPUT
            # a batch run stores a non-empty list of reports, rendered in order
            batch = stored if isinstance(stored, list) and stored else [stored]
            try:
                text = "".join(_render_stored(report) for report in batch)
            except ValueError as exc:
                print(f"error: {path} {exc}", file=sys.stderr)
                return EXIT_INPUT
            sys.stdout.write(text)
            if not all(report.get("pass") for report in batch):
                code = max(code, EXIT_VERIFICATION)
        return code

    reports = []
    code = EXIT_PASS
    for path in args.files:
        try:
            report, file_code = _run_one(args.command, path, args, default_tol)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        reports.append(report)
        code = max(code, file_code)
        if args.fail_fast and file_code != EXIT_PASS:
            break

    if args.format == "structured":
        text = _dump(reports[0] if len(reports) == 1 else reports)
    else:
        text = "".join(render_text(r) for r in reports)
    sys.stdout.write(text)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
