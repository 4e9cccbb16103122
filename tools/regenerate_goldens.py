#!/usr/bin/env python3
"""Regenerate the stored structured reports for the bundled fixtures.

Run from the repository root after any change that legitimately alters report
content, then review the diff:

    python3 tools/regenerate_goldens.py

To confirm that a change leaves every report untouched, regenerate into
memory only:

    python3 tools/regenerate_goldens.py --check

Check mode writes nothing.  It lists each fixture whose report or exit code
differs from the stored one and exits 1 on any difference, 0 otherwise.
"""

import argparse
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from envborn.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "envborn" / "fixtures"

# fixture name -> (subcommand, expected exit code)
CASES = {
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


def render(name: str) -> tuple[str, int]:
    """The structured report and exit code of one fixture's subcommand."""
    command, _ = CASES[name]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([command, str(FIXTURES / f"{name}.json"), "--format", "structured"])
    return buffer.getvalue(), code


def regenerate(check: bool = False) -> int:
    golden = FIXTURES / "golden"
    if not check:
        golden.mkdir(exist_ok=True)
    differing = []
    for name, (_, expected_code) in CASES.items():
        report, code = render(name)
        out = golden / f"{name}.report.json"
        if check:
            stored = out.read_text(encoding="utf-8") if out.exists() else None
            if code != expected_code or report != stored:
                differing.append(name)
                print(f"{name}: differs (exit {code}, expected {expected_code})")
            continue
        if code != expected_code:
            print(f"{name}: exit {code}, expected {expected_code}", file=sys.stderr)
            return 1
        out.write_text(report, encoding="utf-8")
        print(f"wrote {out}")
    if check:
        print(f"{len(differing)} of {len(CASES)} golden reports differ")
    return 1 if differing else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the stored reports in memory; write nothing",
    )
    raise SystemExit(regenerate(check=parser.parse_args().check))
