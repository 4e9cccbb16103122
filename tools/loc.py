#!/usr/bin/env python3
"""Count the lines of the package source, per module and in total.

Prints two counts for each module under ``src/envborn``: its lines as ``wc -l``
counts them, and its code lines, the lines that hold a token other than a
comment or a docstring (blank lines hold none).  A docstring is any statement
made of string literals alone.  A token or an expression that spans several
lines counts every line it spans.

    python3 tools/loc.py            # the package in this checkout
    python3 tools/loc.py OTHER/src  # another tree's package
"""

import argparse
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# tokens that hold no code: a NEWLINE ends a statement, an NL a line inside one
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                lines.update(range(statement[0].start[0], statement[-1].end[0] + 1))
            statement = []
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=SRC, help="the src directory")
    args = parser.parse_args(argv)
    total_lines = total_code = 0
    print(f"{'module':<32} {'lines':>6} {'code':>6}")
    for path in sorted((args.src / "envborn").glob("*.py")):
        text = path.read_text()
        lines, code = text.count("\n"), code_lines(text)
        total_lines += lines
        total_code += code
        print(f"{path.name:<32} {lines:>6} {code:>6}")
    print(f"{'total':<32} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
