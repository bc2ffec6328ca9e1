"""Compare the photonstat CLI's output of two checkouts over the corpus.

Usage: python3 tools/corpus_diff.py OLD NEW

Runs every invocation of ``tools/cli_corpus.py`` on the checkouts OLD and
NEW and prints one line for each invocation whose stdout, stderr or exit
code differ: the exit codes, the line counts, how many of the printed
numbers changed, and the largest absolute and relative change among them.
Numbers are compared in the order they appear, so the comparison needs the
same count of numbers on both sides and the same text around them; where
that fails the line says so instead.  The last line counts the
invocations that differ.  Standard library only; not part of the test
suite.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cli_corpus import invocations, run  # noqa: E402

# a decimal or exponent float, or a non-finite one as Python or JSON prints it
NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:inf|nan|Infinity|NaN)\b"
)


def numbers(text: str) -> tuple[list[float], str]:
    """The numbers of ``text`` in order, and the text with each replaced by #."""
    values = [float(m) for m in NUMBER.findall(text)]
    return values, NUMBER.sub("#", text)


def same(x: float, y: float) -> bool:
    """Whether x and y are one number: equal with the same sign, so that
    0.0 and -0.0 differ (they print differently), or both NaN."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y) or x != x and y != y


def changes(old: str, new: str) -> str:
    """How the numbers of ``new`` differ from those of ``old``."""
    (a, text_a), (b, text_b) = numbers(old), numbers(new)
    if len(a) != len(b):
        return f"numbers {len(a)} -> {len(b)}, not compared"
    moved = [(x, y) for x, y in zip(a, b) if not same(x, y)]
    note = "" if text_a == text_b else ", text around them differs"
    if not moved:
        return f"0 of {len(a)} numbers changed{note}"
    abs_change = max(abs(y - x) for x, y in moved)
    # a zero that only flipped its sign moved by 0, relatively too
    rel_change = max(abs(y - x) / max(abs(x), abs(y)) if x or y else 0.0 for x, y in moved)
    return (
        f"{len(moved)} of {len(a)} numbers changed, largest absolute "
        f"{abs_change:.3g}, relative {rel_change:.3g}{note}"
    )


def main() -> int:
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    old, new = (Path(p).resolve() for p in sys.argv[1:])
    differ = 0
    with invocations() as corpus:
        for line, argv in corpus:
            out_a, err_a, code_a = run(old, argv)
            out_b, err_b, code_b = run(new, argv)
            if (out_a, err_a, code_a) == (out_b, err_b, code_b):
                continue
            differ += 1
            text_a = (out_a + err_a).decode(errors="replace")
            text_b = (out_b + err_b).decode(errors="replace")
            print(
                f"{line}: exit {code_a} -> {code_b}, lines "
                f"{text_a.count(chr(10))} -> {text_b.count(chr(10))}, "
                f"{changes(text_a, text_b)}",
                flush=True,
            )
        print(f"{differ} of {len(corpus)} invocations differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
