"""Checks on the package's source text."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hybridhh"
MAX_LINE = 100  # characters


def test_no_source_line_exceeds_the_limit():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    long = [
        f"{path.name}:{lineno} has {len(line)} characters"
        for path in sources
        for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long
