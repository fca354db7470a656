"""Checks on the package's source text."""

import ast
import re
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


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, those in quoted annotations too."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def test_no_module_imports_a_name_it_never_uses():
    # A name the tracer wraps by module attribute is imported for that
    # alone; its import line says so with `noqa: F401`.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, tree = text.split("\n"), ast.parse(text)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} imports {name} unused")
    assert not unused


def test_every_module_level_function_and_class_is_named_outside_its_definition():
    # A helper no caller names is dead code. Besides the package, the
    # acceptance criteria and the benchmark count as callers.
    root = SRC.parent.parent
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    callers = [root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").rglob("*.py"))]
    elsewhere = [path.read_text(encoding="utf-8") for path in callers]
    unnamed = []
    for path, text in sources.items():
        lines = text.split("\n")
        others = [t for p, t in sources.items() if p != path] + elsewhere
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            rest = "\n".join(lines[: first - 1] + lines[node.end_lineno :])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(map(word.search, [rest, *others])):
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unnamed
