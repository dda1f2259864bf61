"""Layering of the package: past the substrate, every stage reads only the
cross-contract interaction model (CCIM), never the raw audit source. Also
read off the package's syntax tree: every constant regex is compiled once,
and none starts with a `\b` keyword the regex engine cannot jump to."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import solaudit

PACKAGE = Path(solaudit.__file__).parent

# modules allowed to import solaudit.ingest: the entry point, the report's
# citations, the CCIM build and the external-report line translation
INGEST_IMPORTERS = {"solaudit.cli", "solaudit.report", "solaudit.engines.external"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules a file imports, relative imports resolved."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            stem = ".".join(base + ([node.module] if node.module else []))
            found.add(stem)
            found.update(f"{stem}.{alias.name}" for alias in node.names)
    return found


def test_only_the_substrate_entry_and_report_import_ingest():
    importers = {_module_name(p) for p in PACKAGE.rglob("*.py")
                 if "solaudit.ingest" in _imported_modules(p)}
    allowed = {m for m in importers
               if m in INGEST_IMPORTERS or m.startswith("solaudit.ccim.")}
    assert importers - allowed == set()
    # the guard reads real imports: the modules known to need the source are found
    assert {"solaudit.cli", "solaudit.ccim.build", "solaudit.ccim.parse"} <= importers


# the `re` functions that take a pattern first
PATTERN_FUNCTIONS = {"search", "match", "fullmatch", "split", "findall", "finditer", "sub", "subn"}


def _string_pattern_calls(tree: ast.AST) -> list[int]:
    """Lines of `re.<fn>(...)` calls whose pattern is a string literal."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.func.attr in PATTERN_FUNCTIONS):
            continue
        pattern = node.args[0] if node.args else \
            next((k.value for k in node.keywords if k.arg == "pattern"), None)
        if isinstance(pattern, ast.Constant) and isinstance(pattern.value, (str, bytes)):
            lines.append(node.lineno)
    return lines


def test_constant_regexes_are_compiled_module_constants():
    found = {_module_name(p): lines for p in PACKAGE.rglob("*.py")
             if (lines := _string_pattern_calls(ast.parse(p.read_text(encoding="utf-8"))))}
    assert found == {}
    # the guard sees both call forms; an f-string pattern is not a literal
    assert _string_pattern_calls(ast.parse(
        're.search(r"x", t)\nre.sub(pattern="y", repl="", string=t)\nre.search(f"{a}", t)'
    )) == [1, 2]


def _word_boundary_starts(tree: ast.AST) -> list[int]:
    """Lines of `re.compile` calls whose literal pattern begins with `\\b` and
    a letter."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
            and node.func.attr == "compile" and node.args
            and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
            and re.match(r"\\b[A-Za-z]", node.args[0].value)]


def test_keyword_patterns_start_on_their_keyword():
    # `re` jumps ahead only to a pattern's first literal; one that starts with
    # `\b` is tried at every character. Write `\bword` as `word(?<!\wword)`.
    found = {_module_name(p): lines for p in PACKAGE.rglob("*.py")
             if (lines := _word_boundary_starts(ast.parse(p.read_text(encoding="utf-8"))))}
    assert found == {}, "start the pattern on its keyword: write \\bword as word(?<!\\wword)"
    # the guard rejects a leading `\b` keyword, and only that
    assert _word_boundary_starts(ast.parse(
        're.compile(r"\\brequire\\s*\\(")\nre.compile(r"require(?<!\\wrequire)\\s*\\(")\n'
        're.compile(r"\\b(\\d+)")\nre.compile("\\\\bstep", re.I)'
    )) == [1, 4]
