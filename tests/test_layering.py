"""Layering of the package: past the substrate, every stage reads only the
cross-contract interaction model (CCIM), never the raw audit source, and
only the model gathers a function's records by key. The one packer of
multi-member prompts and its reply attribution live in `solaudit.prompts`,
and the interaction pipeline and coverage reach them without importing the
dossier pipeline. Also read off the package's syntax tree: every constant
regex is compiled once, none but a listed few that read short texts starts
with a `\b` keyword or a set of first letters, which the regex engine
cannot jump to, none ignores case, no stage reads a code fact off a
record's raw declaration text, no scan but the body pass looks for a guard,
a fund move, an approval or an `unchecked` block, one helper turns that text
into what prompts print, only the parse's view builder reads a contract's
base list, and only `canonical_json` writes indented JSON. Every record
type but `Finding` is an immutable tuple, each finding has containers of
its own, and importing the entry point loads no `dataclasses`."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:  # Python 3.11 and later
    from re._constants import BRANCH, LITERAL, SUBPATTERN
    from re._parser import parse as parse_pattern
except ImportError:
    from sre_constants import BRANCH, LITERAL, SUBPATTERN
    from sre_parse import parse as parse_pattern

import solaudit
from solaudit.findings import Finding

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


def _word_boundary_starts(tree: ast.AST) -> list[tuple[int, str | None]]:
    """(line, assigned name or None) of each `re.compile` call whose literal
    pattern begins with `\\b` and a letter, or with `\\b(` and a letter."""
    names = {id(node.value): node.targets[0].id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    return [(node.lineno, names.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
            and node.func.attr == "compile" and node.args
            and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
            and re.match(r"\\b\(?[A-Za-z]", node.args[0].value)]


# the patterns allowed a leading `\b(`: each reads only the short text named,
# never a function body or the whole source
SHORT_TEXT_PATTERNS = {
    "solaudit.ccim.parse._VISIBILITY_RE": "one function header",
    "solaudit.ccim.parse._MUTABILITY_RE": "one function header",
    "solaudit.engines.patterns._BLOCK_NUMBER_RE": "one statement that reads block.timestamp",
    "solaudit.interaction._HEDGE_RE": "one finding's folded description and attack scenario",
    "solaudit.interaction._PRECON_WORD_RE": "one folded enumerated step of an attack scenario",
    "solaudit.interaction._CLAIMS_PROTECTED_RE": "one finding's folded text",
}


def test_keyword_patterns_start_on_their_keyword():
    # `re` jumps ahead only to a pattern's first literal; one that starts with
    # `\b` is tried at every character. Write `\bword` as `word(?<!\wword)`.
    found = {f"{_module_name(p)}.{name}" if name else f"{_module_name(p)}:{line}"
             for p in PACKAGE.rglob("*.py")
             for line, name in _word_boundary_starts(ast.parse(p.read_text(encoding="utf-8")))}
    assert found - set(SHORT_TEXT_PATTERNS) == set(), \
        "start the pattern on its keyword: write \\bword as word(?<!\\wword)"
    # no stale entry: each allowed pattern still starts with `\b(`
    assert set(SHORT_TEXT_PATTERNS) <= found
    # the guard rejects a leading `\b` keyword or `\b(` keyword, and only those
    assert _word_boundary_starts(ast.parse(
        're.compile(r"\\brequire\\s*\\(")\nre.compile(r"require(?<!\\wrequire)\\s*\\(")\n'
        're.compile(r"\\b(\\d+)")\nre.compile("\\\\bstep", re.I)\n'
        'X = re.compile(r"\\b(view|pure)\\b")\nre.compile(r"\\b(Block)")\n'
        're.compile(r"\\b(\\w+Block)")'
    )) == [(1, None), (4, None), (5, "X"), (6, None)]


def _first_letters(items) -> set[str] | None:
    """The letters a match of the parsed pattern `items` can start with, when
    its every way to start is a letter; None when one is not."""
    if not len(items):
        return None
    op, av = items[0]
    if op is SUBPATTERN:
        return _first_letters(av[3])
    if op is BRANCH:
        firsts = [_first_letters(branch) for branch in av[1]]
        return None if None in firsts else set().union(*firsts)
    return {chr(av)} if op is LITERAL and chr(av).isalpha() else None


def _led_by_alternation(items) -> bool:
    """Whether the parsed pattern `items` starts with an alternation, in
    groups or not."""
    if not len(items):
        return False
    op, av = items[0]
    return _led_by_alternation(av[3]) if op is SUBPATTERN else op is BRANCH


def _named_patterns(value, name: str):
    """(name, pattern) per pattern in the module value `value` (`name`), a
    pattern or a tuple, list or dict of them. An entry of a tuple of (key,
    pattern) pairs is named by its key."""
    if isinstance(value, re.Pattern):
        yield name, value
        return
    if isinstance(value, dict):
        entries = value.items()
    elif isinstance(value, (tuple, list)):
        entries = (v if isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], str) else (i, v)
                   for i, v in enumerate(value))
    else:
        return
    for k, v in entries:
        yield from _named_patterns(v, f"{name}[{k}]")


def _letter_set_starts(value, name: str) -> set[str]:
    """The names of the patterns in the module value `value` (`name`) that an
    alternation whose branches start with different letters leads. `re` skips
    ahead only to a literal, so it tries such a pattern at every one of those
    letters."""
    found = set()
    for named, pattern in _named_patterns(value, name):
        items = parse_pattern(pattern.pattern, pattern.flags)
        letters = _first_letters(items)
        if _led_by_alternation(items) and letters and len(letters) > 1:
            found.add(named)
    return found


def _ignoring_case(value, name: str) -> set[str]:
    """The names of the patterns in the module value `value` (`name`)
    compiled with IGNORECASE, by flag or by an inline `(?i)`."""
    return {named for named, pattern in _named_patterns(value, name)
            if pattern.flags & re.IGNORECASE}


def _module_values():
    """(qualified name, value) per module-level name of the package."""
    for info in pkgutil.walk_packages(solaudit.__path__, "solaudit."):
        module = importlib.import_module(info.name)
        yield from ((f"{module.__name__}.{name}", value) for name, value in vars(module).items())


# the patterns allowed a lead of first letters: each reads only the text
# named, never a whole function body it is not gated to, or the whole source
LETTER_SET_PATTERNS = {
    "solaudit.ccim.parse._FUNCTION_RE": "a contract's level: each search starts past the last body",
    "solaudit.coverage._FINANCIAL_NAME_RE": "one folded state-variable name",
    "solaudit.engines.patterns._DEADLINE_RE": "a folded declaration that calls ecrecover",
    "solaudit.findings._CLAIM_RES[EVM_RACE]": "one finding's folded text",
    "solaudit.findings._CLAIM_RES[INTEGER_OVERFLOW_GE08]": "one finding's folded text",
    "solaudit.findings._CLAIM_RES[MISSING_ACCESS_CONTROL]": "one finding's folded text",
    "solaudit.funnel._CENTRALIZATION_RE": "one finding's folded text",
    "solaudit.funnel._EXTERNAL_CALL_CLAIM_RE": "one finding's folded text",
}


def test_scans_start_on_one_literal():
    # a set of first letters is no anchor: scan a body or the whole source
    # with one pattern per literal, merged by offset, or behind a literal gate
    found = set().union(*(_letter_set_starts(value, name) for name, value in _module_values()))
    assert found - set(LETTER_SET_PATTERNS) == set(), "one literal per pass, or a literal gate"
    assert set(LETTER_SET_PATTERNS) <= found    # no stale entry
    # the guard rejects an alternation of different first letters, in a
    # group or not, and passes one letter, a literal lead and a non-letter
    assert _letter_set_starts({
        "decl": re.compile(r"(contract(?<!\wcontract)|interface|library)\s+(\w+)"),
        "bound": re.compile(r"(?:require\s*\(|if\s*\()\s*(\w+)"),
        "cast": re.compile(r"((?:uint(?<!\wuint)|int(?<!\wint))(?:8|16))\s*\("),
        "one": (re.compile(r"contract\s+(\w+)"), re.compile(r"(?:is|if)\b")),
        "other": [re.compile(r"[\n;](?=([ \t]*))\1(\w+)"), re.compile(r"//|/\*|\"|'"),
                  re.compile(r"\b(public|external)\b"), re.compile(r"\w*Block|endBlock")],
        "pairs": (("A", re.compile("ab|cd")), ("B", re.compile("ab"))),
    }, "m") == {"m[decl]", "m[bound]", "m[cast]", "m[pairs][A]"}


def test_no_module_pattern_ignores_case():
    # under IGNORECASE `re` builds no literal or charset prefix for a cased
    # letter, so it tries the pattern at every character, and a literal lead
    # anchors nothing: fold the text once (`findings.fold`) and match in
    # lower case
    found = set().union(*(_ignoring_case(value, name) for name, value in _module_values()))
    assert found == set(), "search fold(text) with a lower-case pattern"
    # the guard flags the flag and the inline form, in a tuple of pairs too,
    # and passes a pattern without either
    assert _ignoring_case({
        "flag": re.compile("x", re.I), "inline": re.compile("(?i)x"), "plain": re.compile("x"),
        "pairs": (("A", re.compile("x", re.IGNORECASE)), ("B", re.compile("x"))),
    }, "m") == {"m[flag]", "m[inline]", "m[pairs][A]"}


# the whole-source passes and where each may run: one mask per file at ingest,
# and the audit's one bracket index when its source is parsed
WHOLE_SOURCE_PASSES = {
    "bracket_pairs": {"solaudit.ccim.parse.parse_source"},
    "mask_noncode": {"solaudit.ingest", "solaudit.ccim.parse.parse_source"},
}


def _pass_calls(tree: ast.AST, module: str) -> set[tuple[str, str]]:
    """(pass name, caller) per call of a whole-source pass, by plain or
    attribute name; the caller is the enclosing top-level function's
    qualified name, or the module's outside any function."""
    found = set()
    for node in tree.body:
        caller = f"{module}.{node.name}" if isinstance(node, ast.FunctionDef) else module
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if name in WHOLE_SOURCE_PASSES:
                    found.add((name, caller))
    return found


def test_whole_source_passes_run_only_where_listed():
    found = set().union(*(_pass_calls(ast.parse(p.read_text(encoding="utf-8")), _module_name(p))
                          for p in PACKAGE.rglob("*.py")))
    stray = {(name, caller) for name, caller in found
             if caller not in WHOLE_SOURCE_PASSES[name]
             and caller.rsplit(".", 1)[0] not in WHOLE_SOURCE_PASSES[name]}
    assert stray == set()
    # the guard sees the calls it allows: each listed place still makes one
    assert ("bracket_pairs", "solaudit.ccim.parse.parse_source") in found
    assert ("mask_noncode", "solaudit.ccim.parse.parse_source") in found
    # both call forms, inside and outside a function
    assert _pass_calls(ast.parse(
        "def f(t):\n    return parse.bracket_pairs(t)\nmask_noncode(x)\n"
        "class K:\n    def g(self):\n        bracket_pairs(y)\n"
    ), "m") == {("bracket_pairs", "m.f"), ("mask_noncode", "m"), ("bracket_pairs", "m")}


# what only the body pass looks for in a function body: a `require(`, a method
# call that moves funds or approves, a value call and an `unchecked` block. A
# searched literal looks for one when it shows one with its whitespace and
# word-boundary lookbehinds taken out
_FACT_SHAPE_RE = re.compile(
    r"(?:require|approve|safeApprove|transfer|send|transferFrom|safeTransfer|safeTransferFrom)"
    r"\)*\\?\(|call\\?\{|unchecked\\?\{")
_SHAPE_NOISE_RE = re.compile(r"\(\?<!\\w\w+\)|\\s[*+]?|\s")
# the `str` methods that search for their first argument
SEARCH_METHODS = {"find", "rfind", "index", "rindex", "count", "startswith", "endswith"}
# the scans of a body for such a fact that remain, and what each needs that
# no effect holds
FACT_SCANS = {
    "solaudit.ccim.parse.UNCHECKED_RE": "an `unchecked` block, for the two readers below",
    "solaudit.engines.patterns._rule_unchecked_arithmetic": "the block's extent, to find "
                                                            "arithmetic inside it",
    "solaudit.ccim.parse._parse_contract_functions": "a degraded record's block, read off the "
                                                     "mask when its body pass failed",
}


def _searched(node: ast.AST) -> tuple[ast.AST, bool] | None:
    """What `node` searches for, and whether a `str` method does: the pattern
    of a `re` call, the first argument of a `str` search method, or the left
    side of an `in` test."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args and (
            node.func.attr in SEARCH_METHODS or node.func.attr in PATTERN_FUNCTIONS | {"compile"}
            and getattr(node.func.value, "id", None) == "re"):
        return node.args[0], node.func.attr in SEARCH_METHODS
    if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
        return node.left, False
    return None


def _strings(target: ast.AST, loops: dict[str, list[str]]):
    """The string constants under `target`, a loop variable over string
    constants (`loops`: name -> constants) read as each of them."""
    for c in ast.walk(target):
        if isinstance(c, ast.Constant) and isinstance(c.value, str):
            yield c.value
        elif isinstance(c, ast.Name):
            yield from loops.get(c.id, ())


def _shows_fact(value: str, by_str: bool) -> bool:
    """Whether a searched literal looks for a body-pass fact: it shows one,
    or a `str` method searches for the bare word `require`."""
    return bool(_FACT_SHAPE_RE.search(_SHAPE_NOISE_RE.sub("", value))) or by_str and value == "require"


def _fact_literals(tree: ast.AST, scope: str, loops: dict[str, list[str]] | None = None) -> set[str]:
    """The qualified name of the innermost function or class around each
    search under `tree` for a body-pass fact, or, outside any, of the name a
    module-level assignment binds, or `scope`. `loops` holds the loop
    variables over string constants around `tree`."""
    found, loops = set(), loops or {}
    for node in ast.iter_child_nodes(tree):
        inner, inner_loops = scope, loops
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}"
        elif isinstance(node, ast.Assign) and isinstance(tree, ast.Module) \
                and isinstance(node.targets[0], ast.Name):
            inner = f"{scope}.{node.targets[0].id}"
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                and isinstance(node.iter, (ast.Tuple, ast.List, ast.Set)):
            inner_loops = {**loops, node.target.id: [
                e.value for e in node.iter.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)]}
        elif (searched := _searched(node)) is not None and any(
                _shows_fact(value, searched[1]) for value in _strings(searched[0], loops)):
            found.add(scope)
        found |= _fact_literals(node, inner, inner_loops)
    return found


def _fact_scans(trees: dict[str, ast.AST]) -> set[str]:
    """The scopes of `trees` (module name -> syntax tree) that search for a
    body-pass fact: those that hold such a search, and every function that
    reads a module-level name bound to one, by plain or attribute name."""
    found = set().union(*(_fact_literals(tree, module) for module, tree in trees.items()))
    constants = {node.targets[0].id for module, tree in trees.items() for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                 and f"{module}.{node.targets[0].id}" in found}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    (getattr(n, "id", None) or getattr(n, "attr", None)) in constants
                    for n in ast.walk(node)):
                found.add(f"{module}.{node.name}")
    return found


def test_only_the_body_pass_looks_for_guards_fund_moves_and_approvals():
    # a record's guards, `unchecked` blocks, fund moves and approvals are its
    # effects, found by one pass over its body: no second scan looks for them
    trees = {_module_name(p): ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE.rglob("*.py")}
    found = _fact_scans(trees)
    assert found - set(FACT_SCANS) == set(), "read the record's effects"
    assert set(FACT_SCANS) <= found    # no stale entry
    # the scans the effect pass replaced are found: a pattern and its reader,
    # a literal tested against a line and one searched for in a span; a name
    # that is searched for nowhere is none
    assert _fact_scans({"m": ast.parse(
        '_REQUIRE_RE = re.compile(r"require(?<!\\wrequire)\\s*\\(")\n'
        "def _extract_requires(t):\n    return list(_REQUIRE_RE.finditer(t))\n"
        'NATIVE_OUT_RE = re.compile(\n'
        '    r"\\.\\s*(?:(?:transfer|send)\\s*\\(|call\\s*\\{\\s*value\\s*:)")\n'
        "def _sub_locked_ether(t):\n    return parse.NATIVE_OUT_RE.search(t)\n"
        'def _guard_line(line):\n    return "require(" in line\n'
        'class K:\n    def f(self, t):\n        return t.find(".approve (")\n'
        'NATIVE = {"call{value:"}\nX = ("require", "if")\n'
        "def g(t, name):\n    return t.find(X[0]) + (name in NATIVE)\n"
        'def h(t, name):\n    return name in ("require", "if") or t.count("required")\n'
    )}) == {"m._REQUIRE_RE", "m._extract_requires", "m.NATIVE_OUT_RE", "m._sub_locked_ether",
            "m._guard_line", "m.K.f"}
    # a `str` search for the bare word `require` is a guard scan, and so is
    # one by a loop variable over string constants that holds it
    assert _fact_scans({"m": ast.parse(
        "def _bounds(text, start, end):\n"
        '    for keyword in ("require", "if"):\n'
        "        pos = start\n"
        "        while (at := text.find(keyword, pos, end)) >= 0:\n"
        "            pos = at + 1\n"
        "def f(t):\n    for word in (\"if\", \"else\"):\n        t.find(word)\n"
        'def g(t):\n    return t.rfind("require")\n'
    )}) == {"m._bounds", "m.g"}


def _is_record_key(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "key"


def _record_key_maps(tree: ast.AST) -> list[int]:
    """Lines that build a map keyed by a record's `.key`: a dict
    comprehension on it, `.setdefault(<x>.key, ...)`, or `m[<x>.key] = ...`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.DictComp) and _is_record_key(node.key):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "setdefault" and node.args and _is_record_key(node.args[0]):
            lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Subscript) and _is_record_key(t.slice) for t in targets):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_the_model_groups_records_by_key():
    # a key stands for every overload: the model's `records_of` is the one
    # place that gathers a key's records, so no stage picks one of them
    found = {_module_name(p): lines for p in PACKAGE.rglob("*.py")
             if not _module_name(p).startswith("solaudit.ccim")
             and (lines := _record_key_maps(ast.parse(p.read_text(encoding="utf-8"))))}
    assert found == {}
    # the guard sees the model's own indexes
    assert _record_key_maps(ast.parse((PACKAGE / "ccim" / "types.py").read_text(encoding="utf-8")))
    # each form, and neither a read by key nor a map on another attribute
    assert _record_key_maps(ast.parse(
        "m = {r.key: r for r in rs}\nm.setdefault(r.key, []).append(r)\nm[r.key] = r\n"
        "m[r.key] |= s\nx = m[r.key]\nm = {r.name: r for r in rs}\nm.setdefault(k, 0)\n"
        "m = {k: v for k, v in m.items()}\nkeys = {r.key for r in rs}"
    )) == [1, 2, 3, 4]


# the one packer of multi-member prompts and its reply attribution by id,
# each with or without a leading underscore, and the one module that defines
# them; the stages that pack without the dossier pipeline must not import it
PACKER_NAMES = {"chunks", "pack", "pack_sections", "by_id", "payloads"}
PACKER_HOME = "solaudit.prompts"
DOSSIER_FREE = {"solaudit.interaction", "solaudit.coverage"}


def _packer_defs(tree: ast.AST) -> set[str]:
    """Names of the functions a file defines, at any depth, that are one of
    `PACKER_NAMES` up to a leading underscore."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.lstrip("_") in PACKER_NAMES}


def test_the_packer_and_by_id_attribution_live_only_in_prompts():
    found = {_module_name(p): names for p in PACKAGE.rglob("*.py")
             if (names := _packer_defs(ast.parse(p.read_text(encoding="utf-8"))))}
    assert found == {PACKER_HOME: PACKER_NAMES}
    importers = {_module_name(p) for p in PACKAGE.rglob("*.py")
                 if "solaudit.dossier" in _imported_modules(p)}
    assert importers & DOSSIER_FREE == set()
    # the guard reads real imports: the funnel is known to import the dossier
    assert "solaudit.funnel" in importers
    # a definition at any depth, with or without an underscore, and not a call
    assert _packer_defs(ast.parse(
        "def _chunks(r):\n    pass\nclass K:\n    def by_id(self):\n        pass\n"
        "chunks(x)\ndef chunk():\n    pass\nasync def _payloads():\n    pass"
    )) == {"_chunks", "by_id", "_payloads"}


def _is_body(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "body"


def _raw_body_reads(tree: ast.AST) -> list[int]:
    """Lines that read a code fact off a record's raw declaration text: an
    `in` or `not in` test against a `.body` attribute, a method call on one,
    or any use of `body_inner`. Printing the text as written is no read."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) and _is_body(right)
                for op, right in zip(node.ops, node.comparators)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and _is_body(node.func.value):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "body_inner"
              or isinstance(node, ast.FunctionDef) and node.name == "body_inner"):
            lines.append(node.lineno)
    return sorted(lines)


def test_code_facts_are_read_off_the_mask():
    # a comment, a literal or an identifier in the raw text is no code: the
    # parse keeps each body's span and facts on its record, read off the mask
    found = {_module_name(p): lines for p in PACKAGE.rglob("*.py")
             if (lines := _raw_body_reads(ast.parse(p.read_text(encoding="utf-8"))))}
    assert found == {}
    # each form is rejected; the text printed as written, its length and a
    # test against another attribute are not
    assert _raw_body_reads(ast.parse(
        '"unchecked" in r.body\n"{" not in rec.body\nr.body_inner()\nr.body.find("{")\n'
        "def body_inner(self):\n    pass\n"
        'f"source: {r.body}"\n"\\n".join(r.body for r in rs)\nlen(r.body)\nr.body == s\n'
        'x in r.bodies\nr.body in prompt\n'
    )) == [1, 2, 3, 4, 5]


# the readers of a record's raw declaration text: two that take only its
# length. The text a prompt prints is made with the record, by one helper
BODY_READERS = {
    "solaudit.ccim.types.FunctionRecord.has_body": "its length",
    "solaudit.ccim.parse.ParsedSource.decl_span": "its length",
}
PRINT_HELPER = "printed_text"


def _attribute_readers(tree: ast.AST, scope: str, attr: str = "body") -> set[str]:
    """The qualified name of the innermost class or function around each
    `.body` (or other `attr`) attribute under `tree`, or `scope` outside any."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= _attribute_readers(node, f"{scope}.{node.name}", attr)
        elif isinstance(node, ast.Attribute) and node.attr == attr:
            found.add(scope)
            found |= _attribute_readers(node, scope, attr)
        else:
            found |= _attribute_readers(node, scope, attr)
    return found


def _package_readers(attr: str) -> set[str]:
    """`_attribute_readers` of `attr` over every module of the package."""
    return set().union(*(_attribute_readers(ast.parse(p.read_text(encoding="utf-8")),
                                            _module_name(p), attr) for p in PACKAGE.rglob("*.py")))


def _printed_values(tree: ast.AST) -> list[int]:
    """Lines of each `printed=` argument that is not a call of `PRINT_HELPER`."""
    return [kw.value.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg == "printed"
            and not (isinstance(kw.value, ast.Call)
                     and getattr(kw.value.func, "id", None) == PRINT_HELPER)]


def test_only_the_print_helper_turns_a_body_into_prompt_text():
    assert _package_readers("body") == set(BODY_READERS)
    # every record's printed text is the helper's, and the parse makes it
    assert {_module_name(p): lines for p in PACKAGE.rglob("*.py")
            if (lines := _printed_values(ast.parse(p.read_text(encoding="utf-8"))))} == {}
    assert _printed_values(ast.parse(
        "R(printed=printed_text(b, 4))\nR(printed=b)\nR(printed=dedent(b))\nr._replace(printed=b)"
    )) == [2, 3, 4]
    # a read in a method, a nested function or at module level is found
    assert _attribute_readers(ast.parse(
        "class R:\n    def p(self):\n        return f(self.body)\n"
        "def g(rs):\n    def h(r):\n        return r.body\n    return h\n"
        "x = r.body\ny = r.bodies\n"
    ), "m") == {"m.R.p", "m.g.h", "m"}


def test_only_the_view_builder_reads_a_contract_s_bases():
    # each contract's inheritance is walked once, where the parse builds its
    # view of lineage and visible state; every other reader takes that view
    assert _package_readers("bases") == {"solaudit.ccim.parse._inheritance_view"}
    assert _attribute_readers(ast.parse("def walk(d):\n    return d.bases\nx = d.base"),
                              "m", "bases") == {"m.walk"}


def _package_classes() -> set[type]:
    """Every class that a module of the package defines."""
    modules = [importlib.import_module(m.name)
               for m in pkgutil.walk_packages(solaudit.__path__, "solaudit.")]
    return {cls for mod in modules for cls in vars(mod).values()
            if isinstance(cls, type) and cls.__module__ == mod.__name__}


# the public tuple types; a validating record's private field base is
# checked through the record
RECORD_TYPES = sorted((cls for cls in _package_classes()
                       if issubclass(cls, tuple) and not cls.__name__.startswith("_")),
                      key=lambda c: (c.__module__, c.__name__))


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_no_field_of_a_record_can_be_assigned(cls):
    record = cls._make([None] * len(cls._fields))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_every_class_but_finding_an_error_or_a_reasoner_is_a_record_type():
    assert {cls.__name__ for cls in _package_classes()
            if not issubclass(cls, (tuple, Exception))} == {"Finding", "Reasoner", "MockReasoner"}
    # the records of every layer are found, the validating ones included
    assert {"FunctionRecord", "CcimModel", "AuditSource", "Dossier", "Signal", "RunConfig",
            "AuditReport"} <= {cls.__name__ for cls in RECORD_TYPES}


def test_findings_built_without_containers_share_none():
    first, second = (Finding("pending", "D", "t", "", "", "LOW", [("A", "f")]) for _ in range(2))
    first.evidence_lines.append(3)
    first.flags.add("unverified")
    first.matched_ids.append("D-001")
    assert (second.evidence_lines, second.flags, second.matched_ids) == ([], set(), [])


def test_the_entry_point_imports_no_dataclasses():
    # creating a dataclass type execs its generated methods: a startup cost
    # the package's records do not pay. `-S` keeps site hooks out of the count
    code = "import sys, solaudit.cli; print('dataclasses' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, check=True, cwd=PACKAGE.parent)
    assert loaded.stdout.strip() == "False"


def _indented_dumps(tree: ast.AST) -> list[int]:
    """Lines of the `json.dumps(...)` and `dumps(...)` calls given an `indent`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)
            and (isinstance(node.func, ast.Name) and node.func.id == "dumps"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")]


def test_only_the_canonical_encoder_writes_indented_json():
    # the standard library's indented dump runs its pure-Python encoder;
    # `ccim.build.canonical_json` writes the same text
    found = {_module_name(p): lines for p in PACKAGE.rglob("*.py")
             if (lines := _indented_dumps(ast.parse(p.read_text(encoding="utf-8"))))}
    assert found == {}
    # the guard sees both call forms, and only calls given an indent
    assert _indented_dumps(ast.parse(
        "json.dumps(d, indent=2)\ndumps(d, sort_keys=True, indent=None)\njson.dumps(d)\n"
        "x.dumps(d, indent=2)")) == [1, 2]
