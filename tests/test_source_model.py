"""The per-audit source model: one mask, one line index and one contract scan
shared by parsing, resolution and the engines, checked against independent
forms on generated Solidity-like text."""

from __future__ import annotations

import logging
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_footprints, brute_force_line_of, brute_force_mask

from solaudit.ccim import assemble_ccim, parse, parse_function_records
from solaudit.ccim.parse import mask_noncode, parse_source
from solaudit.engines import patterns, run_engines
from solaudit.ingest import AuditSource, OffsetMap, Segment

_CODE = st.sampled_from([
    "x = 1;", "y += x;", "{ z = 2; }", "if (x > 0) { y = x; }", "emit E(x);",
    "return x;", "unchecked { x -= 1; }", "token.approve(a, 0);",
    "f0(x);", "f1(a);", "x0 += a;",   # internal calls and a state write, for footprints
])
# braces, quotes and escapes inside literals and comments
_LITERAL = st.sampled_from(['"{"', "'}'", '"a\\"b{"', "'it\\'s }'", '"\\\\"', '""', '"//"', "'/*'"])
_COMMENT = st.sampled_from(["// c { }\n", "/* { */", "/* multi\nline } */", "/// @notice n\n", "//\n"])
_PIECE = st.one_of(_CODE, _LITERAL, _COMMENT, st.just("\n"))
_HEADER_NOTE = st.sampled_from(["", " /* { */", " // } {\n", ' /* "x" */'])

# raw character soup: unterminated comments and literals, stray escapes
_SOUP = st.text(alphabet="ab1 ;=/*\"'\\{}()\n", max_size=300)


@st.composite
def _contract_source(draw) -> tuple[str, int]:
    """Solidity-like text of one to three contracts and its function count."""
    chunks, functions = [], 0
    for c in range(draw(st.integers(1, 3))):
        chunks.append(draw(st.sampled_from(["", "/** @title {C} */\n", "// pre }\n"])))
        chunks.append(f"contract C{c} {{\n    uint256 public x{c} = 1;\n")
        for f in range(draw(st.integers(0, 4))):
            pieces = draw(st.lists(_PIECE, max_size=8))
            note = draw(_HEADER_NOTE)
            chunks.append(f"    /// @dev f{f}\n    function f{f}(uint a{note}) external {{\n"
                          f"        {' '.join(pieces)}\n    }}\n")
            functions += 1
        chunks.append("}\n")
    return "".join(chunks), functions


def _source(text: str) -> AuditSource:
    lines = text.count("\n") + 1
    return AuditSource(text=text, offsets=OffsetMap.build([Segment("gen.sol", 1, lines, 1)]),
                       scope=(), remappings=())


def _newlines(text: str) -> list[int]:
    return [i for i, c in enumerate(text) if c == "\n"]


@settings(max_examples=100, deadline=None)
@given(st.one_of(_SOUP, _contract_source().map(lambda s: s[0])))
def test_mask_preserves_length_and_newlines(text):
    masked = mask_noncode(text)
    assert len(masked) == len(text)
    assert _newlines(masked) == _newlines(text)
    assert masked == brute_force_mask(text)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_SOUP, _contract_source().map(lambda s: s[0])))
def test_line_index_matches_newline_count(text):
    parsed = parse_source(text)
    assert parsed.lines == tuple(text.split("\n"))
    for pos in range(len(text) + 1):
        assert parsed.line_of(pos) == brute_force_line_of(text, pos)


@settings(max_examples=100, deadline=None)
@given(_contract_source())
def test_stored_masks_equal_masking_the_record(generated):
    text, functions = generated
    records = parse_function_records(_source(text))
    assert len(records) == functions
    for rec in records:
        assert rec.masked_body == mask_noncode(rec.body)
        assert rec.masked_inner == mask_noncode(rec.body_inner())


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@settings(max_examples=100, deadline=None)
@given(_contract_source())
def test_engines_never_fail_and_footprints_match_brute_force(generated):
    source = _source(generated[0])
    # the runner isolates engine, sub-analyzer and rule failures and only logs them
    failures = _Records()
    engines_log = logging.getLogger("solaudit.engines")
    engines_log.addHandler(failures)
    try:
        ccim = assemble_ccim(source)
        run_engines(ccim)
    finally:
        engines_log.removeHandler(failures)
    assert [r.getMessage() for r in failures.records] == []
    footprints = (ccim.footprints.reads, ccim.footprints.writes, ccim.footprints.fund)
    assert footprints == brute_force_footprints(list(ccim.records))


def test_audit_parses_the_source_once(sources, monkeypatch):
    # every module-level binding of the two whole-source passes is counted, so
    # an import under another module's name cannot hide a second parse
    source = sources["vault_oracle"]
    calls = {"mask": 0, "scan": 0}
    originals = {"mask_noncode": (parse.mask_noncode, "mask"),
                 "scan_contracts": (parse.scan_contracts, "scan")}

    def counting(fn, kind):
        def wrapper(*args, **kwargs):
            if kind == "scan" or args[0] == source.text:
                calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in [m for name, m in sys.modules.items() if name.startswith("solaudit")]:
        for attr, (fn, kind) in originals.items():
            if getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, counting(fn, kind))
    run_engines(assemble_ccim(source))
    assert calls == {"mask": 1, "scan": 1}


@pytest.mark.parametrize("body", [
    "assembly { let x := delegatecall(gas(), a, 0, 0, 0, 0)",   # no closing brace
    "assembly { { returndatasize() }",
])
def test_unbalanced_assembly_yields_no_block(body):
    assert list(patterns._rule_assembly(None, body)) == []


def test_unbalanced_unchecked_block_is_empty():
    assert list(patterns._rule_unchecked_arithmetic(None, "unchecked { x = a + b;")) == []
    assert list(patterns._rule_unchecked_arithmetic(None, "unchecked { x = a + b; }"))
