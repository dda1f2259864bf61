"""The per-audit source model: one mask, one line index, one bracket index and
one contract scan shared by parsing, resolution and the engines, and the
keyword-anchored scans over it, checked against independent forms on
generated Solidity-like text."""

from __future__ import annotations

import importlib
import logging
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    FUND_RES,
    NATIVE_OUT_RES,
    UNANCHORED,
    UNANCHORED_CLAIMS,
    brute_force_close,
    brute_force_footprints,
    brute_force_line_of,
    brute_force_mask,
    separate_fact_scans,
    separate_inheritance_walks,
    separate_scans,
    state_vars_blanked_in_place,
)

from solaudit import findings, ingest
from solaudit.ccim import assemble_ccim, parse, parse_function_records
from solaudit.ccim.build import build_resolution
from solaudit.ccim.parse import bracket_pairs, mask_noncode, match_brace, parse_source, scan_body
from solaudit.engines import bva, patterns, run_engines
from solaudit.ingest import AuditSource, OffsetMap, Segment

_CODE = st.sampled_from([
    "x = 1;", "y += x;", "{ z = 2; }", "if (x > 0) { y = x; }", "emit E(x);",
    "return x;", "unchecked { x -= 1; }", "token.approve(a, 0);",
    "f0(x);", "f1(a);", "x0 += a;",   # internal calls and a state write, for footprints
    "uncheckedAdd(x);",               # a call that names `unchecked`, and no block
])
# braces, quotes and escapes inside literals and comments
_LITERAL = st.sampled_from(['"{"', "'}'", '"a\\"b{"', "'it\\'s }'", '"\\\\"', '""', '"//"', "'/*'",
                           '"unchecked {"', "'a + b - c * d / e % f'"])
_COMMENT = st.sampled_from(["// c { }\n", "/* { */", "/* multi\nline } */", "/// @notice n\n", "//\n",
                           "// unchecked { x + 1 }\n", "/* a - b * c / d % e */"])
_PIECE = st.one_of(_CODE, _LITERAL, _COMMENT, st.just("\n"))
_HEADER_NOTE = st.sampled_from(["", " /* { */", " // } {\n", ' /* "x" */', " /* unchecked { */"])

# raw character soup: unterminated comments and literals, stray escapes
_SOUP = st.text(alphabet="ab1 ;=/*\"'\\{}()\n", max_size=300)


@st.composite
def _contract_source(draw) -> tuple[str, int]:
    """Solidity-like text of one to three contracts and its function count,
    bodiless declarations included."""
    chunks, functions = [], 0
    for c in range(draw(st.integers(1, 3))):
        chunks.append(draw(st.sampled_from(["", "/** @title {C} */\n", "// pre }\n"])))
        chunks.append(f"contract C{c} {{\n    uint256 public x{c} = 1;\n")
        for f in range(draw(st.integers(0, 4))):
            pieces = draw(st.lists(_PIECE, max_size=8))
            note = draw(_HEADER_NOTE)
            body = draw(st.sampled_from([f" {{\n        {' '.join(pieces)}\n    }}\n", ";\n"]))
            chunks.append(f"    /// @dev f{f}\n    function f{f}(uint a{note}) external{body}")
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
    # a text is left open exactly when it would hide the code after it
    assert ingest._left_open(text, masked) == (not mask_noncode(text + "\nx").endswith("x"))


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
    parsed = parse_source(text)
    records = parse_function_records(_source(text), parsed)
    assert len(records) == functions
    for rec in records:
        masked = brute_force_mask(rec.body)
        start, end = parsed.decl_span(rec)
        assert parsed.masked[start:end] == masked
        # a generated header holds braces only in comments, so a body's
        # braces are the first and last of the masked declaration, and a
        # bodiless one's span is empty at its end
        assert rec.has_body == ("{" in masked)
        if rec.has_body:
            assert masked.endswith("}")
            assert rec.span == (start + masked.index("{") + 1, end - 1)
        else:
            assert rec.span == (end, end)
        # the code facts are read off the mask: comments, literals and
        # identifiers that hold `unchecked` are no block
        assert rec.unchecked == bool(re.search(r"\bunchecked\s*\{", masked[rec.span[0] - start:rec.span[1] - start]))


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


@pytest.mark.parametrize("name", ["vault_oracle", "patterns", "approvals"])
def test_audit_parses_the_source_once(sources, monkeypatch, name):
    # every module-level binding of the three whole-source passes is counted,
    # so an import under another module's name cannot hide a second parse;
    # ingest masked each file once, so the audit never masks the whole source,
    # and every engine reads the audit's one bracket index
    source = sources[name]
    calls = {"mask": 0, "scan": 0, "brackets": 0}
    originals = {"mask_noncode": (parse.mask_noncode, "mask"),
                 "scan_contracts": (parse.scan_contracts, "scan"),
                 "bracket_pairs": (parse.bracket_pairs, "brackets")}

    def counting(fn, kind):
        def wrapper(*args, **kwargs):
            if kind != "mask" or args[0] == source.text:
                calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in [m for name, m in sys.modules.items() if name.startswith("solaudit")]:
        for attr, (fn, kind) in originals.items():
            if getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, counting(fn, kind))
    run_engines(assemble_ccim(source))
    assert calls == {"mask": 0, "scan": 1, "brackets": 1}


def _rule(rule, text: str) -> list:
    """A pattern rule's hits on the whole of `text`, read as masked."""
    return list(rule(text, 0, len(text), bracket_pairs(text)))


@pytest.mark.parametrize("body", [
    "assembly { let x := delegatecall(gas(), a, 0, 0, 0, 0)",   # no closing brace
    "assembly { { returndatasize() }",
])
def test_unbalanced_assembly_yields_no_block(body):
    assert _rule(patterns._rule_assembly, body) == []


def test_unbalanced_unchecked_block_is_empty():
    assert _rule(patterns._rule_unchecked_arithmetic, "unchecked { x = a + b;") == []
    assert _rule(patterns._rule_unchecked_arithmetic, "unchecked { x = a + b; }")


# --- one scan per text --------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.one_of(_SOUP, _contract_source().map(lambda s: s[0])), st.data())
def test_bracket_index_matches_a_walk(text, data):
    for scanned in (text, mask_noncode(text)):
        pairs = bracket_pairs(scanned)
        end = data.draw(st.integers(0, len(scanned)))
        for pos in range(end):
            if scanned[pos] in "([{":
                assert match_brace(pairs, pos, end) == brute_force_close(scanned, pos, end)


# keywords, identifiers that contain them, numbers and the punctuation the
# anchored patterns read
_CODE_WORDS = st.sampled_from([
    "contract", "abstract", "interface", "library", "is", "function", "constructor",
    "receive", "fallback", "modifier", "require", "returns", "override", "delete",
    "return", "emit", "assembly", "unchecked", "ecrecover", "uint", "int", "uint8",
    "int128", "uint256", "mapping", "public", "constant", "memory", "storage", "payable", "step",
    "if", "verify", "a", "<", "<=", ">",
    "external call", "calls out", "race condition", "evm race", "reentrancy",
    "overflow", "underflow", "wrap-around", "xrequire", "requirex", "a.require", "_emit",
    "uint8x", "9uint8", "x", "Foo", "12", "1e18", "3.5e2", "0x1f", "2",
    " ", "  ", "\n", "\t", ";", "{", "}", "(", ")", "[", "]", "=", ".", "/", "*", "**",
    "-", ",", "=>", "\n  ",
])
# the words the folded prose patterns read, each also in upper, title and
# mixed case and with a letter that `re.I` takes for an ASCII one: İ and ı
# for `i`, ſ for `s` and the Kelvin sign for `k`; and letters whose case
# `re.I` and `str.lower` treat apart from ASCII
_PROSE_KEYWORDS = (
    "race condition", "evm race", "reentrancy", "overflow", "underflow", "wrap-around",
    "wraparound", "wrap around", "missing access control", "lacks access control",
    "lack access control", "no access control", "without access control", "anyone can call",
    "unauthorized caller", "missing onlyowner modifier", "unprotected", "centralization",
    "too powerful", "full control over", "single point of failure", "rug pull", "rug-pull",
    "external call", "calls out", "call out", "may", "might", "could", "potentially",
    "possibly", "requires", "assumes", "only if", "must", "precondition", "when", "step",
    "admin-only", "admin only", "only the owner", "only the admin", "restricted to the owner",
    "restricted to admin", "protected by onlyowner", "balance", "amount", "share", "debt",
    "reward", "fee", "price", "supply", "asset", "nonce", "deadline", "expiry", "expiration",
)
_PROSE_WORDS = st.sampled_from(sorted({
    form for word in _PROSE_KEYWORDS
    for form in (word, word.upper(), word.title(), word.swapcase().title().swapcase(),
                 "".join(c.upper() if i % 2 else c for i, c in enumerate(word)),
                 word.replace("i", "\u0130"), word.replace("i", "\u0131"),
                 word.replace("s", "\u017f"), word.replace("k", "\u212a"))
} | {"\u0130", "\u0131", "\u017f", "\u212a", "\u212b", "\u00c5", "\u00df", "\u00b5"}))
_KEYWORD_TEXT = st.lists(st.one_of(_CODE_WORDS, _PROSE_WORDS), max_size=40).map("".join)


def _found(pattern: re.Pattern, text: str) -> list:
    return _found_in(pattern.finditer(text))


def _found_in(matches) -> list:
    return [(m.regs, m.groups()) for m in matches]


def _found_folded(pattern: re.Pattern, text: str) -> list:
    """`_found` with each group folded, as a search of the folded text gives it."""
    return [(m.regs, tuple(g and findings.fold(g) for g in m.groups()))
            for m in pattern.finditer(text)]


# the patterns that read folded text (`findings.fold`) besides
# `findings._CLAIM_RES`, by module and name
FOLDED = (
    ("funnel", "_CENTRALIZATION_RE"), ("funnel", "_EXTERNAL_CALL_CLAIM_RE"),
    ("interaction", "_HEDGE_RE"), ("interaction", "_PRECON_WORD_RE"),
    ("interaction", "_STEP_RE"), ("interaction", "_CLAIMS_PROTECTED_RE"),
    ("coverage", "_FINANCIAL_NAME_RE"),
    ("engines.patterns", "_NONCE_RE"), ("engines.patterns", "_DEADLINE_RE"),
)


@settings(max_examples=300, deadline=None)
@given(_KEYWORD_TEXT)
@example(";external call;")     # a declaration also starts right after a `;`
# a declaration whose name is a keyword, one whose tail fails at its first
# keyword, and one whose name is cut back to reach its base list
@example("contract interface X {")
@example("interface contract contract X {")
@example("contract Axis Base {")
@example("verify(a < 5) if(a>5) require (a <= 1e18)")
@example("int8(uint8(int16(x uint8(")                  # casts whose argument is a cast
@example("1 - 2 * 3-4")
@example("Missing Access Control")
@example("acce\u017f\u017f control")
@example("unauthor\u0130zed caller")
@example("REENTRANCY Race Condition EXTERNAL CALL Calls Out \u212aick st\u0130p")
@example("Admin-Only: MUST assume ONLY \u0130F; dead\u0131ine nonce \u00dfhare \u00b5 \u212bmount")
def test_anchored_patterns_match_their_unanchored_forms(text):
    special = {"_CONTRACT_RE", "_STATE_VAR_RE", "_DIV_THEN_MUL_RE", "DECL_RE", "_DOWNCAST_RE"}
    for (module, name), old in UNANCHORED.items():
        if name not in special and (module, name) not in FOLDED:
            new = getattr(importlib.import_module(f"solaudit.{module}"), name)
            assert _found(new, text) == _found(re.compile(old), text), name
    # a folded pattern on the folded text finds what its `re.I` original
    # finds on the text: its unanchored form where the oracles hold one,
    # else its own pattern, which folding left as it was
    folded = findings.fold(text)
    assert len(folded) == len(text)
    for module, name in FOLDED:
        new = getattr(importlib.import_module(f"solaudit.{module}"), name)
        old = re.compile(UNANCHORED.get((module, name), new.pattern), re.I)
        assert _found(new, folded) == _found_folded(old, text), name
    for claim, new in findings._CLAIM_RES:
        old = re.compile(UNANCHORED_CLAIMS.get(claim, new.pattern), re.I)
        assert _found(new, folded) == _found_folded(old, text), claim

    # the state-variable scan reads a text that starts with a newline: the
    # same starts, and groups one character on after its indentation group
    for old, new in zip(re.finditer(UNANCHORED["ccim.parse", "_STATE_VAR_RE"], text),
                        parse._STATE_VAR_RE.finditer("\n" + text), strict=True):
        assert (new.start(), new.groups()[1:]) == (old.start(), old.groups())
        assert new.regs[2:] == tuple((a + 1, b + 1) if a >= 0 else (a, b) for a, b in old.regs[1:])
    # a contract match starts at its keyword, read by the keyword passes and
    # the tail from its name on; `abstract` is read apart
    abstract_at = {m.end() for m in parse._ABSTRACT_RE.finditer(text)}
    assert [(start, whole.end(), "abstract" if start in abstract_at else kind, *whole.groups())
            for start, kind, _, whole in ingest.declarations(text, parse._CONTRACT_RE)] == \
        [(m.start(3), m.end(), "abstract" if m.group(2) else m.group(3), *m.groups()[3:])
         for m in re.finditer(UNANCHORED["ccim.parse", "_CONTRACT_RE"], text)]
    # a cast is found from its `int`, and reported from its `u`
    assert [hit[4:] for hit in _rule(patterns._rule_unsafe_downcast, text)] == \
        [(m.start(), f"narrowing cast to {m.group(1)} can silently truncate")
         for m in re.finditer(UNANCHORED["engines.patterns", "_DOWNCAST_RE"], text)]
    # the gated scan finds what the ungated one does
    assert _found_in(bva._literal_ops(text)) == \
        _found(re.compile(UNANCHORED["engines.bva", "_LITERAL_OP_RE"]), text)
    # a division is found from its `/`, and reported where the dividend ends
    assert [hit[4] for hit in _rule(patterns._rule_div_before_mul, text)] == \
        [m.start() for m in re.finditer(UNANCHORED["engines.patterns", "_DIV_THEN_MUL_RE"], text)]
    assert ingest._declarations(text) == \
        [m.group(3, 4) for m in re.finditer(UNANCHORED["ingest", "DECL_RE"], text)]


_STATE = {"bal": "mapping(address => uint256)", "total": "uint256", "peer": "IPool",
          "owner": "address", "arr": "uint256[]", "flag": "bool"}
_STATEMENT = st.sampled_from([
    "total = 1;", "total += x;", "bal[a][b] -= 1;", "bal [a] [b] = 1;", "delete bal[a];",
    "++total;", "total++;", "-- total;", "arr.push(1);", "arr.pop();", "arr[0].m = 1;",
    "peer.ping();", "peer . ping{value: 1}(x);", "peer.a.b();", "owner.transfer(1);",
    "x.total = 1;", "this.f();", "f(total);", "g (1);", "uint256 total = 2;",
    "Foo memory peer = y;", "storage memory owner;", "memory storage flag;", "uint total;",
    "bool flag = total == 1;", "x.uint owner = 1;", "require(total > 0);",
    "if (flag) { total = 0; }", "unchecked { total -= 1; }", "y = 1e18 * total;",
    "0xtotal;", "_total = 1;", "total_ = 2;", "emit E(total);", "return total;",
    "bal[arr[1]] = 2;", "(total) = 3;", "total\n=\n4;", "x = peer;", "arr.length;",
    "type(uint).max;", "9total = 1;", "bal[", "total[", "delete\ttotal;",
    # guards, fund moves and approvals, whole and cut short
    "require(msg.sender == owner, 1);", "require (total, f(1));", "require();", "require(total",
    "xrequire(flag);", "payable(owner).send(1);", "t.safeTransferFrom(a, owner, 1);",
    "owner.call{value: total}(x);", "x . transfer (1);", "token.approve(peer, 0);",
    "peer.safeApprove(owner, 1);", "x.approve(bal [a], total);", "approve(owner, 1);",
    "x.approve(", "unchecked{ }",
    # locals declared in a block shadow state to its end, a loop header's to
    # the end of the loop, its body braced or not, nested brace-less `if` and
    # `else` bodies, `do`, `try` and `assembly` ones included; writes past a
    # line break
    "{ uint256 total = 2; total += 1; }", "if (flag) { Foo memory peer = y; peer = z; }",
    "for (uint256 flag = 0; flag < 2; flag++) { bool owner = true; }", "{ { uint total = 1; } }",
    "for (uint256 total = 0; total < 2; total++) { }", "for (Foo memory peer = y; flag; ) peer = z;",
    "for (uint256 total = 0; flag; ) if (flag) total = 1; else if (x) { total = 2; } else total = 3;",
    "for (uint256 owner = 0; flag; ) assembly { }", "for (uint256 flag = 0; ; ) do flag++; while (flag);",
    "for (uint256 total = 0; flag; ) try peer.ping() { total = 1; } catch { total = 2; }",
    "unchecked { memory arr = total; }", "delete\n arr;", "++\n\ttotal;", "} total = 1;",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_STATEMENT, max_size=12).map(" ".join),
       st.sampled_from([(), ("total",), ("x", "owner")]))
@example("peer.ping(); Foo memory peer = y;", ())     # a use before the local's declaration
def test_one_identifier_pass_matches_separate_scans(body, params):
    fn_names = {"f", "g", "total"}
    effects = scan_body(body, 0, len(body), bracket_pairs(body), parse.callee_receivers(_STATE),
                        fn_names, params)
    names = {kind: [name for _, k, name in effects if k == kind] for kind in parse.EFFECT_KINDS}
    # the names of each kind are the record's sets, and the calls its call sites
    _, reads, writes, calls, internal = separate_scans(body, _STATE, fn_names, params)
    assert (set(names["read"]), set(names["write"]), set(names["internal"])) == \
        (reads, writes, internal)
    assert [(*name.split("."), pos) for pos, kind, name in effects if kind == "call"] == calls
    # guards in order, `unchecked`, fund moves, native ones and approvals
    assert (names["require"], bool(names["unchecked"]), bool(names["fund"]),
            any(name in parse.NATIVE_OUT for name in names["fund"]), names["approve"]) == \
        separate_fact_scans(body)
    offsets = [pos for pos, _, _ in effects]
    assert offsets == sorted(offsets)


# the openers of a nested block and its closer, and whether the block runs
# whenever the code around it does
_OPENERS = (
    ("{", "}", True), ("unchecked {", "}", True), ("if (c) {", "}", False),
    ("if (c) { } else {", "}", False), ("for (;;) {", "}", False), ("while (c) {", "}", False),
    ("do {", "} while (c);", False), ("try t.f() returns (uint v) {", "}", False),
    ("try t.f() { } catch {", "}", False), ("if (c) unchecked {", "}", False),
)
# what may lead a guard: nothing, or the brace-less body of an `if` or an `else`
_GUARD_LEADS = ("", "if (c) ", "if (c) x = 1; else ")
_FLIPPED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!="}


def _guarded_block(data, runs: bool, depth: int, out: list[str], tags: list) -> None:
    """Append to `out` the statements of a block that, when `runs`, runs
    whenever the body does; `tags` gets (offset, normal form, whether it
    guards the body, bound) per guard written, the bound as `bva` reads it."""
    for _ in range(data.draw(st.integers(0, 3))):
        choice = data.draw(st.sampled_from(("guard", "plain", "block") if depth < 3 else ("guard", "plain")))
        if choice == "block":
            opener, closer, block_runs = data.draw(st.sampled_from(_OPENERS))
            out.append(f"{opener} ")
            _guarded_block(data, runs and block_runs, depth + 1, out, tags)
            out.append(f"{closer} ")
        elif choice == "plain":
            out.append("x = 1; ")
        else:
            lead = data.draw(st.sampled_from(_GUARD_LEADS))
            op, n = data.draw(st.sampled_from(tuple(_FLIPPED))), len(tags)
            reverts = data.draw(st.booleans())
            guard = f"if (v{n} {op} {n}) revert();" if reverts else f"require(v{n} {op} {n});"
            held = _FLIPPED[op] if reverts else op
            tags.append((len("".join(out)) + len(lead), f"v{n}{held}{n}", runs and not lead,
                         (f"v{n}", held, float(n)) if held in ("<", "<=", ">", ">=") else None))
            out.append(f"{lead}{guard} ")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_guards_are_the_statements_that_always_run(data):
    # a guard counts where its every block runs whenever the body does and
    # it is no brace-less `if` or `else` body: known by construction
    out, tags = [], []
    _guarded_block(data, True, 0, out, tags)
    body = "".join(out)
    effects = scan_body(body, 0, len(body), bracket_pairs(body), {}, set(), ())
    guards = [(pos, name) for pos, kind, name in effects if kind == "require"]
    assert guards == [(pos, name) for pos, name, runs, _ in tags if runs]
    # BVA's bounds are those guards' leading comparisons
    assert [(b.group(1), b.group(2), float(b.group(3))) for _, name in guards
            if (b := bva._BOUND_RE.match(name))] == [bound for _, _, runs, bound in tags if runs and bound]


# call shapes around the fund-movement patterns: each of them, spaced and
# unspaced, and near misses
_FUND_PIECE = st.sampled_from([
    ".transfer(", ". transfer (", ".transferFrom(", ".transferFrom (", ".safeTransfer(",
    ". safeTransferFrom(", ".send(", ".send\n(", ".call{value: 1}(", ". call { value :",
    ".call(", ".call{gas: 1}(", ".sendValue(", ".safeTransferETH(", "transfer(", ".transfer",
    ".transferFro(", "safe", "From", "value:", ".", "(", "{", " ", "\n", "x",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_FUND_PIECE, max_size=12).map("".join), st.data())
def test_fund_patterns_match_where_a_separate_search_does(body, data):
    # the `fund` effects of a span, all and native, where a search per call
    # shape finds one in the span
    start = data.draw(st.integers(0, len(body)))
    end = data.draw(st.integers(start, len(body)))
    effects = scan_body(body, start, end, bracket_pairs(body), {}, set(), ())
    funds = [name for _, kind, name in effects if kind == "fund"]
    assert bool(funds) == any(rx.search(body, start, end) for rx in FUND_RES)
    assert any(name in parse.NATIVE_OUT for name in funds) == \
        any(rx.search(body, start, end) for rx in NATIVE_OUT_RES)


# contract-level declarations with blocks inside and between their words
_MEMBERS = st.lists(st.sampled_from([
    "uint256", "mapping(address => uint)", "IPool", "public", "constant", "payable", "x",
    "y", "= 1", "=", ";", "{ z = 1; }", "{\n}", "{}", "function f() {\n  y = 2;\n}",
    "modifier m() { _; }", "\n", " ", "\t", "[2]", "constructor() {\n  x = 1;\n}",
    "receive() external payable {}", "fallback() external {\n}", "modifier n {\n  _;\n}",
    "struct S {\n  uint a;\n}", "functional", "f({a: 1})",
]), max_size=30).map(lambda members: "contract C {\n" + "".join(members) + "\n}\n")


@settings(max_examples=200, deadline=None)
@given(st.one_of(_MEMBERS, _contract_source().map(lambda s: s[0])))
# a declaration right after a one-line body, a block in an initializer and a
# header over several lines
@example("contract C {\n    function f() external {\n    }\n    uint256 public a;\n"
         "    function g() {} uint256 b;\n    modifier m() { _; }\n    uint c = f({a: 1});\n"
         "    function h()\n        external\n        onlyOwner\n    {\n    }\n    uint d;\n}\n")
# headers a state-variable match reads on from: no `(`, or an `=`
@example("contract C {\nfallback{ }uint= 1;\nmodifier m {}\n= 1\nuint x;\n"
         "function f() = 2 {}\nuint y;\n}\n")
def test_state_variables_match_blanking_in_place(text):
    parsed = parse_source(text)
    for decl in parsed.decls:
        assert [(v.name, v.type_text, v.has_initializer, v.line) for v in decl.state_vars] == \
            state_vars_blanked_in_place(parsed.masked, decl.open_pos, decl.close_pos, parsed.line_starts)


# inheritance shapes: contracts of distinct names whose bases are any names,
# themselves, later ones and ones outside the audit included, and whose state
# variables share a few names, so that one shadows another
_NAMES = ("A", "B", "C", "D", "E")
_VAR = st.tuples(st.sampled_from("abcd"),
                 st.sampled_from(["uint256", "address", "A", "IPool", "B[]", "mapping(address => A)"]),
                 st.booleans())
_HIERARCHY = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5, unique=True).flatmap(
    lambda names: st.tuples(*(st.tuples(
        st.just(name), st.sampled_from(["contract", "abstract contract", "interface"]),
        st.lists(st.sampled_from(_NAMES + ("Ext", "IOutside")), max_size=3, unique=True),
        st.lists(_VAR, max_size=3, unique_by=lambda v: v[0])) for name in names)))


def _hierarchy_text(contracts) -> str:
    return "".join(
        f"{kind} {name}{' is ' + ', '.join(bases) if bases else ''} {{\n"
        + "".join(f"    {type_text} public {var}{' = 1' if init else ''};\n"
                  for var, type_text, init in state)
        + "}\n"
        for name, kind, bases, state in contracts)


@settings(max_examples=300, deadline=None)
@given(_HIERARCHY)
# a diamond whose sides shadow its root's `a`, and a base outside the audit
@example((("D", "contract", ["B", "C", "Ext"], [("d", "A", False)]),
          ("B", "abstract contract", ["A"], [("a", "address", True)]),
          ("C", "contract", ["A"], [("a", "uint256", False), ("c", "B[]", True)]),
          ("A", "contract", [], [("a", "IPool", False)])))
# `A is B` and `B is A`, and a contract that names itself
@example((("A", "contract", ["B"], [("a", "uint256", True)]),
          ("B", "contract", ["A", "B"], [("a", "address", False), ("b", "A", False)])))
def test_one_view_of_inheritance_matches_the_separate_walks(contracts):
    parsed = parse_source(_hierarchy_text(contracts))
    assert [d.name for d in parsed.decls] == [c[0] for c in contracts]
    walks = separate_inheritance_walks(parsed.decls)
    assert parsed.lineage == walks.lineage
    # the types the body scan sees, and the resolution map's facts in order
    assert [{name: sv.type_text for name, (_, sv) in visible.items()}
            for visible in parsed.visible] == walks.visible_types
    resolution = build_resolution(parsed)
    assert resolution.inheritance == walks.inheritance
    assert resolution.var_origin == walks.var_origin
    assert list(resolution.type_map.items()) == list(walks.type_map.items())
    # every declaration's initialized state is in the view, under its qualified id
    assert {qid for visible in parsed.visible for qid, sv in visible.values()
            if sv.has_initializer} == walks.initialized
