r"""Pattern-based Solidity parser.

No AST: contracts, functions and state variables are recovered with regexes
over a comment- and string-masked copy of the source. Unparseable constructs
degrade to empty field values with a logged warning; they never abort the
run. Assembly blocks are opaque text. Function records are spans of the one
mask: readers scan it inside `ParsedSource.decl_span` or a record's body
`span`, and take its code facts from the record, never its raw text. Each
text is scanned once:
- a pattern that scans a body or the whole text starts on one literal, as
  `word(?<!\wword)`: `re` skips ahead only to a first literal or character
  set, and tries one that starts with `\b`, a lookbehind or a multiline `^`
  at every character. A set of first letters is no anchor either: an
  alternation of `contract|interface|library` is tried at every `c`, `i`
  and `l`. Scan one literal per pass, by a pattern it leads or by
  `str.find` and an anchored match, and merge the passes by offset
  (`ingest.declarations`), or scan behind a cheap literal gate. Nor can
  `re` skip ahead to a cased letter under IGNORECASE, so no pattern takes
  `re.I`: prose and names are folded once (`findings.fold`) and matched in
  lower case;
- one identifier pass per function or modifier body (`scan_body`) yields
  its effects in offset order: each use of state, call, guard, `unchecked`
  block, fund move and approval, tested with anchored matches at a token's
  ends. One stack of the blocks open at a token, read off the bracket
  index, tells where a local shadows state and whether a guard always runs.
  A record's code facts, BVA's bounds among them, are read off its effects,
  never off a second scan of its span; only the unchecked-arithmetic rule,
  which needs a block's extent, looks for `unchecked {` again;
- one bracket index per audit (`bracket_pairs`) makes finding a closing
  bracket a lookup bounded to the span being read (`match_brace`);
- one walk over a contract's declarations yields its function names and
  records; it never enters a body;
- one walk of each contract's inheritance yields one view per declaration of
  its lineage and visible state, which the body scan, the resolution map and
  BVA read (`ParsedSource.lineage` and `visible`).
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from ..ingest import AuditSource, declarations, map_line, mask_noncode, pragma_ge_08
from .types import CallSite, FunctionRecord

log = logging.getLogger(__name__)

# a declaration from its name on, as ingest's rule reads it, with its base
# list up to its `{`
_CONTRACT_RE = re.compile(r"([A-Za-z_]\w*)\s*(is\s+([^{]+?))?\s*\{")
_ABSTRACT_RE = re.compile(r"abstract(?<![^\s;}]abstract)\s+(?=contract|interface|library)")
_FUNCTION_RE = re.compile(
    r"(function(?<!\wfunction)\s+([A-Za-z_]\w*)|constructor(?<!\wconstructor)"
    r"|receive(?<!\wreceive)|fallback(?<!\wfallback))\s*\("
)
# a modifier with a body: a bodiless `modifier m() virtual;` ends at its `;`
_MODIFIER_DEF_RE = re.compile(r"modifier(?<!\wmodifier)\s+([A-Za-z_]\w*)[^;{]*(?=\{)")
# a declaration at the start of a line or right after a `;`, matched from
# that newline or `;`; its own `;` is left to start the next match. Group 1,
# the indentation, is taken whole, as an atomic group would take it: no type
# starts with a space or tab, and `re` need not retry a shorter run
_STATE_VAR_RE = re.compile(
    r"[\n;](?=([ \t]*))\1"
    r"(mapping\s*\((?:[^()]|\([^()]*\))*\)|[A-Za-z_]\w*(?:\s+payable)?(?:\s*\[\s*\w*\s*\])*)"
    r"((?:\s+(?:public|private|internal|constant|immutable|override|transient))*)"
    r"\s+([A-Za-z_]\w*)\s*(=[^;]*)?(?=;)"
)
# a member declaration's header up to its body's `{`: a function, modifier,
# constructor, receive or fallback keyword after whitespace only, then a `(`
# and no `=`. So no state-variable match can start on its first line and
# read on past it
_MEMBER_HEAD_RE = re.compile(
    r"\s*(function|modifier|constructor|receive|fallback)(?!\w)(?=[^=]*\([^=]*\Z)")
_HEADER_KEYWORDS = {
    "public", "external", "internal", "private", "view", "pure", "payable",
    "virtual", "override", "returns", "memory", "calldata", "storage",
}
_NON_TYPE_KEYWORDS = {
    "event", "error", "struct", "enum", "using", "function", "modifier",
    "constructor", "import", "pragma", "emit", "return", "returns", "if",
    "else", "for", "while", "do", "require", "revert", "assert", "new",
    "delete", "unchecked", "assembly", "type",
}
_BUILTIN_TARGETS = {"msg", "abi", "block", "tx", "this", "super", "address", "type", "bytes", "string"}
_ARRAY_METHODS = {"push", "pop"}
NAME_RE = re.compile(r"[A-Za-z_]\w*")               # an identifier token
# an identifier or member, not the tail of a number such as `1e18`; group 1 is
# the name after it, as after a local's type, and group 2 an `=` after that
_TOKEN_RE = re.compile(r"[A-Za-z_](?<!\w[A-Za-z_])\w*(?:(?=\s+([A-Za-z_]\w*)(\s*=)?))?")
_VISIBILITY_RE = re.compile(r"\b(public|external|internal|private)\b")
_MUTABILITY_RE = re.compile(r"\b(view|pure|payable)\b")
_RETURNS_RE = re.compile(r"returns(?<!\wreturns)\s*\([^)]*\)")
_OVERRIDE_RE = re.compile(r"override(?<!\woverride)\s*\([^)]*\)")
# a header word with its optional (argument list): modifiers and keywords
_HEADER_TOKEN_RE = re.compile(r"([A-Za-z_]\w*)(\s*\(((?:[^()]|\([^()]*\))*)\))?")
# local declarations: `uint256 x =` and `memory x`
_VALUE_TYPE_RE = re.compile(r"u?int\d*|bool|address|bytes\d*|byte|string")
_LOCATIONS = frozenset({"memory", "calldata", "storage"})
# what ends the token before a variable that a `delete` or (group 1) a prefix ++/-- writes
_WRITE_BEFORE_RE = re.compile(r"(?<=(\+\+|--))|(?<=\bdelete)")
# what ends the token before a block that runs whenever the code around it
# does: a statement or a block, or (group 1) an `unchecked` that no branch leads
_BLOCK_LEAD_RE = re.compile(r"(?<=[;{}])|(?<=\b(unchecked))")
# what ends the token before a statement that is the brace-less body of an
# `if (…)`, a loop or an `else`
_BRANCH_END_RE = re.compile(r"(?<=\))|(?<=else)")
# a `for` that ends the token before a loop header's `(`
_FOR_RE = re.compile(r"(?<![\w.])for")
# a statement's start past whitespace, and past an `unchecked` that leads a
# block: (group 1) a keyword whose header and body follow, or (group 2) a
# `do`, `try` or `assembly`, whose bodies decide where it ends
_STATEMENT_LEAD_RE = re.compile(
    r"\s*(?:(if|for|while)\s*(?=\()|(do|try|assembly)(?!\w)|unchecked\s*(?=\{))?")
_ELSE_RE = re.compile(r"\s*else(?!\w)")
_CATCH_RE = re.compile(r"\s*catch(?!\w)")
# what stops a simple statement's scan: its end, the end of the block around
# it, or a bracket to skip over
_STATEMENT_STOP_RE = re.compile(r"[;}(\[{]")
# call shapes, from the end of the callee's first identifier
_MEMBER_CALL_RE = re.compile(r"\s*\.\s*([A-Za-z_]\w*)\s*[({]")
_PLAIN_CALL_RE = re.compile(r"\s*\(")
# a block from the end of `unchecked`, or (group 1) a value option from `call`
_BRACE_RE = re.compile(r"\s*\{(\s*value\s*:)?")
# a revert from the end of an `if`'s condition: `revert …;` or `{ revert …; }`
_REVERT_RE = re.compile(r"\s*(?:\{\s*)?revert(?!\w)")
_ASSIGN_OP_RE = re.compile(r"(=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)")
_ELEMENTARY_RE = re.compile(r"^(u?int\d*|bool|bytes\d*|byte|string)(\[\s*\w*\s*\])*$")
_BRACKET_RE = re.compile(r"[(){}\[\]]")
_NESTING_RE = re.compile(r"[([{]|[)\]}]|,")
_HEADER_END_RE = re.compile(r"[(){;]")
# one step along an [index] / .member chain after an identifier
_SUFFIX_STEP_RE = re.compile(r"[ \t]*(?:(\[)|\.\s*([A-Za-z_]\w*))?")
UNCHECKED_RE = re.compile(r"unchecked(?<!\wunchecked)\s*\{")
# the kinds of a body's effects (`scan_body`), and those that change state
EFFECT_KINDS = ("read", "write", "call", "internal", "require", "unchecked", "fund", "approve")
_STATE_EFFECTS = frozenset({"write", "call", "internal", "fund", "approve"})
# the words at which the body pass tests for a guard, block, fund move or
# approval; an `if` is one only in a body that holds a `revert`
_FUND_METHODS = frozenset({"transfer", "send", "transferFrom", "safeTransfer", "safeTransferFrom"})
_FACT_WORDS = _FUND_METHODS | {"approve", "safeApprove", "require", "unchecked", "call"}
_REVERTING_FACT_WORDS = _FACT_WORDS | {"if"}
NATIVE_OUT = frozenset({"transfer", "send", "call{value:"})   # the fund effects of native ether
# a condition's operators and brackets, and the negation of each comparison
_CONDITION_OP_RE = re.compile(r"[=!<>]=|&&|\|\||<<|>>|[<>()\[\]]")
_NEGATED = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def normalize_predicate(text: str) -> str:
    """Whitespace-free, identifier-preserving normal form for guard and
    post-condition strings; set operations compare these forms."""
    return "".join(text.split())


def bracket_pairs(text: str) -> dict[int, int]:
    """The bracket index of a masked text, in one pass: the offset of every
    `{`, `(` and `[` that closes, mapped to that of its closing bracket. Each
    kind nests on its own, as a depth count over that kind alone sees it."""
    pairs: dict[int, int] = {}
    parens, squares, braces = [], [], []
    stack_of = {"(": parens, ")": parens, "[": squares, "]": squares, "{": braces, "}": braces}
    for pos in map(re.Match.start, _BRACKET_RE.finditer(text)):
        stack = stack_of[text[pos]]
        if text[pos] in "([{":
            stack.append(pos)
        elif stack:
            pairs[stack.pop()] = pos
    return pairs


def match_brace(pairs: dict[int, int], open_pos: int, end: int) -> int:
    """Offset of the bracket closing the one at `open_pos`, looked up in the
    bracket index `pairs`; -1 when it does not close before `end`."""
    close = pairs.get(open_pos, end)
    return close if close < end else -1


def balanced(text: str, opener: re.Pattern, pairs: dict[int, int], start: int, end: int,
             pair: str = "{}"):
    """(match, open, close) for every `opener` match in text[start:end]:
    `open` is the first pair[0] from the match start and `close` the bracket
    closing it before `end`, else the match is skipped. `pairs` is the bracket
    index of `text`."""
    for m in opener.finditer(text, start, end):
        open_pos = text.find(pair[0], m.start(), end)
        if open_pos < 0:
            continue
        close = match_brace(pairs, open_pos, end)
        if close >= 0:
            yield m, open_pos, close


def split_top_level(text: str) -> list[str]:
    """Split on commas at paren/bracket depth zero."""
    parts, depth, start = [], 0, 0
    for m in _NESTING_RE.finditer(text):
        c = m.group()
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif depth == 0:
            parts.append(text[start:m.start()])
            start = m.end()
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


class StateVarDecl(NamedTuple):
    name: str
    type_text: str
    has_initializer: bool
    line: int


class ContractDecl(NamedTuple):
    name: str
    kind: str                      # contract | abstract | interface | library
    bases: tuple[str, ...]
    start: int                     # char offset of the declaration keyword
    open_pos: int                  # char offset of '{'
    close_pos: int                 # char offset of matching '}'
    state_vars: list[StateVarDecl] = []
    modifier_guards: dict[str, list[str]] = {}


class ParsedSource(NamedTuple):
    """One audit source parsed once: the comment- and string-masked text, the
    line-start index, the raw lines, the bracket index of the mask, the
    contract declarations and the view of their inheritance. Built per audit
    by `parse_source` and shared by parsing, resolution and the engines."""
    text: str
    masked: str
    line_starts: tuple[int, ...]
    lines: tuple[str, ...]
    brackets: dict[int, int]       # bracket_pairs(masked)
    decls: tuple[ContractDecl, ...]
    lineage: dict[str, tuple[str, ...]]   # contract -> its ancestors, nearest first
    # per declaration: state-variable name -> (qualified id, nearest declaration)
    visible: tuple[dict[str, tuple[str, StateVarDecl]], ...]

    def line_of(self, pos: int) -> int:
        """1-based line of character offset `pos`."""
        return bisect_right(self.line_starts, pos)

    def indent_of(self, line: int) -> int:
        """The width of the leading spaces and tabs of 1-based line `line`."""
        text = self.lines[line - 1]
        return len(text) - len(text.lstrip(" \t"))

    def decl_span(self, rec: FunctionRecord) -> tuple[int, int]:
        """(start, end) of `rec`'s declaration, header included."""
        return rec.offset, rec.offset + len(rec.body)


def parse_source(text: str, masked: str | None = None) -> ParsedSource:
    """Parse `text`; `masked` is its mask when ingest already made it."""
    if masked is None:
        masked = mask_noncode(text)
    lines = tuple(text.split("\n"))
    line_starts = (0, *accumulate(len(line) + 1 for line in lines[:-1]))
    brackets = bracket_pairs(masked)
    decls = tuple(scan_contracts(masked, line_starts, brackets))
    lineage, visible = _inheritance_view(decls)
    return ParsedSource(text=text, masked=masked, line_starts=line_starts, lines=lines,
                        brackets=brackets, decls=decls, lineage=lineage, visible=visible)


def _inheritance_view(decls: tuple[ContractDecl, ...]) -> tuple[dict, tuple[dict, ...]]:
    """`lineage` and `visible` of `decls`, from one walk of each contract's
    inheritance; its own declarations shadow inherited ones. A name declared
    twice has the union of its declarations' bases, the first declaration's
    first, and each declaration its own state; an ancestor declared twice
    lends every declaration's state, the first declaration's first."""
    bases: dict[str, tuple[str, ...]] = {}
    by_name: dict[str, list[ContractDecl]] = {}
    for d in decls:
        bases[d.name] = tuple(dict.fromkeys((*bases.get(d.name, ()), *d.bases)))
        by_name.setdefault(d.name, []).append(d)
    lineage = {name: _ancestors_of(name, bases) for name in bases}
    visible = []
    for decl in decls:
        seen: dict[str, tuple[str, StateVarDecl]] = {}
        for holder in (decl, *(d for a in lineage[decl.name] for d in by_name.get(a, ()))):
            for sv in holder.state_vars:
                seen.setdefault(sv.name, (f"{holder.name}.{sv.name}", sv))
        visible.append(seen)
    return lineage, tuple(visible)


def _ancestors_of(name: str, bases: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Transitive bases of `name` by `bases` (contract -> its base list),
    excluding itself, breadth first: each base list in declared order; a base
    outside the audit is listed and not walked."""
    seen: list[str] = []
    frontier = list(bases[name])
    while frontier:
        base = frontier.pop(0)
        if base in seen or base == name:
            continue
        seen.append(base)
        frontier.extend(bases.get(base, ()))
    return tuple(seen)


def scan_contracts(masked: str, line_starts: tuple[int, ...],
                   brackets: dict[int, int]) -> list[ContractDecl]:
    """Locate every contract/interface/library declaration with its span."""
    decls: list[ContractDecl] = []
    abstract_at = {m.end() for m in _ABSTRACT_RE.finditer(masked)}
    for start, kind, _, whole in declarations(masked, _CONTRACT_RE):
        open_pos = whole.end() - 1
        close_pos = match_brace(brackets, open_pos, len(masked))
        if close_pos < 0:
            log.warning("unbalanced braces after contract %s; declaration skipped", whole.group(1))
            continue
        bases = []
        if whole.group(3):
            for part in split_top_level(whole.group(3)):
                ident = NAME_RE.match(part)
                if ident:
                    bases.append(ident.group(0))
        decls.append(ContractDecl(
            name=whole.group(1), kind="abstract" if start in abstract_at else kind,
            bases=tuple(bases), start=start, open_pos=open_pos, close_pos=close_pos,
            state_vars=_scan_state_vars(masked, open_pos + 1, close_pos, brackets, line_starts),
            modifier_guards=_scan_modifier_guards(masked, open_pos + 1, close_pos, brackets),
        ))
    return decls


def _contract_level(masked: str, start: int, end: int,
                    brackets: dict[int, int]) -> tuple[str, list[int], list[int]]:
    """(text, starts, origins): a newline and masked[start:end], a contract
    body, as the state-variable scan reads it. Each block is cut to its
    newlines, or to a space when it has none. A member declaration, whose
    header `_MEMBER_HEAD_RE` matches from the last `;` before its body or
    the previous block's end, is cut further: the first line of its header
    becomes a `#`, and its body one newline, or a space. The scan finds what
    it would with each block blanked in place: it reads whitespace only as
    a separator, so a run of newlines reads as one, and no match but an
    initializer reads past such a header line or a `#`. Piece i of the text
    starts at text offset starts[i] and reads the mask from origins[i]. An
    unclosed block cuts the rest."""
    out, origins, pos = ["\n"], [], start
    while (open_pos := masked.find("{", pos, end)) >= 0:
        close = match_brace(brackets, open_pos, end)
        after = close + 1 if close >= 0 else end
        head = masked.rfind(";", pos, open_pos) + 1 or pos
        member = _MEMBER_HEAD_RE.match(masked, head, open_pos)
        cut = member.start(1) if member else open_pos
        out.append(masked[pos:cut])
        origins.append(pos)
        lines = masked.count("\n", open_pos, after)
        if member:
            out.append("#")
            origins.append(cut)
            if (later := masked.find("\n", cut, open_pos)) >= 0:
                out.append(masked[later:open_pos])
                origins.append(later)
            lines = min(lines, 1)
        out.append("\n" * lines or " ")
        origins.append(open_pos)
        pos = after
    out.append(masked[pos:end])
    origins.append(pos)
    starts = list(accumulate(map(len, out)))
    starts.pop()
    return "".join(out), starts, origins


def _scan_state_vars(masked: str, start: int, end: int, brackets: dict[int, int],
                     line_starts: tuple[int, ...]) -> list[StateVarDecl]:
    flat, starts, origins = _contract_level(masked, start, end, brackets)
    out = []
    for m in _STATE_VAR_RE.finditer(flat):
        type_text, modifiers, name, initializer = m.group(2, 3, 4, 5)
        words = type_text.split()
        if words[0] in _NON_TYPE_KEYWORDS:
            continue
        # the line of the character after the match's newline or `;`
        at = m.start() + 1
        i = bisect_right(starts, at) - 1
        out.append(StateVarDecl(
            name=name,
            type_text=" ".join(words),
            has_initializer=bool(initializer) or "constant" in modifiers or "immutable" in modifiers,
            line=bisect_right(line_starts, origins[i] + at - starts[i]),
        ))
    return out


def _scan_modifier_guards(masked: str, start: int, end: int,
                          brackets: dict[int, int]) -> dict[str, list[str]]:
    return {m.group(1): [name for _, kind, name in
                         scan_body(masked, open_pos + 1, close, brackets, {}, set(), ())
                         if kind == "require"]
            for m, open_pos, close in balanced(masked, _MODIFIER_DEF_RE, brackets, start, end)}


def is_elementary_type(type_text: str) -> bool:
    head = type_text.split()[0] if type_text else ""
    return bool(_ELEMENTARY_RE.match(head)) or type_text.startswith("mapping")


# ---------------------------------------------------------------------------
# function records


def parse_function_records(source: AuditSource,
                           parsed: ParsedSource | None = None) -> list[FunctionRecord]:
    """One record per function declaration of every contract in the audit
    source, with guards, reads/writes, call sites and fund flag populated.
    `parsed` defaults to `parse_source(source.text, source.masked)`."""
    if not source.text.strip():
        return []
    if parsed is None:
        parsed = parse_source(source.text, source.masked)
    ge_08 = {path: pragma_ge_08(expr) for path, expr in source.pragmas.items()}
    records: list[FunctionRecord] = []
    for decl, visible in zip(parsed.decls, parsed.visible):
        receivers = callee_receivers({name: sv.type_text for name, (_, sv) in visible.items()})
        records.extend(_parse_contract_functions(decl, parsed, receivers, source, ge_08))
    return records


def callee_receivers(types: dict[str, str]) -> dict[str, bool]:
    """Per visible state variable (name -> declared type), whether a member
    call on it is a call site: it can hold a contract, as an address or a
    type that is not elementary does, and is no builtin name."""
    return {name: name not in _BUILTIN_TARGETS and (t == "address" or not is_elementary_type(t))
            for name, t in types.items()}


def _parse_contract_functions(decl, parsed, receivers, source, ge_08):
    """The records of `decl`'s function declarations, from one walk over its
    body that steps over each function body: the walk's names are the
    same-contract callees, so a Yul `function` in `assembly` is not one."""
    found = list(_declarations(decl, parsed))
    fn_names = {m.group(2) for m, *_ in found if m.group(2)}
    default_vis = "external" if decl.kind == "interface" else "public"
    for m, params_close, header_end, decl_end in found:
        name = m.group(2) or m.group(1)  # constructor/receive/fallback keep keyword name
        # the body between its braces; a bodiless declaration, whose header
        # ends at its `;`, has the empty span past it
        span = (header_end + 1, decl_end) if decl_end > header_end else (decl_end + 1, decl_end + 1)
        try:
            yield _build_record(decl, name, parsed, receivers, fn_names, source, ge_08, default_vis,
                                m, params_close, header_end, decl_end, span)
        except Exception as exc:  # per-component isolation: degrade, never abort
            log.warning("parse failure in %s.%s (%s); emitting degraded record", decl.name, name, exc)
            # a failed pass leaves no effects; the mask still shows an `unchecked` block
            unchecked = UNCHECKED_RE.search(parsed.masked, *span) is not None
            body = parsed.text[m.start():decl_end + 1]
            indent = parsed.indent_of(parsed.line_of(m.start()))
            yield FunctionRecord(
                name=name, owner=decl.name, vis=default_vis, mut="nonpayable",
                modifiers=(), guards=(), reads=frozenset(), writes=frozenset(),
                call_sites=(), fund_flag=False,
                src=(parsed.line_of(m.start()), parsed.line_of(decl_end)),
                internal_calls=frozenset(), body=body, offset=m.start(), span=span, effects=(),
                unchecked=unchecked, indent=indent, printed=printed_text(body, indent),
            )


def _declarations(decl, parsed):
    """(match, params close, header end, declaration end) per function
    declaration of `decl`; the header ends at the body's `{` or at the `;`
    that ends the declaration, and a body's `}` ends it."""
    masked, brackets, end = parsed.masked, parsed.brackets, decl.close_pos
    pos = decl.open_pos + 1
    while m := _FUNCTION_RE.search(masked, pos, end):
        name = m.group(2) or m.group(1)
        params_close = match_brace(brackets, m.end() - 1, end)
        if params_close < 0:
            log.warning("unbalanced parameter list in %s.%s; skipped", decl.name, name)
            pos = m.end()
            continue
        header_end, has_body = _find_header_end(masked, params_close + 1, end, brackets)
        if header_end < 0:
            log.warning("unterminated declaration %s.%s; skipped", decl.name, name)
            pos = m.end()
            continue
        decl_end = match_brace(brackets, header_end, end) if has_body else header_end
        if decl_end < 0:
            log.warning("unbalanced braces in %s.%s; skipped to next declaration", decl.name, name)
            pos = header_end + 1
            continue
        pos = decl_end + 1
        yield m, params_close, header_end, decl_end


def _find_header_end(masked: str, pos: int, end: int, brackets: dict[int, int]) -> tuple[int, bool]:
    """Scan past modifiers/returns to the body '{' or the terminating ';'. A
    '(' is passed at its closing ')'; after a stray ')' parentheses are
    counted until the depth is back at zero."""
    depth = 0
    while m := _HEADER_END_RE.search(masked, pos, end):
        c, pos = m.group(), m.end()
        if c == "(" and depth == 0:
            pos = match_brace(brackets, m.start(), end) + 1
            if not pos:
                break
        elif c in "()":
            depth += 1 if c == "(" else -1
        elif depth == 0:
            return m.start(), c == "{"
    return -1, False


def _parse_header(header: str, default_vis: str) -> tuple[str, str, tuple[str, ...]]:
    """Visibility, mutability and modifiers of a header, read with its return
    list and override list taken out: `returns (address payable)` is no
    `payable` function."""
    stripped = _OVERRIDE_RE.sub(" ", _RETURNS_RE.sub(" ", header))
    vis_m = _VISIBILITY_RE.search(stripped)
    mut_m = _MUTABILITY_RE.search(stripped)
    modifiers = []
    for mm in _HEADER_TOKEN_RE.finditer(stripped):
        if mm.group(1) in _HEADER_KEYWORDS:
            continue
        modifiers.append(f"{mm.group(1)}({mm.group(3).strip()})" if mm.group(2) else mm.group(1))
    return (
        vis_m.group(1) if vis_m else default_vis,
        mut_m.group(1) if mut_m else "nonpayable",
        tuple(modifiers),
    )


def _param_names(params_text: str) -> tuple[str, ...]:
    names = []
    for part in split_top_level(params_text):
        idents = [t for t in NAME_RE.findall(part)
                  if t not in ("memory", "calldata", "storage", "payable")]
        if len(idents) >= 2:
            names.append(idents[-1])
    return tuple(names)


def _natspec_above(src_lines: tuple[str, ...], header_line: int) -> str:
    collected: list[str] = []
    i = header_line - 2  # index of the line above the header
    while i >= 0:
        line = src_lines[i].strip()
        if line.startswith("///") or line.startswith("*") or line.startswith("/**"):
            collected.append(line)
            if line.startswith("/**"):
                break
            i -= 1
        elif line.endswith("*/"):
            collected.append(line)
            i -= 1
        else:
            break
    return "\n".join(reversed(collected))


def _build_record(decl, name, parsed, receivers, fn_names, source, ge_08, default_vis,
                  m, params_close, header_end, abs_end, span):
    text, masked, abs_start = parsed.text, parsed.masked, m.start()
    vis, mut, modifiers = _parse_header(masked[params_close + 1:header_end], default_vis)
    params = _param_names(masked[m.end():params_close])
    start_line = parsed.line_of(abs_start)
    end_line = parsed.line_of(abs_end)
    signature = " ".join(text[abs_start:header_end].split())

    effects = scan_body(masked, *span, parsed.brackets, receivers, fn_names, params)
    # the effects filed by kind in one loop; an approval is no record field
    reads, writes, calls, internal, guards = [], [], [], [], []
    fund = unchecked = False
    for pos, kind, fact in effects:
        if kind == "read":
            reads.append(fact)
        elif kind == "write":
            writes.append(fact)
        elif kind == "call":
            calls.append(CallSite(*fact.split("."), line=parsed.line_of(pos)))
        elif kind == "internal":
            internal.append(fact)
        elif kind == "require":
            guards.append(fact)
        elif kind == "fund":
            fund = True
        elif kind == "unchecked":
            unchecked = True
    # modifier bodies contribute their require conditions to the guard set
    for mod in modifiers:
        guards.extend(decl.modifier_guards.get(mod.split("(")[0], []))

    path, _ = map_line(source.offsets, start_line) if source.offsets.segments else ("", 0)
    body, indent = text[abs_start:abs_end + 1], parsed.indent_of(start_line)
    return FunctionRecord(
        name=name, owner=decl.name, vis=vis, mut=mut, modifiers=modifiers,
        guards=tuple(dict.fromkeys(guards)), reads=frozenset(reads), writes=frozenset(writes),
        call_sites=tuple(calls), fund_flag=fund, src=(start_line, end_line),
        internal_calls=frozenset(internal), body=body, offset=abs_start, span=span,
        effects=effects, unchecked=unchecked,
        params=params, signature=signature,
        natspec=_natspec_above(parsed.lines, start_line),
        pragma_ge_08=ge_08.get(path, False), indent=indent, printed=printed_text(body, indent),
    )


def printed_text(body: str, indent: int) -> str:
    """A record's `printed` text, the declaration `body` as every prompt
    prints it: each line after the first loses up to `indent` leading spaces
    or tabs, never more than it has. Every line stays, and so every line
    number; a file indented further as a whole prints the same text. The one
    place that turns a body into prompt text, once per record."""
    return re.sub(f"\n[ \t]{{1,{indent}}}", "\n", body) if indent else body


def scan_body(masked: str, start: int, end: int, brackets: dict[int, int],
              receivers: dict[str, bool], fn_names: set[str], params: tuple[str, ...]):
    """The effects of the body masked[start:end] from one pass over its
    identifiers, (offset, kind, name) in offset order, of the kinds:
    - `read` and `write` of visible state (the keys of `receivers`, of
      `callee_receivers`) as a whole identifier that no param shadows, nor a
      local from its declaration to the end of its block;
    - `call` (`target.method`) per member call on state that can hold a
      contract, and `internal` per function of `fn_names` called by name;
    - `require` per first argument in normal form, and per `if (c)` on c
      negated whose branch starts with a revert and that comes before every
      effect of `_STATE_EFFECTS`, each where it runs whenever the body does:
      in a block that does and after no `)` or `else`;
    - `unchecked` per block, `fund` per method that moves funds (`transfer`,
      `send`, `transferFrom`, `safeTransfer`, `safeTransferFrom`,
      `call{value:`) and `approve` per approval, by its normalized first argument.
    One stack of the open blocks, updated only at a guard, a declaration or
    state while a local is in scope, tells both; a `for` header's local is
    scoped to its loop, the header and the body, braced or not
    (`_for_loop_end`). The effects linearise the body
    and know no branch: a rule on their order may over-report across the
    arms of an `if`, and never under-reports along straight-line code."""
    found: list[tuple[int, str, str]] = []
    # the blocks open at `at`, innermost last: (its `}`, whether it runs
    # whenever the body does, its locals)
    blocks: list[tuple[int, bool, set[str]]] = [(end, True, set())]
    at = start
    scoped = False                       # whether a local was in scope at `at`
    located_end = start                  # a `memory x` match is not rescanned from `x`

    def open_at(pos: int) -> list[tuple[int, bool, set[str]]]:
        """The block stack brought up from `at` to `pos`."""
        nonlocal at
        while (i := masked.find("{", at, pos)) >= 0:
            while blocks[-1][0] < i:
                blocks.pop()
            close = brackets.get(i, -1)     # an unclosed block never runs always
            blocks.append((close if close >= 0 else end,
                           close >= 0 and blocks[-1][1] and _block_runs(masked, start, i), set()))
            at = i + 1
        while blocks[-1][0] < pos:
            blocks.pop()
        at = pos
        return blocks

    facts = _REVERTING_FACT_WORDS if masked.find("revert", start, end) >= 0 else _FACT_WORDS
    for m in _TOKEN_RE.finditer(masked, start, end):
        word = m.group()
        if m.lastindex and (m.lastindex == 2 and _VALUE_TYPE_RE.fullmatch(word)   # `uint256 x =`
                            or word in _LOCATIONS and m.start() >= located_end):  # `memory x`
            open_at(m.start())
            if (loop_end := _for_loop_end(masked, start, m.start(), end, brackets)) >= 0:
                blocks.append((min(loop_end, blocks[-1][0]), False, set()))
            blocks[-1][2].add(m.group(1))
            scoped = True
            if word in _LOCATIONS:
                located_end = m.end(1)
        if word in facts and (fact := _fact_effect(masked, m, start, end, brackets)) and (
                fact[1] != "require" or open_at(fact[0])[-1][1]
                and not _BRANCH_END_RE.match(masked, _token_end(masked, start, fact[0]))
                and not (word == "if" and any(kind in _STATE_EFFECTS for _, kind, _ in found))):
            found.append(fact)
        if word not in receivers and word not in fn_names:
            continue
        pos = m.start()
        if pos > start and masked[pos - 1] == ".":
            continue  # a member, not a whole identifier
        if word in receivers:
            shadowed = scoped and any(word in names for *_, names in open_at(pos))
            scoped = scoped and any(names for *_, names in blocks)
            if word not in params and not shadowed:
                if written := _WRITE_BEFORE_RE.match(masked, _token_end(masked, start, pos)):
                    kinds = ("read", "write") if written.group(1) else ("write",)
                else:
                    kinds = _classify_suffix(masked, m.end(), end, brackets)
                for kind in kinds:
                    found.append((pos, kind, word))
            # arrays, mappings and value types are not callees
            if (receivers[word] and (call := _MEMBER_CALL_RE.match(masked, m.end(), end))
                    and call.group(1) not in _ARRAY_METHODS):
                found.append((pos, "call", f"{word}.{call.group(1)}"))
        elif word not in _NON_TYPE_KEYWORDS and _PLAIN_CALL_RE.match(masked, m.end(), end):
            found.append((pos, "internal", word))
    return tuple(found)


def _for_loop_end(masked: str, start: int, pos: int, end: int, brackets: dict[int, int]) -> int:
    """The offset of the last character of the `for` statement whose header
    the declaration at `pos`, in the body from `start`, opens; -1 when the
    nearest `(` before it is no open `for (`."""
    paren = masked.rfind("(", start, pos)
    if paren < 0 or not pos < brackets.get(paren, -1) < end:
        return -1
    lead = _token_end(masked, start, paren)
    if lead - 3 < start or not _FOR_RE.match(masked, lead - 3, lead):
        return -1
    return _statement_end(masked, brackets[paren] + 1, end, brackets)


def _statement_end(masked: str, pos: int, end: int, brackets: dict[int, int]) -> int:
    """The offset of the last character of the statement from `pos`, before
    `end`: a block's `}`, the end of the body or last branch of an `if`,
    `for` or `while`, the `;` after a `do` body's `while (…)`, the `}` of an
    `assembly` block or of a `try`'s last `catch` block, else the first `;`
    outside brackets, or the character before a `}` that closes the block
    around it; an unclosed one runs to `end`."""
    lead = _STATEMENT_LEAD_RE.match(masked, pos, end)
    if masked.startswith("{", lead.end(), end):
        return min(brackets.get(lead.end(), end), end)
    if lead.group(1):
        if (close := brackets.get(lead.end(), end)) >= end:
            return end
        last = _statement_end(masked, close + 1, end, brackets)
        if lead.group(1) == "if" and (other := _ELSE_RE.match(masked, last + 1, end)):
            return _statement_end(masked, other.end(), end, brackets)
        return last
    keyword, at = lead.group(2), lead.end()
    if keyword == "do":
        at = _statement_end(masked, at, end, brackets) + 1
    while stop := _STATEMENT_STOP_RE.search(masked, at, end):
        if stop.group() in ";}":
            return stop.start() - (stop.group() == "}")
        if (close := brackets.get(stop.start(), end)) >= end:
            return end
        if stop.group() == "{" and keyword in ("try", "assembly") \
                and not (keyword == "try" and _CATCH_RE.match(masked, close + 1, end)):
            return close
        at = close + 1
    return end


def _fact_effect(masked: str, m: re.Match, start: int, end: int,
                 brackets: dict[int, int]) -> tuple[int, str, str] | None:
    """The effect of token `m`, a fact word, in the body masked[start:end], or
    None; a guard's is its `require` wherever it stands."""
    word, pos = m.group(), m.start()
    opener = _BRACE_RE if word in ("unchecked", "call") else _PLAIN_CALL_RE
    if not (shape := opener.match(masked, m.end(), end)) or word == "call" and not shape.group(1):
        return None
    if word == "unchecked":
        return (pos, "unchecked", "")
    close = match_brace(brackets, shape.end() - 1, end)
    if word == "if":
        if close < 0 or not _REVERT_RE.match(masked, close + 1, end):
            return None
        return (pos, "require", _negated(normalize_predicate(masked[shape.end():close])))
    if word != "require" and not masked.endswith(".", start, _token_end(masked, start, pos)):
        return None     # a fund move or an approval is a method call
    if word == "call" or word in _FUND_METHODS:
        return (pos, "fund", "call{value:" if word == "call" else word)
    if args := split_top_level(masked[shape.end():close]) if close >= 0 else []:
        return (pos, word if word == "require" else "approve", normalize_predicate(args[0]))


def _token_end(masked: str, start: int, pos: int) -> int:
    """The end of the token before offset `pos` in the body from `start`:
    `pos` less the whitespace, masked comments included, before it."""
    while pos > start and masked[pos - 1].isspace():
        pos -= 1
    return pos


def _block_runs(masked: str, start: int, open_pos: int) -> bool:
    """Whether the block that opens at `open_pos` runs whenever the code
    around it does: a bare one, which opens the body or follows a `;`, `{`
    or `}`, or an `unchecked` one that is no brace-less branch body; the
    body of an `if`, `else`, loop (`do` included), `try` or `catch` is none."""
    lead = _token_end(masked, start, open_pos)
    shape = _BLOCK_LEAD_RE.match(masked, lead)
    return lead == start or shape is not None and not (
        shape.group(1) and _BRANCH_END_RE.match(masked, _token_end(masked, start, shape.start(1))))


def _negated(cond: str) -> str:
    """The normal-form condition `cond` negated, as a `require` states it:
    its one top-level comparison flipped (`msg.sender!=owner` gives
    `msg.sender==owner`), a leading `!` dropped, or else `!(cond)`."""
    depth, ops = 0, []
    for m in _CONDITION_OP_RE.finditer(cond):
        depth += (m.group() in "([") - (m.group() in ")]")
        if depth == 0 and m.group() not in (")", "]", "<<", ">>"):
            ops.append(m)
    if len(ops) == 1 and (op := ops[0]).group() in _NEGATED:
        return cond[:op.start()] + _NEGATED[op.group()] + cond[op.end():]
    return cond[1:] if not ops and cond.startswith("!") else f"!({cond})"


def _classify_suffix(masked: str, pos: int, end: int, brackets: dict[int, int]) -> tuple[str, ...]:
    """Look past [index]/.member chains to decide read, write or both."""
    i, last_member = pos, ""
    while True:
        step = _SUFFIX_STEP_RE.match(masked, i, end)
        i = step.end()
        if step.group(1):
            close = match_brace(brackets, i - 1, end)
            i = close + 1 if close >= 0 else end
            last_member = ""
        elif step.group(2):
            last_member = step.group(2)
        else:
            break
    if masked.startswith("(", i, end):
        return ("write",) if last_member in _ARRAY_METHODS else ("read",)
    am = _ASSIGN_OP_RE.match(masked, i, end)
    if am:
        return ("write",) if am.group(1) == "=" else ("read", "write")
    return ("read",)
