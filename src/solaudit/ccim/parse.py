"""Pattern-based Solidity parser.

No AST: contracts, functions and state variables are recovered with regexes
plus balanced brace/paren scanning over a comment- and string-masked copy of
the source. Unparseable constructs degrade to empty field values with a
logged warning; they never abort the run. Assembly blocks are opaque text.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from dataclasses import dataclass, field

from ..ingest import AuditSource, blank, map_line, mask_noncode, pragma_ge_08
from .types import CallSite, FunctionRecord, inner_body

log = logging.getLogger(__name__)

_CONTRACT_RE = re.compile(
    r"(?:^|[\s;}])((abstract)\s+)?(contract|interface|library)\s+([A-Za-z_]\w*)\s*(is\s+([^{]+?))?\s*\{"
)
_FUNCTION_RE = re.compile(r"\b(function\s+([A-Za-z_]\w*)|constructor|receive|fallback)\s*\(")
# a modifier with a body: a bodiless `modifier m() virtual;` ends at its `;`
_MODIFIER_DEF_RE = re.compile(r"\bmodifier\s+([A-Za-z_]\w*)[^;{]*(?=\{)")
_STATE_VAR_RE = re.compile(
    r"(?m)^[ \t]*"
    r"(mapping\s*\((?:[^()]|\([^()]*\))*\)|[A-Za-z_]\w*(?:\s+payable)?(?:\s*\[\s*\w*\s*\])*)"
    r"((?:\s+(?:public|private|internal|constant|immutable|override|transient))*)"
    r"\s+([A-Za-z_]\w*)\s*(=[^;]*)?;"
)
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
_IDENT_RE = re.compile(r"(?<![\w.])[A-Za-z_]\w*")  # a whole identifier, not a member
_SPACE_RE = re.compile(r"\s+")
_NEWLINE_RE = re.compile("\n")
_VISIBILITY_RE = re.compile(r"\b(public|external|internal|private)\b")
_MUTABILITY_RE = re.compile(r"\b(view|pure|payable)\b")
_RETURNS_RE = re.compile(r"\breturns\s*\([^)]*\)")
_OVERRIDE_RE = re.compile(r"\boverride\s*\([^)]*\)")
# a header word with its optional (argument list): modifiers and keywords
_HEADER_TOKEN_RE = re.compile(r"([A-Za-z_]\w*)(\s*\(((?:[^()]|\([^()]*\))*)\))?")
_VALUE_LOCAL_RE = re.compile(r"\b(?:u?int\d*|bool|address|bytes\d*|byte|string)\s+([A-Za-z_]\w*)\s*=")
_LOCATED_LOCAL_RE = re.compile(r"\b(?:memory|calldata|storage)\s+([A-Za-z_]\w*)\b")
# what precedes a variable that a `delete` or a prefix ++/-- writes
_DELETE_BEFORE_RE = re.compile(r"\bdelete\s+$")
_INCDEC_BEFORE_RE = re.compile(r"(\+\+|--)\s*$")
_MEMBER_CALL_RE = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*\.\s*([A-Za-z_]\w*)\s*[({]")
_PLAIN_CALL_RE = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*\(")
_ASSIGN_OP_RE = re.compile(r"(=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)")
_COMPOUND_OP_RE = re.compile(r"(\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)")
_ELEMENTARY_RE = re.compile(r"^(u?int\d*|bool|bytes\d*|byte|string)(\[\s*\w*\s*\])*$")
# native ether leaving the contract; token transfers also move funds
NATIVE_OUT_RES = (
    re.compile(r"\.\s*transfer\s*\("),
    re.compile(r"\.\s*send\s*\("),
    re.compile(r"\.\s*call\s*\{\s*value\s*:"),
)
_FUND_RES = NATIVE_OUT_RES + (
    re.compile(r"\.\s*transferFrom\s*\("),
    re.compile(r"\.\s*safeTransfer\s*\("),
    re.compile(r"\.\s*safeTransferFrom\s*\("),
)
_BRACKET_RES = {pair: re.compile(f"[{re.escape(pair)}]") for pair in ("{}", "()", "[]")}
_NESTING_RE = re.compile(r"[([{]|[)\]}]|,")
_HEADER_END_RE = re.compile(r"[(){;]")
# one step along an [index] / .member chain after an identifier
_SUFFIX_STEP_RE = re.compile(r"[ \t]*(?:(\[)|\.\s*([A-Za-z_]\w*))?")
_REQUIRE_RE = re.compile(r"\brequire\s*\(")
_APPROVE_RE = re.compile(r"\.\s*(?:approve|safeApprove)\s*\(")


def normalize_predicate(text: str) -> str:
    """Whitespace-free, identifier-preserving normal form for guard and
    post-condition strings; set operations compare these forms."""
    return _SPACE_RE.sub("", text)


def match_brace(text: str, open_pos: int, pair: str = "{}") -> int:
    """Index of the bracket closing text[open_pos] == pair[0]; -1 if unbalanced.
    `pair` is one of "{}", "()" and "[]"."""
    depth = 0
    for m in _BRACKET_RES[pair].finditer(text, open_pos):
        depth += 1 if m.group() == pair[0] else -1
        if depth == 0:
            return m.start()
    return -1


def balanced(text: str, opener: re.Pattern, pair: str = "{}"):
    """(match, open, close) for every `opener` match in `text`: `open` is the
    first pair[0] at or after the match start and `close` the bracket closing
    it. A match whose bracket never closes is skipped."""
    for m in opener.finditer(text):
        open_pos = text.find(pair[0], m.start())
        if open_pos < 0:
            continue
        close = match_brace(text, open_pos, pair)
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


@dataclass
class StateVarDecl:
    name: str
    type_text: str
    has_initializer: bool
    line: int


@dataclass
class ContractDecl:
    name: str
    kind: str                      # contract | abstract | interface | library
    bases: tuple[str, ...]
    start: int                     # char offset of the declaration keyword
    open_pos: int                  # char offset of '{'
    close_pos: int                 # char offset of matching '}'
    state_vars: list[StateVarDecl] = field(default_factory=list)
    function_names: set[str] = field(default_factory=set)
    modifier_guards: dict[str, list[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class ParsedSource:
    """One audit source parsed once: the comment- and string-masked text, the
    line-start index, the raw lines and the contract declarations. Built per
    audit by `parse_source` and shared by parsing, resolution and the engines."""
    text: str
    masked: str
    line_starts: tuple[int, ...]
    lines: tuple[str, ...]
    decls: tuple[ContractDecl, ...]

    def line_of(self, pos: int) -> int:
        """1-based line of character offset `pos`."""
        return bisect_right(self.line_starts, pos)


def parse_source(text: str) -> ParsedSource:
    masked = mask_noncode(text)
    line_starts = (0, *(m.end() for m in _NEWLINE_RE.finditer(masked)))
    return ParsedSource(text=text, masked=masked, line_starts=line_starts,
                        lines=tuple(text.split("\n")),
                        decls=tuple(scan_contracts(masked, line_starts)))


def scan_contracts(masked: str, line_starts: tuple[int, ...]) -> list[ContractDecl]:
    """Locate every contract/interface/library declaration with its span."""
    decls: list[ContractDecl] = []
    for m in _CONTRACT_RE.finditer(masked):
        open_pos = m.end() - 1
        close_pos = match_brace(masked, open_pos)
        if close_pos < 0:
            log.warning("unbalanced braces after contract %s; declaration skipped", m.group(4))
            continue
        kind = "abstract" if m.group(2) else m.group(3)
        bases = []
        if m.group(6):
            for part in split_top_level(m.group(6)):
                ident = NAME_RE.match(part)
                if ident:
                    bases.append(ident.group(0))
        decl = ContractDecl(
            name=m.group(4), kind=kind, bases=tuple(bases),
            start=m.start(3), open_pos=open_pos, close_pos=close_pos,
        )
        inner = masked[open_pos + 1:close_pos]
        decl.state_vars = _scan_state_vars(inner, line_starts, open_pos + 1)
        decl.function_names = {fm.group(2) for fm in _FUNCTION_RE.finditer(inner) if fm.group(2)}
        decl.modifier_guards = _scan_modifier_guards(inner)
        decls.append(decl)
    return decls


def _blank_nested_blocks(inner: str) -> str:
    """Blank every brace-delimited block inside a contract body, leaving only
    contract-level declarations for the state-variable scan. The body was cut
    at its matching brace, so each block closes; one that did not would
    blank the rest."""
    out, pos = [], 0
    while (open_pos := inner.find("{", pos)) >= 0:
        close = match_brace(inner, open_pos)
        out.append(inner[pos:open_pos])
        pos = close + 1 if close >= 0 else len(inner)
        out.append(blank(inner[open_pos:pos]))
    out.append(inner[pos:])
    return "".join(out)


def _scan_state_vars(inner: str, line_starts: tuple[int, ...], base_offset: int) -> list[StateVarDecl]:
    flat = _blank_nested_blocks(inner)
    out = []
    for m in _STATE_VAR_RE.finditer(flat):
        type_text = " ".join(m.group(1).split())
        if type_text.split()[0] in _NON_TYPE_KEYWORDS:
            continue
        out.append(StateVarDecl(
            name=m.group(3),
            type_text=type_text,
            has_initializer=bool(m.group(4)) or "constant" in (m.group(2) or "") or "immutable" in (m.group(2) or ""),
            line=bisect_right(line_starts, base_offset + m.start()),
        ))
    return out


def _scan_modifier_guards(inner: str) -> dict[str, list[str]]:
    return {m.group(1): _extract_requires(inner[open_pos:close])
            for m, open_pos, close in balanced(inner, _MODIFIER_DEF_RE)}


def _extract_requires(body: str) -> list[str]:
    conds = []
    for _, open_pos, close in balanced(body, _REQUIRE_RE, "()"):
        args = split_top_level(body[open_pos + 1:close])
        if args:
            conds.append(normalize_predicate(args[0]))
    return conds


def is_elementary_type(type_text: str) -> bool:
    head = type_text.split()[0] if type_text else ""
    return bool(_ELEMENTARY_RE.match(head)) or type_text.startswith("mapping")


# ---------------------------------------------------------------------------
# function records


def parse_function_records(source: AuditSource,
                           parsed: ParsedSource | None = None) -> list[FunctionRecord]:
    """One record per function declaration of every contract in the audit
    source, with guards, reads/writes, call sites and fund flag populated.
    `parsed` defaults to `parse_source(source.text)`."""
    if not source.text.strip():
        return []
    if parsed is None:
        parsed = parse_source(source.text)
    by_name = {d.name: d for d in parsed.decls}
    records: list[FunctionRecord] = []
    for decl in parsed.decls:
        visible_vars = _visible_state_vars(decl, by_name)
        records.extend(_parse_contract_functions(decl, parsed, visible_vars, source))
    return records


def ancestors_of(name: str, by_name: dict[str, ContractDecl]) -> list[str]:
    """Transitive base contracts/interfaces of `name`, excluding itself."""
    seen: list[str] = []
    frontier = list(by_name[name].bases) if name in by_name else []
    while frontier:
        base = frontier.pop(0)
        if base in seen or base == name:
            continue
        seen.append(base)
        if base in by_name:
            frontier.extend(by_name[base].bases)
    return seen


def _visible_state_vars(decl: ContractDecl, by_name: dict[str, ContractDecl]) -> dict[str, str]:
    """State variables declared by the contract or its ancestors: name -> type."""
    visible: dict[str, str] = {}
    for ancestor in reversed(ancestors_of(decl.name, by_name)):
        if ancestor in by_name:
            for sv in by_name[ancestor].state_vars:
                visible[sv.name] = sv.type_text
    for sv in decl.state_vars:
        visible[sv.name] = sv.type_text
    return visible


def _parse_contract_functions(decl, parsed, visible_vars, source):
    inner_start = decl.open_pos + 1
    inner = parsed.masked[inner_start:decl.close_pos]
    default_vis = "external" if decl.kind == "interface" else "public"
    pos = 0
    while True:
        m = _FUNCTION_RE.search(inner, pos)
        if not m:
            return
        name = m.group(2) or m.group(1)  # constructor/receive/fallback keep keyword name
        params_open = m.end() - 1
        params_close = match_brace(inner, params_open, "()")
        if params_close < 0:
            log.warning("unbalanced parameter list in %s.%s; skipped", decl.name, name)
            pos = m.end()
            continue
        header_end, has_body = _find_header_end(inner, params_close + 1)
        if header_end < 0:
            log.warning("unterminated declaration %s.%s; skipped", decl.name, name)
            pos = m.end()
            continue
        if has_body:
            body_close = match_brace(inner, header_end)
            if body_close < 0:
                log.warning("unbalanced braces in %s.%s; skipped to next declaration", decl.name, name)
                pos = header_end + 1
                continue
            decl_end = body_close
        else:
            decl_end = header_end
        pos = decl_end + 1
        abs_start = inner_start + m.start()
        abs_end = inner_start + decl_end
        try:
            yield _build_record(
                decl, name, parsed, visible_vars, source,
                abs_start=abs_start, abs_end=abs_end,
                params_text=inner[params_open + 1:params_close],
                header_text=inner[params_close + 1:header_end],
                body_span=(inner_start + header_end, inner_start + decl_end) if has_body else None,
                default_vis=default_vis,
            )
        except Exception as exc:  # per-component isolation: degrade, never abort
            log.warning("parse failure in %s.%s (%s); emitting degraded record", decl.name, name, exc)
            yield FunctionRecord(
                name=name, owner=decl.name, vis=default_vis, mut="nonpayable",
                modifiers=(), guards=(), reads=frozenset(), writes=frozenset(),
                call_sites=(), fund_flag=False,
                src=(parsed.line_of(abs_start), parsed.line_of(abs_end)),
                internal_calls=frozenset(), **_bodies(parsed, abs_start, abs_end),
            )


def _find_header_end(inner: str, pos: int) -> tuple[int, bool]:
    """Scan past modifiers/returns to the body '{' or the terminating ';'."""
    depth = 0
    for m in _HEADER_END_RE.finditer(inner, pos):
        c = m.group()
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0:
            return m.start(), c == "{"
    return -1, False


def _parse_header(header: str, default_vis: str) -> tuple[str, str, tuple[str, ...]]:
    vis_m = _VISIBILITY_RE.search(header)
    mut_m = _MUTABILITY_RE.search(header)
    stripped = _RETURNS_RE.sub(" ", header)
    stripped = _OVERRIDE_RE.sub(" ", stripped)
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


def _bodies(parsed: ParsedSource, abs_start: int, abs_end: int) -> dict[str, str]:
    """The raw declaration text and its masked forms. A declaration starts at
    code, so a slice of the shared mask equals masking the slice; so does a cut
    of the inner body at two code braces. Any other cut is masked on its own."""
    body = parsed.text[abs_start:abs_end + 1]
    masked = parsed.masked[abs_start:abs_end + 1]
    i, j = body.find("{"), body.rfind("}")
    if 0 <= i < j and masked[i] == "{" and masked[j] == "}":
        masked_inner = masked[i + 1:j]
    else:
        masked_inner = mask_noncode(inner_body(body))
    return {"body": body, "masked_body": masked, "masked_inner": masked_inner}


def _build_record(decl, name, parsed, visible_vars, source, *,
                  abs_start, abs_end, params_text, header_text, body_span, default_vis):
    text, masked = parsed.text, parsed.masked
    vis, mut, modifiers = _parse_header(header_text, default_vis)
    params = _param_names(params_text)
    start_line = parsed.line_of(abs_start)
    end_line = parsed.line_of(abs_end)
    signature = " ".join(text[abs_start:abs_start + (body_span[0] - abs_start if body_span else abs_end - abs_start)].split())

    guards: list[str] = []
    reads: set[str] = set()
    writes: set[str] = set()
    call_sites: list[CallSite] = []
    internal: set[str] = set()
    fund = False

    if body_span:
        inner_masked = masked[body_span[0] + 1:body_span[1]]
        base = body_span[0] + 1
        guards = _extract_requires(inner_masked)
        shadowed = set(params) | _local_names(inner_masked)
        reads, writes = _reads_writes(inner_masked, visible_vars, shadowed)
        call_sites = _call_sites(inner_masked, base, parsed, visible_vars)
        internal = _internal_calls(inner_masked, decl.function_names, name, visible_vars)
        fund = any(r.search(inner_masked) for r in _FUND_RES)

    # modifier bodies contribute their require conditions to the guard set
    for mod in modifiers:
        mod_name = mod.split("(")[0]
        guards.extend(decl.modifier_guards.get(mod_name, []))

    path, _ = map_line(source.offsets, start_line) if source.offsets.segments else ("", 0)
    return FunctionRecord(
        name=name, owner=decl.name, vis=vis, mut=mut, modifiers=modifiers,
        guards=tuple(dict.fromkeys(guards)),
        reads=frozenset(reads), writes=frozenset(writes),
        call_sites=tuple(call_sites), fund_flag=fund,
        src=(start_line, end_line), internal_calls=frozenset(internal),
        **_bodies(parsed, abs_start, abs_end), params=params, signature=signature,
        natspec=_natspec_above(parsed.lines, start_line),
        pragma_ge_08=pragma_ge_08(source.pragmas.get(path)),
    )


def _local_names(body: str) -> set[str]:
    locals_: set[str] = set()
    for m in _VALUE_LOCAL_RE.finditer(body):
        locals_.add(m.group(1))
    for m in _LOCATED_LOCAL_RE.finditer(body):
        locals_.add(m.group(1))
    return locals_


def _reads_writes(body: str, visible_vars: dict[str, str], shadowed: set[str]) -> tuple[set[str], set[str]]:
    reads: set[str] = set()
    writes: set[str] = set()
    for m in _IDENT_RE.finditer(body):
        var = m.group()
        if var not in visible_vars or var in shadowed:
            continue
        before = body[max(0, m.start() - 8):m.start()]
        if _DELETE_BEFORE_RE.search(before):
            writes.add(var)
            continue
        if _INCDEC_BEFORE_RE.search(before):
            writes.add(var)
            reads.add(var)
            continue
        kind = _classify_suffix(body, m.end())
        if kind == "write":
            writes.add(var)
        elif kind == "readwrite":
            writes.add(var)
            reads.add(var)
        else:
            reads.add(var)
    return reads, writes


def _classify_suffix(body: str, pos: int) -> str:
    """Look past [index]/.member chains to decide read vs write."""
    i, last_member = pos, ""
    while True:
        step = _SUFFIX_STEP_RE.match(body, i)
        i = step.end()
        if step.group(1):
            close = match_brace(body, i - 1, "[]")
            i = close + 1 if close >= 0 else len(body)
            last_member = ""
        elif step.group(2):
            last_member = step.group(2)
        else:
            break
    if body.startswith("(", i):
        return "write" if last_member in _ARRAY_METHODS else "read"
    am = _ASSIGN_OP_RE.match(body[i:])
    if am:
        return "readwrite" if _COMPOUND_OP_RE.match(am.group(1)) else "write"
    return "read"


def _call_sites(body: str, base: int, parsed: ParsedSource, visible_vars: dict[str, str]) -> list[CallSite]:
    sites: list[CallSite] = []
    for m in _MEMBER_CALL_RE.finditer(body):
        target, method = m.group(1), m.group(2)
        if target in _BUILTIN_TARGETS or target not in visible_vars or method in _ARRAY_METHODS:
            continue
        if is_elementary_type(visible_vars[target]) and visible_vars[target] != "address":
            continue  # arrays, mappings and value types are not callees
        sites.append(CallSite(target=target, method=method, line=parsed.line_of(base + m.start(1))))
    return sites


def _internal_calls(body: str, fn_names: set[str], self_name: str, visible_vars: dict[str, str]) -> set[str]:
    out: set[str] = set()
    for m in _PLAIN_CALL_RE.finditer(body):
        callee = m.group(1)
        if callee in fn_names and callee not in visible_vars and callee not in _NON_TYPE_KEYWORDS:
            out.add(callee)
    return out


def extract_approval_recipients(record: FunctionRecord, state_vars: set[str]) -> frozenset[str]:
    """Storage variables passed as the recipient argument of approve/safeApprove
    call sites inside `record`."""
    body = record.masked_body
    out: set[str] = set()
    for _, open_paren, close in balanced(body, _APPROVE_RE, "()"):
        args = split_top_level(body[open_paren + 1:close])
        if args and NAME_RE.fullmatch(args[0]) and args[0] in state_vars:
            out.add(args[0])
    return frozenset(out)
