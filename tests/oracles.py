"""Independent brute-force oracles for the fixpoint, security-view,
clustering, mask, bracket, scan, effect, fund-movement, pair-selection,
inheritance and phase C skip checks.
These deliberately use different algorithms than the implementations they
verify and must stay that way. `chunks_of_sizes` is the exception: it keeps the prompt packer as
it was before members had shared parts, which the packer must still equal
when every member is one part of its own."""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from solaudit.ccim import CcimModel, FnKey, FunctionRecord, parse
from solaudit.engines import COUNTER_STEMS, MergedSignals
from solaudit.interaction import (
    ATTENTION_THRESHOLD,
    SOURCE_CONFIDENCE,
    _auditable,
    _low_risk_contracts,
    _reasoner_triage,
)
from solaudit.reasoner import DEFAULT_CHAR_BUDGET, Reasoner


def reachable_internal(record: FunctionRecord, records: list[FunctionRecord]) -> list:
    """All records reachable from `record` through same-contract internal
    calls, including itself and every overload of each name reached: a call
    by name reaches each overload (plain BFS over names)."""
    own = [r for r in records if r.owner == record.owner]
    seen = {record.name}
    frontier = [record.name]
    while frontier:
        name = frontier.pop()
        for current in own:
            if current.name != name:
                continue
            for callee in current.internal_calls:
                if callee not in seen and any(r.name == callee for r in own):
                    seen.add(callee)
                    frontier.append(callee)
    return [r for r in own if r.name in seen]


def brute_force_footprints(records: list[FunctionRecord]):
    """Per function key, the reads, writes and fund flag of every record its
    overloads reach."""
    reads, writes, fund = {}, {}, {}
    for r in records:
        closure = reachable_internal(r, records)
        reads[r.key] = frozenset().union(*(g.reads for g in closure))
        writes[r.key] = frozenset().union(*(g.writes for g in closure))
        fund[r.key] = any(g.fund_flag for g in closure)
    return reads, writes, fund


def _value_type(type_text: str, contracts: set[str]) -> bool:
    """Whether a declared type is a value type that no `storage` pointer can
    alias: an elementary type other than `string` and `bytes`, spelled out
    token by token, or a contract or interface of the audit."""
    if type_text in contracts or type_text in ("bool", "address", "address payable", "byte"):
        return True
    for stem in ("uint", "int", "bytes"):
        if type_text.startswith(stem):
            digits = type_text[len(stem):]
            return digits.isdigit() or (digits == "" and stem != "bytes")
    return False


def _blank_body(record: FunctionRecord) -> bool:
    """Whether the record's declaration ends in a `{...}` body that holds
    nothing but comments and whitespace: the `{` that the last `}` closes,
    searched one brace at a time over the record's own masked text."""
    masked = brute_force_mask(record.body).rstrip()
    if not masked.endswith("}"):
        return False
    for pos, c in enumerate(masked):
        if c == "{" and brute_force_close(masked, pos, len(masked)) == len(masked) - 1:
            return not masked[pos + 1:-1].strip()
    return False


def phase_c_subjects(ccim: CcimModel) -> set[tuple[str, str]]:
    """(kind, subject) of every review phase C holds: each variable of two or
    more touchers and each callee of the call graph, less the variables that
    only constructors write and whose declared type is a value type, and
    less the callees whose every overload has a blank body, no modifier and
    no `payable`. Writers come from `brute_force_footprints`, types from the
    contract declarations."""
    reads, writes, _ = brute_force_footprints(list(ccim.records))
    writers, touchers = {}, {}
    for key, names in writes.items():
        for name in names:
            var = ccim.resolution.var_id(key[0], name)
            writers.setdefault(var, set()).add(key)
            touchers.setdefault(var, set()).add(key)
    for key, names in reads.items():
        for name in names:
            touchers.setdefault(ccim.resolution.var_id(key[0], name), set()).add(key)
    contracts = {d.name for d in ccim.parsed.decls if d.kind != "library"}
    types = {f"{d.name}.{sv.name}": sv.type_text for d in ccim.parsed.decls for sv in d.state_vars}
    out = set()
    for var, keys in touchers.items():
        set_once = (var in writers and all(name == "constructor" for _, name in writers[var])
                    and _value_type(types.get(var, ""), contracts))
        if len(keys) >= 2 and not set_once:
            out.add(("var", var))
    for _, callee in ccim.graph.edges:
        records = [r for r in ccim.records if r.key == callee]
        inert = records and all(not r.modifiers and r.mut != "payable" and _blank_body(r)
                                for r in records)
        if not inert:
            out.add(("call", f"{callee[0]}.{callee[1]}"))
    return out


def brute_force_rot(ccim: CcimModel) -> set[str]:
    all_vars = set(ccim.deps.writers) | set(ccim.deps.readers) | set(ccim.deps.consumers)
    out = set()
    for v in all_vars:
        admin_writable = any(w in ccim.admin_set for w in ccim.deps.writers.get(v, frozenset()))
        consumed = bool(ccim.deps.consumers.get(v, frozenset()))
        if admin_writable and consumed:
            out.add(v)
    return out


def brute_force_callbacks(ccim: CcimModel) -> set[tuple[str, str]]:
    out = set()
    contracts = {c for edge in ccim.graph.contract_edges for c in edge}
    for c1 in contracts:
        for c2 in contracts:
            if c1 < c2 and (c1, c2) in ccim.graph.contract_edges \
                    and (c2, c1) in ccim.graph.contract_edges:
                out.add((c1, c2))
    return out


def brute_force_trustgap(ccim: CcimModel) -> set[tuple[str, str]]:
    out = set()
    for (c1, c2) in ccim.graph.contract_edges:
        assumed = ccim.trust.assumes.get((c1, c2), frozenset())
        enforced = ccim.trust.enforces.get((c2, c1), frozenset())
        if any(p not in enforced for p in assumed):
            out.add((c1, c2))
    return out


def brute_force_mask(text: str) -> str:
    """Blank comments and string-literal contents one character at a time:
    the character loop that `mask_noncode`'s one regex substitution replaced."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                if i < n and text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def brute_force_line_of(text: str, pos: int) -> int:
    """1-based line of offset `pos`, by counting the newlines before it."""
    return text.count("\n", 0, pos) + 1


def brute_force_partition(findings, cards) -> set[frozenset[str]]:
    """O(n^2) pairwise card-equality grouping, independent of the dict-keyed
    implementation."""
    ids = [f.id for f in findings]
    clusters: list[set[str]] = []
    for fid in ids:
        placed = False
        for cluster in clusters:
            member = next(iter(cluster))
            if cards[fid].cluster_key() == cards[member].cluster_key():
                cluster.add(fid)
                placed = True
                break
        if not placed:
            clusters.append({fid})
    return {frozenset(c) for c in clusters}


def _canonical(a: FnKey, b: FnKey) -> tuple[FnKey, FnKey]:
    return (a, b) if a <= b else (b, a)


@dataclass
class Nomination:
    """A nominated pair with the sources that named it and its tier, the
    highest confidence among them: provenance that only the tests keep."""
    pair: tuple[FnKey, FnKey]
    sources: set[str] = field(default_factory=set)
    tier: float = 0.0


# the attention score's weight per shared written variable
ATTENTION_SHARED_WRITE_BONUS = 0.5


def brute_force_select_pairs(ccim: CcimModel, merged: MergedSignals, reasoner: Reasoner,
                             budget: int = DEFAULT_CHAR_BUDGET) -> list[Nomination]:
    """`interaction.select_pairs` as it was before top-`max_pairs` selection:
    a nomination for every source that names a pair, every pair of records
    intersected for shared writes, and the full list sorted. Slice its pairs
    to compare with a limited selection."""
    records = _auditable(ccim)
    candidates: dict[tuple[FnKey, FnKey], Nomination] = {}

    def nominate(a: FnKey, b: FnKey, source: str):
        if a == b:
            return
        key = _canonical(a, b)
        cand = candidates.setdefault(key, Nomination(pair=key))
        cand.sources.add(source)
        cand.tier = max(cand.tier, SOURCE_CONFIDENCE[source])

    # (iii) shared-state: both functions write the same storage variable
    writes = [(r.key, ccim.writes_q(r.key)) for r in records]
    shared_writes: dict[tuple[FnKey, FnKey], int] = {}
    for i, (a, wa) in enumerate(writes):
        if not wa:
            continue
        for b, wb in writes[i + 1:]:
            shared = wa & wb
            if shared:
                nominate(a, b, "SHARED_STATE")
                shared_writes[_canonical(a, b)] = len(shared)

    # (ii) counter-pairs by naming idiom, same contract
    by_owner: dict[str, list[FunctionRecord]] = {}
    for r in records:
        by_owner.setdefault(r.owner, []).append(r)
    for owner, recs in by_owner.items():
        for a_stem, b_stem in COUNTER_STEMS:
            a_side = [r for r in recs if r.name.lower().startswith(a_stem)]
            b_side = [r for r in recs if r.name.lower().startswith(b_stem)]
            for ra in a_side:
                for rb in b_side:
                    nominate(ra.key, rb.key, "COUNTER")

    # (i) attention hotspots: signal mass plus shared-write coupling
    signal_conf: dict[FnKey, float] = {}
    for s in merged.retained:
        if s.function:
            signal_conf[s.function] = signal_conf.get(s.function, 0.0) + s.confidence
    relations = set(shared_writes) | {_canonical(f, g) for f, g in ccim.graph.edges}
    for a, b in sorted(relations):
        score = (signal_conf.get(a, 0.0) + signal_conf.get(b, 0.0)
                 + ATTENTION_SHARED_WRITE_BONUS * shared_writes.get((a, b), 0))
        if score >= ATTENTION_THRESHOLD:
            nominate(a, b, "HOTSPOT")

    # (iv) triage pairs: signal-bearing functions sharing a parameter, a state
    # read, or a trust boundary; a function's parameters are those of any
    # of its overloads
    flagged = sorted(signal_conf)
    for i, a in enumerate(flagged):
        params_a = {p for r in ccim.records if r.key == a for p in r.params}
        if not any(r.key == a for r in ccim.records):
            continue
        for b in flagged[i + 1:]:
            if not any(r.key == b for r in ccim.records):
                continue
            params_b = {p for r in ccim.records if r.key == b for p in r.params}
            shares_param = bool(params_a & params_b)
            shares_read = bool(ccim.reads_q(a) & ccim.reads_q(b))
            edge = (a, b) in ccim.graph.edges or (b, a) in ccim.graph.edges
            gap = (a[0], b[0]) in ccim.trust.trustgap or (b[0], a[0]) in ccim.trust.trustgap
            if shares_param or shares_read or edge or gap:
                nominate(a, b, "TRIAGE")

    # (v) reasoner triage for contracts with no high-severity signals
    low_risk = _low_risk_contracts(ccim, merged)
    if low_risk:
        for a, b in _reasoner_triage(ccim, low_risk, reasoner, budget):
            nominate(a, b, "LLM_TRIAGE")

    return sorted(candidates.values(), key=lambda c: (-c.tier, c.pair))


def brute_force_close(text: str, open_pos: int, end: int) -> int:
    """Offset of the bracket closing text[open_pos] before `end`, or -1: a
    depth count over that bracket kind, one character at a time from
    `open_pos`, as every brace match walked before the bracket index."""
    opener = text[open_pos]
    closer = {"(": ")", "[": "]", "{": "}"}[opener]
    depth = 0
    for i in range(open_pos, end):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return i
    return -1


# The substrate's scans in their unanchored forms: a pattern that starts with
# `\b`, a lookbehind, a multiline `^` or a set of first letters, tried at every
# character or every one of those letters. Each is the reference for the
# keyword-anchored pattern, the keyword passes or the gated scan that
# replaced it, keyed by module and name.
UNANCHORED = {
    ("ccim.parse", "_CONTRACT_RE"):
        r"(?:^|[\s;}])((abstract)\s+)?(contract|interface|library)\s+([A-Za-z_]\w*)\s*(is\s+([^{]+?))?\s*\{",
    ("ccim.parse", "_FUNCTION_RE"): r"\b(function\s+([A-Za-z_]\w*)|constructor|receive|fallback)\s*\(",
    ("ccim.parse", "_MODIFIER_DEF_RE"): r"\bmodifier\s+([A-Za-z_]\w*)[^;{]*(?=\{)",
    ("ccim.parse", "_STATE_VAR_RE"):
        r"(?m)(?:^|(?<=;))[ \t]*"
        r"(mapping\s*\((?:[^()]|\([^()]*\))*\)|[A-Za-z_]\w*(?:\s+payable)?(?:\s*\[\s*\w*\s*\])*)"
        r"((?:\s+(?:public|private|internal|constant|immutable|override|transient))*)"
        r"\s+([A-Za-z_]\w*)\s*(=[^;]*)?;",
    ("ccim.parse", "_RETURNS_RE"): r"\breturns\s*\([^)]*\)",
    ("ccim.parse", "_OVERRIDE_RE"): r"\boverride\s*\([^)]*\)",
    ("ccim.build", "_RETURN_RE"): r"\breturn\b([^;]*);",
    ("ccim.build", "_EMIT_RE"): r"\bemit\s+([A-Za-z_]\w*\s*\()",
    ("engines.bva", "_POW_RE"): r"\b(\d+)\s*\*\*\s*(\d+)\b",
    ("engines.bva", "_LITERAL_OP_RE"): r"\b(\d+(?:\.\d+)?e\d+|\d+)\s*(\*|-)\s*(\d+(?:\.\d+)?e\d+|\d+)",
    ("engines.patterns", "_ASSEMBLY_RE"): r"\bassembly\s*(?:\([^)]*\)\s*)?\{",
    ("ccim.parse", "UNCHECKED_RE"): r"\bunchecked\s*\{",
    ("engines.patterns", "_ECRECOVER_RE"): r"\becrecover\s*\(",
    ("engines.patterns", "_DOWNCAST_RE"): r"\b(u?int(?:8|16|32|64|96|128))\s*\(\s*[A-Za-z_]",
    ("engines.patterns", "_DIV_THEN_MUL_RE"): r"[\w\)\]]\s*/\s*[\w\(][\w\.\(\)\[\]]*\s*\*",
    ("ingest", "DECL_RE"): r"(?:^|[\s;}])((abstract)\s+)?(contract|interface|library)\s+([A-Za-z_]\w*)",
    ("interaction", "_STEP_RE"): r"\bstep\b",
    ("funnel", "_EXTERNAL_CALL_CLAIM_RE"): r"\bexternal call\b|\bcalls? out\b",
}
UNANCHORED_CLAIMS = {   # findings._CLAIM_RES, by claim type
    "EVM_RACE": r"\brace condition\b|\bevm race\b",
    "REENTRANCY": r"\breentran",
    "INTEGER_OVERFLOW_GE08": r"\boverflow\b|\bunderflow\b|\bwrap[- ]?around\b",
}

# the fund-movement scans as separate searches, one per call shape: the
# references for the `fund` effects of native ether (`parse.NATIVE_OUT`) and
# for all of them
NATIVE_OUT_RES = (
    re.compile(r"\.\s*transfer\s*\("),
    re.compile(r"\.\s*send\s*\("),
    re.compile(r"\.\s*call\s*\{\s*value\s*:"),
)
FUND_RES = NATIVE_OUT_RES + (
    re.compile(r"\.\s*transferFrom\s*\("),
    re.compile(r"\.\s*safeTransfer\s*\("),
    re.compile(r"\.\s*safeTransferFrom\s*\("),
)

# the scans of a body for its guards and approvals that the effect pass
# replaced, unanchored
_REQUIRE_RE = re.compile(r"\brequire\s*\(")
_APPROVE_RE = re.compile(r"\.\s*(?:approve|safeApprove)\s*\(")


def _first_arguments(body: str, opener: re.Pattern) -> list[str]:
    """The first argument of each `opener` match in `body` whose `(` closes."""
    found = []
    for m in opener.finditer(body):
        open_pos = m.end() - 1
        close = brute_force_close(body, open_pos, len(body))
        if close >= 0 and (args := parse.split_top_level(body[open_pos + 1:close])):
            found.append(args[0])
    return found


def separate_fact_scans(body: str) -> tuple[list[str], bool, bool, bool, list[str]]:
    """(guards, unchecked, fund, native out, approval arguments) of a whole
    body, from one scan per fact as the parser and its readers made them
    before the effect pass: the first argument of each `require` and each
    approval, in normal form, an `unchecked` block, a fund-moving call and a
    native-ether one."""
    guards, approvals = ([parse.normalize_predicate(arg) for arg in _first_arguments(body, rx)]
                         for rx in (_REQUIRE_RE, _APPROVE_RE))
    return (guards, re.search(UNANCHORED["ccim.parse", "UNCHECKED_RE"], body) is not None,
            any(rx.search(body) for rx in FUND_RES), any(rx.search(body) for rx in NATIVE_OUT_RES),
            approvals)


# the function-body helpers that one identifier pass replaced
_IDENT_RE = re.compile(r"(?<![\w.])[A-Za-z_]\w*")
_VALUE_LOCAL_RE = re.compile(r"\b(?:u?int\d*|bool|address|bytes\d*|byte|string)\s+([A-Za-z_]\w*)\s*=")
_LOCATED_LOCAL_RE = re.compile(r"\b(?:memory|calldata|storage)\s+([A-Za-z_]\w*)\b")
_FOR_HEADER_RE = re.compile(r"\bfor\s*\(")
_DELETE_BEFORE_RE = re.compile(r"\bdelete$")
_INCDEC_BEFORE_RE = re.compile(r"(\+\+|--)$")
_MEMBER_CALL_RE = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*\.\s*([A-Za-z_]\w*)\s*[({]")
_PLAIN_CALL_RE = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*\(")
_SUFFIX_STEP_RE = re.compile(r"[ \t]*(?:(\[)|\.\s*([A-Za-z_]\w*))?")
_ASSIGN_OP_RE = re.compile(r"(=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)")
_COMPOUND_OP_RE = re.compile(r"(\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)")


def _block_end(body: str, pos: int) -> int:
    """The end of the innermost `{ … }` block around `pos`, or of the body:
    each `{` before `pos`, nearest first, closed with `brute_force_close`; an
    unclosed one runs to the end."""
    for open_pos in range(pos - 1, -1, -1):
        if body[open_pos] == "{":
            close = brute_force_close(body, open_pos, len(body))
            if close < 0 or close > pos:
                return len(body) if close < 0 else close
    return len(body)


def _scope_end(body: str, pos: int) -> int:
    """The end of the scope of a local named at `pos`: for one in a `for`
    header, the loop statement (`_statement_stop`); else the innermost block
    around it (`_block_end`)."""
    for m in _FOR_HEADER_RE.finditer(body):
        close = brute_force_close(body, m.end() - 1, len(body))
        if m.end() <= pos < close:
            return _statement_stop(body, close + 1)
    return _block_end(body, pos)


def _statement_stop(body: str, i: int) -> int:
    """The offset of the last character of the statement at body[i:], or the
    body's length when it does not end: a braced block to its `}`, an `if`,
    `for` or `while` through its body and an `if`'s `else`, a `do` through
    its body and `while (…);`, an `assembly` through its block and a `try`
    through its blocks and every `catch`; any other statement to its first
    `;` outside brackets, or to just before a `}` that closes the block
    around it."""
    i += len(body[i:]) - len(body[i:].lstrip())
    word = re.match(r"[A-Za-z_]\w*", body[i:])
    word = word.group() if word else ""
    after = i + len(word) + len(body[i + len(word):]) - len(body[i + len(word):].lstrip())
    if body.startswith("{", i) or word == "unchecked" and body.startswith("{", after):
        close = brute_force_close(body, after if word else i, len(body))
        return len(body) if close < 0 else close
    if word in ("if", "for", "while") and body.startswith("(", after):
        close = brute_force_close(body, after, len(body))
        if close < 0:
            return len(body)
        last = _statement_stop(body, close + 1)
        rest = body[last + 1:]
        if word == "if" and re.match(r"\s*else(?!\w)", rest):
            return _statement_stop(body, last + 1 + rest.index("else") + 4)
        return last
    j = _statement_stop(body, after) + 1 if word == "do" else i
    while j < len(body):
        if body[j] == ";":
            return j
        if body[j] == "}":
            return j - 1
        if body[j] in "([{":
            close = brute_force_close(body, j, len(body))
            if close < 0:
                return len(body)
            if body[j] == "{" and (word == "assembly" or word == "try"
                                   and not re.match(r"\s*catch(?!\w)", body[close + 1:])):
                return close
            j = close
        j += 1
    return len(body)


def separate_scans(body: str, visible_vars: dict[str, str], fn_names: set[str],
                   params: tuple[str, ...]):
    """`ccim.parse.scan_body`'s (locals, reads, writes, calls, internal) for a
    whole body, from one scan per result as the parser made them before. A
    param shadows state in the whole body, a local from its name to the end
    of the block it is declared in, and a `for` header's to the end of the
    loop (`_scope_end`)."""
    scopes = [(m.group(1), m.start(1), _scope_end(body, m.start(1)))
              for rx in (_VALUE_LOCAL_RE, _LOCATED_LOCAL_RE) for m in rx.finditer(body)]
    reads, writes = set(), set()
    for m in _IDENT_RE.finditer(body):
        var = m.group()
        if var not in visible_vars or var in params or any(
                name == var and since <= m.start() < until for name, since, until in scopes):
            continue
        before = body[:m.start()].rstrip()
        if _DELETE_BEFORE_RE.search(before):
            kind = "write"
        elif _INCDEC_BEFORE_RE.search(before):
            kind = "readwrite"
        else:
            kind = _suffix_kind(body, m.end())
        if kind != "read":
            writes.add(var)
        if kind != "write":
            reads.add(var)
    calls = []
    for m in _MEMBER_CALL_RE.finditer(body):
        target, method = m.group(1), m.group(2)
        if target in parse._BUILTIN_TARGETS or target not in visible_vars or method in parse._ARRAY_METHODS:
            continue
        if parse.is_elementary_type(visible_vars[target]) and visible_vars[target] != "address":
            continue
        calls.append((target, method, m.start(1)))
    internal = {m.group(1) for m in _PLAIN_CALL_RE.finditer(body)
                if m.group(1) in fn_names and m.group(1) not in visible_vars
                and m.group(1) not in parse._NON_TYPE_KEYWORDS}
    return {name for name, _, _ in scopes}, reads, writes, calls, internal


def _suffix_kind(body: str, pos: int) -> str:
    i, last_member = pos, ""
    while True:
        step = _SUFFIX_STEP_RE.match(body, i)
        i = step.end()
        if step.group(1):
            close = brute_force_close(body, i - 1, len(body))
            i = close + 1 if close >= 0 else len(body)
            last_member = ""
        elif step.group(2):
            last_member = step.group(2)
        else:
            break
    if body.startswith("(", i):
        return "write" if last_member in parse._ARRAY_METHODS else "read"
    am = _ASSIGN_OP_RE.match(body[i:])
    if am:
        return "readwrite" if _COMPOUND_OP_RE.match(am.group(1)) else "write"
    return "read"


def state_vars_blanked_in_place(masked: str, open_pos: int, close_pos: int,
                                line_starts: tuple[int, ...]) -> list[tuple[str, str, bool, int]]:
    """(name, type, initialized, line) of each state variable of the contract
    body masked[open_pos + 1:close_pos], scanned as the parser did before it
    cut nested blocks down to their newlines: every block blanked in place,
    the unanchored pattern, the line looked up by offset."""
    inner = masked[open_pos + 1:close_pos]
    out, pos = [], 0
    while (start := inner.find("{", pos)) >= 0:
        close = brute_force_close(inner, start, len(inner))
        out.append(inner[pos:start])
        pos = close + 1 if close >= 0 else len(inner)
        out.append("".join(c if c == "\n" else " " for c in inner[start:pos]))
    flat = "".join(out) + inner[pos:]
    found = []
    for m in re.finditer(UNANCHORED["ccim.parse", "_STATE_VAR_RE"], flat):
        type_text = " ".join(m.group(1).split())
        if type_text.split()[0] in parse._NON_TYPE_KEYWORDS:
            continue
        modifiers = m.group(2) or ""
        found.append((m.group(3), type_text,
                      bool(m.group(4)) or "constant" in modifiers or "immutable" in modifiers,
                      bisect_right(line_starts, open_pos + 1 + m.start())))
    return found


class InheritanceWalks(NamedTuple):
    lineage: dict[str, tuple[str, ...]]
    visible_types: list[dict[str, str]]      # per declaration: name -> type
    inheritance: set[tuple[str, str]]
    var_origin: dict[tuple[str, str], str]
    type_map: dict[str, str]
    initialized: set[str]                    # qualified ids with an initializer


def separate_inheritance_walks(decls) -> InheritanceWalks:
    """What each reader of a contract's inheritance found by walking it on
    its own, before the parse kept one view: the body scan walked the
    ancestors in reverse, the last write winning and the contract's own
    declarations written last; the resolution map walked the contract and
    then its ancestors, the first write winning; BVA qualified every
    declaration's initialized state by its declaring contract."""
    by_name = {d.name: d for d in decls}

    def ancestors_of(name: str) -> list[str]:
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

    visible_types = []
    for d in decls:
        visible: dict[str, str] = {}
        for ancestor in reversed(ancestors_of(d.name)):
            if ancestor in by_name:
                for sv in by_name[ancestor].state_vars:
                    visible[sv.name] = sv.type_text
        for sv in d.state_vars:
            visible[sv.name] = sv.type_text
        visible_types.append(visible)

    inheritance = {(d.name, d.name) for d in decls}
    var_origin: dict[tuple[str, str], str] = {}
    type_map: dict[str, str] = {}
    for d in decls:
        inheritance.update((anc, d.name) for anc in ancestors_of(d.name))
        for holder_name in [d.name] + ancestors_of(d.name):
            holder = by_name.get(holder_name)
            if holder is None:
                continue
            for sv in holder.state_vars:
                key = (d.name, sv.name)
                if key not in var_origin:
                    qid = f"{holder_name}.{sv.name}"
                    var_origin[key] = qid
                    type_map.setdefault(qid, sv.type_text)

    initialized = {f"{d.name}.{sv.name}" for d in decls for sv in d.state_vars if sv.has_initializer}
    return InheritanceWalks({name: tuple(ancestors_of(name)) for name in by_name}, visible_types,
                            inheritance, var_origin, type_map, initialized)


def chunks_of_sizes(ranked: list, size: dict, room: int, least: int) -> list[list]:
    """The prompt packer of blocks of `size[k]` characters: consecutive chunks
    whose blocks fit in `room` joined by newlines. A chunk closes only once it
    has `least` members; a last chunk short of `least` takes the previous
    chunk's last member: a copy of it if the previous chunk has no member to
    spare, else the member itself."""
    chunks: list[list] = [[]]
    used = -1
    for k in ranked:
        if len(chunks[-1]) >= least and used + 1 + size[k] > room:
            chunks.append([])
            used = -1
        chunks[-1].append(k)
        used += 1 + size[k]
    if len(chunks) > 1 and len(chunks[-1]) < least:
        spare = len(chunks[-2]) > least
        chunks[-1].insert(0, chunks[-2].pop() if spare else chunks[-2][-1])
    return chunks
