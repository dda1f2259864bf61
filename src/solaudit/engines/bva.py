"""Boundary/value analyzer: six sub-analyzers over guards, ether paths,
uninitialized state, formulas and literal arithmetic. Each sub-analyzer is
isolated; a failure inside one logs a warning and contributes nothing."""

from __future__ import annotations

import logging
import re

from ..ccim import CcimModel, FunctionRecord
from ..ccim.parse import NAME_RE, NATIVE_OUT, ParsedSource
from .signal import Signal

log = logging.getLogger(__name__)

# a numeric bound: a guard's normal form that starts with `var op number`
_BOUND_RE = re.compile(r"([A-Za-z_]\w*)(<=|>=|<|>)(\d+(?:e\d+)?)")
STATEMENT_RE = re.compile(r"[^;{}]+")  # the text of one statement
_POW_RE = re.compile(r"(\d(?<!\w\d)\d*)\s*\*\*\s*(\d+)\b")
_WORD_RE = re.compile(r"\w+")
_DIV_ZERO_RE = re.compile(r"/\s*(0)\b(?![.\w])")
_LITERAL_OP_RE = re.compile(r"(\d(?<!\w\d)(?:\d*(?:\.\d+)?e\d+|\d*))\s*(\*|-)\s*(\d+(?:\.\d+)?e\d+|\d+)")
# what every `_LITERAL_OP_RE` match holds: its gate, led by the operator, as
# the literal-led pattern is tried at every digit
_OP_LITERAL_RE = re.compile(r"[*-]\s*\d")

UINT256_MAX = 2 ** 256 - 1

# paired-function naming idioms, shared with interaction pair selection; the
# first four pairs are the canonical protocol idioms, the rest are extensions
COUNTER_STEMS = (("deposit", "withdraw"), ("mint", "burn"), ("lock", "unlock"),
                 ("stake", "unstake"), ("open", "close"), ("pause", "unpause"))
_STEMS = frozenset(s for pair in COUNTER_STEMS for s in pair)


def counter_pairs(records) -> list[tuple[FunctionRecord, FunctionRecord]]:
    """(a, b) records of one contract named by a paired idiom: for each stem
    pair, each a-stem name with each b-stem name, both in record order."""
    buckets: dict[str, list[FunctionRecord]] = {}
    for r in records:
        for stem in filter(r.name.lower().startswith, _STEMS):
            buckets.setdefault(stem, []).append(r)
    return [(ra, rb) for a_stem, b_stem in COUNTER_STEMS
            for ra in buckets.get(a_stem, ()) for rb in buckets.get(b_stem, ())]


def scope_contracts(ccim: CcimModel) -> list[str]:
    """In-scope concrete contracts, in scope order: the contracts whose
    functions the BVA and pattern engines examine."""
    return [c for c in ccim.scope if ccim.resolution.kinds.get(c, "contract") == "contract"]


def run_bva(ccim: CcimModel) -> list[Signal]:
    signals: list[Signal] = []
    sub_analyzers = (
        ("rationality", _sub_rationality),
        ("locked-ether", _sub_locked_ether),
        ("read-before-write", _sub_read_before_write),
        ("formula-mismatch", _sub_formula_mismatch),
        ("symbolic-eval", _sub_symbolic_eval),
        ("invariant-consistency", _sub_invariant_consistency),
    )
    for name, fn in sub_analyzers:
        try:
            signals.extend(fn(ccim))
        except Exception as exc:
            log.warning("BVA sub-analyzer %s failed (%s); continuing", name, exc)
    return signals


# (ii) boundary finding from the guards, `if (c) revert` ones included, and
# (iii) rationality: bounds on the same variable must admit at least one value
def _sub_rationality(ccim: CcimModel) -> list[Signal]:
    signals = []
    for contract in scope_contracts(ccim):
        for rec in ccim.owned(contract):
            by_var: dict[str, list[tuple[str, float, int]]] = {}
            for pos, kind, cond in rec.effects:
                if kind == "require" and (bound := _BOUND_RE.match(cond)):
                    var, op, value = bound.groups()
                    by_var.setdefault(var, []).append((op, float(value), pos))
            for var, entries in sorted(by_var.items()):
                lowers = [(v, op) for op, v, _ in entries if op in (">", ">=")]
                uppers = [(v, op) for op, v, _ in entries if op in ("<", "<=")]
                if not lowers or not uppers:
                    continue
                lo, lo_op = max(lowers)
                hi, hi_op = min(uppers)
                impossible = lo > hi or (lo == hi and (lo_op == ">" or hi_op == "<"))
                if impossible:
                    pos = entries[0][2]
                    signals.append(Signal(
                        source_tag="BVA", id="bva-irrational-bound",
                        description=f"bounds on {var} admit no value ({lo_op} {lo:g} vs {hi_op} {hi:g})",
                        severity="MEDIUM", confidence=0.6,
                        function=rec.key, line_hint=ccim.parsed.line_of(pos),
                    ))
    return signals


# (iv) locked-ETH: a payable receive path with no native withdrawal path
def _sub_locked_ether(ccim: CcimModel) -> list[Signal]:
    signals = []
    for contract in scope_contracts(ccim):
        records = ccim.owned(contract)
        receivers = [r for r in records if r.mut == "payable"]
        if not receivers:
            continue
        if any(k == "fund" and n in NATIVE_OUT for r in records for _, k, n in r.effects):
            continue
        entry = min(receivers, key=lambda r: r.src[0])
        signals.append(Signal(
            source_tag="BVA", id="bva-locked-ether",
            description=f"{contract} can receive ether via {entry.name} but exposes no withdrawal path",
            severity="HIGH", confidence=0.7,
            function=entry.key, line_hint=entry.src[0],
        ))
    return signals


# (v) read-before-write: reads of state that nothing ever writes or initializes
def _sub_read_before_write(ccim: CcimModel) -> list[Signal]:
    initialized = {qid for visible in ccim.parsed.visible
                   for qid, sv in visible.values() if sv.has_initializer}
    signals = []
    scope = set(scope_contracts(ccim))
    for var in sorted(ccim.deps.readers):
        if var in initialized or ccim.deps.writers.get(var):
            continue
        for reader in sorted(ccim.deps.readers[var]):
            if reader[0] not in scope:
                continue
            signals.append(Signal(
                source_tag="BVA", id="bva-read-before-write",
                description=f"{var} is read but never written or initialized; reads see the zero value",
                severity="MEDIUM", confidence=0.5,
                function=reader, line_hint=ccim.records_of((reader,))[0].src[0],
            ))
    return signals


def _muldiv_shapes(parsed: ParsedSource, record: FunctionRecord) -> list[tuple[str, frozenset[str]]]:
    """Per statement containing both * and /: the operator order plus the
    identifiers involved."""
    shapes = []
    masked, (start, end) = parsed.masked, record.span
    if masked.find("/", start, end) < 0 or masked.find("*", start, end) < 0:
        return shapes
    for m in STATEMENT_RE.finditer(masked, start, end):
        stmt = m.group(0)
        if "/" not in stmt or "*" not in stmt:
            continue
        ops = "".join(c for c in stmt.replace("**", "") if c in "*/")
        if "*" in ops and "/" in ops:
            idents = frozenset(NAME_RE.findall(stmt)) - {"require", "if", "return"}
            shapes.append((ops, idents))
    return shapes


# (vi) formula-mismatch across paired functions
def _sub_formula_mismatch(ccim: CcimModel) -> list[Signal]:
    """Every overload is checked; a pair of keys gets at most one signal, from
    its first mismatching pair of records in record order. A record with no
    mul/div shape matches nothing, so only shaped records are paired; where
    every record has a shape the pairs are still all compared."""
    signals = []
    for contract in scope_contracts(ccim):
        shaped = [(r, found) for r in ccim.owned(contract)
                  if (found := _muldiv_shapes(ccim.parsed, r))]
        shapes = {id(r): found for r, found in shaped}
        flagged = set()
        for ra, rb in counter_pairs([r for r, _ in shaped]):
            if (ra.key, rb.key) in flagged:
                continue
            hit = next(((ops_a, ops_b, ids_a & ids_b) for ops_a, ids_a in shapes[id(ra)]
                        for ops_b, ids_b in shapes[id(rb)] if ops_a != ops_b and ids_a & ids_b), None)
            if hit:
                flagged.add((ra.key, rb.key))
                ops_a, ops_b, common = hit
                signals.append(Signal(
                    source_tag="BVA", id="bva-formula-mismatch",
                    description=(f"{ra.name} and {rb.name} apply inconsistent operator order "
                                 f"({ops_a} vs {ops_b}) over {', '.join(sorted(common))}"),
                    severity="HIGH", confidence=0.7,
                    function=ra.key, line_hint=ra.src[0],
                ))
    return signals


def _literal_ops(text: str):
    """The `_LITERAL_OP_RE` matches in `text`, behind the operator gate."""
    return _LITERAL_OP_RE.finditer(text) if _OP_LITERAL_RE.search(text) else ()


def _literal_value(token: str) -> int | None:
    try:
        return int(float(token)) if ("e" in token or "." in token) else int(token)
    except ValueError:
        return None


# (vii) small-scale symbolic evaluation: constant folding of literal arithmetic
def _sub_symbolic_eval(ccim: CcimModel) -> list[Signal]:
    signals = []
    for contract in scope_contracts(ccim):
        for rec in ccim.owned(contract):
            # the fold keeps every newline, so a line count over `folded`
            # plus the line of the opening brace locates a match
            start, end = rec.span
            folded = ccim.parsed.masked[start:end]
            if "**" in folded:
                folded = _POW_RE.sub(lambda m: str(int(m.group(1)) ** int(m.group(2)))
                                     + "\n" * m.group(0).count("\n"), folded)
            first = ccim.parsed.line_of(start)

            def line_of(pos: int) -> int:
                return first + folded.count("\n", 0, pos)

            for m in _DIV_ZERO_RE.finditer(folded):
                signals.append(Signal(
                    source_tag="BVA", id="bva-division-by-zero",
                    description="literal division by zero",
                    severity="HIGH", confidence=0.8,
                    function=rec.key, line_hint=line_of(m.start()),
                ))
            for m in _literal_ops(folded):
                a, b = _literal_value(m.group(1)), _literal_value(m.group(3))
                if a is None or b is None:
                    continue
                if m.group(2) == "*" and a * b > UINT256_MAX:
                    signals.append(Signal(
                        source_tag="BVA", id="bva-literal-overflow",
                        description=f"literal product {m.group(0).strip()} exceeds uint256",
                        severity="MEDIUM", confidence=0.6,
                        function=rec.key, line_hint=line_of(m.start()),
                    ))
                elif m.group(2) == "-" and a < b:
                    signals.append(Signal(
                        source_tag="BVA", id="bva-literal-underflow",
                        description=f"literal difference {m.group(0).strip()} is negative",
                        severity="MEDIUM", confidence=0.6,
                        function=rec.key, line_hint=line_of(m.start()),
                    ))
    return signals


# (viii) invariant consistency: writers of a bounded variable that skip the bound
def _sub_invariant_consistency(ccim: CcimModel) -> list[Signal]:
    signals = []
    scope = set(scope_contracts(ccim))
    for var in sorted(ccim.deps.writers):
        plain = var.split(".", 1)[-1]
        writers = [w for w in sorted(ccim.deps.writers[var]) if w[0] in scope]
        if len(writers) < 2:
            continue
        checking, unchecked = [], []
        for rec in ccim.records_of(writers):
            if plain not in rec.writes:
                continue  # transitive writers inherit the helper's checks
            if any(plain in _WORD_RE.findall(g) for g in rec.guards):
                checking.append(rec)
            else:
                unchecked.append(rec)
        if checking and unchecked:
            for rec in unchecked:
                signals.append(Signal(
                    source_tag="BVA", id="bva-invariant-inconsistency",
                    description=(f"{rec.name} writes {var} without the bound check "
                                 f"enforced by {', '.join(c.name for c in checking)}"),
                    severity="MEDIUM", confidence=0.55,
                    function=rec.key, line_hint=rec.src[0],
                ))
    return signals
