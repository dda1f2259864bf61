"""Rule-catalogue pattern detectors: oracle staleness, arithmetic ordering,
unsafe casts, signature replay, unchecked blocks, assembly pitfalls and the
semantic-unit mismatch check. One failing rule never blocks the others."""

from __future__ import annotations

import logging
import re

from ..ccim import CcimModel
from ..ccim.parse import UNCHECKED_RE, balanced
from ..findings import fold
from .bva import STATEMENT_RE, scope_contracts
from .signal import Signal

log = logging.getLogger(__name__)

_ASSEMBLY_RE = re.compile(r"assembly(?<!\wassembly)\s*(?:\([^)]*\)\s*)?\{")
_ORACLE_READ_RE = re.compile(r"\.\s*(latestAnswer|latestRoundData)\s*\(")
# from the `/` of a division whose divisor a `*` follows; the dividend's last
# character (a word character, `)` or `]`) is found by walking back
_DIV_THEN_MUL_RE = re.compile(r"/\s*[\w\(][\w\.\(\)\[\]]*\s*\*")
# a narrowing cast from its `int`, which starts the word or follows a `u`
# that does: led by the literal, as `re` tries a `u`-or-`i` lead at every one
_DOWNCAST_RE = re.compile(
    r"int(?:(?<!\wint)|(?<=uint)(?<!\wuint))(8|16|32|64|96|128)\s*\(\s*[A-Za-z_]")
_ECRECOVER_RE = re.compile(r"ecrecover(?<!\wecrecover)\s*\(")
# read off a folded declaration (`findings.fold`)
_NONCE_RE = re.compile(r"nonce")
_DEADLINE_RE = re.compile(r"deadline|expiry|expiration")
_ARITHMETIC_RE = re.compile(r"[\w\]]\s*(\+|-|\*)[^+\-=]")
_BLOCK_NUMBER_RE = re.compile(r"\b(block\.number|\w*[bB]lockNumber\w*|startBlock|endBlock|\w+Block)\b")


# a rule reads the masked text[start:end], `pairs` its bracket index, and
# reports offsets into `text`
def _rule_oracle_staleness(text: str, start: int, end: int, pairs: dict[int, int]):
    for m in _ORACLE_READ_RE.finditer(text, start, end):
        if text.find("updatedAt", start, end) < 0 and "staleness" not in text[start:end].lower():
            yield ("CUSTOM", "custom-oracle-staleness", "HIGH", 0.7, m.start(),
                   f"{m.group(1)} consumed without checking updatedAt for staleness")


def _rule_div_before_mul(text: str, start: int, end: int, pairs: dict[int, int]):
    for m in _DIV_THEN_MUL_RE.finditer(text, start, end):
        pos = m.start()
        while pos > start and text[pos - 1].isspace():
            pos -= 1
        if pos > start and (text[pos - 1].isalnum() or text[pos - 1] in "_)]"):
            yield ("MATH", "math-div-before-mul", "MEDIUM", 0.6, pos - 1,
                   "division before multiplication loses precision")


def _rule_unsafe_downcast(text: str, start: int, end: int, pairs: dict[int, int]):
    # a cast starts at its `u`, if any; one that starts before `pos`, where
    # the last one ended or the span starts, is none, and the search resumes
    # past its `int`
    pos = start
    while m := _DOWNCAST_RE.search(text, pos, end):
        cast = m.start() - (m.start() > 0 and text[m.start() - 1] == "u")
        if cast < pos:
            pos = m.start() + 1
            continue
        yield ("MATH", "math-unsafe-downcast", "MEDIUM", 0.55, cast,
               f"narrowing cast to {text[cast:m.start()]}int{m.group(1)} can silently truncate")
        pos = m.end()


def _rule_signature_replay(text: str, start: int, end: int, pairs: dict[int, int]):
    m = _ECRECOVER_RE.search(text, start, end)
    if not m:
        return
    folded = fold(text[start:end])
    if not _NONCE_RE.search(folded):
        yield ("SIG", "sig-missing-nonce", "HIGH", 0.65, m.start(),
               "ecrecover-verified payload consumes no nonce; signatures are replayable")
    if not _DEADLINE_RE.search(folded):
        yield ("SIG", "sig-missing-deadline", "MEDIUM", 0.5, m.start(),
               "signature verification without a deadline bound")


def _rule_unchecked_arithmetic(text: str, start: int, end: int, pairs: dict[int, int]):
    for m, open_pos, close_pos in balanced(text, UNCHECKED_RE, pairs, start, end):
        if _ARITHMETIC_RE.search(text, open_pos, close_pos + 1):
            yield ("MATH", "math-unchecked-arithmetic", "MEDIUM", 0.5, m.start(),
                   "arithmetic inside an unchecked block wraps silently")


def _rule_assembly(text: str, start: int, end: int, pairs: dict[int, int]):
    for m, open_pos, close_pos in balanced(text, _ASSEMBLY_RE, pairs, start, end):
        block = text[open_pos:close_pos + 1]
        if "delegatecall" in block:
            yield ("ASM", "asm-delegatecall", "HIGH", 0.7, m.start(),
                   "delegatecall inside assembly forwards full control over storage")
        if "returndatacopy" in block or "returndatasize" in block:
            yield ("ASM", "asm-returndata", "INFO", 0.4, m.start(),
                   "raw returndata handling in assembly; verify size checks")


def _rule_semantic_units(text: str, start: int, end: int, pairs: dict[int, int]):
    # reduced-scope semantic-type check: timestamp values compared with or
    # assigned to block-number-named quantities
    if text.find("block.timestamp", start, end) < 0:
        return
    for stmt in STATEMENT_RE.finditer(text, start, end):
        stmt_text = stmt.group(0)
        if "block.timestamp" in stmt_text and _BLOCK_NUMBER_RE.search(stmt_text):
            yield ("CCPTI", "ccpti-unit-mismatch", "MEDIUM", 0.5, stmt.start(),
                   "timestamp value mixed with a block-number quantity in one expression")


_RULES = (
    _rule_oracle_staleness,
    _rule_div_before_mul,
    _rule_unsafe_downcast,
    _rule_signature_replay,
    _rule_unchecked_arithmetic,
    _rule_assembly,
    _rule_semantic_units,
)


def run_pattern_detectors(ccim: CcimModel) -> list[Signal]:
    signals: list[Signal] = []
    scope = set(scope_contracts(ccim))
    parsed = ccim.parsed
    for rec in sorted(ccim.records, key=lambda r: r.src[0]):
        if rec.owner not in scope or not rec.has_body:
            continue
        start, end = parsed.decl_span(rec)
        for rule in _RULES:
            try:
                for tag, rule_id, severity, confidence, pos, desc in rule(
                        parsed.masked, start, end, parsed.brackets):
                    signals.append(Signal(
                        source_tag=tag, id=rule_id, description=desc,
                        severity=severity, confidence=confidence,
                        function=rec.key, line_hint=parsed.line_of(pos),
                    ))
            except Exception as exc:
                log.warning("pattern rule %s failed on %s.%s (%s); continuing",
                            rule.__name__, rec.owner, rec.name, exc)
    return signals
