"""Shared finding model: severity scale, candidate-vulnerability records, the
root-cause clustering card and the verdict record every funnel stage returns.

Prose is matched folded: under IGNORECASE `re` builds no literal or charset
prefix for a cased letter, so it cannot skip ahead to one and tries the
pattern at every character. So the patterns that read a finding's prose, or
a name, are written in lower case without `re.I` and searched on `fold` of
their text, made once per text."""

from __future__ import annotations

import math
import re
from typing import NamedTuple

SEVERITIES = ("INFO", "LOW", "MEDIUM", "HIGH", "CRITICAL")
SEVERITY_RANK = {s: i for i, s in enumerate(SEVERITIES)}

CONF_MIN = 0.05
CONF_MAX = 0.95

# keyword table for impact classification; first matching class wins
IMPACT_KEYWORDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("fund-theft", ("steal", "stolen", "theft", "drain", "reentran", "siphon",
                    "loss of funds", "funds can be taken", "extract value")),
    ("fund-freeze", ("freeze", "frozen", "locked", "stuck", "cannot withdraw",
                     "unwithdrawable")),
    ("privilege-escalation", ("access control", "unauthorized", "privilege",
                              "ownership", "takeover", "anyone can call",
                              "missing onlyowner", "escalat")),
    ("state-corruption", ("corrupt", "inconsistent state", "desync",
                          "overwrite", "stale state", "accounting error",
                          "double count")),
    ("dos", ("denial of service", "dos", "revert loop", "gas grief",
             "out of gas", "unbounded loop", "brick")),
)


def reply_confidence(value) -> float:
    """A confidence read from a reply: any number, an int of any size
    included, clamped into [CONF_MIN, CONF_MAX]; NaN and anything that is not
    a number read as the default 0.4."""
    # an int is compared, never converted, so its size cannot overflow;
    # NaN is the one number unequal to itself
    if isinstance(value, (int, float)) and value == value:
        return max(CONF_MIN, min(CONF_MAX, value))
    return 0.4


def severity_cap(severity: str, ceiling: str) -> str:
    return ceiling if SEVERITY_RANK[severity] > SEVERITY_RANK[ceiling] else severity


def severity_down(severity: str) -> str:
    return SEVERITIES[max(0, SEVERITY_RANK[severity] - 1)]


def classify_impact(text: str) -> str:
    low = text.lower()
    for impact, keywords in IMPACT_KEYWORDS:
        if any(k in low for k in keywords):
            return impact
    return "info"


class StructuralCard(NamedTuple):
    vulnerable_function: tuple[str, str]
    abused_state_variable: str | None
    attacker_role: str
    impact_class: str

    def cluster_key(self) -> tuple:
        # attacker_role is reporting metadata, not part of root-cause identity
        return (self.vulnerable_function, self.abused_state_variable, self.impact_class)


class Finding:
    """A candidate vulnerability: the one record that stages update in place
    (id, severity, confidence, card, flags, phase D verdict). Each finding
    gets its own evidence list, flag set and matched-id list."""

    __slots__ = ("id", "pipeline", "title", "description", "attack_scenario", "severity",
                 "affected_functions", "evidence_lines", "confidence", "card", "flags",
                 "matched_ids", "claim_verdict")

    def __init__(self, id: str, pipeline: str, title: str, description: str,
                 attack_scenario: str, severity: str, affected_functions: list[tuple[str, str]],
                 evidence_lines: list[int] | None = None, confidence: float = 0.4,
                 card: StructuralCard | None = None, flags: set[str] | None = None,
                 matched_ids: list[str] | None = None, claim_verdict: str | None = None):
        self.id = id
        self.pipeline = pipeline                      # "D" or "I"
        self.title = title
        self.description = description
        self.attack_scenario = attack_scenario
        self.severity = severity
        self.affected_functions = affected_functions
        self.evidence_lines = [] if evidence_lines is None else evidence_lines
        self.confidence = confidence
        self.card = card
        self.flags = set() if flags is None else flags
        self.matched_ids = [] if matched_ids is None else matched_ids
        # phase D claim-first verdict, recorded once and reused by funnel stage 3
        self.claim_verdict = claim_verdict

    def __repr__(self) -> str:
        return f"Finding({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def text(self) -> str:
        return " ".join((self.title, self.description, self.attack_scenario))

    def sort_key(self) -> tuple:
        return (-SEVERITY_RANK.get(self.severity, 0), -self.confidence, self.id)


class VerdictRecord(NamedTuple):
    finding_id: str
    stage: str
    verdict: str                # DISPROVED | CONFIRMED | UNCERTAIN | FILTERED | PASSED
    evidence: str
    reasoner_used: bool = False


_ID_COUNTER_WIDTH = 3


def renumber(findings: list[Finding], pipeline: str) -> list[Finding]:
    """Assign pipeline-unique ids (D-001, ...); keeps the two id spaces disjoint."""
    for i, f in enumerate(findings, start=1):
        f.id = f"{pipeline}-{i:0{_ID_COUNTER_WIDTH}d}"
        f.pipeline = pipeline
    return findings


def reply_list(payload: dict, key: str) -> list:
    """The list a reply holds under `key`; any other shape reads as empty."""
    value = payload.get(key)
    return value if isinstance(value, list) else []


def reply_line(value) -> int | None:
    """A line number read from a reply or report: an int for a finite
    number, None for anything else (text, NaN, infinity)."""
    if isinstance(value, int) or (isinstance(value, float) and math.isfinite(value)):
        return int(value)
    return None


def finding_from_payload(payload: dict, pipeline: str,
                         default_functions: list[tuple[str, str]] | None = None) -> Finding | None:
    """Build a Finding from a structured reasoner payload, tolerating missing
    fields; returns None when no affected function can be attributed."""
    functions: list[tuple[str, str]] = []
    for item in reply_list(payload, "functions") or reply_list(payload, "affected_functions"):
        if isinstance(item, (list, tuple)) and len(item) == 2:
            functions.append((str(item[0]), str(item[1])))
        elif isinstance(item, str) and "." in item:
            owner, name = item.split(".", 1)
            functions.append((owner, name))
    if not functions:
        functions = list(default_functions or [])
    if not functions:
        return None
    severity = str(payload.get("severity", "MEDIUM")).upper()
    if severity not in SEVERITY_RANK:
        severity = "MEDIUM"
    lines = {reply_line(x) for x in reply_list(payload, "evidence_lines")}
    lines.add(reply_line(payload.get("evidence_line")))
    lines.discard(None)
    return Finding(
        id="pending",
        pipeline=pipeline,
        title=str(payload.get("title", "")).strip() or "unnamed finding",
        description=str(payload.get("description", "")),
        attack_scenario=str(payload.get("attack_scenario", "")),
        severity=severity,
        affected_functions=functions,
        evidence_lines=sorted(lines),
        confidence=reply_confidence(payload.get("confidence")),
    )


def findings_from(payload: dict, pipeline: str,
                  default_functions: list[tuple[str, str]] | None = None) -> list[Finding]:
    """The findings of a reply's "findings" list; entries that are not
    objects or that name no affected function are skipped."""
    found = (finding_from_payload(item, pipeline, default_functions)
             for item in reply_list(payload, "findings") if isinstance(item, dict))
    return [f for f in found if f is not None]


# the letters other than the ASCII ones that `re.I` matches to an ASCII letter
# and `str.lower` does not: İ and ı to `i`, ſ to `s`
_TO_ASCII = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s"})


def fold(text: str) -> str:
    """`text` as `re.I` compares it, for a pattern of lower-case ASCII
    letters: a folded pattern finds on `fold(text)` what it finds with `re.I`
    on `text`, at the same offsets, since each character folds to one."""
    return text.lower() if text.isascii() else text.translate(_TO_ASCII).lower()


# claim-type classification shared by the reduction funnel and verdict engine;
# each pattern reads a finding's folded text

_CLAIM_RES: tuple[tuple[str, re.Pattern], ...] = (
    ("EVM_RACE", re.compile(r"race condition(?<!\wrace condition)\b|evm race(?<!\wevm race)\b")),
    ("REENTRANCY", re.compile(r"reentran(?<!\wreentran)")),
    ("INTEGER_OVERFLOW_GE08", re.compile(
        r"overflow(?<!\woverflow)\b|underflow(?<!\wunderflow)\b|wrap(?<!\wwrap)[- ]?around\b")),
    ("MISSING_ACCESS_CONTROL", re.compile(
        r"missing access control|lacks? access control|no access control|"
        r"without access control|anyone can call|unauthorized caller|"
        r"missing only\w+ modifier|unprotected")),
)


def classify_claim(finding: Finding) -> str:
    text = fold(finding.text())
    for kind, rx in _CLAIM_RES:
        if rx.search(text):
            return kind
    return "OTHER"


# phrases by which a finding's own narrative refutes it
SELF_DISPROVING_PHRASES = ("by design", "intended behavior", "not a vulnerability")


def self_disproving(finding: Finding) -> bool:
    """Whether the finding's description or attack scenario says it is no
    vulnerability: the one test of funnel stage 2 and the interaction
    pipeline's self-contradiction filter."""
    text = f"{finding.description} {finding.attack_scenario}".lower()
    return any(p in text for p in SELF_DISPROVING_PHRASES)
