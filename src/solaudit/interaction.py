"""Interaction-driven audit pipeline: pair selection (one sorted stream of
pairs per nomination source, four structural and one reasoner triage, read
tier by tier), skeleton-only specification inference, spec-then-verify
checklists, and the deterministic stage-5 cleanup (self-contradiction filter
plus the six-rule severity recalibration, whose single-finding form
`calibrate_one` is the whole of the dossier pipeline's phase E).

Stages 2 and 3 send the audited pairs packed, as few prompts as fit the
budget, with the packer and reply rule of `prompts`: the n-th pair is `P<n>`
in both stages, a contract's skeleton or a function's source is printed once
per prompt, and a reply's entries are attributed by `pair_id`. Stage 3 packs
its pairs by the contract of their first function, and its findings still
come in pair order."""

from __future__ import annotations

import heapq
import logging
import re
from itertools import combinations, groupby, islice
from typing import NamedTuple

from . import prompts
from .ccim import CcimModel, FnKey, FunctionRecord
from .engines import MergedSignals, counter_pairs, infer_preconditions, itpc_high_risk
from .findings import (
    SEVERITIES,
    SEVERITY_RANK,
    Finding,
    classify_claim,
    finding_from_payload,
    findings_from,
    fold,
    renumber,
    reply_line,
    reply_list,
    self_disproving,
    severity_cap,
    severity_down,
)
from .reasoner import DEFAULT_CHAR_BUDGET, Reasoner, ask

log = logging.getLogger(__name__)

# pair-nomination source confidences; ordering motive only
SOURCE_CONFIDENCE = {
    "TRIAGE": 0.9,
    "SHARED_STATE": 0.8,
    "COUNTER": 0.7,
    "HOTSPOT": 0.6,
    "LLM_TRIAGE": 0.5,
}
MAX_PAIRS = 16      # pairs the interaction pipeline audits

ATTENTION_THRESHOLD = 1.0

# severity calibration reads a finding's folded prose (`findings.fold`)
_HEDGE_RE = re.compile(r"\b(may|might|could|potentially|possibly)\b")
_ENUM_RE = re.compile(r"(?m)^\s*(?:\d+[.)]|[-*])\s+(.*)$")
_PRECON_WORD_RE = re.compile(r"\b(requires?|assum\w+|only if|must|precondition|when)\b")
_STEP_RE = re.compile(r"step(?<!\wstep)\b")
_CLAIMS_PROTECTED_RE = re.compile(
    r"\b(admin[- ]only|only the (owner|admin)|restricted to (the )?(owner|admin)|"
    r"protected by only\w+)\b")


class BehaviorSpec(NamedTuple):
    pair: tuple[FnKey, FnKey]
    lifecycle: str = ""
    agreed_variables: list[str] = []
    assumptions: list[str] = []

    @property
    def empty(self) -> bool:
        return not (self.lifecycle or self.agreed_variables or self.assumptions)


def _auditable(ccim: CcimModel) -> list[FunctionRecord]:
    return [r for r in ccim.records
            if ccim.resolution.kinds.get(r.owner) != "interface" and r.has_body]


def _pair_set(pairs) -> set[tuple[FnKey, FnKey]]:
    """Canonical unordered pairs of two distinct functions."""
    return {(a, b) if a < b else (b, a) for a, b in pairs if a != b}


def select_pairs(ccim: CcimModel, merged: MergedSignals, reasoner: Reasoner,
                 budget: int = DEFAULT_CHAR_BUDGET,
                 max_pairs: int | None = None) -> list[tuple[FnKey, FnKey]]:
    """Union of the deterministic nomination heuristics (hotspot, counter,
    shared-state, triage) and the reasoner triage source, deduplicated on
    unordered pair identity and ordered by source confidence, then pair.

    With `max_pairs` (a count, at least 0) the result is the first `max_pairs`
    of that order, and with None the whole order. Each source is one sorted
    stream of its pairs and a tier of its own. Walking the tiers from the
    highest confidence down, a tier's stream is read only while `max_pairs`
    leaves room, less the pairs already taken: a lower tier is reached only
    once every higher tier's stream ran to its end, so those are exactly the
    pairs of the higher tiers. The reasoner triage is the lowest tier, and
    the reasoner is asked only when that tier is read."""
    keys = {r.key for r in _auditable(ccim)}
    edges = _pair_set(ccim.graph.edges)
    signal_conf: dict[FnKey, float] = {}
    for s in merged.retained:
        if s.function:
            signal_conf[s.function] = signal_conf.get(s.function, 0.0) + s.confidence

    # (iv) triage pairs: signal-bearing functions sharing a parameter, a state
    # read, a call edge or a trust boundary
    def triage():
        flagged = sorted(k for k in signal_conf if ccim.records_of((k,)))
        params = {k: frozenset(p for r in ccim.records_of((k,)) for p in r.params) for k in flagged}
        reads = {k: ccim.reads_q(k) for k in flagged}
        gap = ccim.trust.trustgap
        return ((a, b) for a, b in combinations(flagged, 2)
                if params[a] & params[b] or reads[a] & reads[b] or (a, b) in edges
                or (a[0], b[0]) in gap or (b[0], a[0]) in gap)

    # (iii) shared-state: both functions write the same storage variable
    def shared_state():
        runs = (combinations(sorted(keys.intersection(writers)), 2)
                for writers in ccim.deps.writers.values())
        return (pair for pair, _ in groupby(heapq.merge(*runs)))

    # (ii) counter-pairs by naming idiom, same contract
    def counter():
        return sorted(_pair_set((ra.key, rb.key) for owner in {a for a, _ in keys} for ra, rb in
                                counter_pairs([r for r in ccim.owned(owner) if r.key in keys])))

    # (i) attention hotspots: call edges whose two ends carry enough signal
    # mass. The attention score's shared-write bonus never decides a pair
    # here: a pair that shares a write is the shared-state tier's.
    def hotspot():
        return (p for p in sorted(edges)
                if signal_conf.get(p[0], 0.0) + signal_conf.get(p[1], 0.0) >= ATTENTION_THRESHOLD)

    # (v) reasoner triage for contracts with no high-severity signals
    def llm_triage():
        low_risk = _low_risk_contracts(ccim, merged)
        return sorted(_pair_set(_reasoner_triage(ccim, low_risk, reasoner, budget))) if low_risk else []

    streams = {"TRIAGE": triage, "SHARED_STATE": shared_state, "COUNTER": counter,
               "HOTSPOT": hotspot, "LLM_TRIAGE": llm_triage}
    ranked: list[tuple[FnKey, FnKey]] = []
    for source in sorted(streams, key=SOURCE_CONFIDENCE.get, reverse=True):
        room = None if max_pairs is None else max_pairs - len(ranked)
        if room == 0:
            break
        taken = set(ranked)
        ranked.extend(islice((p for p in streams[source]() if p not in taken), room))
    return ranked


def _low_risk_contracts(ccim: CcimModel, merged: MergedSignals) -> list[str]:
    hot = {s.function[0] for s in merged.retained
           if s.function and s.severity in ("CRITICAL", "HIGH")}
    return [c for c in ccim.scope if c not in hot]


def _reasoner_triage(ccim, contracts, reasoner, budget) -> list[tuple[FnKey, FnKey]]:
    owners = set(contracts)
    skeletons = "\n".join(r.signature for r in ccim.records if r.owner in owners and r.signature)
    prompt = prompts.render(prompts.STAGE1_TRIAGE, budget, {"skeletons": skeletons})
    reply = ask(reasoner, "stage1_triage", prompt, budget)
    if reply is None:
        return []
    return [((str(raw[0]), str(raw[1])), (str(raw[2]), str(raw[3])))
            for raw in reply_list(reply, "pairs")
            if isinstance(raw, (list, tuple)) and len(raw) == 4]


# --- stage 2: skeleton-only specification inference ------------------------


def _skeleton(ccim: CcimModel, contract: str) -> str:
    lines = [f"contract {contract}"]
    for r in ccim.owned(contract):
        if r.natspec:
            lines.append(r.natspec)
        lines.append(r.signature or f"function {r.name}(...)")
    return "\n".join(lines)


def _pair_name(n: int, pair: tuple[FnKey, FnKey]) -> str:
    """Pair `P<n>` as a prompt names it."""
    return f"P{n}: {pair[0][0]}.{pair[0][1]} / {pair[1][0]}.{pair[1][1]}"


def spec_prompts(pairs: list[tuple[FnKey, FnKey]], ccim: CcimModel,
                 budget: int = DEFAULT_CHAR_BUDGET) -> list[tuple[list[int], str]]:
    """Skeleton-only prompts for `pairs`, packed by `prompts.chunks`, each
    with the indices of its pairs: pair `P<n>` (numbered over the whole list)
    is one line, and each contract's skeleton (signatures, doc comments,
    module documentation) is a part every pair naming it shares, printed once
    per prompt. Implementation bodies must never leak into any prompt."""
    if not pairs:
        return []
    lines = [_pair_name(n, p) for n, p in enumerate(pairs, start=1)]
    skeletons = {c: _skeleton(ccim, c) for c in sorted({k[0] for p in pairs for k in p})}
    # skeletons are separated by a blank line, one newline more than `chunks`
    # counts; the first has none, so a chunk is counted two characters over
    parts = {i: {i: len(line), **{k[0]: len(skeletons[k[0]]) + 1 for k in pairs[i]}}
             for i, line in enumerate(lines)}
    room = prompts.room(prompts.STAGE2_SPEC, budget, {"pairs": "", "skeletons": ""}) + 2
    out = []
    for chunk in prompts.chunks(list(parts), parts, room, least=1):
        named = sorted({k[0] for i in chunk for k in pairs[i]})
        prompt = prompts.render(prompts.STAGE2_SPEC, budget, {
            "pairs": "\n".join(lines[i] for i in chunk),
            "skeletons": "\n\n".join(skeletons[c] for c in named)})
        if (rec := ccim.leaked(prompt)) is not None:
            raise RuntimeError(
                f"implementation body of {rec.owner}.{rec.name} leaked into the spec prompt")
        out.append((chunk, prompt))
    return out


def infer_spec(pairs: list[tuple[FnKey, FnKey]], ccim: CcimModel, reasoner: Reasoner,
               budget: int = DEFAULT_CHAR_BUDGET) -> list[BehaviorSpec]:
    """Each pair's spec, in pair order, from one prompt per chunk of
    `spec_prompts`: a reply's "specs" entry is attributed by its `pair_id`,
    and each pair's spec is read from the reply's top-level fields overridden
    by its own entry. A failed prompt leaves its pairs' specs empty."""
    specs = [BehaviorSpec(pair=p) for p in pairs]
    for chunk, prompt in spec_prompts(pairs, ccim, budget):
        reply = ask(reasoner, "stage2_spec", prompt, budget)
        ids = {f"P{i + 1}": i for i in chunk}
        for i, payload in prompts.payloads(reply, "specs", "pair_id", ids, "pair").items():
            specs[i] = BehaviorSpec(
                pair=pairs[i],
                lifecycle=str(payload.get("lifecycle", "")),
                agreed_variables=[str(v) for v in reply_list(payload, "agreed_variables")],
                assumptions=[str(a) for a in reply_list(payload, "assumptions")],
            )
    return specs


# --- stage 3: spec-then-verify ---------------------------------------------


def _verify_head(n: int, spec: BehaviorSpec, preconditions: list[str]) -> str:
    """The head of pair `P<n>`'s stage 3 section: its spec and the
    preconditions inferred across the pair, then the sources' heading."""
    checklist_items = spec.assumptions if spec.assumptions else ["(no inferred assumptions)"]
    spec_text = (
        f"lifecycle: {spec.lifecycle or '(none inferred)'}\n"
        f"agreed variables: {', '.join(spec.agreed_variables) or '(none)'}\n"
        f"assumptions:\n" + "\n".join(f"  - {a}" for a in checklist_items)
    )
    if spec.empty:
        # degraded path: checklist items (2)-(7) still run without assumptions
        spec_text += "\n(spec unavailable; items 2-7 only)"
    preconditions_text = "\n".join(preconditions) or "(none)"
    return (f"### {_pair_name(n, spec.pair)}\nInferred specification:\n{spec_text}\n"
            f"Preconditions inferred across the pair:\n{preconditions_text}\n"
            f"Pair sources with structural metadata:\n")


def _violations(pair: tuple[FnKey, FnKey], items: list) -> list[Finding]:
    """The findings of one pair's checklist items: VIOLATE items lacking both
    an evidence citation and a concrete trace are rejected."""
    findings = []
    for raw in items:
        if not isinstance(raw, dict):
            continue
        if str(raw.get("status", "")).upper() != "VIOLATE":
            continue
        trace = str(raw.get("trace") or "")
        if reply_line(raw.get("evidence_line")) is None and not trace.strip():
            log.info("VIOLATE item without citation or trace rejected on %s", pair)
            continue
        payload = dict(raw)
        payload.setdefault("title", f"assumption violation across {pair[0][1]}/{pair[1][1]}")
        payload.setdefault("attack_scenario", trace)
        f = finding_from_payload(payload, "I", list(pair))
        if f is not None:
            findings.append(f)
    return findings


def spec_verify(specs: list[BehaviorSpec], ccim: CcimModel, reasoner: Reasoner,
                budget: int = DEFAULT_CHAR_BUDGET) -> list[Finding]:
    """Seven-point checklist over the pair of each spec that has records.
    The n-th spec's pair `P<n>` is one section, packed by contract locality
    by `prompts.pack_sections`: its own part is its spec and preconditions,
    and each function's source block (per overload, a metadata line and the
    body) is shared, printed once per prompt. A reply's "pairs" entry is
    attributed by its `pair_id`, and a pair's checklist items are its own
    entry's, else the reply's top-level ones. Findings are collected per
    pair and come in pair order, whatever the packing."""
    shown = [(n, spec) for n, spec in enumerate(specs, start=1) if ccim.records_of(spec.pair)]
    keys = dict.fromkeys(k for _, spec in shown for k in spec.pair if ccim.records_of((k,)))
    blocks = {k: "\n".join(f"{prompts.name_line(k)} vis={r.vis} modifiers={list(r.modifiers)} "
                           f"reentrancy_guard={r.nonreentrant}\n{r.printed}"
                           for r in ccim.records_of((k,)))
              for k in keys}
    heads = [_verify_head(n, spec, sorted(set().union(
        *map(infer_preconditions, ccim.records_of(spec.pair))))) for n, spec in shown]
    members = [tuple(k for k in spec.pair if k in blocks) for _, spec in shown]
    fields = {"checklist": "\n".join(f"{i}. {c}" for i, c in
                                     enumerate(prompts.STAGE3_CHECKLIST, start=1))}
    room = prompts.room(prompts.STAGE3_VERIFY, budget, {"pairs": ""}, **fields)
    found: dict[int, list[Finding]] = {}
    for chunk, sections in prompts.pack_sections(heads, members, blocks, room):
        reply = ask(reasoner, "stage3_verify", prompts.render(
            prompts.STAGE3_VERIFY, budget, {"pairs": sections}, **fields), budget)
        ids = {f"P{shown[i][0]}": i for i in chunk}
        for i, payload in prompts.payloads(reply, "pairs", "pair_id", ids, "pair").items():
            found[i] = _violations(shown[i][1].pair, reply_list(payload, "items"))
    return [f for i in sorted(found) for f in found[i]]


def audit_standalone(ccim: CcimModel, reasoner: Reasoner,
                     budget: int = DEFAULT_CHAR_BUDGET) -> list[Finding]:
    """Focused audit slots for high-risk standalone functions so single-function
    bugs are not starved by the pair decomposition. A function is high-risk
    when one of its auditable overloads is, and its slot shows every
    overload."""
    findings = []
    keys = [r.key for r in _auditable(ccim)
            if itpc_high_risk(r, ccim.footprints.fund.get(r.key, False))]
    for key in dict.fromkeys(keys):
        prompt = prompts.render(prompts.STANDALONE, budget,
                                {"source": prompts.source_block(ccim, key)})
        reply = ask(reasoner, "standalone", prompt, budget)
        if reply is not None:
            findings.extend(findings_from(reply, "I", [key]))
    return findings


# --- stage 5: deterministic cleanup ----------------------------------------


def self_contradiction_filter(findings: list[Finding]) -> list[Finding]:
    """Drop findings whose own narrative refutes their verdict; those that
    still carry an evidence line are kept, downgraded to INFO."""
    out = []
    for f in findings:
        if self_disproving(f):
            if f.evidence_lines:
                f.severity = "INFO"
                f.flags.add("self-contradictory")
                out.append(f)
            else:
                log.info("finding %r removed by self-contradiction filter", f.title)
            continue
        out.append(f)
    return out


def _unlikely_precondition_count(scenario: str) -> int:
    """Enumerated steps of the folded `scenario` that state a precondition."""
    return sum(1 for item in _ENUM_RE.findall(scenario) if _PRECON_WORD_RE.search(item))


def _has_concrete_steps(scenario: str) -> bool:
    """Whether the folded `scenario` enumerates or names steps."""
    return bool(_ENUM_RE.search(scenario)) or bool(_STEP_RE.search(scenario))


def access_facts(finding: Finding, ccim: CcimModel) -> tuple[bool, bool, bool]:
    """(admin only, any admin, moves funds) over every overload of the
    finding's functions."""
    records = ccim.records_of(finding.affected_functions)
    any_admin = any(ccim.is_admin(r.key) for r in records)
    admin_only = bool(records) and all(ccim.is_admin(r.key) for r in records)
    moves_funds = any(ccim.footprints.fund.get(r.key, False) for r in records)
    return admin_only, any_admin, moves_funds


def _apply_rules_1_to_4(finding: Finding, ccim: CcimModel) -> None:
    admin_only, _, moves_funds = access_facts(finding, ccim)
    # (1) admin-only paths capped to LOW unless they move user funds
    if admin_only and not moves_funds:
        finding.severity = severity_cap(finding.severity, "LOW")
        finding.flags.add("admin-only")
    # (2) no concrete fund-loss path: cap MEDIUM
    if not moves_funds:
        finding.severity = severity_cap(finding.severity, "MEDIUM")
    # (3) three or more independent unlikely preconditions: one level down
    scenario = fold(finding.attack_scenario)
    if _unlikely_precondition_count(scenario) >= 3:
        finding.severity = severity_down(finding.severity)
        finding.flags.add("unlikely-preconditions")
    # (4) hedged language without concrete attack steps: cap MEDIUM
    if _HEDGE_RE.search(f"{fold(finding.description)} {scenario}") \
            and not _has_concrete_steps(scenario):
        finding.severity = severity_cap(finding.severity, "MEDIUM")
        finding.flags.add("hedged")


def _raise_one(severity: str) -> str:
    return SEVERITIES[min(len(SEVERITIES) - 1, SEVERITY_RANK[severity] + 1)]


def _apply_rule_6(finding: Finding, ccim: CcimModel) -> None:
    # parsed access-control evidence beats the finding's own claim; the second
    # branch is the one place a severity may go up
    admin_only, any_admin, moves_funds = access_facts(finding, ccim)
    if classify_claim(finding) == "MISSING_ACCESS_CONTROL" and admin_only:
        finding.severity = severity_cap(finding.severity, "LOW")
        finding.flags.add("ccim-evidence-override")
    elif _CLAIMS_PROTECTED_RE.search(fold(finding.text())) and not any_admin and moves_funds:
        finding.severity = _raise_one(finding.severity)
        finding.flags.add("ccim-evidence-override")


def calibrate_one(finding: Finding, ccim: CcimModel) -> Finding:
    """Single-finding application of the six-rule set (rule 5, duplicate
    marking, only makes sense over the whole set and is skipped here)."""
    _apply_rules_1_to_4(finding, ccim)
    _apply_rule_6(finding, ccim)
    return finding


def recalibrate_severity(findings: list[Finding], ccim: CcimModel) -> list[Finding]:
    """Apply the six rules in order; rule 5 keeps only the most impactful
    member of each root-cause duplicate group."""
    for f in findings:
        _apply_rules_1_to_4(f, ccim)

    # (5) root-cause duplicates: mark, keep the most impactful
    groups: dict[tuple, list[Finding]] = {}
    for f in findings:
        key = (tuple(sorted(f.affected_functions)), classify_claim(f))
        groups.setdefault(key, []).append(f)
    kept: list[Finding] = []
    for key in sorted(groups, key=str):
        members = groups[key]
        members.sort(key=lambda f: (-SEVERITY_RANK[f.severity], -f.confidence, f.id))
        winner = members[0]
        if len(members) > 1:
            winner.flags.add("root-cause-duplicate")
            winner.matched_ids.extend(m.id for m in members[1:])
            for loser in members[1:]:
                log.info("duplicate finding %r folded into %r", loser.title, winner.title)
        kept.append(winner)
    kept.sort(key=lambda f: f.sort_key())

    for f in kept:
        _apply_rule_6(f, ccim)
    return kept


# --- pipeline runner --------------------------------------------------------


def id_run(ccim: CcimModel, merged: MergedSignals, reasoner: Reasoner, *,
           budget: int = DEFAULT_CHAR_BUDGET) -> list[Finding]:
    """Full interaction-driven pipeline: pair selection (the first
    `MAX_PAIRS`) -> spec inference -> spec-then-verify (+ standalone slots)
    -> stage-5 cleanup."""
    specs = infer_spec(select_pairs(ccim, merged, reasoner, budget, MAX_PAIRS), ccim, reasoner,
                       budget)
    findings = spec_verify(specs, ccim, reasoner, budget)
    findings.extend(audit_standalone(ccim, reasoner, budget))

    findings = self_contradiction_filter(findings)
    findings = recalibrate_severity(findings, ccim)
    return renumber(findings, "I")
