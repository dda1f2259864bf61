"""Staged false-positive reduction: deterministic claim refutation, structural
filters, evidence-constrained re-verification, scoring (applied at merge) and
the two-layer structural verdict engine (SVE). Stages 1 to 3 are applied in
cost order; the SVE ends the funnel, so its deterministic layer 1 runs after
stage 3's reasoner calls. No stage creates findings."""

from __future__ import annotations

import json
import logging
import re

from . import prompts
from .ccim import CcimModel, FunctionRecord
from .dossier import cite_line, phase_d_verify
from .engines import MergedSignals
from .findings import (
    SEVERITY_RANK,
    Finding,
    VerdictRecord,
    classify_claim,
    classify_impact,
    fold,
    self_disproving,
)
from .interaction import access_facts
from .merge import MergedFindingSet
from .reasoner import DEFAULT_CHAR_BUDGET, Reasoner, ask

log = logging.getLogger(__name__)

# claims read off a finding's folded text (`findings.fold`)
_CENTRALIZATION_RE = re.compile(
    r"centraliz|too powerful|full control over|single point of failure|rug[- ]?pull")
_EXTERNAL_CALL_CLAIM_RE = re.compile(r"external call(?<!\wexternal call)\b|call(?<!\wcall)s? out\b")


# --- deterministic checks ----------------------------------------------------
# Every check reads `records_of`, so an all(...) holds for every overload of
# the cited functions and a not any(...) for none of them.


def _guard_line(rec: FunctionRecord, ccim: CcimModel) -> int:
    """The line of `rec`'s first `require` effect on `msg.sender`, else its header's."""
    return next((ccim.parsed.line_of(pos) for pos, kind, name in rec.effects
                 if kind == "require" and "msg.sender" in name), rec.src[0])


def stage1_verify(finding: Finding, ccim: CcimModel) -> VerdictRecord:
    """Treat the finding as a testable proposition about parsed ground truth;
    no reasoner is consulted. What each drop rests on, and how the CCIM can
    miss it:
    - a race: no fact; transactions execute atomically.
    - missing access control: `admin_set`, a role check among every
      overload's modifiers and `require` effects, `if (c) revert` ones
      included. A check counts only where it runs whenever the body does:
      in no `if`, `else`, loop, `try` or `catch` body, by the body pass's
      block stack; one in a helper the function calls is not seen.
    - reentrancy: a `nonReentrant` modifier on every overload, read by name;
      a lock that leaves another entry point open is trusted all the same.
    - overflow on solc >= 0.8: the pragma and no `unchecked` effect on any
      overload. The effects are the record's own, so an `unchecked` block in
      a helper it calls, or arithmetic in assembly, is not seen."""
    claim = classify_claim(finding)
    recs = ccim.records_of(finding.affected_functions)

    if claim == "EVM_RACE":
        return VerdictRecord(finding.id, "stage1", "DISPROVED",
                             f"line {cite_line(finding, ccim)}: transactions execute atomically; "
                             f"race conditions are structurally impossible")
    if claim == "MISSING_ACCESS_CONTROL" and access_facts(finding, ccim)[0]:
        line = _guard_line(recs[0], ccim)
        return VerdictRecord(finding.id, "stage1", "DISPROVED",
                             f"line {line}: verified admin guard present "
                             f"({', '.join(recs[0].modifiers) or recs[0].guards[0]})")
    if claim == "REENTRANCY" and recs and all(r.nonreentrant for r in recs):
        return VerdictRecord(finding.id, "stage1", "DISPROVED",
                             f"line {recs[0].src[0]}: every affected function is nonReentrant-guarded")
    if claim == "INTEGER_OVERFLOW_GE08" and recs and all(r.pragma_ge_08 for r in recs) \
            and not any(r.unchecked for r in recs):
        return VerdictRecord(finding.id, "stage1", "DISPROVED",
                             f"line {recs[0].src[0]}: solc >= 0.8 checked arithmetic and "
                             f"no unchecked block in the affected span")
    return VerdictRecord(finding.id, "stage1", "PASSED", claim)


def stage2_filter(finding: Finding, ccim: CcimModel) -> VerdictRecord:
    """Structural-locus filters: generic centralization complaints and
    self-disproving narratives, read off the finding's text alone, and
    unresolvable function citations, which rest on the record inventory. A
    function the parse skipped (an unbalanced body) or in a file outside the
    audit source has no record, and a finding citing only it is dropped."""
    if _CENTRALIZATION_RE.search(fold(finding.text())) and not finding.evidence_lines:
        return VerdictRecord(finding.id, "stage2", "FILTERED",
                             "centralization complaint without a concrete exploit path")
    if self_disproving(finding):
        return VerdictRecord(finding.id, "stage2", "FILTERED",
                             "self-disproving evidence text")
    if finding.affected_functions and not any(
            ccim.records_of((key,)) or ccim.function_named(key[1])
            for key in finding.affected_functions):
        missing = ", ".join(f"{o}.{n}" for o, n in finding.affected_functions)
        return VerdictRecord(finding.id, "stage2", "FILTERED",
                             f"cited functions unresolvable against the interaction model: {missing}")
    return VerdictRecord(finding.id, "stage2", "PASSED", "")


# stage 3 is phase D, bound under the stage's own name: a tracer that wraps
# it sees the funnel's calls and not those of `dd_run`
stage3_route_and_verify = phase_d_verify


# --- structural verdict engine ---------------------------------------------


def sve_layer1(finding: Finding, ccim: CcimModel) -> VerdictRecord:
    """The deterministic ground-truth checks no earlier stage makes; the first
    failure disproves with the check name and a cited line. Checks 1, 4 and 5
    (reentrancy guard, admin guard, checked arithmetic) belong to stage 1 and
    check 6 (function inventory) to stage 2. Every finding that reaches layer 1
    has passed them: in `run_funnel` by the stage order, in
    `deterministically_refuted` because `any` stops at the first drop. So a
    pass here has passed all eight checks. What each check rests on, and how
    the CCIM can miss it:
    - 2, no fund movement: `footprints.fund`, the `fund` effects of each
      overload and its same-contract callees. Value sent by a low-level
      `call` without a value option, a `delegatecall`, a call through a
      parameter or a cast, assembly or another contract is not seen.
    - 3, view or pure: the header's mutability; a degraded record reads as
      nonpayable and is never dropped here.
    - 7, evidence span: the records' line spans; a line of a modifier or of
      a helper that the function runs lies outside them.
    - 8, no external call: the `call` effects, member calls on state that can
      hold a contract. A call on a parameter, a local or a cast, a low-level
      call on an address, or one in assembly or in a helper is not seen.
    The claimed impact is the card's, which the merge classified from the
    same text; only a finding with no card, one raised after the funnel ran,
    is classified here."""
    impact = finding.card.impact_class if finding.card else classify_impact(finding.text())
    recs = ccim.records_of(finding.affected_functions)

    def disproved(check: str, line: int, note: str) -> VerdictRecord:
        return VerdictRecord(finding.id, "sve_layer1", "DISPROVED",
                             f"check {check}, line {line}: {note}")

    # (2) claimed fund-theft on functions that move no funds
    if impact == "fund-theft" and recs and not access_facts(finding, ccim)[2]:
        return disproved("2:no-fund-movement", recs[0].src[0], "no affected function moves funds")
    # (3) claimed state corruption on view/pure functions
    if impact == "state-corruption" and recs and all(r.mut in ("view", "pure") for r in recs):
        return disproved("3:view-pure", recs[0].src[0], "affected functions cannot write state")
    # (7) evidence lines must fall inside the claimed functions' spans
    if finding.evidence_lines and recs:
        spans = [(r.src[0], r.src[1]) for r in recs]
        for line in finding.evidence_lines:
            if not any(lo <= line <= hi for lo, hi in spans):
                return disproved("7:evidence-span", line, "cited evidence line outside every "
                                                          "affected function span")
    # (8) claimed external call on functions with no call sites
    if _EXTERNAL_CALL_CLAIM_RE.search(fold(finding.text())) and recs \
            and all(not r.call_sites for r in recs):
        return disproved("8:no-external-call", recs[0].src[0],
                         "no affected function issues an external call")
    return VerdictRecord(finding.id, "sve_layer1", "PASSED", "all eight checks passed")


def access_control_bundle(finding: Finding, ccim: CcimModel) -> list[dict]:
    """The parsed access-control facts of every affected function: with the
    role hierarchy, the evidence a layer-2 severity is judged against."""
    functions = []
    for rec in ccim.records_of(finding.affected_functions):
        k = rec.key
        functions.append({
            "function": f"{k[0]}.{k[1]}",
            "visibility": rec.vis,
            "modifiers": list(rec.modifiers),
            "guards": list(rec.guards),
            "writes": sorted(ccim.footprints.writes.get(k, frozenset())),
            "moves_funds": ccim.footprints.fund.get(k, False),
            "admin": ccim.is_admin(k),
        })
    return functions


# the one JSON writer of the layer-2 evidence lines
_EVIDENCE_JSON = json.JSONEncoder(sort_keys=True).encode


def role_hierarchy_line(ccim: CcimModel) -> str:
    """Layer 2's `role_hierarchy:` evidence line, the same for every
    finding: each admin function, `Owner.name`, sorted."""
    return f"role_hierarchy: {_EVIDENCE_JSON(sorted(f'{o}.{n}' for o, n in ccim.admin_set))}"


def sve_layer2(finding: Finding, ccim: CcimModel, reasoner: Reasoner, roles: str,
               budget: int = DEFAULT_CHAR_BUDGET) -> VerdictRecord:
    """Final evidence-packaged verdict; parse failures and backend failures
    degrade to UNCERTAIN, never to DISPROVED. A reply's "severity" naming a
    level of SEVERITY_RANK, in any case, sets the finding's severity and
    flags it `recalibrated`; any other value is ignored. The evidence is
    `roles`, the `role_hierarchy:` line of `role_hierarchy_line` that the
    caller makes once for every finding, one JSON line per function of
    `access_control_bundle`, an `evidence_lines:` line and each affected
    function's `prompts.source_block`, its bodies as written."""
    keys = dict.fromkeys(k for k in finding.affected_functions if ccim.records_of((k,)))
    evidence = "\n".join([
        roles,
        *map(_EVIDENCE_JSON, access_control_bundle(finding, ccim)),
        f"evidence_lines: {_EVIDENCE_JSON(finding.evidence_lines)}",
        *(prompts.source_block(ccim, k) for k in keys),
    ])
    prompt = prompts.render(
        prompts.SVE_LAYER2, budget, {"evidence": evidence},
        title=finding.title, severity=finding.severity, description=finding.description,
    )
    reply = ask(reasoner, "sve_layer2", prompt, budget)
    if reply is None:
        return VerdictRecord(finding.id, "sve_layer2", "UNCERTAIN",
                             "backend failure or unparseable reply", reasoner_used=True)
    severity = reply.get("severity")
    if isinstance(severity, str) and severity.upper() in SEVERITY_RANK:
        finding.severity = severity.upper()
        finding.flags.add("recalibrated")
    verdict = str(reply.get("verdict", "UNCERTAIN")).upper()
    argument = str(reply.get("argument") or reply.get("quote") or "")
    if verdict == "VERIFIED":
        return VerdictRecord(finding.id, "sve_layer2", "CONFIRMED", argument, reasoner_used=True)
    if verdict == "DISPROVED" and argument.strip():
        return VerdictRecord(finding.id, "sve_layer2", "DISPROVED", argument, reasoner_used=True)
    return VerdictRecord(finding.id, "sve_layer2", "UNCERTAIN", argument, reasoner_used=True)


# --- the funnel --------------------------------------------------------------

_STAGE_DROPS = {"DISPROVED", "FILTERED"}


def _guarded(stage: str, check, finding: Finding) -> VerdictRecord:
    """`check(finding)`'s record. A check that raises logs a WARNING that
    names the finding by id and title, since a finding not yet numbered is
    `pending`, and passes the finding, so one failing check never aborts the
    audit."""
    try:
        return check(finding)
    except Exception as exc:
        log.warning("%s failed on %s %r (%s); passing through", stage, finding.id, finding.title,
                    exc)
        return VerdictRecord(finding.id, stage, "PASSED", "stage failure; recall-preserving pass")


def deterministically_refuted(finding: Finding, ccim: CcimModel) -> bool:
    """Whether stage 1, stage 2 or SVE layer 1 drops the finding: the
    admission test for findings raised after the funnel ran (gap re-audit,
    blind-spot review). Each check is guarded as in `run_funnel`."""
    checks = {"stage1": stage1_verify, "stage2": stage2_filter, "sve_layer1": sve_layer1}
    return any(_guarded(stage, lambda f: check(f, ccim), finding).verdict in _STAGE_DROPS
               for stage, check in checks.items())


def run_funnel(merged: MergedFindingSet, ccim: CcimModel, reasoner: Reasoner,
               signals: MergedSignals | None = None,
               budget: int = DEFAULT_CHAR_BUDGET) -> tuple[list[Finding], dict]:
    """Apply the stages in cost order over the merged set. Output of every
    stage is a subset of its input; stage failures degrade to pass-through."""
    stats: dict = {"stages": [], "records": []}
    current = list(merged.findings)

    def apply_stage(name: str, fn) -> None:
        nonlocal current
        survivors = []
        tally: dict[str, int] = {}
        for f in current:
            record = _guarded(name, fn, f)
            stats["records"].append(record)
            tally[record.verdict] = tally.get(record.verdict, 0) + 1
            if record.verdict in _STAGE_DROPS:
                continue
            if record.verdict == "UNCERTAIN" and name == "sve_layer2":
                f.flags.add("unverified")
            survivors.append(f)
        stats["stages"].append({"stage": name, "in": len(current), "out": len(survivors),
                                "verdicts": tally})
        current = survivors

    apply_stage("stage1", lambda f: stage1_verify(f, ccim))
    apply_stage("stage2", lambda f: stage2_filter(f, ccim))
    apply_stage("stage3", lambda f: stage3_route_and_verify(f, ccim, reasoner, signals, budget))
    # stage 4 (clustering and scoring) already ran inside the merge; the funnel
    # re-reads the post-merge confidence without touching membership
    stats["stages"].append({"stage": "stage4", "in": len(current), "out": len(current),
                            "verdicts": {"SCORED": len(current)}})
    apply_stage("sve_layer1", lambda f: sve_layer1(f, ccim))
    roles = role_hierarchy_line(ccim)
    apply_stage("sve_layer2", lambda f: sve_layer2(f, ccim, reasoner, roles, budget))

    stats["final"] = len(current)
    return current, stats


def stats_to_dict(stats: dict) -> dict:
    return {
        "stages": stats["stages"],
        "final": stats.get("final", 0),
        "verdicts": [
            {"finding": r.finding_id, "stage": r.stage, "verdict": r.verdict,
             "evidence": r.evidence, "reasoner_used": r.reasoner_used}
            for r in stats.get("records", [])
        ],
    }
