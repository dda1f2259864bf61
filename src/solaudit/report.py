"""Report assembly and emission: line-accurate citations through the offset
map, funnel statistics, coverage tables, and byte-stable Markdown/JSON output."""

from __future__ import annotations

import logging
from pathlib import Path
from typing import NamedTuple

from .ccim import CcimModel, canonical_json
from .coverage import CoverageReport, ResidualClassification
from .findings import Finding
from .funnel import stats_to_dict
from .ingest import AuditSource, map_line
from .merge import MergedFindingSet

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


class AuditReport(NamedTuple):
    findings: list[Finding]
    citations: dict[str, list[dict]]
    merged: MergedFindingSet
    funnel_stats: dict
    coverage: CoverageReport
    residuals: ResidualClassification
    ccim_summary: dict
    scope: tuple[str, ...]


def build_citations(findings: list[Finding], ccim: CcimModel,
                    source: AuditSource) -> dict[str, list[dict]]:
    """Map the span of every overload of each affected function, and every
    evidence line, back to (file, original line) pairs."""
    out: dict[str, list[dict]] = {}
    for f in findings:
        entries = []
        for rec in ccim.records_of(f.affected_functions):
            path, start = map_line(source.offsets, rec.src[0])
            _, end = map_line(source.offsets, rec.src[1])
            entries.append({"function": f"{rec.owner}.{rec.name}", "file": path,
                            "lines": [start, end]})
        for line in f.evidence_lines:
            try:
                path, orig = map_line(source.offsets, line)
            except ValueError:
                log.warning("evidence line %s of %s outside the audit source; dropped", line, f.id)
                continue
            entries.append({"evidence": True, "file": path, "lines": [orig, orig]})
        out[f.id] = entries
    return out


def ccim_summary(ccim: CcimModel) -> dict:
    return {
        "contracts": sorted({r.owner for r in ccim.records}),
        "functions": len(ccim.records),
        "edges": len(ccim.graph.edges),
        "contract_edges": len(ccim.graph.contract_edges),
        "rotation_risks": sorted(ccim.deps.rot),
        "trust_gaps": sorted(f"{a}->{b}" for a, b in ccim.trust.trustgap),
        "callbacks": sorted(f"{a}<->{b}" for a, b in ccim.trust.callbacks),
        "admin_functions": sorted(f"{o}.{n}" for o, n in ccim.admin_set),
    }


def _finding_dict(f: Finding, citations: list[dict]) -> dict:
    return {
        "id": f.id,
        "pipeline": f.pipeline,
        "title": f.title,
        "description": f.description,
        "attack_scenario": f.attack_scenario,
        "severity": f.severity,
        "confidence": round(f.confidence, 6),
        "affected_functions": [f"{o}.{n}" for o, n in f.affected_functions],
        "evidence_lines": list(f.evidence_lines),
        "citations": citations,
        "card": {
            "vulnerable_function": ".".join(f.card.vulnerable_function),
            "abused_state_variable": f.card.abused_state_variable,
            "attacker_role": f.card.attacker_role,
            "impact_class": f.card.impact_class,
        } if f.card else None,
        "flags": sorted(f.flags),
        "matched_ids": sorted(set(f.matched_ids)),
    }


def report_to_json(report: AuditReport) -> str:
    """The report's `canonical_json` form, findings in sort-key order, with
    a closing newline."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scope": list(report.scope),
        "findings": [_finding_dict(f, report.citations.get(f.id, []))
                     for f in sorted(report.findings, key=lambda f: f.sort_key())],
        "merged": report.merged.to_dict(),
        "funnel": stats_to_dict(report.funnel_stats),
        "coverage": report.coverage.to_dict(),
        "residuals": {
            "status": {f"{o}.{n}": s for (o, n), s in sorted(report.residuals.status.items())},
            "risk_scores": {f"{o}.{n}": round(v, 3)
                            for (o, n), v in sorted(report.residuals.risk_score.items())},
        },
        "ccim_summary": report.ccim_summary,
    }
    return canonical_json(doc) + "\n"


def report_to_markdown(report: AuditReport) -> str:
    lines: list[str] = []
    push = lines.append
    push("# Audit report")
    push("")
    push(f"Scope: {', '.join(report.scope) or '(empty)'}")
    push("")
    push(f"## Findings ({len(report.findings)})")
    push("")
    for f in sorted(report.findings, key=lambda f: f.sort_key()):
        push(f"### [{f.severity}] {f.title} ({f.id}, confidence {f.confidence:.2f})")
        push("")
        if f.description:
            push(f.description)
        if f.attack_scenario:
            push("")
            push(f"Attack scenario: {f.attack_scenario}")
        push("")
        for c in report.citations.get(f.id, []):
            label = "evidence" if c.get("evidence") else c.get("function", "")
            push(f"- {label}: {c['file']} lines {c['lines'][0]}-{c['lines'][1]}")
        if f.flags:
            push(f"- flags: {', '.join(sorted(f.flags))}")
        push("")
    push("## Reduction funnel")
    push("")
    push("| stage | in | out | verdicts |")
    push("|-------|----|-----|----------|")
    for s in report.funnel_stats.get("stages", []):
        verdicts = ", ".join(f"{k}:{v}" for k, v in sorted(s["verdicts"].items()))
        push(f"| {s['stage']} | {s['in']} | {s['out']} | {verdicts} |")
    push("")
    push("## Coverage")
    push("")
    push(f"Detected features: {', '.join(report.coverage.detected_features) or '(none)'}")
    push("")
    push(f"Covered bug classes: {', '.join(report.coverage.covered_classes) or '(none)'}")
    push("")
    push(f"Gap set: {', '.join(report.coverage.gap_set) or '(empty)'}")
    push("")
    push("| keyword class | hit |")
    push("|---------------|-----|")
    for cls, hit in sorted(report.coverage.keyword_map.items()):
        push(f"| {cls} | {'yes' if hit else 'no'} |")
    push("")
    push("## Attention residuals")
    push("")
    push("| function | status | risk score |")
    push("|----------|--------|------------|")
    ordered = sorted(report.residuals.status.items(),
                     key=lambda kv: (-report.residuals.risk_score[kv[0]], kv[0]))
    for key, status in ordered:
        push(f"| {key[0]}.{key[1]} | {status} | {report.residuals.risk_score[key]:.2f} |")
    push("")
    push("## Interaction-model summary")
    push("")
    for k, v in sorted(report.ccim_summary.items()):
        push(f"- {k}: {v}")
    push("")
    return "\n".join(lines)


def emit(report: AuditReport, formats: tuple[str, ...], out_dir: str | Path) -> list[Path]:
    """Write the selected report formats; returns the written paths."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {out_dir}: {exc}") from exc
    written = []
    if "json" in formats:
        path = out_dir / "report.json"
        path.write_text(report_to_json(report), encoding="utf-8")
        written.append(path)
    if "markdown" in formats:
        path = out_dir / "report.md"
        path.write_text(report_to_markdown(report), encoding="utf-8")
        written.append(path)
    return written
