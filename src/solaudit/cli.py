"""Single entry point: substrate construction, concurrent audit pipelines,
merge, reduction funnel, coverage and report emission."""

from __future__ import annotations

import argparse
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

from . import prompts
from .ccim import FnKey, assemble_ccim
from .coverage import (
    attention_residual,
    blindspot_prompts,
    compute_gap_set,
    detect_features,
    discussed_names_from,
    gap_reaudit_prompts,
    key_risks,
)
from .dossier import dd_run
from .engines import DEFAULT_SIGNAL_CAP, ingest_external, run_engines
from .findings import SEVERITY_RANK, Finding, finding_from_payload, reply_list
from .funnel import deterministically_refuted, run_funnel
from .ingest import IngestError, build_audit_source, classify_files, resolve_remappings
from .interaction import id_run
from .merge import base_confidence, extract_card, merge
from .reasoner import DEFAULT_CHAR_BUDGET, MockReasoner, Reasoner, ask
from .report import AuditReport, build_citations, ccim_summary, emit

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


class _RunConfigFields(NamedTuple):
    path: str
    scope: list[str] | None = None
    signal_cap: int = DEFAULT_SIGNAL_CAP
    char_budget: int = DEFAULT_CHAR_BUDGET
    mock_script: str | None = None
    out_dir: str = "audit-out"
    formats: tuple[str, ...] = ("markdown", "json")
    severity_gate: str = "HIGH"
    external_signals: tuple[str, ...] = ()


class RunConfig(_RunConfigFields):
    """One audit's settings; no report format or a severity gate off the
    scale raises ValueError when it is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.formats:
            raise ValueError("at least one report format must be selected")
        if self.severity_gate not in SEVERITY_RANK:
            raise ValueError(f"unknown severity gate {self.severity_gate!r}")
        return self


def _identity(f: Finding) -> tuple:
    return f.title, tuple(f.affected_functions), tuple(f.evidence_lines)


def _extra_round_findings(prompt_list: list[tuple[dict[str, FnKey], str]], stage: str,
                          reasoner: Reasoner, ccim, signals, flag: str, budget: int,
                          report: list[Finding]) -> list[Finding]:
    """Closed-loop follow-up passes (gap re-audit, blind-spot review), each
    prompt with its section ids to the function each section reviews. A
    reply entry that names no function of its own is attributed to the
    section its `review_id` names (`prompts.by_id`). Parsed findings are
    admitted only after the deterministic funnel checks. A finding equal to
    one already in `report` or raised earlier in the round (same title,
    affected functions and evidence lines) is skipped, and the admitted
    findings are numbered after those of this flag in `report`."""
    prefix = f"{flag[0].upper()}-"
    seen = {_identity(f) for f in report}
    number = max((int(f.id[len(prefix):]) for f in report if f.id.startswith(prefix)), default=0)
    found = []
    for ids, prompt in prompt_list:
        for entry in reply_list(ask(reasoner, stage, prompt, budget) or {}, "findings"):
            if not isinstance(entry, dict):
                continue
            f = finding_from_payload(entry, "I")
            if f is None:
                named = prompts.by_id([entry], "review_id", ids, "section")
                f = finding_from_payload(entry, "I", [named[0][0]]) if named else None
            if f is not None:
                found.append(f)
    admitted = []
    for f in found:
        if _identity(f) in seen:
            continue
        seen.add(_identity(f))
        if deterministically_refuted(f, ccim):
            continue
        number += 1
        f.id = f"{prefix}{number:03d}"
        f.card = extract_card(f, ccim)
        f.flags.add(flag)
        f.confidence = base_confidence(f, ccim, signals)
        admitted.append(f)
    return admitted


def run(config: RunConfig, reasoner: Reasoner | None = None) -> AuditReport:
    """Execute the three macro-phases: deterministic substrate, concurrent
    audit pipelines, merge + funnel + coverage + report."""
    files = classify_files(config.path)
    remappings = resolve_remappings(config.path)
    source = build_audit_source(files, config.scope, remappings)
    ccim = assemble_ccim(source)

    if reasoner is None:
        reasoner = MockReasoner.from_file(config.mock_script) if config.mock_script \
            else MockReasoner()

    external = [s for path in config.external_signals
                for s in ingest_external(path, source.offsets)]
    merged_signals = run_engines(ccim, None, external, config.signal_cap)
    risk = key_risks(ccim)

    with ThreadPoolExecutor(max_workers=2, thread_name_prefix="pipeline") as pool:
        dd_future = pool.submit(dd_run, ccim, merged_signals, reasoner, risk,
                                budget=config.char_budget)
        id_future = pool.submit(id_run, ccim, merged_signals, reasoner, budget=config.char_budget)
        f_d = dd_future.result()
        f_i = id_future.result()

    merged = merge(f_d, f_i, ccim, merged_signals)
    final, funnel_stats = run_funnel(merged, ccim, reasoner, merged_signals, config.char_budget)

    features = detect_features(ccim)
    pipeline_findings = list(merged.findings)
    coverage = compute_gap_set(pipeline_findings, features)

    if coverage.gap_set:
        reaudit = _extra_round_findings(
            [({}, p) for p in gap_reaudit_prompts(coverage.gap_set, ccim, features,
                                                  config.char_budget)],
            "gap_reaudit", reasoner, ccim, merged_signals, "gap-reaudit",
            config.char_budget, final)
        if reaudit:
            final.extend(reaudit)
            pipeline_findings.extend(reaudit)
            coverage = compute_gap_set(pipeline_findings, features)

    residuals = attention_residual(
        ccim, risk, discussed_names_from(pipeline_findings),
        " ".join(f.text() for f in pipeline_findings))
    blind = _extra_round_findings(
        blindspot_prompts(residuals, ccim, budget=config.char_budget),
        "blindspot", reasoner, ccim, merged_signals, "blindspot-review",
        config.char_budget, final)
    if blind:
        final.extend(blind)
        pipeline_findings.extend(blind)
        residuals = attention_residual(
            ccim, risk, discussed_names_from(pipeline_findings),
            " ".join(f.text() for f in pipeline_findings))

    return AuditReport(
        findings=final,
        citations=build_citations(final, ccim, source),
        merged=merged,
        funnel_stats=funnel_stats,
        coverage=coverage,
        residuals=residuals,
        ccim_summary=ccim_summary(ccim),
        scope=ccim.scope,
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="solaudit",
        description="Deterministic Solidity auditing engine with mockable reasoning backend",
    )
    p.add_argument("--path", required=True, help="repository root or directory with .sol files")
    p.add_argument("--scope", action="append", default=None,
                   help="restrict the audit scope to this contract (repeatable)")
    p.add_argument("--signal-cap", type=int, default=DEFAULT_SIGNAL_CAP,
                   help="global cap on merged deterministic signals (default 50)")
    p.add_argument("--char-budget", type=int, default=DEFAULT_CHAR_BUDGET,
                   help="character budget of every reasoner prompt; only source and "
                        "evidence blocks are cut to meet it (default 24000)")
    p.add_argument("--mock-script", default=None,
                   help="path to a mock reasoner script (JSON); default: unscripted mock")
    p.add_argument("--out", default="audit-out", help="output directory (default audit-out)")
    p.add_argument("--format", action="append", choices=("markdown", "json"), default=None,
                   help="report format (repeatable; default both)")
    p.add_argument("--severity-gate", default="HIGH", choices=list(SEVERITY_RANK),
                   help="exit 1 when a finding at or above this severity survives (default HIGH)")
    p.add_argument("--external-signals", action="append", default=[],
                   help="normalized external-tool report JSON to ingest (repeatable)")
    return p


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    config = RunConfig(
        path=args.path,
        scope=args.scope,
        signal_cap=args.signal_cap,
        char_budget=args.char_budget,
        mock_script=args.mock_script,
        out_dir=args.out,
        formats=tuple(args.format) if args.format else ("markdown", "json"),
        severity_gate=args.severity_gate,
        external_signals=tuple(args.external_signals),
    )
    try:
        report = run(config)
        written = emit(report, config.formats, config.out_dir)
    except (IngestError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for path in written:
        print(f"wrote {path}")
    gate = SEVERITY_RANK[config.severity_gate]
    if any(SEVERITY_RANK[f.severity] >= gate for f in report.findings):
        return EXIT_FINDINGS
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
