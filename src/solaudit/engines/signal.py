"""Normalized deterministic-engine risk signals and the severity-ranked,
capped signal merger."""

from __future__ import annotations

import logging
from typing import NamedTuple

from ..findings import SEVERITY_RANK

log = logging.getLogger(__name__)

ENGINE_TAGS = ("ITPC", "CIR", "CCPTI", "BPM", "IRA", "CUSTOM", "SIG", "MATH",
               "ASM", "SLI", "MYT", "BVA")

DEFAULT_SIGNAL_CAP = 50


class _SignalFields(NamedTuple):
    source_tag: str
    id: str
    description: str
    severity: str                        # CRITICAL..INFO
    confidence: float                    # [0, 1]
    function: tuple[str, str] | None = None
    line_hint: int | None = None


class Signal(_SignalFields):
    """One engine's risk signal; a severity off the scale or a confidence
    outside [0, 1] raises ValueError when it is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.severity not in SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        return self


class MergedSignals(NamedTuple):
    per_engine: dict[str, tuple[Signal, ...]]
    stats: dict[str, dict[str, int]]     # tag -> {"before": n, "after": m}
    retained: tuple[Signal, ...]         # every kept signal, highest rank first


def _sort_key(s: Signal) -> tuple:
    return (-SEVERITY_RANK[s.severity], -s.confidence, s.source_tag, s.id)


def merge_signals(engine_outputs: dict[str, list[Signal]],
                  cap: int = DEFAULT_SIGNAL_CAP) -> MergedSignals:
    """Pool all engine outputs, sort by severity then confidence, retain the
    top `cap`, and record per-tag before/after counts. Signals are grouped by
    their own source tag; declared-but-silent engines keep an empty slot."""
    pooled: list[Signal] = []
    before: dict[str, int] = {tag: 0 for tag in engine_outputs}
    for signals in engine_outputs.values():
        for s in signals:
            before[s.source_tag] = before.get(s.source_tag, 0) + 1
            pooled.append(s)
    pooled.sort(key=_sort_key)
    retained = tuple(pooled[:cap])

    per_engine: dict[str, tuple[Signal, ...]] = {
        tag: tuple(s for s in retained if s.source_tag == tag)
        for tag in sorted(before)
    }
    stats = {tag: {"before": before[tag], "after": len(per_engine[tag])}
             for tag in per_engine}
    return MergedSignals(per_engine=per_engine, stats=stats, retained=retained)


def render_markdown(merged: MergedSignals) -> str:
    """One section per signal source, for direct prompt injection."""
    lines: list[str] = ["# Deterministic signal record", ""]
    for tag in sorted(merged.per_engine):
        signals = merged.per_engine[tag]
        stats = merged.stats.get(tag, {})
        lines.append(f"## {tag} ({stats.get('after', len(signals))} of {stats.get('before', len(signals))} signals)")
        if not signals:
            lines.append("(no signals)")
        for s in signals:
            where = f"{s.function[0]}.{s.function[1]}" if s.function else "global"
            hint = f" line {s.line_hint}" if s.line_hint else ""
            lines.append(f"- [{s.severity}/{s.confidence:.2f}] {s.id} @ {where}{hint}: {s.description}")
        lines.append("")
    return "\n".join(lines)
