"""Deterministic signal engines and the severity-ranked signal merger.

Engines are pure functions over the immutable interaction model; the runner
invokes each under exception isolation so no single engine can block a run.
"""

from __future__ import annotations

import logging
from typing import Callable

from ..ccim import CcimModel
from .behavior import infer_preconditions, itpc_high_risk, run_bpm, run_cir, run_ira, run_itpc_lite
from .bva import COUNTER_STEMS, counter_pairs, run_bva
from .external import ingest_external
from .patterns import run_pattern_detectors
from .signal import (
    DEFAULT_SIGNAL_CAP,
    ENGINE_TAGS,
    MergedSignals,
    Signal,
    merge_signals,
    render_markdown,
)

log = logging.getLogger(__name__)

DEFAULT_ENGINES = (
    ("BVA", run_bva),
    ("BPM", run_bpm),
    ("CIR", run_cir),
    ("IRA", run_ira),
    ("ITPC", run_itpc_lite),
    ("PATTERNS", run_pattern_detectors),
)


def run_engines(
    ccim: CcimModel,
    engines: tuple[tuple[str, Callable[[CcimModel], list]], ...] | None = None,
    external: list[Signal] | None = None,
    cap: int = DEFAULT_SIGNAL_CAP,
) -> MergedSignals:
    """Run every engine under isolation and merge the pooled signals."""
    outputs: dict[str, list[Signal]] = {tag: [] for tag in ENGINE_TAGS}
    for label, fn in engines if engines is not None else DEFAULT_ENGINES:
        try:
            produced = fn(ccim)
        except Exception as exc:
            log.warning("engine %s failed (%s); empty fallback recorded", label, exc)
            produced = []
        for s in produced:
            outputs.setdefault(s.source_tag, []).append(s)
    for s in external or []:
        outputs.setdefault(s.source_tag, []).append(s)
    return merge_signals(outputs, cap=cap)


__all__ = [
    "COUNTER_STEMS",
    "DEFAULT_ENGINES",
    "DEFAULT_SIGNAL_CAP",
    "ENGINE_TAGS",
    "MergedSignals",
    "Signal",
    "counter_pairs",
    "infer_preconditions",
    "ingest_external",
    "itpc_high_risk",
    "merge_signals",
    "render_markdown",
    "run_bpm",
    "run_bva",
    "run_cir",
    "run_engines",
    "run_ira",
    "run_itpc_lite",
    "run_pattern_detectors",
]
