"""Per-layer tracing from outside the program.

The tracer replaces module attributes at the place the pipeline looks them up
(`solaudit.cli.assemble_ccim`, `solaudit.dossier.run_phase_c`, ...) with
timing wrappers, so no file of the program changes. Spans live in memory with
name, start, end, parent and thread; the dossier and interaction pipelines run
on their own threads, so each thread keeps its own span stack and a thread's
first span hangs off the audit span. A target that no longer exists is listed
in `missing` instead of raising, so a later refactor degrades the trace rather
than the benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import logging
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

# the twelve stages of `solaudit.reasoner.SCHEMA_DEFAULTS`; fixed here so the
# metric names stay stable if the program renames a stage
REASONER_STAGES = ("phase_a", "phase_b", "phase_c", "phase_d", "phase_e", "stage1_triage",
                   "stage2_spec", "stage3_verify", "standalone", "sve_layer2",
                   "gap_reaudit", "blindspot")
FUNNEL_STAGES = ("stage1", "stage2", "stage3", "sve_layer1", "sve_layer2")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: str


def _counting(key: str, measure: Callable) -> Callable:
    def hook(tracer: "Tracer", result) -> None:
        tracer.counts[key] = measure(result)
    return hook


def _funnel_counts(tracer: "Tracer", result) -> None:
    _, stats = result
    entered = 0
    for stage in stats["stages"]:
        if stage["stage"] in FUNNEL_STAGES:
            tracer.counts[f"funnel.{stage['stage']}.dropped"] = stage["in"] - stage["out"]
        if stage["stage"] == "stage1":
            entered = stage["in"]
    tracer.counts["funnel.kept_ratio"] = stats["final"] / entered if entered else 0.0


def _signal_counts(tracer: "Tracer", merged) -> None:
    tracer.counts["engines.signals"] = sum(s["before"] for s in merged.stats.values())
    tracer.counts["engines.retained"] = len(merged.retained)


def _ccim_counts(tracer: "Tracer", model) -> None:
    tracer.counts["ccim.records"] = len(model.records)
    tracer.counts["ccim.edges"] = len(model.graph.edges)


def _merge_counts(tracer: "Tracer", merged) -> None:
    tracer.counts["merge.in"] = len(merged.findings)
    tracer.counts["merge.clusters"] = len(merged.partition.clusters)


# (module:attribute path, span name, result hook)
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("solaudit.cli:classify_files", "ingest", None),
    ("solaudit.cli:resolve_remappings", "ingest", None),
    ("solaudit.cli:build_audit_source", "ingest",
     _counting("ingest.lines", lambda s: s.offsets.total_lines)),
    ("solaudit.cli:assemble_ccim", "ccim", _ccim_counts),
    ("solaudit.ccim.build:parse_function_records", "ccim.parse", None),
    ("solaudit.ccim.build:build_resolution", "ccim.resolution", None),
    ("solaudit.ccim.build:build_call_graph", "ccim.graph", None),
    ("solaudit.ccim.build:propagate_footprints", "ccim.footprints", None),
    ("solaudit.ccim.build:compute_state_dependencies", "ccim.deps", None),
    ("solaudit.ccim.build:classify_admin", "ccim.deps", None),
    ("solaudit.ccim.build:flag_rotation_risks", "ccim.deps", None),
    ("solaudit.ccim.build:compute_trust_model", "ccim.trust", None),
    ("solaudit.cli:run_engines", "engines", _signal_counts),
    ("solaudit.engines:merge_signals", "engines.merge", None),
    ("solaudit.cli:dd_run", "dossier", _counting("dossier.findings", len)),
    ("solaudit.dossier:compile_dossiers", "dossier.compile", None),
    ("solaudit.dossier:phase_a_verify", "dossier.phase_a", None),
    ("solaudit.dossier:run_discovery_phase", "dossier.discovery", None),
    ("solaudit.dossier:run_phase_c", "dossier.phase_c", None),
    ("solaudit.dossier:build_phase_c_interactions", "dossier.phase_c.build",
     _counting("dossier.phase_c.groups", len)),
    ("solaudit.dossier:phase_d_prefilter", "dossier.phase_d", None),
    ("solaudit.dossier:phase_d_claim_first", "dossier.phase_d", None),
    ("solaudit.dossier:phase_e_recalibrate", "dossier.phase_e", None),
    ("solaudit.cli:id_run", "interaction", _counting("interaction.findings", len)),
    ("solaudit.interaction:select_pairs", "interaction.select_pairs", None),
    ("solaudit.interaction:infer_spec", "interaction.infer_spec", None),
    ("solaudit.interaction:spec_verify", "interaction.spec_verify", None),
    ("solaudit.interaction:audit_standalone", "interaction.standalone", None),
    ("solaudit.cli:merge", "merge", _merge_counts),
    ("solaudit.cli:run_funnel", "funnel", _funnel_counts),
    ("solaudit.funnel:stage1_verify", "funnel.stage1", None),
    ("solaudit.funnel:stage2_filter", "funnel.stage2", None),
    ("solaudit.funnel:stage3_route_and_verify", "funnel.stage3", None),
    ("solaudit.funnel:sve_layer1", "funnel.sve_layer1", None),
    ("solaudit.funnel:sve_layer2", "funnel.sve_layer2", None),
    ("solaudit.cli:detect_features", "coverage", None),
    ("solaudit.cli:compute_gap_set", "coverage",
     _counting("coverage.gaps", lambda c: len(c.gap_set))),
    ("solaudit.cli:gap_reaudit_prompts", "coverage", None),
    ("solaudit.cli:attention_residual", "coverage", None),
    ("solaudit.cli:discussed_names_from", "coverage", None),
    ("solaudit.cli:blindspot_prompts", "coverage", None),
    ("solaudit.cli:_extra_round_findings", "coverage", None),
    ("solaudit.cli:build_citations", "report.citations", None),
    ("solaudit.report:report_to_json", "report.render", None),
    ("solaudit.report:report_to_markdown", "report.render", None),
    ("solaudit.cli:emit", "report.emit",
     _counting("report.kb", lambda paths: sum(p.stat().st_size for p in paths) / 1000)),
)
ENGINE_TABLE = "solaudit.engines:DEFAULT_ENGINES"     # (label, fn) pairs -> engines.<label>
REASONER = "solaudit.reasoner:MockReasoner.respond"
WARNING_LOGGER = "solaudit"
FAILURE_LOGGERS = {"engines.failed": "solaudit.engines", "funnel.passthrough": "solaudit.funnel"}


def _resolve(target: str):
    """(owner object, attribute name) for "module:attr.path", or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class _WarningCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(level=logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.name] += 1


class Tracer:
    """Wraps the targets on `install()` and restores them on `uninstall()`.
    `reset()` starts a new audit's record."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.warnings: Counter = Counter()      # WARNING records per logger name
        self.reasoner: dict[str, list[float]] = defaultdict(lambda: [0, 0, 0.0])
        self.truncated = 0
        self.missing: list[str] = []
        self.root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()
        self.warnings.clear()
        self.reasoner.clear()
        self.truncated = 0

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for target, name, hook in TARGETS:
            self._patch(target, lambda fn, name=name, hook=hook: self._timed(fn, name, hook))
        found = _resolve(ENGINE_TABLE)
        if found is None:
            self.missing.append(ENGINE_TABLE)
        else:
            owner, attr = found
            table = getattr(owner, attr)
            wrapped = tuple((label, self._timed(fn, f"engines.{label.lower()}", None))
                            for label, fn in table)
            self._set(owner, attr, table, wrapped)
        self._patch(REASONER, self._reasoner)
        handler = _WarningCounter(self.warnings)
        logger = logging.getLogger(WARNING_LOGGER)
        logger.addHandler(handler)
        self._undo.append(lambda: logger.removeHandler(handler))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch(self, target: str, make: Callable) -> None:
        found = _resolve(target)
        if found is None:
            self.missing.append(target)
            return
        owner, attr = found
        original = getattr(owner, attr)
        self._set(owner, attr, original, make(original))

    def _set(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    # --- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def audit(self):
        """The root span of one audit, opened around the call into the CLI."""
        self.root = next(self._ids)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(self.root, "audit", t0, time.perf_counter(), 0,
                                   threading.current_thread().name))

    def _timed(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, t0, t1, stack[-1] if stack else self.root,
                                       threading.current_thread().name))
            if hook is not None:
                hook(self, result)
            return result
        return wrapper

    def _reasoner(self, respond: Callable) -> Callable:
        """Reasoner calls are tallied per stage rather than kept as spans:
        phase C alone makes tens of thousands of them."""
        def wrapper(reasoner, request):
            t0 = time.perf_counter()
            try:
                return respond(reasoner, request)
            finally:
                busy = time.perf_counter() - t0
                with self._lock:
                    tally = self.reasoner[request.stage]
                    tally[0] += 1
                    tally[1] += len(request.prompt)
                    tally[2] += busy
                    self.truncated += len(request.prompt) == request.budget
        return wrapper

    # --- derived figures ----------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.end - s.start - covered
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive seconds and self seconds."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"count": 0, "s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["s"] += s.end - s.start
            row["self_s"] += selfs[s.id]
        return out

    def metrics(self) -> dict[str, float]:
        """This audit's per-layer figures; a layer that recorded no span
        reads 0, and a wrapped name that was not found is in `missing`."""
        out: dict[str, float] = {}
        for name, row in self.summary().items():
            out[f"{name}.s"] = row["s"]
        pipes = [s for s in self.spans if s.name in ("dossier", "interaction")]
        out["pipelines.s"] = (max(s.end for s in pipes) - min(s.start for s in pipes)) if pipes else 0.0
        out.update(self.counts)
        for metric, logger in FAILURE_LOGGERS.items():
            out[metric] = self.warnings[logger]
        for stage in REASONER_STAGES:
            calls, chars, busy = self.reasoner.get(stage, (0, 0, 0.0))
            out[f"reasoner.{stage}.calls"] = calls
            out[f"reasoner.{stage}.kchars"] = chars / 1000
            out[f"reasoner.{stage}.busy_s"] = busy
        out["reasoner.truncated"] = self.truncated
        out["trace.missing"] = len(self.missing)
        return out
