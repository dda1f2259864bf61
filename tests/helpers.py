"""Shared test utilities: finding factories, generated models and
instrumented reasoners."""

from __future__ import annotations

import threading

from corpus import write_repo

from solaudit.ccim import assemble_ccim
from solaudit.findings import Finding
from solaudit.ingest import build_audit_source, classify_files, resolve_remappings
from solaudit.reasoner import MockReasoner, Reasoner, ReasonerError, ReasonerRequest, ScriptEntry


def make_finding(fid="D-001", pipeline="D", title="finding", description="",
                 scenario="", severity="HIGH", functions=(("Vault", "withdraw"),),
                 lines=(), confidence=0.5, flags=()):
    return Finding(
        id=fid, pipeline=pipeline, title=title, description=description,
        attack_scenario=scenario, severity=severity,
        affected_functions=[tuple(f) for f in functions],
        evidence_lines=list(lines), confidence=confidence, flags=set(flags),
    )


def scripted(entries: list[dict]) -> MockReasoner:
    return MockReasoner([
        ScriptEntry(stage=e["stage"], match=tuple(e.get("match", ())), response=e["response"])
        for e in entries
    ])


def generated_model(gen, tmp_path_factory, shape, seed):
    """The model of the benchmark generator's corpus of `shape` at `seed`."""
    corpus = gen.generate(shape, seed=seed)
    root = write_repo(corpus.files, tmp_path_factory.mktemp("gen"))
    return assemble_ccim(build_audit_source(classify_files(root), None, resolve_remappings(root)))


class RecordingReasoner(MockReasoner):
    """The mock, scripted or not, keeping every request it is sent."""

    def __init__(self, script: list[ScriptEntry] | None = None):
        super().__init__(script)
        self.requests: list[ReasonerRequest] = []

    @property
    def prompts(self) -> list[str]:
        return [r.prompt for r in self.requests]

    def respond(self, request: ReasonerRequest):
        self.requests.append(request)
        return super().respond(request)


class ThrowingReasoner(Reasoner):
    """Fails every call; used to assert degraded-path isolation."""

    def __init__(self):
        self.calls = 0

    def respond(self, request: ReasonerRequest):
        self.calls += 1
        raise ReasonerError("backend down")

    def call_count(self, stage: str) -> int:
        return self.calls


class RendezvousReasoner(Reasoner):
    """Holds the first dossier-stage call and the first interaction-stage
    call at one barrier; both get through only when the two pipelines run at
    the same time. `passed` names the families that got through."""

    _FAMILIES = (("phase_", "dd"), ("stage1_", "id"), ("stage2_", "id"), ("stage3_", "id"),
                 ("standalone", "id"))

    def __init__(self, inner: Reasoner):
        self.inner = inner
        self.barrier = threading.Barrier(2, timeout=5)
        self.passed: set[str] = set()
        self._arrived: set[str] = set()
        self._lock = threading.Lock()

    def respond(self, request: ReasonerRequest):
        family = next((f for prefix, f in self._FAMILIES if request.stage.startswith(prefix)), None)
        with self._lock:
            first = family is not None and family not in self._arrived
            if first:
                self._arrived.add(family)
        if first:
            try:
                self.barrier.wait()
            except threading.BrokenBarrierError:
                pass
            else:
                with self._lock:
                    self.passed.add(family)
        return self.inner.respond(request)

    def call_count(self, stage: str) -> int:
        return self.inner.call_count(stage)


def json_instruction(template: str) -> str:
    """The response-schema instruction that closes a prompt template."""
    return template[template.rindex("\n\n") + 2:].format()
