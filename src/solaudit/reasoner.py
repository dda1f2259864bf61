"""Abstract reasoning backend plus a deterministic, scriptable mock.

Every stage that would consult a language model goes through this interface;
the mock makes the whole system runnable and testable offline. The boundary
carries only the structured reply: `Reasoner.respond` returns the reply
payload as a dict or raises `ReasonerError`, an unparseable reply included.
A live adapter can subclass Reasoner, but nothing in the package requires one.
"""

from __future__ import annotations

import json
import logging
import threading
from collections import Counter
from pathlib import Path
from typing import NamedTuple

log = logging.getLogger(__name__)

DEFAULT_CHAR_BUDGET = 24_000


class ReasonerError(Exception):
    """Base class for backend failures (transport, timeout, unparseable reply)."""


class BudgetExceededError(ReasonerError):
    """Prompt longer than the request's character budget."""


class ReasonerRequest(NamedTuple):
    stage: str                  # phase/stage identifier, e.g. "phase_a"
    prompt: str
    budget: int = DEFAULT_CHAR_BUDGET


# schema-valid defaults per stage, returned by the mock for unscripted requests
SCHEMA_DEFAULTS: dict[str, dict] = {
    "phase_a": {"items": []},
    "phase_b": {"findings": []},
    "phase_c": {"reviews": []},
    "phase_d": {"claim": "", "prevention": "", "quote": "", "verdict": "UNCLEAR"},
    "stage1_triage": {"pairs": []},
    "stage2_spec": {"specs": []},
    "stage3_verify": {"pairs": []},
    "standalone": {"findings": []},
    "sve_layer2": {"verdict": "UNCERTAIN", "argument": "", "severity": None},
    "gap_reaudit": {"findings": []},
    "blindspot": {"findings": []},
}


class Reasoner:
    """Interface: respond to a structured request, and expose per-stage call
    counters so tests can assert which stages consulted the backend."""

    def respond(self, request: ReasonerRequest) -> dict:
        """The reply payload. Raises `ReasonerError` on any failure, a reply
        that does not parse to a JSON object included."""
        raise NotImplementedError

    def call_count(self, stage: str) -> int:
        raise NotImplementedError


class ScriptEntry(NamedTuple):
    stage: str
    match: tuple[str, ...]        # all substrings must appear in the prompt
    response: dict


class MockReasoner(Reasoner):
    """Deterministic mock: a keyed table of (stage, prompt substrings) ->
    canned structured response. Unscripted requests get their stage's default."""

    def __init__(self, script: list[ScriptEntry] | None = None):
        self.script = list(script or [])
        self._counts: Counter[str] = Counter()
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "MockReasoner":
        """Load a JSON script: an object whose "responses" list holds entries
        with a "stage", an optional "match" and a "response" object. A file
        that cannot be read or has another shape raises ValueError."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValueError(f"mock script {path}: {exc}") from exc
        responses = data.get("responses", []) if isinstance(data, dict) else None
        if not isinstance(responses, list):
            raise ValueError(f'mock script {path}: expected an object with a "responses" list')
        entries = []
        for i, e in enumerate(responses):
            if not (isinstance(e, dict) and "stage" in e and isinstance(e.get("response"), dict)):
                raise ValueError(f'mock script {path}: entry {i} needs a "stage" and a '
                                 f'"response" object')
            match = e.get("match", [])
            entries.append(ScriptEntry(
                stage=str(e["stage"]),
                match=tuple(map(str, match)) if isinstance(match, list) else (str(match),),
                response=dict(e["response"]),
            ))
        return cls(entries)

    def respond(self, request: ReasonerRequest) -> dict:
        with self._lock:
            self._counts[request.stage] += 1
        if len(request.prompt) > request.budget:
            raise BudgetExceededError(
                f"prompt of {len(request.prompt)} chars exceeds budget {request.budget}"
            )
        for entry in self.script:
            if entry.stage != request.stage:
                continue
            if all(s in request.prompt for s in entry.match):
                return dict(entry.response)
        return dict(SCHEMA_DEFAULTS.get(request.stage, {}))

    def call_count(self, stage: str) -> int:
        with self._lock:
            return self._counts[stage]

    def total_calls(self) -> int:
        with self._lock:
            return sum(self._counts.values())


def ask(reasoner: Reasoner, stage: str, prompt: str, budget: int) -> dict | None:
    """One round trip: the reply payload, or None after logging the
    `ReasonerError` of a failed one."""
    try:
        return reasoner.respond(ReasonerRequest(stage, prompt, budget))
    except ReasonerError as exc:
        log.warning("%s reasoner failure (%s)", stage, exc)
        return None
