"""Abstract reasoning backend plus a deterministic, scriptable mock.

Every stage that would consult a language model goes through this interface;
the mock makes the whole system runnable and testable offline. A live adapter
can subclass Reasoner, but nothing in the package requires one.
"""

from __future__ import annotations

import json
import logging
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

log = logging.getLogger(__name__)

DEFAULT_CHAR_BUDGET = 24_000


class ReasonerError(Exception):
    """Base class for backend failures (transport, timeout)."""


class BudgetExceededError(ReasonerError):
    """Prompt longer than the request's character budget."""


@dataclass(frozen=True)
class ReasonerRequest:
    stage: str                  # phase/stage identifier, e.g. "phase_a"
    prompt: str
    schema: str                 # expected response schema id
    budget: int = DEFAULT_CHAR_BUDGET


@dataclass(frozen=True)
class ReasonerResponse:
    raw: str
    payload: dict | None = None
    parse_failed: bool = False

    @property
    def ok(self) -> bool:
        return self.payload is not None and not self.parse_failed


# schema-valid defaults returned by the mock for unscripted requests
SCHEMA_DEFAULTS: dict[str, dict] = {
    "phase_a": {"items": []},
    "phase_b": {"findings": []},
    "phase_c": {"verdict": "UNCLEAR"},
    "phase_d": {"claim": "", "prevention": "", "quote": "", "verdict": "UNCLEAR"},
    "phase_e": {"severity": None, "justification": ""},
    "stage1_triage": {"pairs": []},
    "stage2_spec": {"lifecycle": "", "agreed_variables": [], "assumptions": []},
    "stage3_verify": {"items": []},
    "standalone": {"findings": []},
    "sve_layer2": {"verdict": "UNCERTAIN", "argument": ""},
    "gap_reaudit": {"findings": []},
    "blindspot": {"findings": []},
}


class Reasoner:
    """Interface: respond to a structured request, and expose per-stage call
    counters so tests can assert which stages consulted the backend."""

    def respond(self, request: ReasonerRequest) -> ReasonerResponse:
        raise NotImplementedError

    def call_count(self, stage: str) -> int:
        raise NotImplementedError


@dataclass
class ScriptEntry:
    stage: str
    match: tuple[str, ...]        # all substrings must appear in the prompt
    response: dict


class MockReasoner(Reasoner):
    """Deterministic mock: a keyed table of (stage, prompt substrings) ->
    canned structured response. Unscripted requests get the schema default."""

    def __init__(self, script: list[ScriptEntry] | None = None):
        self.script = list(script or [])
        self._counts: Counter[str] = Counter()
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "MockReasoner":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        entries = [
            ScriptEntry(
                stage=str(e["stage"]),
                match=tuple(e.get("match", [])) if isinstance(e.get("match", []), list)
                else (str(e.get("match")),),
                response=dict(e["response"]),
            )
            for e in data.get("responses", [])
        ]
        return cls(entries)

    def respond(self, request: ReasonerRequest) -> ReasonerResponse:
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
                return ReasonerResponse(raw=json.dumps(entry.response, sort_keys=True),
                                        payload=dict(entry.response))
        default = SCHEMA_DEFAULTS.get(request.schema, {})
        return ReasonerResponse(raw=json.dumps(default, sort_keys=True), payload=dict(default))

    def call_count(self, stage: str) -> int:
        with self._lock:
            return self._counts[stage]

    def total_calls(self) -> int:
        with self._lock:
            return sum(self._counts.values())


def ask(reasoner: Reasoner, stage: str, prompt: str, budget: int,
        schema: str | None = None) -> dict | None:
    """One round trip: the reply payload, or None after logging a backend
    failure or an unparseable reply. `schema` defaults to the stage name."""
    try:
        response = reasoner.respond(ReasonerRequest(stage, prompt, schema or stage, budget))
    except ReasonerError as exc:
        log.warning("%s reasoner failure (%s)", stage, exc)
        return None
    if not response.ok:
        log.warning("%s reply unparseable", stage)
        return None
    return response.payload


def parse_structured(raw: str) -> dict | None:
    """Best-effort JSON extraction from a raw model reply."""
    raw = raw.strip()
    try:
        value = json.loads(raw)
        return value if isinstance(value, dict) else None
    except json.JSONDecodeError:
        start, end = raw.find("{"), raw.rfind("}")
        if 0 <= start < end:
            try:
                value = json.loads(raw[start:end + 1])
                return value if isinstance(value, dict) else None
            except json.JSONDecodeError:
                return None
    return None
