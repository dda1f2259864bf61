from __future__ import annotations

import json
import threading

import pytest

from solaudit.reasoner import (
    BudgetExceededError,
    MockReasoner,
    ReasonerRequest,
    SCHEMA_DEFAULTS,
    ScriptEntry,
)


def _req(stage="phase_a", prompt="hello Vault.withdraw", budget=1000):
    return ReasonerRequest(stage=stage, prompt=prompt, budget=budget)


def test_scripted_response_verbatim():
    mock = MockReasoner([ScriptEntry(stage="phase_a", match=("Vault.withdraw",),
                                     response={"items": [{"verdict": "REAL"}]})])
    assert mock.respond(_req()) == {"items": [{"verdict": "REAL"}]}


def test_unscripted_returns_schema_default():
    mock = MockReasoner()
    assert mock.respond(_req(stage="sve_layer2")) == SCHEMA_DEFAULTS["sve_layer2"]


def test_budget_exceeded():
    mock = MockReasoner()
    with pytest.raises(BudgetExceededError):
        mock.respond(_req(prompt="x" * 2000, budget=100))


def test_match_requires_all_substrings():
    mock = MockReasoner([ScriptEntry(stage="phase_a", match=("alpha", "beta"),
                                     response={"items": [1]})])
    assert mock.respond(_req(prompt="has alpha only")) == SCHEMA_DEFAULTS["phase_a"]
    assert mock.respond(_req(prompt="alpha and beta")) == {"items": [1]}


def test_stage_mismatch_falls_through():
    mock = MockReasoner([ScriptEntry(stage="phase_d", match=(), response={"verdict": "CONFIRMED"})])
    assert mock.respond(_req(stage="phase_a")) == SCHEMA_DEFAULTS["phase_a"]


def test_call_counters():
    mock = MockReasoner()
    assert mock.call_count("phase_a") == 0
    mock.respond(_req())
    mock.respond(_req())
    mock.respond(_req(stage="stage3_verify"))
    assert mock.call_count("phase_a") == 2
    assert mock.call_count("stage3_verify") == 1
    assert mock.total_calls() == 3


def test_determinism_identical_sequences():
    script = [ScriptEntry(stage="phase_a", match=("x",), response={"items": [{"v": 1}]})]
    a, b = MockReasoner(script), MockReasoner(script)
    reqs = [_req(prompt="x marks"), _req(prompt="no match"), _req(prompt="x again")]
    assert [a.respond(r) for r in reqs] == [b.respond(r) for r in reqs]


def test_concurrent_counting():
    mock = MockReasoner()
    threads = [threading.Thread(target=lambda: [mock.respond(_req()) for _ in range(50)])
               for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert mock.call_count("phase_a") == 400


def test_from_file(tmp_path):
    script = {
        "version": 1,
        "responses": [
            {"stage": "phase_a", "match": ["withdraw"],
             "response": {"items": [{"verdict": "REAL", "evidence_line": 3}]}},
        ],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    mock = MockReasoner.from_file(path)
    assert mock.respond(_req(prompt="about withdraw"))["items"][0]["verdict"] == "REAL"



def test_reply_is_a_copy():
    # a caller that edits its reply must not change the script or the defaults
    mock = MockReasoner([ScriptEntry(stage="phase_a", match=("x",), response={"items": []})])
    mock.respond(_req(prompt="x"))["items"] = [1]
    mock.respond(_req(prompt="y"))["items"] = [1]
    assert mock.respond(_req(prompt="x")) == {"items": []}
    assert mock.respond(_req(prompt="y")) == SCHEMA_DEFAULTS["phase_a"] == {"items": []}


def test_from_file_reads_match_items_as_text(tmp_path):
    # a number in "match" would make every prompt test raise TypeError
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"responses": [
        {"stage": "phase_a", "match": [42], "response": {"items": [1]}}]}))
    mock = MockReasoner.from_file(path)
    assert mock.respond(_req(prompt="line 42")) == {"items": [1]}
    assert mock.respond(_req(prompt="line 7")) == SCHEMA_DEFAULTS["phase_a"]
