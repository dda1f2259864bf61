"""Guard for the benchmark's per-layer tracer (`auditbench/tracing.py`): it
wraps program functions by module attribute from outside, so every target it
names must still resolve and be looked up at call time."""

from __future__ import annotations

import json
from pathlib import Path

from corpus import REPOS, write_repo
from test_cli import VAULT_SCRIPT

from solaudit import cli

AUDITBENCH = Path(__file__).resolve().parent.parent / "auditbench"


def test_tracer_targets_resolve_and_count_every_reasoner_call(tmp_path, monkeypatch,
                                                             made_reasoners):
    monkeypatch.syspath_prepend(str(AUDITBENCH))
    import tracing

    script = tmp_path / "script.json"
    script.write_text(json.dumps({"responses": VAULT_SCRIPT}), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.audit():
            cli.main(["--path", str(write_repo(REPOS["vault_oracle"], tmp_path / "repo")),
                      "--out", str(tmp_path / "out"), "--mock-script", str(script)])
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    # the scripted vault audit reaches every traced layer, phase D to SVE layer 2
    assert {name for _, name, _ in tracing.TARGETS} <= {s.name for s in tracer.spans}
    calls = made_reasoners[0].total_calls()
    assert calls > 0
    assert sum(tally[0] for tally in tracer.reasoner.values()) == calls
