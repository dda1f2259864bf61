"""Metamorphic checks: a rewrite of an audited repository that changes no
code must leave the model, both reports and every reasoner prompt as they
were. Each corpus repo is audited as written and after the rewrite, with a
reasoner script that reports a finding on every phase C review, so that
phase D and SVE layer 2 are asked too."""

from __future__ import annotations

import functools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import REPOS, write_repo
from helpers import RecordingReasoner, scripted

from solaudit import cli
from solaudit.ccim import assemble_ccim, ccim_to_json
from solaudit.ingest import build_audit_source, classify_files
from solaudit.report import report_to_json, report_to_markdown

SCRIPT = [
    {"stage": "phase_c", "response": {
        "verdict": "VULNERABLE", "title": "Interference on shared state",
        "description": "The functions disagree on the value they share.", "severity": "HIGH"}},
    {"stage": "phase_d", "response": {"verdict": "DISPROVED", "quote": "require("}},
    {"stage": "sve_layer2", "response": {"verdict": "VERIFIED", "argument": "holds"}},
]


def _audit(root: Path) -> tuple[str, str, str, dict[str, list[str]]]:
    """(CCIM JSON, report.json, report.md, the prompts of each stage in the
    order asked) of an audit of `root`."""
    reasoner = RecordingReasoner(scripted(SCRIPT).script)
    report = cli.run(cli.RunConfig(path=str(root)), reasoner)
    ccim = assemble_ccim(build_audit_source(classify_files(root)))
    asked: dict[str, list[str]] = {}
    for request in reasoner.requests:
        asked.setdefault(request.stage, []).append(request.prompt)
    return ccim_to_json(ccim), report_to_json(report), report_to_markdown(report), asked


@functools.cache
def _as_written(name: str, root: Path) -> tuple:
    return _audit(write_repo(REPOS[name], root))


@pytest.mark.parametrize("name", sorted(REPOS))
@settings(max_examples=2, deadline=None)
@given(prefix=st.text(alphabet=" \t", min_size=1, max_size=6))
def test_reindenting_every_line_changes_nothing(tmp_path_factory, name, prefix):
    # every line of every file gains the same run of spaces and tabs: a body
    # is printed at its declaration's indentation, so its prompt text stays
    written = _as_written(name, tmp_path_factory.getbasetemp() / "as-written" / name)
    shifted = {rel: "".join(prefix + line for line in text.splitlines(keepends=True))
               for rel, text in REPOS[name].items()}
    ccim, report_json, report_md, asked = _audit(write_repo(shifted, tmp_path_factory.mktemp(name)))
    assert ccim == written[0]
    assert report_json == written[1]
    assert report_md == written[2]
    assert asked == written[3]
