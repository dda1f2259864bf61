"""Smoke benchmarks, timed by pytest-benchmark for a fixed few rounds: the
substrate (`assemble_ccim` plus `run_engines`) on a generated 5-contract
corpus, top-16 pair selection, phase A and phase C on the `deep` shape, a
whole scripted audit on the `noisy` shape, where verification does the
work, and the JSON form of that audit's report. The corpus generator is
read from the benchmark's `auditbench/`."""

from __future__ import annotations

import json
from pathlib import Path

from corpus import write_repo

from solaudit import cli
from solaudit.ccim import assemble_ccim
from solaudit.coverage import key_risks
from solaudit.dossier import (
    _member_blocks,
    build_phase_c_interactions,
    compile_dossiers,
    phase_a_verify,
    run_phase_c,
)
from solaudit.engines import run_engines
from solaudit.ingest import build_audit_source, classify_files, resolve_remappings
from solaudit.interaction import select_pairs
from solaudit.reasoner import MockReasoner
from solaudit.report import report_to_json

AUDITBENCH = Path(__file__).resolve().parent.parent / "auditbench"


def test_substrate_benchmark(benchmark, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(AUDITBENCH))
    import gen

    corpus = gen.generate(gen.Shape(contracts=5, functions=16, pairs=12), seed=3)
    root = write_repo(corpus.files, tmp_path / "corpus")
    source = build_audit_source(classify_files(root), None, resolve_remappings(root))

    def substrate():
        ccim = assemble_ccim(source)
        return ccim, run_engines(ccim)

    ccim, _ = benchmark.pedantic(substrate, rounds=5, iterations=1)
    for contract, names in corpus.functions.items():
        assert set(names) <= {r.name for r in ccim.owned(contract)}, contract


def test_select_pairs_benchmark(benchmark, deep_model):
    ccim, merged = deep_model
    pairs = benchmark.pedantic(select_pairs, args=(ccim, merged, MockReasoner()),
                               kwargs={"max_pairs": 16},
                               rounds=5, iterations=1)
    assert len(pairs) == 16


# With benchmarking disabled, pytest-benchmark runs a body once, not once
# per round: the phase C and phase A tests check each recorded run, and that
# there is one.
def test_phase_c_benchmark(benchmark, deep_model):
    ccim, _ = deep_model
    risk = key_risks(ccim)
    reasoners: list[MockReasoner] = []

    def fresh_reasoner():
        reasoners.append(MockReasoner())
        return (ccim, reasoners[-1], risk), {}

    benchmark.pedantic(run_phase_c, setup=fresh_reasoner, rounds=5, iterations=1)
    # 30 reviews packed several to a prompt: 16 prompts while each review
    # was placed in the first prompt it fit and a split review was cut
    # greedily only
    assert len(build_phase_c_interactions(ccim, _member_blocks(ccim), risk)) == 30
    assert reasoners and all(r.call_count("phase_c") == 14 for r in reasoners)


def test_phase_a_benchmark(benchmark, deep_model):
    ccim, merged = deep_model
    flagged = [d for d in compile_dossiers(ccim, merged) if d.flagged]
    reasoners: list[MockReasoner] = []

    def fresh_reasoner():
        reasoners.append(MockReasoner())
        return (reasoners[-1],), {}

    benchmark.pedantic(lambda reasoner: phase_a_verify(flagged, reasoner), setup=fresh_reasoner,
                       rounds=5, iterations=1)
    # one prompt per budget-sized chunk of the two contracts' 50 flagged dossiers
    assert len(flagged) == 50
    assert reasoners and all(r.call_count("phase_a") == 2 for r in reasoners)


def _noisy_config(gen, tmp_path) -> tuple[cli.RunConfig, list]:
    """The `noisy` shape's audit, seed 3, with its scripted reasoner: the run
    configuration and the scripted claims."""
    corpus = gen.generate(gen.SHAPES["noisy"], seed=3)
    script, claims = gen.noisy_script(corpus, 3)
    root = write_repo(corpus.files, tmp_path / "corpus")
    (tmp_path / "mock.json").write_text(json.dumps(script), encoding="utf-8")
    return cli.RunConfig(path=str(root), mock_script=str(tmp_path / "mock.json")), claims


def test_verification_benchmark(benchmark, gen, tmp_path):
    # `cli.run` on the `noisy` shape with its scripted reasoner: every funnel
    # stage and the prose patterns run on about 70 findings
    config, claims = _noisy_config(gen, tmp_path)
    reports: list[cli.AuditReport] = []

    def audit():
        reports.append(cli.run(config))

    benchmark.pedantic(audit, rounds=5, iterations=1)
    # each run keeps the one true claim and drops the four fabricated ones
    assert len(claims) == 5 and sum(c.true for c in claims) == 1
    assert reports
    for report in reports:
        titles = {f.title for f in report.findings}
        assert [c.title in titles for c in claims] == [c.true for c in claims]


def test_report_json_benchmark(benchmark, gen, tmp_path):
    # the report of one `noisy` audit, written as JSON five times
    report = cli.run(_noisy_config(gen, tmp_path)[0])
    text = benchmark.pedantic(report_to_json, args=(report,), rounds=5, iterations=1)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert len(json.loads(text)["findings"]) == len(report.findings) > 0
