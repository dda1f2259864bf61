"""End-to-end tests of `cli.run` and `cli.main`: golden reports over corpus
repos, the audit scope, exit codes against the severity gate, malformed
external reports, malformed reasoner replies and mock scripts, non-finite
line numbers and confidences, an admission check that raises, the
one-claim-check-per-finding budget of phase D, whole prompts under a tight
character budget, and the overlap of the two audit pipelines."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from corpus import REPOS, write_repo
from helpers import (
    RecordingReasoner,
    RendezvousReasoner,
    json_instruction,
    make_finding,
    scripted,
)

from solaudit import cli, funnel, prompts
from solaudit.findings import finding_from_payload
from solaudit.reasoner import MockReasoner

GOLDEN_REPORT = Path(__file__).parent / "golden" / "report"

# Concatenation lines of the vault_oracle repo: ChainOracle.setPrice spans
# 15-17, Vault.deposit 54-57, Vault.withdraw 59-65, Vault._burn 71-73.
_ZERO_GUARD = 'require(amount > 0, "zero");'

VAULT_SCRIPT = [
    {"stage": "phase_a", "match": ["Vault.withdraw"],
     "response": {"items": [{"item_id": "Vault.withdraw#1", "verdict": "REAL", "evidence_line": 61,
                             "title": "Oracle rotation reprices withdrawals",
                             "description": "The owner-rotated oracle reprices every pending "
                                            "withdrawal.",
                             "severity": "HIGH"}]}},
    {"stage": "phase_b", "match": [], "response": {"findings": [
        {"title": "Price setter is open to anyone",
         "description": "setPrice has no caller check, so anyone moves the oracle price "
                        "that withdraw reads.",
         "attack_scenario": "1. call setPrice with a huge value 2. call withdraw",
         "severity": "CRITICAL", "confidence": 0.7,
         "functions": ["ChainOracle.setPrice"], "evidence_lines": [16]},
        {"title": "Race condition between deposit and withdraw",
         "description": "Two transactions interleave.", "severity": "HIGH",
         "functions": ["Vault.withdraw"]},
        {"title": "Missing access control on sweep", "description": "anyone can call sweep",
         "severity": "HIGH", "functions": ["Vault.sweep"]},
        {"title": "Zero withdrawal burns supply",
         "description": "withdraw accepts a zero amount.", "severity": "MEDIUM",
         "functions": ["Vault.withdraw"]},
        {"title": "Owner is too powerful",
         "description": "The owner has full control over the oracle.", "severity": "MEDIUM",
         "functions": ["Vault.setOracle"]},
        {"title": "Stale latestPrice",
         "description": "latestPrice can return an outdated value.",
         "severity": "MEDIUM", "functions": ["ChainOracle.latestPrice"]},
        {"title": "Deposit credits before minting",
         "description": "deposit desyncs balances and supply.", "severity": "HIGH",
         "functions": ["Vault.deposit"], "evidence_lines": [72]},
    ]}},
    {"stage": "phase_d", "match": ["Zero withdrawal burns supply"],
     "response": {"verdict": "DISPROVED", "quote": _ZERO_GUARD}},
    {"stage": "phase_d", "match": ["Price setter is open to anyone"],
     "response": {"verdict": "CONFIRMED"}},
    {"stage": "stage3_verify", "match": [],
     "response": {"items": [{"index": 2, "status": "VIOLATE",
                             "title": "Withdraw prices against a mutable oracle",
                             "description": "The pair reads a price the other side can move.",
                             "trace": "1. move the price 2. withdraw at the new price",
                             "severity": "HIGH", "evidence_line": 61}]}},
    {"stage": "sve_layer2", "match": ["Price setter is open to anyone"],
     "response": {"verdict": "VERIFIED", "argument": "setPrice carries no guard"}},
    {"stage": "sve_layer2", "match": ["Stale latestPrice"],
     "response": {"verdict": "DISPROVED", "argument": "the price is read in the same call"}},
    {"stage": "gap_reaudit", "match": [], "response": {"findings": [
        {"title": "Sweep empties user deposits",
         "description": "sweep transfers the whole balance, deposits included, so funds "
                        "can be taken.",
         "severity": "HIGH", "functions": ["Vault.sweep"], "evidence_lines": [76]},
    ]}},
    {"stage": "blindspot", "match": [], "response": {"findings": [
        {"title": "Burn underflows supply", "description": "_burn can underflow totalSupply.",
         "severity": "MEDIUM", "functions": ["Vault._burn"]},
        {"title": "Treasury admin rotation is by design",
         "description": "Rotating the admin is intended behavior.", "severity": "LOW",
         "functions": ["Treasury.setAdmin"]},
        {"title": "Burn skips the balance check",
         "description": "_burn lowers supply without a balance check.", "severity": "MEDIUM",
         "functions": ["Vault._burn"], "evidence_lines": [60]},
        {"title": "Burn ordering", "description": "_burn runs after the balance write.",
         "severity": "LOW", "functions": ["Vault._burn"], "evidence_lines": [72]},
    ]}},
]

# cycle repo: phase C groups on PingPong.counter and PingPong.drained;
# PingPong.idle is pure with no call edge
CYCLE_SCRIPT = [
    {"stage": "phase_b", "match": [], "response": {"findings": [
        {"title": "idle returns a constant", "description": "idle ignores the state.",
         "severity": "LOW", "functions": ["PingPong.idle"]},
    ]}},
    {"stage": "phase_c", "match": [],
     "response": {"verdict": "VULNERABLE",
                  "description": "Callers interleave updates of the shared state.",
                  "attack_scenario": "1. call ping 2. re-enter through pong",
                  "severity": "HIGH"}},
    {"stage": "phase_d", "match": ["interference on PingPong.drained"],
     "response": {"verdict": "DISPROVED", "quote": "drained = true;"}},
    {"stage": "sve_layer2", "match": ["interference on PingPong.counter"],
     "response": {"verdict": "VERIFIED", "argument": "ping and pong both write counter"}},
]

CASES = {
    "vault_oracle": ("vault_oracle", VAULT_SCRIPT),
    "cycle": ("cycle", CYCLE_SCRIPT),
    "itpc_chain": ("itpc_chain", None),
}


def _repo(tmp_path: Path, name: str) -> Path:
    return write_repo(REPOS[name], tmp_path / name)


def _script_file(tmp_path: Path, script: list[dict]) -> Path:
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"responses": script}), encoding="utf-8")
    return path


def _main(tmp_path: Path, case: str, *extra: str) -> tuple[int, Path]:
    repo, script = CASES[case]
    out = tmp_path / "out"
    argv = ["--path", str(_repo(tmp_path, repo)), "--out", str(out), *extra]
    if script is not None:
        argv += ["--mock-script", str(_script_file(tmp_path, script))]
    return cli.main(argv), out


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(tmp_path, case):
    # byte-for-byte pin of both report files; regenerate only for an intended change
    _, out = _main(tmp_path, case)
    for name in ("report.json", "report.md"):
        golden = (GOLDEN_REPORT / f"{case}.{name}").read_text(encoding="utf-8")
        assert (out / name).read_text(encoding="utf-8") == golden, name


def test_golden_vault_reaches_every_verification_path():
    # the scripted vault case exercises what the goldens are meant to pin
    doc = json.loads((GOLDEN_REPORT / "vault_oracle.report.json").read_text(encoding="utf-8"))
    stage3 = {v["evidence"] for v in doc["funnel"]["verdicts"] if v["stage"] == "stage3"}
    assert "claim-first protocol" in stage3
    uncertain_d = [v for v in doc["funnel"]["verdicts"]
                   if v["stage"] == "stage3" and v["verdict"] == "UNCERTAIN"
                   and doc["merged"]["pi"][v["finding"]] == "D"]
    assert uncertain_d
    flags = set().union(*(f["flags"] for f in doc["findings"]))
    assert {"gap-reaudit", "blindspot-review", "unverified"} <= flags
    # three blind-spot findings are refuted before admission and use up no id
    assert [f["id"] for f in doc["findings"] if "blindspot-review" in f["flags"]] == ["B-001"]


def test_commented_out_contract_stays_out_of_scope(tmp_path):
    repo = write_repo({"src/Vault.sol": (
        "pragma solidity ^0.8.20;\n"
        "/*\ncontract Legacy {}\n*/\n"
        "contract Vault {\n    uint256 public total;\n"
        "    function deposit(uint256 a) external { total += a; }\n}\n")}, tmp_path / "repo")
    out = tmp_path / "out"
    assert cli.main(["--path", str(repo), "--out", str(out)]) == cli.EXIT_CLEAN
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert doc["scope"] == ["Vault"]


def test_scope_override_naming_a_commented_out_contract_is_rejected(tmp_path, capsys):
    repo = write_repo({"src/Main.sol": (
        "pragma solidity ^0.8.20;\n"
        "/*\ncontract Legacy {}\n*/\n"
        "contract Main {\n    uint256 public total;\n"
        "    function add(uint256 a) external { total += a; }\n}\n")}, tmp_path / "repo")
    out = tmp_path / "out"
    assert cli.main(["--path", str(repo), "--out", str(out), "--scope", "Legacy"]) \
        == cli.EXIT_ERROR
    assert "scope override names unknown contracts: Legacy" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["--path", str(repo), "--out", str(out), "--scope", "Main"]) == cli.EXIT_CLEAN
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["scope"] == ["Main"]


def test_main_exit_codes(tmp_path):
    code, out = _main(tmp_path / "gated", "vault_oracle")
    severities = {f["severity"] for f in
                  json.loads((out / "report.json").read_text(encoding="utf-8"))["findings"]}
    assert code == cli.EXIT_FINDINGS
    assert severities & {"HIGH", "CRITICAL"}
    code, _ = _main(tmp_path / "clean", "itpc_chain")
    assert code == cli.EXIT_CLEAN
    code, _ = _main(tmp_path / "above", "vault_oracle", "--severity-gate", "CRITICAL")
    assert code == cli.EXIT_CLEAN
    assert cli.main(["--path", str(tmp_path / "absent"), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path / "o")])
    assert exc.value.code == cli.EXIT_ERROR


@pytest.mark.parametrize("payload", [[{"detector": "x"}], {"findings": 5}],
                         ids=["top-level-array", "findings-not-a-list"])
def test_malformed_external_report_is_ignored(tmp_path, caplog, payload):
    external = tmp_path / "external.json"
    external.write_text(json.dumps(payload), encoding="utf-8")
    with caplog.at_level("WARNING"):
        code, out = _main(tmp_path, "itpc_chain", "--external-signals", str(external))
    assert code == cli.EXIT_CLEAN
    assert "malformed" in caplog.text
    golden = (GOLDEN_REPORT / "itpc_chain.report.json").read_text(encoding="utf-8")
    assert (out / "report.json").read_text(encoding="utf-8") == golden


def test_external_report_non_finite_line_degrades(tmp_path):
    external = tmp_path / "external.json"
    external.write_text('{"findings": [{"detector": "x", "line": 1e999}]}', encoding="utf-8")
    code, out = _main(tmp_path, "itpc_chain", "--external-signals", str(external))
    assert code in (cli.EXIT_CLEAN, cli.EXIT_FINDINGS)
    assert (out / "report.json").is_file() and (out / "report.md").is_file()


# a reply whose list field holds another shape reads as an empty list, and
# a line number that is no finite number is dropped (the script file holds
# it as Infinity or NaN, which JSON also reads from 1e999 or NaN)
MALFORMED_REPLIES = {
    "phase_c-evidence_lines": ("cycle", "phase_c", {"verdict": "VULNERABLE", "evidence_lines": 7}),
    "phase_c-functions": ("cycle", "phase_c", {"verdict": "VULNERABLE", "functions": 5}),
    "phase_c-reviews": ("cycle", "phase_c", {"reviews": 5}),
    "phase_c-review_id": ("cycle", "phase_c",
                          {"reviews": [{"review_id": "C99", "verdict": "VULNERABLE"}]}),
    "phase_a-items": ("vault_oracle", "phase_a", {"items": 5}),
    "stage3-items": ("vault_oracle", "stage3_verify", {"items": 5}),
    "triage-pairs": ("vault_oracle", "stage1_triage", {"pairs": 5}),
    "spec-agreed_variables": ("vault_oracle", "stage2_spec", {"agreed_variables": 5}),
    "phase_c-line-inf": ("cycle", "phase_c",
                         {"verdict": "VULNERABLE", "evidence_lines": [float("inf")]}),
    "phase_c-line-nan": ("cycle", "phase_c",
                         {"verdict": "VULNERABLE", "evidence_lines": [float("nan")]}),
    "phase_a-line-inf": ("vault_oracle", "phase_a",
                         {"items": [{"verdict": "REAL", "evidence_line": float("inf")}]}),
    "stage3-line-inf": ("vault_oracle", "stage3_verify",
                        {"items": [{"status": "VIOLATE", "evidence_line": float("inf")}]}),
    "phase_c-confidence-huge": ("cycle", "phase_c",
                                {"verdict": "VULNERABLE", "confidence": 10 ** 400}),
    # ahead of the vault script, whose findings reach SVE layer 2
    "sve_layer2-severity-number": ("vault_oracle", "sve_layer2", {"severity": 5}, VAULT_SCRIPT),
    "sve_layer2-severity-unknown": ("vault_oracle", "sve_layer2", {"severity": "EXTREME"},
                                    VAULT_SCRIPT),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPLIES))
def test_malformed_reply_degrades(tmp_path, made_reasoners, case):
    repo, stage, reply, *rest = MALFORMED_REPLIES[case]
    background = rest[0] if rest else []
    out = tmp_path / "out"
    script = _script_file(tmp_path, [{"stage": stage, "match": [], "response": reply},
                                     *background])
    code = cli.main(["--path", str(_repo(tmp_path, repo)), "--out", str(out),
                     "--mock-script", str(script)])
    assert made_reasoners[0].call_count(stage) > 0
    assert code in (cli.EXIT_CLEAN, cli.EXIT_FINDINGS)
    assert (out / "report.json").is_file() and (out / "report.md").is_file()
    # no malformed reply sets a severity
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert not any("recalibrated" in f["flags"] for f in doc["findings"])


def test_raising_admission_check_passes_the_finding_through(tmp_path, monkeypatch, caplog):
    # a deterministic check that raises on a blind-spot finding counts as not
    # refuting, as inside the funnel; the finding's other checks still run
    stage1 = funnel.stage1_verify

    def flaky(finding, ccim):
        if finding.title == "Burn skips the balance check":
            raise IndexError("stage 1 broke")
        return stage1(finding, ccim)

    monkeypatch.setattr(funnel, "stage1_verify", flaky)
    with caplog.at_level("WARNING", logger="solaudit.funnel"):
        code, out = _main(tmp_path, "vault_oracle")
    assert code == cli.EXIT_FINDINGS
    assert ("stage1 failed on pending 'Burn skips the balance check' (stage 1 broke); "
            "passing through") in caplog.text
    # SVE check 7 still refutes the finding, so the report is the golden one
    for name in ("report.json", "report.md"):
        golden = (GOLDEN_REPORT / f"vault_oracle.{name}").read_text(encoding="utf-8")
        assert (out / name).read_text(encoding="utf-8") == golden, name


@pytest.mark.parametrize("conf,expected", [
    (0.7, 0.7), (10 ** 400, 0.95), (-10 ** 400, 0.05), (0, 0.05), (float("inf"), 0.95),
    (float("nan"), 0.4), ("0.7", 0.4), (None, 0.4),
], ids=["fraction", "huge", "huge-negative", "zero", "inf", "nan", "text", "missing"])
def test_reply_confidence_clamps_numbers_only(conf, expected):
    finding = finding_from_payload({"confidence": conf}, "D", [("C", "f")])
    assert finding.confidence == expected


# script file text -> the words the error must name besides the file
BAD_SCRIPTS = {
    "missing-file": (None, ()),
    "top-level-array": ("[1, 2]", ()),
    "entry-without-stage": ('{"responses": [{"stage": "phase_a", "response": {}}, '
                            '{"response": {}}]}', ("entry 1",)),
    "response-not-an-object": ('{"responses": [{"stage": "phase_a", "response": 5}]}',
                               ("entry 0",)),
}


@pytest.mark.parametrize("case", sorted(BAD_SCRIPTS))
def test_malformed_mock_script_exits_with_error(tmp_path, capsys, case):
    text, words = BAD_SCRIPTS[case]
    script = tmp_path / "script.json"
    if text is not None:
        script.write_text(text, encoding="utf-8")
    code = cli.main(["--path", str(_repo(tmp_path, "cycle")), "--out", str(tmp_path / "out"),
                     "--mock-script", str(script)])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(script) in err
    assert all(w in err for w in words), err


def _run_vault(tmp_path: Path, reasoner, **config):
    return cli.run(cli.RunConfig(path=str(_repo(tmp_path, "vault_oracle")),
                                 out_dir=str(tmp_path / "out"), **config), reasoner)


def test_each_finding_claim_checked_at_most_once(tmp_path):
    reasoner = RecordingReasoner.from_file(_script_file(tmp_path, VAULT_SCRIPT))
    _run_vault(tmp_path, reasoner)
    phase_d = [r.prompt for r in reasoner.requests if r.stage == "phase_d"]
    assert phase_d
    repeated = sorted({line for p in phase_d if phase_d.count(p) > 1
                       for line in p.split("\n") if line.startswith("Finding: ")})
    assert not repeated, f"claim-checked more than once: {repeated}"


def test_every_prompt_keeps_its_instruction_under_a_tight_budget(tmp_path):
    budget = 1100
    reasoner = RecordingReasoner.from_file(_script_file(tmp_path, VAULT_SCRIPT))
    _run_vault(tmp_path, reasoner, char_budget=budget)
    cut = {r.stage for r in reasoner.requests if len(r.prompt) == budget}
    assert {"phase_a", "phase_b", "phase_d", "stage3_verify", "sve_layer2"} <= cut
    for r in reasoner.requests:
        assert len(r.prompt) <= budget, r.stage
        assert r.prompt.endswith(json_instruction(getattr(prompts, r.stage.upper()))), r.stage


def test_extra_rounds_admit_each_finding_once(tmp_path):
    # one round of one gap prompt, one section per detected feature; a reply
    # repeated across prompts is `test_extra_round_ids_follow_the_report`'s
    reasoner = RecordingReasoner.from_file(_script_file(tmp_path, VAULT_SCRIPT))
    report = _run_vault(tmp_path, reasoner)
    assert sum(r.stage == "gap_reaudit" for r in reasoner.requests) == 1
    assert [f.id for f in report.findings if "gap-reaudit" in f.flags] == ["G-001"]


def test_extra_round_skips_a_finding_already_in_the_report(models, merged_signals):
    gap_reply = next(e for e in VAULT_SCRIPT if e["stage"] == "gap_reaudit")

    def extra_round(report):
        return cli._extra_round_findings(
            [({}, "prompt")], "gap_reaudit", scripted([gap_reply]), models["vault_oracle"],
            merged_signals["vault_oracle"], "gap-reaudit", 24_000, report)

    first = extra_round([])
    assert [f.title for f in first] == ["Sweep empties user deposits"]
    assert extra_round(first) == []


def test_every_run_config_field_is_set_from_a_flag(monkeypatch):
    # a value other than the default for every flag reaches every field
    seen = []

    def stop(config, reasoner=None):
        seen.append(config)
        raise ValueError("stop")

    monkeypatch.setattr(cli, "run", stop)
    assert cli.main(["--path", "repo", "--scope", "Vault", "--signal-cap", "7",
                     "--char-budget", "999", "--mock-script", "mock.json", "--out", "out",
                     "--format", "json", "--severity-gate", "LOW",
                     "--external-signals", "tool.json"]) == cli.EXIT_ERROR
    for name in cli.RunConfig._fields:
        assert getattr(seen[0], name) != cli.RunConfig._field_defaults.get(name), name


def test_extra_round_ids_follow_the_report(models, merged_signals):
    gap_reply = next(e for e in VAULT_SCRIPT if e["stage"] == "gap_reaudit")
    earlier = make_finding(fid="G-001", title="earlier gap finding",
                           functions=[("Vault", "sweep")], flags=["gap-reaudit"])
    # both prompts get the same reply; its finding is admitted once
    admitted = cli._extra_round_findings(
        [({}, "first prompt"), ({}, "second prompt")], "gap_reaudit", scripted([gap_reply]),
        models["vault_oracle"], merged_signals["vault_oracle"], "gap-reaudit", 24_000, [earlier])
    assert [(f.id, f.title) for f in admitted] == [("G-002", "Sweep empties user deposits")]


def test_blindspot_entry_without_functions_is_its_sections(tmp_path, caplog):
    # the blind-spot schema asks for a review id, not for functions: such an
    # entry is attributed to the function of the section its id names, an
    # entry with functions of its own keeps them, and one naming no section
    # of its prompt is dropped
    reply = {"findings": [
        {"review_id": "B1", "title": "Rounding leaves dust behind",
         "description": "The division rounds down and the remainder stays behind.",
         "severity": "HIGH"},
        {"review_id": "B2", "title": "Deposit emits no event", "severity": "LOW",
         "functions": ["Vault.deposit"]},
        {"review_id": "B9", "title": "Stray review", "severity": "HIGH"},
        {"title": "Unnamed review", "severity": "HIGH"},
    ]}
    reasoner = RecordingReasoner(
        scripted([{"stage": "blindspot", "match": [], "response": reply}]).script)
    with caplog.at_level("WARNING"):
        report = _run_vault(tmp_path, reasoner)
    [prompt] = [r.prompt for r in reasoner.requests if r.stage == "blindspot"]
    heads = {i: (o, n) for i, o, n in re.findall(r"^### (B\d+): (\w+)\.(\w+) ", prompt, re.M)}
    assert list(heads) == ["B1", "B2", "B3"]
    blind = [(f.id, f.title, f.affected_functions, f.severity)
             for f in report.findings if "blindspot-review" in f.flags]
    assert blind == [("B-001", "Rounding leaves dust behind", [heads["B1"]], "HIGH"),
                     ("B-002", "Deposit emits no event", [("Vault", "deposit")], "LOW")]
    assert "review_id 'B9' names no section of its prompt; dropped" in caplog.text
    assert "review_id None names no section of its prompt; dropped" in caplog.text


def test_pipelines_run_concurrently(tmp_path):
    # the first dossier and the first interaction reasoner call wait for each
    # other at a barrier, which only two overlapping pipelines pass
    reasoner = RendezvousReasoner(MockReasoner())
    _run_vault(tmp_path, reasoner)
    assert reasoner.passed == {"dd", "id"}
