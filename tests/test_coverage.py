from __future__ import annotations

import re

from helpers import make_finding

from solaudit.coverage import (
    CLASS_KEYWORDS,
    FEATURES,
    SEVENTEEN_CLASSES,
    attention_residual,
    key_risks,
    blindspot_prompts,
    compute_gap_set,
    detect_features,
    discussed_names_from,
    gap_reaudit_prompts,
    risk_profile,
)
from solaudit.prompts import source_block


def test_catalogue_shape():
    assert len(FEATURES) == 20
    for name, spec in FEATURES.items():
        heuristics = (spec.get("names", ()) + spec.get("modifiers", ())
                      + spec.get("var_types", ()) + spec.get("var_names", ()))
        assert heuristics, name
        assert spec["bug_classes"], name
    assert len(SEVENTEEN_CLASSES) == 17
    for cls in {c for spec in FEATURES.values() for c in spec["bug_classes"]}:
        assert cls in CLASS_KEYWORDS, cls


def test_detect_features(models):
    detected = detect_features(models["vault_oracle"])
    assert "oracle-integration" in detected  # IOracle-typed state variable
    assert "vault-accounting" in detected    # deposit/withdraw/totalSupply
    assert "lending" not in detected


def test_detect_features_lending_names(tmp_path):
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import build_audit_source, classify_files
    (tmp_path / "l.sol").write_text(
        "pragma solidity ^0.8.0;\n"
        "contract Lender {\n"
        "    uint256 public debt;\n"
        "    function borrow(uint256 x) external { debt += x; }\n"
        "    function repay(uint256 x) external { debt -= x; }\n"
        "    function liquidate(address who) external {}\n"
        "}\n"
    )
    ccim = assemble_ccim(build_audit_source(classify_files(tmp_path)))
    assert "lending" in detect_features(ccim)


def test_detect_features_empty_for_pure_math(tmp_path):
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import build_audit_source, classify_files
    (tmp_path / "m.sol").write_text(
        "pragma solidity ^0.8.0;\n"
        "contract MathOnly {\n"
        "    function add(uint256 a, uint256 b) external pure returns (uint256) { return a + b; }\n"
        "}\n"
    )
    ccim = assemble_ccim(build_audit_source(classify_files(tmp_path)))
    assert detect_features(ccim) == set()


def test_gap_set_all_open_with_no_findings(models):
    detected = detect_features(models["vault_oracle"])
    report = compute_gap_set([], detected)
    assert report.covered_classes == ()
    relevant = {c for f in detected for c in FEATURES[f]["bug_classes"]}
    assert set(report.gap_set) == relevant


def test_gap_set_partition_invariant(models):
    detected = detect_features(models["vault_oracle"])
    findings = [make_finding(title="oracle staleness allows stale price reads")]
    report = compute_gap_set(findings, detected)
    covered, gaps = set(report.covered_classes), set(report.gap_set)
    assert covered & gaps == set()
    relevant = {c for f in detected for c in FEATURES[f]["bug_classes"]}
    assert covered | gaps == relevant
    assert "oracle-staleness" in covered


def test_keyword_map_reentrancy(models):
    report = compute_gap_set([make_finding(title="reentrancy in withdraw")], set())
    assert report.keyword_map["reentrancy"] is True
    assert report.keyword_map["governance"] is False
    assert len(report.keyword_map) == 17


def test_gap_reaudit_prompts(models):
    detected = detect_features(models["vault_oracle"])
    report = compute_gap_set([], detected)
    # one prompt of one section per feature that made a gap class relevant,
    # numbered in sorted class order; each class is listed once, under the
    # first feature in sorted order that lists it
    [prompt] = gap_reaudit_prompts(report.gap_set, models["vault_oracle"], detected)
    home = {c: next(f for f in sorted(detected) if c in FEATURES[f]["bug_classes"])
            for c in report.gap_set}
    features = list(dict.fromkeys(home[c] for c in sorted(home)))
    assert len(features) < len(report.gap_set)
    assert re.findall(r'^### G(\d+): feature "(.+)"$', prompt, re.M) == \
        [(str(n), f) for n, f in enumerate(features, start=1)]
    sections = dict(zip(features, re.split(r"^### G\d+: ", prompt, flags=re.M)[1:]))
    for c, feature in home.items():
        assert [f for f, text in sections.items() if f"\n- {c}: " in text] == [feature]
    # the feature's structural evidence follows its classes
    classes, evidence = sections["oracle-integration"].split("\nStructural evidence:\n")
    assert "- oracle-staleness: " in classes
    assert "latestPrice" in evidence or "setOracle" in evidence


def test_gap_reaudit_empty(models):
    assert gap_reaudit_prompts((), models["vault_oracle"], set()) == []


def test_risk_profile_dominance(models):
    ccim = models["vault_oracle"]
    withdraw = risk_profile(ccim.records_of([("Vault", "withdraw")])[0], ccim.parsed.masked)
    view_helper = risk_profile(ccim.records_of([("ChainOracle", "latestPrice")])[0], ccim.parsed.masked)
    assert withdraw > view_helper


def test_risk_profile_zero_base(tmp_path):
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import build_audit_source, classify_files
    (tmp_path / "z.sol").write_text(
        "pragma solidity ^0.8.0;\n"
        "contract Z {\n"
        "    function noop() internal pure returns (bool) { return true; }\n"
        "}\n"
    )
    ccim = assemble_ccim(build_audit_source(classify_files(tmp_path)))
    assert risk_profile(ccim.records_of([("Z", "noop")])[0], ccim.parsed.masked) == 0.0


def test_risk_profile_financial_names(models):
    ccim = models["vault_oracle"]
    rec = ccim.records_of([("Vault", "deposit")])[0]
    assert risk_profile(rec, ccim.parsed.masked) >= 2.0  # balance-named writes contribute


def test_risk_profile_monotone_in_calls_and_writes(models):
    ccim = models["vault_oracle"]
    rec = ccim.records_of([("Vault", "withdraw")])[0]
    richer = rec._replace(writes=frozenset(rec.writes | {"extraVar"}))
    assert risk_profile(richer, ccim.parsed.masked) >= risk_profile(rec, ccim.parsed.masked)


def test_payable_twins_differing_in_a_comment_score_alike(tmp_path):
    # the comment's "unchecked" and operators are no code: the twins get the
    # same standalone-slot verdict and the same risk
    from solaudit.ccim import assemble_ccim
    from solaudit.engines import itpc_high_risk
    from solaudit.ingest import build_audit_source, classify_files
    (tmp_path / "t.sol").write_text(
        "pragma solidity ^0.8.19;\n"
        "contract Twins {\n"
        "    uint256 public total;\n"
        "    function f(uint256 x) external payable {\n"
        "        // no unchecked math here: a + b - c * d / e\n"
        "        total = x;\n"
        "    }\n"
        "    function g(uint256 x) external payable {\n"
        "        total = x;\n"
        "    }\n"
        "}\n"
    )
    ccim = assemble_ccim(build_audit_source(classify_files(tmp_path)))
    f, g = ccim.records_of([("Twins", "f"), ("Twins", "g")])
    assert itpc_high_risk(f, False) == itpc_high_risk(g, False) is False
    assert risk_profile(f, ccim.parsed.masked) == risk_profile(g, ccim.parsed.masked) == 3.0


def test_every_feature_bug_class_has_keywords():
    classes = {c for spec in FEATURES.values() for c in spec["bug_classes"]}
    assert classes and all(CLASS_KEYWORDS.get(c) for c in classes)


def test_attention_residual_statuses(models):
    ccim = models["vault_oracle"]
    mentioned = {"withdraw", "deposit"}
    text = "withdraw moves funds via an external oracle call; deposit updates balances"
    residuals = attention_residual(ccim, key_risks(ccim), mentioned, text)
    assert set(residuals.status.values()) <= {"discussed", "partial-attention", "unattended"}
    assert residuals.status[("Vault", "withdraw")] == "discussed"
    assert residuals.status[("Vault", "sweep")] == "unattended"
    assert len(residuals.status) == len(ccim.records)


def test_attention_residual_partial(models):
    ccim = models["vault_oracle"]
    # sweep moves funds; mention it without any fund-aspect keyword nearby
    residuals = attention_residual(ccim, key_risks(ccim), {"sweep"}, "sweep exists in the contract")
    assert residuals.status[("Vault", "sweep")] == "partial-attention"


def test_attention_residual_empty_output(models):
    ccim = models["vault_oracle"]
    residuals = attention_residual(ccim, key_risks(ccim), set(), "")
    assert all(s == "unattended" for s in residuals.status.values())


def test_blindspot_prompts_ranked(models):
    ccim = models["vault_oracle"]
    residuals = attention_residual(ccim, key_risks(ccim), set(), "")
    # one prompt of one section per top residual, in rank order, each with
    # its source block; the ids name the function each section reviews
    [(ids, prompt)] = blindspot_prompts(residuals, ccim, top_n=2)
    top = residuals.ranked_residuals()[:2]
    assert ids == {"B1": top[0], "B2": top[1]}
    assert re.findall(r"^### (B\d+): (\w+)\.(\w+) \((.+)\)$", prompt, re.M) == \
        [("B1", *top[0], "unattended"), ("B2", *top[1], "unattended")]
    for n, key in enumerate(top, start=1):
        assert f"### B{n}: {key[0]}.{key[1]} (unattended)\n{source_block(ccim, key)}" in prompt
    assert "no carry-over context" in prompt


def test_discussed_names_extraction():
    f = make_finding(title="reentrancy in withdraw", description="the deposit path is safe",
                     functions=[("Vault", "withdraw")])
    names = discussed_names_from([f])
    assert {"withdraw", "deposit"} <= names
