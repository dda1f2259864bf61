from __future__ import annotations

import pytest

from corpus import REPOS, write_repo
from helpers import RecordingReasoner, ThrowingReasoner, make_finding, scripted
from oracles import brute_force_select_pairs

from solaudit.ccim import assemble_ccim
from solaudit.engines import Signal, merge_signals, patterns, run_engines, run_pattern_detectors
from solaudit.ingest import build_audit_source, classify_files, resolve_remappings
from solaudit.interaction import (
    SOURCE_CONFIDENCE,
    BehaviorSpec,
    _auditable,
    audit_standalone,
    id_run,
    infer_spec,
    recalibrate_severity,
    select_pairs,
    self_contradiction_filter,
    spec_prompts,
    spec_verify,
)
from solaudit.reasoner import MockReasoner


# --- stage 1: pair selection ---------------------------------------------------


def test_a_bodiless_declaration_is_not_audited(tmp_path, monkeypatch):
    # a `{` in a comment gives no body: the declaration is neither audited in
    # pairs nor a pattern rule's target
    (tmp_path / "h.sol").write_text(
        "pragma solidity ^0.8.19;\n"
        "contract Hooks {\n"
        "    uint256 public total;\n"
        "    function hook(uint256 a) external virtual /* { */;\n"
        "    function run(uint256 a) external {\n"
        "        total = a;\n"
        "    }\n"
        "}\n")
    ccim = assemble_ccim(build_audit_source(classify_files(tmp_path)))
    assert [r.name for r in _auditable(ccim)] == ["run"]
    targets = []

    def rule(text, start, end, pairs):
        targets.append(ccim.record_at_line(ccim.parsed.line_of(start)).name)
        return ()

    monkeypatch.setattr(patterns, "_RULES", (rule,))
    run_pattern_detectors(ccim)
    assert targets == ["run"]


def _oracle(name, models, merged_signals):
    return brute_force_select_pairs(models[name], merged_signals[name], MockReasoner())


def test_counter_and_shared_state_pair(models, merged_signals):
    pairs = select_pairs(models["vault_oracle"], merged_signals["vault_oracle"], MockReasoner())
    full = _oracle("vault_oracle", models, merged_signals)
    match = [n for n in full if {n.pair[0][1], n.pair[1][1]} == {"deposit", "withdraw"}
             and n.pair[0][0] == "Vault"]
    assert match, "deposit/withdraw pair not nominated"
    nom = match[0]
    assert {"COUNTER", "SHARED_STATE"} <= nom.sources
    assert nom.tier == SOURCE_CONFIDENCE["SHARED_STATE"]  # max of the contributing sources
    # taken once, in the higher tier; the counter tier does not add it again
    assert pairs.count(nom.pair) == 1
    assert pairs.index(nom.pair) == full.index(nom)


def test_pairs_deduplicated(models, merged_signals):
    pairs = select_pairs(models["vault_oracle"], merged_signals["vault_oracle"], MockReasoner())
    assert len(pairs) == len(set(pairs))
    assert all(a != b for a, b in pairs)
    # every pair is named by some source
    assert set(pairs) == {n.pair for n in _oracle("vault_oracle", models, merged_signals)}


def test_pairs_sorted_by_confidence(models, merged_signals):
    for name in models:
        tier = {n.pair: n.tier for n in _oracle(name, models, merged_signals)}
        confs = [tier[p] for p in select_pairs(models[name], merged_signals[name], MockReasoner())]
        assert confs == sorted(confs, reverse=True), name


def test_single_function_contract_no_pairs(models, merged_signals):
    # ambiguous repo: Consumer has a single function; no shared writes
    pairs = select_pairs(models["ambiguous"], merged_signals["ambiguous"], MockReasoner())
    assert all({a[0], b[0]} != {"Consumer"} for a, b in pairs)


def test_llm_triage_source(models):
    def reasoner():
        return scripted([{
            "stage": "stage1_triage", "match": [],
            "response": {"pairs": [["Hub", "callSpoke", "Spoke", "notify"]]},
        }])

    pairs = select_pairs(models["bidirectional"], merge_signals({}), reasoner())
    full = brute_force_select_pairs(models["bidirectional"], merge_signals({}), reasoner())
    hit = [n.pair for n in full if "LLM_TRIAGE" in n.sources]
    assert hit == [(("Hub", "callSpoke"), ("Spoke", "notify"))]
    assert hit[0] in pairs


# top-`max_pairs` selection against the full ranking of the oracle
LIMITS = (0, 1, 16, None)

# overloads share a key; `Twin.deposit` has two records, one of them bodiless
OVERLOADED = {"src/Twin.sol": (
    "pragma solidity ^0.8.19;\n"
    "abstract contract Twin {\n"
    "    uint256 public total;\n"
    "    mapping(address => uint256) public balance;\n"
    "    function deposit(uint256 a) external { balance[msg.sender] += a; total += a; }\n"
    "    function deposit(uint256 a, address to) external virtual;\n"
    "    function deposit(address to) external { balance[to] += 1; total += 1; }\n"
    "    function withdraw(uint256 a) external {\n"
    "        balance[msg.sender] -= a; total -= a / 0;\n"
    "        payable(msg.sender).transfer(a);\n"
    "    }\n"
    "    function mint(uint256 a) external { total += a; }\n"
    "}\n"
    "contract Pair is Twin {\n"
    "    function deposit(uint256 a, address to) external override { total += a; }\n"
    "    function burn(uint256 a) external { total -= a; }\n"
    "}\n")}


def _assert_matches_oracle(ccim, merged, make_reasoner=MockReasoner):
    """Compare the pairs at every limit of LIMITS and each tier boundary of
    the oracle's full list (its length included), plus and minus one; returns
    that list and the limits in the order compared."""
    full = brute_force_select_pairs(ccim, merged, make_reasoner())
    cuts = [i for i in range(1, len(full)) if full[i].tier != full[i - 1].tier] + [len(full)]
    limits = list(set(LIMITS) | {k + d for k in cuts for d in (-1, 0, 1) if k + d >= 0})
    for k in limits:
        got = select_pairs(ccim, merged, make_reasoner(), max_pairs=k)
        assert got == [n.pair for n in full[:k]], k
    return full, limits


@pytest.mark.parametrize("name", sorted(REPOS))
def test_select_pairs_top_k_matches_oracle(models, merged_signals, name):
    _assert_matches_oracle(models[name], merged_signals[name])


def test_select_pairs_top_k_matches_oracle_with_reasoner_triage(models):
    # reversed, self and unknown pairs from the reply too
    script = [{"stage": "stage1_triage", "match": [], "response": {"pairs": [
        ["Spoke", "notify", "Hub", "callSpoke"], ["Hub", "callSpoke", "Hub", "callSpoke"],
        ["Hub", "callSpoke", "Spoke", "notify"], ["Nowhere", "f", "Hub", "callSpoke"]]}}]
    made = []

    def reasoner():
        made.append(scripted(script))
        return made[-1]

    full, limits = _assert_matches_oracle(models["bidirectional"], merge_signals({}), reasoner)
    # the oracle asks once; a selection asks only when its limit leaves room
    # past the pairs of the higher tiers, where the triage tier is read
    higher = sum(n.tier > SOURCE_CONFIDENCE["LLM_TRIAGE"] for n in full)
    assert [r.call_count("stage1_triage") for r in made] == \
        [1] + [int(k is None or k > higher) for k in limits]
    assert {0, None} <= set(limits)   # both cases are met


def test_select_pairs_top_k_matches_oracle_on_generated_corpus(deep_model):
    _assert_matches_oracle(*deep_model)


def test_select_pairs_top_k_matches_oracle_with_overloads(tmp_path):
    root = write_repo(OVERLOADED, tmp_path / "repo")
    ccim = assemble_ccim(build_audit_source(classify_files(root), None, resolve_remappings(root)))
    assert len([r for r in ccim.records if r.key == ("Twin", "deposit")]) == 3
    _assert_matches_oracle(ccim, run_engines(ccim))
    # signals on the overloaded key and its neighbours reach the triage source
    merged = merge_signals({"BVA": [
        Signal("BVA", f"s{i}", "d", "MEDIUM", 0.6, key) for i, key in enumerate(
            [("Twin", "deposit"), ("Twin", "withdraw"), ("Pair", "deposit"), ("Pair", "burn"),
             ("Nowhere", "f")])]})
    assert any("TRIAGE" in n.sources for n in brute_force_select_pairs(ccim, merged, MockReasoner()))
    _assert_matches_oracle(ccim, merged)


class _Listed(Exception):
    pass


class _UnlistableWriters(dict):
    """A writer map that answers `get` but refuses to be listed."""

    def __iter__(self):
        raise _Listed

    keys = values = items = __iter__


def test_select_pairs_lists_no_shared_writer_pairs_when_triage_fills(deep_model):
    ccim, merged = deep_model
    unlistable = ccim._replace(deps=ccim.deps._replace(writers=_UnlistableWriters(ccim.deps.writers)))
    got = select_pairs(unlistable, merged, MockReasoner(), max_pairs=16)
    assert got == select_pairs(ccim, merged, MockReasoner(), max_pairs=16)
    # all 16 come from the top tier, and some also share a write
    top = brute_force_select_pairs(ccim, merged, MockReasoner())[:16]
    assert [n.pair for n in top] == got
    assert {n.tier for n in top} == {SOURCE_CONFIDENCE["TRIAGE"]}
    assert any("SHARED_STATE" in n.sources for n in top)
    # the shared-state tier is listed only once the selection reaches it
    with pytest.raises(_Listed):
        select_pairs(unlistable, merged, MockReasoner())


def test_select_pairs_asks_the_reasoner_only_when_its_tier_is_read(deep_model):
    # the deterministic tiers fill 16 pairs, so the lowest tier is never read
    ccim, merged = deep_model
    for max_pairs, asked in ((16, 0), (None, 1)):
        reasoner = MockReasoner()
        select_pairs(ccim, merged, reasoner, max_pairs=max_pairs)
        assert reasoner.call_count("stage1_triage") == asked, max_pairs


# --- stage 2: spec inference ------------------------------------------------------


def test_spec_prompt_is_skeleton_only(models):
    ccim = models["vault_oracle"]
    pair = (("Vault", "deposit"), ("Vault", "withdraw"))
    [(chunk, prompt)] = spec_prompts([pair], ccim)
    assert chunk == [0]
    assert "\nP1: Vault.deposit / Vault.withdraw\n" in prompt
    for rec in ccim.records:
        inner = ccim.parsed.text[slice(*rec.span)].strip()
        if len(inner) >= 20:
            assert inner not in prompt
    assert "function deposit()" in prompt
    assert "@notice rotate the price oracle" in prompt  # natspec survives


def test_spec_prompt_body_leak_raises(models, monkeypatch):
    # only the last pair's Treasury leaks; under the tight budget that pair
    # has a packed prompt of its own, and the check still runs on it
    import solaudit.interaction as interaction_mod
    ccim = models["vault_oracle"]
    pairs = [(("Vault", "deposit"), ("Vault", "withdraw")),
             (("ChainOracle", "setPrice"), ("Treasury", "setAdmin"))]
    budgets = {24_000: [[0, 1]], 900: [[0], [1]]}
    for budget, chunks in budgets.items():
        assert [chunk for chunk, _ in spec_prompts(pairs, ccim, budget)] == chunks
    skeleton = interaction_mod._skeleton
    monkeypatch.setattr(interaction_mod, "_skeleton", lambda ccim, contract: "\n".join(
        r.body for r in ccim.records if r.owner == contract) if contract == "Treasury"
        else skeleton(ccim, contract))
    for budget in budgets:
        with pytest.raises(RuntimeError, match="Treasury.setAdmin leaked into the spec prompt"):
            spec_prompts(pairs, ccim, budget)


def test_spec_prompt_printed_body_leak_raises(models, monkeypatch):
    # a body as the prompts print it, at its own indentation, is no substring
    # of the text as written, and is caught all the same
    import solaudit.interaction as interaction_mod
    ccim = models["vault_oracle"]
    [admin] = ccim.records_of([("Treasury", "setAdmin")])
    inner = ccim.parsed.text[slice(*admin.span)].strip()
    assert "\n" in inner and inner not in admin.printed
    monkeypatch.setattr(interaction_mod, "_skeleton", lambda ccim, contract: admin.printed)
    with pytest.raises(RuntimeError, match="Treasury.setAdmin leaked into the spec prompt"):
        spec_prompts([(("ChainOracle", "setPrice"), ("Treasury", "setAdmin"))], ccim)


def test_infer_spec_parses_payload(models):
    reasoner = scripted([{
        "stage": "stage2_spec", "match": ["deposit"],
        "response": {"lifecycle": "deposit before withdraw",
                     "agreed_variables": ["balances", "totalSupply"],
                     "assumptions": ["withdraw subtracts what deposit added"]},
    }])
    [spec] = infer_spec([(("Vault", "deposit"), ("Vault", "withdraw"))],
                        models["vault_oracle"], reasoner)
    assert spec.assumptions == ["withdraw subtracts what deposit added"]
    assert not spec.empty


def test_infer_spec_failure_gives_empty_spec(models):
    [spec] = infer_spec([(("Vault", "deposit"), ("Vault", "withdraw"))],
                        models["vault_oracle"], ThrowingReasoner())
    assert spec.empty


# --- stage 3: spec-then-verify ------------------------------------------------------


def _pair(models):
    return (("Vault", "deposit"), ("Vault", "withdraw"))


def test_spec_verify_violate_with_citation(models):
    spec = BehaviorSpec(pair=_pair(models), assumptions=["withdraw subtracts what deposit added"])
    reasoner = scripted([{
        "stage": "stage3_verify", "match": [],
        "response": {"items": [{"index": 4, "status": "VIOLATE", "evidence_line": 33,
                                "title": "accounting drift", "severity": "HIGH"}]},
    }])
    findings = spec_verify([spec], models["vault_oracle"], reasoner)
    assert len(findings) == 1
    assert findings[0].pipeline == "I"


def test_spec_verify_all_enforce(models):
    spec = BehaviorSpec(pair=_pair(models))
    reasoner = scripted([{
        "stage": "stage3_verify", "match": [],
        "response": {"items": [{"index": 1, "status": "ENFORCE"}]},
    }])
    assert spec_verify([spec], models["vault_oracle"], reasoner) == []


def test_spec_verify_rejects_uncited_violations(models, caplog):
    spec = BehaviorSpec(pair=_pair(models))
    reasoner = scripted([{
        "stage": "stage3_verify", "match": [],
        "response": {"items": [{"index": 2, "status": "VIOLATE"}]},
    }])
    with caplog.at_level("INFO"):
        findings = spec_verify([spec], models["vault_oracle"], reasoner)
    assert findings == []
    assert "rejected" in caplog.text


def test_spec_verify_trace_counts_as_evidence(models):
    spec = BehaviorSpec(pair=_pair(models))
    reasoner = scripted([{
        "stage": "stage3_verify", "match": [],
        "response": {"items": [{"index": 3, "status": "VIOLATE",
                                "trace": "deposit then withdraw drains the pool"}]},
    }])
    findings = spec_verify([spec], models["vault_oracle"], reasoner)
    assert len(findings) == 1
    assert findings[0].attack_scenario == "deposit then withdraw drains the pool"


# --- standalone audit ------------------------------------------------------------


def test_standalone_slots_for_high_risk(models):
    # Risky.wild: unchecked arithmetic but no value handling -> no slot;
    # build a fixture where a payable unchecked function exists
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import AuditSource, OffsetMap, Segment
    text = (
        "pragma solidity ^0.8.0;\n"
        "contract P {\n"
        "    uint256 public pool;\n"
        "    function pay() external payable {\n"
        "        unchecked { pool += msg.value; }\n"
        "    }\n"
        "    function helper() internal pure returns (uint256) { return 1; }\n"
        "}\n"
    )
    lines = text.count("\n")
    src = AuditSource(text=text, offsets=OffsetMap.build([Segment("p.sol", 1, lines, 1)]),
                      scope=("P",), remappings=(), pragmas={"p.sol": "^0.8.0"})
    ccim = assemble_ccim(src)
    reasoner = RecordingReasoner()
    audit_standalone(ccim, reasoner)
    assert [r.stage for r in reasoner.requests] == ["standalone"]  # pay() only, helper excluded


def test_standalone_confirms_finding(models):
    reasoner = scripted([{
        "stage": "standalone", "match": ["withdraw"],
        "response": {"findings": [{"title": "unchecked value math",
                                   "severity": "HIGH"}]},
    }])
    # vault fixture has no unchecked block: expect no slots at all
    assert audit_standalone(models["vault_oracle"], reasoner) == []


# --- stage 5: self-contradiction filter --------------------------------------------


def test_self_contradiction_removal():
    doomed = make_finding(fid="I-001", description="this is intended behavior of the vault")
    clean = make_finding(fid="I-002", description="balance drained via reentrancy")
    kept = self_contradiction_filter([doomed, clean])
    assert [f.id for f in kept] == ["I-002"]


def test_self_contradiction_downgrade_with_evidence():
    f = make_finding(fid="I-001", severity="HIGH",
                     description="not a vulnerability in most configurations",
                     lines=(12,))
    kept = self_contradiction_filter([f])
    assert kept == [f]
    assert f.severity == "INFO"
    assert "self-contradictory" in f.flags


def test_self_contradiction_case_insensitive():
    f = make_finding(description="This is BY DESIGN according to the team")
    assert self_contradiction_filter([f]) == []


# --- stage 5: six-rule recalibration -------------------------------------------------


def test_rule1_admin_only_low(models):
    f = make_finding(severity="CRITICAL", functions=[("Vault", "setOracle")])
    recalibrate_severity([f], models["vault_oracle"])
    assert f.severity == "LOW"


def test_rule1_admin_with_funds_not_low(models):
    f = make_finding(severity="CRITICAL", functions=[("Vault", "sweep")])
    recalibrate_severity([f], models["vault_oracle"])
    assert f.severity == "CRITICAL"  # admin but moves funds: rules 1-2 do not cap


def test_rule2_no_fund_loss_cap_medium(models):
    f = make_finding(severity="HIGH", functions=[("ChainOracle", "setPrice")])
    recalibrate_severity([f], models["vault_oracle"])
    assert f.severity == "MEDIUM"


def test_rule3_unlikely_preconditions(models):
    scenario = ("1. requires admin cooperation\n"
                "2. assuming a stale oracle\n"
                "3. only if the vault is empty\n")
    f = make_finding(severity="HIGH", functions=[("Vault", "withdraw")], scenario=scenario)
    recalibrate_severity([f], models["vault_oracle"])
    assert f.severity == "MEDIUM"
    assert "unlikely-preconditions" in f.flags


def test_rule3_control_two_preconditions(models):
    scenario = "1. requires admin cooperation\n2. assuming a stale oracle\n"
    f = make_finding(severity="HIGH", functions=[("Vault", "withdraw")], scenario=scenario)
    recalibrate_severity([f], models["vault_oracle"])
    assert f.severity == "HIGH"


def test_rule4_hedged_language(models):
    f = make_finding(severity="CRITICAL", functions=[("Vault", "withdraw")],
                     description="this could potentially be abused somehow")
    recalibrate_severity([f], models["vault_oracle"])
    assert f.severity == "MEDIUM"
    assert "hedged" in f.flags


def test_rule4_control_concrete_steps(models):
    f = make_finding(severity="CRITICAL", functions=[("Vault", "withdraw")],
                     description="this could be abused",
                     scenario="1. deposit dust\n2. withdraw with stale price\n")
    recalibrate_severity([f], models["vault_oracle"])
    assert f.severity == "CRITICAL"


def test_rule5_duplicates_keep_most_impactful(models):
    a = make_finding(fid="I-001", severity="HIGH", title="reentrancy in withdraw",
                     description="reentrancy", functions=[("Vault", "withdraw")])
    b = make_finding(fid="I-002", severity="MEDIUM", title="reentrancy again",
                     description="reentrancy", functions=[("Vault", "withdraw")])
    kept = recalibrate_severity([a, b], models["vault_oracle"])
    assert [f.id for f in kept] == ["I-001"]
    assert "root-cause-duplicate" in kept[0].flags
    assert "I-002" in kept[0].matched_ids


def test_rule6_ccim_evidence_overrides_claim(models):
    f = make_finding(severity="CRITICAL", title="missing access control on setOracle",
                     description="anyone can call setOracle, no access control",
                     functions=[("Vault", "setOracle")])
    recalibrate_severity([f], models["vault_oracle"])
    assert f.severity == "LOW"
    assert "ccim-evidence-override" in f.flags


def test_rule6_claimed_protection_missing_raises(models):
    f = make_finding(severity="MEDIUM", title="sweep drain",
                     description="only the owner can trigger this path",
                     functions=[("ChainOracle", "setPrice"), ("Vault", "withdraw")])
    # withdraw moves funds and neither function is admin: claim of protection is wrong
    recalibrate_severity([f], models["vault_oracle"])
    assert f.severity == "HIGH"


def test_filters_never_add_or_raise(models):
    import random
    rng = random.Random(7)
    severities = ["INFO", "LOW", "MEDIUM", "HIGH", "CRITICAL"]
    fns = [("Vault", "withdraw"), ("Vault", "setOracle"), ("ChainOracle", "setPrice")]
    for trial in range(50):
        findings = [
            make_finding(fid=f"I-{i:03d}", severity=rng.choice(severities),
                         title=f"t{i}", description="plain finding text",
                         functions=[rng.choice(fns)])
            for i in range(rng.randint(0, 6))
        ]
        before = {f.id: f.severity for f in findings}
        out = recalibrate_severity(self_contradiction_filter(list(findings)),
                                   models["vault_oracle"])
        assert len(out) <= len(findings)
        from solaudit.findings import SEVERITY_RANK
        for f in out:
            if "ccim-evidence-override" not in f.flags:
                assert SEVERITY_RANK[f.severity] <= SEVERITY_RANK[before[f.id]]


# --- full pipeline --------------------------------------------------------------


def test_id_run_end_to_end(models, merged_signals):
    reasoner = scripted([
        {"stage": "stage2_spec", "match": ["deposit"],
         "response": {"lifecycle": "deposit then withdraw",
                      "agreed_variables": ["balances"],
                      "assumptions": ["withdraw subtracts what deposit added"]}},
        {"stage": "stage3_verify", "match": ["withdraw subtracts"],
         "response": {"items": [{"index": 1, "status": "VIOLATE", "evidence_line": 33,
                                 "title": "withdraw uses oracle price, deposit does not",
                                 "description": "asymmetric accounting between the pair",
                                 "severity": "HIGH"}]}},
    ])
    findings = id_run(models["vault_oracle"], merged_signals["vault_oracle"], reasoner)
    assert findings
    assert all(f.id.startswith("I-") for f in findings)
    assert all(f.pipeline == "I" for f in findings)
