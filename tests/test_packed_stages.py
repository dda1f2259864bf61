"""The packed interaction stages and extra rounds: stage 2 and stage 3 send
the audited pairs several to a prompt with the one packer of
`solaudit.prompts`, numbered `P<n>` over the whole pair list, and the gap
re-audit and the blind-spot review send their sections, `G<n>` per detected
feature and `B<n>` per top residual, several to a prompt. Properties on the
corpus repos, on generated shapes at several budgets and on the `deep`
fixture; the reply rule of both stages; the request counts on `deep`."""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import REPOS, write_repo
from helpers import RecordingReasoner, generated_model, scripted

from solaudit import cli, prompts
from solaudit.ccim import assemble_ccim
from solaudit.coverage import (
    FEATURES,
    attention_residual,
    key_risks,
    blindspot_prompts,
    compute_gap_set,
    detect_features,
    gap_reaudit_prompts,
)
from solaudit.engines import run_engines
from solaudit.ingest import AuditSource, OffsetMap, Segment
from solaudit.interaction import (
    MAX_PAIRS,
    BehaviorSpec,
    _skeleton,
    infer_spec,
    select_pairs,
    spec_verify,
)
from solaudit.reasoner import DEFAULT_CHAR_BUDGET, MockReasoner


def _held(pattern: str, prompt: str) -> list[int]:
    return [int(n) for n in re.findall(pattern, prompt, re.M)]


def _source(r) -> str:
    """One overload's part of a stage 3 source block."""
    return (f"{prompts.name_line(r.key)} vis={r.vis} modifiers={list(r.modifiers)} "
            f"reentrancy_guard={r.nonreentrant}\n{r.printed}")


def _check_packed_stages(ccim, merged, budget):
    pairs = select_pairs(ccim, merged, MockReasoner(), budget, MAX_PAIRS)
    stage2, stage3 = RecordingReasoner(), RecordingReasoner()
    specs = infer_spec(pairs, ccim, stage2, budget)
    assert [s.pair for s in specs] == pairs
    spec_verify(specs, ccim, stage3, budget)
    names = {n: f"{a[0]}.{a[1]} / {b[0]}.{b[1]}" for n, (a, b) in enumerate(pairs, start=1)}
    skeletons = {c: _skeleton(ccim, c) for c in {k[0] for p in pairs for k in p}}

    # stage 2: every pair is one line `P<n>: A.f / B.g` of exactly one prompt,
    # and a prompt holds the skeleton of each contract its pairs name, once
    held = []
    for p in stage2.prompts:
        assert len(p) <= budget
        mine = _held(r"^P(\d+): ", p)
        assert all(f"\nP{n}: {names[n]}\n" in p for n in mine)
        held += mine
        named = {k[0] for n in mine for k in pairs[n - 1]}
        for c, skeleton in skeletons.items():
            assert p.count(skeleton) <= 1, c
            if len(p) < budget:
                assert p.count(skeleton) == (c in named), c
        # only a lone pair over the room by itself is cut
        assert len(p) < budget or len(mine) == 1
    assert sorted(held) == list(names)

    # stage 3: every pair with records is one `### P<n>` section of exactly
    # one prompt, and each overload's source is printed at most once per
    # prompt, exactly once for every function the prompt's pairs name
    held = []
    for p in stage3.prompts:
        assert len(p) <= budget
        mine = _held(r"^### P(\d+): ", p)
        assert all(f"\n### P{n}: {names[n]}\n" in p for n in mine)
        held += mine
        named = {k for n in mine for k in pairs[n - 1]}
        for r in ccim.records_of(sorted({k for pair in pairs for k in pair})):
            assert p.count(_source(r)) <= 1, r.key
            if len(p) < budget:
                assert p.count(_source(r)) == (r.key in named), r.key
        assert len(p) < budget or len(mine) == 1
    assert sorted(held) == [n for n, pair in enumerate(pairs, start=1) if ccim.records_of(pair)]
    if pairs:
        whole = len(prompts.render(prompts.STAGE2_SPEC, DEFAULT_CHAR_BUDGET * 100, {
            "pairs": "\n".join(f"P{n}: {name}" for n, name in names.items()),
            "skeletons": "\n\n".join(skeletons[c] for c in sorted(skeletons))}))
        if whole < budget:
            assert len(stage2.prompts) == 1
    _check_gap_reaudit(ccim, budget)
    _check_blindspot(ccim, budget)


def _check_gap_reaudit(ccim, budget):
    """Every feature that homes a gap class is one `### G<n>` section of
    exactly one prompt, numbered in sorted class order, and every gap class
    is listed once."""
    features = detect_features(ccim)
    gaps = compute_gap_set([], features).gap_set
    sent = gap_reaudit_prompts(gaps, ccim, features, budget)
    homes = list(dict.fromkeys(next(f for f in sorted(features) if c in FEATURES[f]["bug_classes"])
                               for c in gaps))
    held = []
    for p in sent:
        mine = _held(r"^### G(\d+): ", p)
        assert all(f'\n### G{n}: feature "{homes[n - 1]}"\n' in p for n in mine)
        held += mine
        assert len(p) <= budget
        assert len(p) < budget or len(mine) == 1
    assert sorted(held) == list(range(1, len(homes) + 1))
    for c in gaps:
        assert sum(p.count(f"\n- {c}: ") for p in sent) == 1, c
    _check_one_prompt_when_it_fits(sent, gap_reaudit_prompts(
        gaps, ccim, features, DEFAULT_CHAR_BUDGET * 100), budget)


def _check_blindspot(ccim, budget):
    """Every top residual is one `### B<n>` section of exactly one prompt,
    in rank order, and the prompt's ids name the function of each of its
    sections."""
    residuals = attention_residual(ccim, key_risks(ccim), set(), "")
    top = residuals.ranked_residuals()[:3]
    sent = blindspot_prompts(residuals, ccim, budget=budget)
    held = []
    for ids, p in sent:
        mine = _held(r"^### B(\d+): ", p)
        assert ids == {f"B{n}": top[n - 1] for n in mine}
        assert all(f"\n### B{n}: {top[n - 1][0]}.{top[n - 1][1]} (unattended)\n" in p
                   for n in mine)
        held += mine
        assert len(p) <= budget
        assert len(p) < budget or len(mine) == 1
    assert sorted(held) == list(range(1, len(top) + 1))
    _check_one_prompt_when_it_fits([p for _, p in sent], [p for _, p in blindspot_prompts(
        residuals, ccim, budget=DEFAULT_CHAR_BUDGET * 100)], budget)


def _check_one_prompt_when_it_fits(sent, whole, budget):
    """A round whose sections fit one prompt under `budget` sends one;
    `whole` is the round at a budget no section reaches."""
    assert len(whole) <= 1
    if whole and len(whole[0]) < budget:
        assert len(sent) == 1


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(REPOS)), budget=st.integers(1_500, DEFAULT_CHAR_BUDGET))
def test_packed_stages_on_corpus_repos(models, merged_signals, name, budget):
    _check_packed_stages(models[name], merged_signals[name], budget)


@settings(max_examples=20, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(2, 40), st.integers(2, 6)),
       seed=st.integers(0, 1_000),
       budget=st.sampled_from((1_500, 3_000, 6_000, DEFAULT_CHAR_BUDGET)))
# the whole stage 2 prompt one character under the budget: one prompt
@example(shape=(4, 10, 3), seed=0, budget=6_000)
def test_packed_stages_on_generated_corpora(gen, tmp_path_factory, shape, seed, budget):
    ccim = generated_model(gen, tmp_path_factory, gen.Shape(*shape), seed)
    _check_packed_stages(ccim, run_engines(ccim), budget)


@pytest.mark.parametrize("budget", [4_000, DEFAULT_CHAR_BUDGET])
def test_packed_stages_on_deep(deep_model, budget):
    _check_packed_stages(*deep_model, budget)


@pytest.mark.parametrize("budget", [600, 800, 1_000])
def test_blindspot_sections_split_under_a_tight_budget(models, budget):
    # from 1,500 on every corpus repo's three sections fit one prompt
    for ccim in models.values():
        _check_blindspot(ccim, budget)
    residuals = attention_residual(models["vault_oracle"], key_risks(models["vault_oracle"]), set(), "")
    assert len(blindspot_prompts(residuals, models["vault_oracle"], budget=600)) == 3


def test_a_section_over_the_room_alone_is_named_in_a_warning(models, caplog):
    # vault_oracle's G1 is over the room at 700 and G2 is not; at the default
    # budget neither is
    ccim = models["vault_oracle"]
    features = detect_features(ccim)
    gaps = compute_gap_set([], features).gap_set
    with caplog.at_level("WARNING", logger="solaudit.prompts"):
        gap_reaudit_prompts(gaps, ccim, features)
        assert caplog.messages == []
        sent = gap_reaudit_prompts(gaps, ccim, features, 700)
    [message] = caplog.messages
    assert message.endswith(': G1: feature "vault-accounting"')
    assert len(sent[0]) == 700


def test_deep_sends_one_prompt_per_stage_and_per_feature(gen, tmp_path):
    # before packing: 16 spec prompts, 16 verify prompts, 9 gap prompts (one
    # per pair or gap class; `deep` detects three features) and 3 blind-spot
    # prompts, one per top residual
    root = write_repo(gen.generate(gen.SHAPES["deep"], seed=3).files, tmp_path / "deep")
    reasoner = MockReasoner()
    cli.run(cli.RunConfig(path=str(root), out_dir=str(tmp_path / "out")), reasoner)
    stages = ("stage2_spec", "stage3_verify", "gap_reaudit", "blindspot")
    assert {s: reasoner.call_count(s) for s in stages} \
        == {"stage2_spec": 1, "stage3_verify": 1, "gap_reaudit": 1, "blindspot": 1}


# --- the reply rule ---------------------------------------------------------------

PAIRS = [(("Vault", "deposit"), ("Vault", "withdraw")),
         (("ChainOracle", "setPrice"), ("Vault", "withdraw")),
         (("Treasury", "setAdmin"), ("Vault", "sweep"))]


def test_stage2_entry_overrides_the_top_level_for_its_pair_only(models, caplog):
    reply = {"lifecycle": "top", "agreed_variables": ["balances"], "assumptions": ["shared"],
             "specs": [{"pair_id": "P2", "lifecycle": "own", "assumptions": ["P2 only"]},
                       {"pair_id": "P9", "lifecycle": "stray"}, "not an entry", 5]}
    reasoner = scripted([{"stage": "stage2_spec", "match": [], "response": reply}])
    with caplog.at_level("WARNING"):
        specs = infer_spec(PAIRS, models["vault_oracle"], reasoner)
    assert reasoner.call_count("stage2_spec") == 1
    assert [(s.pair, s.lifecycle, s.agreed_variables, s.assumptions) for s in specs] == [
        (PAIRS[0], "top", ["balances"], ["shared"]),
        (PAIRS[1], "own", ["balances"], ["P2 only"]),
        (PAIRS[2], "top", ["balances"], ["shared"])]
    assert "pair_id 'P9' names no pair of its prompt; dropped" in caplog.text


def test_stage3_entry_overrides_the_top_level_for_its_pair_only(models, caplog):
    ccim = models["vault_oracle"]
    specs = infer_spec(PAIRS, ccim, MockReasoner())
    reply = {"items": [{"index": 3, "status": "VIOLATE", "trace": "1. call one 2. call two"}],
             "pairs": [{"pair_id": "P2", "items": [
                           {"index": 1, "status": "VIOLATE", "title": "uncited"},
                           {"index": 2, "status": "VIOLATE", "evidence_line": 61,
                            "title": "P2 violation"},
                           {"index": 4, "status": "ENFORCE", "evidence_line": 61}]},
                       {"pair_id": "P7", "items": [{"index": 2, "status": "VIOLATE",
                                                    "evidence_line": 61}]},
                       ["not", "an", "entry"]]}
    reasoner = scripted([{"stage": "stage3_verify", "match": [], "response": reply}])
    with caplog.at_level("INFO"):
        findings = spec_verify(specs, ccim, reasoner)
    assert reasoner.call_count("stage3_verify") == 1
    # findings keep pair order; an item without a title gets its pair's default
    assert [(f.title, f.affected_functions) for f in findings] == [
        ("assumption violation across deposit/withdraw", list(PAIRS[0])),
        ("P2 violation", list(PAIRS[1])),
        ("assumption violation across setAdmin/sweep", list(PAIRS[2]))]
    assert findings[0].attack_scenario == "1. call one 2. call two"
    # the uncited VIOLATE item of P2's entry is rejected on its own pair
    assert f"VIOLATE item without citation or trace rejected on {PAIRS[1]}" in caplog.text
    assert "pair_id 'P7' names no pair of its prompt; dropped" in caplog.text


_TWO_CONTRACTS = "".join(f"""contract {c} {{
    uint256 public total;
    function f(uint256 x) external {{ total += x; }}
    function g(uint256 x) external {{ require(x <= total, "low"); total -= x; }}
    function h() external view returns (uint256) {{ return total * 2; }}
}}
""" for c in "AB")


def test_stage3_packs_a_contracts_pairs_together_and_keeps_pair_order():
    lines = _TWO_CONTRACTS.count("\n")
    ccim = assemble_ccim(AuditSource(text=_TWO_CONTRACTS,
                                     offsets=OffsetMap.build([Segment("ab.sol", 1, lines, 1)]),
                                     scope=("A", "B"), remappings=(), pragmas={}))
    # the first functions alternate between the contracts; each contract's
    # two pairs share the block of its `g`
    pairs = [(("A", "f"), ("A", "g")), (("B", "f"), ("B", "g")),
             (("A", "g"), ("A", "h")), (("B", "g"), ("B", "h"))]
    specs = [BehaviorSpec(pair=p) for p in pairs]

    def prompts_at(budget, chosen):
        reasoner = RecordingReasoner()
        spec_verify([specs[i] for i in chosen], ccim, reasoner, budget)
        return reasoner.prompts

    # room for one contract's two pairs, not for all four
    budget = 1 + max(len(p) for chosen in ((0, 2), (1, 3)) for p in prompts_at(10**6, chosen))
    assert len(prompts_at(10**6, range(4))[0]) > budget

    reasoner = RecordingReasoner(scripted([{"stage": "stage3_verify", "match": [], "response": {
        "items": [{"index": 4, "status": "VIOLATE", "trace": "1. call one 2. call two"}]}}]).script)
    findings = spec_verify(specs, ccim, reasoner, budget)
    assert [sorted(_held(r"^### P(\d+): ", p)) for p in reasoner.prompts] == [[1, 3], [2, 4]]
    assert [tuple(f.affected_functions) for f in findings] == pairs
