from __future__ import annotations

import os
import re
import subprocess
import sys
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import REPOS, write_repo
from helpers import RecordingReasoner, ThrowingReasoner, generated_model, make_finding, scripted
from oracles import chunks_of_sizes, phase_c_subjects
from test_interaction import OVERLOADED

from solaudit import prompts
from solaudit.ccim import assemble_ccim
from solaudit.coverage import key_risks
from solaudit.dossier import (
    Dossier,
    RiskItem,
    _member_blocks,
    build_phase_c_interactions,
    compile_dossiers,
    contract_priorities,
    dd_run,
    expand_source_block,
    pack_phase_c,
    phase_a_verify,
    phase_d_claim_first,
    phase_d_prefilter,
    phase_d_verify,
    phase_e_recalibrate,
    run_discovery_phase,
    run_phase_c,
)
from solaudit.engines import Signal, merge_signals
from solaudit.findings import VerdictRecord
from solaudit.ingest import (
    AuditSource,
    OffsetMap,
    Segment,
    build_audit_source,
    classify_files,
    resolve_remappings,
)
from solaudit.reasoner import DEFAULT_CHAR_BUDGET, MockReasoner, ReasonerError, ScriptEntry


def _signals_for(ccim, entries):
    """entries: list of (tag, id, severity, confidence, function, line)."""
    pool = [Signal(source_tag=t, id=i, description=i, severity=sev,
                   confidence=c, function=fn, line_hint=line)
            for t, i, sev, c, fn, line in entries]
    return merge_signals({"TEST": pool})


# --- dossier compilation ------------------------------------------------------


def test_compile_dossier_counts_and_flags(models, merged_signals):
    ccim = models["vault_oracle"]
    dossiers = compile_dossiers(ccim, merged_signals["vault_oracle"])
    non_interface = [r for r in ccim.records
                     if ccim.resolution.kinds.get(r.owner) != "interface"]
    assert len(dossiers) == len(non_interface)
    flagged = {d.function for d in dossiers if d.flagged}
    assert ("Vault", "withdraw") in flagged  # IRA + rotation items
    assert ("Vault", "sweep") not in flagged


def test_compile_dossier_zero_signals(models):
    ccim = models["guards_majority"]
    dossiers = compile_dossiers(ccim, merge_signals({}))
    assert all(not d.flagged for d in dossiers)


def test_compile_dossier_line_range_fallback(models):
    ccim = models["vault_oracle"]
    rec = ccim.records_of([("Vault", "withdraw")])[0]
    inside = rec.src[0] + 1
    merged = _signals_for(ccim, [
        ("MYT", "myt-thing", "HIGH", 0.6, None, inside),                 # line only
        ("SLI", "sli-ghost", "LOW", 0.4, ("Vault", "nonexistent"), inside),  # wrong name, line saves it
        ("SLI", "sli-lost", "LOW", 0.4, ("Vault", "nonexistent"), None),     # dropped
    ])
    dossiers = {d.function: d for d in compile_dossiers(ccim, merged)}
    ids = [it.id for it in dossiers[("Vault", "withdraw")].risk_items]
    assert "myt-thing" in ids and "sli-ghost" in ids and "sli-lost" not in ids


def test_dossier_items_sorted_by_confidence(models, merged_signals):
    for name in models:
        for d in compile_dossiers(models[name], merged_signals[name]):
            confs = [it.confidence for it in d.risk_items]
            assert confs == sorted(confs, reverse=True)


def test_one_trust_gap_item_per_function_and_gap():
    # A.pull() calls two functions of B, and A assumes what B returns
    ccim = _model(
        "contract B {\n"
        "    function x() external returns (uint256) { return 1; }\n"
        "    function y() external returns (uint256) { return 2; }\n"
        "}\n"
        "contract A {\n"
        "    B public b;\n"
        "    function pull() external { b.x(); b.y(); }\n"
        "}\n", "B", "A")
    assert ccim.trust.trustgap == {("A", "B")}
    assert ccim.graph.callees(("A", "pull")) == {("B", "x"), ("B", "y")}
    dossiers = {d.function: d for d in compile_dossiers(ccim, merge_signals({}))}
    assert [it.id for it in dossiers[("A", "pull")].risk_items] == ["ccim-trust-gap"]


def test_rotation_item_attached_to_readers(models, merged_signals):
    ccim = models["vault_oracle"]
    dossiers = {d.function: d for d in compile_dossiers(ccim, merged_signals["vault_oracle"])}
    withdraw_items = {it.id for it in dossiers[("Vault", "withdraw")].risk_items}
    assert "ccim-rotation-risk" in withdraw_items


# --- phase A -------------------------------------------------------------------


def _flagged_dossier(models, merged_signals, key=("Vault", "withdraw")):
    dossiers = compile_dossiers(models["vault_oracle"], merged_signals["vault_oracle"])
    return next(d for d in dossiers if d.function == key)


def test_phase_a_real_item_becomes_finding(models, merged_signals):
    dossier = _flagged_dossier(models, merged_signals)
    line = dossier.records[0].src[0] + 2
    reasoner = scripted([{
        "stage": "phase_a", "match": ["Vault.withdraw"],
        "response": {"items": [{"item_id": "Vault.withdraw#1", "verdict": "REAL",
                                "evidence_line": line, "title": "oracle rotation risk",
                                "severity": "HIGH"}]},
    }])
    findings = phase_a_verify([dossier], reasoner)
    assert len(findings) == 1
    assert findings[0].pipeline == "D"
    assert findings[0].evidence_lines == [line]
    assert findings[0].affected_functions == [("Vault", "withdraw")]


def test_phase_a_unflagged_dossier_rejected(models, merged_signals):
    dossiers = compile_dossiers(models["vault_oracle"], merged_signals["vault_oracle"])
    unflagged = next(d for d in dossiers if not d.flagged)
    with pytest.raises(ValueError):
        phase_a_verify([unflagged], MockReasoner())


def test_phase_a_dossiers_of_two_contracts_share_one_prompt(models):
    ccim = models["vault_oracle"]
    keys = (("ChainOracle", "setPrice"), ("Vault", "withdraw"))
    item = RiskItem("TEST", "t", "t", 0.5, None)
    two = [Dossier(k, (ccim.records_of([k])[0],), [item]) for k in keys]
    lines = {k: ccim.records_of([k])[0].src[0] for k in keys}
    # one prompt carries both contracts' items; the reply lists them reversed
    reasoner = scripted([{"stage": "phase_a", "match": [f"{o}.{n}#1" for o, n in keys],
                          "response": {"items": [
                              {"item_id": f"{o}.{n}#1", "verdict": "REAL",
                               "evidence_line": lines[(o, n)], "title": f"on {o}"}
                              for o, n in reversed(keys)]}}])
    findings = phase_a_verify(two, reasoner)
    assert reasoner.call_count("phase_a") == 1
    # each item reaches its own contract's dossier, in dossier order
    assert [(f.title, f.affected_functions, f.evidence_lines) for f in findings] == [
        (f"on {k[0]}", [k], [lines[k]]) for k in keys]


def test_phase_a_false_positives_yield_nothing(models, merged_signals):
    dossier = _flagged_dossier(models, merged_signals)
    reasoner = scripted([{
        "stage": "phase_a", "match": [],
        "response": {"items": [{"item_id": "Vault.withdraw#1", "verdict": "FALSE_POSITIVE",
                                "evidence_line": 3}]},
    }])
    assert phase_a_verify([dossier], reasoner) == []


def test_phase_a_real_without_line_demoted(models, merged_signals, caplog):
    dossier = _flagged_dossier(models, merged_signals)
    reasoner = scripted([{
        "stage": "phase_a", "match": [],
        "response": {"items": [{"item_id": "Vault.withdraw#1", "verdict": "REAL"}]},
    }])
    with caplog.at_level("WARNING"):
        assert phase_a_verify([dossier], reasoner) == []
    assert "demoted" in caplog.text


def test_phase_a_reasoner_failure_isolated(models, merged_signals):
    dossier = _flagged_dossier(models, merged_signals)
    assert phase_a_verify([dossier], ThrowingReasoner()) == []


def test_phase_a_prompt_contains_fp_rules(models, merged_signals):
    reasoner = RecordingReasoner()
    phase_a_verify([_flagged_dossier(models, merged_signals)], reasoner)
    [prompt] = reasoner.prompts
    assert "unchecked blocks" in prompt
    assert "nonReentrant" in prompt
    assert "admin modifier" in prompt
    assert "atomically" in prompt


def test_phase_a_items_of_two_functions_attributed_by_id(models):
    ccim = models["vault_oracle"]
    deposit, withdraw = ("Vault", "deposit"), ("Vault", "withdraw")
    items = [RiskItem("TEST", f"t{i}", f"risk {i}", 0.5, None) for i in (1, 2)]
    dossiers = [Dossier(deposit, (ccim.records_of([deposit])[0],), items[:1]),
                Dossier(withdraw, (ccim.records_of([withdraw])[0],), items)]
    # the reply lists withdraw's item before deposit's
    reasoner = scripted([{"stage": "phase_a", "match": ["Vault.deposit#1", "Vault.withdraw#2"],
                          "response": {"items": [
                              {"item_id": "Vault.withdraw#2", "verdict": "REAL",
                               "evidence_line": 60, "title": "on withdraw"},
                              {"item_id": "Vault.deposit#1", "verdict": "REAL",
                               "evidence_line": 55, "title": "on deposit"},
                              {"item_id": "Vault.withdraw#1", "verdict": "UNCLEAR"}]}}])
    findings = phase_a_verify(dossiers, reasoner)
    assert reasoner.call_count("phase_a") == 1
    # findings follow the dossiers' order, each on the function its id names
    assert [(f.title, f.affected_functions) for f in findings] == [
        ("on deposit", [deposit]), ("on withdraw", [withdraw])]


def test_phase_a_unknown_item_id_dropped(models, merged_signals, caplog):
    dossier = _flagged_dossier(models, merged_signals)
    line = dossier.records[0].src[0] + 2
    unknown = ["item-1", "Vault.deposit#1", "ChainOracle.setPrice#1", None]
    reasoner = scripted([{"stage": "phase_a", "match": [], "response": {"items": [
        {"item_id": i, "verdict": "REAL", "evidence_line": line} for i in unknown]}}])
    with caplog.at_level("WARNING"):
        assert phase_a_verify([dossier], reasoner) == []
    assert caplog.text.count("names no dossier") == len(unknown)


def test_phase_a_small_budget_splits_a_contract(deep_model):
    ccim, merged = deep_model
    flagged = [d for d in compile_dossiers(ccim, merged) if d.flagged]
    owner = max({d.function[0] for d in flagged},
                key=lambda c: sum(d.function[0] == c for d in flagged))
    dossiers = [d for d in flagged if d.function[0] == owner]
    ids = [f"{d.function[0]}.{d.function[1]}#{i}"
           for d in dossiers for i in range(1, len(d.risk_items) + 1)]
    budget = 3 * max(len(r.body) for d in dossiers for r in d.records) + 4_000
    reasoner = RecordingReasoner()
    phase_a_verify(dossiers, reasoner, budget)
    assert len(reasoner.prompts) > 1
    assert all(len(p) < budget for p in reasoner.prompts)
    for item_id in ids:
        assert sum(f"- {item_id}: " in p for p in reasoner.prompts) == 1, item_id


def test_phase_a_block_holds_every_overload(tmp_path):
    root = write_repo(OVERLOADED, tmp_path / "repo")
    ccim = assemble_ccim(build_audit_source(classify_files(root), None, resolve_remappings(root)))
    merged = _signals_for(ccim, [("TEST", "t", "MEDIUM", 0.6, ("Twin", "deposit"), None)])
    [dossier] = [d for d in compile_dossiers(ccim, merged) if d.function == ("Twin", "deposit")]
    reasoner = RecordingReasoner()
    phase_a_verify([dossier], reasoner)
    [prompt] = reasoner.prompts
    # deposit(uint256 a), the first of three overloads, reaches the prompt too
    first, last = "balance[msg.sender] += a; total += a;", "balance[to] += 1; total += 1;"
    assert prompt.count("### Twin.deposit\n") == 1
    assert prompt.index(first) < prompt.index("external virtual;") < prompt.index(last)


def _size(parts: dict, chunk: list) -> int:
    """A chunk's characters: its distinct parts, each plus its newline, less one."""
    distinct = {p: size for k in chunk for p, size in parts[k].items()}
    return sum(1 + size for size in distinct.values()) - 1


def _covered(chunks: list) -> list:
    """The members of consecutive chunks in order, each once: only the last
    member of the second-to-last chunk may appear twice, as the first of the
    last chunk, and only when both chunks have two members."""
    flat = [k for c in chunks for k in c]
    if len(chunks) > 1 and chunks[-1][0] == chunks[-2][-1]:
        assert len(chunks[-2]) == len(chunks[-1]) == 2, chunks
        del flat[-2]
    return flat


def _check_chunks(parts: dict, room: int, least: int) -> list[list]:
    chunks = prompts.chunks(list(parts), parts, room, least)
    assert _covered(chunks) == list(parts)
    for c in chunks:
        if _size(parts, c) > room:
            # only `least` members that alone do not fit overflow
            assert len(c) == min(least, len(parts))
        assert len(c) >= least or len(parts) < least
    # a chunk the lone-tail fold leaves alone closes only when the next member
    # would take it over the room
    for c, after in zip(chunks[:-2], chunks[1:-1]):
        assert _size(parts, c + after[:1]) > room
    return chunks


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), max_size=12), room=st.integers(-1, 120),
       least=st.sampled_from((1, 2)))
def test_chunks_partition_in_order_within_room(sizes, room, least):
    # one part of its own per member: the packer of blocks of fixed sizes
    chunks = _check_chunks({k: {k: s} for k, s in enumerate(sizes)}, room, least)
    assert chunks == chunks_of_sizes(list(range(len(sizes))), dict(enumerate(sizes)), room, least)


@st.composite
def _shared_parts(draw) -> dict:
    """Members of at most one part of their own and some of a few shared
    parts, each shared part of one size."""
    shared = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5))
    parts = {}
    for k in range(draw(st.integers(0, 12))):
        own = draw(st.lists(st.integers(0, 40), max_size=1))
        picks = draw(st.sets(st.integers(0, len(shared) - 1), max_size=3))
        parts[k] = {**{("own", k): s for s in own}, **{("shared", p): shared[p] for p in picks}}
    return parts


@settings(max_examples=300, deadline=None)
@given(parts=_shared_parts(), room=st.integers(-1, 120), least=st.sampled_from((1, 2)))
def test_chunks_count_a_shared_part_once(parts, room, least):
    _check_chunks(parts, room, least)


def test_chunks_fit_members_sharing_a_part_together():
    # three members of 10 own characters sharing 30: 3 * 11 + 31 - 1 = 63
    # characters together, 3 * 42 - 1 = 125 if each printed the shared part
    parts = {k: {k: 10, "shared": 30} for k in "abc"}
    assert prompts.chunks(list("abc"), parts, 63, least=1) == [["a", "b", "c"]]
    assert prompts.chunks(list("abc"), parts, 62, least=1) == [["a", "b"], ["c"]]


# --- phase B/C -------------------------------------------------------------------


def test_contract_priorities(models, merged_signals):
    ranked = contract_priorities(models["vault_oracle"], merged_signals["vault_oracle"])
    assert ranked[0][0] == "Vault"
    assert ranked[0][1] > 0


@pytest.mark.parametrize("findings", [5, ["not an object", {"title": "no function"},
                                         {"title": "kept", "functions": ["Vault.withdraw"]}]])
def test_discovery_skips_malformed_findings(models, merged_signals, findings):
    reasoner = scripted([{"stage": "phase_b", "match": [], "response": {"findings": findings}}])
    found = run_discovery_phase(models["vault_oracle"], merged_signals["vault_oracle"], reasoner)
    assert [f.title for f in found] == ([] if findings == 5 else ["kept"])


def test_discovery_sends_whole_bodies_and_names_the_rest(deep_model, caplog):
    ccim, merged = deep_model
    reasoner = RecordingReasoner()
    with caplog.at_level("WARNING"):
        run_discovery_phase(ccim, merged, reasoner)
    [prompt] = reasoner.prompts
    assert len(prompt) < DEFAULT_CHAR_BUDGET
    [warning] = [r.getMessage() for r in caplog.records if "phase B" in r.getMessage()]
    left_out = warning.split("left out: ")[1].split(", ")
    records = [r for c, _ in contract_priorities(ccim, merged)[:3] for r in ccim.owned(c)]
    # each function is sent whole or named as left out, never cut
    for r in records:
        assert (r.printed in prompt) != (f"{r.owner}.{r.name}" in left_out), r.key
    assert 0 < len(left_out) < len(records)


def _groups(ccim, budget=DEFAULT_CHAR_BUDGET):
    return build_phase_c_interactions(ccim, _member_blocks(ccim), key_risks(ccim), budget)


def test_phase_c_groups(models):
    groups = _groups(models["guards_majority"])
    # the one review of every toucher replaces the writer/reader pairs
    balances = [g for g in groups if g.subject == "Ledger.balances"]
    assert [g.kind for g in balances] == ["var"]
    assert len(balances[0].members) >= 4


def test_phase_c_two_touchers_pairs_only(models):
    groups = _groups(models["guards_majority"])
    small = [g for g in groups if g.subject == "LedgerSmall.balances"]
    assert [(g.kind, len(g.members)) for g in small] == [("var", 2)]


def test_phase_c_empty(models):
    # interfaces only: build a tiny model with no shared state and no edges
    src = AuditSource(text="contract Z { function f() external pure returns (uint256) { return 1; } }",
                      offsets=OffsetMap.build([Segment("z.sol", 1, 1, 1)]),
                      scope=("Z",), remappings=(), pragmas={})
    assert _groups(assemble_ccim(src)) == []


_SKIPS = """\
interface IPool {
    function ping() external;
}

contract Pool {
    struct Config {
        uint256 limit;
    }

    IPool public peer;
    address public admin;
    Sink public sink;
    uint256 public fee;
    uint256 public cap;
    mapping(address => uint256) public limits;
    string public label;
    IERC20 public token;
    Config public config;
    uint256[] public steps;

    constructor(address p, Sink s) {
        peer = IPool(p);
        admin = msg.sender;
        sink = s;
        limits[msg.sender] = 1;
        label = "pool";
        _setCap();
        config.limit = 5;
        steps.push(1);
    }

    function _setCap() internal {
        cap = 1;
    }

    function initialize(uint256 f) external {
        fee = f;
    }

    function a() external {
        sink.ping();
        sink.quiet();
        sink.gated();
        sink.bare();
        sink.take{value: 1}();
        emit Seen(peer, admin, fee, cap, limits[msg.sender], label, token);
    }

    function b() external view returns (uint256) {
        return uint256(uint160(address(peer))) + uint256(uint160(admin)) + uint256(uint160(address(sink)))
            + fee + cap + limits[msg.sender] + bytes(label).length + token.totalSupply() + config.limit
            + steps.length;
    }
}

contract Sink {
    modifier gate() {
        _;
    }

    function ping() external {}

    function quiet() external { /* no-op */ }

    function gated() external gate {}

    function bare() external;

    function take() external payable {}
}
"""


def _model(text: str, *scope: str):
    lines = text.count("\n") + 1
    return assemble_ccim(AuditSource(text=text, offsets=OffsetMap.build([Segment("p.sol", 1, lines, 1)]),
                                     scope=scope, remappings=(), pragmas={}))


@pytest.mark.parametrize("kind, subject, reviewed", [
    # set once: only the constructor writes a value type
    ("var", "Pool.peer", False),        # a declared interface
    ("var", "Pool.admin", False),       # an address
    ("var", "Pool.sink", False),        # a declared contract
    # a call into an empty body, with no modifier, does nothing
    ("call", "Sink.ping", False),       # {}
    ("call", "Sink.quiet", False),      # { /* no-op */ }
    # a write the model cannot see stays possible
    ("var", "Pool.token", True),        # no visible writer, of an undeclared type
    ("var", "Pool.limits", True),       # a mapping that only the constructor writes
    ("var", "Pool.steps", True),        # an array
    ("var", "Pool.config", True),       # a struct
    ("var", "Pool.label", True),        # a string
    ("var", "Pool.fee", True),          # written by initialize()
    ("var", "Pool.cap", True),          # written by the constructor through an internal helper
    ("call", "Sink.gated", True),       # an empty body behind a modifier
    ("call", "Sink.bare", True),        # no body: function bare() external;
    ("call", "Sink.take", True),        # an empty payable body takes the value it is sent
])
def test_phase_c_skips_only_what_no_call_can_interfere_through(kind, subject, reviewed):
    ccim = _model(_SKIPS, "Pool", "Sink")
    assert ((kind, subject) in {(g.kind, g.subject) for g in _groups(ccim)}) is reviewed
    assert ((kind, subject) in phase_c_subjects(ccim)) is reviewed


def test_phase_c_reviews_a_variable_with_no_visible_writer(models):
    # Allowances.token is read by grant and rotateSafe and written by nothing the model sees
    ccim = models["approvals"]
    assert "Allowances.token" not in ccim.deps.writers
    assert [g.members for g in _groups(ccim) if g.subject == "Allowances.token"] == [
        (("Allowances", "rotateSafe"), ("Allowances", "grant"))]


def test_phase_c_vulnerable_verdict(models):
    reasoner = scripted([{
        "stage": "phase_c", "match": ["Ledger.balances"],
        "response": {"verdict": "VULNERABLE", "title": "unguarded writer breaks accounting",
                     "severity": "HIGH"},
    }])
    findings = run_phase_c(models["guards_majority"], reasoner,
                           key_risks(models["guards_majority"]))
    assert findings
    assert all(f.pipeline == "D" for f in findings)


def _reviews(ccim) -> dict:
    """Each phase C review id with its group, in group order."""
    return {f"C{n}": g for n, g in enumerate(_groups(ccim), start=1)}


def test_phase_c_entry_judges_the_review_it_names(models, caplog):
    ccim = models["guards_majority"]
    reviews = _reviews(ccim)
    rid = list(reviews)[1]
    unknown = [f"C{len(reviews) + 1}", "C0", None]
    reasoner = scripted([{"stage": "phase_c", "match": [], "response": {"reviews": [
        "not an object", {"review_id": rid, "verdict": "VULNERABLE", "title": "named"},
        *({"review_id": u, "verdict": "VULNERABLE"} for u in unknown)]}}])
    with caplog.at_level("WARNING"):
        found = run_phase_c(ccim, reasoner, key_risks(ccim))
    assert reasoner.call_count("phase_c") == 1
    assert [(f.title, f.affected_functions) for f in found] == [
        ("named", list(reviews[rid].members))]
    assert caplog.text.count("names no review") == len(unknown)


def test_phase_c_top_level_reply_judges_every_review(models):
    # the shape of a reply with one verdict and no "reviews" list
    ccim = models["guards_majority"]
    groups = list(_reviews(ccim).values())
    reasoner = scripted([{"stage": "phase_c", "match": [],
                          "response": {"verdict": "VULNERABLE", "severity": "HIGH"}}])
    found = run_phase_c(ccim, reasoner, key_risks(ccim))
    assert reasoner.call_count("phase_c") < len(groups)
    assert [(f.title, f.affected_functions) for f in found] == [
        (f"interference on {g.subject}", list(g.members)) for g in groups]


def test_phase_c_entry_overrides_the_top_level_fields(models):
    ccim = models["guards_majority"]
    groups = list(_reviews(ccim).values())
    reasoner = scripted([{"stage": "phase_c", "match": [], "response": {
        "verdict": "VULNERABLE", "severity": "HIGH", "reviews": [
            {"review_id": "C1", "verdict": "SAFE"},
            {"review_id": "C2", "title": "own title"}]}}])
    found = run_phase_c(ccim, reasoner, key_risks(ccim))
    # C1's SAFE overrides the top-level verdict; C2 keeps the top-level severity
    assert [(f.title, f.severity) for f in found] == [("own title", "HIGH")] + [
        (f"interference on {g.subject}", "HIGH") for g in groups[2:]]


def _check_phase_c_chunks(ccim, budget):
    reasoner = RecordingReasoner()
    run_phase_c(ccim, reasoner, key_risks(ccim), budget)
    blocks = _member_blocks(ccim)
    # the groups checked are the ones sent: the build's, or its even cut
    built = build_phase_c_interactions(ccim, blocks, key_risks(ccim), budget)
    groups, packed = pack_phase_c(ccim, blocks, key_risks(ccim), budget)
    assert [prompts.render(prompts.PHASE_C, budget, {"reviews": text})
            for _, text in packed] == reasoner.prompts
    evened = [g._replace(members=g.evened) if g.evened else g for g in built]
    assert groups in (built, evened)
    shell = len(prompts.render(prompts.PHASE_C, budget, {"reviews": ""}))
    # the reviewed subjects are the brute-force skip rule's
    reviewed = phase_c_subjects(ccim)
    assert {(g.kind, g.subject) for g in groups} == reviewed

    for var in set(ccim.deps.writers) | set(ccim.deps.readers):
        touchers = ccim.deps.writers.get(var, frozenset()) | ccim.deps.readers.get(var, frozenset())
        chunks = [g for g in groups if g.subject == var]
        if ("var", var) not in reviewed:
            assert not chunks
            continue
        assert sorted(_covered([g.members for g in chunks])) == sorted(touchers), var
        assert all(len(g.members) >= 2 for g in chunks), var
        assert [(g.part, g.parts) for g in chunks] == [(i, len(chunks))
                                                       for i in range(1, len(chunks) + 1)]

    for g in {g for _, g in ccim.graph.edges}:
        subject = f"{g[0]}.{g[1]}"
        chunks = [c for c in groups if c.kind == "call" and c.subject == subject]
        if ("call", subject) not in reviewed:
            assert not chunks
            continue
        callers = ccim.graph.callers(g) - {g} or {g}
        assert sorted(_covered([c.members[:-1] for c in chunks])) == sorted(callers), g
        assert all(c.members[-1] == g for c in chunks), g
        assert [(c.part, c.parts) for c in chunks] == [(i, len(chunks))
                                                       for i in range(1, len(chunks) + 1)]
        # a review that fits whole under the widest heading it can get is one chunk
        n = len(callers)
        heading = f"### C{len(groups) + n}: calls into {subject}" + (
            f" (part {n} of {n})" if n > 1 else "") + "\n"
        whole = "\n".join(blocks[k] for k in (*callers, g))
        if shell + len(heading) + len(whole) < budget:
            assert len(chunks) == 1, g

    # each review is one section in one prompt: its heading and one name line
    # per member; a function's body follows only its first name line of the
    # prompt. The sections of one contract's reviews are printed next to
    # each other across the prompts.
    name = {k: f"// {k[0]}.{k[1]}" for k in blocks}
    headings = []
    for n, g in enumerate(groups, start=1):
        what = f"calls into {g.subject}" if g.kind == "call" else f"storage variable {g.subject}"
        part = f" (part {g.part} of {g.parts})" if g.parts > 1 else ""
        headings.append(f"### C{n}: {what}{part}\n")
    prefix, suffix = prompts.PHASE_C.format(version=prompts.PROMPT_VERSION,
                                            reviews="\0").split("\0")
    assert len(reasoner.prompts) <= len(groups)
    assert all(len(p) < budget for p in reasoner.prompts)
    held, owners = [], []
    for p in reasoner.prompts:
        assert p.startswith(prefix) and p.endswith(suffix)
        reviews = p[len(prefix):len(p) - len(suffix)]
        named = set()
        for section in re.split(r"\n(?=### C\d+: )", reviews):
            n = int(re.match(r"### C(\d+): ", section)[1])
            held.append(n)
            g = groups[n - 1]
            owners.append(g.members[0][0])
            assert section.startswith(headings[n - 1])
            lines = {name[k] for k in g.members}
            assert [line for line in section.split("\n") if line in lines] == [
                name[k] for k in g.members], headings[n - 1]
            named.update(g.members)
        for k in named:
            assert reviews.count(blocks[k]) == 1, k
            first = re.search(f"^{re.escape(name[k])}$", reviews, re.M)
            assert first.start() == reviews.index(blocks[k]), k
    assert sorted(held) == list(range(1, len(groups) + 1))
    runs = [owner for owner, _ in groupby(owners)]
    assert len(runs) == len(set(runs)), runs

    # the packing sent is never larger than the build's greedy cut packed
    room = prompts.room(prompts.PHASE_C, budget, {"reviews": ""})
    greedy = prompts.pack_sections(headings, [g.members for g in built], blocks, room)
    assert (len(reasoner.prompts), sum(map(len, reasoner.prompts))) <= (
        len(greedy), sum(len(text) for _, text in greedy) + len(greedy) * shell)

    # the reviews side by side, each body once
    together = (sum(len(h) + sum(1 + len(name[k]) for k in g.members)
                    for h, g in zip(headings, groups)) - 1
                + sum(len(blocks[k]) - len(name[k]) for k in {k for g in groups for k in g.members}))
    if groups and shell + together < budget:
        assert [len(p) for p in reasoner.prompts] == [shell + together]


@settings(max_examples=25, deadline=None)
@given(shape=st.tuples(st.integers(1, 3), st.integers(2, 40), st.integers(2, 6)),
       seed=st.integers(0, 1_000), budget=st.integers(1_500, DEFAULT_CHAR_BUDGET))
def test_phase_c_chunks_on_generated_corpora(gen, tmp_path_factory, shape, seed, budget):
    _check_phase_c_chunks(generated_model(gen, tmp_path_factory, gen.Shape(*shape), seed), budget)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(REPOS)), budget=st.integers(1_500, DEFAULT_CHAR_BUDGET))
def test_phase_c_chunks_on_corpus_repos(models, name, budget):
    _check_phase_c_chunks(models[name], budget)


def test_phase_c_chunks_on_deep(deep_model):
    _check_phase_c_chunks(deep_model[0], DEFAULT_CHAR_BUDGET)


def test_phase_c_one_review_per_callee_on_deep(deep_model):
    reasoner = MockReasoner()
    run_phase_c(deep_model[0], reasoner, key_risks(deep_model[0]))
    # 30 variable chunks, packed several to a prompt; the 320 call edges
    # and the constructor-set `peer` get no review, since every edge goes
    # into an empty `ping`
    groups = _groups(deep_model[0])
    assert len(groups) == 30
    assert {g.kind for g in groups} == {"var"}
    assert not any(g.subject.endswith(".peer") for g in groups)
    # 16 while each review was placed in the first prompt it fit and a
    # split review was cut greedily only
    assert reasoner.call_count("phase_c") == 14


def test_phase_c_prints_each_body_once_per_prompt_on_wide(gen, tmp_path_factory):
    # the benchmark's `wide` shape: its 300 reviews took 25 prompts while each
    # review printed the bodies of its members, and 12 while they were packed
    # in group order, every variable review before every callee review, so a
    # body went out once with its variables and again with its callee. The
    # 40 reviews of the constructor-set `peer` and of the calls into the
    # empty `ping` are skipped, and 260 remain
    ccim = generated_model(gen, tmp_path_factory, gen.Shape(20, 16, 12), seed=3)
    reasoner = RecordingReasoner()
    run_phase_c(ccim, reasoner, key_risks(ccim))
    blocks = _member_blocks(ccim)
    groups = build_phase_c_interactions(ccim, blocks, key_risks(ccim))
    assert len(groups) == 260
    assert len(reasoner.prompts) == 5
    for p in reasoner.prompts:
        assert all(p.count(b) <= 1 for b in blocks.values())
    # 2.29 times the distinct bodies in group order
    distinct = sum(len(blocks[k]) for k in {k for g in groups for k in g.members})
    assert sum(map(len, reasoner.prompts)) <= 1.5 * distinct


_SELF_CALLS = """contract Z {
    Z public peer;
    function ping() external { peer.ping(); }
    function pong() external { peer.ping(); }
    function lone() external { peer.lone(); }
}"""


def test_phase_c_self_call_holds_callee_block_once():
    lines = _SELF_CALLS.count("\n") + 1
    ccim = assemble_ccim(AuditSource(text=_SELF_CALLS,
                                     offsets=OffsetMap.build([Segment("z.sol", 1, lines, 1)]),
                                     scope=("Z",), remappings=(), pragmas={}))
    ping, pong, lone = ("Z", "ping"), ("Z", "pong"), ("Z", "lone")
    assert {(ping, ping), (pong, ping), (lone, lone)} <= ccim.graph.edges
    calls = [(g.subject, g.members) for g in _groups(ccim) if g.kind == "call"]
    # ping leaves its own caller list; lone, its only caller, keeps its (g, g) pair
    assert calls == [("Z.lone", (lone, lone)), ("Z.ping", (pong, ping))]

    rid = next(r for r, g in _reviews(ccim).items() if g.kind == "call" and g.subject == "Z.ping")
    reasoner = RecordingReasoner()
    run_phase_c(ccim, reasoner, key_risks(ccim))
    [prompt] = [p for p in reasoner.prompts if "calls into Z.ping" in p]
    # the Z.ping body is printed once in the prompt, after its first name line;
    # the callee's review names its caller and itself
    body = "function ping() external { peer.ping(); }"
    assert prompt.count(body) == 1
    assert prompt.index("// Z.ping\n" + body) == prompt.index("// Z.ping")
    review = prompt.split(f"### {rid}: calls into Z.ping\n")[1].split("\n\n")[0]
    assert review.split("\n### ")[0] == "// Z.pong\n// Z.ping"

    # the reviews of Z.lone and Z.ping share the prompt, so the verdict names its review
    found = run_phase_c(ccim, scripted([{"stage": "phase_c", "match": ["calls into Z.ping"],
                                         "response": {"reviews": [{"review_id": rid,
                                                                   "verdict": "VULNERABLE",
                                                                   "severity": "HIGH"}]}}]),
                        key_risks(ccim))
    assert [f.title for f in found] == ["interference on Z.ping"]


def test_phase_c_and_phase_d_blocks_hold_every_overload(tmp_path):
    root = write_repo(OVERLOADED, tmp_path / "repo")
    ccim = assemble_ccim(build_audit_source(classify_files(root), None, resolve_remappings(root)))
    first, last = "balance[msg.sender] += a; total += a;", "balance[to] += 1; total += 1;"
    reasoner = RecordingReasoner()
    run_phase_c(ccim, reasoner, key_risks(ccim))
    # the first overload of Twin.deposit reaches the reviews of what it writes
    assert any(first in p for p in reasoner.prompts)
    for block in (_member_blocks(ccim)[("Twin", "deposit")],
                  expand_source_block(make_finding(functions=[("Twin", "deposit")]), ccim)):
        assert block.startswith("// Twin.deposit\n")
        assert block.count("// Twin.deposit\n") == 1
        assert block.index(first) < block.index("external virtual;") < block.index(last)


def test_phase_c_lone_last_member_never_stands_alone():
    parts = {k: {k: 10} for k in "abcd"}
    # room for three blocks: d would be alone, so it takes c
    assert prompts.chunks(list("abcd"), parts, 32) == [["a", "b"], ["c", "d"]]
    # room for two blocks: taking b would leave a alone, so c takes a copy of b
    assert prompts.chunks(list("abc"), parts, 21) == [["a", "b"], ["b", "c"]]


def test_phase_c_prompts_stay_under_tight_budgets(gen, tmp_path_factory):
    # a lone last toucher or caller once merged into a chunk of two, making a
    # chunk of three of which only two fit, and its prompt was cut
    ccim = generated_model(gen, tmp_path_factory, gen.Shape(1, 3, 2), seed=0)
    for budget in range(1_200, 1_433, 8):
        reasoner = RecordingReasoner()
        run_phase_c(ccim, reasoner, key_risks(ccim), budget)
        assert reasoner.prompts, budget
        assert all(len(p) < budget for p in reasoner.prompts), budget


@pytest.mark.parametrize("budget", [3_000, 6_000, 12_000, DEFAULT_CHAR_BUDGET])
def test_phase_c_findings_come_in_group_order_whatever_the_packing(gen, tmp_path_factory,
                                                                   budget):
    # each pool's `ping` emits, so the reviews of the calls into it, which
    # follow every variable review in group order, are printed with the
    # reviews of their callers' contract
    corpus = gen.generate(gen.Shape(3, 6, 2), seed=3)
    root = write_repo({rel: text.replace("function ping() external {}",
                                         "function ping() external { emit Pinged(); }")
                       for rel, text in corpus.files.items()}, tmp_path_factory.mktemp("gen"))
    ccim = assemble_ccim(build_audit_source(classify_files(root), None, resolve_remappings(root)))
    groups, _ = pack_phase_c(ccim, _member_blocks(ccim), key_risks(ccim), budget)
    assert any(g.kind == "call" for g in groups)
    reasoner = RecordingReasoner(scripted([{"stage": "phase_c", "match": [],
                                            "response": {"verdict": "VULNERABLE"}}]).script)
    found = run_phase_c(ccim, reasoner, key_risks(ccim), budget)
    # the prompts print the reviews by contract, not in group order
    printed = [int(n) for p in reasoner.prompts for n in re.findall(r"^### C(\d+): ", p, re.M)]
    assert printed != sorted(printed)
    assert [tuple(f.affected_functions) for f in found] == [g.members for g in groups]


def test_phase_c_calls_grow_linearly(gen, tmp_path_factory):
    calls = []
    for functions in (160, 320):
        shape = gen.Shape(contracts=2, functions=functions, pairs=6)
        reasoner = MockReasoner()
        ccim = generated_model(gen, tmp_path_factory, shape, seed=3)
        run_phase_c(ccim, reasoner, key_risks(ccim))
        calls.append(reasoner.call_count("phase_c"))
    assert calls[1] <= 2.2 * calls[0], calls


# phase C's prompts and characters on generated shapes at seed 3 while each
# review was placed in the first prompt it fit and a split review was cut
# greedily only. Best fit and the even cut send 5, 14, 30, 27, 11 and 5
# prompts; neither may send more prompts or characters than before
_PHASE_C_FIRST_FIT = {
    (2, 80, 6): (5, 113_289),
    (2, 160, 6): (16, 335_168),
    (2, 320, 6): (30, 661_124),
    (4, 160, 6): (32, 669_864),
    (2, 160, 12): (14, 316_656),
    (20, 16, 12): (5, 119_063),
}


@pytest.mark.parametrize("shape", sorted(_PHASE_C_FIRST_FIT))
def test_phase_c_sends_no_more_than_first_fit(gen, tmp_path_factory, shape):
    ccim = generated_model(gen, tmp_path_factory, gen.Shape(*shape), seed=3)
    reasoner = RecordingReasoner()
    run_phase_c(ccim, reasoner, key_risks(ccim))
    sent, chars = _PHASE_C_FIRST_FIT[shape]
    assert len(reasoner.prompts) <= sent
    assert sum(map(len, reasoner.prompts)) <= chars


_PHASE_C_DIGEST = """
import hashlib, sys
from pathlib import Path
from solaudit.ccim import assemble_ccim
from solaudit.coverage import key_risks
from solaudit.dossier import run_phase_c
from solaudit.ingest import build_audit_source, classify_files, resolve_remappings
from solaudit.reasoner import MockReasoner

class Recording(MockReasoner):
    prompts = []
    def respond(self, request):
        self.prompts.append(request.prompt)
        return super().respond(request)

root = Path(sys.argv[1])
ccim = assemble_ccim(build_audit_source(classify_files(root), None, resolve_remappings(root)))
run_phase_c(ccim, Recording(), key_risks(ccim))
print(len(Recording.prompts), hashlib.sha256("\\0".join(Recording.prompts).encode()).hexdigest())
"""


def test_phase_c_prompts_do_not_depend_on_hash_order(gen, tmp_path):
    # placement scores the bodies a section shares with a prompt by set
    # operations on function keys, whose order follows string hashing
    root = write_repo(gen.generate(gen.Shape(2, 160, 6), seed=3).files, tmp_path / "deep")
    src = Path(__file__).resolve().parent.parent / "src"
    digests = {subprocess.run([sys.executable, "-c", _PHASE_C_DIGEST, str(root)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src),
                                   "PYTHONHASHSEED": seed}).stdout
               for seed in ("1", "2")}
    assert len(digests) == 1
    assert digests.pop().split()[0] == "14"


# --- phase D -------------------------------------------------------------------


def test_route_admin_trust(models):
    f = make_finding(severity="CRITICAL", functions=[("Vault", "setOracle")])
    assert phase_d_prefilter(f, models["vault_oracle"]) == VerdictRecord(
        f.id, "stage3", "PASSED", "admin-trust short-circuit")
    assert f.severity == "LOW" and f.flags == {"admin-trust"}


def test_route_graph_skip(models):
    ccim = models["patterns"]
    f = make_finding(functions=[("Risky", "ratio")])
    record = phase_d_prefilter(f, ccim)
    assert (record.stage, record.verdict, record.reasoner_used) == ("stage3", "DISPROVED", False)
    # the record cites the function's first line
    assert record.evidence.startswith(f"line {ccim.records_of(f.affected_functions)[0].src[0]}: ")
    assert f.flags == set()


def test_route_needs_reasoner(models):
    f = make_finding(severity="CRITICAL", functions=[("Vault", "withdraw")])
    assert phase_d_prefilter(f, models["vault_oracle"]) is None
    assert f.severity == "CRITICAL" and f.flags == set()


def test_route_vector_confirmed_and_boundaries(models):
    ccim = models["patterns"]
    signals = _signals_for(ccim, [
        ("SIG", "sig-missing-nonce", "HIGH", 0.7, ("Risky", "claim"), None),
    ])
    base = dict(
        title="signature replay in claim",
        description="the signature can be replayed",
        functions=[("Risky", "claim")], lines=(5,),
    )

    def verdict(finding):
        record = phase_d_prefilter(finding, ccim, signals)
        return None if record is None else record.verdict

    ok = make_finding(confidence=0.8, scenario="x" * 30, **base)
    assert phase_d_prefilter(ok, ccim, signals) == VerdictRecord(
        ok.id, "stage3", "CONFIRMED", "vector-confirmed short-circuit")
    assert ok.flags == {"vector-confirmed"}
    low_conf = make_finding(confidence=0.79, scenario="x" * 30, **base)
    short_trace = make_finding(confidence=0.8, scenario="x" * 29, **base)
    no_lines = make_finding(confidence=0.8, scenario="x" * 30,
                            title=base["title"], description=base["description"],
                            functions=base["functions"])
    for near_miss in (low_conf, short_trace, no_lines):
        assert verdict(near_miss) != "CONFIRMED"
        assert "vector-confirmed" not in near_miss.flags


def test_routes_are_exclusive_and_total(models, merged_signals):
    ccim = models["vault_oracle"]
    for key in [("Vault", "setOracle"), ("Vault", "withdraw"), ("ChainOracle", "setPrice")]:
        f = make_finding(functions=[key])
        record = phase_d_prefilter(f, ccim, merged_signals["vault_oracle"])
        # a short-circuit decides without the reasoner; None leaves it the claim
        assert record is None or (record.stage, record.reasoner_used) == ("stage3", False)
        assert len(f.flags & {"admin-trust", "vector-confirmed"}) <= 1


def test_expand_source_block_includes_neighbors(models):
    ccim = models["vault_oracle"]
    f = make_finding(functions=[("Vault", "withdraw")])
    block = expand_source_block(f, ccim)
    assert "function withdraw" in block
    assert "ChainOracle.latestPrice" in block  # callee pulled in


def test_claim_first_disproved_needs_real_quote(models):
    ccim = models["vault_oracle"]
    f = make_finding(functions=[("Vault", "withdraw")])
    quoting = scripted([{
        "stage": "phase_d", "match": [],
        "response": {"verdict": "DISPROVED", "quote": "require(amount > 0, \"zero\");"},
    }])
    assert phase_d_claim_first(f, ccim, quoting) == "DISPROVED"

    f2 = make_finding(functions=[("Vault", "withdraw")])
    asserting = scripted([{
        "stage": "phase_d", "match": [],
        "response": {"verdict": "DISPROVED", "quote": ""},
    }])
    assert phase_d_claim_first(f2, ccim, asserting) == "UNCLEAR"
    assert "protocol-violation" in f2.flags

    f3 = make_finding(functions=[("Vault", "withdraw")])
    fabricated = scripted([{
        "stage": "phase_d", "match": [],
        "response": {"verdict": "DISPROVED", "quote": "this line is not in the source"},
    }])
    assert phase_d_claim_first(f3, ccim, fabricated) == "UNCLEAR"


def test_claim_first_confirmed(models):
    f = make_finding(functions=[("Vault", "withdraw")])
    confirming = scripted([{
        "stage": "phase_d", "match": [],
        "response": {"verdict": "CONFIRMED", "quote": ""},
    }])
    assert phase_d_claim_first(f, models["vault_oracle"], confirming) == "CONFIRMED"


def test_phase_d_verify_records_verdict_once(models):
    ccim = models["vault_oracle"]
    f = make_finding(functions=[("Vault", "withdraw")])
    offline = ThrowingReasoner()
    for _ in range(2):
        assert phase_d_verify(f, ccim, offline) == VerdictRecord(
            f.id, "stage3", "UNCERTAIN", "claim-first protocol", reasoner_used=True)
    assert offline.calls == 1
    assert f.claim_verdict == "UNCLEAR"
    assert "reasoner-failure" in f.flags

    admin = make_finding(severity="CRITICAL", functions=[("Vault", "setOracle")])
    assert phase_d_verify(admin, ccim, offline) == VerdictRecord(
        admin.id, "stage3", "PASSED", "admin-trust short-circuit")
    assert admin.severity == "LOW" and "admin-trust" in admin.flags
    assert admin.claim_verdict is None and offline.calls == 1


_ROUTE_TABLE = {"src/Table.sol": """\
pragma solidity ^0.8.19;

contract Table {
    address public owner;
    uint256 public total;

    modifier onlyOwner() {
        require(msg.sender == owner, "not owner");
        _;
    }

    function setOwner(address o) external onlyOwner {
        owner = o;
    }

    function claim(bytes32 h, uint8 v, bytes32 r, bytes32 s) external {
        total += uint256(uint160(ecrecover(h, v, r, s)));
    }

    function ratio(uint256 a, uint256 b) external pure returns (uint256) {
        return a / b;
    }

    function add(uint256 x) external {
        require(x > 0, "zero");
        total += x;
    }
}
"""}


class _PhaseDReasoner(MockReasoner):
    """The scripted mock whose phase D backend fails when `down`."""

    def __init__(self, script, down: bool):
        super().__init__(script)
        self.down = down

    def respond(self, request):
        reply = super().respond(request)
        if self.down and request.stage == "phase_d":
            raise ReasonerError("backend down")
        return reply


@pytest.mark.parametrize("reply", ["DISPROVED", "CONFIRMED", "UNCLEAR", None],
                         ids=["disproved", "confirmed", "unclear", "backend-failure"])
def test_dd_run_keeps_and_flags_by_phase_d_record(tmp_path, reply):
    root = write_repo(_ROUTE_TABLE, tmp_path / "repo")
    ccim = assemble_ccim(build_audit_source(classify_files(root), None, resolve_remappings(root)))
    merged = _signals_for(ccim, [("SIG", "sig-missing-nonce", "HIGH", 0.7, ("Table", "claim"),
                                  None)])
    claim_line = ccim.records_of([("Table", "claim")])[0].src[0] + 1
    # one finding per prefilter outcome, title -> (function, extra payload)
    raised = {
        "owner rotation": ("setOwner", {}),
        "signature replay in claim": ("claim", {
            "confidence": 0.8, "evidence_lines": [claim_line],
            "attack_scenario": "1. sign once 2. replay the same signature twice"}),
        "ratio rounding": ("ratio", {}),
        "open total update": ("add", {}),
    }
    reasoner = _PhaseDReasoner(
        [ScriptEntry("phase_b", (), {"findings": [
            {"title": t, "functions": [["Table", fn]], **extra}
            for t, (fn, extra) in raised.items()]}),
         ScriptEntry("phase_d", (), {"verdict": reply or "UNCLEAR",
                                     "quote": 'require(x > 0, "zero");'})],
        down=reply is None)
    records = {"owner rotation": "PASSED", "signature replay in claim": "CONFIRMED",
               "ratio rounding": "DISPROVED",
               "open total update": {"DISPROVED": "DISPROVED",
                                     "CONFIRMED": "CONFIRMED"}.get(reply, "UNCERTAIN")}
    kept = dd_run(ccim, merged, reasoner, key_risks(ccim))
    assert {f.title for f in kept} == {t for t, v in records.items() if v != "DISPROVED"}
    assert {f.title for f in kept if "unverified" in f.flags} == \
        {t for t, v in records.items() if v == "UNCERTAIN"}
    # only the claim the prefilter cannot decide reaches the reasoner, once,
    # and stage 3 reads the same record off the recorded verdict
    assert reasoner.call_count("phase_d") == 1
    assert {f.title: phase_d_verify(f, ccim, reasoner, merged).verdict for f in kept} == \
        {t: v for t, v in records.items() if v != "DISPROVED"}
    assert reasoner.call_count("phase_d") == 1


# --- phase E -------------------------------------------------------------------


def test_phase_e_deterministic_rules_admin_low(models):
    ccim = models["vault_oracle"]
    f = make_finding(severity="CRITICAL", functions=[("Vault", "setOracle")])
    phase_e_recalibrate(f, ccim)
    assert f.severity == "LOW"  # admin-only, moves no funds


def test_phase_e_no_fund_loss_cap_medium(models):
    ccim = models["vault_oracle"]
    f = make_finding(severity="CRITICAL", functions=[("ChainOracle", "setPrice")])
    phase_e_recalibrate(f, ccim)
    assert f.severity == "MEDIUM"


def test_phase_e_three_preconditions_downgrade(models):
    ccim = models["vault_oracle"]
    scenario = ("1. requires the owner key\n"
                "2. assuming the oracle is stale\n"
                "3. only if the pool is empty\n")
    f = make_finding(severity="HIGH", functions=[("Vault", "withdraw")], scenario=scenario)
    phase_e_recalibrate(f, ccim)
    assert f.severity == "MEDIUM"


# --- full pipeline -------------------------------------------------------------


def test_dd_run_end_to_end(models, merged_signals):
    ccim = models["vault_oracle"]
    rec = ccim.records_of([("Vault", "withdraw")])[0]
    reasoner = scripted([{
        "stage": "phase_a", "match": ["Vault.withdraw"],
        "response": {"items": [{"item_id": "Vault.withdraw#1", "verdict": "REAL",
                                "evidence_line": rec.src[0] + 2,
                                "title": "oracle rotation repricing",
                                "description": "owner-rotated oracle reprices withdrawals",
                                "severity": "HIGH"}]},
    }])
    findings = dd_run(ccim, merged_signals["vault_oracle"], reasoner, key_risks(ccim))
    assert findings
    assert all(f.id.startswith("D-") for f in findings)


def test_dd_run_names_a_finding_downgraded_for_an_unquoted_disproof(models, caplog):
    # phase D runs before the findings are numbered, so a WARNING that gave
    # only the id would name every finding `pending`
    ccim = models["guards_majority"]
    reasoner = scripted([
        {"stage": "phase_c", "match": [], "response": {"reviews": [
            {"review_id": "C1", "verdict": "VULNERABLE", "severity": "HIGH",
             "title": "unguarded writer breaks accounting"}]}},
        {"stage": "phase_d", "match": [], "response": {"verdict": "DISPROVED", "quote": ""}},
    ])
    with caplog.at_level("WARNING", logger="solaudit.dossier"):
        kept = dd_run(ccim, merge_signals({}), reasoner, key_risks(ccim))
    assert [f.title for f in kept] == ["unguarded writer breaks accounting"]
    assert [r.getMessage() for r in caplog.records if "verifiable quote" in r.getMessage()] == [
        "phase D DISPROVED without verifiable quote on pending "
        "'unguarded writer breaks accounting'; downgraded"]


def test_dd_run_unflagged_dossiers_skip_reasoner(models):
    ccim = models["guards_majority"]
    reasoner = MockReasoner()
    dd_run(ccim, merge_signals({}), reasoner, key_risks(ccim))
    assert reasoner.call_count("phase_a") == 0


def test_graph_skip_drops_finding(models):
    ccim = models["patterns"]
    reasoner = scripted([{
        "stage": "phase_b", "match": [],
        "response": {"findings": [{"title": "view result misread",
                                   "description": "ratio output can be wrong",
                                   "severity": "LOW",
                                   "functions": [["Risky", "ratio"]]}]},
    }])
    findings = dd_run(ccim, merge_signals({}), reasoner, key_risks(ccim))
    assert not [f for f in findings if ("Risky", "ratio") in f.affected_functions]
