from __future__ import annotations

import json
from pathlib import Path

import pytest
from corpus import REPOS
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_callbacks,
    brute_force_footprints,
    brute_force_rot,
    brute_force_trustgap,
)

from solaudit.ccim import (
    assemble_ccim,
    canonical_json,
    ccim_to_json,
    classify_admin,
    normalize_predicate,
    parse_function_records,
)
from solaudit.ccim.parse import mask_noncode, parse_source
from solaudit.engines.bva import run_bva
from solaudit.ingest import AuditSource, OffsetMap, Segment, build_audit_source, classify_files


def _source_from_text(text: str) -> AuditSource:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    offsets = OffsetMap.build([Segment("inline.sol", 1, len(lines), 1)])
    pragmas = {}
    if "pragma solidity" in text:
        import re
        m = re.search(r"pragma\s+solidity\s+([^;]+);", text)
        pragmas["inline.sol"] = m.group(1)
    return AuditSource(text="\n".join(lines), offsets=offsets, scope=(), remappings=(), pragmas=pragmas)


# --- parser ------------------------------------------------------------------


def test_mask_preserves_length_and_lines():
    text = 'contract C { // comment with "brace {"\n  string s = "}{"; /* multi\nline */ }'
    masked = mask_noncode(text)
    assert len(masked) == len(text)
    assert masked.count("\n") == text.count("\n")
    assert "{" in masked and "comment" not in masked and "}{" not in masked


def test_parse_modifier_guard_writes():
    src = _source_from_text(
        "pragma solidity ^0.8.0;\n"
        "contract C {\n"
        "    address public owner;\n"
        "    modifier onlyOwner() { require(msg.sender == owner, \"x\"); _; }\n"
        "    function setOwner(address o) external onlyOwner {\n"
        "        owner = o;\n"
        "    }\n"
        "}\n"
    )
    records = parse_function_records(src)
    assert len(records) == 1
    rec = records[0]
    assert rec.vis == "external"
    assert rec.modifiers == ("onlyOwner",)
    assert rec.writes == {"owner"}
    assert rec.reads == set()
    assert not rec.fund_flag
    assert "msg.sender==owner" in rec.guards
    assert rec.pragma_ge_08


def test_bodiless_modifier_takes_no_guards():
    text = ("abstract contract A {\n"
            "    modifier onlyOwner() virtual;\n"
            "    function f(uint x) external { require(x > 10); }\n"
            "    function g() external onlyOwner { }\n"
            "    modifier bounded(uint y) { require(y < 5); _; }\n"
            "}\n")
    assert parse_source(text).decls[0].modifier_guards == {"bounded": ["y<5"]}
    g = [r for r in parse_function_records(_source_from_text(text)) if r.name == "g"]
    assert g[0].guards == ()


def test_revert_guards_guard_the_function():
    # `if (c) revert …;` and `if (c) { revert …; }` at the body's top level,
    # before any effect that changes state, are guards on c negated
    text = ("contract C {\n"
            "    address public owner;\n    uint256 public x;\n    bool public paused;\n"
            "    error NotOwner();\n"
            "    function f() external { if (msg.sender != owner) revert NotOwner(); x = 1; }\n"
            "    function g() external {\n        if (msg.sender != owner) { revert(\"no\"); }\n"
            "        x = 2;\n    }\n"
            "    function h(uint256 a) external {\n"
            "        if (a > 9 || paused) revert();\n        if (!paused) revert();\n    }\n"
            "    function late() external { x = 3; if (msg.sender != owner) revert NotOwner(); }\n"
            "    function nested() external {\n"
            "        if (x > 0) { if (msg.sender != owner) revert(); }\n        x = 4;\n    }\n"
            "    function braceless() external {\n"
            "        if (x > 0) if (msg.sender != owner) revert();\n        x = 7;\n    }\n"
            "    function other() external {\n"
            "        if (x > 0) { } else if (msg.sender != owner) revert();\n"
            "        x = 5;\n    }\n"
            "    modifier onlyOwner() { if (owner != msg.sender) revert NotOwner(); _; }\n"
            "    function viaModifier() external onlyOwner { x = 6; }\n"
            "}\n")
    records = {r.name: r for r in parse_function_records(_source_from_text(text))}
    assert records["f"].guards == records["g"].guards == ("msg.sender==owner",)
    assert records["h"].guards == ("!(a>9||paused)", "paused")
    assert records["late"].guards == records["nested"].guards == records["other"].guards == ()
    assert records["braceless"].guards == ()
    assert records["viaModifier"].guards == ("owner==msg.sender",)
    assert classify_admin(list(records.values())) == {("C", "f"), ("C", "g"), ("C", "viaModifier")}
    # the guard is a `require` effect at its `if`, which stage 1 cites
    [(pos, name)] = [(pos, name) for pos, kind, name in records["g"].effects if kind == "require"]
    assert (text[pos:pos + 2], name) == ("if", "msg.sender==owner")


def test_a_require_in_a_branch_or_loop_guards_no_function():
    # a `require` guards the function only at the top level of its body or
    # modifier, and not as the brace-less body of an `if`, `else` or loop
    text = ("contract C {\n"
            "    address public owner;\n    uint256 public fee;\n    bool public locked;\n"
            "    function setFee(uint256 f) external {\n"
            "        if (locked) { require(msg.sender == owner); }\n        fee = f;\n    }\n"
            "    function setFee2(uint256 f) external {\n"
            "        if (locked) require(msg.sender == owner);\n        fee = f;\n    }\n"
            "    function setFee3(uint256 f) external {\n"
            "        if (locked) { fee = 1; } else { require(msg.sender == owner); }\n"
            "        fee = f;\n    }\n"
            "    function setFee4(uint256 f) external {\n"
            "        if (locked) fee = 1;\n        else require(msg.sender == owner);\n"
            "        fee = f;\n    }\n"
            "    function setFee5(uint256 f) external {\n"
            "        for (uint256 i = 0; i < f; i++) { require(msg.sender == owner); }\n"
            "        fee = f;\n    }\n"
            "    function setFee6(uint256 f) external {\n"
            "        while (locked) require(msg.sender == owner);\n        fee = f;\n    }\n"
            "    modifier onlyIfLocked() { if (locked) { require(msg.sender == owner); } _; }\n"
            "    function setFee7(uint256 f) external onlyIfLocked { fee = f; }\n"
            "    modifier onlyOwner() { require(msg.sender == owner); _; }\n"
            "    function guarded(uint256 f) external onlyOwner { fee = f; }\n"
            "    function checked(uint256 f) external {\n"
            "        require(msg.sender == owner);\n        if (locked) { fee = 1; }\n"
            "        fee = f;\n    }\n"
            # the loop ends at its brace-less `assembly` body's `}`
            "    function afterLoop(uint256 f) external {\n"
            "        for (uint256 i = 0; i < f; i++) assembly { }\n"
            "        require(msg.sender == owner);\n        fee = f;\n    }\n"
            "}\n")
    records = {r.name: r for r in parse_function_records(_source_from_text(text))}
    for name in ("setFee", "setFee2", "setFee3", "setFee4", "setFee5", "setFee6", "setFee7"):
        assert records[name].guards == (), name
        assert not [e for e in records[name].effects if e[1] == "require"], name
    assert records["guarded"].guards == records["checked"].guards == records["afterLoop"].guards \
        == ("msg.sender==owner",)
    assert classify_admin(list(records.values())) == \
        {("C", "guarded"), ("C", "checked"), ("C", "afterLoop")}


@pytest.mark.parametrize("opener", ["unchecked {", "{"], ids=["unchecked", "bare"])
def test_a_guard_in_a_block_that_always_runs_guards_the_function(opener):
    # an `unchecked` or a bare block runs whenever the body does, so a
    # `require` or an `if (c) revert` in it guards the function; only the `{`
    # of an `if`, `else`, loop, `try` or `catch` body hides a guard
    text = ("contract C {\n"
            "    address public owner;\n    uint256 public fee;\n    bool public locked;\n"
            "    function setFee(uint256 f) external {\n"
            f"        {opener} require(msg.sender == owner); }}\n        fee = f;\n    }}\n"
            "    function setCap(uint256 f) external {\n"
            f"        {opener} {{ if (msg.sender != owner) revert(); }} }}\n        fee = f;\n    }}\n"
            "    function setLocked(uint256 f) external {\n"
            f"        if (locked) {{ {opener} require(msg.sender == owner); }} }}\n"
            "        fee = f;\n    }\n"
            "    function setFlag(uint256 f) external {\n"
            "        if (locked) { require(msg.sender == owner); }\n        fee = f;\n    }\n"
            "}\n")
    records = {r.name: r for r in parse_function_records(_source_from_text(text))}
    assert records["setFee"].guards == records["setCap"].guards == ("msg.sender==owner",)
    assert records["setLocked"].guards == records["setFlag"].guards == ()
    assert classify_admin(list(records.values())) == {("C", "setFee"), ("C", "setCap")}


def test_a_failed_body_pass_keeps_only_the_mask_s_unchecked_block(monkeypatch, caplog):
    # a degraded record claims no use, guard or fund move, and keeps the
    # `unchecked` block the mask shows, so that stage 1 refutes no overflow
    def fail(*args):
        raise ValueError("no pass")
    monkeypatch.setattr("solaudit.ccim.parse.scan_body", fail)
    text = ("contract C {\n    uint256 public x;\n    function f() external {\n"
            "        require(msg.sender == address(0));\n        unchecked { x += 1; }\n"
            "        payable(msg.sender).transfer(1);\n    }\n}\n")
    [rec] = parse_function_records(_source_from_text(text))
    assert "emitting degraded record" in caplog.text
    assert (rec.effects, rec.guards, rec.writes, rec.fund_flag, rec.unchecked) == \
        ((), (), frozenset(), False, True)


def test_parse_sweep_fund_flag():
    src = _source_from_text(
        "contract C {\n"
        "    function sweep() external {\n"
        "        payable(msg.sender).transfer(address(this).balance);\n"
        "    }\n"
        "}\n"
    )
    rec = parse_function_records(src)[0]
    assert rec.fund_flag
    assert rec.writes == frozenset()


def test_parse_empty_source():
    assert parse_function_records(_source_from_text("")) == []


def test_parse_params_and_locals_shadowing():
    src = _source_from_text(
        "contract C {\n"
        "    uint256 public stock;\n"
        "    function f(uint256 stock_, address who) external returns (uint256) {\n"
        "        uint256 local = stock_ + 1;\n"
        "        stock = local;\n"
        "        return stock;\n"
        "    }\n"
        "}\n"
    )
    rec = parse_function_records(src)[0]
    assert rec.params == ("stock_", "who")
    assert rec.writes == {"stock"}
    assert rec.reads == {"stock"}


def _fee_uses(body: str) -> tuple[set[str], set[str]]:
    """(reads, writes) of `g(uint256 f, bool x)` with `body`, in a contract
    whose state is `fee` and the mapping `pos`."""
    src = _source_from_text("contract C {\n    uint256 public fee;\n"
                            "    mapping(uint256 => uint256) public pos;\n"
                            f"    function g(uint256 f, bool x) external {{\n        {body}\n    }}\n}}\n")
    [rec] = parse_function_records(src)
    return set(rec.reads), set(rec.writes)


@pytest.mark.parametrize("body, reads, writes", [
    # a local shadows state from its declaration to the end of its block
    ("if (x) { uint256 fee = 1; f += fee; } fee = f;", set(), {"fee"}),
    ("fee = f; { uint256 fee = 2; }", set(), {"fee"}),
    ("for (uint256 i = 0; i < f; i++) { uint256 fee = f; } fee = f;", set(), {"fee"}),
    ("uint256 g = fee; uint256 fee = f;", {"fee"}, set()),
    ("{ uint256 fee = f; fee += 1; }", set(), set()),
    # a `delete` or a prefix `++` writes the state after it, across a
    # comment or a line break
    ("delete /* reset */ fee;", set(), {"fee"}),
    ("delete\n            pos[1];", set(), {"pos"}),
    ("++ /* bump */ fee;", {"fee"}, {"fee"}),
    # a `for` header's local shadows state in the loop alone, braced or not
    ("for (uint256 fee = 0; fee < f; fee++) { } fee = f;", set(), {"fee"}),
    ("for (uint256 fee = 0; fee < f; fee++) { fee += 1; }", set(), set()),
    ("for (uint256 fee = 0; fee < f; fee++) if (x) f += fee; else f -= fee; fee = f;",
     set(), {"fee"}),
    ("for (uint256 fee = 0; fee < f; fee++) assembly { } fee = f;", set(), {"fee"}),
    ("for (uint256 fee = 0; fee < f; ) try p.q() { } catch { fee = 1; } fee = f;", set(), {"fee"}),
    ("for (uint256 fee = 0; fee < f; ) do fee++; while (fee < f); fee = f;", set(), {"fee"}),
])
def test_shadowing_is_per_block_and_writes_read_past_whitespace(body, reads, writes):
    assert _fee_uses(body) == (reads, writes)


def test_parse_compound_and_index_writes():
    src = _source_from_text(
        "contract C {\n"
        "    mapping(address => uint256) public balances;\n"
        "    uint256[] public history;\n"
        "    uint256 public count;\n"
        "    function f(address a, uint256 x) external {\n"
        "        balances[a] += x;\n"
        "        history.push(x);\n"
        "        count++;\n"
        "        delete balances[a];\n"
        "    }\n"
        "    function g(address a) external view returns (uint256) {\n"
        "        if (balances[a] == 0) { return count; }\n"
        "        return balances[a];\n"
        "    }\n"
        "}\n"
    )
    f, g = parse_function_records(src)
    assert f.writes == {"balances", "history", "count"}
    assert "count" in f.reads  # ++ reads and writes
    assert g.writes == frozenset()
    assert g.reads == {"balances", "count"}


def test_one_line_state_declarations_each_declare():
    src = _source_from_text(
        "contract C {\n"
        "    uint256 public a; uint256 public b;\n"
        "    function setB(uint256 x) external { b = x; }\n"
        "}\n")
    [set_b] = parse_function_records(src)
    assert set_b.writes == {"b"}
    [decl] = parse_source(src.text).decls
    assert [(v.name, v.line) for v in decl.state_vars] == [("a", 2), ("b", 2)]


def test_parse_receive_and_interface_function():
    src = _source_from_text(
        "interface IX { function poke(uint256 n) external; }\n"
        "contract C {\n"
        "    receive() external payable {}\n"
        "}\n"
    )
    records = {r.key: r for r in parse_function_records(src)}
    assert records[("IX", "poke")].vis == "external"
    assert not records[("IX", "poke")].has_body
    assert records[("C", "receive")].mut == "payable"


@pytest.mark.parametrize("header, mut", [
    ("function ret() external returns (address payable)", "nonpayable"),
    ("function ret() external payable returns (address payable)", "payable"),
    ("function ret() external view returns (address payable)", "view"),
])
def test_mutability_ignores_the_return_list(header, mut):
    src = _source_from_text(f"contract C {{\n    {header} {{}}\n}}\n")
    [record] = parse_function_records(src)
    assert record.mut == mut


def test_yul_function_is_no_internal_callee():
    src = _source_from_text(
        "contract C {\n"
        "    function g(uint256 x) external pure returns (uint256 r) {\n"
        "        assembly {\n"
        "            function double(v) -> w { w := add(v, v) }\n"
        "            r := double(x)\n"
        "        }\n"
        "    }\n"
        "}\n")
    [g] = parse_function_records(src)
    assert g.name == "g"
    assert g.internal_calls == frozenset()


def test_parse_natspec_and_signature():
    src = _source_from_text(
        "contract C {\n"
        "    /// @notice does the thing\n"
        "    function thing(uint256 n) external pure returns (uint256) {\n"
        "        return n;\n"
        "    }\n"
        "}\n"
    )
    rec = parse_function_records(src)[0]
    assert "@notice does the thing" in rec.natspec
    assert rec.signature.startswith("function thing(uint256 n)")
    assert "{" not in rec.signature


def test_unbalanced_brace_recovery(caplog):
    src = _source_from_text(
        "contract C {\n"
        "    uint256 public v;\n"
        "    function ok() external { v = 1; }\n"
        "}\n"
        "contract D {\n"
        "    uint256 public w;\n"
        "    function alsoOk() external { w = 2; }\n"
        "}\n"
    )
    records = parse_function_records(src)
    assert {(r.owner, r.name) for r in records} == {("C", "ok"), ("D", "alsoOk")}


def test_normalize_predicate():
    assert normalize_predicate("msg.sender ==  owner") == "msg.sender==owner"
    assert normalize_predicate("amount > 0") == normalize_predicate("amount>0")


# --- resolution and call graph ----------------------------------------------


def test_resolution_single_implementer(models):
    ccim = models["vault_oracle"]
    assert ccim.resolution.resolve("Vault.oracle") == "ChainOracle"
    assert ccim.resolution.resolve("Vault.owner") is None  # address type


def test_resolution_ambiguous(models):
    ccim = models["ambiguous"]
    assert ccim.resolution.resolve("Consumer.feed") is None
    assert ccim.graph.edges == frozenset()


def test_resolution_concrete_type_resolves_to_itself(models):
    ccim = models["bidirectional"]
    assert ccim.resolution.resolve("Hub.spoke") == "Spoke"
    assert ccim.resolution.resolve("Spoke.hub") == "Hub"


def test_call_graph_edge(models):
    ccim = models["vault_oracle"]
    assert ((("Vault", "withdraw"), ("ChainOracle", "latestPrice"))
            in ccim.graph.edges)
    assert ("Vault", "ChainOracle") in ccim.graph.contract_edges


def test_call_graph_no_edges_without_call_sites(models):
    assert models["guards_majority"].graph.edges == frozenset()


def test_bidirectional_contract_edges(models):
    ccim = models["bidirectional"]
    assert ("Hub", "Spoke") in ccim.graph.contract_edges
    assert ("Spoke", "Hub") in ccim.graph.contract_edges


@pytest.mark.parametrize("repo", sorted(REPOS))
def test_indexes_match_linear_scans(models, repo):
    ccim = models[repo]
    for key in {r.key for r in ccim.records} | {k for edge in ccim.graph.edges for k in edge}:
        assert ccim.graph.callees(key) == {g for f, g in ccim.graph.edges if f == key}
        assert ccim.graph.callers(key) == {f for f, g in ccim.graph.edges if g == key}
        assert ccim.graph.touches(key) == any(key in edge for edge in ccim.graph.edges)
        assert ccim.records_of([key]) == [r for r in ccim.records if r.key == key]
    for contract in {r.owner for r in ccim.records} | {"NoSuchContract"}:
        assert list(ccim.owned(contract)) == [r for r in ccim.records if r.owner == contract]


def test_resolution_miss_logged(caplog, tmp_path):
    (tmp_path / "m.sol").write_text(
        "pragma solidity ^0.8.0;\n"
        "contract Callee { function exists() external {} }\n"
        "contract Caller {\n"
        "    Callee public callee;\n"
        "    function go() external { callee.missing(); }\n"
        "}\n"
    )
    with caplog.at_level("INFO"):
        ccim = assemble_ccim(build_audit_source(classify_files(tmp_path)))
    assert ccim.graph.edges == frozenset()
    assert "resolution miss" in caplog.text


# --- footprints: oracle equivalence -----------------------------------------


def test_footprints_match_brute_force_everywhere(models):
    for name, ccim in models.items():
        reads, writes, fund = brute_force_footprints(list(ccim.records))
        assert ccim.footprints.reads == reads, name
        assert ccim.footprints.writes == writes, name
        assert ccim.footprints.fund == fund, name


def test_footprint_transitive_write(models):
    ccim = models["vault_oracle"]
    assert "totalSupply" in ccim.footprints.writes[("Vault", "withdraw")]
    assert "totalSupply" in ccim.footprints.writes[("Vault", "deposit")]


def test_footprint_base_case(models):
    ccim = models["vault_oracle"]
    rec = ccim.records_of([("ChainOracle", "setPrice")])[0]
    assert ccim.footprints.writes[rec.key] == rec.writes
    assert ccim.footprints.reads[rec.key] == rec.reads
    assert ccim.footprints.fund[rec.key] == rec.fund_flag


def test_footprint_cycle_terminates_and_propagates(models):
    ccim = models["cycle"]
    assert ccim.footprints.fund[("PingPong", "ping")]
    assert ccim.footprints.fund[("PingPong", "pong")]
    assert ccim.footprints.writes[("PingPong", "ping")] == {"counter", "drained"}
    assert not ccim.footprints.fund[("PingPong", "idle")]


def test_footprint_monotonicity_under_added_call(tmp_path):
    base = (
        "pragma solidity ^0.8.0;\n"
        "contract M {\n"
        "    uint256 public a;\n"
        "    uint256 public b;\n"
        "    function entry() external { a = 1; %s }\n"
        "    function helper() public { b = 2; }\n"
        "}\n"
    )
    without = tmp_path / "without"
    with_call = tmp_path / "with"
    for root, text in ((without, base % ""), (with_call, base % "helper();")):
        (root / "src").mkdir(parents=True)
        (root / "src" / "M.sol").write_text(text)
    small = assemble_ccim(build_audit_source(classify_files(without)))
    big = assemble_ccim(build_audit_source(classify_files(with_call)))
    key = ("M", "entry")
    assert small.footprints.writes[key] <= big.footprints.writes[key]
    assert small.footprints.reads[key] <= big.footprints.reads[key]
    assert (not small.footprints.fund[key]) or big.footprints.fund[key]


# --- dependency map, admin, rotation ----------------------------------------


def test_state_dependency_counts(models):
    ccim = models["guards_majority"]
    assert len(ccim.deps.writers["Ledger.balances"]) >= 3
    writers = {n for _, n in ccim.deps.writers["Ledger.balances"]}
    assert {"allocate", "release", "settle", "adjust"} <= writers


def test_approvals_recipient(models):
    ccim = models["approvals"]
    assert ccim.deps.approvals[("Allowances", "grant")] == {"Allowances.spender"}
    assert ("Allowances", "grant") in ccim.deps.consumers["Allowances.spender"]


def test_unconsumed_variable_has_no_uses(models):
    ccim = models["vault_oracle"]
    assert "Vault.totalSupply" not in ccim.deps.consumers


def test_admin_classification(models):
    ccim = models["vault_oracle"]
    assert ccim.is_admin(("Vault", "setOracle"))
    assert ccim.is_admin(("Vault", "sweep"))
    assert not ccim.is_admin(("Vault", "withdraw"))
    # require-shape without a modifier counts too
    assert ccim.is_admin(("Treasury", "setAdmin"))


def test_rotation_risk_biconditional_brute_force(models):
    for name, ccim in models.items():
        assert set(ccim.deps.rot) == brute_force_rot(ccim), name


def test_rotation_canonical_case(models):
    assert "Vault.oracle" in models["vault_oracle"].deps.rot
    # admin-settable but never consumed: admin rotates itself, no call target
    assert "Treasury.admin" not in models["vault_oracle"].deps.rot
    # consumed but not admin-written: price written by open setPrice
    assert "ChainOracle.price" not in models["vault_oracle"].deps.rot


# --- trust model --------------------------------------------------------------


def test_callback_detection(models):
    ccim = models["bidirectional"]
    assert ("Hub", "Spoke") in ccim.trust.callbacks


def test_callbacks_match_brute_force(models):
    for name, ccim in models.items():
        assert set(ccim.trust.callbacks) == brute_force_callbacks(ccim), name


def test_trustgap_biconditional(models):
    for name, ccim in models.items():
        assert set(ccim.trust.trustgap) == brute_force_trustgap(ccim), name


def test_trustgap_cases(models):
    ccim = models["bidirectional"]
    # Spoke assumes Hub's return post-condition; Hub enforces nothing
    assert ("Spoke", "Hub") in ccim.trust.trustgap
    # Hub -> Spoke: notify has no return/emit, empty assumption set
    assert ("Hub", "Spoke") not in ccim.trust.trustgap


# --- assembly and serialization ----------------------------------------------


def test_a_contract_two_files_declare_is_one_contract(tmp_path):
    # each declaration keeps its own state in the parse; the name's visible
    # state is the union of both, the first declaration's first
    for rel, own, second in (("a/A.sol", "uint256 public a;\n    address public x;",
                              "function f() external { a = 1; x = msg.sender; }"),
                             ("b/B.sol", "uint256 public b;\n    uint256 public x;",
                              "function g() external view returns (uint256) { return b / 0; }")):
        (tmp_path / rel).parent.mkdir()
        (tmp_path / rel).write_text(
            f"pragma solidity ^0.8.0;\ncontract Vault {{\n    {own}\n    {second}\n}}\n")
    ccim = assemble_ccim(build_audit_source(classify_files(tmp_path)))
    assert ccim.scope == ("Vault",)
    f, g = ccim.records
    assert (f.writes, f.reads, g.reads) == ({"a", "x"}, set(), {"b"})
    res = ccim.resolution
    assert res.var_origin == {("Vault", "a"): "Vault.a", ("Vault", "x"): "Vault.x",
                              ("Vault", "b"): "Vault.b"}
    assert res.type_map == {"Vault.a": "uint256", "Vault.x": "address", "Vault.b": "uint256"}
    # BVA examines the contract once: one literal division, one signal
    assert [s.id for s in run_bva(ccim)].count("bva-division-by-zero") == 1


def test_a_contract_two_files_declare_inherits_every_declaration_s_bases(tmp_path):
    # the bases are the union of the declarations', the first declaration's
    # first: the second file's bare `Vault` hides no state of `Base`
    for rel, text in (("a/A.sol", "contract Base {\n    uint256 public cap;\n}\n"
                                  "contract Vault is Base {\n"
                                  "    function f() external { cap = 1; }\n}\n"),
                      ("b/B.sol", "contract Vault {\n    function g() external {}\n}\n")):
        (tmp_path / rel).parent.mkdir()
        (tmp_path / rel).write_text("pragma solidity ^0.8.0;\n" + text)
    ccim = assemble_ccim(build_audit_source(classify_files(tmp_path)))
    assert ccim.parsed.lineage["Vault"] == ("Base",)
    [f] = ccim.records_of([("Vault", "f")])
    assert f.writes == {"cap"}
    assert ccim.deps.writers["Base.cap"] == {("Vault", "f")}
    assert ("Base", "Vault") in ccim.resolution.inheritance


def test_an_ancestor_two_files_declare_lends_every_declaration_s_state(tmp_path):
    # `Base` is declared in both files: `Vault` sees the state of each
    for rel, text in (("a/A.sol", "contract Base {\n    uint256 public cap;\n}\n"
                                  "contract Vault is Base {\n"
                                  "    function f() external { cap = 1; limit = 2; }\n}\n"),
                      ("b/B.sol", "contract Base {\n    uint256 public limit;\n}\n")):
        (tmp_path / rel).parent.mkdir()
        (tmp_path / rel).write_text("pragma solidity ^0.8.0;\n" + text)
    ccim = assemble_ccim(build_audit_source(classify_files(tmp_path)))
    [f] = ccim.records_of([("Vault", "f")])
    assert f.writes == {"cap", "limit"}
    assert ccim.deps.writers["Base.cap"] == ccim.deps.writers["Base.limit"] == {("Vault", "f")}


def test_empty_source_model():
    ccim = assemble_ccim(_source_from_text(""))
    assert ccim.records == ()
    assert ccim.graph.edges == frozenset()
    assert ccim.deps.rot == frozenset()


def test_serialization_deterministic(sources):
    a = ccim_to_json(assemble_ccim(sources["vault_oracle"]))
    b = ccim_to_json(assemble_ccim(sources["vault_oracle"]))
    assert a == b


def test_serialization_stable_against_golden(models, tmp_path):
    # structure sanity: round-trips as JSON and keeps the top-level sections
    doc = json.loads(ccim_to_json(models["vault_oracle"]))
    assert set(doc) == {"records", "resolution", "graph", "footprints", "deps",
                        "trust", "admin", "scope"}
    assert doc["deps"]["rot"] == ["Vault.oracle"]
    assert doc["graph"]["edges"] == ["Vault.withdraw -> ChainOracle.latestPrice"]


# strings with non-ASCII, control, astral and lone surrogate characters
_JSON_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                               st.sampled_from('\x00\x1f\x7f"\\/\u00e9\u2028\ud800\U0001f600')))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _JSON_TEXT,
    st.integers(), st.integers(2 ** 64, 2 ** 200), st.integers(-2 ** 200, -2 ** 64),
    st.floats(), st.sampled_from([-0.0, 1e16, 5e-324, float("nan"), float("inf"), float("-inf")]))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_JSON_TEXT, inner, max_size=4)), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
@example({"b": [], "a": {}, "c": (), "": [{}, [[]]]})
def test_canonical_json_is_the_indented_sorted_dump(value):
    assert canonical_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1: "a"}, [set()], {"a": b"x"}, object(),
                                   [type("Text", (str,), {})("x")]])
def test_canonical_json_rejects_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        canonical_json(value)


GOLDEN_CCIM = Path(__file__).parent / "golden" / "ccim"


@pytest.mark.parametrize("repo", sorted(REPOS))
def test_ccim_json_matches_golden(models, repo):
    # byte-for-byte pin of the whole model; regenerate only for an intended change
    golden = (GOLDEN_CCIM / f"{repo}.json").read_text(encoding="utf-8")
    assert ccim_to_json(models[repo]) + "\n" == golden


def test_edge_actionability(models):
    for name, ccim in models.items():
        declared = {r.key for r in ccim.records}
        for f, g in ccim.graph.edges:
            assert g in declared, name
            resolved = {ccim.resolution.resolve(ccim.resolution.var_id(rec.owner, s.target))
                        for rec in ccim.records_of([f]) for s in rec.call_sites}
            assert g[0] in resolved, name
