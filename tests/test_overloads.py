"""Overloaded functions: a function key `(owner, name)` stands for every
overload, so a structural fact of the key holds over all of them. Probes of
the facts a single chosen overload used to answer for, and a metamorphic
check that adding a `view` overload never takes anything away."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from corpus import REPOS, write_repo
from helpers import make_finding
from test_interaction import OVERLOADED

from solaudit import cli
from solaudit.ccim import CcimModel, assemble_ccim
from solaudit.ccim.parse import parse_source
from solaudit.coverage import attention_residual, blindspot_prompts, key_risks
from solaudit.dossier import _member_blocks, build_phase_c_interactions, phase_d_prefilter
from solaudit.funnel import deterministically_refuted, stage1_verify, sve_layer1
from solaudit.ingest import build_audit_source, classify_files, resolve_remappings


def _model(repo: dict[str, str], root: Path) -> CcimModel:
    write_repo(repo, root)
    return assemble_ccim(build_audit_source(classify_files(root), None, resolve_remappings(root)))


def _overloads(ccim: CcimModel, key) -> list:
    # a linear scan, independent of the model's own index
    return [r for r in ccim.records if r.key == key]


# a writing, fund-moving overload declared before a view overload
WRITE_THEN_VIEW = {"src/A.sol": (
    "pragma solidity ^0.8.19;\n"
    "contract A {\n"
    "    uint256 public x;\n"
    "    function f(uint256 a) external { x = a; payable(msg.sender).transfer(a); }\n"
    "    function f(address a) external view returns (bool) { return a == msg.sender; }\n"
    "    function g() external { x = 1; }\n"
    "    function h() external { x = 2; }\n"
    "}\n")}


def test_view_overload_keeps_the_writing_overloads_facts(tmp_path):
    ccim = _model(WRITE_THEN_VIEW, tmp_path / "repo")
    f = ("A", "f")
    writing, view = _overloads(ccim, f)
    assert view.mut == "view"
    assert ccim.footprints.writes[f] == {"x"}
    assert ccim.footprints.fund[f]
    assert ccim.deps.writers["A.x"] == {f, ("A", "g"), ("A", "h")}
    [review] = [g for g in build_phase_c_interactions(ccim, _member_blocks(ccim), key_risks(ccim))
                if g.subject == "A.x"]
    assert f in review.members
    # claims citing the writing overload survive the view/pure and
    # fund-movement checks
    for description in ("an attacker can corrupt x into an inconsistent state",
                        "an attacker can drain the contract and steal its ether"):
        finding = make_finding(description=description, functions=[f], lines=(writing.src[0],))
        assert sve_layer1(finding, ccim).verdict == "PASSED", description


def test_evidence_in_any_overload_is_inside_the_span(tmp_path):
    ccim = _model(OVERLOADED, tmp_path / "repo")
    first = _overloads(ccim, ("Twin", "deposit"))[0]
    assert first.src == (5, 5)
    finding = make_finding(description="deposit credits the wrong account",
                           functions=[("Twin", "deposit")], lines=(5,))
    assert sve_layer1(finding, ccim).verdict == "PASSED"
    assert not deterministically_refuted(finding, ccim)


# a role-guarded overload beside an unguarded one, in either order
GUARDED = "    function setFee(uint256 v, bool b) external onlyOwner { fee = v; on = b; }\n"
UNGUARDED = "    function setFee(uint256 v) external { fee = v; }\n"


def _fee_repo(*functions: str) -> dict[str, str]:
    return {"src/A.sol": (
        "pragma solidity ^0.8.19;\n"
        "contract A {\n"
        "    address public owner;\n"
        "    uint256 public fee;\n"
        "    bool public on;\n"
        "    modifier onlyOwner() { require(msg.sender == owner, \"owner\"); _; }\n"
        + "".join(functions) + "}\n")}


_OPEN_SETTER = "missing access control: anyone can call setFee and set any fee"


@pytest.mark.parametrize("order", [(GUARDED, UNGUARDED), (UNGUARDED, GUARDED)],
                         ids=["unguarded-last", "guarded-last"])
def test_one_unguarded_overload_leaves_the_function_open(tmp_path, order):
    ccim = _model(_fee_repo(*order), tmp_path / "repo")
    assert not ccim.is_admin(("A", "setFee"))
    finding = make_finding(description=_OPEN_SETTER, functions=[("A", "setFee")])
    assert stage1_verify(finding, ccim).verdict == "PASSED"
    assert phase_d_prefilter(finding, ccim) is None and "admin-trust" not in finding.flags
    assert not deterministically_refuted(finding, ccim)


def test_blindspot_finding_on_an_open_overload_reaches_the_report(tmp_path):
    root = write_repo(_fee_repo(GUARDED, UNGUARDED), tmp_path / "repo")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"responses": [{"stage": "blindspot", "response": {"findings": [
        {"title": "Anyone sets the fee", "description": _OPEN_SETTER, "severity": "HIGH",
         "functions": ["A.setFee"]}]}}]}), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["--path", str(root), "--out", str(out), "--mock-script", str(script)])
    assert code == cli.EXIT_FINDINGS
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    [found] = [f for f in report["findings"] if f["title"] == "Anyone sets the fee"]
    # the citation covers both overloads
    assert [c["lines"] for c in found["citations"] if "function" in c] == [[7, 7], [8, 8]]


def test_blindspot_prompt_shows_every_overload(tmp_path):
    ccim = _model(_fee_repo(GUARDED, UNGUARDED), tmp_path / "repo")
    [(ids, prompt)] = blindspot_prompts(attention_residual(ccim, key_risks(ccim), set(), ""), ccim)
    assert ids == {"B1": ("A", "setFee")}
    assert prompt.count("// A.setFee\n") == 1
    assert GUARDED.strip() in prompt and UNGUARDED.strip() in prompt


# --- metamorphic: adding a view overload takes nothing away ----------------

# one claim per class, each citing a line of the function's original body
CLAIMS = {
    "reentrancy": "reentrancy: the caller re-enters {name} before its state is settled",
    "overflow": "integer overflow in {name} wraps the counter",
    "access-control": "missing access control: anyone can call {name}",
    "fund-theft": "an attacker can drain the contract and steal funds through {name}",
    "state-corruption": "{name} can corrupt the bookkeeping into an inconsistent state",
    "external-call": "the external call in {name} hands control to the callee",
}


def _with_view_overload(repo: dict[str, str], owner: str, name: str) -> dict[str, str]:
    """`repo` with a `view` overload of `owner.name`, of a parameter list no
    other overload has, appended to the body of contract `owner`."""
    overload = (f"    function {name}(uint256 freshOverloadArg, bytes32 freshOverloadTag) "
                f"external view returns (uint256) {{ return freshOverloadArg; }}\n")
    out = dict(repo)
    for path, text in repo.items():
        decl = next((d for d in parse_source(text).decls if d.name == owner), None)
        if decl is not None:
            out[path] = text[:decl.close_pos] + overload + text[decl.close_pos:]
            return out
    raise AssertionError(f"no declaration of {owner}")


def _var_sets(ccim: CcimModel, key) -> tuple[set, set]:
    return ({v for v, ws in ccim.deps.writers.items() if key in ws},
            {v for v, rs in ccim.deps.readers.items() if key in rs})


@pytest.mark.parametrize("repo", sorted(REPOS))
def test_adding_a_view_overload_takes_nothing_away(models, repo, tmp_path):
    ccim = models[repo]
    kinds = ccim.resolution.kinds
    keys = sorted({r.key for r in ccim.records
                   if kinds.get(r.owner) in ("contract", "abstract", "library") and "{" in r.body
                   and r.name not in ("constructor", "receive", "fallback")})
    assert keys
    for n, key in enumerate(keys):
        grown = _model(_with_view_overload(REPOS[repo], *key), tmp_path / str(n))
        assert len(_overloads(grown, key)) == len(_overloads(ccim, key)) + 1, key
        assert ccim.footprints.reads[key] <= grown.footprints.reads[key], key
        assert ccim.footprints.writes[key] <= grown.footprints.writes[key], key
        assert ccim.footprints.fund[key] <= grown.footprints.fund[key], key
        writes, reads = _var_sets(ccim, key)
        grown_writes, grown_reads = _var_sets(grown, key)
        assert writes <= grown_writes and reads <= grown_reads, key
        line = _overloads(ccim, key)[0].src[0]
        for claim, text in CLAIMS.items():
            finding = make_finding(description=text.format(name=key[1]), functions=[key],
                                   lines=(line,))
            if not deterministically_refuted(finding, ccim):
                assert not deterministically_refuted(finding, grown), (key, claim)
