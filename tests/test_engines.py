from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solaudit.engines import (
    COUNTER_STEMS,
    Signal,
    counter_pairs,
    ingest_external,
    merge_signals,
    render_markdown,
    run_bpm,
    run_bva,
    run_cir,
    run_engines,
    run_ira,
    run_itpc_lite,
    run_pattern_detectors,
)
from solaudit.findings import SEVERITY_RANK
from solaudit.ingest import map_line


def _ids(signals):
    return [s.id for s in signals]


# --- BVA ----------------------------------------------------------------------


def test_bva_locked_ether(models):
    signals = run_bva(models["locked_ether"])
    locked = [s for s in signals if s.id == "bva-locked-ether"]
    assert len(locked) == 1
    assert locked[0].function == ("Locker", "receive")


def test_bva_formula_mismatch(models):
    signals = run_bva(models["formula_pair"])
    mism = [s for s in signals if s.id == "bva-formula-mismatch"]
    assert len(mism) == 1
    assert mism[0].function[0] == "Pricer"  # ConsistentPricer stays clean


def test_bva_pairs_only_records_with_a_formula(models, deep_model, monkeypatch):
    from solaudit.engines import bva
    compared = []

    def counting(records):
        pairs = counter_pairs(records)
        compared.append(len(pairs))
        return pairs

    monkeypatch.setattr(bva, "counter_pairs", counting)
    # no record of the `deep` shape has a mul/div formula: 2,400 record
    # pairs were compared while every record was paired
    bva._sub_formula_mismatch(deep_model[0])
    assert sum(compared) == 0
    # a true mismatch is still paired and flagged
    compared.clear()
    mism = bva._sub_formula_mismatch(models["formula_pair"])
    assert sum(compared) > 0 and [s.function[0] for s in mism] == ["Pricer"]


_MISMATCHING_DEPOSIT = ("    function deposit(uint256 a) external {\n"
                        "        total += a * price / 1e18;\n"
                        "    }\n")
_MATCHING_DEPOSIT = ("    function deposit(uint256 a, address to) external {\n"
                     "        total += a / 1e18 * price;\n"
                     "    }\n")


@pytest.mark.parametrize("mismatch_first", [True, False])
def test_bva_formula_mismatch_checks_every_overload(tmp_path, mismatch_first):
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import build_audit_source, classify_files
    deposits = [_MISMATCHING_DEPOSIT, _MATCHING_DEPOSIT]
    if not mismatch_first:
        deposits.reverse()
    text = ("pragma solidity ^0.8.0;\n"
            "contract C {\n"
            "    uint256 public price;\n"
            "    uint256 public total;\n"
            + "".join(deposits)
            + "    function withdraw(uint256 a) external {\n"
              "        total -= a / 1e18 * price;\n"
              "    }\n"
              "}\n")
    (tmp_path / "c.sol").write_text(text)
    signals = run_bva(assemble_ccim(build_audit_source(classify_files(tmp_path))))
    mism = [s for s in signals if s.id == "bva-formula-mismatch"]
    # one signal per pair of keys, from the overload that mismatches
    assert [(s.function, s.line_hint) for s in mism] == [
        (("C", "deposit"), text[:text.index(_MISMATCHING_DEPOSIT)].count("\n") + 1)]


def test_bva_reads_no_code_in_a_header_comment(tmp_path):
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import build_audit_source, classify_files
    # the comment's `{` is not the body's: its `a / 0` is no division
    (tmp_path / "c.sol").write_text(
        "pragma solidity ^0.8.0;\n"
        "contract C {\n"
        "    uint256 public total;\n"
        "    function f(uint256 a) /* {a / 0} */ external { total = a; }\n"
        "}\n")
    assert run_bva(assemble_ccim(build_audit_source(classify_files(tmp_path)))) == []


# names glued from stems in any case, so a name can carry both stems of a pair
# ("depositWithdraw") or another stem inside a stem ("unlock")
_NAME_PIECES = st.sampled_from(sorted({s for pair in COUNTER_STEMS for s in pair}) + ["", "all", "x"])
_NAMES = st.lists(st.builds(lambda piece, case: case(piece), _NAME_PIECES,
                            st.sampled_from((str.lower, str.upper, str.capitalize, str.swapcase))),
                  min_size=1, max_size=3).map("".join)


@settings(max_examples=200, deadline=None)
@given(names=st.lists(_NAMES, max_size=12), overloads=st.integers(0, 3))
def test_counter_pairs_equal_the_nested_stem_loop(names, overloads):
    # the first names come back as overloads; the index tells records apart
    records = [SimpleNamespace(name=n, i=i) for i, n in enumerate(names + names[:overloads])]
    expected = [(ra.i, rb.i) for a_stem, b_stem in COUNTER_STEMS
                for ra in records if ra.name.lower().startswith(a_stem)
                for rb in records if rb.name.lower().startswith(b_stem)]
    assert [(ra.i, rb.i) for ra, rb in counter_pairs(records)] == expected


def test_bva_quiet_on_clean_contract(models):
    signals = run_bva(models["bidirectional"])
    assert signals == []


def test_bva_irrational_bound(tmp_path):
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import build_audit_source, classify_files
    (tmp_path / "b.sol").write_text(
        "pragma solidity ^0.8.0;\n"
        "contract B {\n"
        "    uint256 public amount;\n"
        "    function f(uint256 x) external {\n"
        "        require(x > 10, \"lo\");\n"
        "        require(x < 5, \"hi\");\n"
        "        amount = x;\n"
        "    }\n"
        "}\n"
    )
    source = build_audit_source(classify_files(tmp_path))
    signals = run_bva(assemble_ccim(source))
    assert "bva-irrational-bound" in _ids(signals)


@pytest.mark.parametrize("body, expected", [
    # branch conditions bound nothing; an `if (c) revert` guard bounds c negated
    ("if (amount < 1000) { amount = 1; } if (amount > 5000) { amount = 2; }", []),
    ("if (x > 100) revert(); require(x > 200);", ["bounds on x admit no value (> 200 vs <= 100)"]),
])
def test_bva_bounds_are_the_guards(tmp_path, body, expected):
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import build_audit_source, classify_files
    (tmp_path / "b.sol").write_text(
        "pragma solidity ^0.8.0;\n"
        "contract B {\n"
        "    uint256 public amount;\n"
        f"    function f(uint256 x) external {{\n        {body}\n    }}\n"
        "}\n"
    )
    signals = run_bva(assemble_ccim(build_audit_source(classify_files(tmp_path))))
    assert [s.description for s in signals if s.id == "bva-irrational-bound"] == expected


def test_bva_literal_arithmetic(tmp_path):
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import build_audit_source, classify_files
    (tmp_path / "s.sol").write_text(
        "pragma solidity ^0.8.0;\n"
        "contract S {\n"
        "    uint256 public v;\n"
        "    function f() external {\n"
        "        v = 10 / 0;\n"
        "        v = 2 ** 255 * 4;\n"
        "        v = 1 - 2;\n"
        "    }\n"
        "}\n"
    )
    source = build_audit_source(classify_files(tmp_path))
    ids = _ids(run_bva(assemble_ccim(source)))
    assert "bva-division-by-zero" in ids
    assert "bva-literal-overflow" in ids
    assert "bva-literal-underflow" in ids


def test_bva_literal_line_hint_below_multiline_header(tmp_path):
    # the hint counts lines of the body proper, not of the header before it
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import build_audit_source, classify_files
    (tmp_path / "h.sol").write_text(
        "pragma solidity ^0.8.0;\n"
        "contract H { function f(\n"
        "        uint256 x,\n"
        "        uint256 y\n"
        "    ) external pure returns (uint256) {\n"
        "        y = 2 ** 8 * 3;\n"
        "        return x / 0;\n"
        "    }\n"
        "}\n"
    )
    source = build_audit_source(classify_files(tmp_path))
    hits = [s for s in run_bva(assemble_ccim(source)) if s.id == "bva-division-by-zero"]
    assert [s.line_hint for s in hits] == [7]


def test_bva_read_before_write_skips_initialized_state_inherited_or_own(tmp_path):
    from solaudit.ccim import assemble_ccim
    from solaudit.ingest import build_audit_source, classify_files
    (tmp_path / "r.sol").write_text(
        "pragma solidity ^0.8.0;\n"
        "contract Base { uint256 public cap = 10; uint256 public floor; }\n"
        "contract Vault is Base {\n"
        "    uint256 public constant FEE = 3;\n"
        "    uint256 public limit;\n"
        "    function f() external view returns (uint256) { return cap + FEE + floor + limit; }\n"
        "}\n"
    )
    signals = run_bva(assemble_ccim(build_audit_source(classify_files(tmp_path))))
    assert sorted(s.description.split()[0] for s in signals if s.id == "bva-read-before-write") == \
        ["Base.floor", "Vault.limit"]


def test_bva_sub_analyzer_isolation(models, monkeypatch, caplog):
    import solaudit.engines.bva as bva_mod

    def boom(ccim):
        raise RuntimeError("injected")

    monkeypatch.setattr(bva_mod, "_sub_locked_ether", boom)
    with caplog.at_level("WARNING"):
        signals = bva_mod.run_bva(models["locked_ether"])
    assert "bva-locked-ether" not in _ids(signals)
    assert "locked-ether" in caplog.text  # logged, not raised


# --- BPM ----------------------------------------------------------------------


def test_bpm_majority_deviant(models):
    signals = [s for s in run_bpm(models["guards_majority"]) if s.id == "bpm-guard-deviation"]
    ledger_hits = [s for s in signals if s.function[0] == "Ledger"]
    assert len(ledger_hits) == 1
    assert ledger_hits[0].function == ("Ledger", "adjust")


def test_bpm_uniform_and_small_sets_are_quiet(models):
    signals = run_bpm(models["guards_majority"])
    assert not [s for s in signals if s.function and s.function[0] == "LedgerUniform"]
    assert not [s for s in signals if s.function and s.function[0] == "LedgerSmall"]


# --- CIR ----------------------------------------------------------------------


def test_cir_stale_approval(models):
    signals = run_cir(models["approvals"])
    assert [s.function for s in signals] == [("Allowances", "rotateSpender")]


def test_cir_quiet_without_approvals(models):
    assert run_cir(models["vault_oracle"]) == []


# --- IRA ----------------------------------------------------------------------


def test_ira_questions_on_caller(models):
    signals = run_ira(models["vault_oracle"])
    on_withdraw = [s for s in signals if s.function == ("Vault", "withdraw")]
    assert len(on_withdraw) >= 1
    assert all(s.severity == "INFO" for s in signals)
    assert "ira-trust-gap" in {s.id for s in run_ira(models["bidirectional"])}


def test_ira_quiet_without_calls(models):
    assert run_ira(models["guards_majority"]) == []


def test_ira_unresolved_target(models):
    ids = {s.id for s in run_ira(models["ambiguous"])}
    assert "ira-unresolved-target" in ids


# --- pattern detectors ----------------------------------------------------------


def test_pattern_catalogue_hits(models):
    signals = run_pattern_detectors(models["patterns"])
    by_id = {}
    for s in signals:
        by_id.setdefault(s.id, []).append(s)
    assert ("Risky", "price") in [s.function for s in by_id["custom-oracle-staleness"]]
    assert ("Risky", "ratio") in [s.function for s in by_id["math-div-before-mul"]]
    assert ("Risky", "squeeze") in [s.function for s in by_id["math-unsafe-downcast"]]
    assert ("Risky", "claim") in [s.function for s in by_id["sig-missing-nonce"]]
    assert ("Risky", "wild") in [s.function for s in by_id["math-unchecked-arithmetic"]]
    assert ("Risky", "proxyCall") in [s.function for s in by_id["asm-delegatecall"]]
    assert ("Risky", "timing") in [s.function for s in by_id["ccpti-unit-mismatch"]]


def test_pattern_clean_token_quiet(models):
    signals = run_pattern_detectors(models["patterns"])
    assert not [s for s in signals if s.function and s.function[0] == "CleanToken"]


def test_pattern_line_hints_map(models, sources):
    signals = run_pattern_detectors(models["patterns"])
    for s in signals:
        assert s.line_hint is not None
        map_line(sources["patterns"].offsets, s.line_hint)  # must not raise


# --- ITPC lite -------------------------------------------------------------------


def test_itpc_unestablished_precondition(models):
    signals = run_itpc_lite(models["itpc_chain"])
    flagged = {s.function for s in signals}
    assert ("Chain", "outer") in flagged
    assert ("Chain", "outerChecked") not in flagged
    assert ("Chain", "leaf") not in flagged


# --- external ingestion -----------------------------------------------------------


def test_ingest_external_normalized(tmp_path, sources):
    report = {
        "tool": "slither",
        "findings": [
            {"detector": "reentrancy-eth", "description": "reentrancy in withdraw",
             "severity": "High", "file": "src/Vault.sol", "line": 5,
             "contract": "Vault", "function": "withdraw"},
            {"detector": "naming", "description": "mixed case", "severity": "Informational"},
            {"detector": "weird", "description": "odd level", "severity": "Bananas"},
        ],
    }
    path = tmp_path / "sli.json"
    path.write_text(json.dumps(report))
    signals = ingest_external(path, sources["vault_oracle"].offsets)
    assert len(signals) == 3
    assert signals[0].severity == "HIGH"
    assert signals[0].source_tag == "SLI"
    # src/Vault.sol line 5 translated through the offset map
    path_back, line_back = map_line(sources["vault_oracle"].offsets, signals[0].line_hint)
    assert (path_back, line_back) == ("src/Vault.sol", 5)
    assert signals[1].severity == "INFO"
    assert signals[2].severity == "INFO"  # unknown mapped to INFO


@pytest.mark.parametrize("report, tag", [
    ({"tool": "mythril", "findings": [{"detector": "integer"}]}, "MYT"),
    ({"findings": [{"detector": "integer"}]}, "SLI"),
])
def test_ingest_external_tags_by_tool(tmp_path, report, tag):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    [signal] = ingest_external(path)
    assert (signal.source_tag, signal.id) == (tag, f"{tag.lower()}-integer")


def test_ingest_external_missing_file(tmp_path, caplog):
    with caplog.at_level("WARNING"):
        assert ingest_external(tmp_path / "nope.json") == []
    assert "not found" in caplog.text


def test_ingest_external_malformed(tmp_path, caplog):
    path = tmp_path / "bad.json"
    for text in ("{not json", '[{"detector": "x"}]', '{"findings": 5}', "{}"):
        path.write_text(text)
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert ingest_external(path) == [], text
        assert "malformed" in caplog.text, text


# --- merger ------------------------------------------------------------------------


def _synthetic_signals(n, severities):
    out = []
    for i in range(n):
        out.append(Signal(
            source_tag="BVA", id=f"syn-{i:03d}", description=f"synthetic {i}",
            severity=severities[i % len(severities)], confidence=0.5,
        ))
    return out


def test_merge_cap_and_severity_order():
    pool = _synthetic_signals(10, ["CRITICAL"]) + _synthetic_signals(50, ["LOW"])
    merged = merge_signals({"BVA": pool}, cap=50)
    retained = merged.retained
    assert len(retained) == 50 < len(pool)
    assert sum(1 for s in retained if s.severity == "CRITICAL") == 10
    # no retained signal ranks strictly below any dropped one
    dropped_rank = max(SEVERITY_RANK[s.severity] for s in pool) if len(pool) > 50 else 0
    min_retained = min(SEVERITY_RANK[s.severity] for s in retained)
    dropped = [s for s in pool if s not in retained]
    assert all(SEVERITY_RANK[s.severity] <= min_retained for s in dropped)


def test_merge_under_cap():
    pool = _synthetic_signals(7, ["MEDIUM"])
    merged = merge_signals({"BVA": pool})
    assert len(merged.retained) == len(pool)


def test_merge_tie_broken_by_engine_tag():
    a = Signal(source_tag="BVA", id="same", description="x", severity="HIGH", confidence=0.5)
    b = Signal(source_tag="CIR", id="same", description="x", severity="HIGH", confidence=0.5)
    merged = merge_signals({"CIR": [b], "BVA": [a]}, cap=1)
    assert merged.retained[0].source_tag == "BVA"


def test_merge_stats_and_markdown():
    merged = merge_signals({
        "BVA": _synthetic_signals(3, ["HIGH"]),
        "CIR": [],
    })
    assert merged.stats["BVA"] == {"before": 3, "after": 3}
    assert merged.stats["CIR"] == {"before": 0, "after": 0}
    text = render_markdown(merged)
    assert "## BVA" in text and "## CIR" in text
    assert render_markdown(merged) == text  # deterministic


def test_run_engines_isolation(models):
    def throwing_engine(ccim):
        raise RuntimeError("kaboom")

    merged = run_engines(models["vault_oracle"],
                         engines=(("BROKEN", throwing_engine), ("IRA", run_ira)))
    assert merged.per_engine["IRA"]
    assert all(not v for k, v in merged.per_engine.items() if k != "IRA")


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(source_tag="BVA", id="x", description="", severity="WRONG", confidence=0.5)
    with pytest.raises(ValueError):
        Signal(source_tag="BVA", id="x", description="", severity="LOW", confidence=1.5)


def test_all_line_hints_resolve(models, sources, merged_signals):
    for name, merged in merged_signals.items():
        for s in merged.retained:
            if s.line_hint is not None:
                map_line(sources[name].offsets, s.line_hint)
