from __future__ import annotations

import pytest

from corpus import MULTI_FILE, write_repo

from solaudit.ccim import assemble_ccim
from solaudit.ingest import (
    IngestError,
    build_audit_source,
    classify_files,
    map_line,
    pragma_ge_08,
    resolve_remappings,
)


@pytest.fixture()
def multi_root(tmp_path):
    return write_repo(MULTI_FILE, tmp_path / "repo")


def test_classify_roles(multi_root):
    roles = {f.path: f.role for f in classify_files(multi_root)}
    assert roles["src/A.sol"] == "source"
    assert roles["src/B.sol"] == "source"
    assert roles["test/A.t.sol"] == "test"
    assert roles["script/Deploy.s.sol"] == "script"
    assert roles["lib/dep/Dep.sol"] == "library"
    assert roles["src/interfaces/IThing.sol"] == "interface"
    assert roles["src/LibOnly.sol"] == "library"


def test_classify_ignores_commented_out_declarations(tmp_path):
    root = write_repo({
        "src/IOracle.sol": ("pragma solidity ^0.8.20;\n/*\ncontract Old {}\n*/\n"
                            "interface IOracle {\n    function price() external view returns (uint256);\n}\n"),
        "src/Main.sol": "pragma solidity ^0.8.20;\ncontract Main {\n    uint256 public total;\n}\n",
    }, tmp_path / "repo")
    files = classify_files(root)
    assert {f.path: f.role for f in files}["src/IOracle.sol"] == "interface"
    assert build_audit_source(files).scope == ("Main",)


def test_classify_every_sol_file_once(multi_root):
    files = classify_files(multi_root)
    paths = [f.path for f in files]
    assert len(paths) == len(set(paths))
    expected = {p for p in MULTI_FILE if p.endswith(".sol")}
    assert set(paths) == expected


def test_classify_empty_directory(tmp_path):
    assert classify_files(tmp_path) == []


def test_classify_unreadable_root(tmp_path):
    with pytest.raises(IngestError):
        classify_files(tmp_path / "missing")


def test_classify_skips_non_utf8(tmp_path, caplog):
    (tmp_path / "bad.sol").write_bytes(b"\xff\xfe contract X {}")
    (tmp_path / "good.sol").write_text("pragma solidity ^0.8.0;\ncontract G { uint256 public v; }\n")
    with caplog.at_level("WARNING"):
        files = classify_files(tmp_path)
    assert [f.path for f in files] == ["good.sol"]
    assert "non-UTF-8" in caplog.text


def test_remappings_txt_wins_over_foundry(multi_root):
    remappings = resolve_remappings(multi_root)
    assert ("@oz/", "lib/openzeppelin/") in remappings
    assert ("@oz/", "lib/oz-dup/") not in remappings
    assert ("forge-std/", "lib/forge-std/src/") in remappings


def test_remappings_absent(tmp_path):
    assert resolve_remappings(tmp_path) == []


def test_remappings_malformed_line_skipped(tmp_path, caplog):
    (tmp_path / "remappings.txt").write_text("@good/=lib/good/\nnot-a-remapping\n")
    with caplog.at_level("WARNING"):
        got = resolve_remappings(tmp_path)
    assert got == [("@good/", "lib/good/")]
    assert "malformed" in caplog.text


def test_concatenation_boundary(multi_root):
    source = build_audit_source(classify_files(multi_root))
    # A.sol has 10 lines, B.sol has 5: boundary sits at line 11
    assert source.offsets.total_lines == 15
    assert map_line(source.offsets, 1) == ("src/A.sol", 1)
    assert map_line(source.offsets, 10) == ("src/A.sol", 10)
    assert map_line(source.offsets, 11) == ("src/B.sol", 1)
    assert map_line(source.offsets, 15) == ("src/B.sol", 5)


def test_map_line_out_of_range(multi_root):
    source = build_audit_source(classify_files(multi_root))
    with pytest.raises(ValueError):
        map_line(source.offsets, 16)
    with pytest.raises(ValueError):
        map_line(source.offsets, 0)


def test_single_file_identity_segment(tmp_path):
    (tmp_path / "one.sol").write_text("pragma solidity ^0.8.0;\ncontract One { uint256 public v; }\n")
    source = build_audit_source(classify_files(tmp_path))
    assert len(source.offsets.segments) == 1
    seg = source.offsets.segments[0]
    assert (seg.start, seg.orig_start) == (1, 1)
    assert map_line(source.offsets, 2) == ("one.sol", 2)


def test_round_trip_line_text(multi_root):
    files = classify_files(multi_root)
    source = build_audit_source(files)
    originals = {f.path: f.text.split("\n") for f in files}
    for lineno, text in enumerate(source.text.split("\n"), start=1):
        path, orig = map_line(source.offsets, lineno)
        assert originals[path][orig - 1] == text


def test_scope_default_and_override(multi_root):
    files = classify_files(multi_root)
    assert build_audit_source(files).scope == ("A", "B")
    assert build_audit_source(files, ["B"]).scope == ("B",)
    with pytest.raises(IngestError, match="Nope"):
        build_audit_source(files, ["Nope"])


def test_scope_skips_a_contract_declared_in_a_comment(tmp_path):
    root = write_repo({"src/Live.sol": "pragma solidity ^0.8.19;\n/*\ncontract Legacy {}\n*/\n"
                                       "contract Live {\n    function f() external {}\n}\n"},
                      tmp_path / "repo")
    files = classify_files(root)
    # with and without an override, the scope is read off the masked text
    source = build_audit_source(files)
    assert source.scope == build_audit_source(files, ["Live"]).scope == ("Live",)
    assert assemble_ccim(source).scope == ("Live",)
    with pytest.raises(IngestError, match="Legacy"):
        build_audit_source(files, ["Legacy"])


@pytest.mark.parametrize("between", [" ", "", ";"])
def test_scope_takes_every_contract_the_parser_keys(tmp_path, between):
    # a declaration after a `}` or a `;` on the line of another is in scope,
    # as the parser keys it; an interface there does not make the file one
    line = ("interface I { function g() external; }" + between
            + "contract A { function f() external {} }" + between
            + "contract B { function g() external {} }")
    root = write_repo({"src/AB.sol": f"pragma solidity ^0.8.19;\n{line}\n"}, tmp_path / "repo")
    files = classify_files(root)
    assert [f.role for f in files] == ["source"]
    ccim = assemble_ccim(build_audit_source(files))
    assert ccim.keys == (("I", "g"), ("A", "f"), ("B", "g"))
    assert ccim.scope == ("A", "B")
    assert assemble_ccim(build_audit_source(files, ["B"])).scope == ("B",)


def test_scope_override_three_contract_repo(corpus_root):
    files = classify_files(corpus_root / "vault_oracle")
    source = build_audit_source(files, ["Vault"])
    assert len(source.scope) == 1


def test_determinism(multi_root):
    a = build_audit_source(classify_files(multi_root))
    b = build_audit_source(classify_files(multi_root))
    assert a.text == b.text
    assert a.offsets == b.offsets


def test_pragma_version_flag():
    assert pragma_ge_08("^0.8.19")
    assert pragma_ge_08(">=0.8.0 <0.9.0")
    assert not pragma_ge_08("^0.7.6")
    assert not pragma_ge_08(None)
    assert not pragma_ge_08("unparseable")


@pytest.mark.parametrize("tail", ["/* unterminated", '"unterminated'])
def test_file_ending_inside_a_comment_or_literal_hides_no_later_file(tmp_path, caplog, tail):
    root = write_repo({
        "src/A.sol": f"pragma solidity ^0.8.20;\ncontract A {{\n    uint256 public a;\n}}\n{tail}",
        "src/B.sol": ("pragma solidity ^0.8.20;\ncontract B {\n    uint256 public b;\n"
                      "    function g() external { b = 1; }\n}\n"),
    }, tmp_path / "repo")
    with caplog.at_level("WARNING"):
        ccim = assemble_ccim(build_audit_source(classify_files(root)))
    assert ccim.scope == ("A", "B")
    assert ccim.records_of([("B", "g")])[0].writes == {"b"}
    assert "src/A.sol ends inside a comment or string literal" in caplog.text
    assert "src/B.sol" not in caplog.text
