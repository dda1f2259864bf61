"""Prompt budgeting: every template keeps its text, its fixed fields and its
response-schema instruction whole under the character budget, sections are
packed best-fit, and the budget cut and the reasoner request each have one
home in the package. A function is printed at its declaration's own
indentation, and phase D's quote check reads past it."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import json_instruction, make_finding, scripted
from test_dossier import _model

import solaudit
from solaudit import prompts
from solaudit.dossier import expand_source_block, phase_d_claim_first
from solaudit.reasoner import SCHEMA_DEFAULTS

BUDGET = 24_000

# the fields each stage passes as cuttable payload; every other field is fixed
PAYLOAD_FIELDS = {
    "PHASE_A": ("members",),
    "PHASE_B": ("contracts", "signals"),
    "PHASE_C": ("reviews",),
    "PHASE_D": ("source_block",),
    "STAGE1_TRIAGE": ("skeletons",),
    "STAGE2_SPEC": ("skeletons", "pairs"),
    "STAGE3_VERIFY": ("pairs",),
    "STANDALONE": ("source",),
    "SVE_LAYER2": ("evidence",),
    "GAP_REAUDIT": ("features",),
    "BLINDSPOT": ("reviews",),
}


def _placeholders(template: str) -> list[str]:
    return [name for name in re.findall(r"(?<!\{)\{(\w+)\}", template) if name != "version"]


def _templates() -> set[str]:
    return {name for name, value in vars(prompts).items()
            if isinstance(value, str) and "[template v{version}]" in value}


def test_payload_table_names_every_template():
    assert _templates() == set(PAYLOAD_FIELDS)


def test_every_reasoner_stage_has_one_template_and_one_default():
    # a stage left with a default but no template, or the reverse, is dead code
    assert {name.lower() for name in _templates()} == set(SCHEMA_DEFAULTS)


@pytest.mark.parametrize("name", sorted(PAYLOAD_FIELDS))
def test_oversized_prompt_keeps_instruction_and_fixed_fields(name):
    template = getattr(prompts, name)
    first, *rest = PAYLOAD_FIELDS[name]
    fixed = {f: f"<fixed {f}>" for f in _placeholders(template) if f not in PAYLOAD_FIELDS[name]}
    # one oversized payload field; a short one beside it keeps whole
    payload = {first: "x" * (2 * BUDGET), **{f: f"<short {f}>" for f in rest}}
    prompt = prompts.render(template, BUDGET, payload, **fixed)
    # a cut prompt fills the budget exactly, which is how a trace counts cuts
    assert len(prompt) == BUDGET
    assert prompt.endswith(json_instruction(template))
    assert f"[template v{prompts.PROMPT_VERSION}]" in prompt
    for value in [*fixed.values(), *(payload[f] for f in rest)]:
        assert value in prompt


@pytest.mark.parametrize("name", sorted(PAYLOAD_FIELDS))
def test_prompt_under_budget_is_filled_uncut(name):
    template = getattr(prompts, name)
    fields = {f: f"<{f}>" for f in _placeholders(template)}
    payload = {f: fields.pop(f) for f in PAYLOAD_FIELDS[name]}
    assert prompts.render(template, BUDGET, payload, **fields) == \
        template.format(version=prompts.PROMPT_VERSION, **fields, **payload)


def test_payload_fields_share_the_room():
    fields = prompts.fit("#|{a}|{b}|{c}", 16, {"a": "a" * 9, "b": "b", "c": "c" * 9})
    # 4 characters of fixed text leave 12: b keeps whole, a and c split the rest
    assert (fields["a"], fields["b"], fields["c"]) == ("a" * 5, "b", "c" * 6)


def test_pack_sections_fills_an_earlier_text_of_the_same_contract():
    f, g, h = ("A", "f"), ("A", "g"), ("B", "h")
    blocks = {f: "// A.f\n" + "x" * 60, g: "// A.g\n" + "y" * 60, h: "// B.h\n" + "z" * 5}
    heads = [f"### S{i}\n" for i in range(4)]
    members = [(f,), (g,), (f,), (h,)]
    room = 110
    packed = prompts.pack_sections(heads, members, blocks, room)
    # S2 repeats A.f, whose body S0's text already holds; S3, of contract B,
    # would fit in that text too, but B's sections start at the last text
    assert [chunk for chunk, _ in packed] == [[0, 2], [1, 3]]
    texts = [text for _, text in packed]
    assert all(len(t) <= room for t in texts)
    assert ["".join(texts).count(head) for head in heads] == [1, 1, 1, 1]
    owners = [members[i][0][0] for chunk, _ in packed for i in chunk]
    assert owners == sorted(owners)
    # packing each section into the last text, as `chunks` does, takes one text more
    parts = {i: {**{k: len(blocks[k]) - 7 for k in keys}, i: len(head) + 7 * len(keys) - 1}
             for i, (head, keys) in enumerate(zip(heads, members))}
    assert len(prompts.chunks(list(range(4)), parts, room, least=1)) == len(packed) + 1


def test_pack_sections_places_largest_first_where_it_adds_least():
    a, b, c = ("A", "a"), ("A", "b"), ("A", "c")
    blocks = {a: "// A.a\n" + "a" * 100, b: "// A.b\n" + "b" * 60, c: "// A.c\n" + "c" * 5}
    heads = ["### S0\n", "### S1 " + "-" * 33 + "\n", "### S2\n", "### S3\n"]
    members = [(a,), (b,), (b,), (c,)]
    packed = prompts.pack_sections(heads, members, blocks, 200)
    # S0, the largest, opens a text, and S1 does not fit beside it. S2 fits
    # in either text, but beside S1's copy of A.b it adds only its heading and
    # name line; S3 adds as much to either and takes the earlier
    assert [chunk for chunk, _ in packed] == [[0, 3], [1, 2]]
    assert [text for _, text in packed] == [heads[0] + blocks[a] + "\n" + heads[3] + blocks[c],
                                            heads[1] + blocks[b] + "\n" + heads[2] + "// A.b"]
    # the first text with room would have printed A.b a second time
    assert sum(len(text) for _, text in packed) == 134 + 122


_ZERO_GUARD = 'require(amount > 0, "zero");'


def test_phase_d_quote_past_the_cut_is_a_protocol_violation(models):
    # the quote check reads the source block as sent, not the uncut one
    ccim = models["vault_oracle"]
    block = expand_source_block(make_finding(functions=[("Vault", "withdraw")]), ccim)
    shell = len(prompts.PHASE_D.format(version=prompts.PROMPT_VERSION, title="finding",
                                       description="", source_block=""))
    cut_before_guard = shell + block.index(_ZERO_GUARD)
    disproving = [{"stage": "phase_d", "match": [],
                   "response": {"verdict": "DISPROVED", "quote": _ZERO_GUARD}}]

    f = make_finding(functions=[("Vault", "withdraw")])
    assert phase_d_claim_first(f, ccim, scripted(disproving), cut_before_guard) == "UNCLEAR"
    assert "protocol-violation" in f.flags

    f = make_finding(functions=[("Vault", "withdraw")])
    assert phase_d_claim_first(f, ccim, scripted(disproving),
                               cut_before_guard + len(_ZERO_GUARD)) == "DISPROVED"
    assert not f.flags

    # a quote of the finding's own title is in the prompt but not in the source
    title = "withdraw lets anyone drain the vault"
    quoting_title = [{"stage": "phase_d", "match": [],
                      "response": {"verdict": "DISPROVED", "quote": title}}]
    f = make_finding(title=title, functions=[("Vault", "withdraw")])
    assert phase_d_claim_first(f, ccim, scripted(quoting_title)) == "UNCLEAR"
    assert "protocol-violation" in f.flags


def test_budget_cut_and_reasoner_request_have_one_home():
    # a second copy of either rule is how prompts lost their instruction
    homes = {r"\[:\s*budget\s*\]": "prompts.py", r"\bReasonerRequest\(": "reasoner.py"}
    package = Path(solaudit.__file__).parent
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for pattern, home in homes.items():
            if path.relative_to(package).as_posix() != home:
                assert not re.search(pattern, text), f"{pattern} in {path.name}"


@pytest.mark.parametrize("text, printed", [
    # tabs are stripped as spaces are, one character each
    ("contract T {\n\tfunction f() external {\n\t\tx = 1;\n\t}\n}\n",
     ["function f() external {\n\tx = 1;\n}"]),
    # a one-line contract: the declaration's line starts at column 0
    ("contract A { uint x; function f() external { x = 1; } }\n",
     ["function f() external { x = 1; }"]),
    # code before `function` on an indented line: the line's indentation counts
    ("contract A {\n    uint x; function f() external {\n        x = 1;\n    }\n}\n",
     ["function f() external {\n    x = 1;\n}"]),
    # a line indented less than its declaration loses only what it has
    ("contract A {\n        function f() external {\n  x = 1;\n            y = 2;\n}\n}\n",
     ["function f() external {\nx = 1;\n    y = 2;\n}"]),
    # a bodiless declaration, over lines of its own
    ("interface I {\n    function g(\n        uint256 a\n    ) external;\n}\n",
     ["function g(\n    uint256 a\n) external;"]),
    # overloads, each dedented by its own line
    ("contract A {\n    function f() external {\n        x = 1;\n    }\n"
     "  function f(uint a) external {\n      x = a;\n  }\n}\n",
     ["function f() external {\n    x = 1;\n}", "function f(uint a) external {\n    x = a;\n}"]),
])
def test_function_is_printed_at_its_own_indentation(text, printed):
    ccim = _model(text)
    assert [r.printed for r in ccim.records] == printed
    key = ccim.records[0].key
    assert prompts.source_block(ccim, key) == "\n".join([prompts.name_line(key), *printed])


_LINE = st.tuples(st.text(" \t", max_size=6),
                  st.sampled_from(["x = 1;", "if (x) { y = 2; }", "", "y += 2;", "// note {"]))


@settings(max_examples=100, deadline=None)
@given(indent=st.text(" \t", max_size=6), lines=st.lists(_LINE, max_size=8))
def test_printed_lines_are_the_written_lines_stripped(indent, lines):
    body = "".join(f"\n{lead}{code}" for lead, code in lines)
    ccim = _model(f"contract A {{\n{indent}function f() external {{{body}\n{indent}}}\n}}\n")
    [r] = ccim.records
    written, printed = r.body.split("\n"), r.printed.split("\n")
    assert len(printed) == len(written)
    assert [line.strip() for line in printed] == [line.strip() for line in written]
    # each line loses the declaration's width of leading whitespace, or all it has
    for old, new in zip(written[1:], printed[1:]):
        lead = len(old) - len(old.lstrip(" \t"))
        assert old.endswith(new) and len(old) - len(new) == min(lead, len(indent))


@pytest.mark.parametrize("quote", [
    # copied from the file with its own indentation, or over two of its lines
    '        require(amount > 0, "zero");',
    'require(amount > 0, "zero");\n        uint256 priced = amount * oracle.latestPrice() / 1e18;',
])
def test_phase_d_quote_as_written_in_the_file_verifies(models, quote):
    ccim = models["vault_oracle"]
    assert quote not in expand_source_block(make_finding(functions=[("Vault", "withdraw")]), ccim)
    disproving = [{"stage": "phase_d", "match": [],
                   "response": {"verdict": "DISPROVED", "quote": quote}}]
    f = make_finding(functions=[("Vault", "withdraw")])
    assert phase_d_claim_first(f, ccim, scripted(disproving)) == "DISPROVED"
    assert not f.flags
    # a quote the block does not hold is still a protocol violation
    absent = [{"stage": "phase_d", "match": [],
               "response": {"verdict": "DISPROVED", "quote": quote.replace("0", "1")}}]
    f = make_finding(functions=[("Vault", "withdraw")])
    assert phase_d_claim_first(f, ccim, scripted(absent)) == "UNCLEAR"
    assert "protocol-violation" in f.flags
