"""Prompt budgeting: every template keeps its text, its fixed fields and its
response-schema instruction whole under the character budget, sections are
packed first-fit, and the budget cut and the reasoner request each have one
home in the package."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from helpers import json_instruction, make_finding, scripted

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
