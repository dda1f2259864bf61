"""Versioned prompt templates for every reasoner-bearing stage, the one
rule that fits a filled template into the character budget and the one room
it leaves a packer, the one source block a prompt shows a function by, the
two packers, `pack` that renders a template per chunk, and the reply rule.

Every stage that shows the reasoner several members packs them. Phase A's
dossiers, the gap re-audit's features and the blind-spot review's functions
are sections that `pack` puts in order into as few prompts as fit, one
chunk of `chunks` each; phase B's bodies and stage 2's pairs are packed in
order by `chunks` itself; phase C's reviews and stage 3's pairs are sections
packed best-fit by `pack_sections`, contract by contract in locality order,
largest first, each into the prompt where it adds the fewest characters, so
sections that share bodies sit in the same prompts, while their ids and the
order of their findings stay in section order. Both packers
count a part that several members share once, so a shared skeleton or body
is sent once per prompt. A reply's entries are attributed to the prompt's
members by id with `by_id`, and `payloads` gives each member the reply's
top-level fields overridden by its own entry.

A prompt prints a function as `FunctionRecord.printed` gives it: the raw
declaration text at the declaration's own indentation, every line kept, so
leading whitespace the file adds to every line costs no prompt characters.

Templates are plain text resources; bump PROMPT_VERSION when wording changes
so scripted mock responses can be pinned to the template they were written
against.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

from .findings import reply_list

if TYPE_CHECKING:
    from .ccim import CcimModel, FnKey

log = logging.getLogger(__name__)

PROMPT_VERSION = "10"

BUILTIN_FP_RULES = """\
Built-in false-positive rules (do not report these):
1. Arithmetic overflow on Solidity >= 0.8 outside unchecked blocks reverts; it is not a finding.
2. Reentrancy on functions guarded by nonReentrant is not exploitable.
3. Missing-access-control claims are invalid when an admin modifier is present on the function.
4. "EVM race conditions" are structurally impossible: transactions execute atomically."""

PHASE_A = """\
[template v{version}] You are a Solidity security auditor. For each checklist
item below, decide whether the pre-identified risk is REAL, FALSE_POSITIVE, or
UNCLEAR. A REAL verdict must cite an evidence line number from the source.

{fp_rules}

Functions under review, each with its facts and checklist items:
{members}

Respond as JSON, one entry per item, keyed by the item's id: {{"items": [{{"item_id": "Owner.name#i",
"verdict": "REAL|FALSE_POSITIVE|UNCLEAR", "evidence_line": <int or null>, "title": ...,
"description": ..., "attack_scenario": ..., "severity": "CRITICAL|HIGH|MEDIUM|LOW|INFO"}}]}}"""

PHASE_B = """\
[template v{version}] Contract-level semantic review through the lens: {lens}.
Contracts are listed in priority order (aggregated deterministic risk score).

{contracts}

Deterministic signal record:
{signals}

Report findings as JSON: {{"findings": [{{"title": ..., "description": ...,
"attack_scenario": ..., "severity": ..., "functions": [["Contract", "function"]],
"evidence_lines": [..]}}]}}"""

PHASE_C = """\
[template v{version}] Interference reviews: judge each review's functions, which
touch its subject, as one set. A repeated `// Owner.name` refers to its source above.

{reviews}

Respond as JSON; top-level fields apply to any review without its own entry:
{{"reviews": [{{"review_id": "C<n>", "verdict": "VULNERABLE|SAFE|UNCLEAR", "title": ...,
"description": ..., "attack_scenario": ..., "severity": ..., "evidence_lines": [..]}}]}}"""

PHASE_D = """\
[template v{version}] Claim-first verification. Follow the four steps exactly:
1. Extract the finding's core claim in one sentence.
2. Name the specific piece of code that would prevent that claim.
3. Search the source below for that prevention and QUOTE the exact line if found.
4. Verdict: DISPROVED only if you quoted a concrete preventing line; otherwise
   CONFIRMED or UNCLEAR.

Finding: {title}
{description}

Source (affected functions expanded with callers and callees):
{source_block}

Respond as JSON: {{"claim": ..., "prevention": ..., "quote": ..., "verdict": "DISPROVED|CONFIRMED|UNCLEAR"}}"""

STAGE1_TRIAGE = """\
[template v{version}] The contracts below produced no high-severity
deterministic signals. From their skeletons only, nominate function pairs
whose interaction deserves audit attention.

{skeletons}

Respond as JSON: {{"pairs": [["Contract", "fnA", "Contract", "fnB"], ...]}}"""

STAGE2_SPEC = """\
[template v{version}] Behavioral specification inference. You see ONLY the
contract skeletons: signatures, doc comments, module documentation. Do not
assume anything about the implementation. For each pair below, state the
expected lifecycle, the state variables both functions must agree on, and the
behavioral assumptions a correct implementation preserves.

Pairs:
{pairs}

Skeletons:
{skeletons}

Respond as JSON; top-level fields apply to any pair without its own entry:
{{"specs": [{{"pair_id": "P<n>", "lifecycle": ..., "agreed_variables": [..],
"assumptions": [..]}}]}}"""

STAGE3_CHECKLIST = (
    "assumption enforcement: does the code ENFORCE or VIOLATE each specified assumption (cite lines)",
    "shared-state usage across the pair",
    "value-flow trace through both functions",
    "accounting consistency between the pair",
    "invariant preservation across the pair",
    "arithmetic safety: precision, overflow, unchecked blocks",
    "final per-pair verdict",
)

STAGE3_VERIFY = """\
[template v{version}] Spec-then-verify audit of function pairs. For each pair,
answer the seven checklist items one by one. Every VIOLATE item must carry
either an evidence citation (line number plus quoted code) or a concrete
exploit trace. Invented attack narratives without a specific assumption
violation are forbidden. A repeated `// Owner.name` refers to its source above.

Checklist:
{checklist}

{pairs}

Respond as JSON; top-level items apply to any pair without its own entry:
{{"pairs": [{{"pair_id": "P<n>", "items": [{{"index": 1..7, "status": "ENFORCE|VIOLATE",
"evidence_line": <int or null>, "quote": ..., "trace": ..., "title": ...,
"description": ..., "attack_scenario": ..., "severity": ...}}]}}]}}"""

STANDALONE = """\
[template v{version}] Focused single-function audit. This function handles
value with unchecked arithmetic and gets its own audit slot outside the pair
structure.

{source}

Respond as JSON: {{"findings": [{{"title": ..., "description": ...,
"attack_scenario": ..., "severity": ..., "evidence_lines": [..]}}]}}"""

SVE_LAYER2 = """\
[template v{version}] Final structural verdict. The finding below survived all
deterministic checks. Re-verify it against the packaged evidence and return
VERIFIED, DISPROVED or UNCERTAIN with a supporting argument. DISPROVED
requires quoting the contradicting evidence.

Finding: {title} [{severity}]
{description}

Packaged evidence:
{evidence}

Respond as JSON: {{"verdict": "VERIFIED|DISPROVED|UNCERTAIN", "quote": ..., "argument": ...,
"severity": "CRITICAL|HIGH|MEDIUM|LOW|INFO" or null}}"""

GAP_REAUDIT = """\
[template v{version}] Coverage-gap re-audit. The protocol exhibits each feature
below, but no finding addresses the bug classes listed under it. Re-examine
each feature's structural evidence specifically for its classes.

{features}

Respond as JSON: {{"findings": [{{"title": ..., "description": ...,
"attack_scenario": ..., "severity": ..., "functions": [["Contract", "function"]],
"evidence_lines": [..]}}]}}"""

BLINDSPOT = """\
[template v{version}] Blind-spot reviews. Each function below was left
unattended or given partial attention by the audit passes, as its heading
says. Each section holds only its source and classification, with
no carry-over context: audit each function from scratch.

{reviews}

Respond as JSON: {{"findings": [{{"review_id": "B<n>", "title": ..., "description": ...,
"attack_scenario": ..., "severity": ..., "evidence_lines": [..]}}]}}"""


def fit(template: str, budget: int, payload: dict[str, str], **fields: str) -> dict[str, str]:
    """Field values that fill `template` to at most `budget` characters.

    `version` is filled in, and the template text and the fixed `fields` are
    kept whole, so a prompt never loses its response-schema instruction. The
    `payload` fields (source bodies, evidence, skeletons, signal records)
    share the room that is left: a field shorter than an equal share keeps
    whole and leaves the rest to the longer ones; ties keep the order of
    `payload`. When the fixed text alone exceeds the budget, every payload
    field is emptied and the backend refuses the request as over budget."""
    fields["version"] = PROMPT_VERSION
    room = budget - len(template.format(**fields, **dict.fromkeys(payload, "")))
    pending = sorted(payload, key=lambda name: len(payload[name]))
    for i, name in enumerate(pending):
        fields[name] = payload[name][:max(0, room) // (len(pending) - i)]
        room -= len(fields[name])
    return fields


def render(template: str, budget: int, payload: dict[str, str], **fields: str) -> str:
    """`template` filled with `payload` and `fields`, budgeted by `fit`; a
    prompt that already fits is formatted once."""
    text = template.format(version=PROMPT_VERSION, **fields, **payload)
    if len(text) <= budget:
        return text
    return template.format(**fit(template, budget, payload, **fields))


def room(template: str, budget: int, payload: dict[str, str], **fields: str) -> int:
    """The characters a packer may add to `template` rendered with `payload`
    and `fields`: one below what the budget leaves, since a prompt of exactly
    the budget is the cut that `reasoner.truncated` counts."""
    return budget - 1 - len(render(template, budget, payload, **fields))


def name_line(key: FnKey) -> str:
    """The line that names function `key` in a prompt."""
    return f"// {key[0]}.{key[1]}"


def source_block(ccim: CcimModel, key: FnKey) -> str:
    """The source block of function `key`: its name line, then each of its
    overloads in source order, as `FunctionRecord.printed` prints it."""
    return name_line(key) + "\n" + "\n".join(r.printed for r in ccim.records_of((key,)))


def chunks(ranked: list, parts: dict, room: int, least: int = 2) -> list[list]:
    """`ranked` cut into consecutive chunks that fit in `room`: the one packer
    of every multi-member prompt. Member `k` is made of the named parts
    `parts[k]` (`{part: size}`), and a chunk's size is the sum of its distinct
    parts, each plus its newline, so a part that several members share counts
    once. A chunk closes only once it has `least` (1 or 2) members; a last
    chunk short of `least` takes the previous chunk's last member, moved, or
    copied if moving it would leave the previous chunk short. So no chunk
    exceeds the room unless `least` members alone do, and only that one
    member may sit in two chunks."""
    chunk: list = []
    out = [chunk]
    held: set = set()
    used = -1
    for k in ranked:
        own = parts[k]
        grow = 0
        for p, size in own.items():
            if p not in held:
                grow += 1 + size
        if len(chunk) >= least and used + grow > room:
            chunk = []
            out.append(chunk)
            held.clear()
            used = -1
            grow = len(own) + sum(own.values())
        chunk.append(k)
        held.update(own)
        used += grow
    if len(out) > 1 and len(chunk) < least:
        chunk.insert(0, out[-2][-1] if len(out[-2]) <= least else out[-2].pop())
    return out


def pack(template: str, field: str, sections: dict, budget: int,
         **fields: str) -> list[tuple[list, str]]:
    """`template` prompts that hold `sections` (member -> text) in order, one
    a line in the payload `field`, cut by `chunks` into as few prompts as fit
    the room it leaves under `budget`; each prompt comes with its members. A
    section over the room alone gets a prompt of its own, cut by `fit`; one
    WARNING names each such section by its first line. No sections, no prompt."""
    if not sections:
        return []
    room_left = room(template, budget, {field: ""}, **fields)
    if over := [t.partition("\n")[0].lstrip("# ") for t in sections.values() if len(t) > room_left]:
        log.warning("sections over the room of %d characters alone, each cut to fit a prompt "
                    "of its own: %s", room_left, "; ".join(over))
    parts = {k: {k: len(text)} for k, text in sections.items()}
    return [(chunk, render(template, budget, {field: "\n".join(sections[k] for k in chunk)},
                           **fields))
            for chunk in chunks(list(sections), parts, room_left, least=1)]


def pack_sections(heads: list[str], members: list[tuple[FnKey, ...]], blocks: dict[FnKey, str],
                  room: int) -> list[tuple[list[int], str]]:
    """Sections packed best-fit into as few texts as fit `room`, each text
    with the indices of its sections in the order it prints them. Section `i`
    is `heads[i]` and one mention per key of `members[i]`, one a line. A
    key's first mention in a text is its block `blocks[k]`, which starts with
    `name_line(k)`; a later one is that bare name line, so each block is
    printed once per text. A section's own part is its head and name lines,
    and each key's block past its name line is a part shared across the text,
    counted once per text as in `chunks`. A section's size is its own part
    and all its bodies.

    Sections are placed contract by contract in locality order, by the
    contract of their first member, a section with no members first; within
    a contract, largest first, ties by index. A section may join the text
    that was last when its contract began and any text its contract opened
    since. It goes to the one of those where it adds the fewest characters
    and fits, the earliest on a tie, and opens a new text when none has
    room; a section too large for any text stands alone. A text that holds
    none of its bodies adds its whole size, so once some text can take it, a
    later text that holds none of them is not scored. So a section
    joins the bodies it shares wherever they were printed, and the sections
    of one contract sit in consecutive texts. A text prints its sections in
    the order they were placed; the indices, and so the ids a caller gives
    the sections, stay the sections' own. No sections, no text."""
    owners = [keys[0][0] if keys else "" for keys in members]
    names = {k: name_line(k) for k in {k for keys in members for k in keys}}
    bodies = {k: len(blocks[k]) - len(name) for k, name in names.items()}
    distinct = [set(keys) for keys in members]
    owns = [len(head) + len(keys) + sum(map(len, map(names.__getitem__, keys)))
            for head, keys in zip(heads, members)]
    sizes = [own + sum(map(bodies.__getitem__, keys)) for own, keys in zip(owns, distinct)]
    texts: list[list[int]] = []
    held: list[set] = []               # per text: the keys whose bodies it prints
    used: list[int] = []
    contract, first = None, 0          # the contract placed last, the first text it may use
    for i in sorted(range(len(heads)), key=lambda i: (owners[i], -sizes[i], i)):
        keys = distinct[i]
        if owners[i] != contract:
            contract, first = owners[i], max(len(texts) - 1, 0)
        best, least = None, sizes[i]
        for t in range(first, len(texts)):
            if used[t] + owns[i] > room or (best is not None and keys.isdisjoint(held[t])):
                continue
            grow = sizes[i] - sum(map(bodies.__getitem__, keys & held[t]))
            if used[t] + grow <= room and (best is None or grow < least):
                best, least = t, grow
        if best is None:
            best = len(texts)
            texts.append([])
            held.append(set())
            used.append(-1)
        texts[best].append(i)
        held[best].update(keys)
        used[best] += least
    out = []
    for chunk in texts:
        shown: set[FnKey] = set()
        sections = []
        for i in chunk:
            mentions = []
            for k in members[i]:
                mentions.append(names[k] if k in shown else blocks[k])
                shown.add(k)
            sections.append(heads[i] + "\n".join(mentions))
        out.append((chunk, "\n".join(sections)))
    return out


def by_id(entries: list, field: str, members: dict, noun: str) -> list[tuple[object, dict]]:
    """The object entries of a reply list, each paired with the member of
    its prompt that its `field` names: the id up to any `#` (phase A's item
    number) is a key of `members`. An entry naming no member of the prompt is
    dropped with a warning."""
    named = []
    for raw in entries:
        if not isinstance(raw, dict):
            continue
        member = members.get(str(raw.get(field)).partition("#")[0])
        if member is None:
            log.warning("%s %r names no %s of its prompt; dropped", field, raw.get(field), noun)
            continue
        named.append((member, raw))
    return named


def payloads(reply: dict | None, key: str, field: str, members: dict, noun: str) -> dict:
    """Each member's payload from a packed prompt's reply, in the order of
    `members` (id -> member): the reply's top-level fields, but `key`,
    overridden by the member's own entry in the `key` list, which `by_id`
    attributes. So a reply with no entries judges every member alike. A
    failed request (None) gives no payload."""
    if reply is None:
        return {}
    top = {k: v for k, v in reply.items() if k != key}
    own = dict(by_id(reply_list(reply, key), field, members, noun))
    return {m: {**top, **own.get(m, {})} for m in members.values()}
