"""Dossier compilation and the dossier-driven audit pipeline (phases A-E):
per-function risk dossiers, checklist verification (all flagged dossiers in
as few prompts as fit the budget), a discovery pass, interference reviews (as
few prompts as fit the budget, several reviews each, every function's source
printed once per prompt), deterministic re-verification routing with one
claim-first check where routing cannot decide (phase D, whose verdict is
funnel stage 3's record), and severity recalibration by the shared six-rule
set, with no reasoner call (phase E).
Phases A and B pack their members, and phase C each review's functions,
into the budget with `prompts.chunks`, and phases A and C attribute a
reply's entries to the prompt's members by id with `prompts.by_id`. Phase C
packs its reviews best-fit by contract locality (`prompts.pack_sections`),
so the reviews that share a contract's bodies share prompts, while review
ids and the order of the findings stay in group order; a review split into
chunks is also cut evenly, and the cut that packs into fewer prompts, then
fewer characters, is sent (`pack_phase_c`). Phase C does not
review what no call can interfere through: a set-once variable, which holds
one value after construction, and an inert callee, which does nothing; it
abstains from the skip wherever a write the CCIM cannot see could hide
(`build_phase_c_interactions`)."""

from __future__ import annotations

import logging
import re
from typing import NamedTuple

from . import prompts
from .ccim import CcimModel, FnKey, FunctionRecord
from .engines import MergedSignals, render_markdown
from .findings import (
    Finding,
    VerdictRecord,
    finding_from_payload,
    findings_from,
    renumber,
    reply_line,
    reply_list,
)
from .interaction import calibrate_one
from .reasoner import DEFAULT_CHAR_BUDGET, Reasoner, ask

log = logging.getLogger(__name__)

VECTOR_MIN_CONFIDENCE = 0.8
VECTOR_MIN_TRACE_CHARS = 30

# attack-vector pattern catalogue: signal-id prefix -> finding keywords; a
# finding matches when a same-function signal corroborates the same class
DEFAULT_VECTOR_CATALOGUE: dict[str, tuple[str, ...]] = {
    "custom-oracle-staleness": ("oracle", "stale", "price feed"),
    "sig-missing-nonce": ("replay", "signature"),
    "cir-stale-approval": ("approval", "allowance", "stale"),
    "bva-locked-ether": ("locked", "stuck", "frozen"),
    "bva-formula-mismatch": ("formula", "inconsistent", "accounting"),
    "asm-delegatecall": ("delegatecall",),
    "math-div-before-mul": ("precision", "rounding", "division"),
    "sli-reentrancy": ("reentran",),
    "myt-integer": ("overflow", "underflow"),
}

CCIM_ITEM_CONFIDENCE_ROT = 0.6
CCIM_ITEM_CONFIDENCE_TRUSTGAP = 0.55


class RiskItem(NamedTuple):
    source_tag: str
    id: str
    description: str
    confidence: float
    line_hint: int | None


class Dossier(NamedTuple):
    function: FnKey
    records: tuple[FunctionRecord, ...]      # the function's `ccim.records_of`
    risk_items: list[RiskItem] = []

    @property
    def flagged(self) -> bool:
        return bool(self.risk_items)


class InteractionGroup(NamedTuple):
    kind: str                     # "var" | "call"
    members: tuple[FnKey, ...]
    subject: str                  # shared variable, or "Owner.name" of the callee
    part: int = 1                 # chunk `part` of `parts` of the touchers or callers
    parts: int = 1
    evened: tuple[FnKey, ...] = ()    # chunk `part` of an even cut, if one differs


def compile_dossiers(ccim: CcimModel, merged: MergedSignals) -> list[Dossier]:
    """One dossier per non-interface function; every merged signal attached
    to its target function, with a line-range fallback for name misses."""
    items: dict[FnKey, list[RiskItem]] = {k: [] for k in ccim.keys
                                            if ccim.resolution.kinds.get(k[0]) != "interface"}

    def attach(key: FnKey | None, item: RiskItem, line: int | None):
        if key in items:
            items[key].append(item)
            return
        if line is not None:
            rec = ccim.record_at_line(line)
            if rec is not None and rec.key in items:
                items[rec.key].append(item)
                return
        log.warning("risk item %s names unknown function %s and no usable line; dropped",
                    item.id, key)

    for s in merged.retained:
        attach(s.function, RiskItem(s.source_tag, s.id, s.description, s.confidence, s.line_hint),
               s.line_hint)

    # interaction-model layer-2 facts become risk items of their own
    for var in sorted(ccim.deps.rot):
        for reader in sorted(ccim.deps.readers.get(var, frozenset())):
            attach(reader, RiskItem(
                "CCIM", "ccim-rotation-risk",
                f"{var} is admin-rotatable and consumed as a call target or approval recipient",
                CCIM_ITEM_CONFIDENCE_ROT, None), None)
    for (c1, c2) in sorted(ccim.trust.trustgap):
        # one item per calling function, however many of c2's functions it calls
        for f in sorted({f for f, g in ccim.graph.edges if f[0] == c1 and g[0] == c2 and f in items}):
            attach(f, RiskItem(
                "CCIM", "ccim-trust-gap",
                f"{c1} assumes post-conditions of {c2} that {c2} does not enforce",
                CCIM_ITEM_CONFIDENCE_TRUSTGAP, None), None)

    return [Dossier(k, tuple(ccim.records_of((k,))),
                    sorted(its, key=lambda it: (-it.confidence, it.source_tag, it.id)))
            for k, its in items.items()]


def _facts_block(rec: FunctionRecord) -> str:
    return (
        f"visibility={rec.vis} mutability={rec.mut} modifiers={list(rec.modifiers)}\n"
        f"guards={list(rec.guards)}\n"
        f"reads={sorted(rec.reads)} writes={sorted(rec.writes)}\n"
        f"external_calls={[(s.target, s.method, s.line) for s in rec.call_sites]}\n"
        f"moves_funds={rec.fund_flag} span={rec.src}\n"
        f"source:\n{rec.printed}"
    )


def _phase_a_block(dossier: Dossier) -> str:
    """A dossier's phase A member block: heading, the facts and body of each
    of its records, and its checklist items, each with the id `Owner.name#i`
    that a reply cites."""
    name = f"{dossier.function[0]}.{dossier.function[1]}"
    items = "\n".join(
        f"- {name}#{i}: [{it.source_tag}/{it.id} conf={it.confidence:.2f}] {it.description}"
        + (f" (line {it.line_hint})" if it.line_hint else "")
        for i, it in enumerate(dossier.risk_items, start=1))
    facts = "\n".join(_facts_block(r) for r in dossier.records)
    return f"### {name}\n{facts}\nChecklist items:\n{items}"


def phase_a_verify(dossiers: list[Dossier], reasoner: Reasoner,
                   budget: int = DEFAULT_CHAR_BUDGET) -> list[Finding]:
    """Checklist verification of flagged dossiers, of any contracts, packed
    by `prompts.pack` into as few prompts as fit the budget, a lone dossier
    allowed. A reply item is attributed by `prompts.by_id` to the dossier its
    `item_id` (`Owner.name#i`) names; REAL items with an evidence citation
    become findings, in dossier order."""
    if any(not d.flagged for d in dossiers):
        raise ValueError("phase A takes flagged dossiers only")
    blocks = {d.function: _phase_a_block(d) for d in dossiers}
    found: dict[FnKey, list[Finding]] = {k: [] for k in blocks}
    for chunk, prompt in prompts.pack(prompts.PHASE_A, "members", blocks, budget,
                                      fp_rules=prompts.BUILTIN_FP_RULES):
        reply = ask(reasoner, "phase_a", prompt, budget)
        items = [] if reply is None else reply_list(reply, "items")
        ids = {f"{k[0]}.{k[1]}": k for k in chunk}
        for key, raw in prompts.by_id(items, "item_id", ids, "dossier"):
            verdict = str(raw.get("verdict", "UNCLEAR")).upper()
            line = reply_line(raw.get("evidence_line"))
            if verdict == "REAL" and line is None:
                log.warning("REAL verdict without evidence line on %s; demoted to UNCLEAR", key)
                verdict = "UNCLEAR"
            if verdict != "REAL":
                continue
            payload = dict(raw)
            payload.setdefault("title", f"confirmed risk on {key[1]}")
            payload["evidence_line"] = line
            f = finding_from_payload(payload, "D", [key])
            if f is not None:
                found[key].append(f)
    return [f for fs in found.values() for f in fs]


# --- discovery (phase B) ---------------------------------------------------

DISCOVERY_LENS = ("per-contract bottom-up semantic analysis: logic flaws, economic "
                  "inconsistencies, state-corruption paths, protocol-level attack scenarios")
DISCOVERY_CONTRACTS = 3     # highest-risk contracts packaged per discovery prompt


def contract_priorities(ccim: CcimModel, merged: MergedSignals) -> list[tuple[str, float]]:
    """Contracts ordered by aggregated deterministic risk: the sum of retained
    signal confidences attributed to each contract's functions."""
    scores = {c: 0.0 for c in ccim.scope}
    for s in merged.retained:
        if s.function and s.function[0] in scores:
            scores[s.function[0]] += s.confidence
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def run_discovery_phase(ccim: CcimModel, merged: MergedSignals, reasoner: Reasoner,
                        budget: int = DEFAULT_CHAR_BUDGET) -> list[Finding]:
    """Prompt-packaged discovery pass (phase B): the signal record and the
    prioritized contracts' whole function bodies, as many as `prompts.chunks`
    fits under the budget in priority order; findings parsed from the
    structured reply. The functions left out are named in one warning."""
    records, blocks = [], {}
    for contract, score in contract_priorities(ccim, merged)[:DISCOVERY_CONTRACTS]:
        heading = ("\n" if blocks else "") + f"### {contract} (risk score {score:.2f})\n"
        for r in ccim.owned(contract):
            blocks[len(records)] = heading + r.printed
            records.append(r)
            heading = ""
    fields = {"lens": DISCOVERY_LENS}
    signals = render_markdown(merged)
    room = prompts.room(prompts.PHASE_B, budget, {"contracts": "", "signals": signals}, **fields)
    sent = prompts.chunks(list(blocks), {i: {i: len(b)} for i, b in blocks.items()}, room,
                          least=1)[0]
    if len(sent) < len(records):
        log.warning("phase B prompt holds %d of %d functions; left out: %s", len(sent),
                    len(records), ", ".join(f"{r.owner}.{r.name}" for r in records[len(sent):]))
    contracts = "\n".join(blocks[i] for i in sent)
    prompt = prompts.render(prompts.PHASE_B, budget, {"contracts": contracts, "signals": signals},
                            **fields)
    reply = ask(reasoner, "phase_b", prompt, budget)
    return [] if reply is None else findings_from(reply, "D")


# --- phase C ---------------------------------------------------------------


def _member_blocks(ccim: CcimModel) -> dict[FnKey, str]:
    """One phase C `prompts.source_block` per function key."""
    return {k: prompts.source_block(ccim, k) for k in ccim.keys}


def _review_heading(n: int, kind: str, subject: str, part: int, parts: int) -> str:
    """The heading line of phase C review `C<n>`: what its functions touch."""
    what = f"calls into {subject}" if kind == "call" else f"storage variable {subject}"
    return f"### C{n}: {what}" + (f" (part {part} of {parts})" if parts > 1 else "") + "\n"


# the elementary value types: a `storage` pointer cannot alias a variable of
# one, so only a direct assignment, which the CCIM sees, writes it
_VALUE_TYPE_RE = re.compile(r"u?int\d*|bool|address(?: payable)?|bytes\d+|byte")


def _set_once(ccim: CcimModel, var: str) -> bool:
    """Whether `var` is fixed once construction ends: it has a writer, every
    writer is a constructor, and its declared type is an elementary value
    type or a contract or interface of the audit."""
    writers = ccim.deps.writers.get(var)
    type_text = ccim.resolution.type_map.get(var, "")
    return (bool(writers) and all(k[1] == "constructor" for k in writers)
            and (_VALUE_TYPE_RE.fullmatch(type_text) is not None
                 or ccim.resolution.kinds.get(type_text) in ("contract", "abstract", "interface")))


def _inert(ccim: CcimModel, key: FnKey) -> bool:
    """Whether every overload of `key` has a `{...}` body that is blank in the
    mask, no modifiers and no `payable`: a call into it has no effect."""
    records = ccim.records_of((key,))
    for r in records:
        if (r.modifiers or r.mut == "payable" or not r.has_body
                or ccim.parsed.masked[slice(*r.span)].strip()):
            return False
    return bool(records)


def build_phase_c_interactions(ccim: CcimModel, blocks: dict[FnKey, str],
                               risk: dict[FnKey, float],
                               budget: int = DEFAULT_CHAR_BUDGET) -> list[InteractionGroup]:
    """One interference review per shared variable and one per callee, but
    none that no call can interfere through.

    A review is skipped when its subject cannot change between two calls or
    has no effect to share. A set-once variable, one whose every writer is a
    constructor and whose declared type is an elementary value type or a
    contract or interface of the audit, holds one value after construction.
    An inert callee, every overload of which has a `{...}` body that is blank
    in the mask and no modifier and is not payable, does nothing when called.
    A subject is still reviewed wherever a skip could hide a write that the
    CCIM cannot see: a variable with no visible writer; a mapping, array,
    struct, `string`, `bytes` or unknown type, which a `storage` pointer can
    write unseen; a variable that any non-constructor writes, an
    `initialize()` included; a bodiless callee, as an interface or abstract
    one is; and a callee with a modifier.

    A variable's touchers (writers and readers) are ranked by `risk`, the
    audit's `coverage.key_risks`, highest first, ties by key, and packed
    into "var" groups: consecutive chunks whose source blocks (`blocks`, of
    `_member_blocks`) fit the room that PHASE_C and the widest review heading
    the chunks can carry leave under `budget`, so every review fits in a
    prompt shorter than the budget. No chunk has a single member: a lone
    last toucher takes the previous chunk's last one, which sits in both
    chunks when the previous chunk has only two. Every other toucher lands in
    exactly one chunk, so a prompt is cut only when two blocks are too large
    to fit together. A variable split into k > 1 chunks numbers them 1..k.
    Its touchers are cut again at the room of their mean chunk, the ceiling
    of the sum of their blocks (each with its newline) over k, plus their
    largest block, when that is less than the room; a cut that still takes k
    chunks and differs from the first is each group's `evened` members, for
    `pack_phase_c` to try.

    A callee's callers are ranked and packed the same way into "call" groups
    whose last member is the callee, its block counted in every chunk's
    room. A callee is not its own caller unless it has no other, so a self
    call keeps its (g, g) pair and no review otherwise names a function
    twice."""
    parts = {k: {k: len(b)} for k, b in blocks.items()}
    sizes = {k: 1 + len(b) for k, b in blocks.items()}     # a block and its newline
    shell_room = prompts.room(prompts.PHASE_C, budget, {"reviews": ""})
    groups: list[InteractionGroup] = []

    def add_groups(kind: str, members: frozenset[FnKey] | set[FnKey], subject: str,
                   tail: tuple[FnKey, ...] = ()):
        # highest risk first, ties by key: a reverse sort is stable too
        ranked = sorted(sorted(members), key=risk.__getitem__, reverse=True)
        # no chunk of `ranked` gets a later review number or a longer part
        widest = _review_heading(len(groups) + len(ranked), kind, subject, len(ranked), len(ranked))
        room = shell_room - len(widest) - sum(map(sizes.__getitem__, tail))
        total = sum(map(sizes.__getitem__, ranked))
        # blocks that fit together are one chunk, as `chunks` would cut them
        chunks = [ranked] if total - 1 <= room else prompts.chunks(ranked, parts, room)
        evened = [()] * len(chunks)
        if len(chunks) > 1:
            largest = max(map(sizes.__getitem__, ranked))
            cut = prompts.chunks(ranked, parts, min(room, -(-total // len(chunks)) + largest))
            if len(cut) == len(chunks) and cut != chunks:
                evened = [(*c, *tail) for c in cut]
        groups.extend(InteractionGroup(kind, (*c, *tail), subject, i, len(chunks), e)
                      for i, (c, e) in enumerate(zip(chunks, evened), start=1))

    for var in sorted(set(ccim.deps.writers) | set(ccim.deps.readers)):
        touchers = ccim.deps.writers.get(var, frozenset()) | ccim.deps.readers.get(var, frozenset())
        if len(touchers) >= 2 and not _set_once(ccim, var):
            add_groups("var", touchers, var)
    for g in sorted({g for _, g in ccim.graph.edges}):
        if not _inert(ccim, g):
            add_groups("call", ccim.graph.callers(g) - {g} or {g}, f"{g[0]}.{g[1]}", (g,))
    return groups


def pack_phase_c(ccim: CcimModel, blocks: dict[FnKey, str], risk: dict[FnKey, float],
                 budget: int = DEFAULT_CHAR_BUDGET
                 ) -> tuple[list[InteractionGroup], list[tuple[list[int], str]]]:
    """The groups phase C sends and their packing: the n-th group is review
    `C<n>`, a section of its heading and one `// Owner.name` line per member,
    packed by `prompts.pack_sections` into the room PHASE_C leaves under
    `budget`. The groups of `build_phase_c_interactions` are packed; when a
    split review has an even cut, the groups with every such cut (`evened`)
    are packed too, and the packing of fewer prompts wins, then of fewer
    characters, the first on a tie. The even cut is only a candidate: a
    greedy split leaves a full chunk and a short tail that the rest of its
    contract's reviews can fill, while even chunks may each be too full to
    share a prompt."""
    groups = build_phase_c_interactions(ccim, blocks, risk, budget)
    headings = [_review_heading(n, g.kind, g.subject, g.part, g.parts)
                for n, g in enumerate(groups, start=1)]
    room = prompts.room(prompts.PHASE_C, budget, {"reviews": ""})
    cuts = [groups]
    if any(g.evened for g in groups):
        cuts.append([g._replace(members=g.evened) if g.evened else g for g in groups])
    packings = [prompts.pack_sections(headings, [g.members for g in cut], blocks, room)
                for cut in cuts]
    best = min(range(len(cuts)),
               key=lambda c: (len(packings[c]), sum(len(text) for _, text in packings[c])))
    return cuts[best], packings[best]


def run_phase_c(ccim: CcimModel, reasoner: Reasoner, risk: dict[FnKey, float],
                budget: int = DEFAULT_CHAR_BUDGET) -> list[Finding]:
    """Interference reviews, several per prompt, as `pack_phase_c` groups and
    packs them: one contract's reviews share prompts, a function's first
    mention in a prompt is its source block and each body is printed once per
    prompt. A reply's "reviews" entry is attributed to the review its
    `review_id` names, and each review's payload is the reply's top-level
    fields overridden by its own entry (`prompts.payloads`), so a reply of
    one top-level verdict judges every review of its prompt. Each VULNERABLE
    review becomes a finding on its group's members; the findings come in
    group order, whatever the packing."""
    groups, packed = pack_phase_c(ccim, _member_blocks(ccim), risk, budget)
    found: dict[int, Finding] = {}
    for chunk, reviews in packed:
        reply = ask(reasoner, "phase_c",
                    prompts.render(prompts.PHASE_C, budget, {"reviews": reviews}), budget)
        ids = {f"C{i + 1}": i for i in chunk}
        for i, payload in prompts.payloads(reply, "reviews", "review_id", ids, "review").items():
            if str(payload.get("verdict", "UNCLEAR")).upper() != "VULNERABLE":
                continue
            payload.setdefault("title", f"interference on {groups[i].subject}")
            f = finding_from_payload(payload, "D", list(groups[i].members))
            if f is not None:
                found[i] = f
    return [found[i] for i in sorted(found)]


# --- phase D ---------------------------------------------------------------


def _vector_match(finding: Finding, signals: MergedSignals | None) -> bool:
    if signals is None:
        return False
    text = None     # lower-cased once a retained signal lies on an affected function
    affected = set(finding.affected_functions)
    for s in signals.retained:
        if s.function not in affected:
            continue
        if text is None:
            text = finding.text().lower()
        for prefix, keywords in DEFAULT_VECTOR_CATALOGUE.items():
            if s.id.startswith(prefix) and any(k in text for k in keywords):
                return True
    return False


def cite_line(finding: Finding, ccim: CcimModel) -> int:
    """The line a verdict cites for a finding: the first line of its first
    resolvable function, else its first evidence line, else line 1."""
    recs = ccim.records_of(finding.affected_functions)
    if recs:
        return recs[0].src[0]
    return finding.evidence_lines[0] if finding.evidence_lines else 1


def phase_d_prefilter(finding: Finding, ccim: CcimModel,
                      signals: MergedSignals | None = None) -> VerdictRecord | None:
    """Deterministic routing, in precedence order. The first route that
    decides applies its side effect and returns its stage-3 record:
    admin trust (severity LOW, flag `admin-trust`, PASSED), vector confirmed
    (flag `vector-confirmed`, CONFIRMED) or graph skip (DISPROVED at the
    cited line). None when only the reasoner can decide. The graph skip, the
    one drop, rests on every overload's header mutability and on the call
    graph, whose edges are the resolved `call` effects: a view function that
    another contract reaches by a call on a parameter, a cast or an
    unresolved target is on no edge, and is dropped as unreachable."""
    records = ccim.records_of(finding.affected_functions)

    external = [r for r in records if r.vis in ("public", "external")]
    if external and all(ccim.is_admin(r.key) for r in external):
        finding.severity = "LOW"
        finding.flags.add("admin-trust")
        return VerdictRecord(finding.id, "stage3", "PASSED", "admin-trust short-circuit")

    if (_vector_match(finding, signals)
            and finding.confidence >= VECTOR_MIN_CONFIDENCE
            and finding.evidence_lines
            and len(finding.attack_scenario) >= VECTOR_MIN_TRACE_CHARS):
        finding.flags.add("vector-confirmed")
        return VerdictRecord(finding.id, "stage3", "CONFIRMED", "vector-confirmed short-circuit")

    if records and all(r.mut in ("view", "pure") for r in records) \
            and not any(ccim.graph.touches(r.key) for r in records):
        return VerdictRecord(finding.id, "stage3", "DISPROVED",
                             f"line {cite_line(finding, ccim)}: affected functions are view/pure "
                             f"and absent from the call graph; claim unreachable")
    return None


def expand_source_block(finding: Finding, ccim: CcimModel) -> str:
    """Every function the finding mentions plus their callers and callees."""
    keys = dict.fromkeys(k for k in finding.affected_functions if ccim.records_of((k,)))
    for k in list(keys):
        keys.update(dict.fromkeys(sorted(ccim.graph.callers(k) | ccim.graph.callees(k))))
    return "\n\n".join(prompts.source_block(ccim, k) for k in keys)


def _normalize_quote(text: str) -> str:
    return " ".join(text.split())


def phase_d_claim_first(finding: Finding, ccim: CcimModel, reasoner: Reasoner,
                        budget: int = DEFAULT_CHAR_BUDGET) -> str:
    """Claim-first verification: DISPROVED is accepted only when the reply
    quotes a concrete preventing line present in the source block as sent,
    after the budget cut."""
    fields = prompts.fit(prompts.PHASE_D, budget,
                         {"source_block": expand_source_block(finding, ccim)},
                         title=finding.title, description=finding.description)
    reply = ask(reasoner, "phase_d", prompts.PHASE_D.format(**fields), budget)
    if reply is None:
        finding.flags.add("reasoner-failure")
        return "UNCLEAR"
    verdict = str(reply.get("verdict", "UNCLEAR")).upper()
    if verdict == "DISPROVED":
        quote = _normalize_quote(str(reply.get("quote", "")))
        if not quote or quote not in _normalize_quote(fields["source_block"]):
            finding.flags.add("protocol-violation")
            log.warning("phase D DISPROVED without verifiable quote on %s %r; downgraded",
                        finding.id, finding.title)
            return "UNCLEAR"
    if verdict not in ("DISPROVED", "CONFIRMED", "UNCLEAR"):
        verdict = "UNCLEAR"
    return verdict


def phase_d_verify(finding: Finding, ccim: CcimModel, reasoner: Reasoner,
                   signals: MergedSignals | None = None,
                   budget: int = DEFAULT_CHAR_BUDGET) -> VerdictRecord:
    """Phase D's verdict on one finding, as funnel stage 3's record: the
    prefilter's record when a route decides, else the claim-first verdict
    mapped to DISPROVED, CONFIRMED or UNCERTAIN. The claim-first verdict is
    recorded on the finding, and a later call reuses it instead of asking
    again."""
    record = phase_d_prefilter(finding, ccim, signals)
    if record is not None:
        return record
    if finding.claim_verdict is None:
        finding.claim_verdict = phase_d_claim_first(finding, ccim, reasoner, budget)
    verdict = "UNCERTAIN" if finding.claim_verdict == "UNCLEAR" else finding.claim_verdict
    return VerdictRecord(finding.id, "stage3", verdict, "claim-first protocol", reasoner_used=True)


# --- phase E ---------------------------------------------------------------


# phase E is the six severity rules of `calibrate_one` over the parsed
# access-control evidence, with no reasoner call; a reasoner's own severity
# comes back only in the SVE layer-2 reply. `dd_run` calls it by this name, so
# a tracer that wraps it times phase E
phase_e_recalibrate = calibrate_one


# --- pipeline runner -------------------------------------------------------


def dd_run(ccim: CcimModel, merged: MergedSignals, reasoner: Reasoner,
           risk: dict[FnKey, float], *, budget: int = DEFAULT_CHAR_BUDGET) -> list[Finding]:
    """Full dossier-driven pipeline: dossiers -> A -> discovery (B) -> C ->
    D routing/claim-first -> E deterministic recalibration -> renumbered
    finding set. `risk` is the audit's `coverage.key_risks`, which ranks
    phase C's reviews."""
    flagged = [d for d in compile_dossiers(ccim, merged) if d.flagged]

    findings = phase_a_verify(flagged, reasoner, budget)
    findings.extend(run_discovery_phase(ccim, merged, reasoner, budget))
    findings.extend(run_phase_c(ccim, reasoner, risk, budget=budget))

    survivors: list[Finding] = []
    for f in findings:
        record = phase_d_verify(f, ccim, reasoner, merged, budget)
        if record.verdict == "DISPROVED":
            log.info("finding %r disproved in phase D (%s)", f.title, record.evidence)
            continue
        if record.verdict == "UNCERTAIN":
            f.flags.add("unverified")
        survivors.append(f)

    for f in survivors:
        phase_e_recalibrate(f, ccim)
    return renumber(survivors, "D")
