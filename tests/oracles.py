"""Independent brute-force oracles for the fixpoint, security-view,
clustering, mask and pair-selection checks. These deliberately use different
algorithms than the implementations they verify and must stay that way."""

from __future__ import annotations

from solaudit.ccim import CcimModel, FnKey, FunctionRecord
from solaudit.engines import COUNTER_STEMS, MergedSignals
from solaudit.interaction import (
    ATTENTION_SHARED_WRITE_BONUS,
    ATTENTION_THRESHOLD,
    SOURCE_CONFIDENCE,
    PairCandidate,
    _auditable,
    _low_risk_contracts,
    _reasoner_triage,
)
from solaudit.reasoner import DEFAULT_CHAR_BUDGET, Reasoner


def reachable_internal(record: FunctionRecord, by_owner: dict) -> set:
    """All records reachable from `record` through same-contract internal
    calls, including itself (plain BFS)."""
    own = by_owner[record.owner]
    seen = {record.name}
    frontier = [record.name]
    while frontier:
        current = own.get(frontier.pop())
        if current is None:
            continue
        for callee in current.internal_calls:
            if callee not in seen and callee in own:
                seen.add(callee)
                frontier.append(callee)
    return {own[n] for n in seen if n in own}


def brute_force_footprints(records: list[FunctionRecord]):
    by_owner: dict[str, dict[str, FunctionRecord]] = {}
    for r in records:
        by_owner.setdefault(r.owner, {})[r.name] = r
    reads, writes, fund = {}, {}, {}
    for r in records:
        closure = reachable_internal(r, by_owner)
        reads[r.key] = frozenset().union(*(g.reads for g in closure)) if closure else frozenset()
        writes[r.key] = frozenset().union(*(g.writes for g in closure)) if closure else frozenset()
        fund[r.key] = any(g.fund_flag for g in closure)
    return reads, writes, fund


def brute_force_rot(ccim: CcimModel) -> set[str]:
    all_vars = set(ccim.deps.writers) | set(ccim.deps.readers) | set(ccim.deps.consumers)
    out = set()
    for v in all_vars:
        admin_writable = any(w in ccim.admin_set for w in ccim.deps.writers.get(v, frozenset()))
        consumed = bool(ccim.deps.consumers.get(v, frozenset()))
        if admin_writable and consumed:
            out.add(v)
    return out


def brute_force_callbacks(ccim: CcimModel) -> set[tuple[str, str]]:
    out = set()
    contracts = {c for edge in ccim.graph.contract_edges for c in edge}
    for c1 in contracts:
        for c2 in contracts:
            if c1 < c2 and (c1, c2) in ccim.graph.contract_edges \
                    and (c2, c1) in ccim.graph.contract_edges:
                out.add((c1, c2))
    return out


def brute_force_trustgap(ccim: CcimModel) -> set[tuple[str, str]]:
    out = set()
    for (c1, c2) in ccim.graph.contract_edges:
        assumed = ccim.trust.assumes.get((c1, c2), frozenset())
        enforced = ccim.trust.enforces.get((c2, c1), frozenset())
        if any(p not in enforced for p in assumed):
            out.add((c1, c2))
    return out


def brute_force_mask(text: str) -> str:
    """Blank comments and string-literal contents one character at a time:
    the character loop that `mask_noncode`'s one regex substitution replaced."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                if i < n and text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def brute_force_line_of(text: str, pos: int) -> int:
    """1-based line of offset `pos`, by counting the newlines before it."""
    return text.count("\n", 0, pos) + 1


def brute_force_partition(findings, cards) -> set[frozenset[str]]:
    """O(n^2) pairwise card-equality grouping, independent of the dict-keyed
    implementation."""
    ids = [f.id for f in findings]
    clusters: list[set[str]] = []
    for fid in ids:
        placed = False
        for cluster in clusters:
            member = next(iter(cluster))
            if cards[fid].cluster_key() == cards[member].cluster_key():
                cluster.add(fid)
                placed = True
                break
        if not placed:
            clusters.append({fid})
    return {frozenset(c) for c in clusters}


def _canonical(a: FnKey, b: FnKey) -> tuple[FnKey, FnKey]:
    return (a, b) if a <= b else (b, a)


def brute_force_select_pairs(ccim: CcimModel, merged: MergedSignals,
                             reasoner: Reasoner | None = None,
                             budget: int = DEFAULT_CHAR_BUDGET) -> list[PairCandidate]:
    """`interaction.select_pairs` as it was before top-`max_pairs` selection:
    a candidate for every nomination, every pair of records intersected for
    shared writes, and the full candidate list sorted. Slice it to compare
    with a limited selection."""
    records = _auditable(ccim)
    candidates: dict[tuple[FnKey, FnKey], PairCandidate] = {}

    def nominate(a: FnKey, b: FnKey, source: str):
        if a == b:
            return
        key = _canonical(a, b)
        cand = candidates.setdefault(key, PairCandidate(pair=key))
        cand.sources.add(source)
        cand.source_confidence = max(cand.source_confidence, SOURCE_CONFIDENCE[source])

    # (iii) shared-state: both functions write the same storage variable
    writes = [(r.key, ccim.writes_q(r.key)) for r in records]
    shared_writes: dict[tuple[FnKey, FnKey], int] = {}
    for i, (a, wa) in enumerate(writes):
        if not wa:
            continue
        for b, wb in writes[i + 1:]:
            shared = wa & wb
            if shared:
                nominate(a, b, "SHARED_STATE")
                shared_writes[_canonical(a, b)] = len(shared)

    # (ii) counter-pairs by naming idiom, same contract
    by_owner: dict[str, list[FunctionRecord]] = {}
    for r in records:
        by_owner.setdefault(r.owner, []).append(r)
    for owner, recs in by_owner.items():
        for a_stem, b_stem in COUNTER_STEMS:
            a_side = [r for r in recs if r.name.lower().startswith(a_stem)]
            b_side = [r for r in recs if r.name.lower().startswith(b_stem)]
            for ra in a_side:
                for rb in b_side:
                    nominate(ra.key, rb.key, "COUNTER")

    # (i) attention hotspots: signal mass plus shared-write coupling
    signal_conf: dict[FnKey, float] = {}
    for s in merged.retained:
        if s.function:
            signal_conf[s.function] = signal_conf.get(s.function, 0.0) + s.confidence
    relations = set(shared_writes) | {_canonical(f, g) for f, g in ccim.graph.edges}
    for a, b in sorted(relations):
        score = (signal_conf.get(a, 0.0) + signal_conf.get(b, 0.0)
                 + ATTENTION_SHARED_WRITE_BONUS * shared_writes.get((a, b), 0))
        if score >= ATTENTION_THRESHOLD:
            nominate(a, b, "HOTSPOT")

    # (iv) triage pairs: signal-bearing functions sharing a parameter, a state
    # read, or a trust boundary
    flagged = sorted(signal_conf)
    for i, a in enumerate(flagged):
        ra = ccim.record(*a)
        if ra is None:
            continue
        for b in flagged[i + 1:]:
            rb = ccim.record(*b)
            if rb is None:
                continue
            shares_param = bool(set(ra.params) & set(rb.params))
            shares_read = bool(ccim.reads_q(a) & ccim.reads_q(b))
            edge = (a, b) in ccim.graph.edges or (b, a) in ccim.graph.edges
            gap = (ra.owner, rb.owner) in ccim.trust.trustgap or \
                  (rb.owner, ra.owner) in ccim.trust.trustgap
            if shares_param or shares_read or edge or gap:
                nominate(a, b, "TRIAGE")

    # (v) optional reasoner triage for contracts with no high-severity signals
    if reasoner is not None:
        low_risk = _low_risk_contracts(ccim, merged)
        if low_risk:
            for a, b in _reasoner_triage(ccim, low_risk, reasoner, budget):
                nominate(a, b, "LLM_TRIAGE")

    ordered = sorted(candidates.values(), key=lambda c: (-c.source_confidence, c.pair))
    return ordered
