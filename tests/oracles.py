"""Independent brute-force oracles for the fixpoint, security-view and
clustering checks. These deliberately use different algorithms than the
implementations they verify and must stay that way."""

from __future__ import annotations

from solaudit.ccim import CcimModel, FunctionRecord


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
