"""Behavioral engines over the interaction model: deviant-pattern mining,
stale-commitment detection, integration risk questions and the reduced-scope
precondition-consistency checker."""

from __future__ import annotations

import logging
import re
from collections import Counter
from functools import cache

from ..ccim import CcimModel, FunctionRecord
from ..ccim.parse import NAME_RE
from .signal import Signal

log = logging.getLogger(__name__)

BPM_MIN_WRITERS = 3  # two writers cannot define a majority pattern


def _guard_patterns(record: FunctionRecord) -> frozenset[str]:
    mods = {m.split("(")[0] for m in record.modifiers}
    return frozenset(mods | set(record.guards))


def _first_line(ccim: CcimModel, key) -> int:
    return ccim.records_of((key,))[0].src[0]


def run_bpm(ccim: CcimModel) -> list[Signal]:
    """Writers that deviate from the majority guard or co-modification pattern
    of their variable's writer set."""
    signals: list[Signal] = []
    # each writer's guard patterns (those every overload holds) and qualified
    # writes, once per run
    patterns = cache(lambda w: frozenset.intersection(*map(_guard_patterns, ccim.records_of((w,)))))
    writes_q = cache(ccim.writes_q)
    for var in sorted(ccim.deps.writers):
        writers = sorted(ccim.deps.writers[var])
        if len(writers) < BPM_MIN_WRITERS:
            continue
        holders = Counter(p for w in writers for p in patterns(w))
        majority = {p: n / len(writers) for p, n in holders.items()
                    if n * 2 > len(writers) and n < len(writers)}
        for w in writers:
            missing = sorted(p for p in majority if p not in patterns(w))
            if missing:
                signals.append(Signal(
                    source_tag="BPM", id="bpm-guard-deviation",
                    description=(f"{w[0]}.{w[1]} writes {var} without the guard(s) "
                                 f"{', '.join(missing)} shared by the majority of writers"),
                    severity="MEDIUM",
                    confidence=round(max(majority[p] for p in missing), 2),
                    function=w, line_hint=_first_line(ccim, w),
                ))
        signals.extend(_comod_deviants(ccim, var, writers, writes_q))
    return signals


def _comod_deviants(ccim: CcimModel, var: str, writers: list, writes_q) -> list[Signal]:
    co_holders: dict[str, set] = {}
    for w in writers:
        for u_q in writes_q(w):
            if u_q != var:
                co_holders.setdefault(u_q, set()).add(w)
    signals = []
    deviants: dict[tuple, list[str]] = {}
    for u in sorted(co_holders):
        holders = co_holders[u]
        if len(holders) * 2 > len(writers) and len(holders) < len(writers):
            for w in writers:
                if w not in holders:
                    deviants.setdefault(w, []).append(u)
    for w in sorted(deviants):
        signals.append(Signal(
            source_tag="BPM", id="bpm-comodification-deviation",
            description=(f"{w[0]}.{w[1]} writes {var} without also updating "
                         f"{', '.join(deviants[w])} as most writers do"),
            severity="MEDIUM", confidence=0.55,
            function=w, line_hint=_first_line(ccim, w),
        ))
    return signals


_ZERO_APPROVAL_RE = re.compile(r"\w+\s*\(\s*[^,()]+,\s*0\s*\)")   # at an `approve` effect


def run_cir(ccim: CcimModel) -> list[Signal]:
    """Approval recipients rotated without a co-located revocation."""
    approved_vars = sorted({v for vs in ccim.deps.approvals.values() for v in vs})
    signals = []
    seen: set[tuple] = set()
    for var in approved_vars:
        for writer in sorted(ccim.deps.writers.get(var, frozenset())):
            if (writer, var) in seen:
                continue
            seen.add((writer, var))
            # revoked only when every overload of the writer revokes
            if all(any(kind == "approve" and _ZERO_APPROVAL_RE.match(ccim.parsed.masked, pos)
                       for pos, kind, _ in r.effects) for r in ccim.records_of((writer,))):
                continue
            signals.append(Signal(
                source_tag="CIR", id="cir-stale-approval",
                description=(f"{writer[0]}.{writer[1]} rotates approval recipient {var} "
                             f"without revoking the outstanding approval (no approve-to-zero)"),
                severity="MEDIUM", confidence=0.65,
                function=writer, line_hint=_first_line(ccim, writer),
            ))
    return signals


def run_ira(ccim: CcimModel) -> list[Signal]:
    """INFO-severity follow-up questions at external call boundaries; these
    prime later reasoning, they are not verdicts."""
    signals = []
    for rec in sorted(ccim.records, key=lambda r: r.src[0]):
        if not rec.call_sites:
            continue
        first_line = rec.call_sites[0].line

        def q(qid: str, text: str, line: int = first_line):
            signals.append(Signal(
                source_tag="IRA", id=qid, description=text,
                severity="INFO", confidence=0.3, function=rec.key, line_hint=line,
            ))

        q("ira-return-value",
          f"does {rec.name} handle the return values of its {len(rec.call_sites)} external call(s)?")
        if ccim.footprints.writes.get(rec.key):
            q("ira-reentrancy-window",
              f"{rec.name} writes state and calls out; is the write ordered safely around the call?")
        unresolved = [s for s in rec.call_sites
                      if ccim.resolution.resolve(ccim.resolution.var_id(rec.owner, s.target)) is None]
        if unresolved:
            q("ira-unresolved-target",
              f"call target(s) {', '.join(sorted({s.target for s in unresolved}))} in {rec.name} "
              f"do not resolve to an in-scope contract; what code runs there?",
              unresolved[0].line)
        for site in rec.call_sites:
            callee_contract = ccim.resolution.resolve(ccim.resolution.var_id(rec.owner, site.target))
            if callee_contract and (rec.owner, callee_contract) in ccim.trust.trustgap:
                q("ira-trust-gap",
                  f"{rec.owner} assumes post-conditions of {callee_contract} that "
                  f"{callee_contract} does not enforce toward {rec.owner}",
                  site.line)
                break
    return signals


# --- reduced-scope precondition consistency -------------------------------
# The full inferred-typestate algorithm is not reproduced here; preconditions
# are the require guards mentioning a parameter or state variable, and a chain
# is flagged when the caller establishes none of the callee's preconditions.


def infer_preconditions(record: FunctionRecord) -> frozenset[str]:
    tokens = set(record.params) | set(record.reads) | set(record.writes)
    out = set()
    for g in record.guards:
        idents = set(NAME_RE.findall(g))
        if idents & tokens:
            out.add(g)
    return frozenset(out)


def itpc_high_risk(record: FunctionRecord, fund_transitive: bool) -> bool:
    """Value-handling functions with unchecked arithmetic get standalone audit slots."""
    handles_value = fund_transitive or record.mut == "payable"
    return handles_value and record.unchecked


def run_itpc_lite(ccim: CcimModel) -> list[Signal]:
    """Caller-callee chains (same-contract internal calls, then call-graph
    edges) whose caller leaves a precondition of the callee unestablished. A
    callee's preconditions are those of any of its overloads; a caller
    establishes a guard only when every overload of it holds the guard."""
    chains = [(r.key, (r.owner, name)) for r in sorted(ccim.records, key=lambda r: r.src[0])
              for name in sorted(r.internal_calls) if name != r.name]
    chains += sorted(ccim.graph.edges)
    signals = []
    seen = set()
    for f, g in chains:
        callers, callees = ccim.records_of((f,)), ccim.records_of((g,))
        if (f, g) in seen or not callees:
            continue
        seen.add((f, g))
        preconditions = frozenset().union(*map(infer_preconditions, callees))
        established = frozenset.intersection(*(frozenset(r.guards) for r in callers))
        missing = sorted(preconditions - established)
        if missing:
            signals.append(Signal(
                source_tag="ITPC", id="itpc-precondition-gap",
                description=(f"{f[0]}.{f[1]} reaches {g[0]}.{g[1]} "
                             f"without establishing its precondition(s): {'; '.join(missing)}"),
                severity="LOW", confidence=0.4,
                function=f, line_hint=callers[0].src[0],
            ))
    return signals
