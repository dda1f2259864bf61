"""Cross-pipeline merge algebra: disjoint union with pipeline tags,
structural-card root-cause clustering, the cross-pipeline indicator and the
clipped confidence boost."""

from __future__ import annotations

import logging
from typing import NamedTuple

from .ccim import CcimModel
from .engines import MergedSignals
from .findings import (
    CONF_MAX,
    CONF_MIN,
    Finding,
    StructuralCard,
    classify_impact,
)

log = logging.getLogger(__name__)

CROSS_PIPELINE_BONUS = 0.30

# base-confidence substitute: severity prior plus capped corroboration credit
SEVERITY_PRIOR = {"CRITICAL": 0.6, "HIGH": 0.5, "MEDIUM": 0.4, "LOW": 0.3, "INFO": 0.2}
CORROBORATION_STEP = 0.1
CORROBORATION_CAP = 3


class ClusterPartition(NamedTuple):
    clusters: tuple[frozenset[str], ...]       # disjoint finding-id sets covering F
    assignment: dict[str, int]                 # finding id -> cluster index

    def cluster_of(self, finding_id: str) -> frozenset[str]:
        return self.clusters[self.assignment[finding_id]]


class MergedFindingSet(NamedTuple):
    findings: list[Finding]
    pi: dict[str, str]                         # finding id -> D | I
    partition: ClusterPartition
    conf_post: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "pi": dict(sorted(self.pi.items())),
            "clusters": [sorted(c) for c in self.partition.clusters],
            "conf_post": {k: round(v, 6) for k, v in sorted(self.conf_post.items())},
        }


def tag_and_union(f_d: list[Finding], f_i: list[Finding]) -> tuple[list[Finding], dict[str, str]]:
    """Disjoint union; per-pipeline renumbering upstream guarantees disjoint id
    spaces, and a collision here is a hard invariant violation."""
    pi: dict[str, str] = {}
    for f in f_d:
        pi[f.id] = "D"
    for f in f_i:
        if f.id in pi:
            raise ValueError(f"finding id collision across pipelines: {f.id}")
        pi[f.id] = "I"
    return list(f_d) + list(f_i), pi


def extract_card(finding: Finding, ccim: CcimModel) -> StructuralCard:
    """Root-cause card: first resolvable affected function, the uniquely
    written variable behind the evidence lines, the attacker role from guard
    classification, and the keyword impact class."""
    vulnerable = next((k for k in finding.affected_functions if ccim.records_of((k,))), None)
    if vulnerable is None:
        vulnerable = finding.affected_functions[0] if finding.affected_functions else ("?", "?")
    recs = ccim.records_of((vulnerable,))

    abused = None
    write_union: set[str] = set()
    for line in finding.evidence_lines:
        rec = ccim.record_at_line(line)
        if rec is not None:
            write_union |= rec.writes
    if not write_union:
        write_union = set().union(*(r.writes for r in recs))
    if len(write_union) == 1:
        abused = next(iter(write_union))

    # the least privilege that reaches some overload of the function
    role = "unauthenticated"
    exposed = [r for r in recs if r.vis not in ("internal", "private")]
    if recs:
        if ccim.is_admin(vulnerable):
            role = "admin"
        elif not exposed:
            role = "contract"
        elif all(any("msg.sender" in g for g in r.guards) for r in exposed):
            role = "user"

    return StructuralCard(
        vulnerable_function=vulnerable,
        abused_state_variable=abused,
        attacker_role=role,
        impact_class=classify_impact(finding.text()),
    )


def cluster(findings: list[Finding], cards: dict[str, StructuralCard]) -> ClusterPartition:
    """Equivalence clustering on card agreement (vulnerable function, abused
    variable, impact class)."""
    by_key: dict[tuple, list[str]] = {}
    for f in findings:
        by_key.setdefault(cards[f.id].cluster_key(), []).append(f.id)
    clusters = []
    assignment = {}
    for key in sorted(by_key, key=str):
        idx = len(clusters)
        members = frozenset(by_key[key])
        clusters.append(members)
        for fid in members:
            assignment[fid] = idx
    return ClusterPartition(clusters=tuple(clusters), assignment=assignment)


def cross_indicator(cluster_ids: frozenset[str] | set[str], pi: dict[str, str]) -> int:
    """1 iff both pipelines contributed to the cluster; singletons are 0."""
    if not cluster_ids:
        raise ValueError("cross indicator undefined for an empty cluster")
    return 1 if {pi[fid] for fid in cluster_ids} == {"D", "I"} else 0


def boost_confidence(conf: float, chi: int) -> float:
    """conf' = min(0.95, conf + 0.30 * chi), exactly; conf must already lie in
    the reporting interval."""
    if not CONF_MIN <= conf <= CONF_MAX:
        raise ValueError(f"confidence {conf} outside reporting interval [{CONF_MIN}, {CONF_MAX}]")
    if chi not in (0, 1):
        raise ValueError(f"cross-pipeline indicator must be 0 or 1, got {chi}")
    return min(CONF_MAX, conf + CROSS_PIPELINE_BONUS * chi)


def base_confidence(finding: Finding, ccim: CcimModel,
                    signals: MergedSignals | None = None) -> float:
    """Smart-triage base score: severity prior plus 0.1 per corroborating
    deterministic signal on an affected function, capped at three, clamped to
    the reporting interval."""
    prior = SEVERITY_PRIOR.get(finding.severity, 0.3)
    corroborating = 0
    if signals is not None:
        affected = set(finding.affected_functions)
        corroborating = sum(1 for s in signals.retained if s.function in affected)
    score = prior + CORROBORATION_STEP * min(CORROBORATION_CAP, corroborating)
    return max(CONF_MIN, min(CONF_MAX, score))


def merge(f_d: list[Finding], f_i: list[Finding], ccim: CcimModel,
          signals: MergedSignals | None = None) -> MergedFindingSet:
    """Tag, cluster, score: every finding in a cross-pipeline cluster gains the
    clipped +0.30 bonus and the matching ids from the other pipeline."""
    findings, pi = tag_and_union(f_d, f_i)
    cards = {f.id: (f.card or extract_card(f, ccim)) for f in findings}
    for f in findings:
        f.card = cards[f.id]
    partition = cluster(findings, cards)

    conf_post: dict[str, float] = {}
    for f in findings:
        members = partition.cluster_of(f.id)
        chi = cross_indicator(members, pi)
        conf = base_confidence(f, ccim, signals)
        boosted = boost_confidence(conf, chi)
        conf_post[f.id] = boosted
        f.confidence = boosted
        if chi:
            f.flags.add("cross-pipeline")
            f.matched_ids.extend(sorted(m for m in members if pi[m] != pi[f.id]))
    return MergedFindingSet(findings=findings, pi=pi, partition=partition,
                            conf_post=conf_post)
