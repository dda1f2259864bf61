from __future__ import annotations

import itertools
import random

import pytest

from helpers import make_finding
from oracles import brute_force_partition

from solaudit.findings import StructuralCard
from solaudit.merge import (
    ClusterPartition,
    boost_confidence,
    cluster,
    cross_indicator,
    extract_card,
    merge,
    tag_and_union,
)


def _card(fn=("Vault", "withdraw"), var="balances", impact="fund-theft", role="unauthenticated"):
    return StructuralCard(vulnerable_function=fn, abused_state_variable=var,
                          attacker_role=role, impact_class=impact)


# --- union and tagging -----------------------------------------------------------


def test_tag_and_union_sizes():
    f_d = [make_finding(fid=f"D-{i:03d}") for i in range(1, 4)]
    f_i = [make_finding(fid=f"I-{i:03d}", pipeline="I") for i in range(1, 3)]
    merged, pi = tag_and_union(f_d, f_i)
    assert len(merged) == 5
    assert sum(1 for v in pi.values() if v == "D") == 3
    assert sum(1 for v in pi.values() if v == "I") == 2


def test_tag_and_union_empty_side():
    merged, pi = tag_and_union([make_finding(fid="D-001")], [])
    assert set(pi.values()) == {"D"}


def test_tag_and_union_collision():
    with pytest.raises(ValueError):
        tag_and_union([make_finding(fid="X-001")], [make_finding(fid="X-001", pipeline="I")])


# --- card extraction ----------------------------------------------------------------


def test_extract_card_reentrancy_shape(models):
    ccim = models["vault_oracle"]
    rec = ccim.records_of([("Vault", "withdraw")])[0]
    f = make_finding(title="reentrancy in withdraw drains balances",
                     description="external call before state update",
                     functions=[("Vault", "withdraw")], lines=(rec.src[0] + 1,))
    card = extract_card(f, ccim)
    assert card.vulnerable_function == ("Vault", "withdraw")
    assert card.abused_state_variable == "balances"
    assert card.attacker_role == "unauthenticated"
    assert card.impact_class == "fund-theft"


def test_extract_card_admin_role(models):
    f = make_finding(title="oracle swap", description="owner swaps the oracle",
                     functions=[("Vault", "setOracle")])
    card = extract_card(f, models["vault_oracle"])
    assert card.attacker_role == "admin"


def test_extract_card_low_fidelity(models):
    f = make_finding(functions=[("Ghost", "phantom")])
    card = extract_card(f, models["vault_oracle"])
    # an unresolvable function still names the card
    assert card.vulnerable_function == ("Ghost", "phantom")


# --- clustering ------------------------------------------------------------------------


def test_cluster_same_cards_one_cluster():
    a, b = make_finding(fid="D-001"), make_finding(fid="I-001", pipeline="I")
    cards = {"D-001": _card(), "I-001": _card()}
    partition = cluster([a, b], cards)
    assert len(partition.clusters) == 1
    assert partition.clusters[0] == frozenset({"D-001", "I-001"})


def test_cluster_distinct_cards_singletons():
    findings = [make_finding(fid=f"D-{i:03d}") for i in range(1, 4)]
    cards = {f.id: _card(var=f"v{i}") for i, f in enumerate(findings)}
    partition = cluster(findings, cards)
    assert len(partition.clusters) == 3


def test_cluster_transitivity_chain():
    findings = [make_finding(fid=f"D-{i:03d}") for i in range(1, 4)]
    cards = {f.id: _card() for f in findings}
    partition = cluster(findings, cards)
    assert len(partition.clusters) == 1
    assert len(partition.clusters[0]) == 3


def test_cluster_ignores_attacker_role():
    a, b = make_finding(fid="D-001"), make_finding(fid="I-001", pipeline="I")
    cards = {"D-001": _card(role="admin"), "I-001": _card(role="user")}
    assert len(cluster([a, b], cards).clusters) == 1


def test_partition_laws_randomized():
    rng = random.Random(20260809)
    for trial in range(1000):
        n = rng.randint(0, 12)
        findings = []
        cards = {}
        for i in range(n):
            pipeline = rng.choice("DI")
            fid = f"{pipeline}-{i:03d}"
            findings.append(make_finding(fid=fid, pipeline=pipeline))
            cards[fid] = _card(
                fn=("C", rng.choice("fgh")),
                var=rng.choice(["x", "y", None]),
                impact=rng.choice(["fund-theft", "dos"]),
            )
        partition = cluster(findings, cards)
        members = [fid for c in partition.clusters for fid in c]
        assert len(members) == len(set(members)) == n          # disjoint
        assert set(members) == {f.id for f in findings}        # covering
        for f in findings:                                     # f in sc(f)
            assert f.id in partition.cluster_of(f.id)


def test_partition_matches_brute_force_small_sets():
    rng = random.Random(99)
    for trial in range(200):
        n = rng.randint(0, 6)
        findings = [make_finding(fid=f"D-{i:03d}") for i in range(n)]
        cards = {
            f.id: _card(fn=("C", rng.choice("fg")), var=rng.choice(["x", None]),
                        impact=rng.choice(["fund-theft", "dos"]))
            for f in findings
        }
        partition = cluster(findings, cards)
        assert {frozenset(c) for c in partition.clusters} == \
            brute_force_partition(findings, cards)


# --- cross indicator --------------------------------------------------------------------


def test_cross_indicator_exhaustive_up_to_four():
    for size in range(1, 5):
        for labels in itertools.product("DI", repeat=size):
            ids = [f"{labels[i]}-{i:03d}" for i in range(size)]
            pi = {fid: fid[0] for fid in ids}
            expected = 1 if set(labels) == {"D", "I"} else 0
            assert cross_indicator(frozenset(ids), pi) == expected


def test_cross_indicator_singleton_zero():
    assert cross_indicator({"D-001"}, {"D-001": "D"}) == 0
    assert cross_indicator({"I-001"}, {"I-001": "I"}) == 0


def test_cross_indicator_empty_cluster_rejected():
    with pytest.raises(ValueError):
        cross_indicator(frozenset(), {})


# --- confidence boost ---------------------------------------------------------------------


def test_boost_grid_exact():
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    assert grid[0] == 0.05 and grid[-1] == 0.95 and len(grid) == 19
    for conf in grid:
        for chi in (0, 1):
            assert boost_confidence(conf, chi) == min(0.95, conf + 0.30 * chi)


def test_boost_identity_when_not_cross():
    assert boost_confidence(0.50, 0) == 0.50


def test_boost_examples():
    assert boost_confidence(0.50, 1) == 0.80
    assert boost_confidence(0.80, 1) == 0.95


def test_boost_contract_violations():
    with pytest.raises(ValueError):
        boost_confidence(0.96, 1)
    with pytest.raises(ValueError):
        boost_confidence(0.04, 0)
    with pytest.raises(ValueError):
        boost_confidence(0.5, 2)


# --- merge ------------------------------------------------------------------------------------


def _mergeable_pair(models):
    ccim = models["vault_oracle"]
    rec = ccim.records_of([("Vault", "withdraw")])[0]
    line = rec.src[0] + 1
    d = make_finding(fid="D-001", title="reentrancy drains balances",
                     description="call before effects", severity="HIGH",
                     functions=[("Vault", "withdraw")], lines=(line,))
    i = make_finding(fid="I-001", pipeline="I", title="withdraw reentrancy theft",
                     description="stealing via reentrant withdraw", severity="HIGH",
                     functions=[("Vault", "withdraw")], lines=(line,))
    return ccim, d, i


def test_merge_cross_pipeline_bonus(models):
    ccim, d, i = _mergeable_pair(models)
    merged = merge([d], [i], ccim)
    assert merged.pi == {"D-001": "D", "I-001": "I"}
    assert len(merged.partition.clusters) == 1
    for fid in ("D-001", "I-001"):
        base = 0.5  # HIGH prior, no corroborating signals supplied
        assert merged.conf_post[fid] == min(0.95, base + 0.30)
    assert "cross-pipeline" in d.flags
    assert d.matched_ids == ["I-001"]
    assert i.matched_ids == ["D-001"]


def test_merge_disjoint_cards_no_boost(models):
    ccim = models["vault_oracle"]
    d = make_finding(fid="D-001", title="reentrancy theft in withdraw",
                     functions=[("Vault", "withdraw")])
    i = make_finding(fid="I-001", pipeline="I", title="oracle rotation freezes funds",
                     description="funds get stuck frozen", functions=[("Vault", "setOracle")])
    merged = merge([d], [i], ccim)
    assert len(merged.partition.clusters) == 2
    for fid, conf in merged.conf_post.items():
        assert conf == pytest.approx(0.5)  # HIGH prior, no boost


def test_merge_empty_both_sides(models):
    merged = merge([], [], models["vault_oracle"])
    assert merged.findings == []
    assert merged.partition.clusters == ()


def test_merge_symmetry(models):
    ccim, d, i = _mergeable_pair(models)
    a = merge([d], [i], ccim)
    # swap the pipeline arguments; partitions and scores must agree
    d3, i3 = _mergeable_pair(models)[1:]
    d3.id, d3.pipeline = "I-001", "I"
    i3.id, i3.pipeline = "D-001", "D"
    swapped = merge([i3], [d3], ccim)
    assert {frozenset(c) for c in a.partition.clusters} == \
        {frozenset(c) for c in swapped.partition.clusters}
    assert a.conf_post == swapped.conf_post


def test_merge_conf_range_and_monotonicity(models):
    rng = random.Random(5)
    ccim = models["vault_oracle"]
    fns = [("Vault", "withdraw"), ("Vault", "deposit"), ("Vault", "setOracle")]
    severities = ["INFO", "LOW", "MEDIUM", "HIGH", "CRITICAL"]
    for trial in range(100):
        f_d = [make_finding(fid=f"D-{k:03d}", severity=rng.choice(severities),
                            title=rng.choice(["theft of funds", "stuck frozen funds", "dos loop"]),
                            functions=[rng.choice(fns)])
               for k in range(rng.randint(0, 4))]
        f_i = [make_finding(fid=f"I-{k:03d}", pipeline="I", severity=rng.choice(severities),
                            title=rng.choice(["theft of funds", "stuck frozen funds", "dos loop"]),
                            functions=[rng.choice(fns)])
               for k in range(rng.randint(0, 4))]
        merged = merge(f_d, f_i, ccim)
        for f in merged.findings:
            conf = merged.conf_post[f.id]
            assert 0.05 <= conf <= 0.95
            chi = cross_indicator(merged.partition.cluster_of(f.id), merged.pi)
            if chi == 0:
                assert "cross-pipeline" not in f.flags
