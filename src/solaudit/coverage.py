"""Recall-side coverage: protocol-feature detection against a twenty-category
knowledge base, bug-class gap reporting with one re-audit section per
detected feature (its evidence once, its gap classes listed), the
seventeen-class keyword map, attention-residual analysis over the function
inventory and the blind-spot review of the top residuals."""

from __future__ import annotations

import re
from typing import NamedTuple

from . import prompts
from .ccim import CcimModel, FnKey, FunctionRecord
from .ccim.parse import NAME_RE
from .findings import Finding, fold
from .reasoner import DEFAULT_CHAR_BUDGET

# Twenty protocol-feature categories. The first eight are the canonical ones;
# the remainder complete the catalogue and are marked as extensions.
FEATURES: dict[str, dict] = {
    "lending": {
        "names": ("borrow", "repay", "liquidat", "collateral"),
        "var_names": ("debt", "collateral"),
        "bug_classes": ("liquidation-manipulation", "interest-accounting", "oracle-staleness"),
    },
    "staking": {
        "names": ("stake", "unstake", "claimreward", "rewardrate"),
        "var_names": ("reward", "staked"),
        "bug_classes": ("reward-accounting", "stake-lock-bypass", "reentrancy"),
    },
    "governance": {
        "names": ("propose", "castvote", "queue", "quorum"),
        "modifiers": ("onlyGovernance", "onlyGovernor"),
        "bug_classes": ("vote-replay", "proposal-execution-abuse", "governance-takeover"),
    },
    "amm": {
        "names": ("swap", "addliquidity", "removeliquidity", "getamountout"),
        "var_names": ("reserve",),
        "bug_classes": ("price-manipulation", "missing-slippage", "sandwich-frontrunning"),
    },
    "oracle-integration": {
        "names": ("latestrounddata", "latestanswer", "getprice", "setoracle"),
        "var_types": ("IOracle", "AggregatorV3Interface", "IPriceFeed"),
        "var_names": ("oracle", "pricefeed"),
        "bug_classes": ("oracle-staleness", "price-manipulation", "oracle-rotation"),
    },
    "auction": {
        "names": ("bid", "settleauction", "highestbid", "auction"),
        "bug_classes": ("bid-refund-dos", "auction-sniping", "fund-freeze"),
    },
    "bridge": {
        "names": ("bridge", "relay", "messagehash", "processmessage"),
        "bug_classes": ("cross-chain-replay", "unverified-message", "fund-theft"),
    },
    "vault-accounting": {
        "names": ("deposit", "withdraw", "converttoshares", "totalassets"),
        "var_names": ("shares", "totalsupply", "balances"),
        "bug_classes": ("share-inflation", "rounding-drift", "first-depositor"),
    },
    # extensions completing the twenty-category catalogue
    "vesting": {
        "names": ("vest", "cliff", "release", "vestingschedule"),
        "bug_classes": ("vesting-bypass", "premature-release"),
    },
    "nft-marketplace": {
        "names": ("listitem", "buyitem", "royalty", "tokenuri"),
        "bug_classes": ("royalty-bypass", "unsafe-transfer", "signature-replay"),
    },
    "stable-swap": {
        "names": ("getvirtualprice", "amplification"),
        "bug_classes": ("invariant-manipulation", "precision-loss"),
    },
    "rebasing-token": {
        "names": ("rebase", "scalingfactor", "sharesof"),
        "bug_classes": ("rebase-accounting", "balance-desync"),
    },
    "streaming-payments": {
        "names": ("stream", "ratepersecond", "withdrawfromstream"),
        "bug_classes": ("stream-depletion", "timestamp-dependence"),
    },
    "escrow": {
        "names": ("escrow", "refund", "arbiter"),
        "bug_classes": ("premature-release", "fund-freeze"),
    },
    "insurance": {
        "names": ("policy", "premium", "payout"),
        "bug_classes": ("claim-forgery", "premium-accounting"),
    },
    "cdp": {
        "names": ("liquidationratio", "collateralratio", "mintdebt"),
        "var_names": ("debt",),
        "bug_classes": ("undercollateralized-mint", "liquidation-manipulation"),
    },
    "permit-meta-tx": {
        "names": ("permit", "executemetatransaction", "domain_separator"),
        "var_names": ("nonces",),
        "bug_classes": ("signature-replay", "signature-malleability"),
    },
    "airdrop": {
        "names": ("airdrop", "merkleroot", "claimairdrop"),
        "bug_classes": ("merkle-proof-replay", "double-claim"),
    },
    "flash-loan": {
        "names": ("flashloan", "onflashloan", "flashfee"),
        "bug_classes": ("flash-loan-reentrancy", "fee-bypass", "price-manipulation"),
    },
    "token-sale": {
        "names": ("buytokens", "presale", "whitelist", "hardcap"),
        "bug_classes": ("cap-bypass", "refund-dos", "timestamp-dependence"),
    },
}

# keywords that match a bug class against finding text
CLASS_KEYWORDS: dict[str, tuple[str, ...]] = {
    "liquidation-manipulation": ("liquidat",),
    "interest-accounting": ("interest",),
    "oracle-staleness": ("stale", "updatedat"),
    "reward-accounting": ("reward",),
    "stake-lock-bypass": ("unstake", "lock bypass", "early withdraw"),
    "reentrancy": ("reentran",),
    "vote-replay": ("vote repl", "double vot"),
    "proposal-execution-abuse": ("proposal", "execute"),
    "governance-takeover": ("governance", "takeover"),
    "price-manipulation": ("price manipulat", "manipulate the price", "spot price"),
    "missing-slippage": ("slippage",),
    "sandwich-frontrunning": ("sandwich", "front-run", "frontrun"),
    "oracle-rotation": ("oracle", "rotat"),
    "bid-refund-dos": ("refund", "bid"),
    "auction-sniping": ("snip", "last-second"),
    "fund-freeze": ("freeze", "frozen", "locked", "stuck"),
    "cross-chain-replay": ("replay", "cross-chain"),
    "unverified-message": ("unverified", "message"),
    "fund-theft": ("steal", "drain", "theft"),
    "share-inflation": ("inflat", "share price", "first depositor", "donation"),
    "rounding-drift": ("rounding", "precision", "truncat"),
    "first-depositor": ("first depositor",),
    "vesting-bypass": ("vesting",),
    "premature-release": ("premature", "early release"),
    "royalty-bypass": ("royalt",),
    "unsafe-transfer": ("unsafe transfer", "safetransfer"),
    "signature-replay": ("replay", "signature"),
    "invariant-manipulation": ("invariant",),
    "precision-loss": ("precision", "rounding"),
    "rebase-accounting": ("rebase",),
    "balance-desync": ("desync", "out of sync"),
    "stream-depletion": ("stream",),
    "timestamp-dependence": ("timestamp", "block.timestamp"),
    "claim-forgery": ("forg", "claim"),
    "premium-accounting": ("premium",),
    "undercollateralized-mint": ("undercollateral",),
    "signature-malleability": ("malleab",),
    "merkle-proof-replay": ("merkle", "proof replay"),
    "double-claim": ("double claim", "claim twice"),
    "flash-loan-reentrancy": ("flash loan", "flashloan"),
    "fee-bypass": ("fee bypass", "without fee"),
    "cap-bypass": ("cap", "hard cap"),
    "refund-dos": ("refund", "revert"),
}

# the coarser seventeen-class coverage map tracked from keyword hits; the last
# two classes complete the canonical fifteen
SEVENTEEN_CLASSES: dict[str, tuple[str, ...]] = {
    "reentrancy": ("reentran",),
    "access-control": ("access control", "unauthorized", "onlyowner", "privilege"),
    "state-lifecycle": ("lifecycle", "state machine", "initializ"),
    "flash-loan": ("flash loan", "flashloan"),
    "oracle": ("oracle", "price feed"),
    "integer-overflow": ("overflow", "underflow"),
    "frontrunning": ("front-run", "frontrun", "sandwich", "mev"),
    "token-integration": ("erc20", "erc-20", "fee-on-transfer", "token integration"),
    "signature": ("signature", "ecrecover", "replay"),
    "governance": ("governance", "vote", "proposal"),
    "proxy-upgrade": ("proxy", "upgrade", "delegatecall"),
    "accounting": ("accounting", "share", "rounding", "precision"),
    "dos": ("denial of service", "dos", "unbounded loop", "gas grief"),
    "cross-contract": ("cross-contract", "external call", "trust"),
    "donation": ("donation", "direct transfer"),
    "price-manipulation": ("price manipulat", "spot price"),
    "timestamp-dependence": ("timestamp",),
}

# structural risk-profile weights (config data)
RISK_WEIGHTS = {
    "external_vis": 2.0,
    "fund_flag": 3.0,
    "per_write": 1.0,
    "per_external_call": 2.0,
    "arithmetic_bucket_max": 2.0,
    "financial_name": 2.0,
}

# read off a folded state-variable name (`findings.fold`)
_FINANCIAL_NAME_RE = re.compile(r"balance|amount|share|debt|reward|fee|price|supply|asset")

# the structural aspects whose absence near a mention demotes it to
# partial-attention
ASPECT_KEYWORDS = {
    "fund": ("fund", "transfer", "eth", "value", "token", "pay", "withdraw", "deposit"),
    "external_call": ("call", "external", "oracle", "callee", "reentran", "delegat"),
}


class CoverageReport(NamedTuple):
    detected_features: tuple[str, ...]
    covered_classes: tuple[str, ...]
    gap_set: tuple[str, ...]
    keyword_map: dict[str, bool]

    def to_dict(self) -> dict:
        return {
            "detected_features": list(self.detected_features),
            "covered_classes": list(self.covered_classes),
            "gap_set": list(self.gap_set),
            "keyword_map": dict(sorted(self.keyword_map.items())),
        }


class ResidualClassification(NamedTuple):
    status: dict[FnKey, str]
    risk_score: dict[FnKey, float]

    def ranked_residuals(self) -> list[FnKey]:
        residual = [k for k, s in self.status.items() if s != "discussed"]
        return sorted(residual, key=lambda k: (-self.risk_score[k], k))


def detect_features(ccim: CcimModel) -> set[str]:
    """A feature is present when any of its name/modifier/state-variable
    heuristics matches the parsed inventory."""
    fn_names = {r.name.lower() for r in ccim.records}
    modifiers = {m.split("(")[0] for r in ccim.records for m in r.modifiers}
    var_types = {t.split()[0].split("[")[0] for t in ccim.resolution.type_map.values()}
    var_names = {v.lower() for v in ccim.resolution.type_map}
    detected = set()
    for feature, spec in FEATURES.items():
        name_hit = any(any(stem in n for n in fn_names) for stem in spec.get("names", ()))
        mod_hit = any(m in modifiers for m in spec.get("modifiers", ()))
        type_hit = any(t in var_types for t in spec.get("var_types", ()))
        var_hit = any(any(stem in v for v in var_names) for stem in spec.get("var_names", ()))
        if name_hit or mod_hit or type_hit or var_hit:
            detected.add(feature)
    return detected


def compute_gap_set(findings: list[Finding], detected_features: set[str]) -> CoverageReport:
    """Match catalogue-relevant bug classes against finding text; unmatched
    classes form the gap set."""
    relevant: set[str] = set()
    for feature in detected_features:
        relevant.update(FEATURES.get(feature, {}).get("bug_classes", ()))
    all_text = " ".join(f.text().lower() for f in findings)
    covered = {
        cls for cls in relevant
        if any(k in all_text for k in CLASS_KEYWORDS[cls])
    }
    keyword_map = {
        cls: any(k in all_text for k in keywords)
        for cls, keywords in SEVENTEEN_CLASSES.items()
    }
    return CoverageReport(
        detected_features=tuple(sorted(detected_features)),
        covered_classes=tuple(sorted(covered)),
        gap_set=tuple(sorted(relevant - covered)),
        keyword_map=keyword_map,
    )


def gap_reaudit_prompts(gap_set: tuple[str, ...] | list[str], ccim: CcimModel,
                        detected_features: set[str],
                        budget: int = DEFAULT_CHAR_BUDGET) -> list[str]:
    """The gap re-audit's prompts: one `### G<n>: feature "<name>"` section
    per detected feature that made a gap class relevant, holding each of its
    gap classes with the class heuristics, then its structural evidence once.
    A class sits under the first feature in sorted order that lists it; the
    sections follow the sorted classes and are packed by `prompts.pack`, so
    at the default budget the round is one prompt."""
    classes: dict[str, list[str]] = {}
    for bug_class in sorted(gap_set):
        feature = next((f for f in sorted(detected_features)
                        if bug_class in FEATURES.get(f, {}).get("bug_classes", ())), "unknown")
        classes.setdefault(feature, []).append(bug_class)
    sections = {}
    for n, (feature, listed) in enumerate(classes.items(), start=1):
        stems = FEATURES.get(feature, {}).get("names", ())
        evidence = "\n".join(
            f"- {r.owner}.{r.name} (span {r.src}, calls: "
            f"{[(s.target, s.method, s.line) for s in r.call_sites]})"
            for r in ccim.records if any(stem in r.name.lower() for stem in stems)
        ) or "(feature detected from state-variable patterns)"
        heuristics = "\n".join(f"- {c}: {', '.join(CLASS_KEYWORDS[c])}" for c in listed)
        sections[n] = (f'### G{n}: feature "{feature}"\n'
                       f"Bug classes, each with its detection heuristics:\n{heuristics}\n"
                       f"Structural evidence:\n{evidence}")
    return [prompt for _, prompt in prompts.pack(prompts.GAP_REAUDIT, "features", sections, budget)]


def risk_profile(record: FunctionRecord, masked: str, financial: set[str] | None = None) -> float:
    """Additive structural risk score over the six named factors; arithmetic
    operators are counted over the record's span of the audit's `masked`
    source. `financial`, when given, holds the state names of the audit that
    `_FINANCIAL_NAME_RE` matches, each tested once (`key_risks`)."""
    score = 0.0
    if record.vis in ("external", "public"):
        score += RISK_WEIGHTS["external_vis"]
    if record.fund_flag:
        score += RISK_WEIGHTS["fund_flag"]
    score += RISK_WEIGHTS["per_write"] * len(record.writes)
    score += RISK_WEIGHTS["per_external_call"] * len(record.call_sites)
    ops = sum(map(masked[slice(*record.span)].count, "+-*/%"))
    score += min(RISK_WEIGHTS["arithmetic_bucket_max"], ops / 5.0)
    names = record.writes | record.reads
    if financial is None:
        financial = {v for v in names if _FINANCIAL_NAME_RE.search(fold(v))}
    if not financial.isdisjoint(names):
        score += RISK_WEIGHTS["financial_name"]
    return score


def key_risks(ccim: CcimModel) -> dict[FnKey, float]:
    """Every function's risk, in key order: the highest `risk_profile` among
    its overloads, each distinct state name tested against
    `_FINANCIAL_NAME_RE` once. Made once per audit; phase C's ranking and
    each `attention_residual` read it."""
    masked = ccim.parsed.masked
    names = {v for r in ccim.records for v in r.writes | r.reads}
    financial = {v for v in names if _FINANCIAL_NAME_RE.search(fold(v))}
    return {key: max(risk_profile(r, masked, financial) for r in ccim.records_of((key,)))
            for key in ccim.keys}


def attention_residual(ccim: CcimModel, risk: dict[FnKey, float], discussed_names: set[str],
                       output_text: str) -> ResidualClassification:
    """Partition the inventory by comparing mentioned function names against
    the full parsed set; mentioned functions with an unaddressed critical
    aspect (fund movement, external calls) in any overload are
    partial-attention. Whether the output addresses each aspect reads only
    `output_text`, so each is tested once per call. `risk` is the audit's
    `key_risks`."""
    lowered = output_text.lower()
    fund_named = any(k in lowered for k in ASPECT_KEYWORDS["fund"])
    call_named = any(k in lowered for k in ASPECT_KEYWORDS["external_call"])
    status: dict[FnKey, str] = {}
    for key in ccim.keys:
        if key[1] not in discussed_names:
            status[key] = "unattended"
            continue
        recs = ccim.records_of((key,))
        unaddressed = ((not fund_named and any(r.fund_flag for r in recs))
                       or (not call_named and any(r.call_sites for r in recs)))
        status[key] = "partial-attention" if unaddressed else "discussed"
    return ResidualClassification(status=status, risk_score=risk)


def blindspot_prompts(residuals: ResidualClassification, ccim: CcimModel,
                      top_n: int = 3, budget: int = DEFAULT_CHAR_BUDGET
                      ) -> list[tuple[dict[str, FnKey], str]]:
    """The blind-spot review of the `top_n` highest-risk residual functions:
    one `### B<n>: Owner.name (<status>)` section each, in rank order, with
    the source of every overload and the classification only, no carry-over
    context. The sections are packed by `prompts.pack`, so at the default
    budget the round is one prompt; each prompt comes with its sections' ids
    (`B<n>`) to the function each reviews."""
    keys = {f"B{n}": k for n, k in enumerate(residuals.ranked_residuals()[:top_n], start=1)}
    sections = {i: f"### {i}: {k[0]}.{k[1]} ({residuals.status[k]})\n"
                   + prompts.source_block(ccim, k) for i, k in keys.items()}
    return [({i: keys[i] for i in chunk}, prompt)
            for chunk, prompt in prompts.pack(prompts.BLINDSPOT, "reviews", sections, budget)]


def discussed_names_from(findings: list[Finding]) -> set[str]:
    """Function names mentioned anywhere in the pipeline outputs."""
    names: set[str] = set()
    for f in findings:
        for _, fn_name in f.affected_functions:
            names.add(fn_name)
        for word in NAME_RE.findall(f.text()):
            names.add(word)
    return names
