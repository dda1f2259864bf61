"""Output checks for one audit. Every expected value comes from the
generator's inventory and claim labels, never from solaudit itself."""

from __future__ import annotations

import copy

from gen import Claim, Corpus


def check_audit(code: int, report: dict, corpus: Corpus, claims: list[Claim],
                expect_exit: int) -> list[str]:
    """Problems found in one audit's exit code and `report.json`; empty when
    the audit is correct."""
    problems = []
    if code != expect_exit:
        problems.append(f"exit code {code}, expected {expect_exit}")
    summary = report.get("ccim_summary", {})
    if summary.get("functions") != corpus.function_count:
        problems.append(f"ccim_summary.functions {summary.get('functions')}, "
                        f"expected {corpus.function_count}")
    if summary.get("contracts") != sorted(corpus.functions):
        problems.append("ccim_summary.contracts differs from the generated contracts")
    if summary.get("admin_functions") != sorted(corpus.only_owner):
        problems.append("ccim_summary.admin_functions differs from the onlyOwner set")

    findings = report.get("findings", [])
    titles = {f["title"] for f in findings}
    for claim in claims:
        if claim.true and claim.title not in titles:
            problems.append(f"true claim dropped: {claim.title!r}")
        if not claim.true and claim.title in titles:
            problems.append(f"fabricated claim survived: {claim.title!r}")
    for f in findings:
        unknown = [fn for fn in f["affected_functions"] if fn not in corpus.spans]
        if unknown:
            problems.append(f"{f['id']} cites functions that were never generated: {unknown}")
        for c in f.get("citations", []):
            if "function" in c and c["function"] in corpus.spans:
                expected = corpus.citation(c["function"])
                if (c["file"], c["lines"]) != expected:
                    problems.append(f"{f['id']} cites {c['function']} at {c['file']} "
                                    f"{c['lines']}, expected {expected[0]} {expected[1]}")
    return problems


def self_test(code: int, report: dict, corpus: Corpus, claims: list[Claim],
              expect_exit: int) -> list[str]:
    """Doctor a correct report in several ways and confirm that the checks
    reject each one; returns the doctorings the checks missed."""
    def doctored(edit):
        doc = copy.deepcopy(report)
        edit(doc)
        return doc

    contract = next(c for c in sorted(corpus.functions) if not c.startswith("I"))
    ghost = {"id": "X-001", "title": "fabricated", "affected_functions": [f"{contract}.emergencySweep"],
             "citations": []}
    variants = {
        "wrong exit code": (1 - expect_exit, report),
        "function count": (expect_exit, doctored(
            lambda d: d["ccim_summary"].update(functions=d["ccim_summary"]["functions"] + 1))),
        "admin set": (expect_exit, doctored(
            lambda d: d["ccim_summary"]["admin_functions"].pop())),
        "fabricated function": (expect_exit, doctored(lambda d: d["findings"].append(ghost))),
    }
    cited = [(i, j) for i, f in enumerate(report["findings"])
             for j, c in enumerate(f["citations"]) if "function" in c]
    if cited:
        i, j = cited[0]
        variants["shifted citation"] = (expect_exit, doctored(
            lambda d: d["findings"][i]["citations"][j]["lines"].__setitem__(0, 0)))
    for claim in claims:
        if claim.true:
            variants["true claim dropped"] = (expect_exit, doctored(
                lambda d: d.__setitem__("findings", [f for f in d["findings"]
                                                     if f["title"] != claim.title])))
        else:
            variants[f"survivor {claim.title!r}"] = (expect_exit, doctored(
                lambda d, claim=claim: d["findings"].append(
                    {"id": "X-002", "title": claim.title, "affected_functions": [],
                     "citations": []})))
    missed = [name for name, (c, doc) in variants.items()
              if not check_audit(c, doc, corpus, claims, expect_exit)]
    if check_audit(code, report, corpus, claims, expect_exit):
        missed.append("the undoctored report was rejected")
    return missed
