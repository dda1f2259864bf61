"""Seeded synthetic Solidity corpora for the audit benchmark.

Every contract follows one baseline shape: `pairs` balance mappings and as many
total counters, an `owner`, an `onlyOwner` modifier, a `peer` typed as the next
contract's interface, external functions that bound their input, make compound
writes, call `peer.ping()` and transfer on a condition, and `_helperN`
functions with an `unchecked` block.

The shape fixes the set of state-variable footprints; the seed shuffles which
function gets which footprint, names the functions and picks the literals. So
every seed of a workload gives the same amount of interference work while the
text differs. The generator returns its own inventory of what it planted; the
output checks compare solaudit's report against that inventory only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

STEMS = ("deposit", "withdraw", "mint", "burn", "stake", "unstake", "swap", "claim")
DEBIT_STEMS = frozenset({"withdraw", "burn", "unstake", "swap"})
ADMIN_EVERY = 5          # every fifth external function is onlyOwner
HELPERS = 3              # `_helperN` functions with an `unchecked` block per contract
PING_QUOTE = "peer.ping();"


@dataclass(frozen=True)
class Shape:
    contracts: int
    functions: int       # external functions per contract
    pairs: int           # balanceK / totalK pairs per contract


SHAPES = {
    "wide": Shape(contracts=20, functions=16, pairs=12),
    "deep": Shape(contracts=2, functions=160, pairs=6),
    "noisy": Shape(contracts=4, functions=16, pairs=12),
}


@dataclass
class Corpus:
    """The generated files and the generator's inventory of what it planted."""
    files: dict[str, str] = field(default_factory=dict)            # relative path -> text
    functions: dict[str, list[str]] = field(default_factory=dict)  # contract/interface -> names
    only_owner: list[str] = field(default_factory=list)            # "Contract.fn"
    unchecked: dict[str, int] = field(default_factory=dict)        # helper -> `unchecked {` line
    spans: dict[str, tuple[int, int]] = field(default_factory=dict)  # fn -> concatenation lines
    lines: int = 0                                                 # lines of the audit source
    helper_of: dict[str, str] = field(default_factory=dict)        # external fn -> helper it calls
    file_of: dict[str, str] = field(default_factory=dict)          # contract/interface -> file
    first_line: dict[str, int] = field(default_factory=dict)       # file -> its first line

    def citation(self, function: str) -> tuple[str, list[int]]:
        """(file, [first, last] line within the file) of a planted function."""
        path = self.file_of[function.split(".")[0]]
        start, end = self.spans[function]
        offset = self.first_line[path] - 1
        return path, [start - offset, end - offset]

    @property
    def function_count(self) -> int:
        return sum(len(v) for v in self.functions.values())


def _footprints(shape: Shape) -> list[tuple[int, int, int, int]]:
    """(balance written, total written, total read, helper called) per
    function slot; a fixed multiset for the shape."""
    v = shape.pairs
    out = []
    for j in range(shape.functions):
        bal = j % v
        tot = (j // v + j) % v
        read = (tot + 1 + j % (v - 1)) % v
        out.append((bal, tot, read, j % HELPERS))
    return out


class _Writer:
    """Accumulates one file's lines and knows their concatenation line numbers."""

    def __init__(self, first_line: int):
        self.lines: list[str] = []
        self.first = first_line

    def add(self, text: str = "") -> int:
        self.lines.append(text)
        return self.first + len(self.lines) - 1


def _contract(w: _Writer, shape: Shape, idx: int, rng: random.Random, corpus: Corpus) -> None:
    name, iface = f"Pool{idx:02d}", f"IPool{idx:02d}"
    peer_iface = f"IPool{(idx + 1) % shape.contracts:02d}"
    w.add("// SPDX-License-Identifier: MIT")
    w.add("pragma solidity ^0.8.19;")
    w.add()
    w.add(f"interface {iface} {{")
    w.add("    function ping() external;")
    w.add("}")
    w.add()
    w.add(f"contract {name} is {iface} {{")
    w.add("    address public owner;")
    w.add(f"    {peer_iface} public peer;")
    for k in range(shape.pairs):
        w.add(f"    mapping(address => uint256) public balance{k};")
    for k in range(shape.pairs):
        w.add(f"    uint256 public total{k};")
    w.add()
    w.add("    modifier onlyOwner() {")
    w.add('        require(msg.sender == owner, "not owner");')
    w.add("        _;")
    w.add("    }")
    w.add()
    start = w.add("    constructor(address peer_) {")
    w.add("        owner = msg.sender;")
    w.add(f"        peer = {peer_iface}(peer_);")
    end = w.add("    }")
    declared = ["constructor"]
    corpus.spans[f"{name}.constructor"] = (start, end)

    names = [f"{STEMS[j % len(STEMS)]}{j // len(STEMS)}" for j in range(shape.functions)]
    rng.shuffle(names)
    prints = _footprints(shape)
    rng.shuffle(prints)
    for pos, (fn, (bal, tot, read, helper)) in enumerate(zip(names, prints)):
        admin = pos % ADMIN_EVERY == ADMIN_EVERY - 1
        stem = fn.rstrip("0123456789")
        op = "-=" if stem in DEBIT_STEMS else "+="
        w.add()
        w.add(f"    /// @notice {stem} entry point; moves value through {name}")
        start = w.add(f"    function {fn}(uint256 amount) external{' onlyOwner' if admin else ''} {{")
        w.add(f'        require(amount <= {rng.randint(1_000, 99_999)}, "bound");')
        w.add(f"        balance{bal}[msg.sender] {op} amount;")
        w.add(f"        total{tot} {op} amount;")
        w.add(f"        {PING_QUOTE}")
        w.add(f"        if (total{read} > amount) {{")
        w.add("            payable(msg.sender).transfer(amount);")
        w.add("        }")
        w.add(f"        _helper{helper}(amount);")
        end = w.add("    }")
        declared.append(fn)
        corpus.spans[f"{name}.{fn}"] = (start, end)
        corpus.helper_of[f"{name}.{fn}"] = f"{name}._helper{helper}"
        if admin:
            corpus.only_owner.append(f"{name}.{fn}")

    for h in range(HELPERS):
        w.add()
        start = w.add(f"    function _helper{h}(uint256 x) internal {{")
        unchecked = w.add("        unchecked {")
        w.add(f"            total{(2 * h + 1) % shape.pairs} += x * {rng.randint(2, 9)};")
        w.add("        }")
        end = w.add("    }")
        key = f"{name}._helper{h}"
        declared.append(f"_helper{h}")
        corpus.spans[key] = (start, end)
        corpus.unchecked[key] = unchecked

    w.add()
    line = w.add("    function ping() external {}")
    declared.append("ping")
    corpus.spans[f"{name}.ping"] = (line, line)
    w.add("}")
    corpus.functions[iface] = ["ping"]
    corpus.functions[name] = declared


def generate(shape: Shape, seed: int) -> Corpus:
    """One file per contract under `src/`; files concatenate in path order,
    which is the order the inventory's line numbers assume."""
    rng = random.Random(seed)
    corpus = Corpus()
    next_line = 1
    for idx in range(shape.contracts):
        path = f"src/Pool{idx:02d}.sol"
        w = _Writer(next_line)
        _contract(w, shape, idx, rng, corpus)
        corpus.files[path] = "\n".join(w.lines) + "\n"
        corpus.first_line[path] = next_line
        corpus.file_of.update({f"Pool{idx:02d}": path, f"IPool{idx:02d}": path})
        next_line += len(w.lines)
    corpus.lines = next_line - 1
    return corpus


@dataclass(frozen=True)
class Claim:
    title: str
    functions: tuple[str, ...]    # "Contract.fn"
    true: bool                    # the generator's label, from what it planted


def noisy_script(corpus: Corpus, seed: int) -> tuple[dict, list[Claim]]:
    """A mock-reasoner script of five entries, one per reasoner-bearing stage
    it exercises, and the labelled discovery claims it plants.

    - phase C: every interference group is reported VULNERABLE;
    - discovery: one true claim (unchecked arithmetic in a helper) and four
      fabricated ones (a nonexistent function, a race condition, missing
      access control on an onlyOwner function, evidence outside the span);
    - spec-verify: every pair violates a bookkeeping-order assumption;
    - phase D: that violation is DISPROVED by quoting a real source line;
    - SVE layer 2: the phase C interference claims are DISPROVED.
    """
    rng = random.Random(seed)
    contract = rng.choice(sorted(c for c in corpus.functions if not c.startswith("I")))
    external = [f"{contract}.{fn}" for fn in corpus.functions[contract]
                if f"{contract}.{fn}" in corpus.helper_of]
    plain = [f for f in external if f not in corpus.only_owner]
    admin = [f for f in external if f in corpus.only_owner]
    true_fn, race_fn, span_fn = rng.sample(plain, 3)
    admin_fn = rng.choice(admin)
    helper = corpus.helper_of[true_fn]
    other = next(c for c in sorted(corpus.functions) if c != contract and not c.startswith("I"))
    outside = corpus.spans[f"{other}.constructor"][0]
    ghost = f"{contract}.emergencySweep"

    claims = [
        Claim(f"Unchecked counter update in {helper.split('.')[1]} can wrap around",
              (true_fn, helper), True),
        Claim(f"{ghost.split('.')[1]} skips the balance bookkeeping", (ghost,), False),
        Claim(f"Race condition between {race_fn.split('.')[1]} and the peer callback",
              (race_fn,), False),
        Claim(f"Missing access control on {admin_fn.split('.')[1]}", (admin_fn,), False),
        Claim(f"{span_fn.split('.')[1]} settles totals after the transfer", (span_fn,), False),
    ]
    evidence = {0: [corpus.unchecked[helper]], 4: [outside]}
    findings = [
        {"title": c.title,
         "description": "The reviewed path lets the stored counter overflow and corrupt accounting."
                        if c.true else "The reviewed path breaks the stated invariant.",
         "attack_scenario": "1. call the entry point with a large amount 2. read the counter",
         "severity": "HIGH", "confidence": 0.6,
         "functions": [f.split(".", 1) for f in c.functions],
         "evidence_lines": evidence.get(i, [])}
        for i, c in enumerate(claims)
    ]
    interference = "Shared-state interference across writers"
    bookkeeping = "Pair disagrees on bookkeeping order"
    script = {"responses": [
        {"stage": "phase_c", "match": [],
         "response": {"verdict": "VULNERABLE", "title": interference,
                      "description": "Writers and readers of the variable interleave without a common invariant.",
                      "attack_scenario": "1. call the writer 2. call the reader", "severity": "MEDIUM"}},
        {"stage": "phase_b", "match": [], "response": {"findings": findings}},
        {"stage": "stage3_verify", "match": [],
         "response": {"items": [{"index": 4, "status": "VIOLATE", "title": bookkeeping,
                                 "description": "The pair updates totals in opposite orders.",
                                 "trace": "1. call the first function 2. call the second before settlement",
                                 "severity": "MEDIUM"}]}},
        {"stage": "phase_d", "match": [bookkeeping],
         "response": {"claim": "totals drift", "prevention": "the peer is notified first",
                      "quote": PING_QUOTE, "verdict": "DISPROVED"}},
        {"stage": "sve_layer2", "match": [interference],
         "response": {"verdict": "DISPROVED", "argument": PING_QUOTE}},
    ]}
    return script, claims
