"""Domain types for the cross-contract interaction model.

Every record here is a `typing.NamedTuple`: no field of a tuple can be
assigned, and the containers a record holds are filled before it is built,
never after. So the assembled model is immutable and safe to share across
concurrently running consumers. A tuple has no instance `__dict__` to cache
into, so what a record derives from its fields is a field too, made once
where the record is built: a function's `printed` text and code facts by the
parse (`parse.printed_text`, `parse.scan_body`), the call graph's adjacency
by `build_call_graph`, and the model's indexes by `CcimModel.build`. A
default is one object that every record taking it shares.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .parse import ParsedSource

# the leading spaces and tabs of a line after the first
_INDENT_RE = re.compile(r"\n[ \t]+")

FnKey = tuple[str, str]
"""(owner contract, function name). A key stands for every overload of the
name in the contract: the model's facts of a key hold over all of them, and
`CcimModel.records_of` gives them all."""


class CallSite(NamedTuple):
    target: str        # storage-variable name holding the callee address
    method: str        # invoked selector name
    line: int          # concatenation line number


class FunctionRecord(NamedTuple):
    name: str
    owner: str
    vis: str                              # public | external | internal | private
    mut: str                              # view | pure | payable | nonpayable
    modifiers: tuple[str, ...]            # raw modifier invocations, declaration order
    guards: tuple[str, ...]               # normalized require conditions
    reads: frozenset[str]
    writes: frozenset[str]
    call_sites: tuple[CallSite, ...]
    fund_flag: bool
    src: tuple[int, int]                  # (start, end) lines in concatenation space
    internal_calls: frozenset[str]        # same-contract callee names
    body: str                             # raw declaration text, header included
    offset: int                           # char offset of `body` in the audit source
    span: tuple[int, int]                 # (start, end) offsets of the body between its braces
    effects: tuple[tuple[int, str, str], ...]   # `parse.scan_body` of `span`
    unchecked: bool                       # the masked span holds an `unchecked {` block
    indent: int                           # leading spaces and tabs of the declaration's line
    # parser extras consumed by downstream stages (precondition inference,
    # pair selection, skeleton prompts, the >=0.8 overflow rule)
    params: tuple[str, ...] = ()
    signature: str = ""
    natspec: str = ""
    pragma_ge_08: bool = False
    printed: str = ""                     # `body` as every prompt prints it (`parse.printed_text`)

    @property
    def key(self) -> FnKey:
        return (self.owner, self.name)

    @property
    def nonreentrant(self) -> bool:
        return "nonReentrant" in {m.split("(")[0] for m in self.modifiers}

    @property
    def has_body(self) -> bool:
        """Whether the declaration has a `{...}` body: a bodiless one's span is past its `;`."""
        return self.span[1] < self.offset + len(self.body)


class ResolutionMap(NamedTuple):
    # storage variables are identified by qualified ids "DeclaringContract.name":
    # same-named variables in unrelated contracts are distinct storage.
    # `inheritance`, `type_map` and `var_origin` are read off the parse's one
    # view of each contract's lineage and visible state (`ParsedSource`)
    mapping: dict[str, str | None]        # qualified var -> contract, None for unresolved
    type_map: dict[str, str]              # qualified var -> declared type text
    inheritance: frozenset[tuple[str, str]]  # (ancestor/interface, implementer) edges, reflexive-transitive
    kinds: dict[str, str] = {}             # contract -> contract|interface|library|abstract
    var_origin: dict[FnKey, str] = {}      # (contract, plain name) -> qualified id of the nearest declaration

    def var_id(self, owner: str, name: str) -> str:
        return self.var_origin.get((owner, name)) or f"{owner}.{name}"

    def resolve(self, var: str) -> str | None:
        return self.mapping.get(var)


class CallGraph(NamedTuple):
    edges: frozenset[tuple[FnKey, FnKey]]
    contract_edges: frozenset[tuple[str, str]]
    # (callees, callers) of every function on an edge
    adjacent: tuple[dict[FnKey, set[FnKey]], dict[FnKey, set[FnKey]]]

    def callees(self, fn: FnKey) -> set[FnKey]:
        return set(self.adjacent[0].get(fn, ()))

    def callers(self, fn: FnKey) -> set[FnKey]:
        return set(self.adjacent[1].get(fn, ()))

    def touches(self, fn: FnKey) -> bool:
        return fn in self.adjacent[0] or fn in self.adjacent[1]


class Footprints(NamedTuple):
    reads: dict[FnKey, frozenset[str]]    # R*
    writes: dict[FnKey, frozenset[str]]   # W*
    fund: dict[FnKey, bool]               # tau*


class StateDependencyMap(NamedTuple):
    writers: dict[str, frozenset[FnKey]]      # delta_W
    readers: dict[str, frozenset[FnKey]]      # delta_R
    consumers: dict[str, frozenset[FnKey]]    # uses(v): call target or approval recipient
    approvals: dict[FnKey, frozenset[str]]    # storage vars passed as approval recipients
    rot: frozenset[str]                       # rotation-risky variables


class TrustModel(NamedTuple):
    assumes: dict[tuple[str, str], frozenset[str]]   # (caller, callee) -> post-condition strings
    enforces: dict[tuple[str, str], frozenset[str]]  # (callee, caller) -> caller-gating guards
    trustgap: frozenset[tuple[str, str]]
    callbacks: frozenset[tuple[str, str]]            # sorted unordered pairs


class CcimModel(NamedTuple):
    records: tuple[FunctionRecord, ...]
    resolution: ResolutionMap
    graph: CallGraph
    footprints: Footprints
    deps: StateDependencyMap
    trust: TrustModel
    admin_set: frozenset[FnKey]
    parsed: ParsedSource                  # the audit source parsed once
    scope: tuple[str, ...] = ()
    # record indexes, made by `build`
    by_key: dict[FnKey, tuple[FunctionRecord, ...]] = {}
    by_owner: dict[str, tuple[FunctionRecord, ...]] = {}
    keys: tuple[FnKey, ...] = ()          # every function key, in the order of its first overload
    # (record, stripped text over its span, flush left) per body of 20+
    # characters: what a skeleton prompt must not hold, at any indentation
    leak_probes: tuple[tuple[FunctionRecord, str], ...] = ()

    @classmethod
    def build(cls, **parts) -> CcimModel:
        """The model of `parts`, its fields up to `scope`, with its record indexes."""
        model = cls(**parts)
        by_key: dict[FnKey, list[FunctionRecord]] = {}
        by_owner: dict[str, list[FunctionRecord]] = {}
        for r in model.records:
            by_key.setdefault(r.key, []).append(r)
            by_owner.setdefault(r.owner, []).append(r)
        text = model.parsed.text
        return model._replace(
            by_key={k: tuple(recs) for k, recs in by_key.items()},
            by_owner={owner: tuple(recs) for owner, recs in by_owner.items()},
            keys=tuple(by_key),
            leak_probes=tuple((r, _INDENT_RE.sub("\n", inner)) for r in model.records
                              if len(inner := text[slice(*r.span)].strip()) >= 20))

    def leaked(self, prompt: str) -> FunctionRecord | None:
        """The first record whose body `prompt` holds, as written, as
        `FunctionRecord.printed` prints it or at any other indentation."""
        flat = _INDENT_RE.sub("\n", prompt)
        return next((r for r, probe in self.leak_probes if probe in flat), None)

    def owned(self, contract: str) -> tuple[FunctionRecord, ...]:
        """The records of `contract`, in record (source) order."""
        return self.by_owner.get(contract, ())

    def records_of(self, keys) -> list[FunctionRecord]:
        """Every overload of each of `keys`, key by key and each key's
        overloads in record (source) order; keys the model lacks are skipped.
        The one lookup of a key's records: a check over the result holds for
        every overload, and a caller that needs one line takes the first."""
        return [r for k in keys for r in self.by_key.get(k, ())]

    def function_named(self, name: str) -> list[FunctionRecord]:
        return [r for r in self.records if r.name == name]

    def record_at_line(self, line: int) -> FunctionRecord | None:
        for r in self.records:
            if r.src[0] <= line <= r.src[1]:
                return r
        return None

    def is_admin(self, key: FnKey) -> bool:
        return key in self.admin_set

    def writes_q(self, key: FnKey) -> frozenset[str]:
        """Transitive write set as qualified variable ids."""
        return frozenset(self.resolution.var_id(key[0], v)
                         for v in self.footprints.writes.get(key, frozenset()))

    def reads_q(self, key: FnKey) -> frozenset[str]:
        return frozenset(self.resolution.var_id(key[0], v)
                         for v in self.footprints.reads.get(key, frozenset()))
