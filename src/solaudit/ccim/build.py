"""Assembly of the cross-contract interaction model from parsed records:
target resolution, the call graph, transitive footprints, dependency and
trust views, and the canonical JSON form."""

from __future__ import annotations

import logging
import math
import re
from json.encoder import encode_basestring_ascii

from ..ingest import AuditSource
from .parse import (
    ParsedSource,
    balanced,
    normalize_predicate,
    parse_function_records,
    parse_source,
)
from .types import (
    CallGraph,
    CcimModel,
    Footprints,
    FnKey,
    FunctionRecord,
    ResolutionMap,
    StateDependencyMap,
    TrustModel,
)

log = logging.getLogger(__name__)

# recognized role checks, each read from the text's start: modifier shapes
# and require shapes
_ROLE_MODIFIER_RE = re.compile(
    r"^(?:onlyOwner$|onlyRole\(|onlyAdmin$|onlyGovernance$|onlyGovernor$|requiresAuth$)")
_ROLE_REQUIRE_RE = re.compile(
    r"^(?:msg\.sender==_?(?:owner|admin|governance|governor)(?:\(\))?$"
    r"|_?(?:owner|admin|governance|governor)(?:\(\))?==msg\.sender$|hasRole\(|_checkRole\()")


def build_resolution(parsed: ParsedSource) -> ResolutionMap:
    """Map each storage variable (qualified by its declaring contract) to the
    concrete contract implementing its declared type, or None when no unique
    concrete implementer exists. Inheritance, visibility and types are the
    parse's view; a name declared twice sees each declaration's state, the
    first declaration's first."""
    kinds = {d.name: d.kind for d in parsed.decls}
    # reflexive-transitive inheritance edges: (ancestor, implementer)
    edges = {(anc, name) for name, lineage in parsed.lineage.items() for anc in (name, *lineage)}
    var_origin: dict[tuple[str, str], str] = {}
    type_map: dict[str, str] = {}
    for decl, visible in zip(parsed.decls, parsed.visible):
        for name, (qid, sv) in visible.items():
            var_origin.setdefault((decl.name, name), qid)
            type_map.setdefault(qid, sv.type_text)

    mapping: dict[str, str | None] = {}
    for var, type_text in type_map.items():
        mapping[var] = None
        head = type_text.split()[0].split("[")[0]
        if head not in kinds:
            continue
        implementers = sorted(
            impl for anc, impl in edges if anc == head and kinds.get(impl) == "contract"
        )
        if len(implementers) == 1:
            mapping[var] = implementers[0]
        elif len(implementers) > 1:
            log.warning(
                "type %s of %s has %d concrete implementers (%s); leaving unresolved",
                head, var, len(implementers), ", ".join(implementers),
            )
    return ResolutionMap(mapping=mapping, type_map=type_map, inheritance=frozenset(edges),
                         kinds=kinds, var_origin=var_origin)


def build_call_graph(records: list[FunctionRecord], resolution: ResolutionMap) -> CallGraph:
    """One edge per actionable call site whose resolved callee declares the
    invoked method."""
    declared = {r.key for r in records}
    edges: set[tuple[FnKey, FnKey]] = set()
    for rec in records:
        for site in rec.call_sites:
            callee_contract = resolution.resolve(resolution.var_id(rec.owner, site.target))
            if callee_contract is None:
                continue
            callee = (callee_contract, site.method)
            if callee not in declared:
                log.info("resolution miss: %s.%s -> %s has no %s", rec.owner, rec.name,
                         callee_contract, site.method)
                continue
            edges.add((rec.key, callee))
    contract_edges = {(f[0], g[0]) for f, g in edges}
    callees: dict[FnKey, set[FnKey]] = {}
    callers: dict[FnKey, set[FnKey]] = {}
    for f, g in edges:
        callees.setdefault(f, set()).add(g)
        callers.setdefault(g, set()).add(f)
    return CallGraph(edges=frozenset(edges), contract_edges=frozenset(contract_edges),
                     adjacent=(callees, callers))


def propagate_footprints(records: list[FunctionRecord]) -> Footprints:
    """Least fixpoint of read/write/fund propagation through same-contract
    internal calls, per function key. A key's own facts are the union over
    its overloads, and an internal call by name reaches every overload of
    the callee, so a key's footprint never shrinks when an overload is
    added. Set union over a finite lattice: iteration terminates."""
    reads: dict[FnKey, set[str]] = {}
    writes: dict[FnKey, set[str]] = {}
    fund: dict[FnKey, bool] = {}
    calls: dict[FnKey, set[FnKey]] = {}
    for r in records:
        reads.setdefault(r.key, set()).update(r.reads)
        writes.setdefault(r.key, set()).update(r.writes)
        fund[r.key] = fund.get(r.key, False) or r.fund_flag
        calls.setdefault(r.key, set()).update((r.owner, name) for name in r.internal_calls)
    calls = {k: names & calls.keys() for k, names in calls.items()}   # callees declared here

    changed = True
    while changed:
        changed = False
        for k, callees in calls.items():
            for ck in callees:
                if not reads[ck] <= reads[k]:
                    reads[k] |= reads[ck]
                    changed = True
                if not writes[ck] <= writes[k]:
                    writes[k] |= writes[ck]
                    changed = True
                if fund[ck] and not fund[k]:
                    fund[k] = True
                    changed = True
    return Footprints(
        reads={k: frozenset(v) for k, v in reads.items()},
        writes={k: frozenset(v) for k, v in writes.items()},
        fund=fund,
    )


def compute_state_dependencies(records: list[FunctionRecord], footprints: Footprints,
                               resolution: ResolutionMap) -> StateDependencyMap:
    """Per-variable writers, readers and consumers keyed by qualified variable
    id, plus per-function approval recipients. The rot set is filled in by
    flag_rotation_risks."""
    writers: dict[str, set[FnKey]] = {}
    readers: dict[str, set[FnKey]] = {}
    for key in dict.fromkeys(r.key for r in records):   # a footprint is per key
        for v in footprints.writes.get(key, frozenset()):
            writers.setdefault(resolution.var_id(key[0], v), set()).add(key)
        for v in footprints.reads.get(key, frozenset()):
            readers.setdefault(resolution.var_id(key[0], v), set()).add(key)

    approvals: dict[FnKey, frozenset[str]] = {}
    for r in records:
        if got := {qid for _, kind, name in r.effects
                   if kind == "approve" and (qid := resolution.var_origin.get((r.owner, name)))}:
            approvals[r.key] = approvals.get(r.key, frozenset()) | got

    consumers: dict[str, set[FnKey]] = {}
    for r in records:
        for site in r.call_sites:
            consumers.setdefault(resolution.var_id(r.owner, site.target), set()).add(r.key)
        for v in approvals.get(r.key, frozenset()):
            consumers.setdefault(v, set()).add(r.key)

    return StateDependencyMap(
        writers={v: frozenset(s) for v, s in writers.items()},
        readers={v: frozenset(s) for v, s in readers.items()},
        consumers={v: frozenset(s) for v, s in consumers.items()},
        approvals=approvals,
        rot=frozenset(),
    )


def classify_admin(records: list[FunctionRecord]) -> frozenset[FnKey]:
    """Function keys whose every overload is role-guarded: its guards
    (modifier names folded in) match a role-check pattern. One unguarded
    overload leaves the key open to anyone."""
    guarded: set[FnKey] = set()
    unguarded: set[FnKey] = set()
    for r in records:
        if any(_ROLE_MODIFIER_RE.match(g) or _ROLE_REQUIRE_RE.match(g)
               for g in (*r.guards, *r.modifiers)):
            guarded.add(r.key)
        else:
            unguarded.add(r.key)
    return frozenset(guarded - unguarded)


def flag_rotation_risks(deps: StateDependencyMap, admin_set: frozenset[FnKey]) -> frozenset[str]:
    """Variables that are admin-writable and simultaneously consumed as a call
    target or approval recipient."""
    rot = set()
    for v, consumer_set in deps.consumers.items():
        if not consumer_set:
            continue
        if any(w in admin_set for w in deps.writers.get(v, frozenset())):
            rot.add(v)
    return frozenset(rot)


_RETURN_RE = re.compile(r"return(?<!\wreturn)\b([^;]*);")
_EMIT_RE = re.compile(r"emit(?<!\wemit)\s+([A-Za-z_]\w*\s*\()")


def _postconditions(parsed: ParsedSource, record: FunctionRecord) -> frozenset[str]:
    masked, (start, end) = parsed.masked, record.span
    out: set[str] = set()
    for m in _RETURN_RE.finditer(masked, start, end):
        expr = m.group(1).strip()
        if expr:
            out.add(normalize_predicate("return " + expr))
    for m, _, close in balanced(masked, _EMIT_RE, parsed.brackets, start, end, "()"):
        out.add(normalize_predicate("emit " + masked[m.start(1):close + 1]))
    return frozenset(out)


def _caller_gating_guards(record: FunctionRecord) -> frozenset[str]:
    # any msg.sender mention or role modifier counts as caller-gating;
    # per-caller-contract restriction is not recoverable from source
    out = {g for g in record.guards if "msg.sender" in g}
    out |= {m for m in record.modifiers if _ROLE_MODIFIER_RE.match(m)}
    return frozenset(out)


def compute_trust_model(graph: CallGraph, records: list[FunctionRecord],
                        parsed: ParsedSource) -> TrustModel:
    """Assumed vs enforced predicate sets per directed contract pair, trust
    gaps as containment failures, callbacks as bidirectional contract edges.
    A callee key's post-conditions are the union over its overloads."""
    by_owner: dict[str, list[FunctionRecord]] = {}
    for r in records:
        by_owner.setdefault(r.owner, []).append(r)

    # each callee's bodies are scanned once, however many edges reach it
    callees = {g for _, g in graph.edges}
    post: dict[FnKey, set[str]] = {}
    for r in records:
        if r.key in callees:
            post.setdefault(r.key, set()).update(_postconditions(parsed, r))
    assumes: dict[tuple[str, str], set[str]] = {}
    for (f, g) in graph.edges:
        assumes.setdefault((f[0], g[0]), set()).update(post.get(g, ()))

    enforces: dict[tuple[str, str], set[str]] = {}
    for (c1, c2) in graph.contract_edges:
        acc: set[str] = set()
        for g_rec in by_owner.get(c2, []):
            acc |= _caller_gating_guards(g_rec)
        enforces[(c2, c1)] = acc

    trustgap = set()
    for (c1, c2) in graph.contract_edges:
        assumed = assumes.get((c1, c2), set())
        enforced = enforces.get((c2, c1), set())
        if not assumed <= enforced:
            trustgap.add((c1, c2))

    callbacks = set()
    for (c1, c2) in graph.contract_edges:
        if c1 != c2 and (c2, c1) in graph.contract_edges:
            callbacks.add(tuple(sorted((c1, c2))))

    return TrustModel(
        assumes={k: frozenset(v) for k, v in assumes.items()},
        enforces={k: frozenset(v) for k, v in enforces.items()},
        trustgap=frozenset(trustgap),
        callbacks=frozenset(callbacks),
    )


def assemble_ccim(source: AuditSource) -> CcimModel:
    """Run the full construction pipeline over an audit source, parsed once."""
    parsed = parse_source(source.text, source.masked)
    records = parse_function_records(source, parsed)
    resolution = build_resolution(parsed)
    graph = build_call_graph(records, resolution)
    footprints = propagate_footprints(records)
    deps = compute_state_dependencies(records, footprints, resolution)
    admin_set = classify_admin(records)
    deps = deps._replace(rot=flag_rotation_risks(deps, admin_set))
    trust = compute_trust_model(graph, records, parsed)
    return CcimModel.build(
        records=tuple(records), resolution=resolution, graph=graph,
        footprints=footprints, deps=deps, trust=trust, admin_set=admin_set,
        parsed=parsed,
        # ingest reads declarations off the mask as the parse does; keep the
        # resolved, each once: a name two files declare is one contract
        scope=tuple(dict.fromkeys(c for c in source.scope if c in resolution.kinds)),
    )


# ---------------------------------------------------------------------------
# canonical serialization


def _fn(key: FnKey) -> str:
    return f"{key[0]}.{key[1]}"


def ccim_to_dict(model: CcimModel) -> dict:
    """Stable-keyed plain-dict form used for golden tests and external consumers."""
    return {
        "records": [
            {
                "name": r.name, "owner": r.owner, "vis": r.vis, "mut": r.mut,
                "modifiers": list(r.modifiers), "guards": sorted(r.guards),
                "reads": sorted(r.reads), "writes": sorted(r.writes),
                "call_sites": [{"target": s.target, "method": s.method, "line": s.line}
                               for s in r.call_sites],
                "fund_flag": r.fund_flag, "src": list(r.src),
                "internal_calls": sorted(r.internal_calls),
                "params": list(r.params),
                "pragma_ge_08": r.pragma_ge_08,
            }
            for r in sorted(model.records, key=lambda r: r.src[0])
        ],
        "resolution": {
            "map": {v: model.resolution.mapping[v] for v in sorted(model.resolution.mapping)},
            "types": {v: model.resolution.type_map[v] for v in sorted(model.resolution.type_map)},
            "inheritance": sorted(f"{a}->{b}" for a, b in model.resolution.inheritance if a != b),
            "kinds": dict(sorted(model.resolution.kinds.items())),
        },
        "graph": {
            "edges": sorted(f"{_fn(f)} -> {_fn(g)}" for f, g in model.graph.edges),
            "contract_edges": sorted(f"{a} -> {b}" for a, b in model.graph.contract_edges),
        },
        "footprints": {
            _fn(k): {
                "reads": sorted(model.footprints.reads[k]),
                "writes": sorted(model.footprints.writes[k]),
                "fund": model.footprints.fund[k],
            }
            for k in sorted(model.footprints.reads)
        },
        "deps": {
            "writers": {v: sorted(map(_fn, s)) for v, s in sorted(model.deps.writers.items())},
            "readers": {v: sorted(map(_fn, s)) for v, s in sorted(model.deps.readers.items())},
            "consumers": {v: sorted(map(_fn, s)) for v, s in sorted(model.deps.consumers.items())},
            "approvals": {_fn(k): sorted(v) for k, v in sorted(model.deps.approvals.items())},
            "rot": sorted(model.deps.rot),
        },
        "trust": {
            "assumes": {f"{a}->{b}": sorted(v) for (a, b), v in sorted(model.trust.assumes.items())},
            "enforces": {f"{a}->{b}": sorted(v) for (a, b), v in sorted(model.trust.enforces.items())},
            "trustgap": sorted(f"{a}->{b}" for a, b in model.trust.trustgap),
            "callbacks": sorted(f"{a}<->{b}" for a, b in model.trust.callbacks),
        },
        "admin": sorted(map(_fn, model.admin_set)),
        "scope": list(model.scope),
    }


def ccim_to_json(model: CcimModel) -> str:
    """`canonical_json` of `ccim_to_dict`: the golden form of the model."""
    return canonical_json(ccim_to_dict(model))


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# the text of a scalar of exactly each type; a container writes such an item
# inline, which halves the encode of a report of many small fields
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def canonical_json(value) -> str:
    """The canonical JSON text of `value`: `json.dumps(value, indent=2,
    sort_keys=True)` byte for byte, in one recursive pass. The standard
    library's C encoder serves only an unindented dump, so an indented one
    runs its pure-Python generator chain. Takes str (ASCII-escaped), int,
    float (NaN and infinities spelled `NaN`, `Infinity` and `-Infinity`),
    bool and None, each of exactly that type, lists and tuples, and dicts
    with str keys, written in key order; an empty container is `{}` or `[]`,
    and anything else, a subclass of a scalar type too, raises TypeError.
    The one JSON writer of the reports and the model."""
    parts: list[str] = []
    _encode(value, "\n", parts.append)
    return "".join(parts)


def _encode(value, newline: str, push) -> None:
    """Push the text of `value`, each line of its containers led by
    `newline` and a further indent."""
    if text := _SCALAR_TEXT.get(type(value)):
        push(text(value))
    elif isinstance(value, dict):
        if not value:
            push("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            if text := _SCALAR_TEXT.get(type(item)):
                push(f"{lead}{encode_basestring_ascii(key)}: {text(item)}")
            else:
                push(f"{lead}{encode_basestring_ascii(key)}: ")
                _encode(item, inner, push)
            lead = "," + inner
        push(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            push("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            if text := _SCALAR_TEXT.get(type(item)):
                push(lead + text(item))
            else:
                push(lead)
                _encode(item, inner, push)
            lead = "," + inner
        push(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
