"""Repository ingestion: classify Solidity files, resolve remappings, and build
a concatenated, line-attributable audit source. The comment and string mask
lives here too: each file is masked once, for its role, the scope check and
the parser."""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from pathlib import Path
from typing import NamedTuple

log = logging.getLogger(__name__)

_PRAGMA_RE = re.compile(r"pragma\s+solidity\s+([^;]+);")
# a declaration keyword after whitespace, `;`, `}` or the text's start, and
# its name: the one rule of what declares a contract, for the scope check
# here and for the parser, which reads on to the declaration's `{`. Each
# keyword is found by `str.find`, one pass per keyword: `re` skips ahead only
# to a literal, and tries a set of first letters at every `c`, `i` and `l`
_DECL_KEYWORDS = ("contract", "interface", "library")
_DECL_NAME_RE = re.compile(r"\s+([A-Za-z_]\w*)")       # from the keyword's end
_VERSION_RE = re.compile(r"(\d+)\.(\d+)")
_REMAPPINGS_ARRAY_RE = re.compile(r"remappings\s*=\s*\[(.*?)\]", re.S)
_QUOTED_RE = re.compile(r"[\"']([^\"']+)[\"']")
# a line comment, a block comment (`/*/` closes itself; an unterminated one
# runs to the end), or a quoted literal: groups 1 and 3 the contents of a
# double- and a single-quoted one (a backslash escapes the next character),
# groups 2 and 4 its closing quote, empty when the literal runs to the end.
# Every alternative starts on a literal, so `re` jumps from one `/`, `"` or
# `'` to the next
_NONCODE_RE = re.compile(
    r"""//[^\n]*|/(?=\*)[\s\S]*?\*/|/\*[\s\S]*|"""
    r""""((?:\\[\s\S]?|[^"\\])*)("?)|'((?:\\[\s\S]?|[^'\\])*)('?)"""
)


def blank(text: str) -> str:
    """`text` with every character but a newline turned into a space."""
    return "\n".join([" " * len(line) for line in text.split("\n")])


def _blank_noncode(m: re.Match) -> str:
    if m.lastindex is None:
        return blank(m.group())
    return m.group()[0] + blank(m.group(m.lastindex - 1)) + m.group(m.lastindex)


def mask_noncode(text: str) -> str:
    """Blank comments and string-literal contents, preserving length and
    line structure so offsets computed on the mask apply to the original."""
    return _NONCODE_RE.sub(_blank_noncode, text)


def _left_open(text: str, masked: str) -> bool:
    """Whether a comment or literal in `text` runs off its end. Its mask
    `masked` keeps only a literal's quotes, so an open literal leaves an odd
    count; an open comment is the last one after the last code."""
    tail = [m.group() for m in _NONCODE_RE.finditer(text, len(masked.rstrip()))]
    return (masked.count('"') + masked.count("'")) % 2 == 1 or (
        bool(tail) and tail[-1].startswith("/*") and "*/" not in tail[-1][1:])


class IngestError(Exception):
    """Raised when the repository cannot be ingested at all."""


class SourceFile(NamedTuple):
    path: str          # relative, posix-style
    role: str          # source | test | script | interface | library
    text: str
    # mask_noncode(text), made when the role was read off the content
    masked: str | None = None


class Segment(NamedTuple):
    path: str
    start: int         # first line in concatenation space (1-based, inclusive)
    end: int           # last line in concatenation space (inclusive)
    orig_start: int    # line in the original file that `start` maps to


class OffsetMap(NamedTuple):
    segments: tuple[Segment, ...]
    starts: tuple[int, ...] = ()       # each segment's `start`, for bisection

    @staticmethod
    def build(segments: list[Segment]) -> "OffsetMap":
        return OffsetMap(tuple(segments), tuple(s.start for s in segments))

    @property
    def total_lines(self) -> int:
        return self.segments[-1].end if self.segments else 0


class AuditSource(NamedTuple):
    text: str
    offsets: OffsetMap
    scope: tuple[str, ...]              # in-scope contract names
    remappings: tuple[tuple[str, str], ...]
    pragmas: dict[str, str] = {}        # path -> pragma version expr
    # the files' masks joined like `text`; None masks `text` when it is parsed
    masked: str | None = None


def classify_files(root: str | Path) -> list[SourceFile]:
    """Walk `root` and classify every .sol file by role.

    Path heuristics run first (test/, script/, lib/, mocks/, .t.sol, .s.sol);
    declaration-only content heuristics decide interface/library roles for the
    rest. Non-UTF-8 files are skipped with a warning, never fatally.
    """
    root = Path(root)
    if not root.is_dir():
        raise IngestError(f"input path is not a readable directory: {root}")
    out: list[SourceFile] = []
    for path in sorted(root.rglob("*.sol")):
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            log.warning("skipping non-UTF-8 file: %s", rel)
            continue
        except OSError as exc:
            log.warning("skipping unreadable file %s: %s", rel, exc)
            continue
        role, masked = _role_for(rel, text)
        out.append(SourceFile(path=rel, role=role, text=text, masked=masked))
    return out


def _role_for(rel: str, text: str) -> tuple[str, str | None]:
    """The file's role, and its mask when the role was read off the content."""
    parts = rel.lower().split("/")
    name = parts[-1]
    if any(p in ("test", "tests", "mocks", "mock") for p in parts[:-1]) or name.endswith(".t.sol"):
        return "test", None
    if any(p in ("script", "scripts") for p in parts[:-1]) or name.endswith(".s.sol"):
        return "script", None
    if any(p in ("lib", "node_modules") for p in parts[:-1]):
        return "library", None
    masked = mask_noncode(text)
    kinds = {kind for kind, _ in _declarations(masked)}
    if kinds == {"interface"}:
        return "interface", masked
    if kinds == {"library"}:
        return "library", masked
    return "source", masked


def resolve_remappings(root: str | Path) -> list[tuple[str, str]]:
    """Collect import remappings from remappings.txt and foundry.toml.

    remappings.txt entries win over foundry.toml on duplicate prefixes.
    Malformed lines are skipped with a warning.
    """
    root = Path(root)
    primary = _parse_remapping_lines((root / "remappings.txt").read_text(encoding="utf-8").splitlines()) \
        if (root / "remappings.txt").is_file() else []
    secondary = _foundry_remappings(root / "foundry.toml")
    seen = {p for p, _ in primary}
    merged = list(primary)
    for prefix, repl in secondary:
        if prefix not in seen:
            merged.append((prefix, repl))
            seen.add(prefix)
    return merged


def _parse_remapping_lines(lines) -> list[tuple[str, str]]:
    out = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            log.warning("malformed remapping line skipped: %r", line)
            continue
        prefix, repl = line.split("=", 1)
        if not prefix:
            log.warning("malformed remapping line skipped: %r", line)
            continue
        out.append((prefix, repl))
    return out


def _foundry_remappings(path: Path) -> list[tuple[str, str]]:
    if not path.is_file():
        return []
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        log.warning("cannot read %s: %s", path, exc)
        return []
    try:  # tomllib is 3.11+; tomli may be present on 3.10
        import tomllib as toml_mod  # type: ignore[import-not-found]
    except ModuleNotFoundError:
        try:
            import tomli as toml_mod  # type: ignore[import-not-found]
        except ModuleNotFoundError:
            toml_mod = None
    entries: list[str] = []
    if toml_mod is not None:
        try:
            data = toml_mod.loads(text)
        except Exception as exc:
            log.warning("malformed foundry.toml skipped: %s", exc)
            return []
        entries = _find_remapping_arrays(data)
    else:
        # minimal fallback: pull the remappings = [ ... ] array textually
        m = _REMAPPINGS_ARRAY_RE.search(text)
        if m:
            entries = _QUOTED_RE.findall(m.group(1))
    return _parse_remapping_lines(entries)


def _find_remapping_arrays(data) -> list[str]:
    found: list[str] = []
    if isinstance(data, dict):
        for key, value in data.items():
            if key == "remappings" and isinstance(value, list):
                found.extend(str(v) for v in value)
            else:
                found.extend(_find_remapping_arrays(value))
    return found


def _next_declaration(text: str, keyword: str, pos: int) -> tuple[int, re.Match] | None:
    """(offset, name match) of the first `keyword` declaration in `text` at or
    after `pos`; group 1 of the match is the name."""
    while (at := text.find(keyword, pos)) >= 0:
        if ((at == 0 or text[at - 1].isspace() or text[at - 1] in ";}")
                and (name := _DECL_NAME_RE.match(text, at + len(keyword)))):
            return at, name
        pos = at + 1
    return None


def declarations(text: str, tail: re.Pattern | None = None):
    """(offset, kind, name, whole) per declaration in the masked `text`, in
    offset order: `whole` is `tail` matched from the name on, or the match of
    the name when `tail` is None, and a declaration whose tail does not match
    is none. The keyword passes are merged as one alternation of them would
    read the text: a hit that starts inside the last whole match is dropped,
    and its keyword searched again from that match's end."""
    hits = {kw: _next_declaration(text, kw, 0) for kw in _DECL_KEYWORDS}
    pos = 0
    while True:
        for kw, hit in hits.items():
            if hit is not None and hit[0] < pos:
                hits[kw] = _next_declaration(text, kw, pos)
        live = [(hit[0], kw) for kw, hit in hits.items() if hit is not None]
        if not live:
            return
        at, kw = min(live)
        name = hits[kw][1]
        whole = name if tail is None else tail.match(text, name.start(1))
        if whole is None:
            hits[kw] = _next_declaration(text, kw, at + 1)
            continue
        yield at, kw, name.group(1), whole
        pos = whole.end()


def _declarations(text: str) -> list[tuple[str, str]]:
    """(kind, name) of each declaration in the masked `text`."""
    return [(kind, name) for _, kind, name, _ in declarations(text)]


def _declared_contracts(text: str) -> list[str]:
    return [name for kind, name in _declarations(text) if kind == "contract"]


def build_audit_source(
    files: list[SourceFile],
    scope_override: list[str] | None = None,
    remappings: list[tuple[str, str]] | None = None,
) -> AuditSource:
    """Concatenate role=source files (lexicographic by path) into one audit
    source with a line-accurate offset map and the in-scope contract list.
    Each file is masked on its own: one left open hides nothing of the next."""
    selected = sorted((f for f in files if f.role == "source"), key=lambda f: f.path)
    segments: list[Segment] = []
    chunks: list[str] = []
    masks: list[str] = []
    pragmas: dict[str, str] = {}
    cursor = 1
    for f in selected:
        lines = f.text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            log.warning("empty source file skipped: %s", f.path)
            continue
        segments.append(Segment(path=f.path, start=cursor, end=cursor + len(lines) - 1, orig_start=1))
        chunks.append("\n".join(lines))
        masked = mask_noncode(f.text) if f.masked is None else f.masked
        if _left_open(f.text, masked):
            log.warning("%s ends inside a comment or string literal; masked on its own", f.path)
        masks.append(masked[:len(chunks[-1])])
        m = _PRAGMA_RE.search(masked)
        if m:
            pragmas[f.path] = m.group(1).strip()
        cursor += len(lines)
    text = "\n".join(chunks)
    masked = "\n".join(masks)
    # a contract declared only inside a comment or string is not declared
    scope = tuple(_declared_contracts(masked))
    if scope_override:
        unknown = [n for n in scope_override if n not in scope]
        if unknown:
            raise IngestError(f"scope override names unknown contracts: {', '.join(sorted(unknown))}")
        scope = tuple(n for n in scope if n in set(scope_override))
    return AuditSource(
        text=text,
        offsets=OffsetMap.build(segments),
        scope=scope,
        remappings=tuple(remappings or ()),
        pragmas=pragmas,
        masked=masked,
    )


def map_line(offsets: OffsetMap, line: int) -> tuple[str, int]:
    """Map a concatenation line number back to (file path, original line)."""
    if line < 1 or line > offsets.total_lines:
        raise ValueError(f"line {line} outside concatenation range 1..{offsets.total_lines}")
    idx = bisect_right(offsets.starts, line) - 1
    seg = offsets.segments[idx]
    return seg.path, seg.orig_start + (line - seg.start)


def pragma_ge_08(expr: str | None) -> bool:
    """True when a pragma version expression pins solc at or above 0.8."""
    if not expr:
        return False
    m = _VERSION_RE.search(expr)
    if not m:
        return False
    return (int(m.group(1)), int(m.group(2))) >= (0, 8)
