"""Ingestion of normalized external-tool reports (Slither/Mythril class).

Expected JSON shape:

    {"tool": "slither", "findings": [
        {"detector": "reentrancy-eth", "description": "...",
         "severity": "High", "file": "src/Vault.sol", "line": 12,
         "contract": "Vault", "function": "withdraw", "confidence": 0.8}
    ]}

The signals are tagged MYT when `tool` starts with "myt" (Mythril) and SLI
otherwise. `file` + `line` are translated through the offset map into
concatenation space; a bare `line` is taken to already be in concatenation
space. Running the tools themselves is out of scope; only their normalized
output is read.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

from ..findings import reply_line
from ..ingest import OffsetMap
from .signal import Signal

log = logging.getLogger(__name__)

_SEVERITY_ALIASES = {
    "critical": "CRITICAL", "high": "HIGH", "medium": "MEDIUM", "moderate": "MEDIUM",
    "low": "LOW", "info": "INFO", "informational": "INFO", "warning": "LOW",
    "note": "INFO", "optimization": "INFO",
}


def _map_severity(raw) -> str:
    got = _SEVERITY_ALIASES.get(str(raw).strip().lower())
    if got is None:
        log.warning("unknown external severity %r mapped to INFO", raw)
        return "INFO"
    return got


def _translate_line(entry: dict, offsets: OffsetMap | None) -> int | None:
    line = reply_line(entry.get("line"))
    if line is None:
        return None
    file = entry.get("file")
    if file and offsets is not None:
        for seg in offsets.segments:
            if seg.path == file:
                candidate = seg.start + (line - seg.orig_start)
                if seg.start <= candidate <= seg.end:
                    return candidate
                break
        log.warning("external finding cites %s:%s outside the audit source", file, line)
        return None
    if offsets is not None and offsets.segments and not 1 <= line <= offsets.total_lines:
        log.warning("external finding line %s outside concatenation range", line)
        return None
    return line


def ingest_external(path: str | Path, offsets: OffsetMap | None = None) -> list[Signal]:
    """Parse one normalized report into signals tagged SLI or MYT."""
    path = Path(path)
    if not path.is_file():
        log.warning("external report not found: %s", path)
        return []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        log.warning("malformed external report %s (%s); ignored", path, exc)
        return []
    entries = data.get("findings") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        log.warning("malformed external report %s (no findings list); ignored", path)
        return []
    tool = "MYT" if str(data.get("tool", "slither")).lower().startswith("myt") else "SLI"

    signals: list[Signal] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            log.warning("entry %d of %s is not an object; skipped", i, path)
            continue
        detector = str(entry.get("detector") or entry.get("id") or f"entry{i}")
        function = None
        if entry.get("contract") and entry.get("function"):
            function = (str(entry["contract"]), str(entry["function"]))
        conf = entry.get("confidence")
        signals.append(Signal(
            source_tag=tool,
            id=f"{tool.lower()}-{detector}",
            description=str(entry.get("description", "")).strip() or detector,
            severity=_map_severity(entry.get("severity", "info")),
            confidence=float(conf) if isinstance(conf, (int, float)) and 0 <= conf <= 1 else 0.5,
            function=function,
            line_hint=_translate_line(entry, offsets),
        ))
    return signals
