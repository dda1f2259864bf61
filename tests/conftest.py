from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import REPOS, write_repo  # noqa: E402

from solaudit import cli  # noqa: E402
from solaudit.ccim import CcimModel, assemble_ccim  # noqa: E402
from solaudit.engines import run_engines  # noqa: E402
from solaudit.ingest import AuditSource, build_audit_source, classify_files, resolve_remappings  # noqa: E402
from solaudit.reasoner import MockReasoner  # noqa: E402


@pytest.fixture(scope="session")
def corpus_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    for name, repo in REPOS.items():
        write_repo(repo, root / name)
    return root


@pytest.fixture(scope="session")
def sources(corpus_root) -> dict[str, AuditSource]:
    out = {}
    for name in REPOS:
        files = classify_files(corpus_root / name)
        out[name] = build_audit_source(files, None, resolve_remappings(corpus_root / name))
    return out


@pytest.fixture(scope="session")
def models(sources) -> dict[str, CcimModel]:
    return {name: assemble_ccim(src) for name, src in sources.items()}


@pytest.fixture(scope="session")
def merged_signals(models):
    return {name: run_engines(models[name]) for name in REPOS}


@pytest.fixture
def made_reasoners(monkeypatch) -> list[MockReasoner]:
    """Every mock reasoner that `cli.main` constructs, to read its counters."""
    made = []

    class Kept(MockReasoner):
        def __init__(self, script=None):
            super().__init__(script)
            made.append(self)

    monkeypatch.setattr(cli, "MockReasoner", Kept)
    return made
