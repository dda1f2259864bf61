from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import REPOS, write_repo  # noqa: E402

from solaudit import cli  # noqa: E402
from solaudit.ccim import CcimModel, assemble_ccim  # noqa: E402
from solaudit.engines import MergedSignals, run_engines  # noqa: E402
from solaudit.ingest import AuditSource, build_audit_source, classify_files, resolve_remappings  # noqa: E402
from solaudit.reasoner import MockReasoner  # noqa: E402

AUDITBENCH = Path(__file__).resolve().parent.parent / "auditbench"


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


@pytest.fixture(scope="session")
def gen():
    """The benchmark's corpus generator, `auditbench/gen.py`, imported read-only."""
    sys.path.insert(0, str(AUDITBENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(AUDITBENCH))
    return gen


@pytest.fixture(scope="session")
def deep_model(gen, tmp_path_factory) -> tuple[CcimModel, MergedSignals]:
    """(CCIM, merged signals) of the benchmark's `deep` shape, seed 3: two
    contracts of 160 functions over 6 balance/total pairs."""
    corpus = gen.generate(gen.Shape(contracts=2, functions=160, pairs=6), seed=3)
    root = write_repo(corpus.files, tmp_path_factory.mktemp("deep"))
    ccim = assemble_ccim(build_audit_source(classify_files(root), None, resolve_remappings(root)))
    return ccim, run_engines(ccim)


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
