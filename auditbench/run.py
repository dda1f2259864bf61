"""Audit benchmark: complete audits through `solaudit.cli.main` on seeded
synthetic corpora, with output checks and an optional traced per-layer run.

    python3 auditbench/run.py --workload wide --seed 1 --seconds 30 --trace 0
    python3 auditbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Load is a closed loop: one audit after another in this process, reports
written to disk each time. Timings are medians; audit and set-up times are
scaled to reference machine speeds measured around them (see speed.py). The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. Spans of the last traced
audit go to `.bench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import gen
import speed
from tracing import REASONER_STAGES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
EXPECT_EXIT = {"wide": 0, "deep": 0, "noisy": 1}   # noisy keeps a HIGH finding


def set_up(corpus: gen.Corpus, script: dict | None, work: Path) -> float:
    """Write the corpus and mock script, then import `solaudit.cli` in a
    fresh interpreter; returns the wall seconds of both, scaled to the
    reference speed of a bare interpreter start timed around them."""
    before = speed.interpreter_start_s()
    t0 = time.perf_counter()
    shutil.rmtree(work / "corpus", ignore_errors=True)
    for rel, text in corpus.files.items():
        path = work / "corpus" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    if script is not None:
        (work / "mock.json").write_text(json.dumps(script), encoding="utf-8")
    # no timeout: a wait with one polls in steps of up to 50 ms, which the
    # timing would pick up
    subprocess.run([sys.executable, "-c", "import solaudit.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    elapsed = time.perf_counter() - t0
    after = speed.interpreter_start_s()
    return elapsed * speed.START_REFERENCE_S / ((before + after) / 2)


@contextlib.contextmanager
def captured_reasoners(mock_cls):
    """Collect every reasoner the CLI constructs, to read its call counters
    after the audit without wrapping a single call."""
    made = []
    init = mock_cls.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    mock_cls.__init__ = capture
    try:
        yield made
    finally:
        mock_cls.__init__ = init


class Auditor:
    """Runs one audit at a time and checks it against the generator."""

    def __init__(self, cli, argv: list[str], out: Path, corpus: gen.Corpus,
                 claims: list[gen.Claim], expect_exit: int, reasoners: list):
        self.cli, self.argv, self.out = cli, argv, out
        self.corpus, self.claims, self.expect_exit = corpus, claims, expect_exit
        self.reasoners = reasoners
        self.attempted = self.failed = 0
        self.first_digest: str | None = None
        self.calls = 0
        self.last: tuple[int, dict] | None = None

    def audit(self) -> float | None:
        """Wall seconds of one audit, or None when it raised."""
        for name in ("report.json", "report.md"):
            (self.out / name).unlink(missing_ok=True)
        self.reasoners.clear()
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(self.argv)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        elapsed = time.perf_counter() - t0
        problems = self._check(code)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
        return elapsed

    def _check(self, code: int) -> list[str]:
        try:
            text = (self.out / "report.json").read_text(encoding="utf-8")
            md = (self.out / "report.md").read_text(encoding="utf-8")
        except OSError as exc:
            return [f"report not written: {exc}"]
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"report.json is not JSON: {exc}"]
        problems = checks.check_audit(code, report, self.corpus, self.claims, self.expect_exit)
        if len(self.reasoners) != 1:
            return problems + [f"{len(self.reasoners)} reasoners constructed, expected 1"]
        reasoner = self.reasoners[0]
        calls = {stage: reasoner.call_count(stage) for stage in REASONER_STAGES}
        self.calls = reasoner.total_calls()
        digest = hashlib.sha256(
            "\0".join((text, md, json.dumps(calls, sort_keys=True), str(self.calls))).encode()
        ).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("report.json, report.md or reasoner counts differ from the first audit")
        self.last = (code, report)
        return problems


def run_timed(auditor: Auditor, seconds: float, tracer: Tracer | None):
    """Closed loop until `seconds` have passed. With a tracer, audits
    alternate untraced and traced. Each audit's wall time is scaled by the
    median of the speed-kernel times sampled just before and just after it.
    Returns the scaled and the raw wall times of the untraced audits, the
    scaled times of the traced ones, and each traced audit's per-layer
    figures."""
    plain, raw, traced, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    before = speed.sample()
    while True:
        is_traced = tracer is not None and len(traced) < len(plain)
        if is_traced:
            tracer.reset()
            tracer.install()
            try:
                with tracer.audit():
                    elapsed = auditor.audit()
            finally:
                tracer.uninstall()
        else:
            elapsed = auditor.audit()
        after = speed.sample()
        if elapsed is not None:
            scaled = elapsed * speed.REFERENCE_S / statistics.median(before + after)
            if is_traced:
                traced.append(scaled)
                layers.append(tracer.metrics())
            else:
                plain.append(scaled)
                raw.append(elapsed)
        before = after
        if time.perf_counter() >= deadline and (tracer is None or traced):
            return plain, raw, traced, layers


def write_trace(tracer: Tracer, path: Path, metrics: dict) -> None:
    doc = {
        "missing": tracer.missing,
        "metrics": metrics,
        "summary": tracer.summary(),
        "spans": [s._asdict() for s in tracer.spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def run_all(args) -> int:
    """Every workload in a child process of its own, one after another. The
    last line combines their results, with metric names prefixed by the
    workload; the exit code is 1 if any workload failed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in sorted(gen.SHAPES):
        child = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)],
                               stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{w}.{name}": m for name, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.SHAPES) + ["all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "solaudit" / "cli.py").is_file():
        print(f"error: no solaudit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from solaudit import cli, reasoner

    shape = gen.SHAPES[args.workload]
    corpus = gen.generate(shape, args.seed)
    seeding = [] if (gen.generate(shape, args.seed).files == corpus.files
                     != gen.generate(shape, args.seed + 1).files) else ["seeding"]
    script, claims = (gen.noisy_script(corpus, args.seed) if args.workload == "noisy"
                      else (None, []))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = statistics.median(set_up(corpus, script, work) for _ in range(SETUP_REPEATS))
        out = work / "out"
        cli_argv = ["--path", str(work / "corpus"), "--out", str(out)]
        if script is not None:
            cli_argv += ["--mock-script", str(work / "mock.json")]
        with captured_reasoners(reasoner.MockReasoner) as made:
            auditor = Auditor(cli, cli_argv, out, corpus, claims,
                              EXPECT_EXIT[args.workload], made)
            # warm-up: traced, untimed; it fills caches, totals the prompt
            # characters and gives the self-test a real report to doctor
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.audit():
                    auditor.audit()
            finally:
                tracer.uninstall()
            prompt_kchars = sum(t[1] for t in tracer.reasoner.values()) / 1000
            missed = seeding + (checks.self_test(*auditor.last, corpus, claims, auditor.expect_exit)
                                if auditor.last else ["no report to doctor"])
            for m in missed:
                print(f"self-test failed: {m}", file=sys.stderr)
            plain, raw, traced, layers = run_timed(auditor, args.seconds,
                                                   tracer if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not plain:
        print("error: no audit completed", file=sys.stderr)
        return 1
    audit_s = statistics.median(plain)
    if args.trace:
        metrics = {name: statistics.median(m.get(name, 0.0) for m in layers)
                   for name in {d["name"] for d in spec["per_layer"]}}
        metrics["trace.overhead_s"] = statistics.median(traced) - audit_s
        write_trace(tracer, WORK / f"trace-{args.workload}-seed{args.seed}.json", metrics)
        wanted = spec["per_layer"]
    else:
        metrics = {
            "audit_s": audit_s,
            "lines_per_s": corpus.lines / audit_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "reasoner_calls": auditor.calls,
            "prompt_kchars": prompt_kchars,
        }
        wanted = spec["end_to_end"]
    error_rate = auditor.failed / max(1, auditor.attempted)
    print(f"{args.workload} seed {args.seed}: {corpus.lines} lines; medians of {len(plain)} "
          f"untraced audits (wall {statistics.median(raw):.4g} s, range {min(raw):.4g}-"
          f"{max(raw):.4g} s, scaled/wall {audit_s / statistics.median(raw):.3f}) and "
          f"{len(traced)} traced; "
          f"error_rate {error_rate:.3f} ({auditor.failed} of {auditor.attempted})")
    for d in wanted:
        print(f"  {d['name']} = {metrics[d['name']]:.6g} {d['unit']}")
    result = {
        "correct": auditor.failed == 0 and not missed,
        "attempted": auditor.attempted,
        "failed": auditor.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
