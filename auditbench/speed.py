"""Machine-speed references for steady timings on a shared host.

On a machine shared with other tenants, the speed of pure-Python work drifts
by tens of percent over minutes, so the median wall time of one run differs
from the next run's by more than any regression worth catching. Two fixed
references are timed next to the work they calibrate, and a measured time is
multiplied by the reference's seconds on the baseline host over its seconds
now. The host's speed cancels; the program's own work does not, because the
references never change with the program.

- Audits: a kernel of the same kind of work the auditor does is timed a few
  times between every two audits. It scans a frozen Solidity text,
  `kernel_input.sol`, with a regex, splits and counts it, and builds, indexes
  and sorts small records. Each audit is scaled by the median of the kernel
  times just before and just after it.
- Set-up: most of it is a fresh interpreter importing the program, so its
  reference is the start of a bare interpreter, timed just before and just
  after each set-up.
"""

from __future__ import annotations

import gc
import re
import subprocess
import sys
import time
from pathlib import Path

# the kernel's median wall time on the host where the baselines were taken,
# so that scaled seconds read close to that host's wall seconds
REFERENCE_S = 0.04
# the same for the start of a bare interpreter (`python3 -c pass`)
START_REFERENCE_S = 0.05

SAMPLES = 4

_WORD = re.compile(r"[A-Za-z_]\w*")
_TEXT = Path(__file__).with_name("kernel_input.sol").read_text(encoding="utf-8") * 20


def sample() -> list[float]:
    """Wall seconds of SAMPLES runs of the reference kernel. Collects garbage
    first, so that an audit's leftovers are not collected inside the kernel."""
    gc.collect()
    return [kernel_s() for _ in range(SAMPLES)]


def kernel_s() -> float:
    """Wall seconds of one run of the fixed reference kernel."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for m in _WORD.finditer(_TEXT):
        word = m.group()
        counts[word] = counts.get(word, 0) + 1
    lines = [line.strip() for line in _TEXT.split("\n")]
    sum(len(line) * (i % 7) for i, line in enumerate(lines))
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for _ in range(12):
        records = [{"name": f"f{i}", "reads": (i % 13, i % 7), "writes": [i % 5]}
                   for i in range(1000)]
        index: dict[tuple[int, int], list[str]] = {}
        for r in records:
            index.setdefault(r["reads"], []).append(r["name"])
        sorted(records, key=lambda r: (r["writes"][0], r["name"]))
    return time.perf_counter() - t0


def interpreter_start_s() -> float:
    """Wall seconds of starting and ending a bare interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0
