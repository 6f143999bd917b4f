"""Write the next BENCH_<n>.json: the benchmark, canonical runs and tier-1, in one file.

Usage (from the root of a checkout)::

    python3 tools/bench_report.py

It records, in this order:

* ``perfbench``: the last JSON line of ``perfbench/run.py --workload W
  --seed 0 --seconds S --trace T`` for every workload and T = 0, 1, with S
  the benchmark's ``run_seconds`` from BENCHMARK.json (end-to-end metrics
  in reference seconds, then per-layer metrics);
* ``scenarios``: ``traitsim run`` on each file in ``scenarios/`` to its own
  t_end, :data:`REPEATS` fresh processes each, raw wall seconds (min and
  median);
* ``tier1``: wall seconds and the pass/fail counts of the tier-1 suite
  (``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
  the path), with the ids of the failing tests;
* ``src_lines`` and ``environment``: the benchmark's own environment block.

The file goes to BENCH_<n>.json in the checkout root with the smallest n
not yet taken; commit it with the change it measures.  Timings on a shared
machine are noisy: compare files from the same session, and use
perfbench's paired A/B runs for a gain claim.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
REPEATS = 5


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def perfbench(workload: str, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def scenario_wall(path: Path) -> dict:
    times = []
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "traitsim", "run", str(path), "--out", out, "--quiet"]
        for _ in range(REPEATS):
            start = time.perf_counter()
            subprocess.run(argv, env=_env(), check=True)
            times.append(time.perf_counter() - start)
    return {"wall_s_min": min(times), "wall_s_median": statistics.median(times),
            "repeats": REPEATS, "unit": "s"}


def tier1() -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider", "-rf"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", proc.stdout)}
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    return {"wall_s": wall, "unit": "s", "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("error", 0),
            "failed_tests": failed}


def next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main() -> int:
    seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    sys.path.insert(0, str(PERFBENCH))
    from run import WORKLOADS, environment  # perfbench/run.py; its main runs only as a script

    doc: dict = {}
    doc["perfbench"] = {
        name: {f"trace{trace}": perfbench(name, seconds, trace) for trace in (0, 1)}
        for name in WORKLOADS
    }
    scenarios = sorted((ROOT / "scenarios").glob("*.ini"))
    doc["scenarios"] = {path.stem: scenario_wall(path) for path in scenarios}
    doc["tier1"] = tier1()
    env = environment(0)
    doc["src_lines"] = env["src_lines"]
    doc["environment"] = env
    out = next_path()
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
