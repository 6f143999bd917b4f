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
  median), the median in reference seconds and the median peak resident
  set of the runs (``ru_maxrss`` from ``os.wait4``, in MB);
* ``reporter_peak_rss_mb``: this script's own ``ru_maxrss`` at the end.  A
  child's ``ru_maxrss`` cannot read below its parent's peak at the time it
  was started, so the scenarios' peaks are their own only while this stays
  below every one of them (perfbench's runner is larger, and its floor
  hides changes that these records show);
* ``startup``: for each command in :data:`STARTUP`, the median over
  :data:`REPEATS` fresh ``python3 -X importtime`` processes of the
  cumulative import microseconds of each top-level ``traitsim*`` module,
  and whether ``PYTHONDONTWRITEBYTECODE`` is set (if it is, no bytecode is
  cached and every process compiles each module it imports from source);
* ``tier1``: wall seconds and the pass/fail counts of the tier-1 suite
  (``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
  the path), with the ids of the failing tests, and the wall time in
  reference seconds;
* ``src_lines`` and ``environment``: the benchmark's own environment block.

Raw seconds follow the host's speed, which drifts by tens of percent over
minutes.  So the timed processes are interleaved with :data:`REPEATS` runs
of ``perfbench/calibrate.py`` (a scenario's repeats alternate which of the
two goes first; tier-1 runs between the first and the last calibrations),
and each timing records ``ratio``, its median wall over the median
calibration, and ``ref_s``, that ratio * ``CAL_REF_S`` (perfbench's unit).
One 0.35 s calibration is too short to divide a several-second run by; the
median of several follows the host's drift with less noise of its own.

The file goes to BENCH_<n>.json in the checkout root with the smallest n
not yet taken; commit it with the change it measures.  Timings on a shared
machine are noisy: compare files from the same session, and use
perfbench's paired A/B runs for a gain claim.
"""

from __future__ import annotations

import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
REPEATS = 5

#: label -> the arguments after ``python3 -X importtime``, run from the checkout root
STARTUP = {
    "import traitsim.oracle": ["-c", "import traitsim.oracle"],
    "traitsim predict scenarios/gaussian_ratio.ini":
        ["-m", "traitsim", "predict", "scenarios/gaussian_ratio.ini"],
    "traitsim run tests/data/tiny.ini": ["-m", "traitsim", "run", "tests/data/tiny.ini", "--quiet"],
}

#: an ``-X importtime`` line of a module imported at the top level (not by another module)
TOP_IMPORT = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| (traitsim\S*)$", re.MULTILINE)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def perfbench(workload: str, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def timed(argv: list[str], **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, **kwargs)
    return time.perf_counter() - start, proc


def timed_rss(argv: list[str], **kwargs) -> tuple[float, float]:
    """Wall seconds and peak resident MB of one process, which must exit 0."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, **kwargs)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return wall, usage.ru_maxrss / 1024.0


def calibration() -> float:
    """Wall seconds of one ``perfbench/calibrate.py`` process."""
    wall, _ = timed([sys.executable, str(PERFBENCH / "calibrate.py")],
                    check=True, capture_output=True)
    return wall


def calibrated(walls: list[float], cals: list[float], cal_ref_s: float) -> dict:
    ratio = statistics.median(walls) / statistics.median(cals)
    return {"calibration_s_median": statistics.median(cals), "ratio": ratio,
            "ref_s": ratio * cal_ref_s}


def scenario_wall(path: Path, cal_ref_s: float) -> dict:
    walls, rss, cals = [], [], []
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "traitsim", "run", str(path), "--out", out, "--quiet"]
        for k in range(REPEATS):
            if k % 2 == 0:
                cals.append(calibration())
            wall, peak = timed_rss(argv, env=_env())
            walls.append(wall)
            rss.append(peak)
            if k % 2 == 1:
                cals.append(calibration())
    return {"wall_s_min": min(walls), "wall_s_median": statistics.median(walls),
            **calibrated(walls, cals, cal_ref_s), "repeats": REPEATS, "unit": "s",
            "peak_rss_mb_median": statistics.median(rss)}


def startup() -> dict:
    """Median cumulative import microseconds of each top-level traitsim module, per command."""
    doc: dict = {"dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
                 "repeats": REPEATS, "unit": "us"}
    with tempfile.TemporaryDirectory() as out:
        env = {**_env(), "TRAITSIM_OUT": out}
        for label, args in STARTUP.items():
            runs: dict[str, list[int]] = {}
            for _ in range(REPEATS):
                proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=ROOT,
                                      env=env, capture_output=True, text=True, check=True)
                for us, name in TOP_IMPORT.findall(proc.stderr):
                    runs.setdefault(name, []).append(int(us))
            doc[label] = {name: statistics.median(v) for name, v in runs.items()}
    return doc


def tier1(cal_ref_s: float) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider", "-rf"]
    cals = [calibration() for _ in range(REPEATS // 2 + 1)]
    wall, proc = timed(argv, cwd=ROOT, env=_env(), capture_output=True, text=True)
    cals += [calibration() for _ in range(REPEATS // 2)]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", proc.stdout)}
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    return {"wall_s": wall, "unit": "s", **calibrated([wall], cals, cal_ref_s),
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0), "failed_tests": failed}


def next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main() -> int:
    seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    sys.path.insert(0, str(PERFBENCH))
    from run import CAL_REF_S, WORKLOADS, environment  # perfbench/run.py; main runs as a script

    doc: dict = {}
    doc["perfbench"] = {
        name: {f"trace{trace}": perfbench(name, seconds, trace) for trace in (0, 1)}
        for name in WORKLOADS
    }
    scenarios = sorted((ROOT / "scenarios").glob("*.ini"))
    doc["scenarios"] = {path.stem: scenario_wall(path, CAL_REF_S) for path in scenarios}
    doc["startup"] = startup()
    doc["tier1"] = tier1(CAL_REF_S)
    doc["cal_ref_s"] = CAL_REF_S
    doc["reporter_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(0)
    doc["src_lines"] = env["src_lines"]
    doc["environment"] = env
    out = next_path()
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
