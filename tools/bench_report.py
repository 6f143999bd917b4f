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
* ``kernel``: for each file in ``scenarios/``, in one fresh process, the
  cost of the mass kernel's two layers, each over :data:`KERNEL_REPEATS`
  repeats (min and median, raw microseconds): ``us_per_step``, one
  exponential RK4 step (four mass quadratures) through the advance that
  ``integrator._exponential_advance`` builds (``run`` builds one per run),
  over :data:`KERNEL_STEPS` steps in one call from the state at step
  :data:`KERNEL_STEPS`; and ``us_per_mass_eval``, one
  ``rho_from_exponents`` call at that state's (A, B), averaged over
  :data:`KERNEL_STEPS` calls;
* ``observation``: what a run with ``sample_every = 1`` pays per observed
  step, on :data:`OBSERVED` in one fresh process, with the same steps,
  start and repeats as ``kernel`` (min and median, raw microseconds):
  ``us_per_observed_step``, one call ``advance(state, 1)`` (an RK4 step
  and the rebuilt ``log_u``), ``us_per_record``, one ``make_record`` of
  that state, and ``us_per_row``, one trajectory.csv row, written by the
  CLI's writer to a file;
* ``records``: what a run keeps per record, in one fresh process:
  ``traitsim.integrator.run`` on :data:`OBSERVED` with ``sample_every = 1``
  to t = :data:`RECORDS_T_END` (50,001 records), traced by ``tracemalloc``
  from just before the run; ``held_bytes`` is the traced memory still held
  when it returns, with the trajectory alive, and ``bytes_per_record`` that
  divided by the record count (the records are nearly all of it);
* ``oracle``: what the atom oracle pays per RK4 step, in one fresh process:
  ``integrate_atoms`` over :data:`ORACLE_STEPS` steps of dt = :data:`ORACLE_DT`
  with c0 = 1, for each atom count in :data:`ORACLE_ATOMS` and each case in
  :data:`ORACLE_CASES` (every d = 1, one shared d != 1, distinct d), after one
  untimed call that builds each system's loop; ``us_per_step`` over
  :data:`REPEATS` rounds that time every system once each (min and median,
  raw microseconds) and ``steps_per_s``, one million over that median;
* ``expressions``: what sampling an expression costs, in one fresh process:
  ``TraitFunction.sample`` of fine_grid's b (``b`` of :data:`EXPRESSION_SCENARIO`,
  the benchmark's seed-0 fine_grid b), freshly parsed before each call, on
  the nodes of [0, 1] for each count in :data:`EXPRESSION_NODES`; min and
  median over :data:`REPEATS` rounds that time each count once (raw
  milliseconds);
* ``reporter_peak_rss_mb``: this script's own ``ru_maxrss`` at the end.  A
  child's ``ru_maxrss`` cannot read below its parent's peak at the time it
  was started, so the scenarios' peaks are their own only while this stays
  below every one of them (perfbench's runner is larger, and its floor
  hides changes that these records show);
* ``startup``: for each command in :data:`STARTUP`, the median over
  :data:`REPEATS` fresh ``python3 -X importtime`` processes of the
  cumulative import microseconds of each top-level ``traitsim*`` module
  (``import_us``), the same divided by the median calibration and times
  ``CAL_REF_S`` (``import_ref_us``, which files from different sessions
  can compare), the processes' calibrated wall time, and whether
  ``PYTHONDONTWRITEBYTECODE`` is set (if it is, no bytecode is cached and
  every process compiles each module it imports from source).
  ``import_us`` also holds numpy's cumulative import where the command
  loads it.  Each process runs its command through :data:`EXIT_WRAPPER`,
  which notes the time as it starts and registers an ``atexit`` handler
  before the command runs, so the handler runs after the command's own.
  The median microseconds from launch to the wrapper's start are the boot
  phase (``boot_us``: interpreter start-up and ``site``), and those from
  that handler to the end of the process the exit phase (``exit_us``:
  buffer flushes, module teardown and the interpreter's final garbage
  collection), each also calibrated (``boot_ref_us``, ``exit_ref_us``);
* ``tier1``: wall seconds and the pass/fail counts of the tier-1 suite
  (``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
  the path), with the ids of the failing tests, and the wall time in
  reference seconds;
* ``src_lines`` and ``environment``: the benchmark's own environment block.

Raw seconds follow the host's speed, which drifts by tens of percent over
minutes.  So the timed processes are interleaved with :data:`REPEATS` runs
of ``perfbench/calibrate.py`` (the repeats of a scenario or a start-up
command alternate which of the two goes first; tier-1 runs between the
first and the last calibrations),
and each timing records ``ratio``, its median wall over the median
calibration, and ``ref_s``, that ratio * ``CAL_REF_S`` (perfbench's unit).
One 0.35 s calibration is too short to divide a several-second run by; the
median of several follows the host's drift with less noise of its own.

The file goes to BENCH_<n>.json in the checkout root with the smallest n
not yet taken; commit it with the change it measures.  The script then prints
the file's ``src_lines`` beside those of the newest BENCH file already there,
with the difference: the change's net ``src/`` lines.  Timings on a shared
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
KERNEL_REPEATS = 7
KERNEL_STEPS = 2000

#: the ``kernel`` probe, run as ``python3 -c KERNEL_PROBE SCENARIO STEPS REPEATS``
KERNEL_PROBE = """
import json, sys, time
from traitsim.cli import load_scenario
from traitsim.integrator import _exponential_advance, init_state, rho_from_exponents
scenario = load_scenario(sys.argv[1])
steps, repeats = int(sys.argv[2]), int(sys.argv[3])
advance = _exponential_advance(scenario, scenario.dt)
start = advance(init_state(scenario), steps)
step_us, mass_us = [], []
for _ in range(repeats):
    t0 = time.perf_counter()
    advance(start, steps)
    t1 = time.perf_counter()
    for _ in range(steps):
        rho_from_exponents(start.A, start.B, scenario)
    t2 = time.perf_counter()
    step_us.append((t1 - t0) / steps * 1e6)
    mass_us.append((t2 - t1) / steps * 1e6)
print(json.dumps({"us_per_step": step_us, "us_per_mass_eval": mass_us}))
"""

#: the scenario file in ``scenarios/`` that the ``observation`` block observes at every step
OBSERVED = "boundary_blowup"

#: the ``observation`` probe, run as ``python3 -c OBSERVATION_PROBE SCENARIO STEPS REPEATS CSV``
OBSERVATION_PROBE = """
import json, sys, time
from traitsim.cli import _write_trajectory_csv, load_scenario
from traitsim.diagnostics import make_record
from traitsim.integrator import Trajectory, _exponential_advance, init_state
from traitsim.model import predict_equilibrium
scenario = load_scenario(sys.argv[1]).with_controls(sample_every=1)
steps, repeats, csv = int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
pred = predict_equilibrium(scenario)
advance = _exponential_advance(scenario, scenario.dt)
start = advance(init_state(scenario), steps)
clock, step_us, record_us, row_us = time.perf_counter, [], [], []
for _ in range(repeats):
    state, records, step_s, record_s = start, [], 0.0, 0.0
    for _ in range(steps):
        t0 = clock()
        state = advance(state, 1)
        t1 = clock()
        records.append(make_record(state, scenario))
        step_s, record_s = step_s + (t1 - t0), record_s + (clock() - t1)
    t0 = clock()
    _write_trajectory_csv(Trajectory(scenario, pred, "", records), csv)
    row_us.append((clock() - t0) / steps * 1e6)
    step_us.append(step_s / steps * 1e6)
    record_us.append(record_s / steps * 1e6)
print(json.dumps({"us_per_observed_step": step_us, "us_per_record": record_us,
                  "us_per_row": row_us}))
"""

#: the end of the run that the ``records`` block traces
RECORDS_T_END = 50.0

#: the ``records`` probe, run as ``python3 -c RECORDS_PROBE SCENARIO T_END``
RECORDS_PROBE = """
import json, sys, tracemalloc
from traitsim.cli import load_scenario
from traitsim.integrator import run
scenario = load_scenario(sys.argv[1]).with_controls(sample_every=1, t_end=float(sys.argv[2]))
tracemalloc.start()
trajectory = run(scenario)
held = tracemalloc.get_traced_memory()[0]
count = len(trajectory.records)
print(json.dumps({"records": count, "held_bytes": held, "bytes_per_record": held / count}))
"""

#: the ``oracle`` block: atom counts, steps per timed call and the step
ORACLE_ATOMS = (2, 7, 13)
ORACLE_STEPS = 20000
ORACLE_DT = 1e-5

#: case -> the d of atom i of n, as an expression the probe evaluates;
#: b = 1 + i / n, m = 1 / n and c0 = 1 throughout
ORACLE_CASES = {"unit_d": "1.0", "shared_d": "0.75", "distinct_d": "0.5 + i / n"}

#: the ``oracle`` probe, run as ``python3 -c ORACLE_PROBE CASES ATOMS STEPS DT REPEATS``
ORACLE_PROBE = """
import json, sys, time
from traitsim.oracle import Atom, AtomSystem, integrate_atoms
cases, counts = json.loads(sys.argv[1]), json.loads(sys.argv[2])
steps, dt, repeats = int(sys.argv[3]), float(sys.argv[4]), int(sys.argv[5])
systems = {(case, n): AtomSystem(tuple(Atom(1.0 + i / n, eval(d), 1.0 / n)
                                        for i in range(n)), 1.0)
           for case, d in cases.items() for n in counts}
for system in systems.values():
    integrate_atoms(system, dt, dt)
runs = {}
for _ in range(repeats):  # round robin, so the host's drift reaches every case alike
    for (case, n), system in systems.items():
        t0 = time.perf_counter()
        integrate_atoms(system, steps * dt, dt)
        runs.setdefault(case, {}).setdefault(str(n), []).append(
            (time.perf_counter() - t0) / steps * 1e6)
print(json.dumps(runs))
"""

#: the ``expressions`` block: the scenario whose b is sampled, and the node counts
EXPRESSION_SCENARIO = "two_peak"
EXPRESSION_NODES = (2001, 50001)

#: the ``expressions`` probe, run as ``python3 -c EXPRESSIONS_PROBE SCENARIO NODES REPEATS``
EXPRESSIONS_PROBE = """
import json, sys, time
from traitsim.cli import load_scenario
from traitsim.exprlang import TraitFunction
from traitsim.model import Grid
source = load_scenario(sys.argv[1]).b.source
counts, repeats = json.loads(sys.argv[2]), int(sys.argv[3])
grids = {n: Grid(0.0, 1.0, n - 1).nodes for n in counts}
runs = {}
for _ in range(repeats):  # round robin, so the host's drift reaches every count alike
    for n, nodes in grids.items():
        f = TraitFunction.from_source(source)
        t0 = time.perf_counter()
        f.sample(nodes)
        runs.setdefault(str(n), []).append((time.perf_counter() - t0) * 1e3)
print(json.dumps(runs))
"""

#: runs ``-c CODE`` or ``-m MODULE ARGS...`` as ``python3`` would, and prints
#: ``time.perf_counter()`` to stderr as it starts (``started_at``) and from the last
#: atexit handler to run (``atexit_at``); on Linux perf_counter is CLOCK_MONOTONIC,
#: one clock for every process
EXIT_WRAPPER = """
import time
started = time.perf_counter()
import atexit, runpy, sys
print(f"started_at {started!r}", file=sys.stderr)
atexit.register(lambda: print(f"atexit_at {time.perf_counter()!r}", file=sys.stderr, flush=True))
flag, target, *args = sys.argv[1:]
if flag == "-m":
    sys.argv = [target, *args]
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    sys.argv = ["-c", *args]
    exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
"""

#: label -> the command's arguments to ``python3``, run from the checkout root
STARTUP = {
    "import traitsim.oracle": ["-c", "import traitsim.oracle"],
    "traitsim predict scenarios/gaussian_ratio.ini":
        ["-m", "traitsim", "predict", "scenarios/gaussian_ratio.ini"],
    "traitsim run tests/data/tiny.ini": ["-m", "traitsim", "run", "tests/data/tiny.ini", "--quiet"],
}

#: an ``-X importtime`` line of a traitsim module imported at the top level (not by
#: another module), or of numpy at any depth
TOP_IMPORT = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| (traitsim\S*| *numpy)$",
                        re.MULTILINE)


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


def probe(source: str, path: Path, *extra: str) -> dict:
    """Min and median of each timing that a probe (``KERNEL_PROBE``, ...) prints for a scenario."""
    argv = [sys.executable, "-c", source, str(path), str(KERNEL_STEPS), str(KERNEL_REPEATS), *extra]
    proc = subprocess.run(argv, env=_env(), capture_output=True, text=True, check=True)
    runs = json.loads(proc.stdout)
    doc: dict = {"steps": KERNEL_STEPS, "repeats": KERNEL_REPEATS, "unit": "us"}
    for name, values in runs.items():
        doc[f"{name}_min"], doc[f"{name}_median"] = min(values), statistics.median(values)
    return doc


def oracle_steps() -> dict:
    """``ORACLE_PROBE``'s microseconds per atom step, per case and atom count."""
    argv = [sys.executable, "-c", ORACLE_PROBE, json.dumps(ORACLE_CASES),
            json.dumps(ORACLE_ATOMS), str(ORACLE_STEPS), repr(ORACLE_DT), str(REPEATS)]
    proc = subprocess.run(argv, env=_env(), capture_output=True, text=True, check=True)
    doc: dict = {"steps": ORACLE_STEPS, "dt": ORACLE_DT, "c0": 1.0, "repeats": REPEATS,
                 "unit": "us", "d": ORACLE_CASES}
    for case, counts in json.loads(proc.stdout).items():
        doc[case] = {n: {"us_per_step_min": min(us), "us_per_step_median": statistics.median(us),
                         "steps_per_s": 1e6 / statistics.median(us)} for n, us in counts.items()}
    return doc


def expression_samples() -> dict:
    """``EXPRESSIONS_PROBE``'s milliseconds per ``sample`` call, per node count."""
    path = ROOT / "scenarios" / f"{EXPRESSION_SCENARIO}.ini"
    argv = [sys.executable, "-c", EXPRESSIONS_PROBE, str(path), json.dumps(EXPRESSION_NODES),
            str(REPEATS)]
    proc = subprocess.run(argv, env=_env(), capture_output=True, text=True, check=True)
    doc: dict = {"scenario": EXPRESSION_SCENARIO, "repeats": REPEATS, "unit": "ms"}
    for n, ms in json.loads(proc.stdout).items():
        doc[n] = {"sample_ms_min": min(ms), "sample_ms_median": statistics.median(ms)}
    return doc


def records_held(path: Path) -> dict:
    """What ``RECORDS_PROBE`` prints for a scenario: the bytes its records hold."""
    argv = [sys.executable, "-c", RECORDS_PROBE, str(path), repr(RECORDS_T_END)]
    proc = subprocess.run(argv, env=_env(), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def startup(cal_ref_s: float) -> dict:
    """Per command: median import microseconds (traitsim's top-level modules, numpy), boot, exit."""
    doc: dict = {"dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
                 "repeats": REPEATS, "unit": "us"}
    with tempfile.TemporaryDirectory() as out:
        env = {**_env(), "TRAITSIM_OUT": out}
        for label, args in STARTUP.items():
            runs: dict[str, list[int]] = {}
            walls, boots, exits, cals = [], [], [], []
            for k in range(REPEATS):
                if k % 2 == 0:
                    cals.append(calibration())
                argv = [sys.executable, "-X", "importtime", "-c", EXIT_WRAPPER, *args]
                wall, proc = timed(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                   check=True)
                ended = time.perf_counter()
                walls.append(wall)
                marks = dict(re.findall(r"^(started_at|atexit_at) (\S+)$", proc.stderr,
                                        re.MULTILINE))
                boots.append(float(marks["started_at"]) - (ended - wall))
                exits.append(ended - float(marks["atexit_at"]))
                if k % 2 == 1:
                    cals.append(calibration())
                for us, name in TOP_IMPORT.findall(proc.stderr):
                    runs.setdefault(name.strip(), []).append(int(us))
            import_us = {name: statistics.median(v) for name, v in runs.items()}
            scale = cal_ref_s / statistics.median(cals)
            boot_us, exit_us = statistics.median(boots) * 1e6, statistics.median(exits) * 1e6
            doc[label] = {"import_us": import_us,
                          "import_ref_us": {name: us * scale for name, us in import_us.items()},
                          "boot_us": boot_us, "boot_ref_us": boot_us * scale,
                          "exit_us": exit_us, "exit_ref_us": exit_us * scale,
                          "wall_s_median": statistics.median(walls),
                          **calibrated(walls, cals, cal_ref_s)}
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


def src_lines_change(src_lines: int) -> str:
    """``src_lines`` beside the newest BENCH_<n>.json's (largest n), with the difference."""
    newest = max(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem[len("BENCH_"):]),
                 default=None)
    if newest is None:
        return f"src_lines {src_lines}"
    before = json.loads(newest.read_text())["src_lines"]
    return f"src_lines {src_lines}, {newest.stem} {before}, net {src_lines - before:+d}"


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
    doc["kernel"] = {path.stem: probe(KERNEL_PROBE, path) for path in scenarios}
    observed = ROOT / "scenarios" / f"{OBSERVED}.ini"
    with tempfile.TemporaryDirectory() as out:
        doc["observation"] = {"scenario": OBSERVED, "sample_every": 1,
                              **probe(OBSERVATION_PROBE, observed, str(Path(out) / "t.csv"))}
    doc["records"] = {"scenario": OBSERVED, "sample_every": 1, "t_end": RECORDS_T_END,
                      **records_held(observed)}
    doc["oracle"] = oracle_steps()
    doc["expressions"] = expression_samples()
    doc["startup"] = startup(CAL_REF_S)
    doc["tier1"] = tier1(CAL_REF_S)
    doc["cal_ref_s"] = CAL_REF_S
    doc["reporter_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(0)
    doc["src_lines"] = env["src_lines"]
    doc["environment"] = env
    change = src_lines_change(doc["src_lines"])
    out = next_path()
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    print(change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
