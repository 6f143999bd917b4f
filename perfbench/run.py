"""The traitsim benchmark: one command, four workloads, every op checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --mint-references   # rewrite references.json

Each op is one fresh ``python3`` process, run in a closed loop with one
client and one op at a time, until S seconds have passed (and at least
:data:`MIN_OPS` ops).  The program is imported from ``src/`` of the same
checkout; nothing is installed.  ``traitsim sweep`` is never used, since it
forks a pool of ``cpu_count`` workers.

Workloads (the seed varies only inputs that do not change the cost; seed 0
reproduces the canonical inputs):

``long_run``
    ``traitsim run`` on gaussian_ratio (2001 nodes, dt 1e-3, sample_every
    100) to t = 20.  The exponential scheme's fast path, four mass
    quadratures per step, is most of the wall time.  Seed: the peak of b.
``dense_sample``
    ``traitsim run`` on boundary_blowup with sample_every 1 and four
    snapshots, to t = 5.  Every step materialises the density, builds a
    diagnostics record and writes a CSV row; the maximum sits on the
    boundary (half-delta blow-up).  Seed: the snapshot times.
``fine_grid``
    ``traitsim run`` on two_peak with 5e4 cells to t = 0.1.  Set-up (the
    expression language sampled and bounded over the grid by validate and
    predict) dominates, and the mass kernel runs in its per-element regime
    rather than the per-call one of 2001 nodes.  Seed: both peak positions.
``atom_oracle``
    ``integrate_atoms`` on the acceptance-gate C09 two-atom system at the
    oracle's dt = 1e-5, for 1e5 steps, in a fresh process.  Only the oracle
    runs.  Seed: the initial masses.

With ``--trace 0`` the result holds the end-to-end metrics:

``wall_s``
    an op's wall time, launch to exit, in reference seconds (below); the
    median over the run's ops.
``setup_s``
    the same for several fresh-process set-ups: ``traitsim predict`` on the
    workload's scenario, or ``import traitsim.oracle``.
``peak_rss_mb``
    the median over ops of each op's own maximum resident set, from its
    rusage.

Reference seconds: each timed process is paired with a run of
``calibrate.py``, a fixed process launched right before or after it, and
its wall time is divided by the calibration's and multiplied by
:data:`CAL_REF_S`.  On the 2-vCPU Xeon VM the benchmark was built on, the
speed of a fixed pure-Python loop drifts by tens of percent over minutes:
over ten runs per workload, raw op wall times spread by 13-34% (quartile
distance over median) and raw set-up times by up to 42%, while the paired
values spread by 3-11% and 3-14%.  Raw medians are printed with every
result, and a traced run reports the raw op wall time as ``process.wall_s``.

With ``--trace 1`` untraced and traced ops alternate; the traced ones run
under ``traced.py``, which wraps each layer's public entry points in spans,
and ``kernels.py`` microbenchmarks the mass kernel and expression sampling
on the workload's own grid.  The result then holds the per-layer metrics;
``trace.overhead`` is the traced ops' median wall time over the untraced
ones', minus 1.  The spans (see
``spans.TARGETS``) are: exprlang = ``parse``, ``bound_on_grid``,
``TraitFunction.sample``; model = ``Scenario.validate``,
``predict_equilibrium``; integrator = ``run``; diagnostics =
``make_record``; cli = ``main``, ``load_scenario``; oracle =
``integrate_atoms``.  A layer's self time sums its spans' durations minus
what their child spans cover, so ``cli.self_s`` is argument and scenario
file parsing plus formatting and writing outputs.  A layer a workload never
enters reports 0.  Counts repeat exactly from run to run.

``failed_share`` (failed ops over attempted ones) is printed with every
result and is the ratio of the result's ``failed`` and ``attempted``; it is
not a gated metric, because it is 0 whenever the program is correct.

Every op is checked and never retried: exit code 0; for runs, a
summary.json without breaches or error and a finite final rho inside the
predicted corridor; for atoms, masses equal digit for digit to an
independent straight-line RK4 loop.  Outputs must be byte-identical between
the ops of one run, and for seed 0 to the hashes in references.json, minted
from the commit that added the benchmark.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"
PYTHON = sys.executable

#: every workload runs at least this many measured ops (pairs when traced)
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
#: no new op starts after this much of a run has passed
RUN_DEADLINE_S = 120.0
#: an op still running this long after the run began is killed and fails
KILL_AFTER_S = 165.0
#: reference seconds per calibration run: about calibrate.py's median wall
#: time where the benchmark was built, so the metrics read as seconds there
CAL_REF_S = 0.35

LAYERS = ("exprlang", "model", "integrator", "diagnostics", "cli", "oracle")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "exprlang.node_evals": "count",
    "exprlang.self_s": "s",
    "exprlang.ns_per_node_eval": "ns",
    "exprlang.ns_per_node_eval_min": "ns",
    "model.validate_calls": "count",
    "model.self_s": "s",
    "integrator.steps": "count",
    "integrator.self_s": "s",
    "integrator.us_per_step": "us",
    "integrator.us_per_mass_eval": "us",
    "integrator.us_per_mass_eval_min": "us",
    "diagnostics.records": "count",
    "diagnostics.self_s": "s",
    "diagnostics.us_per_record": "us",
    "cli.load_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "oracle.atom_steps": "count",
    "oracle.self_s": "s",
    "oracle.steps_per_s": "1/s",
    "process.import_s": "s",
    "process.wall_s": "s",
    "trace.overhead": "ratio",
}

# --------------------------------------------------------------------------
# Inputs


SCENARIO = """\
[domain]
x_min = 0.0
x_max = 1.0
n_cells = {n_cells}

[model]
c0 = 1.0
b = {b}
d = 1
u0 = ind(0, 1)

[run]
t_end = {t_end}
dt = 1e-3
sample_every = {sample_every}
scheme = exponential
{extra}"""

ATOM_T_END = 1.0
ATOM_DT = 1e-5


@dataclass
class Inputs:
    """One workload's generated inputs and the argv of each process it runs."""

    setup: list[str]
    op: list[str]
    traced_setup: list[str] | None
    traced_op: list[str]
    scenario: Path | None = None
    records: int = 0
    snapshots: tuple[str, ...] = ()
    masses: tuple[float, float] = (0.0, 0.0)
    #: fresh-process set-ups timed per run; fewer where one takes seconds
    setup_reps: int = 7


def _near(rng: random.Random, seed: int, canonical: float, spread: float) -> float:
    return canonical if seed == 0 else round(rng.uniform(canonical - spread, canonical + spread), 3)


def _grid_inputs(name, work, b, n_cells, t_end, sample_every, snapshots=(), setup_reps=7) -> Inputs:
    extra = f"snapshot_times = {', '.join(f'{t:g}' for t in snapshots)}\n" if snapshots else ""
    path = work / f"{name}.ini"
    path.write_text(SCENARIO.format(
        n_cells=n_cells, b=b, t_end=t_end, sample_every=sample_every, extra=extra
    ))
    steps = round(t_end / 1e-3)
    run_args = ["run", str(path), "--out", str(work / "out"), "--quiet"]
    predict_args = ["predict", str(path), "--quiet"]
    return Inputs(
        setup=["-m", "traitsim", *predict_args],
        op=["-m", "traitsim", *run_args],
        traced_setup=["cli", *predict_args],
        traced_op=["cli", *run_args],
        scenario=path,
        records=1 + steps // sample_every + (1 if steps % sample_every else 0),
        snapshots=tuple(f"snapshot_{t:g}.csv" for t in snapshots),
        setup_reps=setup_reps,
    )


def long_run(seed: int, rng: random.Random, work: Path) -> Inputs:
    p = _near(rng, seed, 0.3, 0.1)
    return _grid_inputs("long_run", work, f"2 - (x - {p})^2", 2000, 20.0, 100)


def dense_sample(seed: int, rng: random.Random, work: Path) -> Inputs:
    times = (0.0, 1.25, 2.5, 5.0) if seed == 0 else (
        0.0, *(k * 0.125 for k in sorted(rng.sample(range(1, 41), 3)))
    )
    return _grid_inputs("dense_sample", work, "1 + x", 2000, 5.0, 1, times)


def fine_grid(seed: int, rng: random.Random, work: Path) -> Inputs:
    p1 = _near(rng, seed, 0.25, 0.05)
    p2 = _near(rng, seed, 0.7, 0.05)
    b = f"1 + exp(-200*(x - {p1})^2) + 0.8*exp(-200*(x - {p2})^2)"
    return _grid_inputs("fine_grid", work, b, 50000, 0.1, 100, setup_reps=3)


def atom_oracle(seed: int, rng: random.Random, work: Path) -> Inputs:
    masses = (_near(rng, seed, 0.5, 0.2), _near(rng, seed, 0.5, 0.2))
    args = [repr(ATOM_T_END), repr(ATOM_DT), *(repr(m) for m in masses)]
    return Inputs(
        setup=["-c", "import traitsim.oracle"],
        op=[str(HERE / "mint_atoms.py"), *args],
        traced_setup=None,
        traced_op=["atoms", *args],
        masses=masses,
    )


WORKLOADS = {f.__name__: f for f in (long_run, dense_sample, fine_grid, atom_oracle)}


def atoms_reference(masses: tuple[float, float]) -> list[str]:
    """The C09 system by straight-line RK4, in the oracle's operation order.

    Independent of traitsim; IEEE arithmetic makes it equal to
    ``integrate_atoms`` bit for bit.
    """
    m0, m1 = masses
    b0, b1, d0, d1, c0 = 2.0, 1.0, 1.0, 1.0, 1.0
    half, sixth = 0.5 * ATOM_DT, ATOM_DT / 6.0
    for _ in range(round(ATOM_T_END / ATOM_DT)):
        r = m0 + m1
        k1a = (b0 / (1.0 + c0 * r) - d0 * r) * m0
        k1b = (b1 / (1.0 + c0 * r) - d1 * r) * m1
        t0, t1 = m0 + half * k1a, m1 + half * k1b
        r = t0 + t1
        k2a = (b0 / (1.0 + c0 * r) - d0 * r) * t0
        k2b = (b1 / (1.0 + c0 * r) - d1 * r) * t1
        t0, t1 = m0 + half * k2a, m1 + half * k2b
        r = t0 + t1
        k3a = (b0 / (1.0 + c0 * r) - d0 * r) * t0
        k3b = (b1 / (1.0 + c0 * r) - d1 * r) * t1
        t0, t1 = m0 + ATOM_DT * k3a, m1 + ATOM_DT * k3b
        r = t0 + t1
        k4a = (b0 / (1.0 + c0 * r) - d0 * r) * t0
        k4b = (b1 / (1.0 + c0 * r) - d1 * r) * t1
        m0 += sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        m1 += sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return [repr(m0), repr(m1)]


# --------------------------------------------------------------------------
# Processes and checks


@dataclass
class Launch:
    """One finished process: whether it passed its checks, and what it cost."""

    ok: bool
    wall_s: float
    rss_mb: float
    stdout: bytes
    spans: dict | None = None
    bytes_written: int = 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass
class Bench:
    inp: Inputs
    work: Path
    references: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    first: dict = field(default_factory=dict)
    calibration_output: bytes | None = None
    calibrate_first: bool = False

    def __post_init__(self):
        self.begin = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.expected_masses = atoms_reference(self.inp.masses) if not self.inp.scenario else None

    def spawn(self, argv: list[str]) -> tuple[int, Launch]:
        """Run ``python3 ARGV`` to its exit; the wall time spans launch to exit."""
        with open(self.work / "stdout", "wb") as fo, open(self.work / "stderr", "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen([PYTHON, *argv], stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.begin + KILL_AFTER_S - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, Launch(
            ok=True,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=(self.work / "stdout").read_bytes(),
        )

    def calibrate(self) -> float:
        """Wall time of calibrate.py; raises if it fails or its checksum moves."""
        returncode, result = self.spawn([str(HERE / "calibrate.py")])
        if self.calibration_output is None:
            self.calibration_output = result.stdout
        if returncode != 0 or result.stdout != self.calibration_output:
            raise RuntimeError(f"calibrate.py failed (exit code {returncode})")
        return result.wall_s

    def paired(self, role: str) -> tuple[Launch, float]:
        """A checked process of ``role`` and a calibration, alternating which runs first."""
        self.calibrate_first = not self.calibrate_first
        if self.calibrate_first:
            calibration = self.calibrate()
            return self.launch(role), calibration
        return self.launch(role), self.calibrate()

    def launch(self, role: str, traced: bool = False) -> Launch:
        """Run one process of the given role ("setup", "op" or "kernels") and check it."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        spans_path = self.work / "spans.json"
        spans_path.unlink(missing_ok=True)
        if role == "kernels":
            argv = [str(HERE / "kernels.py"), str(self.inp.scenario), str(self.work / "points.json")]
        elif traced:
            argv = [str(HERE / "traced.py"), str(spans_path),
                    *(self.inp.traced_setup if role == "setup" else self.inp.traced_op)]
        else:
            argv = self.inp.setup if role == "setup" else self.inp.op
        returncode, result = self.spawn(argv)
        result.bytes_written = sum(f.stat().st_size for f in out.iterdir())
        if traced:
            try:
                result.spans = json.loads(spans_path.read_text())
            except (OSError, ValueError):
                result.spans = None
        problems = [] if returncode == 0 else [f"exit code {returncode}"]
        if not problems:
            problems = self.check(role, result)
        if traced and result.spans is None:
            problems.append("no spans written")
        self.attempted += 1
        if problems:
            self.failed += 1
            result.ok = False
            stderr = (self.work / "stderr").read_text(errors="replace").strip()
            print(f"FAILED {role}{' (traced)' if traced else ''}: {'; '.join(problems)}"
                  + (f"\n  stderr: {stderr[-500:]}" if stderr else ""), file=sys.stderr)
        return result

    def check(self, role: str, result: Launch) -> list[str]:
        try:
            if role == "kernels":
                doc = json.loads(result.stdout)
                bad = [k for k, v in doc.items() if not v or not all(_finite(x) and x > 0 for x in v)]
                return [f"kernel timings {bad} not positive"] if bad else []
            if role == "setup":
                fingerprint, problems = self._check_setup(result)
            elif self.inp.scenario is None:
                fingerprint, problems = self._check_atoms(result)
            else:
                fingerprint, problems = self._check_run()
        except (OSError, ValueError, KeyError, TypeError) as err:
            return [f"unreadable output: {err!r}"]
        for source, expected in (("reference", self.references.get(role)),
                                 ("first op of this run", self.first.get(role))):
            if expected is not None:
                problems += [f"{key} differs from the {source}"
                             for key in expected if fingerprint.get(key) != expected[key]]
        self.first.setdefault(role, fingerprint)
        return problems

    def _check_setup(self, result: Launch) -> tuple[dict, list[str]]:
        if self.inp.scenario is None:  # a bare import prints nothing
            return {}, [] if not result.stdout else ["unexpected output"]
        pred = json.loads(result.stdout)
        problems = [] if _finite(pred["rho_bar"]) and pred["rho_bar"] > 0 else ["rho_bar not finite"]
        return {"stdout": hashlib.sha256(result.stdout).hexdigest()}, problems

    def _check_atoms(self, result: Launch) -> tuple[dict, list[str]]:
        masses = json.loads(result.stdout)
        problems = []
        if not all(_finite(float(m)) and float(m) > 0 for m in masses):
            problems.append(f"masses {masses} not finite and positive")
        if masses != self.expected_masses:
            problems.append(f"masses {masses} differ from the straight-line RK4 {self.expected_masses}")
        return {"masses": masses}, problems

    def _check_run(self) -> tuple[dict, list[str]]:
        out = self.work / "out"
        summary = json.loads((out / "summary.json").read_text())
        problems = []
        if summary["breaches"]:
            problems.append(f"{len(summary['breaches'])} breaches")
        if "error" in summary:
            problems.append(f"error: {summary['error']}")
        rho, pred = summary["final"]["rho"], summary["prediction"]
        if not (_finite(rho) and pred["rho_m"] <= rho <= pred["rho_M"]):
            problems.append(f"final rho {rho!r} outside [{pred['rho_m']}, {pred['rho_M']}]")
        if summary["record_count"] != self.inp.records:
            problems.append(f"{summary['record_count']} records, expected {self.inp.records}")
        rows = (out / "trajectory.csv").read_text().count("\n")
        if rows != self.inp.records + 1:
            problems.append(f"trajectory.csv has {rows} lines, expected {self.inp.records + 1}")
        names = ("trajectory.csv", "summary.json", *self.inp.snapshots)
        missing = [n for n in names if not (out / n).is_file()]
        if missing:
            problems.append(f"missing {missing}")
        return {n: _sha256(out / n) for n in names if n not in missing}, problems

    # ----------------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Untraced run: the end-to-end metrics."""
        setup = [self.paired("setup") for _ in range(self.inp.setup_reps)]
        ops: list[tuple[Launch, float]] = []
        start = time.perf_counter()
        while (len(ops) < MIN_OPS or time.perf_counter() - start < seconds) \
                and time.perf_counter() - self.begin < RUN_DEADLINE_S:
            ops.append(self.paired("op"))

        def reference_s(pairs: list[tuple[Launch, float]]) -> float:
            return CAL_REF_S * statistics.median(p.wall_s / c for p, c in pairs)

        def raw(pairs: list[tuple[Launch, float]]) -> str:
            walls = [p.wall_s for p, _ in pairs]
            return (f"raw wall median {statistics.median(walls):.4f} s (min {min(walls):.4f}, "
                    f"max {max(walls):.4f}), calibration median "
                    f"{statistics.median(c for _, c in pairs):.4f} s")

        print(f"set-up: {len(setup)} runs, {raw(setup)}")
        print(f"op: {len(ops)} runs, {raw(ops)}")
        return {
            "wall_s": reference_s(ops),
            "setup_s": reference_s(setup),
            "peak_rss_mb": statistics.median(p.rss_mb for p, _ in ops),
        }

    def trace(self, seconds: float) -> dict:
        """Untraced and traced ops alternate: the per-layer metrics."""
        if self.inp.traced_setup is not None:
            setup = self.launch("setup", traced=True)
            if setup.spans:
                print_breakdown("set-up (traced)", layer_profile(setup.spans), setup.wall_s)
        plain: list[Launch] = []
        traced: list[Launch] = []
        start = time.perf_counter()
        while (len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds) \
                and time.perf_counter() - self.begin < RUN_DEADLINE_S:
            for is_traced in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                (traced if is_traced else plain).append(self.launch("op", traced=is_traced))
        profiles = [layer_profile(t.spans) for t in traced if t.spans]
        if not profiles:
            return dict.fromkeys(PER_LAYER_UNITS, 0.0)
        counts = [{k: v for k, v in p.items() if isinstance(v, int)} for p in profiles]
        if any(c != counts[0] for c in counts):
            print(f"warning: counts differ between traced ops: {counts}", file=sys.stderr)
        prof = {k: statistics.median(p[k] for p in profiles) for k in profiles[0]}
        prof.update(counts[0])
        wall_plain = statistics.median(o.wall_s for o in plain)
        wall_traced = statistics.median(o.wall_s for o in traced)
        print_breakdown("op (traced)", prof, wall_traced)

        kernels = {"ns_per_node_eval": [0.0], "us_per_mass_eval": [0.0]}
        if self.inp.scenario is not None:
            points = [(a["A"], a["B"]) for *_, a in traced[0].spans["spans"] if a and "A" in a]
            (self.work / "points.json").write_text(json.dumps(points[:: max(1, len(points) // 64)]))
            run = self.launch("kernels")
            if run.ok:
                kernels = json.loads(run.stdout)

        def us_per(total_s: float, count: int) -> float:
            return total_s * 1e6 / count if count else 0.0

        return {
            "exprlang.node_evals": prof["node_evals"],
            "exprlang.self_s": prof["exprlang"],
            "exprlang.ns_per_node_eval": statistics.median(kernels["ns_per_node_eval"]),
            "exprlang.ns_per_node_eval_min": min(kernels["ns_per_node_eval"]),
            "model.validate_calls": prof["validate_calls"],
            "model.self_s": prof["model"],
            "integrator.steps": prof["steps"],
            "integrator.self_s": prof["integrator"],
            "integrator.us_per_step": us_per(prof["integrator"], prof["steps"]),
            "integrator.us_per_mass_eval": statistics.median(kernels["us_per_mass_eval"]),
            "integrator.us_per_mass_eval_min": min(kernels["us_per_mass_eval"]),
            "diagnostics.records": prof["records"],
            "diagnostics.self_s": prof["diagnostics"],
            "diagnostics.us_per_record": us_per(prof["diagnostics"], prof["records"]),
            "cli.load_s": prof["load_s"],
            "cli.self_s": prof["cli"],
            "cli.bytes_written": traced[0].bytes_written,
            "oracle.atom_steps": prof["atom_steps"],
            "oracle.self_s": prof["oracle"],
            "oracle.steps_per_s": prof["atom_steps"] / prof["oracle"] if prof["oracle"] else 0.0,
            "process.import_s": prof["import_s"],
            "process.wall_s": wall_plain,
            "trace.overhead": wall_traced / wall_plain - 1.0,
        }


def layer_profile(doc: dict) -> dict:
    """Self time per layer (s), boundary counts and load/import times of one traced process."""
    spans = doc["spans"]
    prof: dict = dict.fromkeys(LAYERS, 0.0)
    for span, self_ns in zip(spans, self_times(spans)):
        prof[span[1]] += self_ns / 1e9

    def count(name: str, attr: str | None = None) -> int:
        return sum((s[5] or {}).get(attr, 0) if attr else 1 for s in spans if s[0] == name)

    prof["node_evals"] = count("bound_on_grid", "nodes") + count("TraitFunction.sample", "nodes")
    prof["validate_calls"] = count("Scenario.validate")
    prof["steps"] = count("run", "steps")
    prof["records"] = count("make_record")
    prof["atom_steps"] = count("integrate_atoms", "steps")
    prof["load_s"] = sum(s[3] - s[2] for s in spans if s[0] == "load_scenario") / 1e9
    prof["import_s"] = doc["import_s"]
    return prof


def print_breakdown(title: str, prof: dict, wall_s: float) -> None:
    print(f"{title}: wall {wall_s:.4f} s, import {prof['import_s']:.4f} s")
    covered = 0.0
    for layer in LAYERS:
        covered += prof[layer]
        print(f"  {layer:<12} self {prof[layer]:9.4f} s  {100 * prof[layer] / wall_s:5.1f}%")
    rest = wall_s - covered
    print(f"  {'(outside)':<12} self {rest:9.4f} s  {100 * rest / wall_s:5.1f}%"
          "  interpreter start, import, exit")


# --------------------------------------------------------------------------
# Environment and entry point


def environment(seed: int) -> dict:
    cpu, caches = platform.processor() or "unknown", []
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches.append(f"L{level}{suffix}={size}")
    except OSError:
        pass
    try:
        import numba  # noqa: F401  (only whether it imports matters)
        numba_state = "imports"
    except ImportError:
        numba_state = "absent"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    src_lines = sum(p.read_text().count("\n") for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": ",".join(caches),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": numba_state,
        "seed": seed,
        "src_lines": src_lines,
    }


def mint_references(work: Path) -> dict:
    references = {}
    for name, make in WORKLOADS.items():
        bench = Bench(make(0, random.Random(0), work), work)
        if not (bench.launch("setup").ok and bench.launch("op").ok):
            raise SystemExit(f"cannot mint references: {name} failed its checks")
        references[name] = bench.first
    return references


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mint-references", action="store_true",
                        help=f"rewrite {REFERENCES.name} from this checkout's seed-0 outputs")
    args = parser.parse_args(argv)
    if args.workload is None and not args.mint_references:
        parser.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "traitsim" / "__init__.py").is_file():
        print(f"error: no traitsim package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    work = WORK_ROOT / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.mint_references:
            REFERENCES.write_text(json.dumps(mint_references(work), indent=1, sort_keys=True) + "\n")
            print(f"wrote {REFERENCES}")
            return 0
        inputs = WORKLOADS[args.workload](args.seed, random.Random(args.seed), work)
        references = json.loads(REFERENCES.read_text())[args.workload] if args.seed == 0 else {}
        bench = Bench(inputs, work, references)
        print(f"traitsim benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("env: " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                                 for k, v in environment(args.seed).items()))
        metrics = bench.trace(args.seconds) if args.trace else bench.measure(args.seconds)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"ops: attempted={bench.attempted} failed={bench.failed} "
          f"failed_share={bench.failed / max(bench.attempted, 1):.4g}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
