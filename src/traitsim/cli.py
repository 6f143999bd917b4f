"""Command line front end: scenario files, runs, verification and sweeps.

Scenario files are sectioned key-value text (INI syntax)::

    [domain]
    x_min = 0.0
    x_max = 1.0
    n_cells = 2000

    [model]
    c0 = 1.0
    b = 2 - (x - 0.3)^2
    d = 1
    u0 = ind(0, 1)

    [run]
    t_end = 200.0
    dt = 1e-3
    sample_every = 100
    # optional: scheme = exponential
    # optional: stop_tol = 1e-9
    # optional: snapshot_times = 0, 100, 200

    [diagnostics]
    # optional: epsilon = 0.0025
    # optional: tail_R = 5.0

Commands: ``predict`` (closed-form limit and corridor), ``run`` (writes
trajectory.csv, snapshot_<t>.csv, summary.json and plot.gp), ``verify``
(machine-checks the theory's invariants, one PASS/FAIL line each) and
``sweep`` (convergence study over dt or n_cells).

Exit codes: 0 success, 1 verify found a failing invariant, 2 input error,
3 runtime error (overflow or NaN; partial outputs are flushed).

All numbers in output files are serialized with 17 significant digits so
they round-trip exactly; identical inputs produce byte-identical outputs (on grids
over 10,000 nodes only for a fixed BLAS thread count; see the README).
The output directory is the --out flag, else $TRAITSIM_OUT, else the
current directory.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import os
import sys
import warnings
from collections.abc import Iterable
from dataclasses import MISSING, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .exprlang import ExprError, TraitFunction
from .model import (
    RUN_CONTROLS, SCHEMES, SNAPSHOT_NAME, Grid, Scenario, predict_equilibrium, scenario_items,
)

if TYPE_CHECKING:  # the integrator is loaded by the commands that run one
    from .integrator import Trajectory

__all__ = [
    "SCENARIO_SECTIONS",
    "ScenarioFileError",
    "load_scenario",
    "evaluate_invariants",
    "build_parser",
    "main",
]

OUT_DIR_ENV = "TRAITSIM_OUT"

#: verification tolerances, pinned to the acceptance criteria (with CORRIDOR_TOL)
LYAPUNOV_SLACK = 1e-8
RESIDUAL_DECAY_FACTOR = 1e-2
RHO_LIMIT_TOL_INTERIOR = 1e-3
RHO_LIMIT_TOL_BOUNDARY = 1e-2
CONCENTRATION_INTERIOR = 0.99
CONCENTRATION_BOUNDARY = 0.95


class ScenarioFileError(ValueError):
    pass


# --------------------------------------------------------------------------
# Scenario file parsing

#: scenario-file section -> the Grid and Scenario fields it holds, in file order
SCENARIO_SECTIONS = {
    "domain": ("x_min", "x_max", "n_cells"),
    "model": ("c0", "b", "d", "u0"),
    "run": RUN_CONTROLS,
    "diagnostics": ("epsilon", "tail_R"),
}
_FIELDS = {f.name: f for cls in (Grid, Scenario) for f in fields(cls) if f.name != "grid"}
#: fields without a default: a scenario file must give their keys
_REQUIRED = {
    n for n, f in _FIELDS.items() if f.default is MISSING and f.default_factory is MISSING
}

#: declared field type -> (converter of the file text, what a bad value is called)
_CONVERTERS = {
    "float": (float, "number"),
    "float | None": (float, "number"),
    "int": (int, "integer"),
    "str": (str.strip, None),
    "TraitFunction": (TraitFunction.from_source, "expression"),
}


def _convert(kind: str, text: str, where: str):
    """The value of a scenario-file field of declared type ``kind``."""
    if kind == "tuple[float, ...]":
        parts = [part.strip() for part in text.split(",")]
        return tuple(_convert("float", part, where) for part in parts if part)
    convert, noun = _CONVERTERS[kind]
    try:
        return convert(text)
    except ExprError as err:
        raise ScenarioFileError(f"invalid expression for {where}: {err}") from None
    except ValueError:
        raise ScenarioFileError(f"invalid {noun} for {where}: '{text}'") from None


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; raises :class:`ScenarioFileError`.

    Each section holds the fields :data:`SCENARIO_SECTIONS` lists; a key is
    required when its field has no default, and any other key is an error.
    """
    # no section name is empty, so [DEFAULT] is an ordinary (unknown) section
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as err:
        raise ScenarioFileError(f"cannot read scenario file: {err}") from None
    except configparser.Error as err:
        raise ScenarioFileError(f"malformed scenario file: {err}") from None

    for section in cp.sections():
        if section not in SCENARIO_SECTIONS:
            raise ScenarioFileError(f"unknown section [{section}]")
        keys = {cp.optionxform(name) for name in SCENARIO_SECTIONS[section]}
        for key in cp[section]:
            if key not in keys:
                raise ScenarioFileError(f"unknown key {section}.{key}")
    for section, names in SCENARIO_SECTIONS.items():
        if not cp.has_section(section) and _REQUIRED.intersection(names):
            raise ScenarioFileError(f"missing section [{section}]")

    values = {}
    for section, names in SCENARIO_SECTIONS.items():
        for name in names:
            if cp.has_option(section, name):
                where = f"{section}.{name}"
                values[name] = _convert(_FIELDS[name].type, cp.get(section, name), where)
            elif name in _REQUIRED:
                raise ScenarioFileError(f"missing key {section}.{name}")
    grid = Grid(**{f.name: values.pop(f.name) for f in fields(Grid)})
    scenario = Scenario(grid=grid, **values)
    try:
        scenario.validate()
    except ValueError as err:
        raise ScenarioFileError(str(err)) from None
    return scenario


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    changes = {
        name: getattr(args, name)
        for name in ("scheme", "dt", "t_end")
        if getattr(args, name, None) is not None
    }
    return scenario.with_controls(**changes) if changes else scenario


# --------------------------------------------------------------------------
# Serialization (17 significant digits: round-trip exact for doubles)

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


#: snapshot rows are formatted this many nodes at a time
_SNAPSHOT_CHUNK = 4096
_SNAPSHOT_FORMAT = "%.17g,%.17g,%.17g\n"


def _fmt_short(x: float) -> str:
    return repr(float(x))


#: the string escapes of json.dumps(s, ensure_ascii=False): backslash, quote and control characters
_JSON_ESCAPES = {c: f"\\u{c:04x}" for c in range(32)} | {
    ord(c): "\\" + e for c, e in zip('\\"\b\f\n\r\t', '\\"bfnrt')}


def _json_dump(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{k}": {_json_dump(v, indent + 1)}' for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_json_dump(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, str):
        return f'"{value.translate(_JSON_ESCAPES)}"'
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return _fmt(v) if math.isfinite(v) else f'"{_fmt(v)}"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _prediction_dict(pred) -> dict:
    doc = {f.name: getattr(pred, f.name) for f in fields(pred)}
    doc["notes"] = list(pred.notes)
    return doc


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write newline-terminated lines (or blocks of them) to ``path`` as they come."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _write_trajectory_csv(trajectory: Trajectory, path: Path) -> None:
    from .diagnostics import DiagnosticsRecord

    columns = fields(DiagnosticsRecord)
    # integer fields print as integers, every other field as _fmt does
    # (``%.17g`` and ``format(x, ".17g")`` give the same text)
    row = ",".join("%s" if f.type in (int, "int") else "%.17g" for f in columns) + "\n"
    values = attrgetter(*(f.name for f in columns))
    header = ",".join(f.name for f in columns) + "\n"
    rows = map(row.__mod__, map(values, trajectory.records))  # formatted as they are written
    _write_lines(path, itertools.chain((header,), rows))


def _snapshot_lines(nodes: np.ndarray, log_u: np.ndarray) -> Iterable[str]:
    yield "x,u,log_u\n"
    for i in range(0, log_u.size, _SNAPSHOT_CHUNK):
        x, lu = nodes[i:i + _SNAPSHOT_CHUNK], log_u[i:i + _SNAPSHOT_CHUNK]
        with np.errstate(under="ignore", over="ignore"):
            u = np.exp(lu)
        yield from map(_SNAPSHOT_FORMAT.__mod__, zip(x.tolist(), u.tolist(), lu.tolist()))


def _write_snapshots(trajectory: Trajectory, out_dir: Path) -> list[str]:
    names = []
    nodes = trajectory.scenario.grid.nodes
    for snap in trajectory.snapshots:
        name = SNAPSHOT_NAME.format(snap.requested_t)
        _write_lines(out_dir / name, _snapshot_lines(nodes, snap.log_u))
        names.append(name)
    return names


def _write_summary(trajectory: Trajectory, path: Path, error: str | None = None) -> None:
    doc = {
        "fingerprint": trajectory.fingerprint,
        "scenario": dict(scenario_items(trajectory.scenario)),
        "prediction": _prediction_dict(trajectory.prediction),
        "initial": vars(trajectory.records[0]),  # a record's fields in declaration order
        "final": vars(trajectory.records[-1]),
        "record_count": len(trajectory.records),
        "early_stop_t": trajectory.early_stop_t,
        "breaches": list(trajectory.breaches),
    }
    if error is not None:
        doc["error"] = error
    _write_lines(path, (_json_dump(doc) + "\n",))


_PLOT_SCRIPT = """\
# generated by traitsim {version}; consumes trajectory.csv{snapshot_note}
set datafile separator ","
set key autotitle columnhead noenhanced
set terminal pngcairo size 1280,960
set output "trajectory.png"
set multiplot layout 2,2
set xlabel "t"
plot "trajectory.csv" using 1:2 with lines lw 2 title "rho(t)"
plot "trajectory.csv" using 1:3 with lines lw 2 title "V(t)"
set logscale y
plot "trajectory.csv" using 1:($5 > 0 ? $5 : NaN) with lines lw 2 title "W(t)"
unset logscale y
plot "trajectory.csv" using 1:8 with lines lw 2 title "mass near x_bar"
unset multiplot
"""

_PLOT_SNAPSHOTS = """\
set output "snapshots.png"
set xlabel "x"
set ylabel "u"
plot {plots}
"""


def _write_plot_script(trajectory: Trajectory, out_dir: Path, snapshot_names: list[str]) -> None:
    note = " and snapshot csvs" if snapshot_names else ""
    blocks = [_PLOT_SCRIPT.format(version=__version__, snapshot_note=note)]
    if snapshot_names:
        plots = ", \\\n     ".join(
            f'"{name}" using 1:2 with lines title "{name[:-4]}"'
            for name in snapshot_names
        )
        blocks.append(_PLOT_SNAPSHOTS.format(plots=plots))
    _write_lines(out_dir / "plot.gp", blocks)


# --------------------------------------------------------------------------
# Invariant verification

def evaluate_invariants(trajectory: Trajectory) -> list[tuple[str, bool | None, str]]:
    """Check every theory invariant on a finished run.

    Returns (name, ok, detail) triples; ok None means not applicable.
    Tolerances match the acceptance criteria exactly.
    """
    from .integrator import CORRIDOR_TOL

    pred = trajectory.prediction
    records = trajectory.records
    rhos = np.array([r.rho for r in records])
    Vs = np.array([r.V for r in records])
    Ds = np.array([r.D for r in records])
    checks: list[tuple[str, bool | None, str]] = []

    lo, hi = pred.rho_m - CORRIDOR_TOL, pred.rho_M + CORRIDOR_TOL
    ok = bool(np.all((rhos >= lo) & (rhos <= hi)))
    checks.append(
        (
            "corridor",
            ok,
            f"rho in [{rhos.min():.9g}, {rhos.max():.9g}], "
            f"allowed [{pred.rho_m:.9g} - {CORRIDOR_TOL:g}, {pred.rho_M:.9g} + {CORRIDOR_TOL:g}]",
        )
    )

    if not np.isfinite(Vs).all():
        checks.append(("lyapunov_monotone", False, f"V in [{Vs.min()}, {Vs.max()}]: not finite"))
    else:
        drops = Vs[1:] - (Vs[:-1] - LYAPUNOV_SLACK * (1.0 + np.abs(Vs[:-1])))
        ok = bool(np.all(drops >= 0.0))
        worst = float(drops.min()) if drops.size else 0.0
        checks.append(
            ("lyapunov_monotone", ok, f"worst tolerated increment {worst:.3e} (>= 0 required)")
        )

    if not np.isfinite(Ds).all():
        checks.append(("dissipation_nonneg", False, f"D in [{Ds.min()}, {Ds.max()}]: not finite"))
    else:
        checks.append(("dissipation_nonneg", bool(np.all(Ds >= 0.0)), f"min D = {Ds.min():.3e}"))

    W0, WT = records[0].W, records[-1].W
    if not (math.isfinite(W0) and math.isfinite(WT)):
        checks.append(("residual_decay", False, f"W(0) = {W0!r}, W(T) = {WT!r}: not finite"))
    elif W0 <= 1e-300:
        checks.append(("residual_decay", True, "W(0) = 0: already concentrated"))
    else:
        ok = WT <= RESIDUAL_DECAY_FACTOR * W0
        checks.append(
            (
                "residual_decay",
                ok,
                f"W(T)/W(0) = {WT / W0:.3e} (<= {RESIDUAL_DECAY_FACTOR:g} required)",
            )
        )

    tol = RHO_LIMIT_TOL_BOUNDARY if pred.x_bar_on_boundary else RHO_LIMIT_TOL_INTERIOR
    err = abs(records[-1].rho - pred.rho_bar)
    checks.append(
        (
            "rho_limit",
            err < tol,
            f"|rho(T) - rho_bar| = {err:.3e} (< {tol:g} required, "
            f"{'boundary' if pred.x_bar_on_boundary else 'interior'} maximizer)",
        )
    )

    if trajectory.scenario.scheme == "exponential" and trajectory.final_state is not None:
        initial = trajectory.scenario.support_mask
        final = trajectory.final_state.log_u > -np.inf
        ok = bool(np.array_equal(initial, final))
        checks.append(
            (
                "support_conserved",
                ok,
                f"{int(initial.sum())} initial vs {int(final.sum())} final positive nodes",
            )
        )
    else:
        checks.append(
            ("support_conserved", None, "exact only for the exponential scheme; skipped")
        )

    thr = CONCENTRATION_BOUNDARY if pred.x_bar_on_boundary else CONCENTRATION_INTERIOR
    final = records[-1]
    mode_ok = final.x_mode == pred.x_bar
    mass_ok = final.mass_near_xbar >= thr
    checks.append(
        (
            "concentration",
            bool(mode_ok and mass_ok),
            f"mass within epsilon of x_bar = {final.mass_near_xbar:.6f} (>= {thr:g}), "
            f"mode at {final.x_mode!r} vs predicted {pred.x_bar!r}",
        )
    )
    return checks


# --------------------------------------------------------------------------
# Commands

def _out_dir(args: argparse.Namespace) -> Path:
    out = getattr(args, "out", None) or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _print(args: argparse.Namespace, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _warned(call, scenario: Scenario):
    """``call(scenario)``, with each warning it raises printed as one
    ``warning:`` line on stderr instead of Python's source-line form."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            return call(scenario)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def cmd_predict(args: argparse.Namespace) -> int:
    pred = _warned(predict_equilibrium, load_scenario(args.scenario))
    rows = [
        ("x_bar", _fmt_short(pred.x_bar)),
        ("rho_bar", _fmt_short(pred.rho_bar)),
        ("kappa (b/d at x_bar)", _fmt_short(pred.kappa)),
        ("b range", f"[{_fmt_short(pred.b_m)}, {_fmt_short(pred.b_M)}]"),
        ("d range", f"[{_fmt_short(pred.d_m)}, {_fmt_short(pred.d_M)}]"),
        ("r_m", _fmt_short(pred.r_m)),
        ("r_M", _fmt_short(pred.r_M)),
        ("rho corridor", f"[{_fmt_short(pred.rho_m)}, {_fmt_short(pred.rho_M)}]"),
        ("x_bar on boundary", "yes" if pred.x_bar_on_boundary else "no"),
        ("alpha_R", "n/a" if pred.alpha_R is None else _fmt_short(pred.alpha_R)),
    ]
    if not args.quiet:
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"{name:<{width}}  {value}")
        print()
    print(_json_dump(_prediction_dict(pred)))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from . import integrator

    scenario = _apply_overrides(load_scenario(args.scenario), args)
    out = _out_dir(args)
    try:
        trajectory, error = _warned(integrator.run, scenario), None
    except integrator.IntegrationError as err:
        if err.partial is None:
            raise
        trajectory, error = err.partial, str(err)

    _write_trajectory_csv(trajectory, out / "trajectory.csv")
    snapshot_names = _write_snapshots(trajectory, out)
    _write_summary(trajectory, out / "summary.json", error=error)
    _write_plot_script(trajectory, out, snapshot_names)

    if error is not None:
        print(f"error: {error} (partial outputs in {out})", file=sys.stderr)
        return 3
    final = trajectory.records[-1]
    _print(
        args,
        f"wrote {out / 'trajectory.csv'} ({len(trajectory.records)} records), "
        f"summary.json, plot.gp"
        + (f", {len(snapshot_names)} snapshot(s)" if snapshot_names else ""),
    )
    _print(
        args,
        f"final: t = {final.t:g}, rho = {final.rho!r}, "
        f"mass near x_bar = {final.mass_near_xbar:.6f}"
        + (f", early stop at t = {trajectory.early_stop_t:g}" if trajectory.early_stop_t else ""),
    )
    for breach in trajectory.breaches[:5]:
        _print(args, f"breach: {breach}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import diagnostics, integrator

    scenario = _apply_overrides(load_scenario(args.scenario), args)
    trajectory = _warned(integrator.run, scenario)
    checks = evaluate_invariants(trajectory)
    failed = 0
    for name, ok, detail in checks:
        if ok is None:
            status = "SKIP"
        elif ok:
            status = "PASS"
        else:
            status = "FAIL"
            failed += 1
        print(f"{status} {name:<20} {detail}")
    if trajectory.prediction.x_bar_on_boundary:
        try:
            report = diagnostics.blow_up_report(trajectory)
            print(
                f"info blow_up             monotone_growth={report.monotone_growth}, "
                f"log-density slope {report.growth_rate_estimate:.3e}, "
                f"boundary cell mass {report.boundary_cell_mass:.6f}"
            )
        except ValueError:
            pass
    for breach in trajectory.breaches[:5]:
        print(f"info breach              {breach}")
    return 1 if failed else 0


def _sweep_child(scenario: Scenario) -> tuple[float, float, str]:
    from . import integrator

    try:
        trajectory = integrator.run(scenario)
        final_rho = trajectory.records[-1].rho
        return final_rho, abs(final_rho - trajectory.prediction.rho_bar), "ok"
    except Exception as err:  # recorded per child; the sweep continues
        return math.nan, math.nan, f"error: {err}"


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    parameter = args.param
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if len(raw_values) < 2:
        raise ScenarioFileError("sweep needs at least 2 values")
    # the parser admits only dt and n_cells, each typed by its field
    values = [_convert(_FIELDS[parameter].type, v, "--values") for v in raw_values]
    if parameter == "dt":
        scenarios = [scenario.with_controls(dt=v) for v in values]
        steps = values
    else:
        g = scenario.grid
        scenarios = [
            replace(scenario, grid=Grid(g.x_min, g.x_max, v)) for v in values
        ]
        steps = [(g.x_max - g.x_min) / v for v in values]

    from concurrent.futures import ProcessPoolExecutor  # only sweep needs worker processes

    workers = min(len(scenarios), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_sweep_child, scenarios))

    # fitted order: errors against the most resolved successful run
    ok_idx = [i for i, (_, _, status) in enumerate(results) if status == "ok"]
    order = math.nan
    if len(ok_idx) >= 3:
        ref = min(ok_idx, key=lambda i: steps[i])
        pts = [
            (math.log(steps[i]), math.log(abs(results[i][0] - results[ref][0])))
            for i in ok_idx
            if i != ref and abs(results[i][0] - results[ref][0]) > 0.0
        ]
        if len(pts) >= 2:
            xs, ys = zip(*pts)
            order = float(np.polyfit(xs, ys, 1)[0])

    out = _out_dir(args)
    lines = [f"{parameter},rho_final,abs_err_vs_prediction,status\n"]
    for value, (final_rho, err, status) in zip(values, results):
        value_text = str(value) if parameter == "n_cells" else _fmt(value)
        lines.append(f"{value_text},{_fmt(final_rho)},{_fmt(err)},{status}\n")
    lines.append(f"# fitted_order {_fmt(order)}\n")
    _write_lines(out / "sweep.csv", lines)
    _print(args, f"wrote {out / 'sweep.csv'}; fitted order {order:.3f}")
    return 0 if ok_idx else 3


# --------------------------------------------------------------------------
# Entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traitsim",
        description="Simulate and verify nonlocal trait-selection dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"traitsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, overrides: bool = True) -> None:
        p.add_argument("scenario", help="path to a scenario file")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or .)")
        p.add_argument("--quiet", action="store_true", help="suppress progress text")
        if overrides:
            p.add_argument("--scheme", choices=SCHEMES, default=None)
            p.add_argument("--dt", type=float, default=None)
            p.add_argument("--t-end", dest="t_end", type=float, default=None)

    p = sub.add_parser("predict", help="print the closed-form limit and corridor")
    common(p, overrides=False)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("run", help="integrate and write trajectory/summary/plot files")
    common(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("verify", help="run and machine-check the theory invariants")
    common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("sweep", help="convergence study over dt or n_cells")
    common(p)
    p.add_argument("--param", choices=["dt", "n_cells"], required=True)
    p.add_argument("--values", required=True, help="comma-separated list, e.g. 1e-2,5e-3,2.5e-3")
    p.set_defaults(handler=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as err:  # ScenarioFileError and ExprError among them
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        from .integrator import IntegrationError  # loaded already by a command that raises it

        if not isinstance(err, IntegrationError):
            raise
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
