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
(prints :func:`diagnostics.evaluate_invariants`, one PASS/FAIL line each)
and ``sweep`` (convergence study over dt or n_cells).

Exit codes: 0 success, 1 verify found a failing invariant, 2 input error,
3 runtime error (overflow or NaN; partial outputs are flushed), and from the
process entry (:mod:`traitsim.__main__`) 141 when stdout's reader has gone.

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
from pathlib import Path
from typing import TYPE_CHECKING, get_type_hints

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
    "build_parser",
    "main",
]

OUT_DIR_ENV = "TRAITSIM_OUT"


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
        with open(path, encoding="utf-8-sig") as fh:  # a byte order mark is not text
            cp.read_file(fh)
    except OSError as err:
        raise ScenarioFileError(f"cannot read scenario file: {err}") from None
    except configparser.MissingSectionHeaderError as err:
        raise ScenarioFileError(
            f"malformed scenario file: line {err.lineno} comes before any [section]") from None
    except configparser.ParsingError as err:  # one entry per line that has no '='
        raise ScenarioFileError(
            f"malformed scenario file: line {err.errors[0][0]} is not 'key = value'") from None
    except configparser.Error as err:  # a repeated section or key: one line already
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


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: quoted, with quotes doubled, if it holds , " CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write newline-terminated lines to ``path`` as they come; a failed write is an input error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as err:
        raise ValueError(f"{path}: cannot write the file ({err.strerror or err})") from None


def _write_trajectory_csv(trajectory: Trajectory, path: Path) -> None:
    from .diagnostics import DiagnosticsRecord

    # integer fields print as integers, every other field as _fmt does
    # (``%.17g`` and ``format(x, ".17g")`` give the same text)
    row = ",".join("%s" if kind is int else "%.17g"
                   for kind in get_type_hints(DiagnosticsRecord).values()) + "\n"
    header = ",".join(DiagnosticsRecord._fields) + "\n"
    rows = map(row.__mod__, trajectory.records)  # formatted as they are written
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


def _write_summary(
    trajectory: Trajectory, path: Path, breaches: list[str], error: str | None = None
) -> None:
    doc = {
        "fingerprint": trajectory.fingerprint,
        "scenario": dict(scenario_items(trajectory.scenario)),
        "prediction": trajectory.prediction._asdict(),
        "initial": trajectory.records[0]._asdict(),
        "final": trajectory.records[-1]._asdict(),
        "record_count": len(trajectory.records),
        "early_stop_t": trajectory.early_stop_t,
        "breaches": breaches,
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
plot "trajectory.csv" using {t}:{rho} with lines lw 2 title "rho(t)"
plot "trajectory.csv" using {t}:{V} with lines lw 2 title "V(t)"
set logscale y
plot "trajectory.csv" using {t}:(${W} > 0 ? ${W} : NaN) with lines lw 2 title "W(t)"
unset logscale y
plot "trajectory.csv" using {t}:{mass_near_xbar} with lines lw 2 title "mass near x_bar"
unset multiplot
"""

_PLOT_SNAPSHOTS = """\
set output "snapshots.png"
set xlabel "x"
set ylabel "u"
plot {plots}
"""


def _write_plot_script(trajectory: Trajectory, out_dir: Path, snapshot_names: list[str]) -> None:
    from .diagnostics import DiagnosticsRecord

    note = " and snapshot csvs" if snapshot_names else ""
    columns = {name: i for i, name in enumerate(DiagnosticsRecord._fields, 1)}  # in trajectory.csv
    blocks = [_PLOT_SCRIPT.format(version=__version__, snapshot_note=note, **columns)]
    if snapshot_names:
        plots = ", \\\n     ".join(
            f'"{name}" using 1:2 with lines title "{name[:-4]}"'
            for name in snapshot_names
        )
        blocks.append(_PLOT_SNAPSHOTS.format(plots=plots))
    _write_lines(out_dir / "plot.gp", blocks)


# --------------------------------------------------------------------------
# Commands

def _out_dir(args: argparse.Namespace) -> Path:
    """The output directory, made if missing; one that cannot be made is an input error."""
    source = "--out" if args.out else f"${OUT_DIR_ENV}"
    path = Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ValueError(f"{source} {path}: cannot make the output directory ({err.strerror})") from None
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
    print(_json_dump(pred._asdict()))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from . import integrator

    scenario = _apply_overrides(load_scenario(args.scenario), args)
    out = _out_dir(args)
    try:
        trajectory, error = _warned(integrator.run, scenario), None
    except integrator.IntegrationError as err:  # run attaches the partial trajectory
        trajectory, error = err.partial, str(err)

    breaches = trajectory.breaches
    _write_trajectory_csv(trajectory, out / "trajectory.csv")
    snapshot_names = _write_snapshots(trajectory, out)
    _write_summary(trajectory, out / "summary.json", breaches, error=error)
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
    for breach in breaches[:5]:
        _print(args, f"breach: {breach}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import diagnostics, integrator

    scenario = _apply_overrides(load_scenario(args.scenario), args)
    trajectory = _warned(integrator.run, scenario)
    breaches = trajectory.breaches
    failed = 0
    for name, ok, detail in diagnostics.evaluate_invariants(trajectory, breaches):
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
    for breach in breaches[:5]:
        print(f"info breach              {breach}")
    return 1 if failed else 0


def _sweep_child(scenario: Scenario) -> tuple[float, float, str, list[str]]:
    """One sweep run: its final rho, error against rho_bar, status and warning messages."""
    from . import integrator

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            trajectory = integrator.run(scenario)
            final_rho = trajectory.records[-1].rho
            result = final_rho, abs(final_rho - trajectory.prediction.rho_bar), "ok"
        except Exception as err:  # recorded per child; the sweep continues
            result = math.nan, math.nan, f"error: {err}"
    return *result, [str(w.message) for w in caught]


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

    out = _out_dir(args)  # before the workers: a bad directory costs no sweep
    from concurrent.futures import ProcessPoolExecutor  # only sweep needs worker processes

    workers = min(len(scenarios), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_sweep_child, scenarios))
    for message in dict.fromkeys(m for *_, messages in results for m in messages):
        print(f"warning: {message}", file=sys.stderr)

    # fitted order: errors against the most resolved successful run that lie above its
    # roundoff, a random walk of one rounding per time step: sqrt(n) * 2^-52 * |rho|
    ok_idx = [i for i, (_, _, status, _) in enumerate(results) if status == "ok"]
    order = math.nan
    if len(ok_idx) >= 3:
        ref = min(ok_idx, key=lambda i: steps[i])
        rho_ref, s = results[ref][0], scenarios[ref]
        floor = math.sqrt(round(s.t_end / s.dt)) * 2.0**-52 * abs(rho_ref)
        errs = [(steps[i], abs(results[i][0] - rho_ref)) for i in ok_idx if i != ref]
        pts = [(math.log(h), math.log(e)) for h, e in errs if e > floor]
        if len(pts) >= 2:
            from .diagnostics import least_squares_slope  # predict loads no diagnostics

            xs, ys = zip(*pts)
            order = least_squares_slope(xs, ys)

    lines = [f"{parameter},rho_final,abs_err_vs_prediction,status\n"]
    for value, (final_rho, err, status, _) in zip(values, results):
        value_text = str(value) if parameter == "n_cells" else _fmt(value)
        lines.append(f"{value_text},{_fmt(final_rho)},{_fmt(err)},{_csv_field(status)}\n")
    lines.append(f"# fitted_order {_fmt(order)}\n")
    _write_lines(out / "sweep.csv", lines)
    _print(args, f"wrote {out / 'sweep.csv'}; fitted order {order:.3f}")
    if not ok_idx:
        print(f"error: every run failed (statuses in {out / 'sweep.csv'})", file=sys.stderr)
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
