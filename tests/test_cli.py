"""CLI: scenario files, output schema, golden bytes, exit codes."""

import json
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import DATA_DIR, GOLDEN_DIR, REPO_ROOT, SCENARIO_DIR, make_scenario
from traitsim import exprlang, integrator
from traitsim.cli import (
    SCENARIO_SECTIONS,
    ScenarioFileError,
    _fmt,
    _json_dump,
    _write_snapshots,
    _write_trajectory_csv,
    build_parser,
    evaluate_invariants,
    load_scenario,
    main,
)
from traitsim.diagnostics import DiagnosticsRecord
from traitsim.integrator import DensitySnapshot, Trajectory, run, scenario_fingerprint
from traitsim.model import Grid, Scenario, predict_equilibrium, scenario_items

TINY = str(DATA_DIR / "tiny.ini")


def write_scenario(tmp_path, body, name="case.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


GOOD_BODY = """\
[domain]
x_min = 0.0
x_max = 1.0
n_cells = 10

[model]
c0 = 1.0
b = 2 - (x - 0.3)^2
d = 1
u0 = ind(0, 1)

[run]
t_end = 0.01
dt = 1e-3
sample_every = 5
scheme = exponential
"""


EVERY_OPTIONAL_KEY = """\
stop_tol = 1e-9
snapshot_times = 0, 0.005, 0.01

[diagnostics]
epsilon = 0.25
tail_R = 0.9
"""


class TestLoadScenario:
    def test_parses_tiny(self):
        s = load_scenario(TINY)
        assert s.grid.n_cells == 10
        assert s.b.source == "2 - (x - 0.3)^2"
        assert s.snapshot_times == (0.0, 0.01)
        assert s.epsilon == 0.25
        assert s.tail_R == 0.9

    def test_parses_all_shipped_scenarios(self):
        for path in sorted(SCENARIO_DIR.glob("*.ini")):
            s = load_scenario(path)
            assert s.t_end == 200.0 and s.dt == 1e-3
            assert s.grid.n_cells == 2000
            assert s.scheme == "exponential"

    def test_missing_key_message(self, tmp_path):
        body = GOOD_BODY.replace("b = 2 - (x - 0.3)^2\n", "")
        with pytest.raises(ScenarioFileError, match=r"missing key model\.b"):
            load_scenario(write_scenario(tmp_path, body))

    def test_missing_section(self, tmp_path):
        body = GOOD_BODY.split("[run]")[0]
        with pytest.raises(ScenarioFileError, match=r"missing section \[run\]"):
            load_scenario(write_scenario(tmp_path, body))

    def test_bad_expression_reported_with_key(self, tmp_path):
        body = GOOD_BODY.replace("d = 1", "d = 1 +")
        with pytest.raises(ScenarioFileError, match=r"invalid expression for model\.d"):
            load_scenario(write_scenario(tmp_path, body))

    def test_bad_number(self, tmp_path):
        body = GOOD_BODY.replace("dt = 1e-3", "dt = fast")
        with pytest.raises(ScenarioFileError, match=r"invalid number for run\.dt"):
            load_scenario(write_scenario(tmp_path, body))

    def test_invalid_scenario_values_rejected(self, tmp_path):
        body = GOOD_BODY.replace("u0 = ind(0, 1)", "u0 = 0")
        with pytest.raises(ScenarioFileError, match="zero initial mass"):
            load_scenario(write_scenario(tmp_path, body))

    def test_missing_file(self):
        with pytest.raises(ScenarioFileError, match="cannot read"):
            load_scenario("/nonexistent/nowhere.ini")

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("c0 = 1.0", "c0 = nan", "c0"),
            ("c0 = 1.0", "c0 = 1e308", "c0"),  # the corridor's 4 c0 b_M / d_m overflows
            # b_M / d_m overflows, which no c0 (not even c0 = 0) makes finite
            pytest.param("c0 = 1.0\nb = 2 - (x - 0.3)^2\nd = 1",
                         "c0 = 0\nb = 1 + 1e300*ind(0.5, 0.5)\nd = 1 - (1 - 1e-10)*ind(0.9, 1)",
                         "b and d", id="b_M/d_m-overflows-at-c0-0"),
            ("t_end = 0.01", "t_end = inf", "t_end"),
            ("dt = 1e-3", "dt = 1e-320", "dt"),
            ("scheme = exponential", "scheme = exponential\nstop_tol = -1", "stop_tol"),
            ("scheme = exponential", "scheme = exponential\nsnapshot_times = -5, 1e9",
             "snapshot_times"),
            ("b = 2 - (x - 0.3)^2", "b = 1 + 0*(exp(1000*x) - exp(1000*x))", "b"),
            # 1e11 cells would need 745 GiB of nodes: rejected before any allocation
            ("n_cells = 10", "n_cells = 100000000000", "n_cells"),
        ],
    )
    def test_bad_values_exit_2_naming_the_key(self, tmp_path, capsys, old, new, key):
        path = write_scenario(tmp_path, GOOD_BODY.replace(old, new))
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must")
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_each_expression_sampled_once(self, monkeypatch, tmp_path):
        # validate and predict read the cached node arrays instead of
        # evaluating b, d and u0 again; every evaluation goes through _sample
        calls = {}
        sample = exprlang._sample

        def counting(e, nodes):
            calls[id(e)] = calls.get(id(e), 0) + 1
            return sample(e, nodes)

        monkeypatch.setattr(exprlang, "_sample", counting)
        scenario = load_scenario(TINY)
        run(scenario)
        exprs = (scenario.b.expr, scenario.d.expr, scenario.u0.expr)
        assert [calls.get(id(e)) for e in exprs] == [1, 1, 1]
        assert len(calls) == 3

        # overriding run controls keeps the sampled nodes: one sample per
        # expression, not two
        calls.clear()
        out = tmp_path / "out"
        assert main(["run", TINY, "--t-end", "0.02", "--out", str(out), "--quiet"]) == 0
        assert sorted(calls.values()) == [1, 1, 1]
        assert json.loads((out / "summary.json").read_text())["scenario"]["t_end"] == 0.02


class TestScenarioSchema:
    """The file format is the Grid and Scenario declarations, laid out by section."""

    def test_each_field_in_exactly_one_section(self):
        listed = [name for names in SCENARIO_SECTIONS.values() for name in names]
        declared = [f.name for cls in (Grid, Scenario) for f in fields(cls) if f.name != "grid"]
        assert len(listed) == len(set(listed))
        assert sorted(listed) == sorted(declared)

    @pytest.mark.parametrize(
        "path",
        [TINY, "every_key", *(str(p) for p in sorted(SCENARIO_DIR.glob("*.ini")))],
        ids=lambda p: p.rsplit("/", 1)[-1],
    )
    def test_items_written_back_load_to_the_same_fingerprint(self, tmp_path, path):
        every_key = path == "every_key"
        if every_key:
            path = write_scenario(tmp_path, GOOD_BODY + EVERY_OPTIONAL_KEY, "every_key.ini")
        scenario = load_scenario(path)
        items = dict(scenario_items(scenario))
        if every_key:
            assert all(value not in (None, ()) for value in items.values())
        lines = []
        for section, names in SCENARIO_SECTIONS.items():
            lines.append(f"[{section}]")
            for name in names:
                value = items[name]
                if isinstance(value, tuple):
                    value = ", ".join(map(repr, value))
                if value not in (None, ""):
                    lines.append(f"{name} = {value if isinstance(value, str) else repr(value)}")
        again = load_scenario(write_scenario(tmp_path, "\n".join(lines) + "\n"))
        assert scenario_fingerprint(again) == scenario_fingerprint(scenario)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("snapshot_times = ", "snapshot_time = ", "unknown key run.snapshot_time"),
            ("epsilon = 0.25", "epsilom = 0.25", "unknown key diagnostics.epsilom"),
            ("tail_R = 0.9", "tail_R = 0.9\n\n[extra]\nc0 = 1.0", "unknown section [extra]"),
            ("[domain]", "[DEFAULT]\nc0 = 1.0\n\n[domain]", "unknown section [DEFAULT]"),
        ],
    )
    def test_unknown_names_exit_2_naming_them(self, tmp_path, capsys, old, new, message):
        body = (DATA_DIR / "tiny.ini").read_text(encoding="utf-8")
        assert old in body
        path = write_scenario(tmp_path, body.replace(old, new))
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_keys_with_defaults_are_optional(self, tmp_path):
        body = GOOD_BODY.replace("scheme = exponential\n", "")
        s = load_scenario(write_scenario(tmp_path, body))
        assert (s.scheme, s.stop_tol, s.snapshot_times, s.epsilon, s.tail_R) == (
            "exponential", None, (), None, None
        )

    def test_readme_example_loads(self, tmp_path):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
        s = load_scenario(write_scenario(tmp_path, example))
        assert (s.grid.n_cells, s.c0, s.b.source, s.scheme) == (
            2000, 1.0, "2 - (x - 0.3)^2", "exponential"
        )


class TestParser:
    def test_subcommands_and_flags(self):
        p = build_parser()
        args = p.parse_args(["run", "s.ini", "--scheme", "direct", "--dt", "0.5",
                             "--t-end", "3", "--out", "o", "--quiet"])
        assert args.command == "run"
        assert args.scheme == "direct" and args.dt == 0.5 and args.t_end == 3.0
        assert args.out == "o" and args.quiet
        sweep = p.parse_args(["sweep", "s.ini", "--param", "dt", "--values", "1,2"])
        assert sweep.param == "dt" and sweep.values == "1,2"

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "s.ini", "--scheme", "euler"])


class TestPredictCommand:
    def test_prints_text_and_json(self, capsys):
        assert main(["predict", TINY]) == 0
        out = capsys.readouterr().out
        assert "x_bar" in out and "rho_bar" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["x_bar"] == 0.3
        assert payload["rho_bar"] == 1.0
        assert payload["x_bar_on_boundary"] is False
        assert payload["alpha_R"] == pytest.approx(-0.18)

    def test_quiet_emits_json_only(self, capsys):
        assert main(["predict", TINY, "--quiet"]) == 0
        out = capsys.readouterr().out
        json.loads(out)  # the whole stdout is one JSON object

    def test_boundary_flag_reported(self, capsys):
        assert main(["predict", str(SCENARIO_DIR / "boundary_blowup.ini")]) == 0
        out = capsys.readouterr().out
        assert '"x_bar_on_boundary": true' in out

    def test_warnings_on_stderr(self, tmp_path, capsys):
        # b/d is flat on all 11 support nodes: a tie, warned once on stderr
        path = write_scenario(tmp_path, GOOD_BODY.replace("b = 2 - (x - 0.3)^2", "b = 2"))
        for extra in ((), ("--quiet",)):
            assert main(["predict", path, *extra]) == 0
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "warning: b/d attains its maximum at 11 support nodes; taking the smallest "
                "x = 0.0 (unique-maximizer assumption violated)"
            ]
            assert "warning" not in captured.out.split("{")[0]
            assert json.loads(captured.out[captured.out.index("{"):])["notes"] == [
                captured.err[len("warning: "):].rstrip("\n")
            ]

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        bad = write_scenario(tmp_path, GOOD_BODY.replace("b = 2 - (x - 0.3)^2\n", ""))
        assert main(["predict", bad]) == 2
        assert "missing key model.b" in capsys.readouterr().err


class TestRunCommand:
    def test_outputs_and_schema(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", TINY, "--out", str(out)]) == 0
        csv = (out / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "t,rho,V,D,W,max_log_u,x_mode,mass_near_xbar,tail_mass,undershoot_clamps"
        first = csv[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0  # rho(0) of the unit indicator
        assert (out / "plot.gp").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"]["scheme"] == "exponential"
        assert summary["record_count"] == 3

    def test_multi_line_value_writes_a_valid_summary(self, tmp_path):
        # configparser joins a value continued on an indented line with "\n"
        body = (DATA_DIR / "tiny.ini").read_text()
        assert body.count("b = 2 - (x - 0.3)^2\n") == 1
        path = write_scenario(tmp_path, body.replace("b = 2 - (x - 0.3)^2", "b = 1 +\n  0.5*x"))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["scenario"]["b"] == "1 +\n0.5*x"

    def test_snapshot_at_zero_equals_u0(self, tmp_path):
        out = tmp_path / "out"
        main(["run", TINY, "--out", str(out), "--quiet"])
        s = load_scenario(TINY)
        rows = (out / "snapshot_0.csv").read_text().splitlines()
        assert rows[0] == "x,u,log_u"
        u = np.array([float(r.split(",")[1]) for r in rows[1:]])
        np.testing.assert_array_equal(u, s.u0_nodes)

    def test_matches_golden_bytes(self, tmp_path):
        out = tmp_path / "out"
        main(["run", TINY, "--out", str(out), "--quiet"])
        assert (out / "trajectory.csv").read_bytes() == (
            GOLDEN_DIR / "tiny_trajectory.csv"
        ).read_bytes()
        assert (out / "summary.json").read_bytes() == (
            GOLDEN_DIR / "tiny_summary.json"
        ).read_bytes()

    def test_byte_determinism_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", TINY, "--out", str(a), "--quiet"])
        main(["run", TINY, "--out", str(b), "--quiet"])
        for name in ("trajectory.csv", "summary.json", "plot.gp", "snapshot_0.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_snapshot_times_sharing_a_step_each_get_a_file(self, tmp_path, capsys):
        # tiny.ini asks for t = 0 and t = 0.01; at dt = 1 both round to step 0
        out = tmp_path / "out"
        assert main(["run", TINY, "--out", str(out), "--dt", "1", "--t-end", "10"]) == 0
        assert "2 snapshot(s)" in capsys.readouterr().out
        first, second = out / "snapshot_0.csv", out / "snapshot_0.01.csv"
        assert first.read_bytes() == second.read_bytes()
        rows = first.read_text().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == load_scenario(TINY).u0_nodes.tolist()
        assert "snapshot_0.01.csv" in (out / "plot.gp").read_text()

    def test_snapshot_times_sharing_a_file_name_exit_2(self, tmp_path, capsys):
        body = (DATA_DIR / "tiny.ini").read_text(encoding="utf-8")
        path = write_scenario(tmp_path, body.replace(
            "snapshot_times = 0, 0.01", "snapshot_times = 0.0050000001, 0.0050000002"
        ))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: snapshot_times must")
        assert not out.exists()

    def test_scheme_override_recorded(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", TINY, "--out", str(out), "--scheme", "direct", "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"]["scheme"] == "direct"

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("TRAITSIM_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["run", TINY, "--quiet"]) == 0
        assert (target / "trajectory.csv").exists()

    def test_runtime_error_flushes_partial_exit_3(self, tmp_path, capsys, monkeypatch):
        # a dt large enough to overflow the mass is refused by the stability
        # bound (exit 2), so the overflow is raised by the kernel itself
        def overflow(*args):
            raise integrator.ExponentOverflow("total mass overflows: log rho = 800", 800.0)

        monkeypatch.setattr(integrator, "_mass_kernel", lambda tables: overflow)
        out = tmp_path / "out"
        code = main(["run", TINY, "--out", str(out)])
        assert code == 3
        assert "error" in capsys.readouterr().err
        csv = (out / "trajectory.csv").read_text().splitlines()
        assert len(csv) == 2  # header plus the t = 0 record
        summary = json.loads((out / "summary.json").read_text())
        assert "overflow" in summary["error"]


    def test_nan_mass_flushes_partial_exit_3(self, tmp_path, capsys, monkeypatch):
        factory, calls = integrator._mass_kernel, []

        def nan_from_step_6(tables):  # 4 kernel calls per step
            mass = factory(tables)

            def kernel(A, B, *scratch):
                calls.append(None)
                return math.nan if len(calls) > 4 * 5 else mass(A, B, *scratch)

            return kernel

        monkeypatch.setattr(integrator, "_mass_kernel", nan_from_step_6)
        out = tmp_path / "out"
        assert main(["run", TINY, "--out", str(out), "--quiet"]) == 3
        assert "NaN" in capsys.readouterr().err
        csv = (out / "trajectory.csv").read_text().splitlines()
        assert len(csv) == 3  # header plus the records at t = 0 and t = 0.005
        summary = json.loads((out / "summary.json").read_text())
        assert "NaN" in summary["error"]


    @pytest.mark.parametrize("dt", ["1.9", "2.5", "5", "50"])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_dt_past_stability_bound_exits_2(self, tmp_path, capsys, command, dt):
        t_end = str(10 * float(dt))
        assert main([command, TINY, "--dt", dt, "--t-end", t_end, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: dt must be <= 1.74127 ")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_dt_inside_stability_bound_runs(self, tmp_path):
        out = tmp_path / "out"
        argv = ["run", TINY, "--dt", "1.7", "--t-end", "17", "--out", str(out), "--quiet"]
        assert main(argv) == 0
        assert json.loads((out / "summary.json").read_text())["record_count"] == 3


#: doubles whose text is easy to get wrong: signed zeros, infinities, NaN,
#: subnormals, the extremes of the normal range and 17-digit fractions
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310,
                  2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -2.5, 1e22, 1.0]


class TestOutputRows:
    def _trajectory(self):
        s = load_scenario(TINY)
        pred = predict_equilibrium(s)
        return Trajectory(scenario=s, prediction=pred, fingerprint="0", records=[])

    def test_trajectory_rows_match_fmt(self, tmp_path):
        names = [f.name for f in fields(DiagnosticsRecord)]
        integer = {f.name for f in fields(DiagnosticsRecord) if f.type in (int, "int")}
        assert integer == {"undershoot_clamps"}
        trajectory = self._trajectory()
        n = len(SPECIAL_FLOATS)
        for i in range(n):
            values = {
                name: i * 10**(2 * k) + i if name in integer else SPECIAL_FLOATS[(i + k) % n]
                for k, name in enumerate(names)
            }
            trajectory.records.append(DiagnosticsRecord(**values))
        path = tmp_path / "trajectory.csv"
        _write_trajectory_csv(trajectory, path)
        want = [",".join(names)] + [
            ",".join(str(v) if n in integer else _fmt(v) for n, v in zip(names, vars(r).values()))
            for r in trajectory.records
        ]
        assert path.read_text().splitlines() == want

    def test_snapshot_lines_match_fmt(self, tmp_path):
        trajectory = self._trajectory()
        nodes = trajectory.scenario.grid.nodes
        log_u = np.array([-np.inf, 0.0, -0.0, 709.5, 710.0, np.nan, -745.0, -708.5, 5e-324,
                          -1e-310, -3.0])
        assert log_u.size == nodes.size
        trajectory.snapshots.append(DensitySnapshot(0.5, 0.5, log_u))
        assert _write_snapshots(trajectory, tmp_path) == ["snapshot_0.5.csv"]
        with np.errstate(under="ignore", over="ignore"):
            u = np.exp(log_u)
        want = ["x,u,log_u"] + [
            f"{_fmt(xi)},{_fmt(ui)},{_fmt(li)}" for xi, ui, li in zip(nodes, u, log_u)
        ]
        assert (tmp_path / "snapshot_0.5.csv").read_text().splitlines() == want


def traced_peak(write) -> int:
    """The tracemalloc peak, in bytes, of ``write()``."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOutputMemory:
    """Outputs are written as a stream: no file's text is held whole."""

    def test_trajectory_csv_streams_rows(self, tmp_path):
        s = load_scenario(TINY)
        record = DiagnosticsRecord(0.1, 1.0, -0.5, 0.25, 1e-3, 2.0, 0.5, 0.75, 0.0, 0)
        records = [replace(record, t=k * 1e-3) for k in range(20_000)]
        trajectory = Trajectory(scenario=s, prediction=None, fingerprint="0", records=records)
        path = tmp_path / "trajectory.csv"
        peak = traced_peak(lambda: _write_trajectory_csv(trajectory, path))
        assert len(path.read_text().splitlines()) == 1 + len(records)
        assert peak < 0.5e6

    def test_snapshot_streams_chunks_of_nodes(self, tmp_path):
        s = make_scenario(n_cells=50_000)
        nodes = s.grid.nodes
        trajectory = Trajectory(scenario=s, prediction=None, fingerprint="0", records=[])
        trajectory.snapshots.append(DensitySnapshot(0.5, 0.5, np.log1p(nodes)))
        peak = traced_peak(lambda: _write_snapshots(trajectory, tmp_path))
        lines = (tmp_path / "snapshot_0.5.csv").read_text().splitlines()
        assert len(lines) == 1 + nodes.size
        assert lines[-1] == f"{_fmt(1.0)},{_fmt(2.0)},{_fmt(np.log1p(1.0))}"
        assert peak < 1e6


class TestVerifyCommand:
    def test_converged_scenario_all_pass(self, tmp_path, capsys):
        # narrow left-edge population with constant fitness ratio: fully
        # concentrated from the start, converges quickly to rho_bar = 1
        body = """\
[domain]
x_min = 0.0
x_max = 1.0
n_cells = 100

[model]
c0 = 1.0
b = 2
d = 1
u0 = ind(0, 0.04)

[run]
t_end = 20.0
dt = 1e-3
sample_every = 100
scheme = exponential
"""
        path = write_scenario(tmp_path, body)
        code = main(["verify", path])
        out = capsys.readouterr().out
        assert code == 0, out
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL", "SKIP"))]
        assert len(lines) == 7
        assert all(l.startswith(("PASS", "SKIP")) for l in lines)
        for name in ("corridor", "lyapunov_monotone", "dissipation_nonneg",
                     "residual_decay", "rho_limit", "support_conserved",
                     "concentration"):
            assert name in out

    def test_coarse_direct_run_fails_corridor(self, tmp_path, capsys, monkeypatch):
        path = write_scenario(tmp_path, GOOD_BODY)
        argv = ["verify", path, "--scheme", "direct", "--dt", "10", "--t-end", "30"]
        assert main(argv) == 2  # dt = 10 is past the direct scheme's stability bound
        assert capsys.readouterr().err.startswith("error: dt must be <= 1.50997 ")
        # with the bound lifted the run breaches the corridor, and verify says so
        monkeypatch.setattr(integrator, "RK4_STABILITY", math.inf)
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL corridor" in out
        assert "corridor breach" in out

    def test_two_atom_passes_on_the_support_lattice(self, capsys):
        # the predicted x_bar is the winning spike's node, where the mode sits
        code = main(["verify", str(SCENARIO_DIR / "two_atom.ini")])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert "mode at 0.25 vs predicted 0.25" in captured.out
        assert captured.err == ""

    def test_infinite_residual_fails(self, tmp_path, capsys):
        # W(0) = W(T) = inf once passed as inf <= 0.01 * inf
        body = GOOD_BODY.replace("b = 2 - (x - 0.3)^2", "b = 1e200")
        body = body.replace("t_end = 0.01", "t_end = 0").replace("dt = 1e-3", "dt = 1e-300")
        path = write_scenario(tmp_path, body)
        assert main(["verify", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL residual_decay       W(0) = inf, W(T) = inf: not finite" in out
        # D = inf once passed as inf >= 0
        assert "FAIL dissipation_nonneg   D in [inf, inf]: not finite" in out

    def test_unconverged_run_reports_failures(self, capsys):
        # tiny horizon: the mass cannot concentrate yet
        code = main(["verify", TINY])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL concentration" in out


class TestEvaluateInvariants:
    def test_names_and_order(self):
        t = run(load_scenario(TINY))
        names = [name for name, _, _ in evaluate_invariants(t)]
        assert names == [
            "corridor",
            "lyapunov_monotone",
            "dissipation_nonneg",
            "residual_decay",
            "rho_limit",
            "support_conserved",
            "concentration",
        ]

    @pytest.mark.parametrize("W0, WT", [(math.inf, math.inf), (math.inf, 1.0), (1.0, math.inf)])
    def test_residual_decay_fails_on_non_finite_W(self, W0, WT):
        t = run(load_scenario(TINY))
        t.records[0], t.records[-1] = replace(t.records[0], W=W0), replace(t.records[-1], W=WT)
        status = {name: ok for name, ok, _ in evaluate_invariants(t)}
        assert status["residual_decay"] is False

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field, check", [("V", "lyapunov_monotone"),
                                              ("D", "dissipation_nonneg")])
    @pytest.mark.parametrize("t_end", [0.0, 0.01])  # one record: no increment to check
    def test_non_finite_V_or_D_fails(self, value, field, check, t_end):
        t = run(load_scenario(TINY).with_controls(t_end=t_end, snapshot_times=()))
        t.records[-1] = replace(t.records[-1], **{field: value})
        status = {name: ok for name, ok, _ in evaluate_invariants(t)}
        assert status[check] is False

    def test_direct_scheme_skips_support_check(self):
        from dataclasses import replace

        t = run(replace(load_scenario(TINY), scheme="direct"))
        status = {name: ok for name, ok, _ in evaluate_invariants(t)}
        assert status["support_conserved"] is None


class TestSweepCommand:
    def test_requires_two_values(self, tmp_path, capsys):
        code = main(["sweep", TINY, "--param", "dt", "--values", "1e-3",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "at least 2" in capsys.readouterr().err

    def test_dt_sweep_writes_rows_in_order(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", TINY, "--param", "dt",
                     "--values", "2e-3,1e-3,5e-4", "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "dt,rho_final,abs_err_vs_prediction,status"
        assert len(lines) == 5
        assert lines[-1].startswith("# fitted_order ")
        values = [float(l.split(",")[0]) for l in lines[1:4]]
        assert values == [2e-3, 1e-3, 5e-4]
        assert all(l.endswith(",ok") for l in lines[1:4])

    def test_n_cells_sweep(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", TINY, "--param", "n_cells",
                     "--values", "10,20", "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("n_cells,")
        assert lines[1].split(",")[0] == "10"

    def test_n_cells_beyond_the_grid_cap_exit_2(self, tmp_path, capsys):
        code = main(["sweep", TINY, "--param", "n_cells",
                     "--values", "10,100000000000", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: n_cells must")

    def test_fitted_order_on_smooth_case(self, tmp_path):
        body = """\
[domain]
x_min = 0.0
x_max = 1.0
n_cells = 100

[model]
c0 = 1.0
b = 2 - (x - 0.3)^2
d = 1
u0 = ind(0, 1)

[run]
t_end = 5.0
dt = 1e-1
sample_every = 1000
scheme = exponential
"""
        path = write_scenario(tmp_path, body)
        out = tmp_path / "out"
        code = main(["sweep", path, "--param", "dt",
                     "--values", "1e-1,5e-2,2.5e-2,1.25e-2", "--out", str(out),
                     "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        order = float(lines[-1].split()[-1])
        assert 3.5 <= order <= 4.5  # classical RK4
        # the closed-form fit agrees with LAPACK's on the rows written
        dts, rhos = zip(*[map(float, line.split(",")[:2]) for line in lines[1:-1]])
        errs = [abs(r - rhos[-1]) for r in rhos[:-1]]
        want = np.polyfit(np.log(dts[:-1]), np.log(errs), 1)[0]
        assert order == pytest.approx(want, rel=1e-12)

    def test_child_failures_recorded(self, tmp_path):
        out = tmp_path / "out"
        # dt = -1 fails validation in its child; the other value completes
        code = main(["sweep", TINY, "--param", "dt",
                     "--values", "1e-3,-1", "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1].endswith(",ok")
        assert "error" in lines[2]


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "traitsim", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("traitsim ")

    def test_warnings_print_as_single_lines(self, tmp_path):
        import subprocess
        import sys

        # b/d is flat on all 11 support nodes, and t_end = 2.0005 is not a
        # multiple of dt: two warnings, each one line without a source path
        path = write_scenario(tmp_path, GOOD_BODY.replace("b = 2 - (x - 0.3)^2", "b = 2"))
        for command in ("run", "verify"):
            proc = subprocess.run(
                [sys.executable, "-m", "traitsim", command, path, "--t-end", "2.0005",
                 "--out", str(tmp_path), "--quiet"],
                capture_output=True,
                text=True,
                timeout=60,
            )
            lines = proc.stderr.splitlines()
            assert [line.split(": ", 1)[0] for line in lines] == ["warning", "warning"], proc.stderr
            assert lines[0].startswith("warning: b/d attains its maximum at 11 support nodes")
            assert lines[1].startswith("warning: t_end = 2.0005 is not an integer multiple")
            assert ".py" not in proc.stderr and not re.search(r":\d+:", proc.stderr)

    def test_verify_at_tiny_times_prints_no_numeric_noise(self, tmp_path):
        import subprocess
        import sys

        # squares of times near 1e-299 underflow: least squares by np.polyfit
        # printed a divide-by-zero warning and LAPACK's DLASCL errors here
        body = (GOOD_BODY.replace("b = 2 - (x - 0.3)^2", "b = 1e160*(1 + x)")
                .replace("t_end = 0.01", "t_end = 4e-299").replace("dt = 1e-3", "dt = 1e-300")
                .replace("sample_every = 5", "sample_every = 1"))
        proc = subprocess.run(
            [sys.executable, "-m", "traitsim", "verify", write_scenario(tmp_path, body)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.stderr == ""
        assert "log-density slope 1.000e+160," in proc.stdout  # b(1) A'(t), A' = 1/2

    def test_step_budget_exits_2_without_running(self, tmp_path):
        import subprocess
        import sys

        # 1e298 steps: without the budget this run would never end
        path = write_scenario(tmp_path, GOOD_BODY.replace("dt = 1e-3", "dt = 1e-300"))
        proc = subprocess.run(
            [sys.executable, "-m", "traitsim", "run", path, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: dt must")
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("bounds", [("-inf", "1.0"), ("-1e308", "1e308")])
    def test_infinite_grid_width_exits_2_naming_the_bounds(self, tmp_path, bounds):
        import subprocess
        import sys

        # an infinite bound, or a width past double range, made nodes of NaN
        body = GOOD_BODY.replace("x_min = 0.0", f"x_min = {bounds[0]}")
        path = write_scenario(tmp_path, body.replace("x_max = 1.0", f"x_max = {bounds[1]}"))
        proc = subprocess.run(
            [sys.executable, "-m", "traitsim", "run", path, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert [line.split(": ", 1)[0] for line in proc.stderr.splitlines()] == ["error"]
        assert "x_min" in proc.stderr, proc.stderr
        assert ".py" not in proc.stderr and not re.search(r":\d+:", proc.stderr)

    def test_grid_finer_than_float_spacing_exits_2_naming_the_grid(self, tmp_path, capsys):
        # dx = 0.8 against a float spacing of 2 near 1e16 repeated nodes in the
        # snapshots, and the run exited 0
        body = (DATA_DIR / "tiny.ini").read_text()
        for old, new in (("x_min = 0.0", "x_min = 1e16"),
                         ("x_max = 1.0", "x_max = 1.000000000000001e16"),
                         ("b = 2 - (x - 0.3)^2", "b = 2"), ("u0 = ind(0, 1)", "u0 = 1")):
            assert old in body
            body = body.replace(old, new)
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, body), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: grid nodes must be strictly increasing")
        assert all(key in err[0] for key in ("x_min", "x_max", "n_cells")), err
        assert not out.exists() or not any(out.iterdir())

    def test_overflowing_rates_rejected_without_numpy_warnings(self, tmp_path):
        import subprocess
        import sys

        # b = 1e200: at dt = 1e-3 RK4 is unstable, so the run is refused; at a
        # dt inside the bound, G^2 and (b/d - Q)^2 overflow to inf in the
        # diagnostics, silently
        path = write_scenario(tmp_path, GOOD_BODY.replace("b = 2 - (x - 0.3)^2", "b = 1e200"))
        tie = "warning: b/d attains its maximum at 11 support nodes"
        for extra, code, last in (
            ((), 2, "error: dt must be <= 1.114e-299"),
            (("--dt", "1e-300", "--t-end", "1e-299"), 0, tie),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "traitsim", "run", path, "--out", str(tmp_path / "out"),
                 "--quiet", *extra],
                capture_output=True,
                text=True,
                timeout=60,
            )
            lines = proc.stderr.splitlines()
            assert proc.returncode == code and lines[-1].startswith(last), proc.stderr
            assert lines[0].startswith(tie) and len(lines) == 1 + (code != 0), proc.stderr
        final = json.loads((tmp_path / "out" / "summary.json").read_text())["final"]
        assert (final["D"], final["W"]) == ("inf", "inf")


class TestJsonEmitter:
    def test_deterministic_layout(self):
        doc = {"a": 1, "b": [1.5, "x"], "c": {"d": None, "e": True}}
        assert _json_dump(doc) == (
            '{\n  "a": 1,\n  "b": [\n    1.5,\n    "x"\n  ],\n'
            '  "c": {\n    "d": null,\n    "e": true\n  }\n}'
        )

    def test_seventeen_digit_floats(self):
        assert _json_dump(0.1) == "0.10000000000000001"
        assert _json_dump(1.0) == "1"

    def test_strings_escape_as_json_dumps(self):
        # every ASCII character (the control characters, quote and backslash)
        # and non-ASCII text, which stays unescaped
        texts = [chr(c) for c in range(128)] + ["1 +\n0.5*x", 'a"b\\c\td', "é ∞ \u2028 \x7f"]
        for text in texts:
            assert _json_dump(text) == json.dumps(text, ensure_ascii=False), repr(text)
            assert json.loads(_json_dump({"v": text})) == {"v": text}

    def test_non_finite_become_strings(self):
        assert _json_dump(math.inf) == '"inf"'
        assert _json_dump(math.nan) == '"nan"'
        assert json.loads(_json_dump({"v": math.inf})) == {"v": "inf"}
