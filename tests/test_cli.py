"""CLI: scenario files, output schema, golden bytes, exit codes."""

import csv
import gc
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

from conftest import DATA_DIR, GOLDEN_DIR, NESTED_SHAPES, REPO_ROOT, SCENARIO_DIR, make_scenario
from traitsim import cli, diagnostics, exprlang, integrator
from traitsim.cli import (
    SCENARIO_SECTIONS,
    ScenarioFileError,
    _fmt,
    _json_dump,
    _write_snapshots,
    _write_trajectory_csv,
    build_parser,
    load_scenario,
    main,
)
from traitsim.diagnostics import DiagnosticsRecord, evaluate_invariants
from traitsim.integrator import DensitySnapshot, Trajectory, run, scenario_fingerprint
from traitsim.model import Grid, Scenario, predict_equilibrium, scenario_items

TINY = str(DATA_DIR / "tiny.ini")


def write_scenario(tmp_path, body, name="case.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def tiny_with(tmp_path, old, new):
    """The path of a copy of tiny.ini with the line ``old`` replaced by ``new``."""
    body = (DATA_DIR / "tiny.ini").read_text()
    assert old in body
    return write_scenario(tmp_path, body.replace(old, new))


def python_m_traitsim(*args):
    """``python -m traitsim ARGS`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "traitsim", *args],
                          capture_output=True, text=True, timeout=60)


#: verify's complete stdout, pinned: (argv, exit code, stdout)
VERIFY_OUTPUTS = {
    "tiny_exponential": (
        ["verify", TINY], 1,
        "PASS corridor             rho in [0.999380004, 1], allowed [0.826649916 - 1e-06, 1 + 1e-06]\n"
        "PASS lyapunov_monotone    worst tolerated increment 8.738e-05 (>= 0 required)\n"
        "PASS dissipation_nonneg   min D = 1.741e-02\n"
        "FAIL residual_decay       W(T)/W(0) = 9.852e-01 (<= 0.01 required)\n"
        "PASS rho_limit            |rho(T) - rho_bar| = 6.200e-04 (< 0.001 required, interior maximizer)\n"
        "PASS support_conserved    11 initial vs 11 final positive nodes\n"
        "FAIL concentration        mass within epsilon of x_bar = 0.500262 (>= 0.99), mode at 0.3 vs predicted 0.3\n"
    ),
    "tiny_direct": (
        ["verify", TINY, "--scheme", "direct"], 1,
        "PASS corridor             rho in [0.999380004, 1], allowed [0.826649916 - 1e-06, 1 + 1e-06]\n"
        "PASS lyapunov_monotone    worst tolerated increment 8.738e-05 (>= 0 required)\n"
        "PASS dissipation_nonneg   min D = 1.741e-02\n"
        "FAIL residual_decay       W(T)/W(0) = 9.852e-01 (<= 0.01 required)\n"
        "PASS rho_limit            |rho(T) - rho_bar| = 6.200e-04 (< 0.001 required, interior maximizer)\n"
        "SKIP support_conserved    exact only for the exponential scheme; skipped\n"
        "FAIL concentration        mass within epsilon of x_bar = 0.500262 (>= 0.99), mode at 0.3 vs predicted 0.3\n"
    ),
    "boundary_blowup": (
        ["verify", str(SCENARIO_DIR / "boundary_blowup.ini"), "--t-end", "20"], 1,
        "PASS corridor             rho in [0.856793124, 1], allowed [0.618033989 - 1e-06, 1 + 1e-06]\n"
        "PASS lyapunov_monotone    worst tolerated increment 4.560e-04 (>= 0 required)\n"
        "PASS dissipation_nonneg   min D = 4.538e-03\n"
        "FAIL residual_decay       W(T)/W(0) = 2.677e-02 (<= 0.01 required)\n"
        "FAIL rho_limit            |rho(T) - rho_bar| = 3.359e-02 (< 0.01 required, boundary maximizer)\n"
        "PASS support_conserved    2001 initial vs 2001 final positive nodes\n"
        "FAIL concentration        mass within epsilon of x_bar = 0.028191 (>= 0.95), mode at 1.0 vs predicted 1.0\n"
        "info blow_up             monotone_growth=True, log-density slope 6.953e-02, boundary cell mass 0.005011\n"
    ),
}


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
            ("u0 = ind(0, 1)", "u0 = exp(1000)", "u0"),  # inf on every node
            # 1e11 cells would need 745 GiB of nodes: rejected before any allocation
            ("n_cells = 10", "n_cells = 100000000000", "n_cells"),
        ],
    )
    def test_bad_values_exit_2_naming_the_key(self, tmp_path, capsys, old, new, key):
        path = write_scenario(tmp_path, GOOD_BODY.replace(old, new))
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must")
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("[domain]", "c0 = 1.0\n[domain]", "line 1 comes before any [section]"),
        ("c0 = 1.0", "c0 = 1.0\nc1\nc2", "line 8 is not 'key = value'"),  # the first of two
    ], ids=["key-before-any-section", "lines-without-equals"])
    def test_malformed_file_exits_2_in_one_line(self, tmp_path, capsys, old, new, message):
        path = write_scenario(tmp_path, GOOD_BODY.replace(old, new))
        assert main(["predict", path]) == 2
        assert capsys.readouterr().err == f"error: malformed scenario file: {message}\n"

    @pytest.mark.parametrize("old, new, message", [
        ("tail_R = 0.9", "tail_R = 0.9\n[run]", "[line 24]: section 'run' already exists"),
        ("dt = 1e-3", "dt = 1e-3\ndt = 2e-3", "[line 17]: option 'dt' in section 'run' already exists"),
    ], ids=["repeated-section", "repeated-key"])
    def test_repeated_section_or_key_exits_2_in_one_line(self, tmp_path, capsys, old, new,
                                                         message):
        path = tiny_with(tmp_path, old, new)
        assert main(["predict", path]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed scenario file: While reading from {path!r} {message}\n")

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
        # b/d is flat on all 11 support nodes: a tie, warned once on stderr; with
        # tail_R = 0.9 also alpha_R = 2/2 - 1 = 0.0, a failing certificate warned after it
        tie = ("warning: b/d attains its maximum at 11 support nodes; taking the smallest "
               "x = 0.0 (unique-maximizer assumption violated)")
        tail = ("warning: tail certificate failed: alpha_R = 0.0 >= 0 at R = 0.9 "
                "(mass may escape to |x| >= R)")
        flat = GOOD_BODY.replace("b = 2 - (x - 0.3)^2", "b = 2")
        for body, want in ((flat, [tie]), (flat + "\n[diagnostics]\ntail_R = 0.9\n", [tie, tail])):
            path = write_scenario(tmp_path, body)
            for extra in ((), ("--quiet",)):
                assert main(["predict", path, *extra]) == 0
                captured = capsys.readouterr()
                assert captured.err.splitlines() == want
                assert "warning" not in captured.out.split("{")[0]
                notes = json.loads(captured.out[captured.out.index("{"):])["notes"]
                assert notes == [line[len("warning: "):] for line in want]

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

    def test_plot_columns_are_the_csv_columns_their_titles_name(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", TINY, "--out", str(out), "--quiet"]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
        named = {"rho(t)": "rho", "V(t)": "V", "W(t)": "W", "mass near x_bar": "mass_near_xbar"}
        plots = re.findall(r'^plot "trajectory.csv" using (\d+):(\S+) .* title "([^"]+)"$',
                           (out / "plot.gp").read_text(), re.MULTILINE)
        assert sorted(title for _, _, title in plots) == sorted(named)
        for x, y, title in plots:  # y is a column, or an expression of $column like "($5 > 0 ...)"
            columns = {int(c) for c in re.findall(r"\$(\d+)", y)} or {int(y)}
            assert header[int(x) - 1] == "t"
            assert [header[c - 1] for c in columns] == [named[title]]

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

    def test_byte_order_mark_is_not_part_of_the_file(self, tmp_path):
        bom = tmp_path / "tiny.ini"
        bom.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / "tiny.ini").read_bytes())
        outputs = {}
        for name, path in (("plain", TINY), ("bom", str(bom))):
            assert main(["run", path, "--out", str(tmp_path / name), "--quiet"]) == 0
            outputs[name] = {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}
        assert outputs["bom"] == outputs["plain"] and "summary.json" in outputs["plain"]

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

    @pytest.mark.parametrize("where", ["under_a_file", "a_file"])
    @pytest.mark.parametrize("source", ["--out", "$TRAITSIM_OUT"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unmakeable_out_dir_exits_2_in_one_line(
        self, tmp_path, capsys, monkeypatch, command, source, where
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "sub" if where == "under_a_file" else blocker
        argv = [command, TINY, "--quiet"]
        if command == "sweep":
            argv += ["--param", "dt", "--values", "1e-3,2e-3"]
        if source == "--out":
            argv += ["--out", str(target)]
        else:
            monkeypatch.setenv("TRAITSIM_OUT", str(target))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {source} {target}: cannot make the output directory (")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, name", [
        ("run", "trajectory.csv"), ("run", "snapshot_0.csv"), ("run", "summary.json"),
        ("run", "plot.gp"), ("sweep", "sweep.csv"),
    ])
    def test_unwritable_output_file_exits_2_in_one_line(self, tmp_path, capsys, command, name):
        (tmp_path / name).mkdir()  # a directory where the file goes
        argv = [command, TINY, "--quiet", "--out", str(tmp_path)]
        if command == "sweep":
            argv += ["--param", "dt", "--values", "1e-3,2e-3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {tmp_path / name}: cannot write the file (")
        assert "Traceback" not in captured.err

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
        return Trajectory(scenario=s, prediction=pred, fingerprint="0", records=[], snapshots=[])

    def test_trajectory_rows_match_fmt(self, tmp_path):
        names = list(DiagnosticsRecord._fields)
        integer = {name for name, kind in get_type_hints(DiagnosticsRecord).items() if kind is int}
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
            ",".join(str(v) if n in integer else _fmt(v) for n, v in zip(names, r))
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
        records = [record._replace(t=k * 1e-3) for k in range(20_000)]
        trajectory = Trajectory(scenario=s, prediction=None, fingerprint="0", records=records)
        path = tmp_path / "trajectory.csv"
        peak = traced_peak(lambda: _write_trajectory_csv(trajectory, path))
        assert len(path.read_text().splitlines()) == 1 + len(records)
        assert peak < 0.5e6

    def test_snapshot_streams_chunks_of_nodes(self, tmp_path):
        s = make_scenario(n_cells=50_000)
        nodes = s.grid.nodes
        trajectory = Trajectory(
            scenario=s, prediction=None, fingerprint="0", records=[], snapshots=[]
        )
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

    @pytest.mark.parametrize("command", [["verify"], ["run"], ["run", "--quiet"]])
    def test_breaches_are_found_once_per_command(self, tmp_path, capsys, monkeypatch, command):
        found, calls = diagnostics.corridor_breaches, []
        monkeypatch.setattr(diagnostics, "corridor_breaches", lambda t: calls.append(t) or found(t))
        monkeypatch.setattr(integrator, "RK4_STABILITY", math.inf)
        path = write_scenario(tmp_path, GOOD_BODY)
        argv = [*command, path, "--scheme", "direct", "--dt", "10", "--t-end", "30"]
        main(argv + ["--out", str(tmp_path / "out")] if command[0] == "run" else argv)
        assert len(calls) == 1
        assert ("corridor breach" in capsys.readouterr().out) is ("--quiet" not in command)

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

    @pytest.mark.parametrize("case", sorted(VERIFY_OUTPUTS))
    def test_whole_output_is_pinned(self, capsys, case):
        argv, code, stdout = VERIFY_OUTPUTS[case]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert captured.err == ""

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
        t.records[0], t.records[-1] = t.records[0]._replace(W=W0), t.records[-1]._replace(W=WT)
        status = {name: ok for name, ok, _ in evaluate_invariants(t)}
        assert status["residual_decay"] is False

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field, check", [("V", "lyapunov_monotone"),
                                              ("D", "dissipation_nonneg")])
    @pytest.mark.parametrize("t_end", [0.0, 0.01])  # one record: no increment to check
    def test_non_finite_V_or_D_fails(self, value, field, check, t_end):
        t = run(load_scenario(TINY).with_controls(t_end=t_end, snapshot_times=()))
        t.records[-1] = t.records[-1]._replace(**{field: value})
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

    def test_deep_expression_sweeps(self, tmp_path):
        # the workers receive the scenario pickled: a 2,000-term b must not
        # need a recursion per term on the way
        b = "b = 2 - (x - 0.3)^2"
        path = tiny_with(tmp_path, b, b + " + 0*x" * 2000)
        argv = ["sweep", "--param", "dt", "--values", "1e-3,5e-4,2.5e-4", "--quiet", "--out"]
        proc = python_m_traitsim(*argv, str(tmp_path / "deep"), path)
        assert (proc.returncode, proc.stderr) == (0, "")
        # adding 0*x changes no bit of b, so no bit of the sweep
        assert main([*argv, str(tmp_path / "tiny"), TINY]) == 0
        assert ((tmp_path / "deep" / "sweep.csv").read_bytes()
                == (tmp_path / "tiny" / "sweep.csv").read_bytes())

    def test_worker_warnings_print_once_each_in_value_order(self, tmp_path):
        # b = 2 ties b/d at every node and fails the tail certificate in every
        # run; only dt = 3e-3 leaves t_end off its grid
        path = tiny_with(tmp_path, "b = 2 - (x - 0.3)^2", "b = 2")
        proc = python_m_traitsim("sweep", path, "--param", "dt", "--values", "1e-3,2e-3,3e-3",
                                 "--t-end", "0.01", "--quiet", "--out", str(tmp_path / "out"))
        assert proc.returncode == 0
        assert proc.stderr.splitlines(keepends=True) == [
            "warning: b/d attains its maximum at 11 support nodes; taking the smallest x = 0.0 "
            "(unique-maximizer assumption violated)\n",
            "warning: tail certificate failed: alpha_R = 0.0 >= 0 at R = 0.9 "
            "(mass may escape to |x| >= R)\n",
            "warning: t_end = 0.01 is not an integer multiple of dt = 0.003; "
            "integrating 3 steps to t = 0.009000000000000001\n",
        ]

    def test_every_run_failed_exit_3_with_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", TINY, "--param", "dt", "--values", "5,6", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: every run failed (statuses in {out / 'sweep.csv'})\n"
        )
        status = ("error: dt must be <= 1.74127 for a stable exponential step "
                  "(RK4 bound 2.785 / lambda*, lambda* = 1.5994), got {}")
        assert (out / "sweep.csv").read_text() == (
            "dt,rho_final,abs_err_vs_prediction,status\n"
            f'5,nan,nan,"{status.format(5.0)}"\n'
            f'6,nan,nan,"{status.format(6.0)}"\n'
            "# fitted_order nan\n"
        )

    def test_child_failures_recorded(self, tmp_path):
        out = tmp_path / "out"
        # dt = -1 fails validation in its child; the other value completes
        code = main(["sweep", TINY, "--param", "dt",
                     "--values", "1e-3,-1", "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1].endswith(",ok")
        assert "error" in lines[2]

    def test_error_status_reads_back_as_one_field(self, tmp_path):
        # the stability message holds commas: the status field is quoted
        out = tmp_path / "out"
        code = main(["sweep", TINY, "--param", "dt", "--values", "1e-3,5e-4,2.5e-4,5",
                     "--t-end", "10", "--out", str(out), "--quiet"])
        assert code == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        assert [len(row) for row in rows] == [4] * 5
        assert [row[3] for row in rows[1:4]] == ["ok"] * 3
        assert rows[4][3] == ("error: dt must be <= 1.74127 for a stable exponential step "
                              "(RK4 bound 2.785 / lambda*, lambda* = 1.5994), got 5.0")

    def test_differences_at_roundoff_fit_no_order(self, tmp_path):
        # every run reaches the same rho to 14 digits: the differences from the
        # 40,000-step reference (1.6e-14, 6.6e-16) lie below sqrt(n) 2^-52 |rho| = 4.3e-14
        out = tmp_path / "out"
        code = main(["sweep", TINY, "--param", "dt", "--values", "1e-3,5e-4,2.5e-4,5",
                     "--t-end", "10", "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:4]] == [
            "0.97868769165361846", "0.97868769165363378", "0.9786876916536178"]
        assert lines[-1] == "# fitted_order nan"

    def test_differences_above_roundoff_keep_their_fit(self, tmp_path):
        # the smallest difference, 4.2e-13, is above the 2,000-step floor of 9.7e-15
        out = tmp_path / "out"
        code = main(["sweep", str(SCENARIO_DIR / "gaussian_ratio.ini"), "--param", "dt",
                     "--values", "4e-2,2e-2,1e-2,5e-3", "--t-end", "10", "--out", str(out),
                     "--quiet"])
        assert code == 0
        assert (out / "sweep.csv").read_text() == """\
dt,rho_final,abs_err_vs_prediction,status
0.040000000000000001,0.97877438908185443,0.021225610918145565,ok
0.02,0.97877438919506421,0.021225610804935791,ok
0.01,0.97877438920203808,0.021225610797961925,ok
0.0050000000000000001,0.9787743892024604,0.021225610797539596,ok
# fitted_order 4.0788594193054042
"""


class TestModuleEntryPoint:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["predict", "run", "verify"])
    def test_closed_stdout_exits_141_in_silence(self, tmp_path, command, unbuffered):
        # as in `traitsim predict ... | true`: the reader is gone before the first write
        read, write = os.pipe()
        os.close(read)
        out = ["--out", str(tmp_path)] if command == "run" else []
        try:
            proc = subprocess.run([sys.executable, "-m", "traitsim", command, TINY, *out],
                                  stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
                                  env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")

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

    @pytest.mark.parametrize("shape,offset", [("parentheses", 100), ("unary_minus", 100),
                                              ("power_chain", 403), ("calls", 403)])
    def test_expression_nested_5000_deep_exits_2_in_one_line(self, tmp_path, shape, offset):
        # 5,000 levels overflowed the parser's stack: a RecursionError traceback, exit 1
        path = tiny_with(tmp_path, "b = 2 - (x - 0.3)^2", f"b = {NESTED_SHAPES[shape][0](5000)}")
        proc = python_m_traitsim("predict", path)
        assert proc.returncode == 2
        assert proc.stderr == ("error: invalid expression for model.b: "
                               f"nesting deeper than 100 levels at offset {offset}\n")

    def test_u0_mass_past_double_range_exits_2_in_one_line(self, tmp_path):
        # the mass summed to inf, minus half of inf is NaN: reported as an empty
        # support, after numpy's two-line overflow warning
        proc = python_m_traitsim("predict", tiny_with(tmp_path, "u0 = ind(0, 1)", "u0 = 1e308"))
        assert proc.returncode == 2
        assert proc.stderr == "error: u0's initial mass overflows double range\n"

    def test_main_in_process_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert main(["predict", TINY, "--quiet"]) == 0
        assert gc.get_freeze_count() == before
        assert "gc" not in vars(cli)

    def test_python_dash_m_exits_with_the_import_time_heap_frozen(self):
        # atexit handlers run before the interpreter's final collection
        wrapper = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
            f"sys.argv = ['traitsim', 'predict', {TINY!r}, '--quiet']\n"
            "runpy.run_module('traitsim', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run([sys.executable, "-c", wrapper], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        frozen = re.fullmatch(r"frozen (\d+)\n", proc.stderr)
        assert frozen and int(frozen.group(1)) > 10_000, proc.stderr  # numpy's heap among them

    def test_console_script_runs_the_module_entry(self):
        scripts = (REPO_ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
        module, name = re.search(r'^traitsim = "([\w.]+):(\w+)"$', scripts, re.M).groups()
        assert module == "traitsim.__main__"
        entry = importlib.import_module(module)
        # the one call under `if __name__ == "__main__":` in that module
        guard = entry.__loader__.get_source(module).split('if __name__ == "__main__":')[1]
        assert guard.strip() == f"sys.exit({name}())"
        assert getattr(entry, name).__module__ == module


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
