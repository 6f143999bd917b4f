"""The package's import layer: each entry point loads only what it runs.

Module loading is process-wide state, so every check that inspects
``sys.modules`` runs in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import traitsim

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
TINY = Path(__file__).resolve().parent / "data" / "tiny.ini"


def fresh(code: str):
    """Run ``code`` in a new interpreter on this source tree; return its printed JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


#: what the atom oracle never loads; a bare interpreter loads none of them either,
#: so the check pins traitsim's own imports
ORACLE_NEVER = ("numpy", "dataclasses", "inspect", "traitsim.integrator")


def test_atom_oracle_loads_no_numpy():
    loaded = fresh(
        "import json, sys\n"
        "from traitsim.oracle import Atom, AtomSystem, integrate_atoms\n"
        f"before = [m for m in {ORACLE_NEVER!r} if m in sys.modules]\n"
        "integrate_atoms(AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.5))), 0.01, 1e-4)\n"
        f"after = [m for m in {ORACLE_NEVER!r} if m in sys.modules]\n"
        "print(json.dumps([before, after]))\n"
    )
    assert loaded == [[], []]


def test_oracle_divergence_raises_the_integrator_error():
    raised = fresh(
        "import json\n"
        "from traitsim.oracle import Atom, AtomSystem, integrate_atoms\n"
        "try:\n"
        "    integrate_atoms(AtomSystem((Atom(1e300, 1, 1.0),)), 1e-3, 1e-4)\n"
        "except Exception as err:\n"
        "    import traitsim.integrator\n"
        "    print(json.dumps(type(err) is traitsim.integrator.IntegrationError))\n"
    )
    assert raised is True


def test_cli_loads_no_process_pool():
    loaded = fresh(
        "import json, sys\n"
        "import traitsim.cli\n"
        "print(json.dumps('concurrent.futures.process' in sys.modules))\n"
    )
    assert loaded is False


def test_sweep_refuses_a_bad_output_directory_before_its_workers(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = fresh(
        "import contextlib, io, json, sys\n"
        "from traitsim import cli\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.main(['sweep', {str(TINY)!r}, '--param', 'dt', '--values', '1e-3,2e-3',\n"
        f"                     '--out', {str(blocker / 'sub')!r}])\n"
        "print(json.dumps([code, 'concurrent.futures.process' in sys.modules]))\n"
    )
    assert result == [2, False]


#: what only running the dynamics needs: ``predict`` loads none of them
RUN_ONLY = ("traitsim.integrator", "traitsim.diagnostics")

#: what no command loads: OpenSSL, through ``hashlib`` (the fingerprint takes the
#: interpreter's own SHA-256 module)
NEVER = ("_hashlib",)


def test_predict_loads_no_integrator_and_run_does(tmp_path):
    loaded = fresh(
        "import contextlib, io, json, sys\n"
        "from traitsim import cli\n"
        f"names = {RUN_ONLY + NEVER!r}\n"
        "loaded = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['predict', {str(TINY)!r}]) == 0\n"
        "    loaded.append([m for m in names if m in sys.modules])\n"
        f"    assert cli.main(['run', {str(TINY)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "    loaded.append([m for m in names if m in sys.modules])\n"
        f"    assert cli.main(['verify', {str(TINY)!r}]) == 1  # t_end is too short to pass\n"
        "    loaded.append([m for m in names if m in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    assert loaded == [[], list(RUN_ONLY), list(RUN_ONLY)]


def test_run_writes_its_summary_without_loading_json(tmp_path):
    loaded = fresh(
        "import sys\n"
        "from traitsim import cli\n"
        f"assert cli.main(['run', {str(TINY)!r}, '--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
        "print('true' if 'json' in sys.modules else 'false')\n"
    )
    assert loaded is False


def test_exit_codes_without_the_integrator_loaded_up_front(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(TINY.read_text().replace("[model]", "[model]\nc1 = 1.0"))
    codes = fresh(
        "import contextlib, io, json, sys\n"
        "from traitsim import cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    bad_key = cli.main(['predict', {str(bad)!r}])\n"
        f"    loaded = [m for m in {RUN_ONLY + NEVER!r} if m in sys.modules]\n"
        "    import traitsim.integrator as integrator\n"
        "    def overflow(*args):\n"
        "        raise integrator.ExponentOverflow('total mass overflows', 800.0)\n"
        "    integrator._mass_kernel = lambda tables: overflow\n"
        f"    overflowed = cli.main(['verify', {str(TINY)!r}])\n"
        "print(json.dumps([bad_key, loaded, overflowed, err.getvalue().splitlines()]))\n"
    )
    assert codes == [
        2, [], 3, ["error: unknown key model.c1", "error: total mass overflows"]
    ]


def test_no_module_imports_scipy():
    # scipy is no declared dependency: probes and tests may use it, the package may not
    found = []
    for path in sorted((SRC_DIR / "traitsim").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_star_import_binds_each_name_from_its_home_module():
    mismatched = fresh(
        "import importlib, json\n"
        "from traitsim import *\n"
        "import traitsim\n"
        "home = {n: importlib.import_module('traitsim.' + m) for n, m in traitsim._HOMES.items()}\n"
        "home['__version__'] = traitsim\n"
        "print(json.dumps([n for n in traitsim.__all__ if globals()[n] is not getattr(home[n], n)]))\n"
    )
    assert mismatched == []


def test_names_are_listed_once():
    assert len(traitsim.__all__) == len(set(traitsim.__all__)) == 34


def test_removed_names_raise_attribute_error():
    # each was a second route to a quantity: make_record, TraitFunction.sample,
    # fitness_on_nodes and predict_equilibrium are the ones left
    for name in ("ConcentrationReport", "compute_V", "compute_D", "compute_W",
                 "concentration_report", "eval_expr", "eval_fitness", "apriori_corridor"):
        with pytest.raises(AttributeError, match=name):
            getattr(traitsim, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        traitsim.no_such_name
    assert not hasattr(traitsim, "no_such_name")


def test_perfbench_spans_wrap_every_target(tmp_path):
    # the benchmark's span recorder wraps public names from outside the
    # package: each must still exist, and run and make_record must still take
    # the arguments its probes read
    spans_py = SRC_DIR.parent / "perfbench" / "spans.py"
    result = fresh(
        "import importlib, importlib.util, json\n"
        f"spec = importlib.util.spec_from_file_location('spans', {str(spans_py)!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "from traitsim import cli\n"
        "def binding(module, cls, name):\n"
        "    owner = importlib.import_module(module)\n"
        "    return getattr(getattr(owner, cls) if cls else owner, name)\n"
        "originals = [binding(*t[1:4]) for t in spans.TARGETS]\n"
        "recorder = spans.Recorder()\n"
        "spans.install(recorder)\n"
        "unresolved = [t[3] for t, o in zip(spans.TARGETS, originals)\n"
        "              if getattr(binding(*t[1:4]), '__wrapped__', None) is not o]\n"
        f"code = cli.main(['run', {str(TINY)!r}, '--quiet', '--out', {str(tmp_path)!r}])\n"
        "attrs = {}\n"
        "for name, _layer, _start, _end, _parent, a in recorder.spans:\n"
        "    attrs.setdefault(name, []).append(a)\n"
        "print(json.dumps([code, unresolved, attrs]))\n"
    )
    code, unresolved, attrs = result
    assert (code, unresolved) == (0, [])
    # tiny.ini: 10 steps of 1e-3, a record every 5 steps and at t = 0
    assert attrs["run"] == [{"steps": 10}]
    assert [sorted(a) for a in attrs["make_record"]] == [["A", "B"]] * 3
    assert attrs["make_record"][0] == {"A": 0.0, "B": 0.0}
    # a run bounds no expression on a grid and integrates no atoms
    assert set(attrs) == {"parse", "TraitFunction.sample", "Scenario.validate",
                          "predict_equilibrium", "run", "make_record", "load_scenario", "main"}
