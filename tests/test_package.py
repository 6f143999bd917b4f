"""The package's import layer: each entry point loads only what it runs.

Module loading is process-wide state, so every check that inspects
``sys.modules`` runs in a fresh interpreter.
"""

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


#: what only running the dynamics needs: ``predict`` loads none of them
RUN_ONLY = ("traitsim.integrator", "traitsim.diagnostics")

#: what no command loads: OpenSSL, through ``hashlib`` (the fingerprint is pure Python)
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
    assert len(traitsim.__all__) == len(set(traitsim.__all__)) == 42


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        traitsim.no_such_name
    assert not hasattr(traitsim, "no_such_name")
