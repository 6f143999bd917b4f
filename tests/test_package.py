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


def fresh(code: str):
    """Run ``code`` in a new interpreter on this source tree; return its printed JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_atom_oracle_loads_no_numpy():
    loaded = fresh(
        "import json, sys\n"
        "from traitsim.oracle import Atom, AtomSystem, integrate_atoms\n"
        "before = sorted(m for m in ('numpy', 'traitsim.integrator') if m in sys.modules)\n"
        "integrate_atoms(AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.5))), 0.01, 1e-4)\n"
        "after = sorted(m for m in ('numpy', 'traitsim.integrator') if m in sys.modules)\n"
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
    assert len(traitsim.__all__) == len(set(traitsim.__all__)) == 44


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        traitsim.no_such_name
    assert not hasattr(traitsim, "no_such_name")
