"""Compare the CLI's outputs of this checkout with those of another checkout.

Usage (from anywhere)::

    python3 tools/compare_outputs.py PARENT

PARENT is the root of another checkout of traitsim (one with a ``src``
directory).  For each scenario file in ``scenarios/`` and ``tests/data/`` of
this checkout, the script runs ``predict``, then ``run --t-end 2`` and
``verify --t-end 2`` under each scheme, once with PARENT's ``src`` on the
path and once with this checkout's, in fresh interpreters, with the same
``--out`` directory (emptied before each run) and the same working directory.
It compares the exit code, stdout, stderr and the bytes of every file the
command wrote, prints each difference, and exits 1 if there is any, else 0.
A refactor that claims byte-identical outputs shows it with this script.
"""

from __future__ import annotations

import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIRS = ("scenarios", "tests/data")
SCHEMES = ("exponential", "direct")
T_END = "2"


def commands(path: Path) -> list[list[str]]:
    """The argv lists run on one scenario file, without ``--out``."""
    argv = [["predict", str(path)]]
    for scheme in SCHEMES:
        for command in ("run", "verify"):
            argv.append([command, str(path), "--t-end", T_END, "--scheme", scheme])
    return argv


def outcome(tree: Path, argv: list[str], out: Path, cwd: Path) -> dict[str, bytes]:
    """Exit code, stdout, stderr and written files of ``traitsim ARGV --out OUT`` from tree/src."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "traitsim", *argv, "--out", str(out)],
                          capture_output=True, cwd=cwd, env=env, timeout=600)
    result = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
              "stderr": proc.stderr}
    for file in sorted(out.rglob("*")) if out.exists() else ():
        if file.is_file():
            result[f"file {file.relative_to(out)}"] = file.read_bytes()
    return result


def differences(before: dict[str, bytes], after: dict[str, bytes]) -> list[str]:
    """One text block per stream or file that is missing on one side or differs."""
    found = []
    for key in sorted(before.keys() | after.keys()):
        a, b = before.get(key), after.get(key)
        if a == b:
            continue
        if a is None or b is None:
            found.append(f"  {key}: only in {'the parent' if b is None else 'this checkout'}")
            continue
        lines = difflib.unified_diff(
            a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines(),
            "parent", "checkout", n=0, lineterm="",
        )
        found.append(f"  {key} differs:\n" + "\n".join(f"    {line}" for line in list(lines)[:20]))
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "traitsim").is_dir():
        print("usage: compare_outputs.py PARENT (a checkout root with src/traitsim)",
              file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    paths = sorted(p for d in SCENARIO_DIRS for p in (ROOT / d).glob("*.ini"))
    compared = differing = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        cwd, out = Path(tmp), Path(tmp) / "out"
        for path in paths:
            for command in commands(path):
                label = " ".join([command[0], str(path.relative_to(ROOT)), *command[2:]])
                found = differences(outcome(parent, command, out, cwd),
                                    outcome(ROOT, command, out, cwd))
                compared += 1
                if found:
                    differing += 1
                    print(f"DIFF {label}\n" + "\n".join(found))
    print(f"{compared} commands on {len(paths)} scenario files compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
