"""Regenerate every frozen reference value and golden file.

Run from the repository root:

    python tests/regen_goldens.py

Rewrites the golden CLI files under tests/golden/ and prints the oracle
constants to paste into tests/test_acceptance.py, each marked as identical
to or different from the value frozen there; the exit status is 1 if any
differs. It takes about five minutes on a 2-vCPU VM, nearly all of it the
long oracle rerun (direct scheme at dt = 1e-4 for t = 200).
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def regen_cli_goldens() -> None:
    out = Path(tempfile.mkdtemp(prefix="traitsim_golden_"))
    subprocess.run(
        [sys.executable, "-m", "traitsim", "run", str(ROOT / "tests/data/tiny.ini"),
         "--out", str(out), "--quiet"],
        check=True,
    )
    shutil.copy(out / "trajectory.csv", ROOT / "tests/golden/tiny_trajectory.csv")
    shutil.copy(out / "summary.json", ROOT / "tests/golden/tiny_summary.json")
    print(f"rewrote tests/golden/ from {out}")


def regen_oracle_constants() -> bool:
    """Print each minted constant against its frozen value; True if all agree."""
    import test_acceptance
    from traitsim.cli import load_scenario
    from traitsim.oracle import AtomSystem, Atom, integrate_atoms, reference_grid_run

    atoms = integrate_atoms(AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.5))), 200.0, 1e-5)
    scenario = load_scenario(ROOT / "scenarios/gaussian_ratio.ini")
    ref = reference_grid_run(scenario, 1e-4)
    minted = {
        "TWO_ATOM_ORACLE_RHO": atoms.rho,
        "TWO_ATOM_ORACLE_LOSER": atoms.atoms[1].m,
        "GAUSSIAN_ORACLE_RHO_200": ref.records[-1].rho,
    }
    all_identical = True
    for name, value in minted.items():
        frozen = getattr(test_acceptance, name)
        identical = value == frozen
        all_identical &= identical
        verdict = "identical to the frozen value" if identical else f"DIFFERS from the frozen {frozen!r}"
        print(f"{name} = {value!r}  # {verdict}")
    return all_identical


if __name__ == "__main__":
    regen_cli_goldens()
    sys.exit(0 if regen_oracle_constants() else 1)
