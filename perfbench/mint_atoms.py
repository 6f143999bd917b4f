"""Mint two-atom oracle masses in a fresh process: the atom_oracle op.

Usage: python3 perfbench/mint_atoms.py T_END DT M1 M2

Integrates the acceptance-gate C09 system (atoms with b = 2 and b = 1,
d = 1, c0 = 1) from masses (M1, M2) with ``traitsim.oracle.integrate_atoms``
and prints the final masses as a JSON list of ``repr`` strings, so the
benchmark can compare them digit for digit.
"""

from __future__ import annotations

import json
import sys

from traitsim import oracle


def main(argv: list[str]) -> int:
    t_end, dt, m1, m2 = (float(v) for v in argv)
    system = oracle.AtomSystem((oracle.Atom(2, 1, m1), oracle.Atom(1, 1, m2)))
    # called through the module attribute so a span recorder can wrap it
    final = oracle.integrate_atoms(system, t_end, dt)
    print(json.dumps([repr(a.m) for a in final.atoms]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
