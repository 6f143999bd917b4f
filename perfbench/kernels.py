"""Kernel microbenchmarks on a workload's own grid, in a fresh process.

Usage: python3 perfbench/kernels.py SCENARIO_INI POINTS_JSON

Prints a JSON object with one list of repeat timings per kernel:

* ``ns_per_node_eval``: ``TraitFunction.sample`` of b, d and u0 over the
  grid nodes, in ns per node and function;
* ``us_per_mass_eval``: ``rho_from_exponents`` at the (A, B) points in
  POINTS_JSON (taken from the workload's own trajectory), in us per call.
"""

from __future__ import annotations

import json
import sys
import time

from traitsim.cli import load_scenario
from traitsim.integrator import rho_from_exponents

REPEATS = 5
#: each mass-kernel repeat runs at least this long, so clock ticks do not matter
MIN_REPEAT_S = 0.02


def sample_ns(scenario) -> list[float]:
    nodes = scenario.grid.nodes
    functions = (scenario.b, scenario.d, scenario.u0)
    out = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for f in functions:
            f.sample(nodes)
        out.append((time.perf_counter_ns() - start) / (len(functions) * nodes.size))
    return out


def mass_us(scenario, points: list[tuple[float, float]]) -> list[float]:
    rho_from_exponents(*points[0], scenario)  # builds the cached support tables
    start = time.perf_counter()
    for A, B in points:
        rho_from_exponents(A, B, scenario)
    sweeps = max(1, int(MIN_REPEAT_S / max(time.perf_counter() - start, 1e-9)))
    out = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for _ in range(sweeps):
            for A, B in points:
                rho_from_exponents(A, B, scenario)
        out.append((time.perf_counter_ns() - start) / 1e3 / (sweeps * len(points)))
    return out


def main(argv: list[str]) -> int:
    scenario_path, points_path = argv
    scenario = load_scenario(scenario_path)
    with open(points_path, encoding="utf-8") as fh:
        points = [tuple(p) for p in json.load(fh)]
    print(json.dumps({
        "ns_per_node_eval": sample_ns(scenario),
        "us_per_mass_eval": mass_us(scenario, points),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
