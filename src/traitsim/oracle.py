"""Independent brute-force references for certifying simulator output.

Two oracles, both deliberately ignorant of the exponent reduction used by
the production integrator:

* :func:`integrate_atoms` evolves a finite list of point masses
  dm_i/dt = G_i(rho) m_i, rho = sum m_i, with tiny-step RK4.  A grid
  scenario whose support is a few isolated nodes has exactly these
  dynamics (mass per node = density * cell width), so the two routes must
  agree.
* :func:`reference_grid_run` reruns a scenario with the direct scheme at a
  much finer step, serving as numerical ground truth for trajectory-level
  claims.

Golden numbers frozen into tests are minted by these functions; each frozen
value carries the oracle call that produced it so ground truth can always
be regenerated.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from . import MAX_STEPS, _step_count

if TYPE_CHECKING:  # annotations only: the atom oracle runs without numpy
    from .integrator import Trajectory
    from .model import Scenario

__all__ = ["Atom", "AtomSystem", "integrate_atoms", "reference_grid_run", "ORACLE_MAX_DT"]

#: fidelity bound: the atom oracle refuses steps coarser than this
ORACLE_MAX_DT = 1e-4


class Atom(NamedTuple):
    b: float
    d: float
    m: float


class _AtomSystemFields(NamedTuple):
    atoms: tuple[Atom, ...]
    c0: float = 1.0


class AtomSystem(_AtomSystemFields):
    """Point masses at abstract traits, coupled only through the total mass.

    Immutable, compared and hashed by value, and validated on construction.
    Both classes are named tuples, not dataclasses: importing ``dataclasses``
    (and through it ``inspect``) was most of the atom oracle's start-up.
    """

    __slots__ = ()

    def __new__(cls, atoms: tuple[Atom, ...], c0: float = 1.0):
        self = super().__new__(cls, atoms, c0)
        if not self.atoms:
            raise ValueError("atom system needs at least one atom")
        for a in self.atoms:
            for name, rate in (("b", a.b), ("d", a.d)):
                if not (0.0 < rate < math.inf):
                    raise ValueError(f"atom rate {name} must be finite and positive, got {rate}")
            if not (0.0 <= a.m < math.inf):
                raise ValueError(f"atom mass m must be finite and >= 0, got {a.m}")
        if not (0.0 <= self.c0 < math.inf):
            raise ValueError(f"c0 must be finite and >= 0, got {self.c0}")
        if not (0.0 < self.rho < math.inf):
            raise ValueError(f"total mass must be finite and positive, got {self.rho}")
        return self

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` validates too
        return cls(*iterable)

    @property
    def rho(self) -> float:
        return sum(a.m for a in self.atoms)


@lru_cache(maxsize=64)
def _rk4_loop(unit_d: tuple[bool, ...], unit_c0: bool):
    """The fixed-step RK4 loop for ``len(unit_d)`` atoms, generated as straight-line code.

    The oracle runs ~1e7 steps at its fidelity, and indexing arrays from the
    interpreter costs about ten times the arithmetic, so the loop body holds
    one local float per atom and stage.  Its operation order is that of the
    indexed reference loop in ``tests/test_oracle.py`` (rho summed left to
    right; ``0.5 * dt``, ``dt / 6.0`` and ``1.0 + c0 * rho`` are computed
    once instead of per use, which changes no rounding), so both give the
    same bits.  A factor that is exactly 1.0 is folded: ``rho`` stands for
    ``d_i * rho`` where ``unit_d[i]``, and ``1.0 + rho`` for ``1.0 + c0 * rho``
    where ``unit_c0``.  IEEE multiplication by 1.0 returns its operand
    unchanged (±0, ±inf, subnormals and NaN included), so folding changes no
    bit either.  Built at the first call for each atom count and fold
    pattern, not at import.
    """
    atoms = range(len(unit_d))
    death = ["rho" if unit else f"d{i} * rho" for i, unit in enumerate(unit_d)]

    def names(prefix: str) -> str:
        return "".join(f"{prefix}{i}, " for i in atoms)

    def stage(k: str, x: str, step: str | None) -> list[str]:
        lines = [f"rho = {' + '.join(f'{x}{i}' for i in atoms)}",
                 "s = 1.0 + rho" if unit_c0 else "s = 1.0 + c0 * rho"]
        lines += [f"{k}{i} = (b{i} / s - {death[i]}) * {x}{i}" for i in atoms]
        if step is not None:
            lines += [f"t{i} = m{i} + {step} * {k}{i}" for i in atoms]
        return lines

    body = (
        stage("k1_", "m", "half")
        + stage("k2_", "t", "half")
        + stage("k3_", "t", "dt")
        + stage("k4_", "t", None)
        + [f"m{i} += sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})" for i in atoms]
    )
    source = "\n".join(
        [
            f"def rk4({names('b')}{names('d')}{names('m')}c0, dt, n_steps):",
            "    half = 0.5 * dt",
            "    sixth = dt / 6.0",
            "    for _ in range(n_steps):",
            *(f"        {line}" for line in body),
            f"    return {names('m')}",
        ]
    )
    namespace: dict = {}
    exec(compile(source, f"<rk4 loop for {len(unit_d)} atoms>", "exec"), namespace)
    return namespace["rk4"]


def integrate_atoms(system: AtomSystem, t_end: float, dt: float) -> AtomSystem:
    """Advance the atom masses to t_end with fixed-step RK4.

    ``dt`` must not exceed :data:`ORACLE_MAX_DT`; the whole point of this
    oracle is that its time-stepping error is negligible against every
    tolerance it certifies.  More than :data:`~traitsim.MAX_STEPS` steps are
    refused, and a ``t_end`` that ``dt`` does not divide warns, as in
    :func:`~traitsim.integrator.run`.  Deterministic: same inputs, same bits.
    Raises :class:`~traitsim.integrator.IntegrationError` if the masses diverge.
    """
    if not (0.0 <= t_end < math.inf):
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    if not (0.0 < dt <= ORACLE_MAX_DT and t_end / dt <= MAX_STEPS):
        raise ValueError(
            f"oracle requires 0 < dt <= {ORACLE_MAX_DT} and t_end / dt <= {MAX_STEPS:.0e}, "
            f"got t_end = {t_end!r}, dt = {dt!r}"
        )
    atoms, c0 = system.atoms, float(system.c0)
    d = [float(a.d) for a in atoms]
    masses = _rk4_loop(tuple(x == 1.0 for x in d), c0 == 1.0)(
        *(float(a.b) for a in atoms),
        *d,
        *(float(a.m) for a in atoms),
        c0,
        float(dt),
        _step_count(t_end, dt),
    )
    try:
        return AtomSystem(tuple(Atom(a.b, a.d, m) for a, m in zip(atoms, masses)), system.c0)
    except ValueError as err:
        # the input was valid, so the loop itself diverged
        from .integrator import IntegrationError

        raise IntegrationError(f"dt = {dt!r} is too coarse for these rates: {err}") from None


def reference_grid_run(scenario: Scenario, dt_fine: float) -> Trajectory:
    """Direct-scheme rerun at a finer step, used as trajectory ground truth.

    Requires dt_fine <= scenario.dt / 10 so the reference is decisively more
    accurate than the run it certifies.
    """
    if not (dt_fine > 0.0):
        raise ValueError(f"dt_fine must be > 0, got {dt_fine}")
    if dt_fine > scenario.dt / 10.0:
        raise ValueError(
            f"reference step dt_fine = {dt_fine} must be <= dt/10 = {scenario.dt / 10.0}"
        )
    from .integrator import run

    return run(scenario.with_controls(dt=dt_fine, scheme="direct"))
