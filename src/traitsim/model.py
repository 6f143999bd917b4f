"""Static problem analysis for the trait-selection model.

The dynamics couple a per-trait density u(x, t) to its total mass
rho(t) = integral of u dx through the fitness

    G(x, rho) = b(x) / (1 + c0 * rho) - d(x) * rho.

This module holds the problem description (:class:`Grid`,
:class:`Scenario`) and everything that can be said before integrating:
certified bounds of b and d on the grid, the predicted limit trait
``x_bar`` and limit mass ``rho_bar``, the a priori corridor trapping
rho(t), and the tail certificate for unbounded supports.

All functions here are pure and all types immutable, so they are safe to
share across threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import MAX_STEPS
from .exprlang import TraitFunction

__all__ = [
    "AssumptionWarning",
    "Grid",
    "Scenario",
    "EquilibriumPrediction",
    "SCHEMES",
    "RUN_CONTROLS",
    "scenario_items",
    "positive_root",
    "equilibrium_mass",
    "fitness_on_nodes",
    "quadrature",
    "predict_equilibrium",
    "check_tail_condition",
]

SCHEMES = ("exponential", "direct")

#: the run controls: the only fields :meth:`Scenario.with_controls` changes
RUN_CONTROLS = ("t_end", "dt", "sample_every", "scheme", "stop_tol", "snapshot_times")

#: grid budget: larger grids are rejected before any node array is allocated
MAX_CELLS = 10**7

#: file name of the density snapshot at a requested time (six significant digits)
SNAPSHOT_NAME = "snapshot_{:g}.csv"


class AssumptionWarning(UserWarning):
    """A model assumption is violated or unverifiable; results may not apply."""


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on [x_min, x_max] with n_cells cells (n_cells + 1 nodes)."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and math.isfinite(self.x_max - self.x_min)):
            raise ValueError(
                f"grid needs x_min < x_max with a finite width, got [{self.x_min}, {self.x_max}]"
            )
        if self.n_cells < 2:
            raise ValueError(f"grid needs n_cells >= 2, got {self.n_cells}")
        if self.n_cells > MAX_CELLS:
            raise ValueError(f"n_cells must be <= {MAX_CELLS:.0e}, got {self.n_cells}")
        # a cell over 4 float spacings wide settles it; finer grids compare their nodes
        spacing = math.ulp(max(-self.x_min, self.x_max)) + math.ulp(self.x_max - self.x_min)
        if self.dx <= 4.0 * spacing and not (np.diff(self.nodes) > 0.0).all():
            raise ValueError(f"grid nodes must be strictly increasing, but x_min = {self.x_min}, "
                             f"x_max = {self.x_max} and n_cells = {self.n_cells} repeat nodes")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        # i/n is correctly rounded, so decimal fractions like 0.25 or 0.3 land
        # exactly on the doubles that scenario expressions parse to.
        i = np.arange(self.n_nodes, dtype=float)
        x = self.x_min + (self.x_max - self.x_min) * (i / self.n_cells)
        x[-1] = self.x_max
        x.setflags(write=False)
        return x

    def window(self, center: float, eps: float) -> slice:
        """The nodes within eps of center as a slice (1e-9 slack keeps nodes eps away in)."""
        if not (eps > 0.0):
            raise ValueError(f"epsilon must be > 0, got {eps}")
        dist, c = self.nodes - center, eps * (1.0 + 1e-9)
        return slice(int(dist.searchsorted(-c)), int(dist.searchsorted(c, "right")))


class SupportTables(NamedTuple):
    """b, d, log u0 and trapezoid weights on the support of u0, and their ranges.

    ``support`` is a slice when it is one run of nodes, and then ``b_s``, ``w_s``
    and an array ``d`` view the grid arrays.  ``d`` (a float when constant) and
    ``log_u0`` (a float when constant, None when 0) are d and log u0 there.
    """

    n_nodes: int
    support: slice | np.ndarray
    b_s: np.ndarray
    w_s: np.ndarray
    d: float | np.ndarray
    log_u0: float | np.ndarray | None
    b_lo: float
    b_hi: float
    d_lo: float
    d_hi: float
    log_u0_hi: float


@dataclass(frozen=True)
class Scenario:
    """Full problem description: domain, coefficients and integration controls.

    Construction is cheap and does not evaluate the expressions; call
    :meth:`validate` (entry points do) to certify the invariants: finite
    b > 0 and d > 0 at every node, finite nonnegative u0 with positive
    initial mass, every number finite and in range (snapshot times within
    [0, t_end], at most :data:`MAX_STEPS` steps) and a known scheme.

    Every value derived from the scenario (the sampled b, d and u0, the node
    weights, the initial mass once the grid checks pass, b/d, its maximizers,
    the support tables, d as a float when constant, the tail nodes with their
    weights and the concentration window) is built once, on first use, and
    cached read-only.  None of them reads a run control.
    """

    grid: Grid
    c0: float
    b: TraitFunction
    d: TraitFunction
    u0: TraitFunction
    t_end: float
    dt: float
    sample_every: int
    scheme: str = "exponential"
    stop_tol: float | None = None
    snapshot_times: tuple[float, ...] = ()
    epsilon: float | None = None
    tail_R: float | None = None

    @cached_property
    def weights(self) -> np.ndarray:
        """The trapezoid weight of every node: every mass but rho0 (see :func:`quadrature`)."""
        w = np.full(self.grid.n_nodes, self.grid.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.setflags(write=False)
        return w

    @cached_property
    def b_nodes(self) -> np.ndarray:
        v = self.b.sample(self.grid.nodes)
        v.setflags(write=False)
        return v

    @cached_property
    def d_nodes(self) -> np.ndarray:
        v = self.d.sample(self.grid.nodes)
        v.setflags(write=False)
        return v

    @cached_property
    def u0_nodes(self) -> np.ndarray:
        v = self.u0.sample(self.grid.nodes)
        v.setflags(write=False)
        return v

    @cached_property
    def support_mask(self) -> np.ndarray:
        m = self.u0_nodes > 0.0
        m.setflags(write=False)
        return m

    @cached_property
    def support_tables(self) -> SupportTables:
        mask = self.support_mask
        lo, hi = int(mask.argmax()), mask.size - int(mask[::-1].argmax())
        support = slice(lo, hi) if mask[lo:hi].all() else np.flatnonzero(mask)
        b_s = self.b_nodes[support]
        d_s = self.d_nodes[support]
        log_u0_s = np.log(self.u0_nodes[support])
        d_lo, d_hi = float(d_s.min()), float(d_s.max())
        log_u0_hi = float(log_u0_s.max())
        log_u0 = log_u0_s if float(log_u0_s.min()) != log_u0_hi else log_u0_hi or None
        return SupportTables(
            n_nodes=self.grid.n_nodes,
            support=support,
            b_s=b_s,
            w_s=self.weights[support],
            d=d_lo if d_lo == d_hi else d_s,
            log_u0=log_u0,
            b_lo=float(b_s.min()),
            b_hi=float(b_s.max()),
            d_lo=d_lo,
            d_hi=d_hi,
            log_u0_hi=log_u0_hi,
        )

    @cached_property
    def ratio(self) -> np.ndarray:
        """b/d on every node."""
        v = self.b_nodes / self.d_nodes
        v.setflags(write=False)
        return v

    @cached_property
    def maximizers(self) -> np.ndarray:
        """The support nodes where b/d is largest, in increasing x (x_bar first)."""
        on_support = np.where(self.support_mask, self.ratio, -np.inf)
        m = np.flatnonzero(on_support == on_support.max())
        m.setflags(write=False)
        return m

    @cached_property
    def d_on_grid(self) -> float | np.ndarray:
        """d on every node, as a float when constant (a scalar gives the same IEEE results)."""
        d = self.d_nodes
        return float(d[0]) if d.min() == d.max() else d

    @cached_property
    def tail_nodes(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The indices of the nodes |x| >= tail_R and their weights, or None without a radius."""
        if self.tail_R is None:
            return None
        idx = np.flatnonzero(np.abs(self.grid.nodes) >= self.tail_R)
        w = self.weights[idx]
        for v in (idx, w):
            v.setflags(write=False)
        return idx, w

    @cached_property
    def concentration_window(self) -> slice:
        """The nodes within :attr:`concentration_epsilon` of x_bar, the first maximizer of b/d."""
        x_bar = float(self.grid.nodes[self.maximizers[0]])
        return self.grid.window(x_bar, self.concentration_epsilon)

    @property
    def concentration_epsilon(self) -> float:
        """Window for the Dirac-mass diagnostic; defaults to 5 grid cells."""
        return self.epsilon if self.epsilon is not None else 5.0 * self.grid.dx

    def with_controls(self, **changes) -> "Scenario":
        """A copy with some of the :data:`RUN_CONTROLS` changed.

        No cached value reads a run control, so the copy shares every value
        the original has cached (by identity) instead of building it again.
        """
        if not changes.keys() <= set(RUN_CONTROLS):
            raise ValueError(f"with_controls changes only {RUN_CONTROLS}, got {sorted(changes)}")
        new = replace(self, **changes)
        new.__dict__.update((k, v) for k, v in self.__dict__.items() if k not in changes)
        return new

    @cached_property
    def rho0(self) -> float:
        """The initial mass, once b, d, c0 and u0 pass :meth:`validate`'s grid checks.

        A failing check raises ``ValueError`` and caches nothing, so every
        call fails with the same message.
        """
        for key, values in (("b", self.b_nodes), ("d", self.d_nodes)):
            lo, hi = float(values.min()), float(values.max())  # NaN if any node is NaN
            if not (lo > 0.0 and hi < math.inf):
                raise ValueError(
                    f"{key} must be positive and finite on the grid, range [{lo}, {hi}]"
                )
        b_M, d_m = float(self.b_nodes.max()), float(self.d_nodes.min())
        kappa_M = b_M / d_m  # the largest kappa
        if not kappa_M < math.inf:
            raise ValueError(f"b and d must keep b_M / d_m finite, got {b_M} / {d_m}")
        if self.c0 and not 4.0 * self.c0 * kappa_M < math.inf:  # as equilibrium_mass forms it
            raise ValueError(f"c0 must keep 4 c0 b_M / d_m finite, got {self.c0}")
        u = self.u0_nodes
        if not np.all(np.isfinite(u)):
            raise ValueError("u0 must be finite on the grid")
        if np.any(u < 0.0):
            raise ValueError("u0 must be nonnegative on the grid")
        with np.errstate(over="ignore"):  # a sum past double range reads inf or NaN
            mass = quadrature(u, self.grid)
        if not mass < math.inf:
            raise ValueError("u0's initial mass overflows double range")
        if not (mass > 0.0):
            raise ValueError("u0 has zero initial mass (empty support)")
        return mass

    def validate(self) -> "Scenario":
        if not (0.0 <= self.c0 < math.inf):
            raise ValueError(f"c0 must be finite and >= 0, got {self.c0}")
        if not (0.0 <= self.t_end < math.inf):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if not (0.0 < self.dt < math.inf and self.t_end / self.dt <= MAX_STEPS):
            raise ValueError(
                f"dt must be finite and > 0 with t_end / dt <= {MAX_STEPS:.0e}, got {self.dt}"
            )
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{self.scheme}', expected one of {SCHEMES}")
        if self.stop_tol is not None and not (0.0 < self.stop_tol < math.inf):
            raise ValueError(f"stop_tol must be finite and > 0, got {self.stop_tol}")
        if self.epsilon is not None and not (0.0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.tail_R is not None and not math.isfinite(self.tail_R):
            raise ValueError(f"tail_R must be finite, got {self.tail_R}")
        for tau in self.snapshot_times:
            if not (0.0 <= tau <= self.t_end):
                raise ValueError(f"snapshot_times must lie in [0, t_end = {self.t_end}], got {tau}")
        times = sorted(set(self.snapshot_times))
        if len({SNAPSHOT_NAME.format(tau) for tau in times}) < len(times):  # one file per time
            raise ValueError(f"snapshot_times must differ in 6 significant digits, got {times}")
        self.rho0  # the grid checks: run once per scenario, shared by with_controls copies
        return self


def scenario_items(scenario: Scenario) -> list[tuple[str, object]]:
    """(name, value) for every field of a scenario, in declaration order.

    The grid is flattened into its own fields and each expression is given
    by its source text; run summaries and the fingerprint share this list.
    """
    items: list[tuple[str, object]] = []
    for f in fields(scenario):
        value = getattr(scenario, f.name)
        if isinstance(value, Grid):
            items += [(g.name, getattr(value, g.name)) for g in fields(value)]
        else:
            items.append((f.name, value.source if isinstance(value, TraitFunction) else value))
    return items


class EquilibriumPrediction(NamedTuple):
    """Closed-form limit prediction plus the certified corridor constants.

    ``x_bar`` maximizes b/d over the support nodes, ``rho_bar`` solves
    rho * (1 + c0 * rho) = kappa with kappa = b(x_bar) / d(x_bar), and
    [rho_m, rho_M] traps rho(t) for all time.  ``alpha_R`` is the tail
    certificate (negative certifies the tail assumption on the grid) or
    None without a radius or when no nodes lie beyond it.
    """

    x_bar: float
    x_bar_index: int
    rho_bar: float
    kappa: float
    b_m: float
    b_M: float
    d_m: float
    d_M: float
    r_m: float
    r_M: float
    rho_m: float
    rho_M: float
    x_bar_on_boundary: bool
    alpha_R: float | None = None
    notes: tuple[str, ...] = ()


def positive_root(kappa: float) -> float:
    """The nonnegative solution of rho * (1 + rho) = kappa: the reference crowding c0 = 1."""
    return equilibrium_mass(kappa, 1.0)


def equilibrium_mass(kappa: float, c0: float) -> float:
    """Nonnegative solution of rho * (1 + c0 * rho) = kappa for general c0 >= 0.

    With c0 = 0 the crowding is linear and the root is kappa itself.  Exact
    to a few ulps, with no cancellation or overflow while 4 c0 kappa is finite,
    so the defining identity is reproduced within 1e-12 relative.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if c0 < 0.0:
        raise ValueError(f"c0 must be >= 0, got {c0}")
    if c0 == 0.0:
        return kappa
    q = 4.0 * c0 * kappa
    if q >= 1.0 and 2.0 * c0 < math.inf:  # else the other form avoids cancellation and inf / inf
        return (math.sqrt(1.0 + q) - 1.0) / (2.0 * c0)
    return 2.0 * kappa / (1.0 + math.sqrt(1.0 + q))


def fitness_on_nodes(rho: float, scenario: Scenario) -> np.ndarray:
    """The per-capita growth rate G(x_i, rho) on every grid node; decreasing in rho."""
    g = scenario.b_nodes / (1.0 + scenario.c0 * rho)
    g -= scenario.d_nodes * rho
    return g


def quadrature(values: np.ndarray, grid: Grid) -> float:
    """Trapezoid rule over the grid nodes; exact for node-wise linear data.

    This is rho0's rule, kept apart from :attr:`Scenario.weights` because its
    ``dx*(sum - ends/2)`` rounds differently (1-3 ulps) and record 0 prints it.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} node values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("quadrature input contains non-finite values")
    if np.any(v < 0.0):
        raise ValueError("quadrature input contains negative values")
    return grid.dx * (float(v.sum()) - 0.5 * (float(v[0]) + float(v[-1])))


def predict_equilibrium(scenario: Scenario) -> EquilibriumPrediction:
    """Predict (x_bar, rho_bar), the corridor and the tail certificate from the scenario alone.

    Each value is computed once and the prediction is built once.  The argmax
    of b/d is taken over the support nodes, the lattice the solver evolves (no
    mass ever reaches a node outside it), with ties broken toward the smallest
    x.  The corridor [rho_m, rho_M] = [min(r_m, rho0), max(r_M, rho0)] traps
    rho(t) for all time, and ``alpha_R`` is :func:`check_tail_condition` at rho_bar.
    The theory assumes a unique maximizer and a decaying tail, so a tie and a
    failing certificate each add a note, warned in that order as an
    :class:`AssumptionWarning`.
    """
    rho0 = scenario.validate().rho0  # positive: validate rejects an empty support
    maximizers = scenario.maximizers
    x_bar_index = int(maximizers[0])
    x_bar = float(scenario.grid.nodes[x_bar_index])
    kappa = float(scenario.ratio[x_bar_index])
    rho_bar = equilibrium_mass(kappa, scenario.c0)
    b_m, b_M = float(scenario.b_nodes.min()), float(scenario.b_nodes.max())
    d_m, d_M = float(scenario.d_nodes.min()), float(scenario.d_nodes.max())
    r_m = equilibrium_mass(b_m / d_M, scenario.c0)
    r_M = equilibrium_mass(b_M / d_m, scenario.c0)
    rho_m, rho_M = min(r_m, rho0), max(r_M, rho0)
    # boundary means endpoint of a maximal run of the support: a grid
    # edge or a neighbour outside it
    i, support = x_bar_index, scenario.support_mask
    on_boundary = i in (0, scenario.grid.n_cells) or not (support[i - 1] and support[i + 1])
    alpha_R = check_tail_condition(scenario, rho_bar)
    notes: list[str] = []
    if maximizers.size > 1:
        notes.append(
            f"b/d attains its maximum at {maximizers.size} support nodes; "
            f"taking the smallest x = {x_bar!r} (unique-maximizer assumption violated)"
        )
    if alpha_R is not None and alpha_R >= 0.0:
        notes.append(
            f"tail certificate failed: alpha_R = {alpha_R!r} >= 0 at R = "
            f"{scenario.tail_R!r} (mass may escape to |x| >= R)"
        )
    for note in notes:
        warnings.warn(note, AssumptionWarning, stacklevel=2)
    return EquilibriumPrediction(x_bar, x_bar_index, rho_bar, kappa, b_m, b_M, d_m, d_M, r_m, r_M,
                                 rho_m, rho_M, on_boundary, alpha_R, tuple(notes))


def check_tail_condition(scenario: Scenario, rho_bar: float) -> float | None:
    """Tail certificate alpha_R = max of G(x, rho_bar) over the :attr:`Scenario.tail_nodes`.

    Returns None without a radius or when no grid nodes lie at |x| >= tail_R
    (the condition is vacuous for supports inside the radius), so
    :func:`predict_equilibrium` calls it on every scenario; a negative value
    certifies that mass beyond R decays once rho is near its limit.
    """
    tail = scenario.tail_nodes
    if tail is None or not tail[0].size:
        return None
    return float(fitness_on_nodes(rho_bar, scenario)[tail[0]].max())
