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
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

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
    "trapezoid_weights",
    "predict_equilibrium",
    "apriori_corridor",
    "check_tail_condition",
]

SCHEMES = ("exponential", "direct")

#: the run controls: the only fields :meth:`Scenario.with_controls` changes
RUN_CONTROLS = ("t_end", "dt", "sample_every", "scheme", "stop_tol", "snapshot_times")

#: step budget: a dt giving more fixed steps than this to t_end is rejected
MAX_STEPS = 10**8

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

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only trapezoid weights, one array per grid shared by all users."""
        w = trapezoid_weights(self)
        w.setflags(write=False)
        return w

    def window(self, center: float, eps: float) -> slice:
        """The nodes within eps of center as a slice (1e-9 slack keeps nodes eps away in)."""
        if not (eps > 0.0):
            raise ValueError(f"epsilon must be > 0, got {eps}")
        dist, c = self.nodes - center, eps * (1.0 + 1e-9)
        return slice(int(dist.searchsorted(-c)), int(dist.searchsorted(c, "right")))


@dataclass(frozen=True)
class SupportTables:
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
class RecordTables:
    """What every diagnostics record of one scenario reads unchanged.

    ``d`` is a float when d is constant on the grid (a scalar gives the same
    IEEE results as an array of equal values), ``tail`` indexes the nodes
    |x| >= tail_R (None without a radius) and ``window`` is the default
    concentration window around ``x_bar``.  Read-only.
    """

    c0: float
    b: np.ndarray
    d: float | np.ndarray
    ratio: np.ndarray
    w: np.ndarray
    nodes: np.ndarray
    tail: np.ndarray | None
    w_tail: np.ndarray | None
    x_bar: float
    window: slice


@dataclass(frozen=True)
class Scenario:
    """Full problem description: domain, coefficients and integration controls.

    Construction is cheap and does not evaluate the expressions; call
    :meth:`validate` (entry points do) to certify the invariants: finite
    b > 0 and d > 0 at every node, finite nonnegative u0 with positive
    initial mass, every number finite and in range (snapshot times within
    [0, t_end], at most :data:`MAX_STEPS` steps) and a known scheme.

    Every value derived from the scenario (the sampled b, d and u0, the
    initial mass once the grid checks pass, b/d, its maximizers, the
    support and record tables) is built once, on first use, and cached
    read-only.  None of them reads a run control.
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
            w_s=self.grid.weights[support],
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
    def record_tables(self) -> RecordTables:
        d, nodes, w = self.d_nodes, self.grid.nodes, self.grid.weights
        tail = None if self.tail_R is None else np.flatnonzero(np.abs(nodes) >= self.tail_R)
        x_bar = float(nodes[self.maximizers[0]])
        return RecordTables(
            c0=self.c0,
            b=self.b_nodes,
            d=float(d[0]) if d.min() == d.max() else d,
            ratio=self.ratio,
            w=w,
            nodes=nodes,
            tail=tail,
            w_tail=None if tail is None else w[tail],
            x_bar=x_bar,
            window=self.grid.window(x_bar, self.concentration_epsilon),
        )

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
        mass = quadrature(u, self.grid)
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


@dataclass(frozen=True)
class EquilibriumPrediction:
    """Closed-form limit prediction plus the certified corridor constants.

    ``x_bar`` maximizes b/d over the support nodes, ``rho_bar`` solves
    rho * (1 + c0 * rho) = kappa with kappa = b(x_bar) / d(x_bar), and
    [rho_m, rho_M] traps rho(t) for all time.  ``alpha_R`` is the tail
    certificate (negative certifies the tail assumption on the grid) or
    None when no nodes lie beyond the requested radius.
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
    notes: tuple[str, ...] = field(default=(), compare=False)


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


def trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.n_nodes, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def quadrature(values: np.ndarray, grid: Grid) -> float:
    """Trapezoid rule over the grid nodes; exact for node-wise linear data."""
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} node values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("quadrature input contains non-finite values")
    if np.any(v < 0.0):
        raise ValueError("quadrature input contains negative values")
    return grid.dx * (float(v.sum()) - 0.5 * (float(v[0]) + float(v[-1])))


def predict_equilibrium(scenario: Scenario) -> EquilibriumPrediction:
    """Predict (x_bar, rho_bar) and the corridor from the scenario alone.

    The argmax of b/d is taken over the support nodes, the lattice the
    solver evolves (no mass ever reaches a node outside it).  Ties are broken
    toward the smallest x and reported with an :class:`AssumptionWarning`
    because the theory assumes a unique maximizer.
    """
    scenario.validate()  # the support is not empty
    grid = scenario.grid
    if not np.all(np.isfinite(scenario.ratio)):
        raise ValueError("b/d is not finite on the grid")
    maximizers = scenario.maximizers
    x_bar_index = int(maximizers[0])
    kappa = float(scenario.ratio[x_bar_index])
    x_bar = float(grid.nodes[x_bar_index])
    notes: list[str] = []
    if maximizers.size > 1:
        note = (
            f"b/d attains its maximum at {maximizers.size} support nodes; "
            f"taking the smallest x = {x_bar!r} (unique-maximizer assumption violated)"
        )
        notes.append(note)
        warnings.warn(note, AssumptionWarning, stacklevel=2)
    rho_bar = equilibrium_mass(kappa, scenario.c0)

    b_m, b_M = float(scenario.b_nodes.min()), float(scenario.b_nodes.max())
    d_m, d_M = float(scenario.d_nodes.min()), float(scenario.d_nodes.max())
    r_m = equilibrium_mass(b_m / d_M, scenario.c0)
    r_M = equilibrium_mass(b_M / d_m, scenario.c0)

    # boundary means endpoint of a maximal run of the support: a grid
    # edge or a neighbour outside it
    i, support = x_bar_index, scenario.support_mask
    on_boundary = i in (0, grid.n_cells) or not (support[i - 1] and support[i + 1])

    pred = EquilibriumPrediction(
        x_bar=x_bar,
        x_bar_index=x_bar_index,
        rho_bar=rho_bar,
        kappa=kappa,
        b_m=b_m,
        b_M=b_M,
        d_m=d_m,
        d_M=d_M,
        r_m=r_m,
        r_M=r_M,
        rho_m=r_m,  # widened by apriori_corridor below to take in rho(0)
        rho_M=r_M,
        x_bar_on_boundary=on_boundary,
        alpha_R=None,
        notes=tuple(notes),
    )
    rho_m, rho_M = apriori_corridor(pred, scenario.rho0)
    pred = replace(pred, rho_m=rho_m, rho_M=rho_M)
    if scenario.tail_R is not None:
        alpha = check_tail_condition(scenario, pred, scenario.tail_R)
        extra: list[str] = list(notes)
        if alpha is not None and alpha >= 0.0:
            note = (
                f"tail certificate failed: alpha_R = {alpha!r} >= 0 at R = "
                f"{scenario.tail_R!r} (mass may escape to |x| >= R)"
            )
            extra.append(note)
            warnings.warn(note, AssumptionWarning, stacklevel=2)
        pred = replace(pred, alpha_R=alpha, notes=tuple(extra))
    return pred


def apriori_corridor(pred: EquilibriumPrediction, rho0: float) -> tuple[float, float]:
    """The invariant interval [min(r_m, rho0), max(r_M, rho0)] trapping rho(t)."""
    if not (rho0 > 0.0):
        raise ValueError(f"rho(0) must be > 0, got {rho0}")
    return min(pred.r_m, rho0), max(pred.r_M, rho0)


def check_tail_condition(
    scenario: Scenario, pred: EquilibriumPrediction, R: float
) -> float | None:
    """Tail certificate alpha_R = max over nodes |x| >= R of G(x, rho_bar).

    Returns None when no grid nodes lie at |x| >= R (the condition is vacuous
    for supports inside the radius); a negative value certifies that mass
    beyond R decays once rho is near its limit.
    """
    nodes = scenario.grid.nodes
    tail = np.abs(nodes) >= R
    if not tail.any():
        return None
    g = fitness_on_nodes(pred.rho_bar, scenario)
    return float(g[tail].max())
