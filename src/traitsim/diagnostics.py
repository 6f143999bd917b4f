"""Runtime verification functionals for the selection dynamics.

The long-time theory rests on three integral quantities along a trajectory:

* ``V(t) = integral (b/d - P(rho)) u dx`` is a Lyapunov functional; it is
  nondecreasing in time because dV/dt equals
* ``D(t) = integral (1 + c0*rho)/d * G(x, rho)^2 u dx >= 0``, the
  dissipation, and
* ``W(t) = integral (b/d - Q(rho))^2 u dx`` is the selection residual; it
  vanishes exactly when all mass sits on traits where b/d equals
  rho * (1 + c0*rho), so W -> 0 is the concentration signal.

Here P and Q are the polynomials P(rho) = c0*rho^2/3 + rho/2 and
Q(rho) = c0*rho^2 + rho, linked by rho*P' + P = Q (:func:`crowding_P`,
:func:`crowding_Q`; the reference case is c0 = 1).

All integrals reuse the solver's trapezoid rule so the discrete dV/dt = D
identity mirrors the continuous one up to time-stepping error; mixing
quadratures would break it beyond that.  Each record takes one exp(log_u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .model import EquilibriumPrediction, Scenario, fitness_on_nodes

if TYPE_CHECKING:  # runtime import would be circular; only types are needed
    from .integrator import PopulationState, Trajectory

__all__ = [
    "DiagnosticsRecord",
    "ConcentrationReport",
    "BlowUpReport",
    "crowding_P",
    "crowding_Q",
    "compute_V",
    "compute_D",
    "compute_W",
    "concentration_report",
    "blow_up_report",
    "make_record",
]

#: log-density above which integrands are computed under a max shift
_RESCALE_THRESHOLD = 700.0


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampled row of a trajectory.

    ``mass_near_xbar`` is the fraction of rho within the concentration
    window of the predicted x_bar; ``tail_mass`` is the absolute mass at
    nodes |x| >= R (0 when no tail radius is configured).  ``rescaled``
    flags rows whose integrals were evaluated under a max shift because
    exp(log_u) would overflow; it is diagnostic only and not serialized.
    """

    t: float
    rho: float
    V: float
    D: float
    W: float
    max_log_u: float
    x_mode: float
    mass_near_xbar: float
    tail_mass: float
    undershoot_clamps: int
    rescaled: bool = False


class ConcentrationReport(NamedTuple):
    mass_near_xbar: float
    x_mode: float
    max_log_u: float


class BlowUpReport(NamedTuple):
    monotone_growth: bool
    growth_rate_estimate: float
    boundary_cell_mass: float


def crowding_P(rho: float, c0: float) -> float:
    """P(rho) = c0*rho^2/3 + rho/2; satisfies rho*P'(rho) + P(rho) = Q(rho)."""
    return c0 * rho * rho / 3.0 + 0.5 * rho


def crowding_Q(rho: float, c0: float) -> float:
    """Q for general c0; rho*(1 + c0*rho), the fitness zero locus in b/d."""
    return c0 * rho * rho + rho


@np.errstate(under="ignore")  # as a decorator it costs half of a with block
def _density(state: "PopulationState") -> tuple[np.ndarray, float, int]:
    """(exp(log_u - shift), shift, argmax of log_u); the shift is nonzero only
    where exp(log_u) could overflow, so blow-up integrals stay finite."""
    mode = int(state.log_u.argmax())
    m = float(state.log_u[mode])
    shift = m if m > _RESCALE_THRESHOLD else 0.0
    return np.exp(state.log_u - shift if shift else state.log_u), shift, mode


def _unscale(raw: float, shift: float) -> float:
    """Undo the max shift, saturating to +-inf past double range."""
    if not shift or raw == 0.0:
        return raw
    try:
        return raw * math.exp(shift)
    except OverflowError:
        return math.copysign(math.inf, raw)


def _V(u: np.ndarray, shift: float, rho: float, scenario: Scenario, ratio: np.ndarray) -> float:
    v = ratio - crowding_P(rho, scenario.c0)
    v *= u
    return _unscale(float(scenario.grid.weights.dot(v)), shift)


@np.errstate(over="ignore")  # G^2 past double range saturates to inf
def _D(u: np.ndarray, shift: float, rho: float, scenario: Scenario) -> float:
    g = fitness_on_nodes(rho, scenario)
    g *= g
    g /= scenario.d_nodes
    g *= u
    return _unscale((1.0 + scenario.c0 * rho) * float(scenario.grid.weights.dot(g)), shift)


@np.errstate(over="ignore")  # the squared deviation saturates to inf
def _W(u: np.ndarray, shift: float, rho: float, scenario: Scenario, ratio: np.ndarray) -> float:
    dev = ratio - crowding_Q(rho, scenario.c0)
    dev *= dev
    dev *= u
    return _unscale(float(scenario.grid.weights.dot(dev)), shift)


def compute_V(state: "PopulationState", scenario: Scenario) -> float:
    """Lyapunov functional V = integral (b/d - P(rho)) u dx."""
    u, shift, _ = _density(state)
    return _V(u, shift, state.rho, scenario, scenario.b_nodes / scenario.d_nodes)


def compute_D(state: "PopulationState", scenario: Scenario) -> float:
    """Dissipation D = integral (1 + c0*rho)/d * G^2 u dx; nonnegative by construction."""
    u, shift, _ = _density(state)
    return _D(u, shift, state.rho, scenario)


def compute_W(state: "PopulationState", scenario: Scenario) -> float:
    """Selection residual W = integral (b/d - Q(rho))^2 u dx."""
    u, shift, _ = _density(state)
    return _W(u, shift, state.rho, scenario, scenario.b_nodes / scenario.d_nodes)


def concentration_report(
    state: "PopulationState",
    scenario: Scenario,
    pred: EquilibriumPrediction,
    epsilon: float | None = None,
) -> ConcentrationReport:
    """Mass fraction within epsilon of x_bar, the mode node and max log-density.

    ``epsilon`` defaults to the scenario's concentration window (5 cells).
    The fraction is shift invariant, so it stays meaningful in blow-up runs.
    """
    u, _, mode = _density(state)
    x_mode, max_log_u = float(scenario.grid.nodes[mode]), float(state.log_u[mode])
    return ConcentrationReport(_window_fraction(u, scenario, pred, epsilon), x_mode, max_log_u)


def _window_fraction(
    u: np.ndarray, scenario: Scenario, pred: EquilibriumPrediction, epsilon: float | None
) -> float:
    eps = scenario.concentration_epsilon if epsilon is None else epsilon
    if not (eps > 0.0):
        raise ValueError(f"epsilon must be > 0, got {eps}")
    w = scenario.grid.weights
    total = float(w.dot(u))
    # sorted nodes: |x - x_bar| <= eps (1e-9 slack keeps nodes eps away in) is a slice
    d, c = scenario.grid.nodes - pred.x_bar, eps * (1.0 + 1e-9)
    lo, hi = d.searchsorted(-c), d.searchsorted(c, "right")
    return float(w[lo:hi].dot(u[lo:hi])) / total if total > 0.0 else 0.0


def _tail_mass(u: np.ndarray, shift: float, scenario: Scenario) -> float:
    if scenario.tail_R is None:
        return 0.0
    tail = np.abs(scenario.grid.nodes) >= scenario.tail_R  # may be empty: the sum is 0.0
    return _unscale(float(scenario.grid.weights[tail].dot(u[tail])), shift)


def make_record(
    state: "PopulationState", scenario: Scenario, pred: EquilibriumPrediction
) -> DiagnosticsRecord:
    """Assemble the full diagnostics row for one sampled state from one density."""
    u, shift, mode = _density(state)
    ratio = scenario.b_nodes / scenario.d_nodes
    return DiagnosticsRecord(
        t=state.t,
        rho=state.rho,
        V=_V(u, shift, state.rho, scenario, ratio),
        D=_D(u, shift, state.rho, scenario),
        W=_W(u, shift, state.rho, scenario, ratio),
        max_log_u=float(state.log_u[mode]),
        x_mode=float(scenario.grid.nodes[mode]),
        mass_near_xbar=_window_fraction(u, scenario, pred, None),
        tail_mass=_tail_mass(u, shift, scenario),
        undershoot_clamps=state.undershoot_clamps,
        rescaled=shift > 0.0,
    )


def blow_up_report(trajectory: "Trajectory") -> BlowUpReport:
    """Growth statistics over the second half of a run.

    ``monotone_growth`` is True when max_log_u never decreases over the
    post-transient window (t >= t_end/2), ``growth_rate_estimate`` is the
    least-squares slope of max_log_u against t there, and
    ``boundary_cell_mass`` is the final-time mass in the cells adjacent to
    the predicted x_bar.  Log-density is used throughout so the detector
    survives overflow of the raw density.
    """
    records = trajectory.records
    if not records or trajectory.final_state is None:
        raise ValueError("trajectory has no records")
    t_final = records[-1].t
    window = [r for r in records if r.t >= 0.5 * t_final]
    if len(window) < 10:
        raise ValueError(
            f"need at least 10 post-transient samples, got {len(window)}"
        )
    ts = np.array([r.t for r in window])
    logs = np.array([r.max_log_u for r in window])
    monotone = bool(np.all(np.diff(logs) >= 0.0))
    slope = float(np.polyfit(ts, logs, 1)[0])

    scenario = trajectory.scenario
    state = trajectory.final_state
    u, shift, _ = _density(state)
    i = trajectory.prediction.x_bar_index
    dx = scenario.grid.dx
    # trapezoid mass of the one or two cells touching x_bar
    mass = 0.0
    if i > 0:
        mass += 0.5 * dx * (u[i - 1] + u[i])
    if i < scenario.grid.n_nodes - 1:
        mass += 0.5 * dx * (u[i] + u[i + 1])
    mass = _unscale(mass, shift)
    return BlowUpReport(
        monotone_growth=monotone,
        growth_rate_estimate=slope,
        boundary_cell_mass=mass,
    )
