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

from .model import EquilibriumPrediction, Scenario

if TYPE_CHECKING:  # runtime import would be circular; only types are needed
    from .integrator import PopulationState, Trajectory

__all__ = [
    "DiagnosticsRecord",
    "BlowUpReport",
    "crowding_P",
    "crowding_Q",
    "least_squares_slope",
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
    nodes |x| >= R (0 when no tail radius is configured).
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


def _density(state: "PopulationState") -> tuple[np.ndarray, float, int, float]:
    """(exp(log_u - shift), shift, argmax of log_u, max of log_u); the shift is
    nonzero only where exp(log_u) could overflow, so blow-up integrals stay finite."""
    mode = int(state.log_u.argmax())
    m = state.log_u.item(mode)
    if m > _RESCALE_THRESHOLD:
        u = state.log_u - m
        return np.exp(u, out=u), m, mode, m
    return np.exp(state.log_u), 0.0, mode, m


def _unscale(raw: float, shift: float) -> float:
    """Undo the max shift, saturating to +-inf past double range."""
    if not shift or raw == 0.0:
        return raw
    try:
        return raw * math.exp(shift)
    except OverflowError:
        return math.copysign(math.inf, raw)


@np.errstate(under="ignore", over="ignore")  # dying tails flush to 0; G^2 may saturate
def make_record(
    state: "PopulationState", scenario: Scenario, pred: EquilibriumPrediction
) -> DiagnosticsRecord:
    """Assemble the full diagnostics row for one sampled state from one density."""
    t = scenario.record_tables
    window = t.window if pred.x_bar == t.x_bar else scenario.grid.window(
        pred.x_bar, scenario.concentration_epsilon
    )
    u, shift, mode, max_log_u = _density(state)
    rho, c0, d, dot = state.rho, t.c0, t.d, t.w.dot
    work = np.subtract(t.ratio, crowding_P(rho, c0))
    work *= u
    V = float(dot(work))
    np.divide(t.b, 1.0 + c0 * rho, out=work)  # G(x, rho), as fitness_on_nodes computes it
    work -= d * rho
    work *= work
    if not (isinstance(d, float) and d == 1.0):  # x / 1.0 is x for every double
        work /= d
    work *= u
    D = (1.0 + c0 * rho) * float(dot(work))
    np.subtract(t.ratio, crowding_Q(rho, c0), out=work)
    work *= work
    work *= u
    W = float(dot(work))
    total = float(dot(u))
    near = float(t.w[window].dot(u[window])) / total if total > 0.0 else 0.0
    tail = 0.0 if t.tail is None else float(t.w_tail.dot(u[t.tail]))  # an empty tail sums to 0.0
    if shift:
        V, D, W, tail = (_unscale(x, shift) for x in (V, D, W, tail))
    record = object.__new__(DiagnosticsRecord)  # skips the frozen __init__; every field, in order
    record.__dict__.update(
        t=state.t, rho=rho, V=V, D=D, W=W, max_log_u=max_log_u, x_mode=t.nodes.item(mode),
        mass_near_xbar=near, tail_mass=tail, undershoot_clamps=state.undershoot_clamps,
    )
    return record


def least_squares_slope(xs, ys) -> float:
    """The least-squares slope of ys against xs, in closed form with no LAPACK call."""
    xs = np.asarray(xs, dtype=float)
    xs = xs - xs.mean()
    ys = np.asarray(ys, dtype=float)
    return float(xs.dot(ys - ys.mean())) / float(xs.dot(xs))


@np.errstate(under="ignore")
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
    logs = np.array([r.max_log_u for r in window])
    monotone = bool(np.all(np.diff(logs) >= 0.0))
    ts = np.array([r.t for r in window]) / t_final  # in [1/2, 1]: no square underflows
    slope = least_squares_slope(ts, logs) / t_final

    scenario = trajectory.scenario
    state = trajectory.final_state
    u, shift, _, _ = _density(state)
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
