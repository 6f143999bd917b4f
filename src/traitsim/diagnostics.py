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

from .model import EquilibriumPrediction, RecordTables, Scenario

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


#: the one error-state scope of each record and of D and W: dying tails flush
#: to zero, and G^2 and the squared deviation saturate to inf past double range
_QUIET = np.errstate(under="ignore", over="ignore")
#: the scope of the other entry points: only the dying tails of exp(log_u)
_UNDER = np.errstate(under="ignore")


def _window(scenario: Scenario, t: RecordTables, x_bar: float, eps: float | None = None) -> slice:
    """The nodes within eps (default: the scenario's window) of x_bar, as a slice.

    The default window around the scenario's own x_bar is read from its
    record tables; any other one is computed and not kept.
    """
    if eps is None:
        if x_bar == t.x_bar:
            return t.window
        eps = scenario.concentration_epsilon
    return scenario.grid.window(x_bar, eps)


def _density(state: "PopulationState") -> tuple[np.ndarray, float, int]:
    """(exp(log_u - shift), shift, argmax of log_u); the shift is nonzero only
    where exp(log_u) could overflow, so blow-up integrals stay finite."""
    mode = int(state.log_u.argmax())
    m = float(state.log_u[mode])
    if m > _RESCALE_THRESHOLD:
        u = state.log_u - m
        return np.exp(u, out=u), m, mode
    return np.exp(state.log_u), 0.0, mode


def _unscale(raw: float, shift: float) -> float:
    """Undo the max shift, saturating to +-inf past double range."""
    if not shift or raw == 0.0:
        return raw
    try:
        return raw * math.exp(shift)
    except OverflowError:
        return math.copysign(math.inf, raw)


# The integrands below overwrite ``work``, one array the size of the grid.

def _V(u: np.ndarray, shift: float, rho: float, t: RecordTables, work: np.ndarray) -> float:
    np.subtract(t.ratio, crowding_P(rho, t.c0), out=work)
    work *= u
    return _unscale(float(t.w.dot(work)), shift)


def _D(u: np.ndarray, shift: float, rho: float, t: RecordTables, work: np.ndarray) -> float:
    np.divide(t.b, 1.0 + t.c0 * rho, out=work)  # G(x, rho), as fitness_on_nodes computes it
    work -= t.d * rho
    work *= work
    work /= t.d
    work *= u
    return _unscale((1.0 + t.c0 * rho) * float(t.w.dot(work)), shift)


def _W(u: np.ndarray, shift: float, rho: float, t: RecordTables, work: np.ndarray) -> float:
    np.subtract(t.ratio, crowding_Q(rho, t.c0), out=work)
    work *= work
    work *= u
    return _unscale(float(t.w.dot(work)), shift)


def _integral(functional, state: "PopulationState", scenario: Scenario) -> float:
    u, shift, _ = _density(state)
    return functional(u, shift, state.rho, scenario.record_tables, np.empty(u.size))


@_UNDER
def compute_V(state: "PopulationState", scenario: Scenario) -> float:
    """Lyapunov functional V = integral (b/d - P(rho)) u dx."""
    return _integral(_V, state, scenario)


@_QUIET
def compute_D(state: "PopulationState", scenario: Scenario) -> float:
    """Dissipation D = integral (1 + c0*rho)/d * G^2 u dx; nonnegative by construction."""
    return _integral(_D, state, scenario)


@_QUIET
def compute_W(state: "PopulationState", scenario: Scenario) -> float:
    """Selection residual W = integral (b/d - Q(rho))^2 u dx."""
    return _integral(_W, state, scenario)


@_UNDER
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
    t = scenario.record_tables
    window = _window(scenario, t, pred.x_bar, epsilon)
    u, _, mode = _density(state)
    return ConcentrationReport(
        _window_fraction(u, t, window), float(t.nodes[mode]), float(state.log_u[mode])
    )


def _window_fraction(u: np.ndarray, t: RecordTables, window: slice) -> float:
    total = float(t.w.dot(u))
    return float(t.w[window].dot(u[window])) / total if total > 0.0 else 0.0


def _tail_mass(u: np.ndarray, shift: float, t: RecordTables) -> float:
    if t.tail is None:
        return 0.0
    return _unscale(float(t.w_tail.dot(u[t.tail])), shift)  # an empty tail sums to 0.0


@_QUIET
def make_record(
    state: "PopulationState", scenario: Scenario, pred: EquilibriumPrediction
) -> DiagnosticsRecord:
    """Assemble the full diagnostics row for one sampled state from one density."""
    t = scenario.record_tables
    window = _window(scenario, t, pred.x_bar)
    u, shift, mode = _density(state)
    rho, work = state.rho, np.empty(u.size)
    return DiagnosticsRecord(
        t=state.t,
        rho=rho,
        V=_V(u, shift, rho, t, work),
        D=_D(u, shift, rho, t, work),
        W=_W(u, shift, rho, t, work),
        max_log_u=float(state.log_u[mode]),
        x_mode=float(t.nodes[mode]),
        mass_near_xbar=_window_fraction(u, t, window),
        tail_mass=_tail_mass(u, shift, t),
        undershoot_clamps=state.undershoot_clamps,
    )


@_UNDER
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
    ts -= ts.mean()  # least squares in closed form, with no LAPACK call
    slope = float(ts.dot(logs - logs.mean())) / float(ts.dot(ts)) / t_final

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
