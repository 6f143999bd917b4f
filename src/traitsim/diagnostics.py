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

Every integral takes the solver's node weights, ``Scenario.weights``, so the discrete
dV/dt = D identity mirrors the continuous one up to time-stepping error; only rho0 and
the blow-up report's per-cell mass sum their own trapezoids.  One exp(log_u) per record.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .model import Scenario

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
    "corridor_breaches",
    "evaluate_invariants",
]

#: log-density above which integrands are computed under a max shift
_RESCALE_THRESHOLD = 700.0

#: verification tolerances, pinned to the acceptance criteria (CORRIDOR_TOL: the corridor's slack)
CORRIDOR_TOL = 1e-6
LYAPUNOV_SLACK = 1e-8
RESIDUAL_DECAY_FACTOR = 1e-2
RHO_LIMIT_TOL_INTERIOR = 1e-3
RHO_LIMIT_TOL_BOUNDARY = 1e-2
CONCENTRATION_INTERIOR = 0.99
CONCENTRATION_BOUNDARY = 0.95


class DiagnosticsRecord(NamedTuple):
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
def make_record(state: "PopulationState", scenario: Scenario) -> DiagnosticsRecord:
    """Assemble the full diagnostics row for one sampled state from one density."""
    u, shift, mode, max_log_u = _density(state)
    rho, c0, d, tail = state.rho, scenario.c0, scenario.d_on_grid, scenario.tail_nodes
    dot, window, ratio = scenario.weights.dot, scenario.concentration_window, scenario.ratio
    work = np.subtract(ratio, crowding_P(rho, c0))
    work *= u
    V = float(dot(work))
    np.divide(scenario.b_nodes, 1.0 + c0 * rho, out=work)  # G(x, rho), as fitness_on_nodes does
    work -= d * rho
    work *= work
    if not (isinstance(d, float) and d == 1.0):  # x / 1.0 is x for every double
        work /= d
    work *= u
    D = (1.0 + c0 * rho) * float(dot(work))
    np.subtract(ratio, crowding_Q(rho, c0), out=work)
    work *= work
    work *= u
    W = float(dot(work))
    total = float(dot(u))
    near = float(scenario.weights[window].dot(u[window])) / total if total > 0.0 else 0.0
    tail_mass = 0.0 if tail is None else float(tail[1].dot(u[tail[0]]))  # empty: 0.0
    if shift:
        V, D, W, tail_mass = (_unscale(x, shift) for x in (V, D, W, tail_mass))
    # every field, in order: positional arguments are the cheaper call
    return DiagnosticsRecord(state.t, rho, V, D, W, max_log_u, scenario.grid.nodes.item(mode),
                             near, tail_mass, state.undershoot_clamps)


def least_squares_slope(xs, ys) -> float:
    """The least-squares slope of ys against xs, in closed form with no LAPACK call."""
    xs = np.asarray(xs, dtype=float)
    xs = xs - xs.mean()
    ys = np.asarray(ys, dtype=float)
    return float(xs.dot(ys - ys.mean())) / float(xs.dot(xs))


@np.errstate(under="ignore")
def blow_up_report(trajectory: "Trajectory") -> BlowUpReport:
    """Growth statistics over the second half of a run.

    ``monotone_growth`` is True when max_log_u never decreases over the post-transient
    window (t >= t_end/2), ``growth_rate_estimate`` is the least-squares slope of max_log_u
    against t there, and ``boundary_cell_mass`` is the final-time mass in the cells adjacent
    to the predicted x_bar, summed per cell: node weights cannot say which cells touch x_bar
    when a neighbour is a domain end.  Log-density is used throughout so the detector
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
    mass = 0.0
    if i > 0:
        mass += 0.5 * dx * (u[i - 1] + u[i])
    if i < scenario.grid.n_nodes - 1:
        mass += 0.5 * dx * (u[i] + u[i + 1])
    mass = _unscale(mass, shift)
    return BlowUpReport(monotone, slope, mass)


def corridor_breaches(trajectory: "Trajectory") -> list[str]:
    """One line per record whose rho lies outside the a priori corridor, with CORRIDOR_TOL slack."""
    pred = trajectory.prediction
    lo, hi = pred.rho_m - CORRIDOR_TOL, pred.rho_M + CORRIDOR_TOL
    return [f"corridor breach at t = {r.t:.6g}: rho = {r.rho!r} "
            f"outside [{pred.rho_m!r}, {pred.rho_M!r}]"
            for r in trajectory.records if not (lo <= r.rho <= hi)]


def evaluate_invariants(
    trajectory: "Trajectory", breaches: list[str] | None = None
) -> list[tuple[str, bool | None, str]]:
    """Check every theory invariant on a finished run.

    Returns (name, ok, detail) triples; ok None means not applicable.
    Tolerances match the acceptance criteria exactly.  ``breaches`` is the
    run's :func:`corridor_breaches`, for a caller that already holds them.
    """
    if breaches is None:
        breaches = corridor_breaches(trajectory)
    pred = trajectory.prediction
    records = trajectory.records
    rhos = np.array([r.rho for r in records])
    Vs = np.array([r.V for r in records])
    Ds = np.array([r.D for r in records])
    checks: list[tuple[str, bool | None, str]] = []

    checks.append(
        (
            "corridor",
            not breaches,
            f"rho in [{rhos.min():.9g}, {rhos.max():.9g}], "
            f"allowed [{pred.rho_m:.9g} - {CORRIDOR_TOL:g}, {pred.rho_M:.9g} + {CORRIDOR_TOL:g}]",
        )
    )

    if not np.isfinite(Vs).all():
        checks.append(("lyapunov_monotone", False, f"V in [{Vs.min()}, {Vs.max()}]: not finite"))
    else:
        drops = Vs[1:] - (Vs[:-1] - LYAPUNOV_SLACK * (1.0 + np.abs(Vs[:-1])))
        ok = bool(np.all(drops >= 0.0))
        worst = float(drops.min()) if drops.size else 0.0
        checks.append(
            ("lyapunov_monotone", ok, f"worst tolerated increment {worst:.3e} (>= 0 required)")
        )

    if not np.isfinite(Ds).all():
        checks.append(("dissipation_nonneg", False, f"D in [{Ds.min()}, {Ds.max()}]: not finite"))
    else:
        checks.append(("dissipation_nonneg", bool(np.all(Ds >= 0.0)), f"min D = {Ds.min():.3e}"))

    W0, WT = records[0].W, records[-1].W
    if not (math.isfinite(W0) and math.isfinite(WT)):
        checks.append(("residual_decay", False, f"W(0) = {W0!r}, W(T) = {WT!r}: not finite"))
    elif W0 <= 1e-300:
        checks.append(("residual_decay", True, "W(0) = 0: already concentrated"))
    else:
        ok = WT <= RESIDUAL_DECAY_FACTOR * W0
        checks.append(
            (
                "residual_decay",
                ok,
                f"W(T)/W(0) = {WT / W0:.3e} (<= {RESIDUAL_DECAY_FACTOR:g} required)",
            )
        )

    tol = RHO_LIMIT_TOL_BOUNDARY if pred.x_bar_on_boundary else RHO_LIMIT_TOL_INTERIOR
    err = abs(records[-1].rho - pred.rho_bar)
    checks.append(
        (
            "rho_limit",
            err < tol,
            f"|rho(T) - rho_bar| = {err:.3e} (< {tol:g} required, "
            f"{'boundary' if pred.x_bar_on_boundary else 'interior'} maximizer)",
        )
    )

    if trajectory.scenario.scheme == "exponential" and trajectory.final_state is not None:
        initial = trajectory.scenario.support_mask
        final = trajectory.final_state.log_u > -np.inf
        ok = bool(np.array_equal(initial, final))
        checks.append(
            (
                "support_conserved",
                ok,
                f"{int(initial.sum())} initial vs {int(final.sum())} final positive nodes",
            )
        )
    else:
        checks.append(
            ("support_conserved", None, "exact only for the exponential scheme; skipped")
        )

    thr = CONCENTRATION_BOUNDARY if pred.x_bar_on_boundary else CONCENTRATION_INTERIOR
    final = records[-1]
    mode_ok = final.x_mode == pred.x_bar
    mass_ok = final.mass_near_xbar >= thr
    checks.append(
        (
            "concentration",
            bool(mode_ok and mass_ok),
            f"mass within epsilon of x_bar = {final.mass_near_xbar:.6f} (>= {thr:g}), "
            f"mode at {final.x_mode!r} vs predicted {pred.x_bar!r}",
        )
    )
    return checks
