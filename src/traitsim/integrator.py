"""Time integration of the selection dynamics by two independent schemes.

The density obeys du/dt = G(x, rho) u with G(x, rho) =
b(x)/(1 + c0*rho) - d(x)*rho and rho the trapezoid mass of u.  Because the
right-hand side is multiplicative, the solution factorizes through two
cumulative exponents

    A(t) = integral_0^t 1/(1 + c0*rho(s)) ds,
    B(t) = integral_0^t rho(s) ds,
    u(x, t) = u0(x) * exp(b(x) * A(t) - d(x) * B(t)),

which collapses the dynamics to a 2-D ODE in (A, B).  The *exponential*
scheme integrates that ODE with classical RK4 (one mass quadrature per
stage) and reconstructs log u exactly from (A, B); positivity and the
support set are then exact by construction, and densities are stored in
log space so blow-up runs keep producing finite diagnostics long after
exp(log u) would overflow.

The *direct* scheme is an independent cross-check: method-of-lines RK4 on
the full per-node density vector, with the mass recomputed at every stage.
It knows nothing about the exponent reduction, so agreement between the
two schemes validates both.

Steps are pure functions from state to state; fixed dt keeps runs
reproducible (identical scenario and dt give bit-identical trajectories).
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .model import (
    EquilibriumPrediction,
    Scenario,
    SupportTables,
    fitness_on_nodes,
    predict_equilibrium,
    scenario_items,
)

__all__ = [
    "IntegrationError",
    "ExponentOverflow",
    "PopulationState",
    "DensitySnapshot",
    "Trajectory",
    "CORRIDOR_TOL",
    "STOP_WINDOW",
    "RK4_STABILITY",
    "init_state",
    "rho_from_exponents",
    "step_exponential",
    "step_direct",
    "run",
    "scenario_fingerprint",
]

#: slack used when flagging corridor breaches in sampled records
CORRIDOR_TOL = 1e-6

#: consecutive samples inside stop_tol required before stopping early
STOP_WINDOW = 100

#: classical RK4 is stable on the negative real axis for |h*lambda| up to this
RK4_STABILITY = 2.785

#: largest exponent exp() can represent in double precision
_LOG_MAX = math.log(np.finfo(float).max)

#: below this max log-density the mass is summed without shifting
_SAFE_EXP = 600.0


class IntegrationError(RuntimeError):
    """A step failed (overflow or NaN); ``partial`` holds the trajectory so far."""

    def __init__(self, message: str, partial: "Trajectory | None" = None):
        super().__init__(message)
        self.partial = partial


class ExponentOverflow(IntegrationError):
    """The total mass overflows double precision even after max shifting."""

    def __init__(self, message: str, exponent: float):
        super().__init__(message)
        self.exponent = exponent


@dataclass(frozen=True)
class PopulationState:
    """Solver state at time t.

    ``log_u`` holds per-node log densities with -inf marking empty cells;
    under the exponential scheme it equals log u0 + b*A - d*B on the
    support at every step, and nodes outside the initial support stay at
    -inf forever.  ``rho`` caches the trapezoid mass of exp(log_u).
    ``undershoot_clamps`` counts direct-scheme negative values clipped to
    zero (always 0 for the exponential scheme).
    """

    t: float
    A: float
    B: float
    log_u: np.ndarray
    rho: float
    undershoot_clamps: int = 0


@dataclass(frozen=True)
class DensitySnapshot:
    requested_t: float
    t: float
    log_u: np.ndarray


@dataclass
class Trajectory:
    """Result of :func:`run`: sampled diagnostics plus optional snapshots."""

    scenario: Scenario
    prediction: EquilibriumPrediction
    fingerprint: str
    records: list[diagnostics.DiagnosticsRecord]
    snapshots: list[DensitySnapshot] = field(default_factory=list)
    breaches: list[str] = field(default_factory=list)
    final_state: PopulationState | None = None
    early_stop_t: float | None = None


def scenario_fingerprint(scenario: Scenario) -> str:
    """Stable hex digest of everything that determines a trajectory."""
    parts = [
        f"{name}={value}" if isinstance(value, str) else f"{name}={value!r}"
        for name, value in scenario_items(scenario)
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def init_state(scenario: Scenario) -> PopulationState:
    """State at t = 0 with A = B = 0 and log_u taken from u0."""
    scenario.validate()
    with np.errstate(divide="ignore"):
        log_u = np.log(scenario.u0_nodes)
    log_u.setflags(write=False)
    return PopulationState(t=0.0, A=0.0, B=0.0, log_u=log_u, rho=scenario.initial_mass())


def _mass_at(t: SupportTables, A: float, B: float, e: np.ndarray) -> float:
    """Mass quadrature at exponents (A, B); the solver's innermost kernel.

    Plain summation while the largest density exponent is representable,
    max-shifted (log-sum-exp) otherwise; numpy's default error state already
    flushes underflow to zero, which is the wanted behavior for dying tails.
    Rounding is monotone, so no exponent exceeds the scalar bound computed
    from the table ranges in the same order; the exact max is taken only
    when that bound (or NaN) does not settle the branch.  ``ndarray.dot``
    makes the same BLAS call as ``@`` with less dispatch.  ``e`` is the
    caller's scratch array, one entry per support node, overwritten by
    every call.

    The scalar forms of ``t.d`` and ``t.log_u0`` give the bits of the arrays:
    a scalar d*B is the same IEEE product as each d_i*B, and skipping a zero
    log u0 only leaves -0.0 where adding it gives +0.0, and exp maps both to
    1.0 (NaN, +-inf and the shifted branch are unaffected).
    """
    np.multiply(t.b_s, A, out=e)
    e -= t.d * B
    if t.log_u0 is not None:
        e += t.log_u0
    bound = max(t.b_hi * A, t.b_lo * A) - min(t.d_lo * B, t.d_hi * B) + t.log_u0_hi
    if bound <= _SAFE_EXP or (m := float(e.max())) <= _SAFE_EXP:
        np.exp(e, out=e)
        return float(t.w_s.dot(e))
    e -= m
    np.exp(e, out=e)
    log_rho = m + math.log(float(t.w_s.dot(e)))
    if log_rho > _LOG_MAX:
        raise ExponentOverflow(
            f"total mass overflows: log rho = {log_rho:.6g} "
            f"(largest density exponent {m:.6g})",
            exponent=m,
        )
    return math.exp(log_rho)


def rho_from_exponents(A: float, B: float, scenario: Scenario) -> float:
    """Total mass of the closed-form density u0 * exp(b*A - d*B).

    Evaluated under a max shift (log-sum-exp) whenever exponentials could
    overflow; raises :class:`ExponentOverflow` only when the mass itself
    exceeds double range.
    """
    if not (math.isfinite(A) and math.isfinite(B)):
        raise ExponentOverflow(
            f"non-finite exponents A={A!r}, B={B!r}", exponent=math.inf
        )
    tables = scenario.support_tables
    return _mass_at(tables, A, B, np.empty(tables.b_s.size))


def _exponential_state(
    tables: SupportTables, t: float, A: float, B: float, rho: float, undershoot_clamps: int = 0
) -> PopulationState:
    """The exact state at exponents (A, B): log_u is rebuilt from the tables.

    log_u = log u0 + b*A - d*B, in that order, with the kernel's scalar
    forms of d and log u0.  Skipping a zero log u0 keeps the bits on every
    reachable state: b > 0 and A >= +0 (A starts at +0 and only grows) make
    b*A >= +0, and +0 + x is x for every x >= +0.
    """
    log_u = np.multiply(tables.b_s, A)
    if tables.log_u0 is not None:
        np.add(tables.log_u0, log_u, out=log_u)
    log_u -= tables.d * B
    if log_u.size < tables.n_nodes:  # cells outside the initial support stay empty
        values, log_u = log_u, np.full(tables.n_nodes, -np.inf)
        log_u[tables.support] = values
    log_u.setflags(write=False)
    return PopulationState(t, A, B, log_u, rho, undershoot_clamps)


def _advance_exponential(
    t: SupportTables, c0: float, A: float, B: float, rho: float, dt: float, e: np.ndarray
) -> tuple[float, float, float]:
    """One RK4 step of A' = 1/(1 + c0*rho(A, B)), B' = rho(A, B).

    ``rho`` must equal the mass at (A, B); the first stage reuses it, the
    refreshed mass at the new point is returned for the next step.  ``e`` is
    the kernel's scratch array.  A NaN mass anywhere in the step reaches the
    new mass, which raises :class:`IntegrationError`.
    """
    k1a = 1.0 / (1.0 + c0 * rho)
    k1b = rho
    k2b = _mass_at(t, A + 0.5 * dt * k1a, B + 0.5 * dt * k1b, e)
    k2a = 1.0 / (1.0 + c0 * k2b)
    k3b = _mass_at(t, A + 0.5 * dt * k2a, B + 0.5 * dt * k2b, e)
    k3a = 1.0 / (1.0 + c0 * k3b)
    k4b = _mass_at(t, A + dt * k3a, B + dt * k3b, e)
    k4a = 1.0 / (1.0 + c0 * k4b)
    A1 = A + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    B1 = B + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    rho1 = _mass_at(t, A1, B1, e)
    if rho1 != rho1:  # NaN
        raise IntegrationError(f"mass is NaN after a step from A = {A!r}, B = {B!r}; reduce dt")
    return A1, B1, rho1


def step_exponential(state: PopulationState, dt: float, scenario: Scenario) -> PopulationState:
    """One RK4 step of A' = 1/(1 + c0*rho(A, B)), B' = rho(A, B).

    log_u and rho are refreshed exactly from the new (A, B), so support and
    positivity carry no time-stepping error.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")
    tables = scenario.support_tables
    A1, B1, rho1 = _advance_exponential(
        tables, scenario.c0, state.A, state.B, state.rho, dt, np.empty(tables.b_s.size)
    )
    return _exponential_state(tables, state.t + dt, A1, B1, rho1, state.undershoot_clamps)


def step_direct(state: PopulationState, dt: float, scenario: Scenario) -> PopulationState:
    """One RK4 step of the per-node system u_i' = G(x_i, rho) u_i.

    The mass is recomputed by quadrature at every stage.  Nodes at exactly
    zero stay exactly zero (multiplicative right-hand side); negative
    undershoot from the RK4 combination is clipped to zero and counted.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")
    w = scenario.grid.weights
    max_log = float(np.max(state.log_u))
    if max_log > _LOG_MAX:
        raise ExponentOverflow(
            f"density overflows double precision at t = {state.t:.6g} "
            f"(max log density {max_log:.6g}); the direct scheme cannot continue",
            exponent=max_log,
        )
    with np.errstate(under="ignore"):
        u = np.exp(state.log_u)

    def mass(v: np.ndarray) -> float:
        return float(w @ v)

    def rates(rho: float) -> np.ndarray:
        return fitness_on_nodes(rho, scenario)

    r1 = state.rho
    k1 = rates(r1) * u
    u2 = u + 0.5 * dt * k1
    r2 = mass(u2)
    k2 = rates(r2) * u2
    u3 = u + 0.5 * dt * k2
    r3 = mass(u3)
    k3 = rates(r3) * u3
    u4 = u + dt * k3
    r4 = mass(u4)
    k4 = rates(r4) * u4

    u_new = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    negative = u_new < 0.0
    clamps = int(np.count_nonzero(negative))
    if clamps:
        u_new = np.where(negative, 0.0, u_new)
    if not np.all(np.isfinite(u_new)):
        raise IntegrationError(
            f"non-finite density after direct step at t = {state.t:.6g} "
            f"(dt = {dt:.6g}); reduce dt"
        )
    rho_new = mass(u_new)
    c0 = scenario.c0
    A1 = state.A + dt / 6.0 * (
        1.0 / (1.0 + c0 * r1)
        + 2.0 / (1.0 + c0 * r2)
        + 2.0 / (1.0 + c0 * r3)
        + 1.0 / (1.0 + c0 * r4)
    )
    B1 = state.B + dt / 6.0 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
    with np.errstate(divide="ignore"):
        log_u = np.log(u_new)
    log_u.setflags(write=False)
    return PopulationState(
        t=state.t + dt,
        A=A1,
        B=B1,
        log_u=log_u,
        rho=rho_new,
        undershoot_clamps=state.undershoot_clamps + clamps,
    )


def _step_count(t_end: float, dt: float) -> int:
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        warnings.warn(
            f"t_end = {t_end!r} is not an integer multiple of dt = {dt!r}; "
            f"integrating {n} steps to t = {n * dt!r}",
            stacklevel=3,
        )
    return n


def run(scenario: Scenario) -> Trajectory:
    """Integrate to t_end with fixed dt, sampling diagnostics as configured.

    A diagnostics record is emitted at t = 0, every ``sample_every`` steps
    and at the final step.  Sampled masses outside the a priori corridor
    (with :data:`CORRIDOR_TOL` slack) are recorded as breaches, not errors.
    With ``stop_tol`` set, the run stops once |rho - rho_bar| and W stay
    below it for :data:`STOP_WINDOW` consecutive samples.  Step failures
    raise :class:`IntegrationError` with the partial trajectory attached.

    Either scheme rejects (``ValueError``) a dt past RK4's stability bound.
    The (A, B) Jacobian has one nonzero eigenvalue,
    -(c0 int b u / (1 + c0 rho)^2 + int d u), and inside the corridor its
    size is at most lambda* = (c0 b_M / (1 + c0 rho_m)^2 + d_M) rho_M, so
    dt <= :data:`RK4_STABILITY` / lambda* keeps the linearized step stable
    wherever rho can go.  The direct Jacobian diag(G_i) - a w^T has real
    eigenvalues interlacing the G_i, so it adds max(0, -G_min) to lambda*,
    with G_min = b_m / (1 + c0 rho_M) - d_M rho_M.
    """
    scenario.validate()
    pred = predict_equilibrium(scenario)
    dt, c0 = scenario.dt, scenario.c0
    exponential = scenario.scheme == "exponential"
    lam = (c0 * pred.b_M / (1.0 + c0 * pred.rho_m) ** 2 + pred.d_M) * pred.rho_M
    if not exponential:
        lam += max(0.0, pred.d_M * pred.rho_M - pred.b_m / (1.0 + c0 * pred.rho_M))
    if dt > RK4_STABILITY / lam:
        raise ValueError(
            f"dt must be <= {RK4_STABILITY / lam:.6g} for a stable {scenario.scheme} step "
            f"(RK4 bound {RK4_STABILITY} / lambda*, lambda* = {lam:.6g}), got {dt!r}"
        )
    state = init_state(scenario)
    tables = scenario.support_tables if exponential else None
    scratch = np.empty(tables.b_s.size) if exponential else None
    n_steps = _step_count(scenario.t_end, dt)
    snapshot_steps: dict[int, list[float]] = {}  # step -> the distinct times taken there
    for tau in dict.fromkeys(scenario.snapshot_times):
        snapshot_steps.setdefault(int(round(tau / dt)), []).append(tau)

    trajectory = Trajectory(
        scenario=scenario,
        prediction=pred,
        fingerprint=scenario_fingerprint(scenario),
        records=[diagnostics.make_record(state, scenario, pred)],
        final_state=state,
    )
    for tau in snapshot_steps.get(0, ()):
        trajectory.snapshots.append(DensitySnapshot(tau, state.t, state.log_u))

    lo = pred.rho_m - CORRIDOR_TOL
    hi = pred.rho_M + CORRIDOR_TOL
    every = scenario.sample_every
    t, A, B, rho = state.t, state.A, state.B, state.rho
    stop_streak = 0
    for k in range(1, n_steps + 1):
        try:
            if exponential:
                # (t, A, B, rho) in local floats is the whole exponential
                # state; a PopulationState with its density is built only at
                # steps something observes (sample, snapshot, last step) and
                # on failure, from the last step that succeeded
                A, B, rho = _advance_exponential(tables, c0, A, B, rho, dt, scratch)
                t += dt
                if k % every and k != n_steps and k not in snapshot_steps:
                    continue
                state = _exponential_state(tables, t, A, B, rho)
            else:
                state = step_direct(state, dt, scenario)
        except IntegrationError as err:
            if exponential:
                state = _exponential_state(tables, t, A, B, rho)
            trajectory.final_state = state
            err.partial = trajectory
            raise
        if k in snapshot_steps:
            for tau in snapshot_steps[k]:
                trajectory.snapshots.append(DensitySnapshot(tau, state.t, state.log_u))
        if k % every == 0 or k == n_steps:
            rec = diagnostics.make_record(state, scenario, pred)
            trajectory.records.append(rec)
            if not (lo <= rec.rho <= hi):
                trajectory.breaches.append(
                    f"corridor breach at t = {rec.t:.6g}: rho = {rec.rho!r} "
                    f"outside [{pred.rho_m!r}, {pred.rho_M!r}]"
                )
            if scenario.stop_tol is not None:
                near = (
                    abs(rec.rho - pred.rho_bar) < scenario.stop_tol
                    and rec.W < scenario.stop_tol
                )
                stop_streak = stop_streak + 1 if near else 0
                if stop_streak >= STOP_WINDOW:
                    trajectory.early_stop_t = rec.t
                    break
    trajectory.final_state = state
    return trajectory
