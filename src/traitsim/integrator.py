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

import heapq
import itertools
import math
import warnings
from collections.abc import Callable
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

#: what n steps of a scheme return: the last state reached and the error that ended them early
_Steps = tuple["PopulationState", "IntegrationError | None"]
_Advance = Callable[["PopulationState", int], _Steps]


class IntegrationError(RuntimeError):
    """A step failed (overflow or NaN); from :func:`run`, ``partial`` is the trajectory so far."""

    partial: Trajectory | None = None


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


def _sha256(data: bytes) -> str:
    """SHA-256 (FIPS 180-4) of data in hex: the digest of ``hashlib``, without OpenSSL."""
    def root_bits(p: int, k: int) -> int:  # the first 32 fractional bits of p ** (1/k)
        r = round(p ** (1.0 / k) * 2**32)  # the float is within 1e-5: r is the floor or one above
        return (r - (r**k > p << 32 * k)) & 0xFFFFFFFF

    def rotr(x: int, n: int) -> int:
        return (x >> n | x << 32 - n) & 0xFFFFFFFF

    # the first 64 primes: no odd composite below 341 passes the base-2 Fermat test
    primes = [2] + [p for p in range(3, 312, 2) if pow(2, p - 1, p) == 1]
    K, H = [root_bits(p, 3) for p in primes], [root_bits(p, 2) for p in primes[:8]]
    data += b"\x80" + bytes(-(len(data) + 9) % 64) + (8 * len(data)).to_bytes(8, "big")
    for i in range(0, len(data), 64):
        w = [int.from_bytes(data[j : j + 4], "big") for j in range(i, i + 64, 4)]
        for j in range(16, 64):
            s0 = rotr(w[j - 15], 7) ^ rotr(w[j - 15], 18) ^ w[j - 15] >> 3
            s1 = rotr(w[j - 2], 17) ^ rotr(w[j - 2], 19) ^ w[j - 2] >> 10
            w.append((w[j - 16] + s0 + w[j - 7] + s1) & 0xFFFFFFFF)
        a, b, c, d, e, f, g, h = H
        for j in range(64):
            t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + (e & f ^ ~e & g) + K[j] + w[j]
            t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + (a & b ^ a & c ^ b & c)
            h, g, f, e = g, f, e, (d + t1) & 0xFFFFFFFF
            d, c, b, a = c, b, a, (t1 + t2) & 0xFFFFFFFF
        H = [(x + y) & 0xFFFFFFFF for x, y in zip(H, (a, b, c, d, e, f, g, h))]
    return b"".join(x.to_bytes(4, "big") for x in H).hex()


def scenario_fingerprint(scenario: Scenario) -> str:
    """Stable hex digest of everything that determines a trajectory (SHA-256, pure Python)."""
    parts = [
        f"{name}={value}" if isinstance(value, str) else f"{name}={value!r}"
        for name, value in scenario_items(scenario)
    ]
    return _sha256("\n".join(parts).encode())[:16]


def init_state(scenario: Scenario) -> PopulationState:
    """State at t = 0 with A = B = 0 and log_u taken from u0."""
    scenario.validate()
    with np.errstate(divide="ignore"):
        log_u = np.log(scenario.u0_nodes)
    log_u.setflags(write=False)
    return PopulationState(t=0.0, A=0.0, B=0.0, log_u=log_u, rho=scenario.rho0)


def _mass_kernel(t: SupportTables) -> Callable[..., float]:
    """The mass quadrature ``mass(A, B, e=None)`` on t's support; the solver's innermost kernel.

    Plain summation while the largest density exponent is at most 600,
    max-shifted (log-sum-exp) beyond; numpy's default error state already
    flushes underflow to zero, which is the wanted behavior for dying tails.
    Rounding is monotone, so no exponent exceeds the scalar bound computed
    from the table ranges in the same order; the exact max is taken only
    when that bound (or NaN) does not settle the branch.  ``mass`` binds the
    tables and the ufuncs, so build one kernel per run, and passes A and a
    constant d*B as 0-d arrays, which numpy need not convert.  ``e`` is a
    scratch array (one entry per support node) that the call overwrites; a
    caller passes its own, so that it lives only as long as the caller's
    steps, or gets a fresh one.

    The scalar forms of ``t.d`` and ``t.log_u0`` give the bits of the arrays:
    a scalar d*B is the same IEEE product as each d_i*B, and skipping a zero
    log u0 only leaves -0.0 where adding it gives +0.0, and exp maps both to
    1.0 (NaN, +-inf and the shifted branch are unaffected).
    """
    b_s, d, dot, varying_d = t.b_s, t.d, t.w_s.dot, not isinstance(t.d, float)
    log_u0 = None if t.log_u0 is None else np.asarray(t.log_u0)
    b_lo, b_hi, d_lo, d_hi, log_u0_hi = t.b_lo, t.b_hi, t.d_lo, t.d_hi, t.log_u0_hi
    multiply, subtract, add, exp = np.multiply, np.subtract, np.add, np.exp
    a, dB = np.empty(()), np.empty(())

    def mass(A: float, B: float, e: np.ndarray | None = None) -> float:
        if e is None:
            e = np.empty(b_s.size)
        a[()] = A
        multiply(b_s, a, out=e)
        if varying_d:
            subtract(e, d * B, out=e)
        else:
            dB[()] = d * B
            subtract(e, dB, out=e)
        if log_u0 is not None:
            add(e, log_u0, out=e)
        bound = (b_hi * A if A >= 0.0 else b_lo * A) - (d_lo * B if B >= 0.0 else d_hi * B)
        if bound + log_u0_hi <= _SAFE_EXP or (m := float(e.max())) <= _SAFE_EXP:
            exp(e, out=e)
            return float(dot(e))
        subtract(e, m, out=e)
        exp(e, out=e)
        log_rho = m + math.log(float(dot(e)))
        if log_rho > _LOG_MAX:
            raise ExponentOverflow(
                f"total mass overflows: log rho = {log_rho:.6g} "
                f"(largest density exponent {m:.6g})",
                exponent=m,
            )
        return math.exp(log_rho)

    return mass


def rho_from_exponents(A: float, B: float, scenario: Scenario) -> float:
    """Total mass of the closed-form density u0 * exp(b*A - d*B).

    Summed plainly while no exponent can exceed 600, under a max shift
    (log-sum-exp) beyond; raises :class:`ExponentOverflow` only when the
    mass itself exceeds double range.
    """
    if not (math.isfinite(A) and math.isfinite(B)):
        raise ExponentOverflow(
            f"non-finite exponents A={A!r}, B={B!r}", exponent=math.inf
        )
    return _mass_kernel(scenario.support_tables)(A, B)


def _exponential_state(
    tables: SupportTables, t: float, A: float, B: float, rho: float
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
    state = object.__new__(PopulationState)  # skips the frozen __init__'s per-field set-up
    state.__dict__.update(t=t, A=A, B=B, log_u=log_u, rho=rho, undershoot_clamps=0)
    return state


def _exponential_advance(scenario: Scenario, dt: float) -> _Advance:
    """``advance(state, n)``: n RK4 steps of A' = 1/(1 + c0*rho(A, B)), B' = rho(A, B).

    The mass kernel, the tables, c0 and dt are bound once, so build one
    advance per run; each call allocates the kernel's scratch, so a run
    holds no extra support-sized array while it observes.  Each first stage
    reuses the stored rho; log_u is rebuilt once per call, from the last
    step that succeeded.  A NaN anywhere in a step reaches the new mass.
    """
    tables, c0 = scenario.support_tables, scenario.c0
    mass = _mass_kernel(tables)

    def advance(state: PopulationState, n: int) -> _Steps:
        t, A, B, rho = state.t, state.A, state.B, state.rho
        e = np.empty(tables.b_s.size)  # the kernel's scratch: not held between calls
        try:
            for _ in range(n):
                k1a = 1.0 / (1.0 + c0 * rho)
                k2b = mass(A + 0.5 * dt * k1a, B + 0.5 * dt * rho, e)
                k2a = 1.0 / (1.0 + c0 * k2b)
                k3b = mass(A + 0.5 * dt * k2a, B + 0.5 * dt * k2b, e)
                k3a = 1.0 / (1.0 + c0 * k3b)
                k4b = mass(A + dt * k3a, B + dt * k3b, e)
                k4a = 1.0 / (1.0 + c0 * k4b)
                A1 = A + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
                B1 = B + dt / 6.0 * (rho + 2.0 * k2b + 2.0 * k3b + k4b)
                rho1 = mass(A1, B1, e)
                if rho1 != rho1:  # NaN
                    raise IntegrationError(
                        f"mass is NaN after a step from A = {A!r}, B = {B!r}; reduce dt"
                    )
                t, A, B, rho = t + dt, A1, B1, rho1
        except IntegrationError as err:
            return _exponential_state(tables, t, A, B, rho), err
        return _exponential_state(tables, t, A, B, rho), None

    return advance


def step_exponential(state: PopulationState, dt: float, scenario: Scenario) -> PopulationState:
    """One RK4 step of A' = 1/(1 + c0*rho(A, B)), B' = rho(A, B).

    log_u and rho are refreshed exactly from the new (A, B), so support and
    positivity carry no time-stepping error.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")
    state, err = _exponential_advance(scenario, dt)(state, 1)
    if err is not None:
        raise err
    return state


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

    r1 = state.rho
    k1 = fitness_on_nodes(r1, scenario) * u
    u2 = u + 0.5 * dt * k1
    r2 = float(w @ u2)
    k2 = fitness_on_nodes(r2, scenario) * u2
    u3 = u + 0.5 * dt * k2
    r3 = float(w @ u3)
    k3 = fitness_on_nodes(r3, scenario) * u3
    u4 = u + dt * k3
    r4 = float(w @ u4)
    k4 = fitness_on_nodes(r4, scenario) * u4

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
    rho_new = float(w @ u_new)
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


def _direct_advance(scenario: Scenario, dt: float) -> _Advance:
    """``advance(state, n)``: n RK4 steps of the per-node system, by :func:`step_direct`."""
    def advance(state: PopulationState, n: int) -> _Steps:
        try:
            for _ in range(n):
                state = step_direct(state, dt, scenario)
        except IntegrationError as err:
            return state, err
        return state, None

    return advance


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
    """Integrate to t_end with fixed dt, observing the state as configured.

    The run is observed at step 0, every ``sample_every`` steps, at each
    snapshot step (the nearest to each snapshot time) and at the last step;
    a diagnostics record is taken at every observed step except a snapshot
    step off the sampling grid.  Sampled masses after step 0 outside the a
    priori corridor (with :data:`CORRIDOR_TOL` slack) are recorded as
    breaches, not errors.  With ``stop_tol`` set, the run stops once
    |rho - rho_bar| and W stay below it for :data:`STOP_WINDOW` consecutive
    samples after step 0.  A step failure raises :class:`IntegrationError`
    with the trajectory so far attached; its ``final_state`` is the last
    step that succeeded.

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
    advance = (_exponential_advance if exponential else _direct_advance)(scenario, dt)
    n_steps = _step_count(scenario.t_end, dt)
    every = scenario.sample_every
    snapshot_steps: dict[int, list[float]] = {}  # step -> the distinct times taken there
    for tau in dict.fromkeys(scenario.snapshot_times):
        snapshot_steps.setdefault(int(round(tau / dt)), []).append(tau)
    observed = heapq.merge(range(0, n_steps + 1, every), sorted(snapshot_steps), (n_steps,))

    trajectory = Trajectory(
        scenario=scenario,
        prediction=pred,
        fingerprint=scenario_fingerprint(scenario),
        records=[],
    )
    records, snapshots = trajectory.records, trajectory.snapshots
    rho_lo, rho_hi = pred.rho_m - CORRIDOR_TOL, pred.rho_M + CORRIDOR_TOL
    rho_bar, stop_tol = pred.rho_bar, scenario.stop_tol
    state, done, stop_streak = init_state(scenario), 0, 0
    for k, _ in itertools.groupby(observed):
        state, err = advance(state, k - done)
        trajectory.final_state, done = state, k
        if err is not None:
            err.partial = trajectory
            raise err
        for tau in snapshot_steps.get(k, ()):
            snapshots.append(DensitySnapshot(tau, state.t, state.log_u))
        if k % every and k != n_steps:
            continue
        rec = diagnostics.make_record(state, scenario, pred)
        records.append(rec)
        if not k:
            continue
        if not (rho_lo <= rec.rho <= rho_hi):
            trajectory.breaches.append(
                f"corridor breach at t = {rec.t:.6g}: rho = {rec.rho!r} "
                f"outside [{pred.rho_m!r}, {pred.rho_M!r}]"
            )
        if stop_tol is not None:
            near = abs(rec.rho - rho_bar) < stop_tol and rec.W < stop_tol
            stop_streak = stop_streak + 1 if near else 0
            if stop_streak >= STOP_WINDOW:
                trajectory.early_stop_t = rec.t
                break
    return trajectory
