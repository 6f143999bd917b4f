"""Lyapunov functionals, concentration and blow-up reporting."""

import math
import random
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import DATA_DIR, make_scenario
from traitsim import diagnostics
from traitsim.cli import load_scenario
from traitsim.diagnostics import (
    DiagnosticsRecord,
    blow_up_report,
    corridor_breaches,
    crowding_P,
    crowding_Q,
    evaluate_invariants,
    make_record,
)
from traitsim.integrator import PopulationState, Trajectory, init_state, run
from traitsim.model import (
    AssumptionWarning,
    fitness_on_nodes,
    predict_equilibrium,
)


def state_with(scenario, rho, log_u=None, t=0.0):
    """Hand-built state; diagnostics take rho and log_u at face value."""
    if log_u is None:
        with np.errstate(divide="ignore"):
            log_u = np.log(scenario.u0_nodes)
    return PopulationState(t=t, A=0.0, B=0.0, log_u=np.asarray(log_u, float), rho=rho)


def tied_record(state, scenario):
    """make_record's row for ``state``, where b/d is constant on a run of nodes."""
    with pytest.warns(AssumptionWarning, match="attains its maximum"):
        predict_equilibrium(scenario)
    return make_record(state, scenario)


class TestPolynomials:
    def test_P_values(self):
        assert crowding_P(1.0, 1.0) == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert crowding_P(0.0, 1.0) == 0.0
        assert crowding_P(2.0, 1.0) == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_Q_values(self):
        assert crowding_Q(1.0, 1.0) == 2.0
        assert crowding_Q(0.0, 1.0) == 0.0
        assert crowding_Q(0.5, 1.0) == 0.75

    def test_identity_at_two(self):
        # rho*P'(rho) + P(rho) = Q(rho) with P'(2) = 2*2/3 + 1/2
        assert 2.0 * (4.0 / 3.0 + 0.5) + crowding_P(2.0, 1.0) == pytest.approx(
            crowding_Q(2.0, 1.0), rel=1e-15
        )

    def test_identity_random_sample(self):
        rng = random.Random(1234)
        for _ in range(1000):
            rho = rng.uniform(0.0, 10.0)
            p_prime = 2.0 * rho / 3.0 + 0.5
            residual = rho * p_prime + crowding_P(rho, 1.0) - crowding_Q(rho, 1.0)
            assert abs(residual) <= 1e-14 * (1.0 + crowding_Q(rho, 1.0))

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_identity_generalized_crowding(self, rho, c0):
        p_prime = 2.0 * c0 * rho / 3.0 + 0.5
        lhs = rho * p_prime + crowding_P(rho, c0)
        assert lhs == pytest.approx(crowding_Q(rho, c0), rel=1e-12, abs=1e-12)

    def test_reduces_to_reference_case(self):
        for rho in (0.0, 0.3, 1.0, 4.2):
            assert crowding_P(rho, 1.0) == rho * rho / 3.0 + 0.5 * rho
            assert crowding_Q(rho, 1.0) == rho * rho + rho


class TestIntegralFunctionals:
    def test_V_constant_integrand(self):
        s = make_scenario(b="2", d="1", u0="ind(0, 1)")
        v = tied_record(state_with(s, rho=1.0), s).V
        assert v == pytest.approx(7.0 / 6.0, rel=1e-12)

    def test_V_ignores_empty_cells(self):
        s = make_scenario(b="2", d="1", u0="ind(0, 0.5)", n_cells=10)
        v = tied_record(state_with(s, rho=1.0), s).V
        # support mass is the trapezoid mass of ind(0, 0.5) on this grid
        support_mass = s.rho0
        assert v == pytest.approx((2.0 - 5.0 / 6.0) * support_mass, rel=1e-12)

    def test_V_two_atom_weighted_sum_oracle(self):
        s = make_scenario(
            b="2 - ind(0.6, 1)",
            d="1",
            u0="100*ind(0.2499, 0.2501) + 100*ind(0.7499, 0.7501)",
            n_cells=200,
        )
        st_ = init_state(s)
        # oracle: explicit weighted sum over the grid, plain python
        g = s.grid
        p = crowding_P(st_.rho, 1.0)
        expected = 0.0
        for i in range(g.n_nodes):
            w = g.dx * (0.5 if i in (0, g.n_cells) else 1.0)
            expected += w * (s.b_nodes[i] / s.d_nodes[i] - p) * s.u0_nodes[i]
        assert make_record(st_, s).V == pytest.approx(expected, rel=1e-12)

    def test_D_zero_at_stationary_configuration(self):
        s = make_scenario(b="2", d="1", u0="ind(0, 1)")
        assert tied_record(state_with(s, rho=1.0), s).D == 0.0

    def test_D_hand_computed(self):
        s = make_scenario(b="2", d="1", u0="ind(0, 1)")
        d = tied_record(state_with(s, rho=0.5), s).D
        assert d == pytest.approx(1.5 * (5.0 / 6.0) ** 2, rel=1e-12)

    def test_W_vanishes_at_equilibrium(self):
        s = make_scenario(b="2", d="1", u0="ind(0, 1)")
        assert tied_record(state_with(s, rho=1.0), s).W == 0.0

    def test_W_hand_computed(self):
        s = make_scenario(b="2", d="1", u0="ind(0, 1)")
        w = tied_record(state_with(s, rho=0.5), s).W
        assert w == pytest.approx(1.5625, rel=1e-12)

    def test_D_and_W_nonnegative_on_random_states(self):
        rng = np.random.default_rng(5)
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", n_cells=30)
        for _ in range(50):
            log_u = rng.uniform(-3.0, 2.0, s.grid.n_nodes)
            st_ = state_with(s, rho=float(rng.uniform(0.01, 3.0)), log_u=log_u)
            rec = make_record(st_, s)
            assert rec.D >= 0.0
            assert rec.W >= 0.0

    def test_rescaled_path_matches_analytic(self):
        # log densities near 705: exp overflows float64 only after the
        # trapezoid weights are applied, so the shifted path must kick in
        s = make_scenario(b="2", d="1", u0="ind(0, 1)")
        st_ = state_with(s, rho=1.0, log_u=np.full(s.grid.n_nodes, 705.0))
        v = tied_record(st_, s).V
        assert math.isfinite(v)
        assert v == pytest.approx(math.exp(705.0) * 7.0 / 6.0, rel=1e-9)

    def test_rescaled_past_double_range_saturates(self):
        # log densities beyond 709: the true integral exceeds double range
        # and must come back as inf, not raise
        s = make_scenario(b="2", d="1", u0="ind(0, 1)")
        rec = tied_record(state_with(s, rho=1.0, log_u=np.full(s.grid.n_nodes, 750.0)), s)
        assert rec.V == math.inf
        assert rec.W == 0.0  # integrand is exactly zero at rho = 1
        # the mass fraction is a ratio, so it stays finite under the shift
        assert rec.mass_near_xbar == pytest.approx(0.055, rel=1e-12)

    def test_dissipation_is_dV_dt(self):
        # centered finite differences of sampled V reproduce sampled D
        s = make_scenario(
            b="2 - (x-0.3)^2", d="1", n_cells=200, t_end=2.0, dt=1e-3, sample_every=10
        )
        t = run(s)
        ts = np.array([r.t for r in t.records])
        Vs = np.array([r.V for r in t.records])
        Ds = np.array([r.D for r in t.records])
        h = ts[1] - ts[0]
        fd = (Vs[2:] - Vs[:-2]) / (2.0 * h)
        tol = max(1e-4, 10.0 * h * h)
        assert np.max(np.abs(fd - Ds[1:-1])) < tol


class TestConcentration:
    def test_uniform_density_window_fraction(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1", n_cells=2000, epsilon=0.05)
        rep = make_record(init_state(s), s)
        assert rep.mass_near_xbar == pytest.approx(0.1, abs=2e-3)
        assert rep.x_mode == 0.0  # uniform density: the mode ties to the first node
        assert rep.max_log_u == 0.0

    def test_point_mass_fraction_is_one(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1", n_cells=100)
        pred = predict_equilibrium(s)
        log_u = np.full(s.grid.n_nodes, -np.inf)
        log_u[pred.x_bar_index] = 3.0
        rep = make_record(state_with(s, rho=1.0, log_u=log_u), s)
        assert rep.mass_near_xbar == 1.0
        assert rep.x_mode == pred.x_bar

    def test_default_epsilon_from_scenario(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1", n_cells=100)
        explicit = replace(s, epsilon=5 * 0.01)
        rep_default = make_record(init_state(s), s)
        assert rep_default == make_record(init_state(explicit), explicit)


class TestCorridorBreaches:
    def test_one_judgement_read_by_breaches_and_the_check(self):
        t = run(load_scenario(DATA_DIR / "tiny.ini"))
        assert t.breaches == corridor_breaches(t) == []
        assert {name: ok for name, ok, _ in evaluate_invariants(t)}["corridor"] is True
        # a mass pushed out of the corridor after the run is judged when read
        t.records[1] = t.records[1]._replace(rho=t.prediction.rho_M + 1.0)
        [breach] = t.breaches
        assert breach.startswith(f"corridor breach at t = {t.records[1].t:.6g}: rho = ")
        assert {name: ok for name, ok, _ in evaluate_invariants(t)}["corridor"] is False

    def test_breaches_is_derived_not_stored(self):
        t = run(make_scenario(t_end=0.01))
        with pytest.raises(AttributeError):
            t.breaches = ["stale"]
        with pytest.raises(TypeError):
            Trajectory(t.scenario, t.prediction, "", t.records, breaches=[])


class TestResidualDecay:
    def test_start_at_equilibrium_is_already_concentrated(self, tmp_path):
        # b = 2 and d = 1 make b/d flat, and u0 = 1 starts at rho = rho_bar = 1: W(0) is 0
        body = (DATA_DIR / "tiny.ini").read_text().replace("b = 2 - (x - 0.3)^2", "b = 2")
        (tmp_path / "flat.ini").write_text(body, encoding="utf-8")
        with pytest.warns(AssumptionWarning) as caught:
            t = run(load_scenario(tmp_path / "flat.ini"))
        assert [str(w.message)[:24] for w in caught] == [
            "b/d attains its maximum ", "tail certificate failed:"]
        assert t.records[0].W == 0.0
        checks = {name: (ok, detail) for name, ok, detail in evaluate_invariants(t)}
        assert checks["residual_decay"] == (True, "W(0) = 0: already concentrated")


class TestBlowUpReport:
    def test_stationary_slope_zero(self):
        s = make_scenario(
            b="2", d="1", u0="ind(0, 1)", t_end=2.0, dt=1e-3, sample_every=100
        )
        with pytest.warns(UserWarning):  # constant b/d ties the argmax
            t = run(s)
        rep = blow_up_report(t)
        assert rep.monotone_growth
        assert abs(rep.growth_rate_estimate) < 1e-12
        # x_bar ties to the leftmost node; one adjacent cell of density 1
        assert rep.boundary_cell_mass == pytest.approx(s.grid.dx, rel=1e-12)

    def test_boundary_scenario_grows(self):
        s = make_scenario(
            b="1 + x", d="1", n_cells=200, t_end=20.0, dt=1e-3, sample_every=100
        )
        t = run(s)
        rep = blow_up_report(t)
        assert rep.monotone_growth
        assert rep.growth_rate_estimate > 0.0
        assert 0.0 < rep.boundary_cell_mass < t.prediction.rho_bar

    def test_slope_matches_polyfit(self):
        s = make_scenario(b="1 + x", d="1", n_cells=200, t_end=20.0, dt=1e-3, sample_every=100)
        t = run(s)
        window = [r for r in t.records if r.t >= 0.5 * t.records[-1].t]
        want = np.polyfit([r.t for r in window], [r.max_log_u for r in window], 1)[0]
        assert blow_up_report(t).growth_rate_estimate == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("dt, rate", [(1e-299, 3.0), (1e-320, 1e20)])
    def test_slope_at_tiny_times(self, dt, rate):
        # the squares of these times underflow to 0 (1e-320 is itself subnormal)
        t = run(make_scenario(b="1 + x", d="1", n_cells=20, t_end=0.04, sample_every=1))
        t = t._replace(records=[r._replace(t=k * dt, max_log_u=k * dt * rate)
                                for k, r in enumerate(t.records)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert blow_up_report(t).growth_rate_estimate == pytest.approx(rate, rel=1e-9)

    def test_requires_records(self):
        t = run(make_scenario(b="1 + x", d="1", n_cells=20, t_end=0.04, sample_every=1))
        t = t._replace(records=[])
        with pytest.raises(ValueError, match="trajectory has no records"):
            blow_up_report(t)

    def test_requires_enough_samples(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1", t_end=0.5, sample_every=100)
        t = run(s)
        with pytest.raises(ValueError, match="post-transient samples"):
            blow_up_report(t)


# --------------------------------------------------------------------------
# Reference: the record as assembled before the density was shared, one
# exp(log_u) per functional.  make_record must reproduce it bit for bit.

def _ref_density(state):
    m = float(np.max(state.log_u))
    shift = m if m > 700.0 else 0.0
    with np.errstate(under="ignore"):
        u = np.exp(state.log_u - shift)
    return u, shift


def _ref_unscale(raw, shift):
    if not shift or raw == 0.0:
        return raw
    try:
        return raw * math.exp(shift)
    except OverflowError:
        return math.copysign(math.inf, raw)


def _ref_weights(s):
    """The trapezoid weights, built here: dx on every node, halved at both ends."""
    w = np.full(s.grid.n_nodes, (s.grid.x_max - s.grid.x_min) / s.grid.n_cells)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _ref_V(state, s):
    u, shift = _ref_density(state)
    p = crowding_P(state.rho, s.c0)
    return _ref_unscale(float(_ref_weights(s) @ ((s.b_nodes / s.d_nodes - p) * u)), shift)


def _ref_D(state, s):
    u, shift = _ref_density(state)
    g = fitness_on_nodes(state.rho, s)
    raw = (1.0 + s.c0 * state.rho) * float(_ref_weights(s) @ (g * g / s.d_nodes * u))
    return _ref_unscale(raw, shift)


def _ref_W(state, s):
    u, shift = _ref_density(state)
    dev = s.b_nodes / s.d_nodes - crowding_Q(state.rho, s.c0)
    return _ref_unscale(float(_ref_weights(s) @ (dev * dev * u)), shift)


def _ref_concentration(state, s, pred):
    eps = s.concentration_epsilon
    u, _ = _ref_density(state)
    w = _ref_weights(s)
    total = float(w @ u)
    near = np.abs(s.grid.nodes - pred.x_bar) <= eps * (1.0 + 1e-9)
    fraction = float(w[near] @ u[near]) / total if total > 0.0 else 0.0
    i = int(np.argmax(state.log_u))
    return fraction, float(s.grid.nodes[i]), float(state.log_u[i])


def _ref_tail(state, s):
    if s.tail_R is None:
        return 0.0
    tail = np.abs(s.grid.nodes) >= s.tail_R
    if not tail.any():
        return 0.0
    u, shift = _ref_density(state)
    w = _ref_weights(s)
    return _ref_unscale(float(w[tail] @ u[tail]), shift)


def _ref_record(state, s, pred):
    fraction, x_mode, max_log_u = _ref_concentration(state, s, pred)
    return DiagnosticsRecord(
        t=state.t,
        rho=state.rho,
        V=_ref_V(state, s),
        D=_ref_D(state, s),
        W=_ref_W(state, s),
        max_log_u=max_log_u,
        x_mode=x_mode,
        mass_near_xbar=fraction,
        tail_mass=_ref_tail(state, s),
        undershoot_clamps=state.undershoot_clamps,
    )


def _bits(value):
    """Exact identity of a field: signed zeros and NaN payloads included."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return (type(value), repr(value))


def _states(s, rng, offsets):
    """Random states on the support of s around each log-density offset."""
    with np.errstate(divide="ignore"):
        base = np.log(s.u0_nodes)
    for offset in offsets:
        for _ in range(8):
            log_u = base + offset + rng.uniform(-30.0, 3.0, base.size)
            yield state_with(s, rho=float(rng.uniform(0.0, 3.0)), log_u=log_u, t=0.5)


RECORD_SCENARIOS = {
    "plain": dict(b="2 - (x-0.3)^2", d="1 + x", n_cells=200),
    "partial_support": dict(b="1 + x", d="1", u0="ind(0.2, 0.6)", n_cells=150),
    "tail_R": dict(b="2 - (x+0.2)^2", d="1 + x^2", u0="1 + x", x_min=-1.0, tail_R=0.7),
    "epsilon": dict(b="1 + exp(-50*(x-0.4)^2)", d="1", epsilon=0.05, n_cells=300),
    "c0": dict(b="3 - x", d="1 + x", c0=0.25, tail_R=5.0, epsilon=0.3),  # no tail nodes
    "d_const": dict(b="2 - (x-0.3)^2", d="2.5", u0="ind(0.1, 0.8)", tail_R=0.9, n_cells=200),
}


class TestOneMaterialization:
    @pytest.mark.parametrize("name", sorted(RECORD_SCENARIOS))
    def test_record_bit_identical_to_reference(self, name):
        # offsets: plain, just under and over the 700 shift threshold, and
        # past double range, where V, D and the tail mass saturate to inf
        s = make_scenario(**RECORD_SCENARIOS[name])
        pred = predict_equilibrium(s)
        rng = np.random.default_rng(sum(map(ord, name)))
        states = [init_state(s), *_states(s, rng, (0.0, 699.0, 705.0, 760.0, 5000.0))]
        rescaled = saturated = 0
        for st_ in states:
            got, want = make_record(st_, s), _ref_record(st_, s, pred)
            assert list(map(_bits, got)) == list(map(_bits, want))
            rescaled += bool(np.max(st_.log_u) > 700.0)
            saturated += math.isinf(got.V)
        assert 0 < rescaled < len(states) and saturated > 0

    def test_run_records_bit_identical_to_reference(self):
        s = make_scenario(
            b="1 + x", d="1", u0="ind(0.1, 1)", t_end=0.5, sample_every=50, tail_R=0.95,
            snapshot_times=(0.0, 0.25, 0.5),
        )
        t = run(s)
        assert len(t.snapshots) == 3
        for snap in t.snapshots:
            i = round(snap.t / s.dt) // s.sample_every
            st_ = state_with(s, rho=t.records[i].rho, log_u=snap.log_u, t=snap.t)
            want = _ref_record(st_, s, t.prediction)
            assert list(map(_bits, t.records[i])) == list(map(_bits, want))

    def test_underflow_ignored_under_strict_error_state(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1")
        log_u = np.zeros(s.grid.n_nodes)
        log_u[::2] = -800.0  # exp underflows to 0 on every other node
        st_ = state_with(s, rho=1.0, log_u=log_u)
        pred = predict_equilibrium(s)
        with np.errstate(under="raise"):
            rec = make_record(st_, s)
        assert list(map(_bits, rec)) == list(map(_bits, _ref_record(st_, s, pred)))

    def test_one_exponentiation_per_record(self, monkeypatch):
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", tail_R=0.5)
        st_ = init_state(s)
        calls = {"density": 0, "exp": 0}
        density, exp = diagnostics._density, np.exp

        def counted_density(state):
            calls["density"] += 1
            return density(state)

        def counted_exp(*args, **kwargs):
            calls["exp"] += 1
            return exp(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "_density", counted_density)
        monkeypatch.setattr(np, "exp", counted_exp)
        make_record(st_, s)
        assert calls == {"density": 1, "exp": 1}

    @pytest.mark.parametrize("name", sorted(RECORD_SCENARIOS))
    def test_record_bit_identical_under_strict_underflow(self, name):
        # the records keep their bits when the caller raises on underflow:
        # make_record runs in its own error state
        s = make_scenario(**RECORD_SCENARIOS[name])
        pred = predict_equilibrium(s)
        rng = np.random.default_rng(17 + sum(map(ord, name)))
        states = [init_state(s), *_states(s, rng, (0.0, 705.0, 5000.0))]
        # exp underflows to 0 on every other node, and to subnormals in between
        base = states[0].log_u + np.where(np.arange(s.grid.n_nodes) % 2, -800.0, -715.0)
        states.append(state_with(s, rho=1.0, log_u=base))
        want = [_ref_record(st_, s, pred) for st_ in states]
        with np.errstate(under="raise"):
            got = [make_record(st_, s) for st_ in states]
        assert [list(map(_bits, r)) for r in got] == [list(map(_bits, r)) for r in want]


class TestRecordTables:
    def test_cached_read_only_and_in_the_constant_forms(self):
        s = make_scenario(**RECORD_SCENARIOS["d_const"])
        pred = predict_equilibrium(s)
        make_record(init_state(s), s)
        tail, window = s.tail_nodes, s.concentration_window
        assert {"d_on_grid", "tail_nodes", "concentration_window"} <= vars(s).keys()
        assert s.tail_nodes is tail and s.concentration_window is window
        assert type(s.d_on_grid) is float and s.d_on_grid == 2.5
        assert s.ratio is s.ratio and not s.ratio.flags.writeable
        idx, w_tail = tail
        assert not idx.flags.writeable and not w_tail.flags.writeable
        assert np.array_equal(idx, np.arange(180, 201))  # x >= 0.9 on 200 cells
        assert np.array_equal(w_tail, _ref_weights(s)[idx])
        eps = s.concentration_epsilon * (1.0 + 1e-9)
        near = np.flatnonzero(np.abs(s.grid.nodes - pred.x_bar) <= eps)
        assert window == slice(near[0], near[-1] + 1)

    def test_two_sided_tail_and_controls_rebuild(self):
        s = make_scenario(**RECORD_SCENARIOS["tail_R"])
        tail = s.tail_nodes
        idx = tail[0]
        assert s.d_on_grid is s.d_nodes
        assert np.array_equal(idx, np.flatnonzero(np.abs(s.grid.nodes) >= 0.7))
        assert idx[0] == 0 and idx[-1] == s.grid.n_nodes - 1 and idx.size < s.grid.n_nodes
        # a copy with another radius builds its own tail; run controls share it
        assert replace(s, tail_R=None).tail_nodes is None and s.tail_nodes is tail
        assert s.with_controls(t_end=2.0).tail_nodes is tail

    def test_explicit_epsilon_leaves_the_default_window_correct(self):
        s = make_scenario(**RECORD_SCENARIOS["epsilon"])
        pred = predict_equilibrium(s)
        st_ = init_state(s)
        for eps in (0.2, s.concentration_epsilon, 0.01):
            other = replace(s, epsilon=eps)
            got = make_record(st_, other)
            assert list(map(_bits, [got.mass_near_xbar, got.x_mode, got.max_log_u])) == list(
                map(_bits, _ref_concentration(st_, other, pred))
            )
            assert _bits(make_record(st_, s).mass_near_xbar) == _bits(
                _ref_concentration(st_, s, pred)[0]
            )
        # the default window is built once, around the predicted x_bar
        window = s.concentration_window
        assert s.grid.nodes[window.start] <= pred.x_bar <= s.grid.nodes[window.stop - 1]
        make_record(st_, s)
        assert s.concentration_window is window
