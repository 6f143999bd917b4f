"""Time integration: exactness, invariants, cross-scheme and failure paths."""

import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import DATA_DIR, SCENARIO_DIR, make_scenario
from traitsim import integrator
from traitsim.cli import load_scenario
from traitsim.diagnostics import make_record
from traitsim.integrator import (
    DensitySnapshot,
    ExponentOverflow,
    IntegrationError,
    PopulationState,
    Trajectory,
    _exponential_advance,
    _exponential_state,
    _mass_kernel,
    init_state,
    rho_from_exponents,
    run,
    scenario_fingerprint,
    step_direct,
    step_exponential,
)
from traitsim.model import predict_equilibrium, quadrature, scenario_items
from traitsim.oracle import Atom, AtomSystem, integrate_atoms

TWO_PEAK_B = "1 + exp(-200*(x - 0.25)^2) + 0.8*exp(-200*(x - 0.7)^2)"


class TestInitState:
    def test_unit_indicator_mass(self):
        s = make_scenario(u0="ind(0, 1)")
        st = init_state(s)
        assert st.rho == pytest.approx(1.0, rel=1e-15)
        assert st.t == 0.0 and st.A == 0.0 and st.B == 0.0

    def test_mass_is_linear_in_u0(self):
        assert init_state(make_scenario(u0="2*ind(0, 1)")).rho == pytest.approx(
            2.0, rel=1e-15
        )

    def test_zero_u0_rejected(self):
        with pytest.raises(ValueError, match="zero initial mass"):
            init_state(make_scenario(u0="0"))

    def test_negative_u0_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            init_state(make_scenario(u0="x - 0.5"))

    def test_log_density_layout(self):
        s = make_scenario(u0="2*ind(0, 0.5)", n_cells=10)
        st = init_state(s)
        inside = s.grid.nodes <= 0.5
        np.testing.assert_allclose(st.log_u[inside], math.log(2.0))
        assert np.all(np.isneginf(st.log_u[~inside]))


class TestRhoFromExponents:
    def test_identity_exponent(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", u0="1 + x")
        assert rho_from_exponents(0.0, 0.0, s) == pytest.approx(
            init_state(s).rho, rel=1e-12
        )

    def test_constant_rates_factorize(self):
        s = make_scenario(b="1", d="1")
        rho0 = init_state(s).rho
        for A, B in [(0.5, 0.2), (3.0, 1.0), (0.0, 4.0)]:
            assert rho_from_exponents(A, B, s) == pytest.approx(
                math.exp(A - B) * rho0, rel=1e-12
            )

    def test_matches_direct_summation_oracle(self):
        # oracle: plain python loop over nodes, no shifting, no vectorization
        s = make_scenario(b="1 + exp(0 - 80*(x-0.4)^2)", d="1 + 0.5*x", u0="ind(0, 1)")
        A, B = 1.0, 1.0
        g = s.grid
        total = 0.0
        for i in range(g.n_nodes):
            w = g.dx * (0.5 if i in (0, g.n_cells) else 1.0)
            total += w * s.u0_nodes[i] * math.exp(s.b_nodes[i] * A - s.d_nodes[i] * B)
        assert rho_from_exponents(A, B, s) == pytest.approx(total, rel=1e-12)

    def test_large_exponents_use_shift(self):
        s = make_scenario(b="1", d="1")
        # b*A - d*B = 650: unshifted exp would overflow a float32 path but
        # the mass exp(650) is still representable
        assert rho_from_exponents(1300.0, 650.0, s) == pytest.approx(
            math.exp(650.0), rel=1e-12
        )

    def test_overflow_reported_with_exponent(self):
        s = make_scenario(b="1", d="1")
        with pytest.raises(ExponentOverflow) as exc:
            rho_from_exponents(1e4, 0.0, s)
        assert exc.value.exponent == pytest.approx(1e4, rel=1e-12)

    def test_non_finite_exponents_rejected(self):
        s = make_scenario()
        with pytest.raises(ExponentOverflow):
            rho_from_exponents(math.inf, 0.0, s)


def _arrays(s):
    """d and log u0 on the support of s, as arrays (the tables keep constant forms)."""
    support = s.support_tables.support
    return s.d_nodes[support], np.log(s.u0_nodes[support])


def _exact_max_mass(t, A, B, d_s, log_u0_s):
    """The mass kernel as it was before the scalar bound: exact max every call."""
    e = t.b_s * A
    e -= d_s * B
    e += log_u0_s
    m = float(e.max())
    if m <= 600.0:
        np.exp(e, out=e)
        return float(t.w_s @ e)
    e -= m
    np.exp(e, out=e)
    log_rho = m + math.log(float(t.w_s @ e))
    if log_rho > math.log(np.finfo(float).max):
        raise ExponentOverflow(f"total mass overflows: log rho = {log_rho:.6g} "
                               f"(largest density exponent {m:.6g})", exponent=m)
    return math.exp(log_rho)


def _outcome(kernel, *args):
    try:
        return struct.pack("<d", kernel(*args))
    except ExponentOverflow as err:
        return (str(err), struct.pack("<d", err.exponent))


def _assert_kernel_matches_exact_max(s):
    # scales reach past the 600 threshold, past exp overflow and past double
    # range (inf - inf gives NaN)
    t, (d_s, log_u0_s) = s.support_tables, _arrays(s)
    rng = np.random.default_rng(20261018)
    points = [(0.0, 0.0), (-0.0, 0.0), (1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)]
    # largest exponents from 605 to 686 (+ log u0): the shifted branch
    points += [((605.0 + 9.0 * i) / t.b_hi, 0.0) for i in range(10)]
    while len(points) < 500:
        scale = 10.0 ** rng.uniform(-2.0, 6.0 if len(points) % 5 else 308.0)
        if len(points) % 3 == 0:
            scale = rng.uniform(300.0, 1500.0)  # around the 600 threshold
        points.append(tuple(map(float, rng.uniform(-1.0, 1.0, 2) * scale)))
    # one kernel, so one scratch array, for every call: each call must
    # overwrite it whole and never read what an earlier call (NaN, inf) left
    kernel = _mass_kernel(t)
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = [_outcome(kernel, A, B) for A, B in points]
        assert outcomes == [_outcome(_exact_max_mass, t, A, B, d_s, log_u0_s) for A, B in points]
        largest = [float((t.b_s * A - d_s * B + log_u0_s).max()) for A, B in points]
    plain = sum(m <= 600.0 for m in largest)
    shifted = sum(isinstance(o, bytes) and m > 600.0 for o, m in zip(outcomes, largest))
    overflow = sum(isinstance(o, tuple) for o in outcomes)
    assert min(plain, shifted, overflow) >= 5, (plain, shifted, overflow)


class TestMassKernel:
    @pytest.mark.parametrize("u0", ["ind(0, 1)", "1 + x", "ind(0.3, 0.55)", "exp(400*x)"])
    def test_scalar_bound_bit_identical_to_exact_max(self, u0):
        # b/d span signs of b*A - d*B
        s = make_scenario(b="1.5 + sin(7*x)", d="0.5 + x^2", u0=u0, n_cells=400)
        _assert_kernel_matches_exact_max(s)

    @pytest.mark.parametrize("u0, log_u0", [
        ("ind(0, 1)", None), ("2*ind(0, 1)", math.log(2.0)),
        ("1 + x", "array"), ("ind(0.3, 0.55)", None),
    ])
    @pytest.mark.parametrize("d", ["1", "2.5", "0.5 + x^2"])
    def test_constant_forms_bit_identical_to_exact_max(self, d, u0, log_u0):
        # a constant d is kept as a float and a zero log u0 is skipped; the
        # reference kernel reads d and log u0 on the support as arrays
        s = make_scenario(b="1.5 + sin(7*x)", d=d, u0=u0, n_cells=400)
        t, (d_s, log_u0_s) = s.support_tables, _arrays(s)
        if d == "0.5 + x^2":
            assert t.d.tobytes() == d_s.tobytes()
        else:
            assert type(t.d) is float and t.d == float(d)
        if log_u0 == "array":
            assert t.log_u0.tobytes() == log_u0_s.tobytes()
        else:
            assert t.log_u0 == log_u0
        _assert_kernel_matches_exact_max(s)

    @pytest.mark.parametrize("u0, log_u0, support", [
        ("ind(0.2, 0.7)", None, slice),
        ("2*ind(0.2, 0.7)", float, slice),
        ("(1 + x)*ind(0.2, 0.7)", np.ndarray, slice),
        ("ind(0.1, 0.3) + ind(0.6, 0.8)", None, np.ndarray),
        ("2*(ind(0.1, 0.3) + ind(0.6, 0.8))", float, np.ndarray),
        ("(1 + x)*(ind(0.1, 0.3) + ind(0.6, 0.8))", np.ndarray, np.ndarray),
    ])
    @pytest.mark.parametrize("d, d_form", [("1", float), ("0.5 + x^2", np.ndarray)])
    def test_kernel_bitwise_against_reference(self, d, d_form, u0, log_u0, support):
        # every table form against the reference written out above, at the
        # special values, around the 600 threshold and past double range
        s = make_scenario(b="1.5 + sin(7*x)", d=d, u0=u0, n_cells=200)
        t, (d_s, log_u0_s) = s.support_tables, _arrays(s)
        assert type(t.d) is d_form and type(t.support) is support
        assert log_u0 is None and t.log_u0 is None or type(t.log_u0) is log_u0
        special = [0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, 1e308, -1e308]
        points = [(A, B) for A in special for B in special]
        points += [((605.0 + 40.0 * i) / t.b_hi, 0.0) for i in range(5)]  # shifted
        points += [(1e3, 0.0), (1e4, 1.0), (-1e3, -1e4)]  # the mass overflows
        kernel = _mass_kernel(t)
        with np.errstate(over="ignore", invalid="ignore"):
            got = [_outcome(kernel, A, B) for A, B in points]
            want = [_outcome(_exact_max_mass, t, A, B, d_s, log_u0_s) for A, B in points]
            largest = [float((t.b_s * A - d_s * B + log_u0_s).max()) for A, B in points]
        assert got == want
        rho = [struct.unpack("<d", o)[0] for o in got if isinstance(o, bytes)]
        assert sum(m <= 600.0 for m in largest) >= 5 and sum(r != r for r in rho) >= 5
        assert sum(isinstance(o, bytes) and m > 600.0 for o, m in zip(got, largest)) >= 5
        assert sum(isinstance(o, tuple) for o in got) >= 3

    @pytest.mark.parametrize("d, u0", [
        ("1", "ind(0, 1)"), ("0.5 + x^2", "(1 + x)*(ind(0.1, 0.3) + ind(0.6, 0.8))"),
    ])
    def test_rho_from_exponents_returns_the_kernel_bits(self, d, u0):
        s = make_scenario(b="1.5 + sin(7*x)", d=d, u0=u0, n_cells=200)
        kernel = _mass_kernel(s.support_tables)
        for A, B in [(0.0, 0.0), (3.0, 1.0), (-2.0, 5.0), (650.0, 0.0), (1e4, 0.0)]:
            assert _outcome(rho_from_exponents, A, B, s) == _outcome(kernel, A, B)

    @pytest.mark.parametrize("u0", ["1 + x", "(1 + x)*ind(0.3, 0.55)"])
    def test_log_density_layout_bitwise(self, u0):
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", u0=u0, n_cells=50)
        t, (d_s, log_u0_s) = s.support_tables, _arrays(s)
        rng = np.random.default_rng(7)
        for A, B in rng.uniform(0.0, 50.0, (200, 2)):
            log_u = _exponential_state(t, 0.0, A, B, 1.0).log_u
            want = np.full(s.grid.n_nodes, -np.inf)
            want[t.support] = log_u0_s + t.b_s * A - d_s * B
            assert log_u.tobytes() == want.tobytes()
            assert not log_u.flags.writeable

    @pytest.mark.parametrize("u0", ["ind(0, 1)", "2*ind(0, 1)", "1 + x", "ind(0.3, 0.55)"])
    @pytest.mark.parametrize("d", ["1", "2.5", "0.5 + x^2"])
    def test_log_density_constant_forms_keep_signed_zeros(self, d, u0):
        # reachable states have b > 0 and A, B >= +0; A = B = +0 and the
        # single-zero points are where a skipped log u0 could flip a zero
        s = make_scenario(b="1.5 + sin(7*x)", d=d, u0=u0, n_cells=60)
        t, (d_s, log_u0_s) = s.support_tables, _arrays(s)
        rng = np.random.default_rng(11)
        points = [(0.0, 0.0), (0.0, 3.0), (3.0, 0.0), (5e-324, 0.0), (0.0, 5e-324)]
        scaled = rng.uniform(0.0, 1.0, (50, 2)) * 10.0 ** rng.uniform(-5.0, 3.0, (50, 1))
        points += [tuple(p) for p in scaled]
        for A, B in points:
            log_u = _exponential_state(t, 0.0, A, B, 1.0).log_u
            want = np.full(s.grid.n_nodes, -np.inf)
            want[t.support] = log_u0_s + t.b_s * A - d_s * B
            assert log_u.tobytes() == want.tobytes()
        assert np.signbit(_exponential_state(t, 0.0, 0.0, 0.0, 1.0).log_u[t.support]).sum() == 0


def _gathered(t):
    """The tables with an index array and gathered copies, as built before views."""
    def copy(v):
        return v if v is None or isinstance(v, float) else v.copy()

    return t._replace(
        support=np.arange(t.n_nodes)[t.support], b_s=t.b_s.copy(), w_s=t.w_s.copy(),
        d=copy(t.d), log_u0=copy(t.log_u0),
    )


class TestSupportViews:
    """A contiguous support is a slice: b_s, w_s and an array d view the grid arrays."""

    @pytest.mark.parametrize("u0, d, start", [
        ("ind(0, 1)", "1", 0),  # the full support
        ("(1 + x)*ind(1e-4, 0.9)", "0.5 + x^2", 1),  # views shifted by one double
        ("exp(-x)*ind(3e-4, 1)", "1 + x", 3),
    ])
    def test_views_match_gathered_copies_bitwise(self, u0, d, start):
        s = make_scenario(b="1.5 + sin(7*x)", d=d, u0=u0, n_cells=10_000)
        t = s.support_tables
        assert t.support == slice(start, start + int(s.support_mask.sum()))
        for view, base in ((t.b_s, s.b_nodes), (t.w_s, s.weights), (t.d, s.d_nodes)):
            assert isinstance(view, float) or (view.base is base and not view.flags.writeable)
        self._assert_same_bits(t, _gathered(t))

    def test_two_atom_keeps_the_index_array(self):
        t = load_scenario(SCENARIO_DIR / "two_atom.ini").support_tables
        assert isinstance(t.support, np.ndarray) and t.b_s.base is None
        self._assert_same_bits(t, _gathered(t))

    @staticmethod
    def _assert_same_bits(t, gathered):
        # plain and shifted mass branches, overflow, and states past 700
        rng = np.random.default_rng(20261019)
        points = [(0.0, 0.0), (1e308, 1e308), ((650.0 / t.b_hi), 0.0)]
        points += [tuple(p) for p in rng.uniform(0.0, 1.0, (200, 2)) * 10.0 ** rng.uniform(
            -3.0, 4.0, (200, 1))]
        mass, gathered_mass = _mass_kernel(t), _mass_kernel(gathered)
        with np.errstate(over="ignore", invalid="ignore"):
            for A, B in points:
                assert _outcome(mass, A, B) == _outcome(gathered_mass, A, B)
                assert _exponential_state(t, 0.0, A, B, 1.0).log_u.tobytes() == (
                    _exponential_state(gathered, 0.0, A, B, 1.0).log_u.tobytes())


class TestStepExponential:
    def test_stationary_fixed_point(self):
        # b/d = 2 on the whole support and rho(0) = 1 solves rho(1+rho) = 2
        s = make_scenario(b="2", d="1", u0="ind(0, 1)")
        st = init_state(s)
        for _ in range(10):
            st = step_exponential(st, 1e-3, s)
            assert abs(st.rho - 1.0) <= 1e-12

    def test_dt_must_be_positive(self):
        s = make_scenario()
        st = init_state(s)
        with pytest.raises(ValueError, match="dt"):
            step_exponential(st, 0.0, s)
        with pytest.raises(ValueError, match="dt"):
            step_direct(st, -1e-3, s)

    def test_monotone_approach_from_below(self):
        # constant fitness ratio, rho(0) = 0.5 < rho_bar = 1
        s = make_scenario(b="2", d="1", u0="0.5*ind(0, 1)")
        st = init_state(s)
        rhos = [st.rho]
        for _ in range(2000):
            st = step_exponential(st, 1e-3, s)
            rhos.append(st.rho)
        assert all(b >= a for a, b in zip(rhos, rhos[1:]))
        assert rhos[-1] < 1.0

    def test_against_tiny_step_atom_oracle(self):
        # with b/d constant on the support the mass obeys the one-atom ODE
        s = make_scenario(b="2", d="1", u0="0.5*ind(0, 1)", t_end=10.0, dt=1e-3)
        st = init_state(s)
        for _ in range(10_000):
            st = step_exponential(st, 1e-3, s)
        atoms = integrate_atoms(AtomSystem((Atom(2.0, 1.0, 0.5),)), 10.0, 1e-5)
        assert st.rho == pytest.approx(atoms.rho, abs=1e-9)

    def test_exponent_invariant_on_support(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", u0="ind(0.2, 0.8)", n_cells=50)
        st = init_state(s)
        for _ in range(100):
            st = step_exponential(st, 1e-2, s)
        sup = s.support_mask
        expected = (
            np.log(s.u0_nodes[sup]) + s.b_nodes[sup] * st.A - s.d_nodes[sup] * st.B
        )
        np.testing.assert_allclose(st.log_u[sup], expected, rtol=1e-12, atol=1e-12)
        assert np.all(np.isneginf(st.log_u[~sup]))

    def test_stored_rho_matches_quadrature(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1", n_cells=50)
        st = init_state(s)
        for _ in range(50):
            st = step_exponential(st, 1e-2, s)
        recomputed = quadrature(np.exp(st.log_u), s.grid)
        assert st.rho == pytest.approx(recomputed, rel=1e-12)

    def test_exponents_monotone_and_bounded(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1", n_cells=50)
        st = init_state(s)
        prev = st
        for _ in range(200):
            st = step_exponential(st, 1e-2, s)
            assert st.A >= prev.A and st.B >= prev.B
            prev = st
        assert st.A <= st.t * (1.0 + 1e-12)

    @pytest.mark.parametrize("case", ["two_atom", "varying_d"])
    def test_n_steps_equal_n_single_steps_bitwise(self, case):
        # one advance of n steps gives the bits of n advances, one per step
        if case == "two_atom":
            s = load_scenario(SCENARIO_DIR / "two_atom.ini")
        else:
            s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", u0="(1 + x)*ind(0.2, 0.7)", n_cells=200)
        st = init_state(s)
        for _ in range(300):
            st = step_exponential(st, s.dt, s)
        fast = _exponential_advance(s, s.dt)(init_state(s), 300)
        assert _bits(fast) == _bits(st)


class TestStepDirect:
    def test_stationary_fixed_point(self):
        s = make_scenario(b="2", d="1", u0="ind(0, 1)")
        st = init_state(s)
        for _ in range(10):
            st = step_direct(st, 1e-3, s)
            assert abs(st.rho - 1.0) <= 1e-12

    def test_zero_node_stays_exactly_zero(self):
        s = make_scenario(u0="ind(0, 0.4)", n_cells=10)
        st = init_state(s)
        outside = ~s.support_mask
        for _ in range(100):
            st = step_direct(st, 1e-2, s)
        assert np.all(np.isneginf(st.log_u[outside]))
        assert st.undershoot_clamps == 0

    @pytest.mark.parametrize("b", [TWO_PEAK_B, "1 + x"])
    def test_agrees_with_exponential_scheme(self, b):
        s = make_scenario(b=b, d="1", n_cells=100)
        se = init_state(s)
        sd = init_state(s)
        for _ in range(2000):
            se = step_exponential(se, 1e-3, s)
            sd = step_direct(sd, 1e-3, s)
        assert sd.rho == pytest.approx(se.rho, abs=1e-9)
        assert sd.A == pytest.approx(se.A, abs=1e-9)
        assert sd.B == pytest.approx(se.B, abs=1e-9)

    def test_undershoot_clamped_and_counted(self, monkeypatch):
        # deliberately unstable step: the RK4 combination goes negative; run
        # refuses it unless the stability bound is lifted
        s = make_scenario(
            b=TWO_PEAK_B, d="1", n_cells=100, t_end=50.0, dt=2.5,
            sample_every=1, scheme="direct",
        )
        with pytest.raises(ValueError, match="^dt must"):
            run(s)
        monkeypatch.setattr(integrator, "RK4_STABILITY", math.inf)
        t = run(s)
        assert t.records[-1].undershoot_clamps > 0
        assert all(np.isfinite(r.rho) for r in t.records)

    def test_density_overflow_raises_with_the_largest_exponent(self):
        # a hand-built state: no step reaches a density past double range
        s = make_scenario(n_cells=10)
        log_u = np.zeros(s.grid.n_nodes)
        log_u[[3, 7]] = 700.0, math.nextafter(math.log(np.finfo(float).max), math.inf)
        state = PopulationState(t=0.5, A=0.0, B=0.0, log_u=log_u, rho=1.0)
        with pytest.raises(ExponentOverflow, match="density overflows .* at t = 0.5 ") as exc:
            step_direct(state, 1e-3, s)
        assert exc.value.exponent == log_u[7]


class TestStabilityBound:
    # tiny.ini's model: lambda* = (2 / (1 + rho_m)^2 + 1) * 1 = 1.5994, dt <= 1.7413
    TINY = dict(b="2 - (x-0.3)^2", d="1", n_cells=10, sample_every=5)

    @pytest.mark.parametrize("dt", [1.9, 2.5, 5.0, 50.0, 1e6])
    def test_unstable_dt_rejected_before_any_step(self, dt):
        s = make_scenario(t_end=10 * dt, dt=dt, **self.TINY)
        with pytest.raises(ValueError, match=r"^dt must be <= 1\.74127 .* got " + repr(dt)):
            run(s)

    def test_bound_from_the_prediction(self):
        s = make_scenario(t_end=0.0, b="1 + x", d="0.5 + x", c0=0.5)
        p = predict_equilibrium(s)
        lam = (0.5 * p.b_M / (1.0 + 0.5 * p.rho_m) ** 2 + p.d_M) * p.rho_M
        limit = integrator.RK4_STABILITY / lam
        run(s.with_controls(dt=limit))
        with pytest.raises(ValueError, match="^dt must"):
            run(s.with_controls(dt=math.nextafter(limit, math.inf)))
        # the direct scheme adds max(0, -G_min), G_min = b_m/(1 + c0 rho_M) - d_M rho_M
        g_min = p.b_m / (1.0 + 0.5 * p.rho_M) - p.d_M * p.rho_M
        assert g_min < 0.0
        limit = integrator.RK4_STABILITY / (lam - g_min)
        run(s.with_controls(dt=limit, scheme="direct"))
        with pytest.raises(ValueError, match="^dt must .* stable direct step"):
            run(s.with_controls(dt=math.nextafter(limit, math.inf), scheme="direct"))

    def test_stable_dt_and_the_direct_scheme_run(self):
        t = run(make_scenario(t_end=17.0, dt=1.7, **self.TINY))
        assert round(t.final_state.t / 1.7) == 10 and not t.breaches
        # the direct bound is lower: lambda* = 1.5994 + 0.2450 (G_min = -0.2450)
        t = run(make_scenario(t_end=15.0, dt=1.5, scheme="direct", **self.TINY))
        assert round(t.final_state.t / 1.5) == 10 and not t.breaches
        with pytest.raises(ValueError, match=r"^dt must be <= 1\.50997 for a stable direct step"):
            run(make_scenario(t_end=50.0, dt=5.0, scheme="direct", **self.TINY))

    def test_no_shipped_scenario_rejected(self):
        paths = [*sorted(SCENARIO_DIR.glob("*.ini")), DATA_DIR / "tiny.ini"]
        for path in paths:
            s = load_scenario(path)
            run(s.with_controls(t_end=0.0, snapshot_times=()))


class TestRun:
    def test_zero_t_end_gives_only_initial_record(self):
        t = run(make_scenario(t_end=0.0))
        assert len(t.records) == 1
        assert t.records[0].t == 0.0

    def test_records_strictly_increasing_from_zero(self):
        t = run(make_scenario(b="2 - (x-0.3)^2", t_end=0.1, sample_every=10))
        ts = [r.t for r in t.records]
        assert ts[0] == 0.0
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert len(t.records) == 11

    def test_final_step_recorded_when_unaligned(self):
        t = run(make_scenario(t_end=0.025, dt=1e-3, sample_every=10))
        assert [round(r.t, 6) for r in t.records] == [0.0, 0.01, 0.02, 0.025]

    def test_warns_when_t_end_not_multiple_of_dt(self):
        with pytest.warns(UserWarning, match="not an integer multiple"):
            t = run(make_scenario(t_end=0.0204, dt=1e-3, sample_every=100))
        assert t.records[-1].t == pytest.approx(0.02, rel=1e-9)

    def test_bit_identical_reruns(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", t_end=0.5, sample_every=25)
        t1 = run(s)
        t2 = run(s)
        for r1, r2 in zip(t1.records, t2.records):
            assert r1 == r2
        assert np.array_equal(t1.final_state.log_u, t2.final_state.log_u)

    def test_fast_path_matches_public_steps_bitwise(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", t_end=0.2, sample_every=100)
        t = run(s)
        st = init_state(s)
        for _ in range(200):
            st = step_exponential(st, s.dt, s)
        assert st.rho == t.records[-1].rho
        assert st.A == t.final_state.A and st.B == t.final_state.B
        assert np.array_equal(st.log_u, t.final_state.log_u)

    @pytest.mark.parametrize("b, d, u0, stop_tol", [
        ("2 - (x-0.3)^2", "1 + x", "1 + x", None),  # array d and log u0
        ("2 - (x-0.3)^2", "1", "ind(0.2, 0.7)", None),  # float d, no log u0
        ("6", "1", "2*ind(0, 1)", 1e-6),  # float log u0, stationary: stops early
    ])
    def test_run_matches_repeated_steps_bitwise(self, b, d, u0, stop_tol):
        # every 4 steps, snapshots at steps 7 and 50 fall between samples and
        # 102 steps end off the sampling grid; every step, each is a sample
        for every in (4, 1):
            s = make_scenario(
                b=b, d=d, u0=u0, n_cells=50, t_end=0.102 if stop_tol is None else 5.0,
                sample_every=every, stop_tol=stop_tol, snapshot_times=(0.0, 0.007, 0.05),
            )
            t = run(s)
            n_steps = round(t.final_state.t / s.dt)
            assert (t.early_stop_t is not None) == (stop_tol is not None)
            assert n_steps == (102 if stop_tol is None else every * integrator.STOP_WINDOW)
            records, snapshots, final = _stepped(s, n_steps)
            assert len(t.records) == len(records) == 1 + -(-n_steps // every)
            assert [_bits(r) for r in t.records] == [_bits(r) for r in records]
            assert [_bits(x) for x in t.snapshots] == [_bits(x) for x in snapshots]
            assert _bits(t.final_state) == _bits(final)

    @pytest.mark.parametrize("scheme", ["exponential", "direct"])
    def test_one_advance_and_one_kernel_per_run(self, monkeypatch, scheme):
        # the kernel factory runs once, however many states the run observes
        factory, built = integrator._mass_kernel, []
        monkeypatch.setattr(integrator, "_mass_kernel", lambda t: built.append(t) or factory(t))
        for every in (1, 7, 1000):
            s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", n_cells=50, t_end=0.06,
                              sample_every=every, snapshot_times=(0.0, 0.013), scheme=scheme)
            assert len(run(s).records) == 1 + -(-60 // every)
        assert len(built) == (3 if scheme == "exponential" else 0)

    def test_nan_mass_mid_run_raises_with_exact_partial(self, monkeypatch):
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", n_cells=50, t_end=0.1, sample_every=4)
        records, _, final = _stepped(s, 23)
        factory, calls = integrator._mass_kernel, []

        def nan_from_step_24(tables):  # 4 kernel calls per step
            mass = factory(tables)

            def kernel(A, B, *scratch):
                calls.append(None)
                return math.nan if len(calls) > 4 * 23 + 1 else mass(A, B, *scratch)

            return kernel

        monkeypatch.setattr(integrator, "_mass_kernel", nan_from_step_24)
        with pytest.raises(IntegrationError, match="NaN") as exc:
            run(s)
        assert type(exc.value) is IntegrationError
        partial = exc.value.partial
        assert [_bits(r) for r in partial.records] == [_bits(r) for r in records[:6]]
        assert _bits(partial.final_state) == _bits(final)
        with pytest.raises(IntegrationError, match="NaN"):
            step_exponential(final, s.dt, s)

    def test_failed_step_keeps_its_state_and_trajectory_is_frozen(self, monkeypatch):
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + x", u0="(1 + x)*ind(0.2, 0.7)", n_cells=50)
        t = run(s)
        for name in Trajectory._fields:
            with pytest.raises(AttributeError):
                setattr(t, name, getattr(t, name))
        states = [init_state(s)]
        states.append(step_exponential(states[0], s.dt, s))
        monkeypatch.setattr(integrator, "_mass_kernel", lambda tables: lambda *args: math.nan)
        for st in states:
            with pytest.raises(IntegrationError, match="NaN") as exc:
                step_exponential(st, s.dt, s)
            assert _bits(exc.value.state) == _bits(st)

    @pytest.mark.parametrize("u0", ["1 + x", "ind(0.2, 0.7)"])
    def test_direct_run_matches_repeated_steps_bitwise(self, u0):
        # snapshots at steps 7 and 50 fall between samples; 102 steps end
        # off the sampling grid
        s = make_scenario(
            b="2 - (x-0.3)^2", d="1 + x", u0=u0, n_cells=50, t_end=0.102,
            sample_every=4, snapshot_times=(0.0, 0.007, 0.05), scheme="direct",
        )
        t = run(s)
        records, snapshots, final = _stepped(s, 102, step_direct)
        assert [_bits(r) for r in t.records] == [_bits(r) for r in records]
        assert [_bits(x) for x in t.snapshots] == [_bits(x) for x in snapshots]
        assert _bits(t.final_state) == _bits(final)

    def test_direct_failure_mid_run_keeps_exact_partial(self, monkeypatch):
        # step 24 fails; step 23, the last that succeeded, is off the sampling grid
        s = make_scenario(
            b="2 - (x-0.3)^2", d="1 + x", n_cells=50, t_end=0.1, sample_every=4,
            snapshot_times=(0.0, 0.007, 0.05), scheme="direct",
        )
        records, snapshots, final = _stepped(s, 23, step_direct)
        rates, calls = integrator.fitness_on_nodes, []

        def nan_from_step_24(*args):  # 4 rate evaluations per step
            calls.append(None)
            return math.nan if len(calls) > 4 * 23 else rates(*args)

        monkeypatch.setattr(integrator, "fitness_on_nodes", nan_from_step_24)
        with pytest.raises(IntegrationError, match="non-finite density") as exc:
            run(s)
        assert type(exc.value) is IntegrationError
        partial = exc.value.partial
        assert [_bits(r) for r in partial.records] == [_bits(r) for r in records[:6]]
        assert [_bits(x) for x in partial.snapshots] == [_bits(x) for x in snapshots]
        assert _bits(partial.final_state) == _bits(final)

    def test_observation_schedule_is_not_materialised(self):
        # 1e6 steps stop after 100 samples; a list of the sampled steps alone
        # would take several MB
        s = make_scenario(
            b="2", d="1", u0="ind(0, 1)", t_end=1000.0, dt=1e-3,
            sample_every=1, stop_tol=1e-6,
        )
        tracemalloc.start()
        try:
            t = run(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(t.records) == 101
        assert peak < 1 << 20

    def test_support_conservation_through_run(self):
        s = make_scenario(u0="ind(0.2, 0.7)", b="2 - (x-0.3)^2", t_end=2.0, n_cells=40)
        t = run(s)
        final_support = t.final_state.log_u > -np.inf
        np.testing.assert_array_equal(final_support, s.support_mask)

    def test_corridor_breach_recorded_not_raised(self, monkeypatch):
        # deliberately coarse direct step destabilizes the mass; run refuses
        # it unless the stability bound is lifted
        s = make_scenario(
            b=TWO_PEAK_B, d="1", n_cells=100, t_end=30.0, dt=10.0,
            sample_every=1, scheme="direct",
        )
        with pytest.raises(ValueError, match="^dt must"):
            run(s)
        monkeypatch.setattr(integrator, "RK4_STABILITY", math.inf)
        t = run(s)
        assert t.breaches
        assert "corridor breach" in t.breaches[0]

    def test_snapshots_capture_requested_times(self):
        s = make_scenario(t_end=0.02, dt=1e-3, snapshot_times=(0.0, 0.01))
        t = run(s)
        assert [snap.requested_t for snap in t.snapshots] == [0.0, 0.01]
        np.testing.assert_array_equal(
            np.exp(t.snapshots[0].log_u), s.u0_nodes
        )

    def test_early_stop_window(self):
        # stationary scenario satisfies the stop rule from the first sample
        s = make_scenario(
            b="2", d="1", u0="ind(0, 1)", t_end=5.0, dt=1e-3,
            sample_every=1, stop_tol=1e-6,
        )
        t = run(s)
        assert t.early_stop_t is not None
        assert t.early_stop_t < 5.0
        assert len(t.records) == 101  # initial + 100-sample stop window

    def test_overflow_mid_run_attaches_partial(self, monkeypatch):
        # a dt that extrapolates the exponents past double range is refused by
        # the stability bound, so the kernel raises the overflow itself
        def overflow(*args):
            raise ExponentOverflow("total mass overflows: log rho = 800", exponent=800.0)

        monkeypatch.setattr(integrator, "_mass_kernel", lambda tables: overflow)
        s = make_scenario(b="3", d="1", t_end=1.0, dt=0.1, sample_every=1)
        with pytest.raises(ExponentOverflow) as exc:
            run(s)
        partial = exc.value.partial
        assert partial is not None
        assert len(partial.records) == 1
        assert partial.records[0].t == 0.0

    def test_fingerprint_reflects_inputs(self):
        s = make_scenario()
        assert scenario_fingerprint(s) == scenario_fingerprint(make_scenario())
        assert scenario_fingerprint(s) != scenario_fingerprint(make_scenario(dt=2e-3))
        assert run(make_scenario(t_end=0.0)).fingerprint == scenario_fingerprint(
            make_scenario(t_end=0.0)
        )
        # every optional field set; pinned so the fingerprint text cannot drift
        s = make_scenario(
            n_cells=40, stop_tol=1e-9, snapshot_times=(0.0, 0.5), epsilon=0.1, tail_R=-2.5
        )
        assert scenario_fingerprint(s) == "127a9864032cce54"

    def test_fingerprint_is_the_sha256_of_its_payload(self):
        # the payload built as scenario_fingerprint builds it, hashed by hashlib
        paths = [*sorted(SCENARIO_DIR.glob("*.ini")), DATA_DIR / "tiny.ini"]
        assert len(paths) == 6
        for path in paths:
            s = load_scenario(path)
            payload = "\n".join(
                f"{name}={value}" if isinstance(value, str) else f"{name}={value!r}"
                for name, value in scenario_items(s)
            ).encode()
            assert scenario_fingerprint(s) == hashlib.sha256(payload).hexdigest()[:16], path

    def test_only_the_exponential_scheme_builds_support_tables(self):
        direct = make_scenario(t_end=0.01, scheme="direct")
        run(direct)
        assert "support_tables" not in vars(direct)
        exponential = make_scenario(t_end=0.01)
        run(exponential)
        assert "support_tables" in vars(exponential)

    def test_direct_and_exponential_runs_agree(self):
        exp = run(make_scenario(b=TWO_PEAK_B, n_cells=100, t_end=5.0, sample_every=100))
        dire = run(
            make_scenario(
                b=TWO_PEAK_B, n_cells=100, t_end=5.0, sample_every=100, scheme="direct"
            )
        )
        diffs = [
            abs(a.rho - b.rho) for a, b in zip(exp.records, dire.records)
        ]
        assert max(diffs) < 1e-8


def _bits(obj):
    """Every field of a record, snapshot or state, float bits included."""
    return [
        v.tobytes() if isinstance(v, np.ndarray) else repr(v)
        for v in obj
    ]


def _stepped(s, n_steps, step=step_exponential):
    """run's records, snapshots and final state, rebuilt from repeated steps."""
    st = init_state(s)
    snap_steps = {round(tau / s.dt): tau for tau in s.snapshot_times}
    records = [make_record(st, s)]
    snapshots = [DensitySnapshot(snap_steps[0], st.t, st.log_u)] if 0 in snap_steps else []
    for k in range(1, n_steps + 1):
        st = step(st, s.dt, s)
        if k in snap_steps:
            snapshots.append(DensitySnapshot(snap_steps[k], st.t, st.log_u))
        if k % s.sample_every == 0 or k == n_steps:
            records.append(make_record(st, s))
    return records, snapshots, st


class TestRandomScenarios:
    """Invariant fuzzing over randomly shaped positive rate functions."""

    @staticmethod
    def _random_scenario(rng):
        b = (
            f"{rng.uniform(0.5, 2.0):.4f}"
            f" + {rng.uniform(0.2, 2.0):.4f}"
            f"*exp(-{rng.uniform(5.0, 60.0):.2f}*(x - {rng.uniform(0.1, 0.9):.3f})^2)"
        )
        d = f"{rng.uniform(0.3, 1.5):.4f} + {rng.uniform(0.0, 1.0):.4f}*x^2"
        lo = rng.uniform(0.0, 0.3)
        hi = rng.uniform(lo + 0.2, 1.0)
        scale = rng.uniform(0.2, 3.0)
        return make_scenario(
            b=b,
            d=d,
            u0=f"{scale:.4f}*ind({lo:.3f}, {hi:.3f})",
            n_cells=32,
            t_end=1.0,
            dt=1e-2,
            sample_every=5,
        )

    def test_invariants_hold(self):
        import random

        rng = random.Random(77)
        for _ in range(10):
            s = self._random_scenario(rng)
            t = run(s)
            pred = t.prediction
            rhos = np.array([r.rho for r in t.records])
            assert np.all(rhos >= pred.rho_m - 1e-6)
            assert np.all(rhos <= pred.rho_M + 1e-6)
            Vs = np.array([r.V for r in t.records])
            assert np.all(Vs[1:] >= Vs[:-1] - 1e-8 * (1.0 + np.abs(Vs[:-1])))
            assert all(r.D >= 0.0 and r.W >= 0.0 for r in t.records)
            np.testing.assert_array_equal(
                t.final_state.log_u > -np.inf, s.support_mask
            )
