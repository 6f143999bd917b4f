"""Static analysis: equilibrium algebra, corridor, quadrature, predictions."""

import math
import pickle
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, make_scenario
from traitsim.cli import load_scenario
from traitsim.model import (
    MAX_CELLS,
    MAX_STEPS,
    AssumptionWarning,
    EquilibriumPrediction,
    Grid,
    Scenario,
    apriori_corridor,
    check_tail_condition,
    equilibrium_mass,
    fitness_on_nodes,
    positive_root,
    predict_equilibrium,
    quadrature,
    trapezoid_weights,
)


class TestGrid:
    def test_nodes_hit_decimal_fractions_exactly(self):
        g = Grid(0.0, 1.0, 10)
        assert g.nodes[3] == 0.3
        assert g.nodes[5] == 0.5
        assert g.nodes[-1] == 1.0
        g2 = Grid(0.0, 1.0, 2000)
        assert g2.nodes[600] == 0.3
        assert g2.nodes[500] == 0.25

    def test_uniform_increasing(self):
        g = Grid(-1.0, 2.0, 7)
        d = np.diff(g.nodes)
        assert np.all(d > 0)
        np.testing.assert_allclose(d, g.dx, rtol=1e-12)
        assert g.n_nodes == 8

    def test_validation(self):
        for x_min, x_max in ((1.0, 0.0), (-math.inf, 1.0), (0.0, math.inf), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="x_min < x_max with a finite width"):
                Grid(x_min, x_max, 10)
        with pytest.raises(ValueError, match="n_cells"):
            Grid(0.0, 1.0, 1)
        assert Grid(0.0, 1.0, MAX_CELLS).n_nodes == MAX_CELLS + 1  # nodes not yet built
        with pytest.raises(ValueError, match="^n_cells must"):
            Grid(0.0, 1.0, MAX_CELLS + 1)

    def test_nodes_finer_than_float_spacing_rejected(self):
        with pytest.raises(ValueError, match="^grid nodes must be strictly increasing.*n_cells"):
            Grid(1e16, 1.000000000000001e16, 10)  # dx = 0.8, float spacing 2
        # at one float spacing per cell the nodes still increase, so the grid stands
        assert np.all(np.diff(Grid(1.0, 1.0 + 45 * 2.0**-52, 45).nodes) > 0.0)

    def test_ordinary_grids_accepted_without_building_nodes(self):
        # the spacing bound settles these: a 1e7-cell grid allocates no nodes
        domains = [(0.0, 1.0, 10**7)] + [
            (g.x_min, g.x_max, g.n_cells)
            for g in (load_scenario(path).grid for path in sorted(SCENARIO_DIR.glob("*.ini")))
        ]
        grids = [Grid(*domain) for domain in domains]
        assert len(grids) == 6
        assert not any("nodes" in vars(g) for g in grids)

    def test_window_epsilon_must_be_positive(self):
        g = Grid(0.0, 1.0, 10)
        for eps in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="epsilon must be > 0"):
                g.window(0.5, eps)


class TestPositiveRoot:
    def test_anchors_exact(self):
        assert positive_root(2.0) == 1.0
        assert positive_root(6.0) == 2.0
        assert positive_root(0.0) == 0.0

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            positive_root(-0.5)

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_defining_identity(self, kappa):
        r = positive_root(kappa)
        assert r >= 0.0
        assert abs(r * (1.0 + r) - kappa) <= 1e-12 * (1.0 + kappa)

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=1e-9, max_value=10.0),
    )
    def test_monotone(self, kappa, gap):
        assert positive_root(kappa) < positive_root(kappa + gap)


class TestEquilibriumMass:
    def test_linear_crowding_root_is_kappa(self):
        assert equilibrium_mass(3.7, 0.0) == 3.7

    def test_matches_positive_root_at_c0_one(self):
        for kappa in (0.0, 0.5, 2.0, 6.0, 55.0):
            assert equilibrium_mass(kappa, 1.0) == pytest.approx(
                positive_root(kappa), rel=1e-15
            )

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=1e-3, max_value=5.0),
    )
    def test_defining_identity_general(self, kappa, c0):
        r = equilibrium_mass(kappa, c0)
        assert abs(r * (1.0 + c0 * r) - kappa) <= 1e-11 * (1.0 + kappa)

    @given(
        st.floats(min_value=1e-300, max_value=1e300),
        st.floats(min_value=-323.0, max_value=308.0),
    )
    def test_defining_identity_at_any_scale(self, kappa, exponent):
        # c0 from subnormal to near overflow: no cancellation for 4 c0 kappa < 1
        # (c0 = 1e-12 was off by 2.2e-5), no inf / inf once 2 c0 overflows
        c0 = 10.0**exponent
        assume(c0 > 0.0 and 4.0 * c0 * kappa < math.inf)
        r = equilibrium_mass(kappa, c0)
        assert abs(r * (1.0 + c0 * r) - kappa) <= 2e-15 * kappa

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
    def test_keeps_its_bits_where_4_c0_kappa_is_at_least_1(self, kappa, c0):
        # every canonical and benchmark prediction lies here
        assume(4.0 * c0 * kappa >= 1.0)
        want = (math.sqrt(1.0 + 4.0 * c0 * kappa) - 1.0) / (2.0 * c0)
        assert equilibrium_mass(kappa, c0) == want


class TestFitness:
    def test_goldens(self):
        s = make_scenario(b="2", d="1")
        assert np.all(fitness_on_nodes(1.0, s) == 0.0)
        assert np.all(fitness_on_nodes(0.0, s) == 2.0)
        s2 = make_scenario(b="3", d="2")
        np.testing.assert_allclose(fitness_on_nodes(0.5, s2), 1.0, rtol=1e-15)

    @given(st.floats(min_value=1e-6, max_value=5.0))
    def test_strictly_decreasing_in_rho(self, drho):
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + x")
        rho = 0.3
        assert np.all(fitness_on_nodes(rho, s) > fitness_on_nodes(rho + drho, s))

    def test_zero_at_predicted_equilibrium(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1", n_cells=10)
        pred = predict_equilibrium(s)
        assert abs(fitness_on_nodes(pred.rho_bar, s)[pred.x_bar_index]) <= 1e-12


class TestQuadrature:
    def test_constant_one(self):
        g = Grid(0.0, 1.0, 10)
        assert quadrature(np.ones(11), g) == pytest.approx(1.0, rel=1e-15)

    def test_exact_on_linear(self):
        g = Grid(0.0, 1.0, 10)
        assert quadrature(g.nodes.copy(), g) == 0.5

    def test_quadratic_derived(self):
        # oracle: analytic integral of x^2 over [0,1] is 1/3
        g = Grid(0.0, 1.0, 1000)
        assert abs(quadrature(g.nodes**2, g) - 1.0 / 3.0) < 1e-6

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid(0.0, 2.0, 16)
        v = rng.uniform(0.0, 5.0, g.n_nodes)
        w = rng.uniform(0.0, 5.0, g.n_nodes)
        a = float(rng.uniform(0.0, 3.0))
        lhs = quadrature(a * v + w, g)
        rhs = a * quadrature(v, g) + quadrature(w, g)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_bad_input(self):
        g = Grid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="non-finite"):
            quadrature(np.array([1.0, np.nan, 1.0, 1.0, 1.0]), g)
        with pytest.raises(ValueError, match="negative"):
            quadrature(np.array([1.0, -1.0, 1.0, 1.0, 1.0]), g)
        with pytest.raises(ValueError, match="expected 5 node values"):
            quadrature(np.ones(4), g)

    def test_weights_sum_to_length(self):
        g = Grid(0.0, 3.0, 12)
        assert trapezoid_weights(g).sum() == pytest.approx(3.0, rel=1e-14)

    def test_grid_weights_cached_read_only(self):
        g = Grid(0.0, 3.0, 12)
        assert g.weights is g.weights and not g.weights.flags.writeable
        assert g.weights.tobytes() == trapezoid_weights(g).tobytes()


class TestPredictEquilibrium:
    def test_interior_maximum(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1", n_cells=10)
        pred = predict_equilibrium(s)
        assert pred.x_bar == 0.3
        assert pred.rho_bar == 1.0
        assert pred.kappa == 2.0
        assert not pred.x_bar_on_boundary

    def test_boundary_maximum(self):
        s = make_scenario(b="1+x", d="1", n_cells=10)
        pred = predict_equilibrium(s)
        assert pred.x_bar == 1.0
        assert pred.rho_bar == 1.0
        assert pred.x_bar_on_boundary

    def test_corridor_roots_closed_form(self):
        s = make_scenario(b="1+x", d="1", n_cells=10)
        pred = predict_equilibrium(s)
        assert pred.b_m == 1.0 and pred.b_M == 2.0
        assert pred.r_m == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
        assert pred.r_M == 1.0

    def test_prediction_invariants(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1 + 0.5*x", n_cells=50)
        pred = predict_equilibrium(s)
        assert abs(pred.rho_bar * (1 + pred.rho_bar) - pred.kappa) <= 1e-12 * (
            1 + pred.kappa
        )
        assert 0.0 < pred.rho_m <= pred.rho_M
        rho0 = s.rho0
        assert pred.rho_m == min(pred.r_m, rho0)
        assert pred.rho_M == max(pred.r_M, rho0)

    def test_tie_break_smallest_x_with_warning(self):
        s = make_scenario(b="1", d="1", n_cells=10)
        with pytest.warns(AssumptionWarning, match="unique-maximizer"):
            pred = predict_equilibrium(s)
        assert pred.x_bar == 0.0
        assert pred.x_bar_on_boundary

    def test_off_support_peak_lands_on_support_edge(self):
        # support [0, 0.4]; b/d still increasing there, so the argmax over
        # the support is its edge node: the empty node beyond gets no mass
        s = make_scenario(b="2 - (x-0.8)^2", d="1", u0="ind(0, 0.4)", n_cells=10)
        pred = predict_equilibrium(s)
        assert pred.x_bar == 0.4 and pred.x_bar_index == 4
        assert pred.kappa == s.b.sample(np.array([0.4]))[0]
        assert pred.x_bar_on_boundary

    def test_scaling_invariance(self):
        base = make_scenario(b="2 - (x-0.3)^2", d="1 + x", n_cells=20)
        scaled = make_scenario(
            b="3.7*(2 - (x-0.3)^2)", d="3.7*(1 + x)", n_cells=20
        )
        p0 = predict_equilibrium(base)
        p1 = predict_equilibrium(scaled)
        assert p1.x_bar == p0.x_bar
        assert p1.rho_bar == pytest.approx(p0.rho_bar, rel=1e-12)

    def test_c0_zero_uses_linear_root(self):
        s = make_scenario(b="2 - (x-0.3)^2", d="1", n_cells=10, c0=0.0)
        pred = predict_equilibrium(s)
        assert pred.rho_bar == 2.0  # b/d at the peak, no quadratic crowding
        assert pred.r_M == 2.0

    def test_empty_support_rejected(self):
        s = make_scenario(u0="0")
        with pytest.raises(ValueError, match="zero initial mass"):
            predict_equilibrium(s)


class TestCorridor:
    def test_spec_examples(self):
        pred = EquilibriumPrediction(
            x_bar=0.0,
            x_bar_index=0,
            rho_bar=1.0,
            kappa=2.0,
            b_m=1.0,
            b_M=2.0,
            d_m=1.0,
            d_M=1.0,
            r_m=0.618,
            r_M=1.0,
            rho_m=0.618,
            rho_M=1.0,
            x_bar_on_boundary=False,
        )
        assert apriori_corridor(pred, 0.8) == (0.618, 1.0)
        assert apriori_corridor(pred, 0.1) == (0.1, 1.0)
        assert apriori_corridor(pred, 5.0) == (0.618, 5.0)

    def test_nonpositive_rho0_rejected(self):
        pred = predict_equilibrium(make_scenario(n_cells=4))
        with pytest.raises(ValueError):
            apriori_corridor(pred, 0.0)


class TestTailCondition:
    def _pred(self, rho_bar):
        return EquilibriumPrediction(
            x_bar=0.0,
            x_bar_index=0,
            rho_bar=rho_bar,
            kappa=rho_bar * (1 + rho_bar),
            b_m=1.0,
            b_M=1.0,
            d_m=1.0,
            d_M=1.0,
            r_m=rho_bar,
            r_M=rho_bar,
            rho_m=rho_bar,
            rho_M=rho_bar,
            x_bar_on_boundary=False,
        )

    def test_vacuous_when_no_tail_nodes(self):
        s = make_scenario(n_cells=10)  # grid inside |x| < 5
        assert check_tail_condition(s, self._pred(1.0), 5.0) is None

    def test_negative_certificate(self):
        s = make_scenario(
            b="1", d="1", u0="ind(-1, 1)", x_min=-10.0, x_max=10.0, n_cells=100
        )
        alpha = check_tail_condition(s, self._pred(1.0), 5.0)
        assert alpha == pytest.approx(-0.5, abs=1e-15)

    def test_positive_tail_detected(self):
        s = make_scenario(
            b="2", d="1", u0="ind(-1, 1)", x_min=-10.0, x_max=10.0, n_cells=100
        )
        alpha = check_tail_condition(s, self._pred(0.5), 5.0)
        assert alpha == pytest.approx(2.0 / 1.5 - 0.5, rel=1e-12)

    def test_failing_certificate_warns_in_prediction(self):
        s = make_scenario(
            b="2",
            d="1",
            u0="ind(-1, 1)",
            x_min=-10.0,
            x_max=10.0,
            n_cells=100,
            tail_R=5.0,
        )
        # constant fitness: G(x, rho_bar) = 0 everywhere, so alpha_R = 0 fails
        with pytest.warns(AssumptionWarning, match="tail certificate failed"):
            pred = predict_equilibrium(s)
        assert pred.alpha_R == pytest.approx(0.0, abs=1e-15)
        assert any("tail" in note for note in pred.notes)


class TestScenarioValidation:
    def test_rejects_nonpositive_b(self):
        with pytest.raises(ValueError, match="b must be positive"):
            make_scenario(b="x").validate()  # b(0) = 0

    def test_rejects_negative_u0(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_scenario(u0="x - 0.5").validate()

    def test_grid_checks_run_once_per_scenario(self):
        s = make_scenario(b="2 - (x-0.3)^2", u0="ind(0.2, 0.6)").validate()
        for name in ("b_nodes", "d_nodes", "u0_nodes"):  # any later pass over the grid fails
            vars(s)[name] = None
        t = s.with_controls(t_end=2.0, dt=1e-2)
        assert s.validate() is s and t.validate() is t
        assert t.rho0 is s.rho0
        with pytest.raises(ValueError, match="dt"):  # the scalar checks still run
            s.with_controls(dt=0.0).validate()

    def test_failed_grid_check_is_not_cached(self):
        s = make_scenario(u0="ind(0.2, 0.6) - 0.5")
        for scenario in (s, s, s.with_controls(t_end=2.0)):
            with pytest.raises(ValueError, match="^u0 must be nonnegative on the grid$"):
                scenario.validate()
            assert "rho0" not in vars(scenario)

    def test_rejects_bad_dt_and_scheme(self):
        with pytest.raises(ValueError, match="dt"):
            make_scenario(dt=0.0).validate()
        with pytest.raises(ValueError, match="scheme"):
            make_scenario(scheme="euler").validate()
        with pytest.raises(ValueError, match="t_end"):
            make_scenario(t_end=-1.0).validate()
        with pytest.raises(ValueError, match="sample_every"):
            make_scenario(sample_every=0).validate()

    def test_t_end_zero_allowed(self):
        make_scenario(t_end=0.0).validate()

    def test_step_budget_allows_exactly_max_steps(self):
        assert 100.0 / 1e-6 == MAX_STEPS
        make_scenario(t_end=100.0, dt=1e-6).validate()

    @pytest.mark.parametrize(
        "changes, key",
        [
            ({"c0": math.nan}, "c0"),
            ({"c0": math.inf}, "c0"),
            ({"t_end": math.inf}, "t_end"),
            ({"t_end": math.nan}, "t_end"),
            ({"dt": math.nan}, "dt"),
            ({"dt": math.inf}, "dt"),
            ({"dt": 1e-320, "t_end": 1e10}, "dt"),  # t_end / dt overflows
            ({"stop_tol": -1.0}, "stop_tol"),
            ({"stop_tol": math.nan}, "stop_tol"),
            ({"epsilon": math.inf}, "epsilon"),
            ({"tail_R": math.nan}, "tail_R"),
            ({"snapshot_times": (-5.0,)}, "snapshot_times"),
            ({"snapshot_times": (0.0, 1e9)}, "snapshot_times"),
            ({"snapshot_times": (math.nan,)}, "snapshot_times"),
            ({"dt": 1e-300}, "dt"),  # 1e300 steps
            ({"dt": 1e-6, "t_end": 100.000001}, "dt"),  # just over the step budget
            ({"c0": 1e308}, "c0"),  # 4 c0 b_M / d_m overflows
            ({"c0": 1e300, "d": "1e-10"}, "c0"),
            ({"c0": 0.0, "b": "1 + 1e300*ind(0.5, 0.5)", "d": "1 - (1 - 1e-10)*ind(0.9, 1)"},
             "b and d"),  # b_M / d_m overflows for every c0
            ({"b": "1 + 1e300*ind(0.5, 0.5)", "d": "1 - (1 - 1e-10)*ind(0.9, 1)"}, "b and d"),
        ],
    )
    def test_rejects_non_finite_or_out_of_range(self, changes, key):
        with pytest.raises(ValueError, match=f"^{key} must"):
            make_scenario(**changes).validate()

    def test_rejects_nan_rate_nodes(self):
        # NaN for x >= 0.71; min and max of the nodes must not skip it
        s = make_scenario(b="1 + 0*(exp(1000*x) - exp(1000*x))")
        assert np.isnan(s.b_nodes).any() and not np.isnan(s.b_nodes).all()
        with pytest.raises(ValueError, match="b must be positive and finite"):
            s.validate()
        with pytest.raises(ValueError, match="d must be positive and finite"):
            make_scenario(d="exp(1000*x)").validate()

    def test_rejects_snapshot_times_sharing_a_file_name(self):
        # snapshot_{t:g}.csv keeps six significant digits
        for times in ((0.0050000001, 0.0050000002), (1.0, 1.0000001)):
            with pytest.raises(ValueError, match=r"^snapshot_times must differ in 6 significant"):
                make_scenario(t_end=2.0, snapshot_times=times).validate()
        # repeats of one time share one file legitimately, and the benchmark's
        # times (0 and multiples of 0.125) all pass
        make_scenario(t_end=2.0, snapshot_times=(0.5, 0.5, 0.50001)).validate()
        make_scenario(t_end=5.0, snapshot_times=tuple(k * 0.125 for k in range(41))).validate()

    def test_pickle_round_trip_samples_identically(self):
        s = make_scenario(b="1 + exp(-200*(x - 0.25)^2)", u0="ind(0.1, 0.9)").validate()
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s
        nodes = s.grid.nodes
        for original, restored in ((s.b, copy.b), (s.d, copy.d), (s.u0, copy.u0)):
            assert restored.sample(nodes).tobytes() == original.sample(nodes).tobytes()
        assert predict_equilibrium(copy) == predict_equilibrium(s)

    def test_with_controls_keeps_sampled_nodes(self):
        s = make_scenario(b="2 - (x-0.3)^2").validate()
        assert s.support_mask.all() and s.support_tables.support == slice(0, s.grid.n_nodes)
        t = s.with_controls(t_end=2.0, dt=1e-2, scheme="direct")
        assert (t.t_end, t.dt, t.scheme, t.grid, t.b) == (2.0, 1e-2, "direct", s.grid, s.b)
        for name in ("b_nodes", "d_nodes", "u0_nodes", "support_mask", "support_tables"):
            assert getattr(t, name) is getattr(s, name)
        with pytest.raises(ValueError, match="grid"):
            s.with_controls(grid=Grid(0.0, 1.0, 10))

    def test_with_controls_shares_every_cache(self):
        s = make_scenario(b="2 - (x-0.3)^2", u0="ind(0.2, 0.6)", tail_R=0.5).validate()
        cached = [n for n, v in vars(Scenario).items() if isinstance(v, cached_property)]
        assert {"ratio", "maximizers", "support_tables", "record_tables"} <= set(cached)
        values = {name: getattr(s, name) for name in cached}
        t = s.with_controls(t_end=2.0, dt=1e-2, sample_every=3, scheme="direct", stop_tol=1e-6,
                            snapshot_times=(1.0,))
        assert all(getattr(t, name) is value for name, value in values.items())

    @pytest.mark.parametrize("name, value", [("c0", 0.5), ("epsilon", 0.1), ("tail_R", 0.5)])
    def test_with_controls_refuses_what_the_caches_read(self, name, value):
        s = make_scenario()
        with pytest.raises(ValueError, match=f"with_controls changes only .*got \\['{name}'\\]"):
            s.with_controls(**{name: value})

    def test_concentration_epsilon_default(self):
        s = make_scenario(n_cells=100)
        assert s.concentration_epsilon == pytest.approx(5 * 0.01, rel=1e-15)
        assert make_scenario(epsilon=0.2).concentration_epsilon == 0.2
