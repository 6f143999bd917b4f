"""Pins the closed-form predictions of every shipped scenario file."""

import warnings

import numpy as np
import pytest

from conftest import SCENARIO_DIR, make_scenario
from traitsim.cli import load_scenario
from traitsim.integrator import run
from traitsim.model import AssumptionWarning, positive_root, predict_equilibrium
from traitsim.oracle import Atom, AtomSystem, integrate_atoms


def predict(name):
    scenario = load_scenario(SCENARIO_DIR / f"{name}.ini")
    with warnings.catch_warnings():
        warnings.simplefilter("error", AssumptionWarning)
        return scenario, predict_equilibrium(scenario)


def test_gaussian_ratio_prediction():
    scenario, pred = predict("gaussian_ratio")
    assert pred.x_bar == 0.3
    assert pred.kappa == 2.0
    assert pred.rho_bar == 1.0
    assert not pred.x_bar_on_boundary
    assert pred.b_m == pytest.approx(1.51, rel=1e-15)
    assert pred.r_m == pytest.approx(positive_root(1.51), rel=1e-15)
    assert pred.r_M == 1.0
    assert scenario.rho0 == pytest.approx(1.0, rel=1e-12)


def test_boundary_blowup_prediction():
    _, pred = predict("boundary_blowup")
    assert pred.x_bar == 1.0
    assert pred.rho_bar == 1.0
    assert pred.x_bar_on_boundary
    assert (pred.b_m, pred.b_M) == (1.0, 2.0)
    assert pred.r_m == pytest.approx(positive_root(1.0), rel=1e-15)


def test_two_atom_prediction():
    # the argmax runs over the two spike nodes only: the winning spike itself,
    # without a tie with its empty neighbours
    scenario, pred = predict("two_atom")
    assert pred.x_bar == 0.25
    assert pred.kappa == 2.0
    assert pred.rho_bar == 1.0
    assert pred.x_bar_on_boundary
    assert scenario.rho0 == pytest.approx(1.0, rel=1e-12)
    assert int(scenario.support_mask.sum()) == 2


def test_off_support_peak_prediction():
    scenario, pred = predict("off_support_peak")
    # fitness peaks at 0.8 but the support ends at 0.5: the reachable
    # optimum is the support's edge node, where the mass piles up
    assert pred.x_bar == 0.5
    assert pred.x_bar_on_boundary
    b_edge = scenario.b.sample(np.array([0.5]))[0]
    assert pred.kappa == b_edge
    assert pred.rho_bar == positive_root(b_edge) == 0.9696938456699069
    assert scenario.rho0 == pytest.approx(0.50025, rel=1e-12)


def test_two_peak_prediction():
    _, pred = predict("two_peak")
    assert pred.x_bar == 0.25
    assert pred.kappa == 2.0  # the far peak's tail rounds away below 1 ulp
    assert pred.rho_bar == 1.0
    assert not pred.x_bar_on_boundary


def test_linear_crowding_end_to_end():
    # c0 = 0 turns the fitness linear in rho; the two-spike grid run must
    # still match the atom oracle, now with rho_bar = max b/d = 2
    scenario = make_scenario(
        b="2 - ind(0.6, 1)",
        d="1",
        u0="100*ind(0.2499, 0.2501) + 100*ind(0.7499, 0.7501)",
        n_cells=200,
        c0=0.0,
        t_end=15.0,
        dt=1e-3,
        sample_every=1000,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", AssumptionWarning)  # one spike node each: no tie
        trajectory = run(scenario)
    assert trajectory.prediction.x_bar == 0.25
    assert trajectory.prediction.rho_bar == 2.0
    atoms = integrate_atoms(
        AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.5)), c0=0.0), 15.0, 1e-4
    )
    assert trajectory.records[-1].rho == pytest.approx(atoms.rho, abs=1e-8)
    assert abs(trajectory.records[-1].rho - 2.0) < 1e-3
    # Lyapunov monotonicity holds for the linear-crowding functionals too
    Vs = [r.V for r in trajectory.records]
    assert all(b >= a - 1e-8 * (1 + abs(a)) for a, b in zip(Vs, Vs[1:]))
    assert all(r.D >= 0.0 for r in trajectory.records)
