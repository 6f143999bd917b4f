"""Atom oracle and reference reruns: the independent ground-truth routes."""

import math
import random

import numpy as np
import pytest

from conftest import DATA_DIR, make_scenario
from traitsim.cli import load_scenario
from traitsim.model import positive_root
from traitsim.integrator import IntegrationError, run
from traitsim import oracle
from traitsim.oracle import Atom, AtomSystem, integrate_atoms, reference_grid_run


class TestAtomSystem:
    def test_rho_sums_masses(self):
        sys_ = AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.25)))
        assert sys_.rho == 0.75

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            AtomSystem((Atom(0.0, 1.0, 0.5),))
        with pytest.raises(ValueError, match=">= 0"):
            AtomSystem((Atom(1.0, 1.0, -0.5),))
        with pytest.raises(ValueError, match="total mass"):
            AtomSystem((Atom(1.0, 1.0, 0.0),))
        with pytest.raises(ValueError, match="at least one"):
            AtomSystem(())

    @pytest.mark.parametrize(
        "atom, c0, field",
        [
            (Atom(2.0, 1.0, math.inf), 1.0, "mass m"),
            (Atom(2.0, 1.0, math.nan), 1.0, "mass m"),
            (Atom(math.inf, 1.0, 0.5), 1.0, "rate b"),
            (Atom(math.nan, 1.0, 0.5), 1.0, "rate b"),
            (Atom(2.0, math.inf, 0.5), 1.0, "rate d"),
            (Atom(2.0, math.nan, 0.5), 1.0, "rate d"),
            (Atom(2.0, 1.0, 0.5), math.nan, "c0"),
            (Atom(2.0, 1.0, 0.5), math.inf, "c0"),
            (Atom(2.0, 1.0, 0.5), -1.0, "c0"),
        ],
    )
    def test_rejects_non_finite_or_out_of_range(self, atom, c0, field):
        with pytest.raises(ValueError, match=field):
            AtomSystem((atom,), c0=c0)

    def test_rejects_overflowing_total_mass(self):
        with pytest.raises(ValueError, match="total mass"):
            AtomSystem((Atom(2, 1, 1e308), Atom(1, 1, 1e308)))

    def test_replace_validates(self):
        system = AtomSystem((Atom(2, 1, 0.5),))
        assert system._replace(c0=2.0) == AtomSystem(system.atoms, 2.0)
        with pytest.raises(ValueError, match="c0"):
            system._replace(c0=-1.0)

    def test_accepts_c0_zero(self):  # the linear-fitness model
        assert AtomSystem((Atom(2, 1, 0.5),), c0=0.0).c0 == 0.0


class TestAtomClassContract:
    """What callers rely on, whatever kind of class implements it."""

    def test_construction(self):
        a = Atom(b=2, d=1, m=0.5)
        assert a == Atom(2, 1, 0.5) and (a.b, a.d, a.m) == (2, 1, 0.5)
        assert AtomSystem((a,)).c0 == 1.0
        assert AtomSystem(atoms=(a,), c0=0.5) == AtomSystem((a,), 0.5)
        assert AtomSystem((a,), 0.5).atoms == (a,)

    def test_immutable(self):
        system = AtomSystem((Atom(2, 1, 0.5),))
        for obj, name in ((system.atoms[0], "m"), (system, "c0"), (system, "atoms")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1.0)

    def test_equal_systems_compare_and_hash_equal(self):
        one = AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.25)), c0=2.0)
        two = AtomSystem((Atom(2.0, 1.0, 0.5), Atom(1.0, 1.0, 0.25)), 2.0)
        assert one == two and hash(one) == hash(two)
        assert len({one, two}) == 1
        assert one != AtomSystem(one.atoms, c0=1.0)

    def test_repr(self):
        assert repr(Atom(2, 1, 0.5)) == "Atom(b=2, d=1, m=0.5)"
        assert repr(AtomSystem((Atom(2, 1, 0.5),))) == (
            "AtomSystem(atoms=(Atom(b=2, d=1, m=0.5),), c0=1.0)"
        )


class TestIntegrateAtoms:
    def test_oracle_fidelity_precondition(self):
        sys_ = AtomSystem((Atom(2, 1, 1.0),))
        with pytest.raises(ValueError, match="dt"):
            integrate_atoms(sys_, 1.0, 1e-3)
        with pytest.raises(ValueError, match="t_end"):
            integrate_atoms(sys_, -1.0, 1e-4)

    @pytest.mark.parametrize(
        "t_end, dt, field",
        [
            (math.inf, 1e-4, "t_end"),
            (math.nan, 1e-4, "t_end"),
            (1.0, math.nan, "dt"),
            (1.0, 1e-320, "t_end / dt"),
        ],
    )
    def test_rejects_non_finite_time(self, t_end, dt, field):
        sys_ = AtomSystem((Atom(2, 1, 1.0),))
        with pytest.raises(ValueError, match=field):
            integrate_atoms(sys_, t_end, dt)

    def test_rejects_more_steps_than_the_budget(self, monkeypatch):
        def no_loop(*args):
            raise AssertionError("the loop was generated")

        monkeypatch.setattr(oracle, "_rk4_loop", no_loop)
        with pytest.raises(ValueError) as info:
            integrate_atoms(AtomSystem((Atom(2, 1, 0.5),)), 1e5, 1e-4)  # 1e9 steps
        assert str(info.value) == (
            "oracle requires 0 < dt <= 0.0001 and t_end / dt <= 1e+08, "
            "got t_end = 100000.0, dt = 0.0001"
        )

    def test_warns_when_dt_does_not_divide_t_end(self):
        with pytest.warns(UserWarning, match="integrating 33333 steps to t = 0.99999$"):
            integrate_atoms(AtomSystem((Atom(2, 1, 0.5),)), 1.0, 3e-5)

    def test_single_atom_stationary(self):
        # m = 1 solves rho(1+rho) = b/d = 2: stays put forever
        out = integrate_atoms(AtomSystem((Atom(2, 1, 1.0),)), 5.0, 1e-4)
        assert out.atoms[0].m == pytest.approx(1.0, abs=1e-12)

    def test_identical_atoms_keep_mass_ratio(self):
        sys_ = AtomSystem((Atom(1, 1, 0.3), Atom(1, 1, 0.6)))
        out = integrate_atoms(sys_, 5.0, 1e-4)
        assert out.atoms[0].m / out.atoms[1].m == pytest.approx(0.5, rel=1e-12)

    def test_zero_mass_atom_stays_zero(self):
        sys_ = AtomSystem((Atom(2, 1, 0.5), Atom(3, 1, 0.0)))
        out = integrate_atoms(sys_, 5.0, 1e-4)
        assert out.atoms[1].m == 0.0

    def test_masses_stay_nonnegative_and_corridor_holds(self):
        sys_ = AtomSystem((Atom(2.0, 1.5, 0.1), Atom(1.0, 0.5, 2.5), Atom(1.5, 1.0, 0.4)))
        b_m, b_M = 1.0, 2.0
        d_m, d_M = 0.5, 1.5
        r_m, r_M = positive_root(b_m / d_M), positive_root(b_M / d_m)
        lo, hi = min(r_m, sys_.rho), max(r_M, sys_.rho)
        state = sys_
        for _ in range(20):  # sample rho along the trajectory in chunks
            state = integrate_atoms(state, 0.5, 1e-4)
            assert all(a.m >= 0.0 for a in state.atoms)
            assert lo - 1e-9 <= state.rho <= hi + 1e-9

    def test_survivor_maximizes_fitness_ratio(self):
        sys_ = AtomSystem(
            (Atom(1.2, 1.0, 0.4), Atom(3.0, 1.0, 0.1), Atom(2.0, 1.0, 0.5))
        )
        out = integrate_atoms(sys_, 100.0, 1e-4)
        rho_bar = positive_root(3.0)
        assert out.atoms[1].m == pytest.approx(rho_bar, abs=1e-6)
        assert out.atoms[0].m < 1e-6 and out.atoms[2].m < 1e-6

    def test_two_atom_selection_short_horizon(self):
        sys_ = AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.5)))
        out = integrate_atoms(sys_, 50.0, 1e-4)
        # loser dies like exp(-t/2) once rho is near 1
        assert out.atoms[1].m < 1e-9
        assert abs(out.rho - 1.0) < 1e-6

    @pytest.mark.parametrize(
        "atoms",
        [
            (Atom(1e300, 1, 1.0),),  # mass overflows to -inf
            (Atom(2, 1e9, 1.0), Atom(1, 1, 1.0)),  # masses become NaN
        ],
    )
    def test_divergence_is_a_runtime_error(self, atoms):
        # valid input whose rates are too fast for dt: not reported as bad input
        with pytest.raises(IntegrationError, match="too coarse"):
            integrate_atoms(AtomSystem(atoms), 1e-3, 1e-4)

    @pytest.mark.parametrize(
        "atoms, got",
        [((Atom(1e300, 1, 1.0),), "-inf"), ((Atom(2, 1e9, 1.0), Atom(1, 1, 1.0)), "nan")],
    )
    def test_divergence_message(self, atoms, got):
        with pytest.raises(IntegrationError) as info:
            integrate_atoms(AtomSystem(atoms), 1e-3, 1e-4)
        assert str(info.value) == (
            f"dt = 0.0001 is too coarse for these rates: atom mass m must be finite and >= 0, "
            f"got {got}"
        )

    def test_deterministic(self):
        sys_ = AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.5)))
        a = integrate_atoms(sys_, 3.0, 1e-4)
        b = integrate_atoms(sys_, 3.0, 1e-4)
        assert a == b


def indexed_rk4(b, d, m, c0, dt, n_steps):
    """The oracle's RK4 written as an indexed loop over arrays: the reference
    that the generated straight-line loop must match bit for bit."""
    b, d, m = (np.array(v, dtype=float) for v in (b, d, m))
    n = m.size
    k1, k2, k3, k4, tmp = (np.empty(n) for _ in range(5))
    for _ in range(n_steps):
        rho = 0.0
        for i in range(n):
            rho += m[i]
        for i in range(n):
            k1[i] = (b[i] / (1.0 + c0 * rho) - d[i] * rho) * m[i]
            tmp[i] = m[i] + 0.5 * dt * k1[i]
        rho = 0.0
        for i in range(n):
            rho += tmp[i]
        for i in range(n):
            k2[i] = (b[i] / (1.0 + c0 * rho) - d[i] * rho) * tmp[i]
            tmp[i] = m[i] + 0.5 * dt * k2[i]
        rho = 0.0
        for i in range(n):
            rho += tmp[i]
        for i in range(n):
            k3[i] = (b[i] / (1.0 + c0 * rho) - d[i] * rho) * tmp[i]
            tmp[i] = m[i] + dt * k3[i]
        rho = 0.0
        for i in range(n):
            rho += tmp[i]
        for i in range(n):
            k4[i] = (b[i] / (1.0 + c0 * rho) - d[i] * rho) * tmp[i]
            m[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
    return [float(x) for x in m]


def random_system(n_atoms, seed, zero_mass=False, unit_d=(), c0=None):
    """Random rates and masses; the atoms indexed by ``unit_d`` get d = 1.0, and
    ``c0`` replaces the random c0 when given."""
    rng = random.Random(seed)
    atoms = [
        Atom(rng.uniform(0.5, 4.0), rng.uniform(0.2, 2.0), rng.uniform(0.05, 2.0))
        for _ in range(n_atoms)
    ]
    if zero_mass:
        atoms[1] = Atom(atoms[1].b, atoms[1].d, 0.0)
    for i in unit_d:
        atoms[i] = Atom(atoms[i].b, 1.0, atoms[i].m)
    drawn = rng.uniform(0.0, 2.0)
    return AtomSystem(tuple(atoms), c0=drawn if c0 is None else c0)


class TestBitIdentity:
    # 7e-5 / 6.0 and 7e-5 * (1.0 / 6.0) round differently, so a reordered
    # step factor shows; 1e-5 is the dt the acceptance gate mints with
    @pytest.mark.parametrize(
        "system, dt",
        [
            (random_system(1, seed=1), 7e-5),
            (random_system(2, seed=2), 7e-5),
            (random_system(3, seed=3), 7e-5),
            (random_system(4, seed=4), 7e-5),
            (random_system(3, seed=5, zero_mass=True), 7e-5),
            (random_system(12, seed=12), 7e-5),
            (AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.5))), 1e-5),
            # factors of exactly 1.0 are folded out of the generated loop
            (random_system(1, seed=21, unit_d=range(1), c0=1.0), 7e-5),
            (random_system(3, seed=23, unit_d=range(3), c0=1.0), 7e-5),
            (random_system(13, seed=33, unit_d=range(13), c0=1.0), 7e-5),
            (random_system(3, seed=6, unit_d=range(3)), 7e-5),
            (random_system(3, seed=7, c0=1.0), 7e-5),
            (random_system(4, seed=8, unit_d=(0, 2)), 7e-5),
            (AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.0), Atom(1.5, 1, 0.3))), 7e-5),
        ],
        ids=["1", "2", "3", "4", "zero_mass", "12", "c09", "unit_1", "unit_3", "unit_13",
             "unit_d", "unit_c0", "mixed_d", "zero_mass_unit"],
    )
    def test_matches_indexed_loop(self, system, dt):
        t_end = 2000 * dt
        expected = indexed_rk4(
            [a.b for a in system.atoms],
            [a.d for a in system.atoms],
            [a.m for a in system.atoms],
            system.c0,
            dt,
            round(t_end / dt),
        )
        out = integrate_atoms(system, t_end, dt)
        assert [a.m for a in out.atoms] == expected


class TestReferenceGridRun:
    def test_fidelity_precondition(self):
        s = make_scenario(dt=1e-3)
        with pytest.raises(ValueError, match="dt/10"):
            reference_grid_run(s, 5e-4)
        with pytest.raises(ValueError, match="dt_fine"):
            reference_grid_run(s, 0.0)

    def test_rerun_reuses_the_sampled_nodes(self):
        s = make_scenario(b="2 - (x-0.3)^2", n_cells=50, t_end=0.2, dt=1e-2).validate()
        fine = reference_grid_run(s, 1e-3).scenario
        assert (fine.dt, fine.scheme) == (1e-3, "direct")
        assert fine.b_nodes is s.b_nodes

    def test_rerun_records_match_a_dataclasses_replace_rerun(self):
        from dataclasses import replace

        s = make_scenario(b="2 - (x-0.3)^2", n_cells=50, t_end=0.2, dt=1e-2, sample_every=5)
        ref = reference_grid_run(s, 1e-3)
        assert ref.records == run(replace(s, dt=1e-3, scheme="direct")).records

    def test_certifies_exponential_run(self):
        s = make_scenario(
            b="2 - (x-0.3)^2", d="1", n_cells=50, t_end=2.0, dt=1e-2, sample_every=10
        )
        main = run(s)
        ref = reference_grid_run(s, 1e-3)
        assert ref.scenario.scheme == "direct"
        assert ref.records[-1].rho == pytest.approx(main.records[-1].rho, abs=1e-6)

    def test_grid_two_atom_run_matches_atom_oracle(self):
        # a grid whose support is two isolated nodes IS the atom system:
        # mass per node = density * cell width
        s = make_scenario(
            b="2 - ind(0.6, 1)",
            d="1",
            u0="100*ind(0.2499, 0.2501) + 100*ind(0.7499, 0.7501)",
            n_cells=200,
            t_end=20.0,
            dt=1e-3,
            sample_every=1000,
        )
        grid_run = run(s)
        atoms = integrate_atoms(
            AtomSystem((Atom(2, 1, 0.5), Atom(1, 1, 0.5))), 20.0, 1e-4
        )
        assert grid_run.records[0].rho == pytest.approx(1.0, rel=1e-12)
        assert grid_run.records[-1].rho == pytest.approx(atoms.rho, abs=1e-8)


class TestLatticeReferee:
    """On its lattice a grid run is the atom system with one atom (b_i, d_i, w_i u0_i) per node."""

    @pytest.mark.parametrize("name", ["varying_d", "c0_zero", "two_interval"])
    def test_direct_scheme_masses_equal_the_atom_oracle(self, name):
        s = load_scenario(DATA_DIR / f"{name}.ini").with_controls(scheme="direct")
        assert (s.grid.n_cells, s.dt, s.t_end) == (10, 1e-4, 1.0)
        w = s.weights
        system = AtomSystem(tuple(map(Atom, s.b_nodes.tolist(), s.d_nodes.tolist(),
                                      (w * s.u0_nodes).tolist())), s.c0)
        n_steps = round(s.t_end / s.dt)
        masses = [a.m for a in integrate_atoms(system, s.t_end, s.dt).atoms]
        # RK4 commutes with m = w u, so only the mass sums' rounding differs
        np.testing.assert_allclose(w * np.exp(run(s).final_state.log_u), masses,
                                   rtol=n_steps * len(masses) * 2.0**-52, atol=0.0)
