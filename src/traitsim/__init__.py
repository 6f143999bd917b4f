"""traitsim: simulate and verify nonlocal trait-selection population dynamics.

The model couples a per-trait density u(x, t) to its total mass rho(t)
through the fitness G(x, rho) = b(x)/(1 + c0*rho) - d(x)*rho.  This package
predicts the long-time limit (a Dirac mass at the fittest supported trait),
integrates the dynamics with two independent schemes, and machine-checks
the supporting invariants: the a priori mass corridor, Lyapunov
monotonicity, residual decay, support conservation and concentration.

Public names are imported from their submodule on first use (PEP 562), so
an entry point loads only the modules it runs: the atom oracle, for one,
needs no numpy.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_HOMES = {
    "BlowUpReport": "diagnostics",
    "ConcentrationReport": "diagnostics",
    "DiagnosticsRecord": "diagnostics",
    "blow_up_report": "diagnostics",
    "compute_D": "diagnostics",
    "compute_V": "diagnostics",
    "compute_W": "diagnostics",
    "concentration_report": "diagnostics",
    "EvalError": "exprlang",
    "Expr": "exprlang",
    "ExprError": "exprlang",
    "ParseError": "exprlang",
    "TraitFunction": "exprlang",
    "bound_on_grid": "exprlang",
    "eval_expr": "exprlang",
    "parse": "exprlang",
    "unparse": "exprlang",
    "ExponentOverflow": "integrator",
    "IntegrationError": "integrator",
    "PopulationState": "integrator",
    "Trajectory": "integrator",
    "init_state": "integrator",
    "rho_from_exponents": "integrator",
    "run": "integrator",
    "step_direct": "integrator",
    "step_exponential": "integrator",
    "AssumptionWarning": "model",
    "EquilibriumPrediction": "model",
    "Grid": "model",
    "Scenario": "model",
    "apriori_corridor": "model",
    "check_tail_condition": "model",
    "equilibrium_mass": "model",
    "eval_fitness": "model",
    "positive_root": "model",
    "predict_equilibrium": "model",
    "quadrature": "model",
    "Atom": "oracle",
    "AtomSystem": "oracle",
    "integrate_atoms": "oracle",
    "reference_grid_run": "oracle",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
