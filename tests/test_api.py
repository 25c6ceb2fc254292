"""The public option surface: the parameter names of every callable that
``cbve`` exports.

A function is pinned by its own parameters; a class by its ``__init__``
(without ``self``) and by each public classmethod (without ``cls``).  A
change that adds, removes or renames an option shows up here as a one-line
diff of :data:`_SURFACE`.
"""
import inspect

import cbve

_SURFACE = {
    "AdmissibilityError": "args, kwargs",
    "CBVEError": "args, kwargs",
    "ConfigError": "args, kwargs",
    "ConvergenceError": "message, residual",
    "CumulantSolution": ("t, lam, grid, v, method, iterations_used, max_residual, clamp_events, "
                         "picard_min_increments, picard_iterate_maxima, picard_bound"),
    "DiscreteSpatialMeasure": "points",
    "DiscretizationError": "args, kwargs",
    "Environment": "grid, b11, b22, b12, b21, c1, c2, m1, m2",
    "Environment.zero": "grid",
    "JumpMeasure": "grid, cell_kernels, time_atoms",
    "JumpMeasure.from_segments": "grid, segments, atoms",
    "JumpMeasure.zero": "grid",
    "MCEstimate": "n_paths, estimate, std_error, target, z_score",
    "MomentSolution": "t, lam, grid, pi",
    "NumericalError": "args, kwargs",
    "PathEvent": "time, kind, type_source, delta, x_after",
    "RunConfig": "kind, environment, special_form",
    "SeedSpec": "master_seed",
    "SpecialForm": "grid, gamma11, gamma22, gamma12, gamma21, mu1, mu2",
    "SpecialForm.zero": "grid",
    "StieltjesMeasure": "grid, density, atoms",
    "StieltjesMeasure.from_segments": "grid, segments, atoms",
    "StieltjesMeasure.linear_combination": "grid, terms",
    "StieltjesMeasure.zero": "grid",
    "TimeGrid": "nodes",
    "ValidationReport": "moment_values, delta_max, bottleneck_times, ok, messages",
    "apriori_growth_exponent": "sf, t",
    "atom_load": "env, i, s",
    "bottlenecks": "env",
    "check_flow": "env, r, s, t, lam",
    "compensated_jump_kernel": "lam, z",
    "cumulant_upper_bound": "env, i, r, t, lam",
    "effective_cross_drift": "env, i, j",
    "emit_config": "model",
    "finite_activity_approximation": "env, n",
    "finite_diff_check": "env, t, lam, h",
    "gronwall_bound": "beta, a, t",
    "h_transform_coefficients": "sf, zeta1, zeta2",
    "h_transform_solution": "solution, zeta1, zeta2, lam",
    "last_bottleneck": "env, t",
    "lipschitz_constants": "env, f, g, t",
    "load_config": "path",
    "mc_laplace": "sf, x0, t, lam, n_paths, seed",
    "mc_mean": "sf, x0, t, lam, n_paths, seed",
    "mean_of_transition": "env, r, t, x, lam",
    "mechanism_atom_increment": "env, i, lam, s",
    "mechanism_increment": "env, i, f, r, t",
    "parse_config": "data",
    "partially_compensated_jump_kernel": "i, lam, z",
    "simulate_path": "sf, x0, t, seed",
    "solve_general": "env, t, lam",
    "solve_moment": "env, t, lam",
    "solve_special_picard": "sf, t, lam",
    "special_mechanism_increment": "sf, i, f, r, t",
    "special_to_general": "sf",
    "validate": "env",
}


def _params(fn, skip=0) -> str:
    return ", ".join(list(inspect.signature(fn).parameters)[skip:])


def _surface() -> dict:
    out = {}
    for name in cbve.__all__:
        obj = getattr(cbve, name)
        if not callable(obj):
            continue
        if not inspect.isclass(obj):
            out[name] = _params(obj)
            continue
        out[name] = _params(obj.__init__, 1)
        for attr in dir(obj):
            if not attr.startswith("_") and isinstance(inspect.getattr_static(obj, attr),
                                                       classmethod):
                out[f"{name}.{attr}"] = _params(getattr(obj, attr))
    return out


def test_public_parameters_are_pinned():
    assert _surface() == _SURFACE
