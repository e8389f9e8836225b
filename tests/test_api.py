import inspect

import yaglom

# Every name ``import yaglom`` exports.  Adding an export means adding it
# here on purpose; the public API should shrink, not grow.
PUBLIC = {
    "BoundaryWeights", "ConditionReport", "DegenerateKernelError", "KestenSchedule",
    "MassState", "Mixture", "NNKernel", "Region", "SpectralEstimate", "Window",
    "YaglomTrace", "absorption_times", "brute_force_distribution", "build_alpha_walk",
    "build_kesten", "build_symmetric", "build_two_sided", "check_conditions",
    "default_kesten_schedule", "empirical_hitting_split", "estimate_hhat",
    "estimate_rho", "evolve_trace", "green", "h_transform", "hitting_split",
    "invariance_residual", "lazify", "mixture_limit", "orey_trace", "oscillation_probe",
    "preset_kernel", "prob_values", "simulate_absorbed", "square_even", "time_reversal",
    "total_variation", "validate",
}


def test_no_unlisted_public_names():
    exported = {
        name for name, obj in vars(yaglom).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert not exported - PUBLIC, f"unlisted exports: {sorted(exported - PUBLIC)}"
    assert not PUBLIC - exported, f"listed but not exported: {sorted(PUBLIC - exported)}"
