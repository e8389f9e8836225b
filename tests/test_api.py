import inspect

import yaglom

# Every name ``import yaglom`` exports.  Adding an export means adding it
# here on purpose; the public API should shrink, not grow.
PUBLIC = {
    "BoundaryWeights", "ClosedFormMeasure", "ConditionReport", "DegenerateKernelError",
    "KestenSchedule", "MassState", "MirrorParams", "Mixture", "NNKernel", "Region",
    "SpectralEstimate", "TwoSidedParams", "Window", "YaglomTrace",
    "absorption_times", "brute_force_distribution", "build_alpha_walk", "build_kesten",
    "build_symmetric", "build_two_sided", "c_max", "check_conditions", "chi_entrance",
    "closed_form_F00", "closed_form_V", "closed_form_hhat", "default_kesten_schedule",
    "dual_harmonic", "e0_r_zeta", "empirical_hitting_split", "estimate_hhat",
    "estimate_rho", "evolve_trace", "extremal_minus", "extremal_plus", "family_measure",
    "green_partial", "h_transform", "harmonic_residual", "hitting_split",
    "invariance_residual", "k2n00_asymptotic", "lazify", "mirror_extremal", "mirror_hhat",
    "mixture_limit", "normalizer_T", "orey_trace", "oscillation_probe", "preset_kernel",
    "prob_values", "quadratic_roots", "r_zeta_conditional", "reversibility_gamma",
    "simulate_absorbed", "simulate_transformed", "square_even", "taboo_first_return",
    "time_reversal", "total_variation", "transformed_finals", "validate",
}


def test_no_unlisted_public_names():
    exported = {
        name for name, obj in vars(yaglom).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert not exported - PUBLIC, f"unlisted exports: {sorted(exported - PUBLIC)}"
