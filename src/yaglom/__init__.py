"""Yaglom limits of substochastic nearest-neighbour chains on the integers."""

from .chain import (
    DegenerateKernelError,
    MassState,
    NNKernel,
    Region,
    Window,
    lazify,
    square_even,
    validate,
)
from .evolve import (
    YaglomTrace,
    brute_force_distribution,
    evolve_trace,
    taboo_first_return,
    total_variation,
)
from .measures import (
    ClosedFormMeasure,
    MirrorParams,
    Mixture,
    TwoSidedParams,
    c_max,
    dual_harmonic,
    extremal_minus,
    extremal_plus,
    family_measure,
    harmonic_residual,
    invariance_residual,
    mirror_extremal,
    mirror_hhat,
    normalizer_T,
    prob_values,
    quadratic_roots,
    reversibility_gamma,
)
from .spectral import (
    SpectralEstimate,
    chi_entrance,
    closed_form_F00,
    closed_form_V,
    e0_r_zeta,
    estimate_rho,
    green_partial,
    k2n00_asymptotic,
)
from .transforms import (
    BoundaryWeights,
    closed_form_hhat,
    estimate_hhat,
    h_transform,
    hitting_split,
    mixture_limit,
    time_reversal,
)
from .montecarlo import (
    absorption_times,
    empirical_hitting_split,
    orey_trace,
    r_zeta_conditional,
    simulate_absorbed,
    simulate_transformed,
    transformed_finals,
)
from .conditions import ConditionReport, check_conditions
from .scenarios import (
    KestenSchedule,
    build_alpha_walk,
    build_kesten,
    build_symmetric,
    build_two_sided,
    default_kesten_schedule,
    oscillation_probe,
    preset_kernel,
)

__version__ = "0.1.0"
