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
    total_variation,
)
from .measures import Mixture, invariance_residual, prob_values
from .spectral import SpectralEstimate, estimate_rho, green
from .transforms import (
    BoundaryWeights,
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
    simulate_absorbed,
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
