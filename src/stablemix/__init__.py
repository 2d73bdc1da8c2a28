"""Exchangeable-array simulation with stable-law mixture limits.

The package simulates arrays that are conditionally i.i.d. given a random
directing measure, evaluates stable and mixture-of-stable characteristic
functions, computes per-realization characteristic quantities and spectral
measures, and statistically tests the convergence criteria that tie the two
sides together.
"""

from .characteristics import (
    CharQuantities,
    PushforwardResult,
    SpectralParams,
    char_quantities,
    discretize_spectral,
    dsharp,
    fit_spectrum,
    prokhorov_distance,
    pushforward_alpha,
    pushforward_one,
    sigma_bar_proxy,
    smooth_mean,
    smoothed_location_drift,
    spectral_measure_lambda,
    stable_mixing_constant,
    tail_mass_quantity,
    tail_moment_ratio,
    trunc_mean,
    trunc_variance,
)
from .criteria import (
    CRITERION_NAMES,
    CriterionVerdict,
    DrawPanel,
    NGrid,
    StatTestConfig,
    check_cauchy_mixture,
    check_degenerate,
    check_gaussian_mixture,
    check_sec5_conditions,
    check_single_row_cauchy,
    check_single_row_gaussian,
    check_single_row_stable,
    check_stable_mixture,
    check_uan,
    check_wlln,
)
from .directing import (
    CauchyLaw,
    DirectingLaw,
    GaussianLaw,
    LocationAtoms,
    LocationGaussian,
    ParetoLaw,
    PointMassLaw,
    ScaleAtoms,
    ScaleExponential,
    ScaleLogNormal,
    StableLaw,
    UniformLaw,
    draw_replicates,
    sample_array_sums,
    sample_grid_sums,
)
from .empirics import (
    ScenarioReport,
    ScenarioSpec,
    TGrid,
    builtin_scenarios,
    empirical_cf,
    empirical_joint_cf,
    get_scenario,
    identity_residual,
    run_criterion,
    run_scenario,
)
from .measures import AtomicMeasure
from .mixtures import (
    MixingMeasure,
    cauchy_from_gaussian_scale_mixture,
    joint_mixture_cf,
    mixture_cf,
)
from .stable import (
    LevyKhintchinePair,
    NormingSequence,
    StableParams,
    eval_g,
    eval_w,
    levy_khintchine_psi,
    norming_values,
    replicate_seed,
    sample_stable,
    stable_cf,
)

__version__ = "0.1.0"
