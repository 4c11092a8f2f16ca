"""Chaotic probability measures on the collision sphere: construction,
sampling, and quantitative convergence measurement at desk scale."""

from .densities import (
    BaseDensity,
    gaussian_density,
    gaussian_mixture_density,
    get_density,
    registry_names,
    uniform_box_density,
)
from .errors import (
    BoltzsphereError,
    CapacityError,
    ConfigError,
    CoverageError,
    DegenerateProjectionError,
    DegenerateVarianceError,
    ParameterError,
    SupportError,
)
from .geometry import (
    ScalarField,
    SphereSpec,
    VectorField,
    helmert_forward,
    helmert_inverse,
    helmert_matrix,
    ipp_pointwise,
    ipp_residual,
    on_sphere,
    project_to_sphere,
    sphere_measure,
    surface_divergence,
    tangent_gradient,
)
from .uniform import (
    UniformMarginal,
    coordinate_marginal,
    l1_chaos_gap,
    marginal_density,
    marginal_moment,
    moment_bound,
    sample_uniform,
    sample_uniform_batch,
)
from .lifted import (
    GridDensity,
    berry_esseen_sup,
    convolution_power,
    rasterize_lifted,
    z_prime_asymptotic,
)
from .conditioned import (
    ConditionedLaw,
    conditioned_marginal_density,
    entropy_per_particle,
    entropy_rate_experiment,
    sample_conditioned_batch,
    w1_rate_experiment,
)
from .metrics import (
    EmpiricalMeasure,
    Estimate,
    interpolation_check,
    relative_entropy_vs_gaussian,
    relative_fisher,
    w1,
    w2,
)
from .dsmc import CollisionKernel, equilibrium_crosscheck, run
from .reporting import RateReport, fit_loglog
from .rng import stream

__version__ = "0.1.0"
