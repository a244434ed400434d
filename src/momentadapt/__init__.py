"""Moment-based domain adaptation toolkit.

Orthonormal shifted-Legendre moment bases on the unit cube, maximum-
entropy density fitting from finite moment vectors, probability metrics,
smooth high-entropy class checks, evaluable generalization-bound
certificates, and seeded experiment drivers.
"""

from .basis import (
    DegreeError,
    PolyBasis1D,
    TensorBasis,
    build_legendre_basis,
    coefficient_abs_sums,
    count_monomials,
    make_tensor_basis,
)
from .bounds import (
    BoundCertificate,
    ImprovedConstants,
    constant_C_simple,
    corollary1_risk_bound,
    cmd_to_moment_bound,
    improved_constants,
    minimal_sample_size,
    section7_certificate,
    section7_values,
    smoothness_membership,
    theorem1_l1_bound,
    theorem2_certificate,
    vc_generalization_term,
)
from .densities import (
    Density,
    DensityError,
    ExpFamilyDensity,
    GridDensity,
    GridResolutionError,
    MomentVector,
    ProductDensity,
    Sample,
    SmoothnessReport,
    draw_sample,
    entropy,
    from_callable,
    make_truncated_normal,
    marginal_pdf,
    moments,
    product_density,
    sample_moments,
    smoothness_report,
    sup_log_density,
    uniform_density,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentRecord,
    levy_relation_probe,
    run_experiment,
    sample_concentration,
    section7_repro,
    theorem1_empirical_verification,
    toy_adaptation_demo,
    truncated_normal_counterexample,
)
from .maxent import (
    FitResult,
    InfeasibleMomentsError,
    MaxIterationsError,
    epsilon_gap,
    fit_maxent,
    maxent_entropy,
    project,
)
from .metrics import (
    Classifier,
    Labeling,
    TabulatedCDF,
    central_moments,
    cmd,
    empirical_risk,
    kl_divergence,
    kl_expfam_closed_form,
    l1_distance,
    levy_metric,
    moment_l1,
    risk,
    tabulate_cdf,
    threshold_classifier,
    total_variation,
    worst_case_labeling,
)
from .quadrature import (
    QuadGridND,
    QuadRule1D,
    QuadratureError,
    gauss_rule,
    tensor_grid,
)

__version__ = "0.1.0"
