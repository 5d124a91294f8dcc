"""p-biased analysis of Boolean functions: Fourier toolkit, directed
noise operators, Gaussian stability quantities, k-uniform set families,
hypergraph freeness machinery, and desk-scale removal experiments."""

__version__ = "0.1.0"

from .cube import (
    BiasWeights,
    DenseFunction,
    Spectrum,
    average_over,
    expectation,
    influence,
    inner_product,
    inverse_transform,
    noisy_influence,
    restrict,
    stability,
    transform,
)
from .noise import (
    CoupledSampler,
    CouplingParams,
    cross_term,
    directed_down,
    directed_up,
    is_fourier_regular,
    is_regular,
    monotonicity_defect,
    noise_operator,
)
from .gaussian import (
    GaussianPoly,
    chop,
    chop_distance,
    gaussian_analogue,
    lambda_gap,
    lambda_lipschitz_check,
    lambda_rho,
    phi_inv,
)
from .families import (
    JuntaFamily,
    SetFamily,
    cut,
    cut_stability_check,
    family_regular,
    family_slice,
    is_fair,
    lift,
    lift_measure_identity,
)
from .hypergraphs import (
    Hypergraph,
    WorkBoundExceeded,
    almost_free_estimate,
    almost_free_exact,
    is_expanded,
    junta_is_Hs_free,
    k_expand,
    random_copy,
    resolve,
    trace_probability_order,
    traces,
)
from .matchings import (
    MatchingSpec,
    cross_probability_exact,
    cross_probability_mc,
    sample,
)
from .removal import (
    Decomposition,
    ThresholdCurve,
    decompose,
    monotone_junta_approx,
    removal_pipeline,
    robust_fk_instance,
    threshold_curve,
)
