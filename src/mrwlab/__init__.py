"""Simulation and verification lab for the minimal random walk.

The walk takes {0,1} steps that respond to a uniformly sampled past step (q
after a 0, p after a 1; the first step is Bernoulli(s)); equivalently, a
two-color urn reinforced by draw-and-respond. The memory parameter
alpha = p - q splits three regimes at 1/2, and this package provides the
simulation engines, exact small-scale distribution oracles, deterministic
coefficient sequences, and Monte Carlo harnesses that make the associated
limit behavior checkable on a desk machine.
"""

from .core_process import (
    ModelParams,
    Regime,
    RegimeError,
    RngStreamSpec,
    UrnPath,
    UrnState,
    WalkPath,
    classify_regime,
    simulate_urn,
    simulate_walk,
    walk_checkpoints_batch,
    walk_position_chunks,
    walk_positions_batch,
)
from .exact_oracle import (
    ExactDistribution,
    central_moments,
    conditional_moment_S,
    conditional_moment_eps,
    exact_covariance_S,
    exact_distribution,
    exact_mean_checkpoints,
    exact_mean_recursion,
    exact_urn_distribution,
    moment_recursion,
    total_variation,
    two_point_moment_S,
    two_point_moment_eps,
    urn_walk_equivalence_check,
)
from .limit_harness import (
    CovarianceEstimate,
    LimitEstimate,
    LimitLaw,
    MomentFunctionalResult,
    PathSkeleton,
    WeightedSample,
    asclt_measure,
    asclt_measure_critical,
    asclt_measure_diffusive,
    covariance_grid,
    exact_qsl_expectation,
    fclt_skeleton,
    fclt_skeletons_batch,
    limit_law,
    qsl_functional,
    qsl_functional_batch,
    qsl_target,
    skeleton_steps,
    superdiffusive_limit,
    weighted_ks_to_normal,
    weighted_mean_variance,
)
from .martingale_sequences import (
    LimitConstants,
    MartingaleTrack,
    SequenceCache,
    SequenceDiagnostics,
    build_sequences,
    limit_constants,
    martingale_track,
    sequence_asymptotics,
    sequence_checkpoints,
    sigma_squared,
)
from .urn_spectral import (
    SpectralData,
    build_spectral,
    fluctuation_coefficient,
    matrix_exponential_kernel,
    theoretical_covariance_critical,
    theoretical_covariance_diffusive,
)

__version__ = "0.1.0"
