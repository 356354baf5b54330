"""Monte Carlo harnesses for the walk's limit behavior at desk scale.

The almost sure CLT and the quadratic strong laws describe one weighted
measure: mass 1/(k L(k)) at sqrt(k/L(k))(S_k/k - q/(1-alpha)), with L = 1
when diffusive and L = log when critical, normalized by log n respectively
log log n. limit_law resolves the regime once into a LimitLaw that holds
that measure's ingredients, its Gaussian limit and the skeletons' grid, scale
and kernel, and every harness reads it. The ASCLT and QSL harnesses apply
LimitLaw.measure to the walk engine's position tiles and hold no trajectory
matrix. Four families of checks:

* Log-averaged weighted empirical measures of the rescaled position along a
  single path, compared to their Gaussian targets by weighted KS distance.
* Even-moment path functionals, the measure's 2r-th moments, whose almost
  sure limits are the Gaussian moments noise^r (2r)!/(2^r r! damping^r).
* Path skeletons of the rescaled process on a time grid, with empirical
  covariance matrices matched against the theoretical kernels (the critical
  regime lives on the n^t time change).
* The superdiffusive almost-sure limit of n^(1-alpha)(S_n/n - q/(1-alpha)),
  with a coupled-stream Cauchy contraction check between horizons n and 2n.

Every operation validates its regime by exact comparison of alpha with 1/2.
The many-replica harnesses read the streams rng.replicas(replicas) of an
RngStreamSpec rng (replicas rng.replica_index onwards) or a given sequence of
specs, and keep results in replica order; a replica's values depend only on
its stream, so results are reproducible bit for bit at any thread count.
threads=None runs the engines on one worker per usable CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .core_process import (
    ModelParams,
    Regime,
    RegimeError,
    RngStreamSpec,
    _checkpoint_array,
    _position_tiles,
    _require,
    _run_replica_blocks,
    classify_regime,
    walk_checkpoints_batch,
)
from .exact_oracle import central_moments
from .martingale_sequences import sequence_checkpoints, sigma_squared
from .urn_spectral import (
    theoretical_covariance_critical,
    theoretical_covariance_diffusive,
)

__all__ = [
    "LimitLaw",
    "WeightedSample",
    "MomentFunctionalResult",
    "PathSkeleton",
    "CovarianceEstimate",
    "LimitEstimate",
    "limit_law",
    "asclt_measure",
    "asclt_measure_diffusive",
    "asclt_measure_critical",
    "weighted_ks_to_normal",
    "weighted_mean_variance",
    "qsl_functional",
    "qsl_functional_batch",
    "exact_qsl_expectation",
    "fclt_skeletons_batch",
    "skeleton_steps",
    "covariance_grid",
    "superdiffusive_limit",
]

# Raw (point, weight) storage up to this horizon (~16 MB of float64 pairs at
# 10^6); beyond it the measure is accumulated into a fixed histogram (see
# asclt_measure for its span).
RAW_POINT_LIMIT = 10**6
HISTOGRAM_BINS = 10_000
HISTOGRAM_SPAN_SDS = 8.0

# Replica-index batches behind covariance_grid's standard errors.
COVARIANCE_BATCHES = 20

DEFAULT_GRID_DIFFUSIVE = (0.25, 0.5, 0.75, 1.0)
DEFAULT_GRID_CRITICAL = (0.5, 0.75, 1.0)


@dataclass(frozen=True)
class LimitLaw:
    """The Gaussian limit law of one regime with alpha <= 1/2, from limit_law.

    centre is q/(1-alpha). The weighted measure puts mass 1/(k L(k)) at
    sqrt(k/L(k))(S_k/k - centre) for first_step <= k <= n, and normalizer(n)
    is its mass scale; L(k) is 1 (diffusive) or log k (critical). Its limit
    is N(0, variance) with variance = noise/damping: sigma^2/(1-2 alpha)
    diffusive, 4q(1-p)/1 critical. skeleton_scale(n, m) rescales
    S_m/m - centre at the skeleton step m (sqrt(n), resp. sqrt(m/log n)),
    and kernel(params, s, t) is the limit covariance of the skeleton values
    at grid times s <= t. min_horizon is the smallest n the weighted
    measure accepts.
    """

    regime: Regime
    centre: float
    noise: float
    damping: float
    first_step: int
    min_horizon: int
    default_grid: tuple[float, ...]
    L: Callable[[np.ndarray], np.ndarray | float]
    normalizer: Callable[[int], float]
    skeleton_scale: Callable[[int, np.ndarray], np.ndarray]
    kernel: Callable[[ModelParams, float, float], float]

    @property
    def variance(self) -> float:
        return self.noise / self.damping

    def measure(self, k: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The measure's points sqrt(k/L(k))(S/k - centre) and weights 1/(k L(k)) at steps k."""
        L = self.L(k)
        return np.sqrt(k / L) * (S / k - self.centre), 1.0 / (k * L)

    def moment(self, r: int) -> float:
        """The limit's 2r-th moment, noise^r (2r)!/(2^r r! damping^r)."""
        return self.noise**r * math.factorial(2 * r) / (2**r * math.factorial(r) * self.damping**r)


def limit_law(params: ModelParams) -> LimitLaw:
    """Resolve the regime of params into its LimitLaw; RegimeError when alpha > 1/2."""
    regime = classify_regime(params)
    centre = params.q / (1.0 - params.alpha)
    if regime is Regime.DIFFUSIVE:
        return LimitLaw(
            regime, centre, noise=sigma_squared(params), damping=1.0 - 2.0 * params.alpha,
            first_step=1, min_horizon=10, default_grid=DEFAULT_GRID_DIFFUSIVE,
            L=lambda k: 1.0, normalizer=math.log,
            skeleton_scale=lambda n, m: np.full_like(m, math.sqrt(n)),
            kernel=theoretical_covariance_diffusive,
        )
    if regime is Regime.CRITICAL:
        return LimitLaw(
            regime, centre, noise=4.0 * params.q * (1.0 - params.p), damping=1.0,
            first_step=2, min_horizon=3, default_grid=DEFAULT_GRID_CRITICAL,
            L=np.log, normalizer=lambda n: math.log(math.log(n)),
            skeleton_scale=lambda n, m: np.sqrt(m / math.log(n)),
            kernel=theoretical_covariance_critical,
        )
    raise RegimeError(
        f"the Gaussian limit laws require alpha <= 1/2; got alpha = {params.alpha} ({regime.value})"
    )


@dataclass
class WeightedSample:
    """A weighted empirical measure of rescaled positions from one path.

    In raw form, points/weights list every contribution. In histogram form
    (horizons beyond RAW_POINT_LIMIT), points are bin centers and weights
    are accumulated bin masses; out-of-span contributions are folded into
    the edge bins. normalizer is the limit statement's mass scale (log n or
    log log n); weights.sum()/normalizer -> 1 as n grows. CDF-based queries
    renormalize to total mass one.
    """

    points: np.ndarray
    weights: np.ndarray
    normalizer: float
    target_variance: float
    n: int
    histogram: bool = False

    def mass_ratio(self) -> float:
        return float(self.weights.sum()) / self.normalizer


def weighted_ks_to_normal(sample: WeightedSample) -> float:
    """Sup distance between the weighted empirical CDF and N(0, sample.target_variance)."""
    var = sample.target_variance
    if var <= 0:
        raise ValueError("KS comparison needs a positive target variance")
    order = np.argsort(sample.points, kind="stable")
    pts = sample.points[order]
    w = sample.weights[order]
    cum = np.cumsum(w)
    cum /= cum[-1]
    ref = ndtr(pts / math.sqrt(var))
    below = np.concatenate([[0.0], cum[:-1]])
    return float(max(np.max(np.abs(cum - ref)), np.max(np.abs(below - ref))))


def weighted_mean_variance(sample: WeightedSample) -> tuple[float, float]:
    """Mean and variance of the weighted measure (about its own mean)."""
    w = sample.weights / sample.weights.sum()
    mean = float(np.dot(w, sample.points))
    var = float(np.dot(w, (sample.points - mean) ** 2))
    return mean, var


def _measure_tiles(law: LimitLaw, params: ModelParams, n: int, specs: Sequence[RngStreamSpec]):
    """Yield the law's (points, weights) tile by tile along the walks of specs:
    points[j, i] and weights[j, 0] belong to step k + j of specs[i], for the
    steps from law.first_step to n."""
    for k, S in _position_tiles(params, specs, n):
        if k >= law.first_step:
            yield law.measure(np.arange(k, k + len(S), dtype=np.float64)[:, None], S)


def asclt_measure(params: ModelParams, n: int, rng: RngStreamSpec) -> WeightedSample:
    """One path's weighted measure under the LimitLaw of params (alpha <= 1/2).

    Mass 1/(k L(k)) at sqrt(k/L(k))(S_k/k - q/(1-alpha)) for k from the
    law's first step to n, streamed into raw pairs up to RAW_POINT_LIMIT and
    into a histogram beyond. The histogram spans HISTOGRAM_SPAN_SDS of the
    law's standard deviation, or, when the limit variance is 0 (p = 1), the
    path's own largest |point|, found by a first pass over the same stream.
    Its weak limit along almost every path is N(0, variance).
    """
    law = limit_law(params)
    if n < law.min_horizon:
        raise ValueError(f"n must be at least {law.min_horizon}")
    if n <= RAW_POINT_LIMIT:
        points, weights = (np.concatenate(x)[:, 0] for x in zip(*_measure_tiles(law, params, n, [rng])))
        return WeightedSample(points, weights, law.normalizer(n), law.variance, n, histogram=False)
    if law.variance > 0:
        half_span = HISTOGRAM_SPAN_SDS * math.sqrt(law.variance)
    else:
        half_span = max(float(np.max(np.abs(pts))) for pts, _ in _measure_tiles(law, params, n, [rng]))
    edges = np.linspace(-half_span, half_span, HISTOGRAM_BINS + 1)
    masses = np.zeros(HISTOGRAM_BINS, dtype=np.float64)
    for pts, w in _measure_tiles(law, params, n, [rng]):
        idx = np.clip(np.searchsorted(edges, pts, side="right") - 1, 0, HISTOGRAM_BINS - 1)
        np.add.at(masses, idx, w)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return WeightedSample(centers, masses, law.normalizer(n), law.variance, n, histogram=True)


def asclt_measure_diffusive(params: ModelParams, n: int, rng: RngStreamSpec) -> WeightedSample:
    """Weighted measure of sqrt(k)(S_k/k - q/(1-alpha)), weights 1/k, k = 1..n (n >= 10).

    Its weak limit along almost every path is N(0, sigma^2/(1-2 alpha)).
    """
    _require(params, Regime.DIFFUSIVE, "the diffusive weighted measure")
    return asclt_measure(params, n, rng)


def asclt_measure_critical(params: ModelParams, n: int, rng: RngStreamSpec) -> WeightedSample:
    """Weighted measure of sqrt(k/log k)(S_k/k - 2q), weights 1/(k log k), k >= 2 (n >= 3).

    Its weak limit along almost every path is N(0, 4q(1-p)); the mass scale
    is log log n, so convergence is very slow and only coarse agreement can
    be expected at desk horizons.
    """
    _require(params, Regime.CRITICAL, "the critical weighted measure")
    return asclt_measure(params, n, rng)


@dataclass
class MomentFunctionalResult:
    """One path's even-moment functional against its theoretical limit."""

    r: int
    value: float
    target: float
    n: int
    regime: Regime


def exact_qsl_expectation(params: ModelParams, n: int, r: int) -> float:
    """The exact finite-n expectation of qsl_functional_batch's value.

    The LimitLaw's point is affine in S_k with slope sqrt(weight), so
    E[point^(2r)] expands about the point at E[S_k] with the central moments
    of S_k from central_moments.
    """
    law = limit_law(params)
    mean, central = central_moments(params, n, 2 * r)
    point, weight = law.measure(np.arange(law.first_step, n + 1, dtype=np.float64), mean[law.first_step :])
    slope, central = np.sqrt(weight), central[:, law.first_step :]
    moment = sum(math.comb(2 * r, i) * point ** (2 * r - i) * slope**i * central[i] for i in range(2 * r + 1))
    return float(np.sum(weight * moment) / law.normalizer(n))


def qsl_functional(params: ModelParams, n: int, r: int, rng: RngStreamSpec) -> MomentFunctionalResult:
    """Log-averaged 2r-th power functional of one path.

    Diffusive: (1/log n) sum_{k<=n} k^(r-1) (S_k/k - q/(1-alpha))^(2r).
    Critical: (1/log log n) sum_{2<=k<=n} k^(r-1) (log k)^-(r+1) (S_k/k - 2q)^(2r).
    The value is qsl_functional_batch(params, n, r, [rng])[0].
    """
    value = float(qsl_functional_batch(params, n, r, [rng])[0])
    law = limit_law(params)
    return MomentFunctionalResult(r=r, value=value, target=law.moment(r), n=n, regime=law.regime)


def qsl_functional_batch(
    params: ModelParams,
    n: int,
    r: int,
    specs: Sequence[RngStreamSpec],
    threads: int | None = None,
) -> np.ndarray:
    """The functional of qsl_functional for many replicas, in O(replicas) memory.

    It is the 2r-th moment of the LimitLaw's weighted measure: each step k
    adds weight * (point^2)^r, that is k^(r-1) L(k)^-(r+1) (S_k/k -
    centre)^(2r), and the sum is divided by the law's normalizer. Each
    replica's terms are added one step at a time in step order, so a value
    depends only on its stream, never on tiles, replica ranges or threads.
    Returns one value per spec, in spec order; horizons up to 10^8 are
    supported.
    """
    if r < 1:
        raise ValueError("moment order r must be at least 1")
    law = limit_law(params)
    if n < 3:
        raise ValueError("n must be at least 3")
    values = np.zeros(len(specs), dtype=np.float64)

    def run_block(lo: int, hi: int) -> None:
        for point, weight in _measure_tiles(law, params, n, specs[lo:hi]):
            point *= point
            terms = weight * point
            for _ in range(r - 1):
                terms *= point
            # A running sum per replica: row j of the cumsum is the sum through that step.
            terms[0] += values[lo:hi]
            values[lo:hi] = np.cumsum(terms, axis=0, out=terms)[-1]

    _run_replica_blocks(len(specs), run_block, threads)
    return values / law.normalizer(n)


@dataclass
class PathSkeleton:
    """Rescaled process values at grid times for one replica."""

    grid: np.ndarray
    steps: np.ndarray
    values: np.ndarray
    regime: Regime


def skeleton_steps(n: int, grid: Sequence[float], regime: Regime) -> np.ndarray:
    """Map grid times to step indices: floor(n t) diffusive, floor(n^t) critical."""
    times = np.asarray(list(grid), dtype=np.float64)
    if not np.all((times > 0) & (times <= 1)):
        raise ValueError(f"grid times must be finite and lie in (0, 1], got grid {times.tolist()}")
    if len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("grid times must be strictly increasing")
    if regime is Regime.CRITICAL:
        steps = np.floor(np.power(float(n), times)).astype(np.int64)
        min_allowed = 2
    else:
        steps = np.floor(n * times).astype(np.int64)
        min_allowed = 1
    if steps[0] < min_allowed:
        raise ValueError(
            f"grid underflow: time {times[0]} maps to step {steps[0]} < {min_allowed}"
        )
    if np.any(np.diff(steps) <= 0):
        raise ValueError("grid times map to duplicate steps at this horizon")
    return steps


def fclt_skeletons_batch(
    params: ModelParams,
    n: int,
    grid: Sequence[float] | None,
    specs: Sequence[RngStreamSpec],
    threads: int | None = None,
) -> PathSkeleton:
    """Rescaled values at the grid times, shape (replicas, grid), one row per spec.

    Diffusive: sqrt(n)(S_{floor(nt)}/floor(nt) - q/(1-alpha)). Critical:
    sqrt(n^t/log n)(S_{floor(n^t)}/floor(n^t) - 2q) on the n^t time change.
    """
    law = limit_law(params)
    grid = law.default_grid if grid is None else grid
    steps = skeleton_steps(n, grid, law.regime)
    pos = walk_checkpoints_batch(params, steps, specs, threads=threads)
    m = steps.astype(np.float64)
    values = law.skeleton_scale(n, m) * (pos / m - law.centre)
    times = np.asarray(list(grid), dtype=np.float64)
    return PathSkeleton(grid=times, steps=steps, values=values, regime=law.regime)


@dataclass
class CovarianceEstimate:
    """Empirical vs. theoretical covariance of the rescaled process."""

    grid: np.ndarray
    empirical: np.ndarray
    theoretical: np.ndarray
    standard_errors: np.ndarray
    n: int
    replicas: int


def covariance_grid(
    params: ModelParams,
    n: int,
    grid: Sequence[float] | None,
    replicas: int,
    rng: RngStreamSpec,
    threads: int | None = None,
) -> CovarianceEstimate:
    """Monte Carlo covariance matrix of skeleton values against the kernel,
    over the replica streams rng.replicas(replicas).

    Standard errors per cell come from the covariances of COVARIANCE_BATCHES
    (20) contiguous replica-index batches, reproducible at any thread count.
    """
    if replicas < 1000:
        raise ValueError("covariance estimation needs at least 1000 replicas")
    law = limit_law(params)
    skel = fclt_skeletons_batch(params, n, grid, rng.replicas(replicas), threads=threads)
    values = skel.values
    times = skel.grid
    centered = values - values.mean(axis=0, keepdims=True)
    empirical = centered.T @ centered / (replicas - 1)
    theoretical = np.array([[law.kernel(params, min(s, t), max(s, t)) for t in times] for s in times])
    bounds = np.linspace(0, replicas, COVARIANCE_BATCHES + 1, dtype=np.int64)
    batch_vals = []
    for b in range(COVARIANCE_BATCHES):
        part = values[bounds[b] : bounds[b + 1]]
        pc = part - part.mean(axis=0, keepdims=True)
        batch_vals.append(pc.T @ pc / (len(part) - 1))
    batch_vals = np.array(batch_vals)
    standard_errors = batch_vals.std(axis=0, ddof=1) / math.sqrt(COVARIANCE_BATCHES)
    return CovarianceEstimate(
        grid=times, empirical=empirical, theoretical=theoretical,
        standard_errors=standard_errors, n=n, replicas=replicas,
    )


@dataclass
class LimitEstimate:
    """Sample of the superdiffusive statistic at one horizon; samples holds one
    value per replica and exact_mean is the statistic's exact expectation."""

    n: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    cauchy_rms: float
    samples: np.ndarray
    exact_mean: float


def superdiffusive_limit(
    params: ModelParams,
    n_list: Sequence[int],
    replicas: int,
    rng: RngStreamSpec,
    threads: int | None = None,
) -> list[LimitEstimate]:
    """Samples of n^(1-alpha)(S_n/n - q/(1-alpha)) across horizons.

    Each replica stream of rng.replicas(replicas) is simulated once through
    2*max(n_list), recording each horizon n and its double 2n, so the
    per-horizon statistics are coupled pathwise. cauchy_rms is the across-replica RMS of the statistic
    difference between 2n and n; almost sure convergence makes it shrink as
    n grows. variance_se is sqrt(Var((x - mean)^2) / replicas), the
    standard error of the sample variance.
    """
    _require(params, Regime.SUPERDIFFUSIVE, "the superdiffusive limit sample")
    ns = _checkpoint_array(n_list).tolist()
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    alpha = params.alpha
    center = params.q / (1.0 - alpha)
    # E[S_n] - n q/(1-alpha) = (s - q/(1-alpha))/a_n exactly, so no difference of near-equal doubles is taken.
    a = sequence_checkpoints(params, ns)["a"]
    checkpoints = sorted(set(ns) | {2 * x for x in ns})
    col = {cp: i for i, cp in enumerate(checkpoints)}
    pos = walk_checkpoints_batch(params, checkpoints, rng.replicas(replicas), threads=threads)

    def stat(n: int) -> np.ndarray:
        S = pos[:, col[n]]
        return n ** (1.0 - alpha) * (S / n - center)

    results = []
    for n, a_n in zip(ns, a):
        x = stat(n)
        diff = stat(2 * n) - x
        mean = float(x.mean())
        var = float(x.var(ddof=1))
        results.append(
            LimitEstimate(
                n=n,
                mean=mean,
                mean_se=math.sqrt(var / replicas),
                variance=var,
                variance_se=math.sqrt(float(np.var((x - mean) ** 2)) / replicas),
                cauchy_rms=float(np.sqrt(np.mean(diff**2))),
                samples=x,
                exact_mean=float(n**-alpha * (params.s - center) / a_n),
            )
        )
    return results
