"""Monte Carlo harnesses for the walk's limit behavior at desk scale.

The almost sure CLT and the quadratic strong laws describe one weighted
measure: mass 1/(k L(k)) at sqrt(k/L(k))(S_k/k - q/(1-alpha)), with L = 1
when diffusive and L = log when critical, normalized by log n respectively
log log n. limit_law resolves the regime once into a LimitLaw that holds
that measure's ingredients, its Gaussian limit and the skeletons' grid, scale
and kernel, and every harness reads it. The ASCLT harness maps the chunks of
walk_position_chunks through LimitLaw.measure; the QSL harness has the walk
kernel sum its moments in the kernel calls of walk_checkpoints_batch to n (to
1 and n when critical, where the sum starts at step 2). Neither holds a
trajectory matrix. Four families of checks:

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
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core_process import (
    ModelParams,
    Regime,
    RegimeError,
    RngStreamSpec,
    _centre,
    _check_horizon,
    _checkpoint_array,
    _diffusive_damping,
    _require,
    _walk_ranges,
    classify_regime,
    walk_checkpoints_batch,
    walk_position_chunks,
)
from .exact_oracle import _mean_forms, central_moments
from .martingale_sequences import sigma_squared

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

# Natural logs of 2^1024, past the largest double, and of 2^-1075, below which a double rounds to 0.
_LOG_DOUBLE_MAX, _LOG_DOUBLE_MIN = 1024 * math.log(2), -1075 * math.log(2)

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
    and kernel(s, t) is the limit covariance of the skeleton values at grid
    times s <= t: noise/(damping t) (t/s)^alpha diffusive, noise s critical
    (on the n^t time change). min_horizon is the smallest n the weighted
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
    kernel: Callable[[float, float], float]

    @property
    def variance(self) -> float:
        return self.noise / self.damping

    def scale_weight(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The measure's point scales sqrt(k/L(k)) and weights 1/(k L(k)) at steps k."""
        L = self.L(k)
        return np.sqrt(k / L), 1.0 / (k * L)

    def measure(self, k: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The measure's points sqrt(k/L(k))(S/k - centre) and weights 1/(k L(k)) at steps k."""
        scale, weight = self.scale_weight(k)
        return scale * (S / k - self.centre), weight

    def moment(self, r: int) -> float:
        """The limit's 2r-th moment, noise^r (2r)!/(2^r r! damping^r): that float
        expression up to r = 85, and above, where (2r)! leaves the double range,
        (2r-1)!! (noise/damping)^r in exact rationals, rounded once. A moment
        past the double range, found from lgamma first, is a ValueError."""
        if r < 1:
            raise ValueError("moment order r must be at least 1")
        if self.noise == 0.0:
            return 0.0
        log_ratio = math.log(self.noise) - math.log(2 * self.damping)
        log_moment = r * log_ratio + math.lgamma(2 * r + 1) - math.lgamma(r + 1)
        if log_moment > _LOG_DOUBLE_MAX:
            raise ValueError(f"the limit's moment of order 2r = {2 * r} (r = {r}) exceeds the double range")
        if r <= 85:
            return self.noise**r * math.factorial(2 * r) / (2**r * math.factorial(r) * self.damping**r)
        if log_moment < _LOG_DOUBLE_MIN:
            return 0.0
        return float(math.prod(range(1, 2 * r, 2)) * (Fraction(self.noise) / Fraction(self.damping)) ** r)


def limit_law(params: ModelParams) -> LimitLaw:
    """Resolve the regime of params into its LimitLaw; RegimeError when alpha > 1/2."""
    regime = classify_regime(params)
    if regime is Regime.SUPERDIFFUSIVE:
        raise RegimeError(
            f"the Gaussian limit laws require alpha <= 1/2; got alpha = {params.alpha} ({regime.value})"
        )
    centre = _centre(params)
    if regime is Regime.DIFFUSIVE:
        alpha = params.alpha
        noise, damping = sigma_squared(params), _diffusive_damping(alpha)
        return LimitLaw(
            regime, centre, noise, damping,
            first_step=1, min_horizon=10, default_grid=DEFAULT_GRID_DIFFUSIVE,
            L=lambda k: 1.0, normalizer=math.log,
            skeleton_scale=lambda n, m: np.full_like(m, math.sqrt(n)),
            kernel=lambda s, t: noise / (damping * t) * (t / s) ** alpha,
        )
    noise = 4.0 * params.q * (1.0 - params.p)
    return LimitLaw(
        regime, centre, noise, damping=1.0,
        first_step=2, min_horizon=3, default_grid=DEFAULT_GRID_CRITICAL,
        L=np.log, normalizer=lambda n: math.log(math.log(n)),
        skeleton_scale=lambda n, m: np.sqrt(m / math.log(n)),
        kernel=lambda s, t: noise * s,
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
    # Imported here, not at module load: scipy.special is most of the
    # package's import time, and only this function needs it.
    from scipy.special import ndtr

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


def _measure_tiles(law: LimitLaw, params: ModelParams, n: int, rng: RngStreamSpec):
    """Yield the law's (points, weights) per chunk of walk_position_chunks(params,
    n, rng): entry j belongs to step k + j, for steps law.first_step to n."""
    for k, S in walk_position_chunks(params, n, rng):
        if k < law.first_step:
            S, k = S[law.first_step - k :], law.first_step
        yield law.measure(np.arange(k, k + len(S), dtype=np.float64), S)


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
    _check_horizon(n, law.min_horizon)
    if n <= RAW_POINT_LIMIT:
        points, weights = (np.concatenate(x) for x in zip(*_measure_tiles(law, params, n, rng)))
        return WeightedSample(points, weights, law.normalizer(n), law.variance, n, histogram=False)
    if law.variance > 0:
        half_span = HISTOGRAM_SPAN_SDS * math.sqrt(law.variance)
    else:
        half_span = max(float(np.max(np.abs(pts))) for pts, _ in _measure_tiles(law, params, n, rng))
    edges = np.linspace(-half_span, half_span, HISTOGRAM_BINS + 1)
    masses = np.zeros(HISTOGRAM_BINS, dtype=np.float64)
    for pts, w in _measure_tiles(law, params, n, rng):
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
    law = limit_law(params)
    target = law.moment(r)
    value = float(qsl_functional_batch(params, n, r, [rng])[0])
    return MomentFunctionalResult(r=r, value=value, target=target, n=n, regime=law.regime)


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
    centre)^(2r), and the sum is divided by the law's normalizer. The walk
    kernel adds each replica's terms in step order as it steps, in the kernel
    calls of walk_checkpoints_batch to [n] (diffusive) or [1, n] (critical,
    whose call to step 1 adds none), so a value depends only on its stream,
    never on kernel calls, replica ranges or threads. Returns one value per
    spec, in spec order; a horizon below 3 or beyond MAX_HORIZON (10^8), or
    replicas beyond the machine's physical memory (32 bytes each), is refused
    with a ValueError before anything is allocated.
    """
    if r < 1:
        raise ValueError("moment order r must be at least 1")
    law = limit_law(params)
    _check_horizon(n, 3)
    stops = [n] if law.first_step == 1 else [law.first_step - 1, n]
    sums = (law.first_step, law.scale_weight, law.centre, r)
    return _walk_ranges(params, stops, specs, threads, sums) / law.normalizer(n)


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
    values = walk_checkpoints_batch(params, steps, specs, threads=threads)
    m = steps.astype(np.float64)
    values /= m
    values -= law.centre
    values *= law.skeleton_scale(n, m)
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
    theoretical = np.array([[law.kernel(min(s, t), max(s, t)) for t in times] for s in times])
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
    alpha, center = params.alpha, _centre(params)
    checkpoints = sorted(set(ns) | {2 * x for x in ns})
    col = {cp: i for i, cp in enumerate(checkpoints)}
    pos = walk_checkpoints_batch(params, checkpoints, rng.replicas(replicas), threads=threads)

    def stat(n: int) -> np.ndarray:
        S = pos[:, col[n]]
        return n ** (1.0 - alpha) * (S / n - center)

    results = []
    for n, deviation in zip(ns, _mean_forms(params, ns)[0]):
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
                exact_mean=float(n**-alpha * deviation),
            )
        )
    return results
