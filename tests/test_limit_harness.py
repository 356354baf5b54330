import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import mrwlab.core_process as cp
import mrwlab.limit_harness as lh
from mrwlab import (
    ModelParams,
    Regime,
    RegimeError,
    RngStreamSpec,
    WeightedSample,
    asclt_measure,
    asclt_measure_critical,
    asclt_measure_diffusive,
    classify_regime,
    covariance_grid,
    exact_distribution,
    exact_mean_recursion,
    exact_qsl_expectation,
    fclt_skeletons_batch,
    limit_law,
    qsl_functional,
    qsl_functional_batch,
    skeleton_steps,
    superdiffusive_limit,
    theoretical_covariance_diffusive,
    walk_checkpoints_batch,
    walk_position_chunks,
    walk_positions_batch,
    weighted_ks_to_normal,
    weighted_mean_variance,
)
from test_core_process import _fixed_ranges, _reference_positions, _unit

DIFFUSIVE = ModelParams(s=0.5, q=0.5, p=0.5)
CRITICAL = ModelParams(s=0.5, q=0.25, p=0.75)
SUPER = ModelParams(s=0.5, q=0.1, p=0.9)


# ---------------------------------------------------------------- gates


def test_regime_gates():
    spec = RngStreamSpec(1)
    with pytest.raises(RegimeError):
        asclt_measure_diffusive(CRITICAL, 1000, spec)
    with pytest.raises(RegimeError):
        asclt_measure_critical(DIFFUSIVE, 1000, spec)
    with pytest.raises(RegimeError):
        qsl_functional(SUPER, 1000, 1, spec)
    with pytest.raises(RegimeError):
        qsl_functional_batch(SUPER, 1000, 1, [spec])
    with pytest.raises(RegimeError):
        fclt_skeletons_batch(SUPER, 1000, None, [spec])
    with pytest.raises(RegimeError):
        superdiffusive_limit(DIFFUSIVE, [100, 200], 10, spec)
    with pytest.raises(RegimeError):
        asclt_measure(SUPER, 1000, spec)
    with pytest.raises(RegimeError):
        covariance_grid(SUPER, 1000, None, 1000, spec)


def test_limit_law_resolves_each_regime():
    law = limit_law(ModelParams(s=0.5, q=0.3, p=0.6))
    assert law.regime is Regime.DIFFUSIVE and law.first_step == 1
    assert law.default_grid == lh.DEFAULT_GRID_DIFFUSIVE
    assert law.centre == 0.3 / 0.7 and law.L(np.arange(1.0, 4.0)) == 1.0
    assert law.variance == (0.3 * 0.4 / 0.7**2) / (1 - 2 * 0.3)
    assert law.normalizer(1000) == math.log(1000)
    crit = limit_law(ModelParams(s=0.5, q=0.2, p=0.7))  # float p - q is just below 1/2
    assert crit.regime is Regime.CRITICAL and crit.first_step == 2
    assert crit.default_grid == lh.DEFAULT_GRID_CRITICAL
    assert crit.centre == 0.4 and crit.variance == crit.noise == 4 * 0.2 * (1 - 0.7)
    assert crit.normalizer(1000) == math.log(math.log(1000))
    with pytest.raises(RegimeError):
        limit_law(SUPER)


def test_near_critical_diffusive_point_with_float_alpha_one_half_is_refused():
    # p - q is just below 1/2 exactly, but the float alpha rounds to 1/2.
    params = ModelParams(s=0.5, q=0.0007500000000000285, p=0.50075)
    assert classify_regime(params) is Regime.DIFFUSIVE and params.alpha == 0.5
    with pytest.raises(ValueError, match=r"damping 1 - 2 alpha is 0\.0 at the float alpha = 0\.5"):
        limit_law(params)


def test_critical_centre_is_twice_q():
    # q/(1-alpha) rounds to 2q at every decimal critical pair, so the
    # critical harnesses can share the diffusive centre formula.
    for i in range(1, 501):
        params = ModelParams(s=0.5, q=i / 1000, p=(i + 500) / 1000)
        assert limit_law(params).centre == 2 * params.q


def test_small_horizon_guards():
    spec = RngStreamSpec(1)
    with pytest.raises(ValueError):
        asclt_measure_diffusive(DIFFUSIVE, 5, spec)
    with pytest.raises(ValueError):
        asclt_measure_critical(CRITICAL, 2, spec)
    with pytest.raises(ValueError):
        qsl_functional(DIFFUSIVE, 2, 1, spec)
    with pytest.raises(ValueError):
        qsl_functional(DIFFUSIVE, 1000, 0, spec)


# ---------------------------------------------------------------- weighted KS


def test_weighted_ks_matches_scipy_for_equal_weights():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal(5000)
    sample = WeightedSample(
        points=pts,
        weights=np.ones_like(pts),
        normalizer=float(len(pts)),
        target_variance=1.0,
        n=len(pts),
    )
    ours = weighted_ks_to_normal(sample)
    theirs = stats.kstest(pts, "norm").statistic
    assert abs(ours - theirs) < 1e-12


def test_weighted_ks_variance_handling():
    pts = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        weighted_ks_to_normal(WeightedSample(pts, np.ones(3), 3.0, 0.0, 3))
    assert weighted_ks_to_normal(WeightedSample(pts, np.ones(3), 3.0, 1.0, 3)) > 0.0


def test_weighted_mean_variance_definition():
    pts = np.array([0.0, 2.0])
    w = np.array([3.0, 1.0])
    sample = WeightedSample(pts, w, 4.0, 1.0, 2)
    mean, var = weighted_mean_variance(sample)
    assert abs(mean - 0.5) < 1e-15
    assert abs(var - (0.75 * 0.25 + 0.25 * 2.25)) < 1e-15


# ---------------------------------------------------------------- measures


def test_diffusive_measure_reconstructs_path():
    n = 200
    spec = RngStreamSpec(11)
    sample = asclt_measure_diffusive(DIFFUSIVE, n, spec)
    assert not sample.histogram
    assert len(sample.points) == n
    pos = walk_positions_batch(DIFFUSIVE, n, [spec])[0]
    k = np.arange(1, n + 1, dtype=np.float64)
    expected = np.sqrt(k) * (pos[1:] / k - 0.5)
    assert np.allclose(sample.points, expected, atol=1e-12)
    assert np.allclose(sample.weights, 1.0 / k, rtol=1e-15)
    assert sample.normalizer == math.log(n)
    assert sample.target_variance == 0.25


def test_critical_measure_reconstructs_path():
    n = 200
    spec = RngStreamSpec(12)
    sample = asclt_measure_critical(CRITICAL, n, spec)
    assert len(sample.points) == n - 1
    pos = walk_positions_batch(CRITICAL, n, [spec])[0]
    k = np.arange(2, n + 1, dtype=np.float64)
    expected = np.sqrt(k / np.log(k)) * (pos[2:] / k - 0.5)
    assert np.allclose(sample.points, expected, atol=1e-12)
    assert np.allclose(sample.weights, 1.0 / (k * np.log(k)), rtol=1e-15)
    assert sample.target_variance == 0.25


def test_diffusive_mass_ratio_tracks_harmonic_sum():
    # weights sum to H_n, so the ratio is 1 + Euler-Mascheroni / log n.
    sample = asclt_measure_diffusive(DIFFUSIVE, 10_000, RngStreamSpec(4))
    expected = 1.0 + np.euler_gamma / math.log(10_000)
    assert abs(sample.mass_ratio() - expected) < 1e-3


def test_critical_mass_ratio_drifts_toward_one():
    ratios = [
        asclt_measure_critical(CRITICAL, n, RngStreamSpec(4)).mass_ratio()
        for n in (1000, 100_000)
    ]
    assert ratios[0] > ratios[1] > 1.0


def test_histogram_mode_agrees_with_raw(monkeypatch):
    n = 50_000
    spec = RngStreamSpec(21)
    raw = asclt_measure_diffusive(DIFFUSIVE, n, spec)
    monkeypatch.setattr(lh, "RAW_POINT_LIMIT", 2000)
    hist = asclt_measure_diffusive(DIFFUSIVE, n, spec)
    assert hist.histogram and len(hist.points) == lh.HISTOGRAM_BINS
    assert abs(hist.weights.sum() - raw.weights.sum()) < 1e-9
    ks_raw = weighted_ks_to_normal(raw)
    ks_hist = weighted_ks_to_normal(hist)
    assert abs(ks_raw - ks_hist) < 0.005
    m_raw, v_raw = weighted_mean_variance(raw)
    m_hist, v_hist = weighted_mean_variance(hist)
    assert abs(m_raw - m_hist) < 0.01
    assert abs(v_raw - v_hist) < 0.01


def test_histogram_mode_at_zero_limit_variance(monkeypatch):
    # At p = 1 the limit variance is 0, so the histogram spans the path's own points.
    params = ModelParams(s=0.5, q=0.6, p=1.0)
    spec = RngStreamSpec(1, 2)
    raw = asclt_measure(params, 3000, spec)
    monkeypatch.setattr(lh, "RAW_POINT_LIMIT", 500)
    hist = asclt_measure(params, 3000, spec)
    assert hist.histogram and hist.target_variance == 0.0
    width = hist.points[1] - hist.points[0]
    m_raw, v_raw = weighted_mean_variance(raw)
    m_hist, v_hist = weighted_mean_variance(hist)
    assert round(m_raw, 3) == -0.540 and round(v_raw, 4) == 0.0534
    assert abs(m_hist - m_raw) <= width
    assert abs(v_hist - v_raw) <= width


# ---------------------------------------------------------------- qsl


def test_qsl_single_path_matches_batch():
    for params, n in [(DIFFUSIVE, 5000), (CRITICAL, 5000)]:
        batch = qsl_functional_batch(params, n, 2, [RngStreamSpec(9, i) for i in range(3)])
        for i in range(3):
            single = qsl_functional(params, n, 2, RngStreamSpec(9, i))
            assert single.value == batch[i]


@pytest.mark.parametrize("params", [DIFFUSIVE, CRITICAL], ids=["diffusive", "critical"])
def test_qsl_replicas_beyond_physical_memory_are_refused(params):
    # 10^12 replicas x 32 bytes (keys, position and sum per replica) is 32
    # TB: a ValueError naming the size, raised before anything is allocated,
    # as the checkpoint engine raises one, not numpy's MemoryError. The
    # critical walk's extra stop at step 1 holds no result, so it costs none.
    with pytest.raises(ValueError, match="1000000000000 replicas' QSL sums need 32000000000000 bytes"):
        qsl_functional_batch(params, 10, 1, RngStreamSpec(0).replicas(10**12))


def test_qsl_batch_peak_memory_does_not_grow_with_n():
    # A kernel call takes at most _TILE_VALUES steps whatever the replica
    # count, and the reducer holds one call's scales and weights at a time,
    # so its traced peak over 64 calls stays within 10% of its peak over 8.
    specs = RngStreamSpec(3).replicas(4)
    peaks = []
    for calls in (8, 64):
        tracemalloc.start()
        try:
            qsl_functional_batch(CRITICAL, calls * cp._TILE_VALUES, 2, specs, threads=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("width,threads", [(1, 1), (33, 1), (33, 2), (8192, 1), (8192, 2)])
def test_walker_calls_depend_on_the_stops_alone(monkeypatch, width, threads):
    # Each range of a QSL or checkpoint call makes the same kernel calls at
    # any range width or thread count: one ends at every stop, and none takes
    # more than _TILE_VALUES steps. A recorder of each call's (m, steps), by
    # the first replica index of its range, stands in for the kernel. It
    # fills a position tile it is given, which walk_positions_batch casts.
    T, specs, calls = cp._TILE_VALUES, RngStreamSpec(4).replicas(width), {}

    def record(p, keys, S, m, steps, out=None, qsl=None):
        calls.setdefault(int(keys[0, 1]), []).append((m, steps))
        if out is not None:
            out.fill(0.0)

    monkeypatch.setattr(cp, "_advance", record)
    qsl_functional_batch(DIFFUSIVE, 2 * T + 77, 2, specs, threads=threads)
    assert calls and all(c == [(0, T), (T, T), (2 * T, 77)] for c in calls.values())
    # The critical sum starts at step 2, so its walk stops at step 1 as well:
    # it makes the calls of the checkpoint walk to [1, n].
    calls.clear()
    qsl_functional_batch(CRITICAL, 2 * T + 77, 2, specs, threads=threads)
    critical = [(0, 1), (1, T - 1), (T, T), (2 * T, 77)]
    assert calls and all(c == critical for c in calls.values())
    calls.clear()
    walk_checkpoints_batch(CRITICAL, [1, 2 * T + 77], specs, threads=threads)
    assert calls and all(c == critical for c in calls.values())
    calls.clear()
    walk_checkpoints_batch(CRITICAL, [5, T + 3, T + 4, 3 * T + 1], specs, threads=threads)
    expected = [(0, 5), (5, T - 5), (T, 3), (T + 3, 1), (T + 4, T - 4), (2 * T, T), (3 * T, 1)]
    assert calls and all(c == expected for c in calls.values())
    # The position tiles run in the same walker: one replica's chunks make
    # the calls of its checkpoint walk to the horizon, and a range of w
    # replicas ends its calls at each multiple of max(8, T // w // 8 * 8).
    n = 2 * T + 77
    calls.clear()
    list(walk_position_chunks(CRITICAL, n, specs[0]))
    chunk_calls = calls.pop(0)
    walk_checkpoints_batch(CRITICAL, [n], [specs[0]], threads=threads)
    assert chunk_calls == calls.pop(0) and not calls
    n = 2 * T // width + 77
    walk_positions_batch(CRITICAL, n, specs, threads=threads)
    starts = sorted(calls)
    for lo, hi in zip(starts, starts[1:] + [width]):
        rows = max(8, T // (hi - lo) // 8 * 8)
        assert [m + steps for m, steps in calls[lo]] == [*range(rows, n, rows), n], (lo, hi)
        assert [m for m, _ in calls[lo]] == [0, *range(rows, n, rows)], (lo, hi)


def _has_limit_law(qp):
    """Whether limit_law accepts (q, p): it refuses alpha > 1/2, and also a
    diffusive point whose float alpha is 1/2, such as (7.721556685634122e-181, 0.5)."""
    try:
        limit_law(ModelParams(0.5, *qp))
    except ValueError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.01, 0.99),
    qp=st.one_of(
        st.sampled_from([(0.2, 0.7), (0.25, 0.75), (0.6, 1.0)]),
        st.tuples(_unit.filter(lambda q: q > 0.0), _unit).filter(_has_limit_law),
    ),
    r=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**64 - 1),
    start=st.one_of(st.just(0), st.integers(2**63 - 20, 2**63 + 20)),
    replicas=st.integers(1, 33),
    as_range=st.booleans(),
    n=st.integers(3, 130),
    width=st.sampled_from([1, 3, 8, 9, 8192]),
    position_tile=st.sampled_from([1, 16, 40, 136, cp._TILE_VALUES]),
    threads=st.sampled_from([1, 2]),
)
# A subnormal value (about 1e-322), 3 subnormal ulps from an fsum reference.
@example(
    s=0.5, qp=(1.5973122800602915e-162, 0.0), r=1, seed=0, start=0, replicas=4, as_range=True,
    n=111, width=8, position_tile=cp._TILE_VALUES, threads=1,
)
# The all-zero path with subnormal terms: the value lies 0.75 subnormal ulps
# from the exact sum, an fsum over the float terms 18.75 ulps, beyond n = 17.
@example(
    s=0.5, qp=(7.164697059533541e-81, 0.0), r=2, seed=0, start=0, replicas=2, as_range=False,
    n=17, width=1, position_tile=1, threads=1,
)
# Critical, so the sums start at step 2, inside the first call: 16 replicas
# run one AVX-512 unit of 16 (on a CPU with it), 33 a unit of 32 and a
# scalar tail.
@example(
    s=0.3, qp=(0.25, 0.75), r=2, seed=5, start=0, replicas=16, as_range=True,
    n=130, width=8192, position_tile=cp._TILE_VALUES, threads=1,
)
@example(
    s=0.3, qp=(0.2, 0.7), r=3, seed=2**64 - 1, start=2**63 - 20, replicas=33, as_range=False,
    n=130, width=8192, position_tile=cp._TILE_VALUES, threads=2,
)
# Kernel calls two Philox blocks long (a QSL call takes at most _TILE_VALUES
# steps, here 16, at any range width), the last ending inside a block. Calls
# start on block edges by construction;
# test_kernel_paths_match_per_replica_generators sums from starts inside a block.
@example(
    s=0.7, qp=(0.25, 0.75), r=3, seed=1, start=0, replicas=33, as_range=True,
    n=123, width=8192, position_tile=16, threads=2,
)
def test_qsl_batch_is_a_step_order_sum_over_the_step_loop(
    s, qp, r, seed, start, replicas, as_range, n, width, position_tile, threads
):
    params = ModelParams(s, *qp)
    law = limit_law(params)
    specs = RngStreamSpec(seed, start).replicas(replicas)
    if not as_range:
        specs = list(specs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_replica_ranges", _fixed_ranges(width))
        mp.setattr(cp, "_TILE_VALUES", position_tile)
        values = qsl_functional_batch(params, n, r, specs, threads=threads)
    k = np.arange(law.first_step, n + 1, dtype=np.float64)
    for value, S in zip(values, _reference_positions(params, n, list(specs))[:, law.first_step :]):
        points, weights = law.measure(k, S)
        total = 0.0
        for point, weight in zip(points.tolist(), weights.tolist()):
            term = weight * (point * point)
            for _ in range(r - 1):
                term *= point * point
            total += term
        assert value == total / law.normalizer(n)
        # The definition term by term, k^(r-1) L(k)^-(r+1) (S_k/k - centre)^(2r),
        # in exact rationals from the doubles centre, L(k) and normalizer(n).
        centre = Fraction(law.centre)
        exact = float(sum(
            Fraction(int(kk)) ** (r - 1) / Fraction(float(law.L(kk))) ** (r + 1)
            * (Fraction(int(sk), int(kk)) - centre) ** (2 * r)
            for kk, sk in zip(k.tolist(), S.tolist())
        ) / Fraction(law.normalizer(n)))
        # Rounding below the normal range is absolute: up to n subnormal ulps of 2^-1074.
        assert abs(value - exact) <= 1e-12 * abs(exact) + n * 2.0**-1074


def test_qsl_targets():
    assert abs(limit_law(DIFFUSIVE).moment(1) - 0.25) < 1e-15
    # r = 2: sigma^4 * 4! / (4 * 2) / (1-2a)^2 with sigma^2 = 1/4
    assert abs(limit_law(DIFFUSIVE).moment(2) - (0.25**2 * 3.0)) < 1e-15
    assert abs(limit_law(CRITICAL).moment(1) - 0.25) < 1e-15
    assert abs(limit_law(CRITICAL).moment(2) - (0.25**2 * 3.0)) < 1e-15


def test_moment_beyond_the_factorial_range_is_exact():
    # (2r)! leaves the double range at r = 86, the moment does not: it is
    # (2r-1)!! (noise/damping)^r, rounded once.
    for law in (limit_law(DIFFUSIVE), limit_law(ModelParams(0.5, 0.3, 0.55))):
        ratio = Fraction(law.noise) / Fraction(law.damping)
        for r in (86, 87, 120):
            exact = Fraction(math.factorial(2 * r), 2**r * math.factorial(r)) * ratio**r
            assert law.moment(r) == float(exact)
    assert 1.90e103 < limit_law(DIFFUSIVE).moment(86) < 1.91e103
    # A moment below the double range is 0, found without building (2r-1)!!.
    assert limit_law(ModelParams(0.5, 1e-300, 0.3)).moment(10**6) == 0.0
    # Up to r = 85 the float expression stands, bit for bit.
    law = limit_law(CRITICAL)
    assert law.moment(85) == law.noise**85 * math.factorial(170) / (2**85 * math.factorial(85) * law.damping**85)


@pytest.mark.parametrize(
    "params", [ModelParams(0.5, 0.5, 1.0), ModelParams(0.5, 0.6, 1.0)], ids=["critical", "diffusive"]
)
@pytest.mark.parametrize("r", [3, 86, 10**6])
def test_moment_is_zero_without_noise(params, r):
    assert limit_law(params).moment(r) == 0.0


@pytest.mark.parametrize("r", [198, 10**15])
def test_moment_beyond_the_double_range_is_refused(r):
    # Refused from lgamma, before (2r-1)!! is built: r = 10^15 returns at once.
    with pytest.raises(ValueError, match=f"r = {r}"):
        limit_law(DIFFUSIVE).moment(r)
    assert limit_law(DIFFUSIVE).moment(197) > 1e307
    with pytest.raises(ValueError, match="r must be at least 1"):
        limit_law(DIFFUSIVE).moment(0)


@pytest.mark.parametrize("r", [1, 2])
def test_exact_qsl_expectation_follows_the_law_not_the_float_alpha(r):
    # At (0.2, 0.7) the float p - q is 0.49999999999999994, yet the law is
    # critical: weights 1/(k log k) from k = 2, centre 2q, normalizer log log n.
    params = ModelParams(s=0.5, q=0.2, p=0.7)
    n = 100
    moments = {
        k: float(np.dot((np.arange(k + 1) / k - 0.4) ** (2 * r), exact_distribution(params, k).probs))
        for k in range(1, n + 1)
    }
    critical = sum(k ** (r - 1) * math.log(k) ** -(r + 1) * moments[k] for k in range(2, n + 1))
    critical /= math.log(math.log(n))
    value = exact_qsl_expectation(params, n, r)
    assert abs(value - critical) <= 1e-12 * critical
    # A float test alpha == 0.5 would have picked the diffusive weights and normalizer.
    diffusive = sum(k ** (r - 1) * moments[k] for k in range(1, n + 1)) / math.log(n)
    assert abs(value - diffusive) > 0.1 * critical


@pytest.mark.parametrize("params", [DIFFUSIVE, CRITICAL], ids=["diffusive", "critical"])
def test_qsl_monte_carlo_matches_exact_expectation(params):
    n, reps = 2000, 400
    values = qsl_functional_batch(params, n, 1, [RngStreamSpec(31, i) for i in range(reps)])
    exact = exact_qsl_expectation(params, n, 1)
    se = values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.mean() - exact) < 5 * se


def test_qsl_result_metadata():
    res = qsl_functional(CRITICAL, 100, 2, RngStreamSpec(1))
    assert res.r == 2 and res.n == 100 and res.regime is Regime.CRITICAL
    assert res.target == limit_law(CRITICAL).moment(2)


# ---------------------------------------------------------------- skeletons


def test_skeleton_steps_mapping():
    steps = skeleton_steps(1000, (0.25, 0.5, 1.0), Regime.DIFFUSIVE)
    assert np.array_equal(steps, [250, 500, 1000])
    steps = skeleton_steps(1000, (0.5, 0.75, 1.0), Regime.CRITICAL)
    assert np.array_equal(steps, [31, 177, 1000])


def test_skeleton_step_errors():
    with pytest.raises(ValueError):
        skeleton_steps(1000, (0.0001, 0.5), Regime.DIFFUSIVE)
    with pytest.raises(ValueError):
        skeleton_steps(10, (0.5, 0.55), Regime.CRITICAL)
    with pytest.raises(ValueError):
        skeleton_steps(1000, (0.5, 0.5), Regime.DIFFUSIVE)
    with pytest.raises(ValueError):
        skeleton_steps(1000, (), Regime.DIFFUSIVE)
    for regime in (Regime.DIFFUSIVE, Regime.CRITICAL):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"finite and lie in \(0, 1\], got grid \[0\.5, "):
                skeleton_steps(1000, (0.5, bad), regime)
        for grid in ((0.5, 2.0), (0.5, 1e30), (0.0, 0.5), (-0.5, 0.5), (0.5, 1.0000000000000002)):
            with pytest.raises(ValueError, match=r"finite and lie in \(0, 1\], got grid \["):
                skeleton_steps(100, grid, regime)


def test_skeleton_endpoint_is_clt_statistic():
    n = 4000
    spec = RngStreamSpec(17)
    skel = fclt_skeletons_batch(DIFFUSIVE, n, None, [spec])
    final = walk_checkpoints_batch(DIFFUSIVE, [n], [spec])[0, 0]
    expected = math.sqrt(n) * (final / n - 0.5)
    assert abs(skel.values[0, -1] - expected) < 1e-12
    assert np.array_equal(skel.grid, np.asarray(lh.DEFAULT_GRID_DIFFUSIVE))


def test_skeleton_batch_shape_and_default_grids():
    specs = [RngStreamSpec(2, i) for i in range(6)]
    skel = fclt_skeletons_batch(CRITICAL, 1000, None, specs)
    assert skel.values.shape == (6, len(lh.DEFAULT_GRID_CRITICAL))
    assert skel.regime is Regime.CRITICAL
    single = fclt_skeletons_batch(CRITICAL, 1000, None, [specs[2]])
    assert np.array_equal(skel.values[2:3], single.values)


def test_degenerate_zero_noise_skeleton_collapses():
    # q = p = 1 makes every step after the first deterministic, so the
    # endpoint value is exactly (X_1 - 1)/sqrt(n) with variance s(1-s)/n,
    # consistent with the identically zero limit kernel.
    params = ModelParams(s=0.5, q=1.0, p=1.0)
    specs = [RngStreamSpec(5, i) for i in range(200)]
    skel = fclt_skeletons_batch(params, 1000, (1.0,), specs)
    assert theoretical_covariance_diffusive(params, 1.0, 1.0) == 0.0
    assert skel.values[:, 0].var() < 1e-3


def test_partial_degenerate_p_one_variance_decays_slowly():
    # p = 1, q = 0.7: zeros still arrive off drawn zeros, and their count
    # grows like n^alpha, so the endpoint variance decays like n^(2 alpha - 1)
    # toward the zero kernel rather than at the usual 1/n rate.
    params = ModelParams(s=0.5, q=0.7, p=1.0)
    specs = [RngStreamSpec(5, i) for i in range(400)]
    v_small = fclt_skeletons_batch(params, 250, (1.0,), specs).values[:, 0].var()
    v_large = fclt_skeletons_batch(params, 4000, (1.0,), specs).values[:, 0].var()
    assert v_large < 0.6 * v_small


# ---------------------------------------------------------------- covariance


def test_covariance_grid_small_run():
    est = covariance_grid(DIFFUSIVE, 2000, None, 4000, RngStreamSpec(77))
    assert np.allclose(est.empirical, est.empirical.T, atol=1e-12)
    for i, t in enumerate(est.grid):
        assert est.theoretical[i, i] == theoretical_covariance_diffusive(DIFFUSIVE, t, t)
    rel = np.abs(est.empirical / est.theoretical - 1.0)
    assert rel.max() < 0.10
    assert np.all(est.standard_errors > 0)


def test_covariance_grid_replica_floor():
    with pytest.raises(ValueError):
        covariance_grid(DIFFUSIVE, 100, None, 10, RngStreamSpec(1))


# ---------------------------------------------------------------- superdiffusive


def test_superdiffusive_limit_against_exact_mean():
    results = superdiffusive_limit(SUPER, [200, 2000], 3000, RngStreamSpec(55))
    means = exact_mean_recursion(SUPER, 2000)
    c = SUPER.q / (1 - SUPER.alpha)
    for res, n in zip(results, (200, 2000)):
        exact_stat_mean = n ** (1 - SUPER.alpha) * (means[n] / n - c)
        assert abs(res.mean - exact_stat_mean) < 5 * res.mean_se
        assert res.variance > 0
        assert res.variance_se > 0
    assert results[1].cauchy_rms < results[0].cauchy_rms


def test_superdiffusive_keep_samples_consistency():
    results = superdiffusive_limit(SUPER, [300], 500, RngStreamSpec(8))
    x = results[0].samples
    assert x is not None and len(x) == 500
    assert abs(results[0].mean - x.mean()) < 1e-12
    assert abs(results[0].variance - x.var(ddof=1)) < 1e-12
    assert abs(results[0].mean_se - math.sqrt(x.var(ddof=1) / 500)) < 1e-12


def test_superdiffusive_variance_se_at_ten_replicas():
    # Var((x - mean)^2) / R with population moments: positive, where m4 less
    # the square of the ddof=1 variance is negative at this replica count.
    params = ModelParams(s=0.5, q=0.1, p=1.0)
    res = superdiffusive_limit(params, [100], 10, RngStreamSpec(42))[0]
    d = res.samples - res.samples.mean()
    assert np.mean(d**4) - res.variance**2 < 0
    expected = math.sqrt((np.mean(d**4) - np.mean(d**2) ** 2) / 10)
    assert res.variance_se > 0
    assert res.variance_se == pytest.approx(expected, rel=1e-12)


def test_superdiffusive_exact_mean_matches_the_recursion():
    ns = [10, 200, 2000]
    means = exact_mean_recursion(SUPER, 2000)
    c = SUPER.q / (1 - SUPER.alpha)
    for res, n in zip(superdiffusive_limit(SUPER, ns, 2, RngStreamSpec(3)), ns):
        assert res.exact_mean == pytest.approx(n ** (1 - SUPER.alpha) * (means[n] / n - c), rel=1e-9, abs=1e-12)


def test_superdiffusive_argument_checks():
    with pytest.raises(ValueError):
        superdiffusive_limit(SUPER, [200, 100], 100, RngStreamSpec(1))
    with pytest.raises(ValueError):
        superdiffusive_limit(SUPER, [], 100, RngStreamSpec(1))
    with pytest.raises(ValueError):
        superdiffusive_limit(SUPER, [100], 1, RngStreamSpec(1))
    # A non-integral horizon is refused, not truncated.
    with pytest.raises(ValueError, match="integral"):
        superdiffusive_limit(SUPER, [100.5], 100, RngStreamSpec(1))


# ---------------------------------------------------------------- threading


def test_harness_results_independent_of_threads():
    specs = [RngStreamSpec(3, i) for i in range(50)]
    assert len(cp._replica_ranges(len(specs), 4)) == 4
    a = qsl_functional_batch(DIFFUSIVE, 500, 1, specs, threads=1)
    b = qsl_functional_batch(DIFFUSIVE, 500, 1, specs, threads=4)
    assert np.array_equal(a, b)
    sa = fclt_skeletons_batch(CRITICAL, 400, None, specs, threads=1)
    sb = fclt_skeletons_batch(CRITICAL, 400, None, specs, threads=4)
    assert np.array_equal(sa.values, sb.values)
