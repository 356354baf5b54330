"""Acceptance gate: eleven criteria, one printed line each.

Every test prints exactly one line of the form

    ACCEPTANCE <k>: PASS - <measurements>
    ACCEPTANCE <k>: FAIL - <measurements>

and then asserts. Run with `pytest tests/test_acceptance.py -v -s` to see
all lines; without -s the lines still appear for failing criteria. All
Monte Carlo work derives from master seed 42 with contiguous replica
indices starting at 0. Total runtime is a few minutes, dominated by the
10^5-replica runs at n = 10^5.
"""

import math

import numpy as np

from mrwlab import (
    ModelParams,
    RngStreamSpec,
    asclt_measure_critical,
    asclt_measure_diffusive,
    build_sequences,
    central_moments,
    conditional_moment_S,
    conditional_moment_eps,
    covariance_grid,
    exact_distribution,
    exact_mean_recursion,
    exact_qsl_expectation,
    limit_law,
    qsl_functional_batch,
    sequence_checkpoints,
    superdiffusive_limit,
    two_point_moment_S,
    two_point_moment_eps,
    urn_walk_equivalence_check,
    walk_checkpoints_batch,
    weighted_ks_to_normal,
    weighted_mean_variance,
)
from mrwlab.cli import main as cli_main
from mrwlab.limit_harness import WeightedSample

MASTER_SEED = 42


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def replica_specs(count: int) -> list[RngStreamSpec]:
    return [RngStreamSpec(MASTER_SEED, i) for i in range(count)]


# ---------------------------------------------------------------------------


def test_criterion_01_exact_urn_walk_equivalence():
    """TV(urn blue-count law, walk law) < 1e-12, n <= 30, 3x3 (q,p) grid."""
    grid = [0.25, 0.5, 0.75]
    worst = 0.0
    alphas = set()
    for q in grid:
        for p in grid:
            params = ModelParams(s=0.5, q=q, p=p)
            alphas.add(params.alpha)
            for n in range(1, 31):
                worst = max(worst, urn_walk_equivalence_check(params, n))
    covers = min(alphas) < 0 and 0.0 in alphas and 0.5 in alphas
    ok = worst < 1e-12 and covers
    report(1, ok, f"max TV {worst:.3e} over 9 cells x 30 horizons, "
                  f"alpha grid {sorted(alphas)}")
    assert ok


def test_criterion_02_martingale_identity():
    """a_(n+1)(s+q+alpha*s/n) - q A_(n+1) = a_n s - q A_n, to 1e-12."""
    sets = [(0.5, 0.5), (0.25, 0.5), (0.25, 0.75), (0.1, 0.9), (0.6, 0.35)]
    worst = 0.0
    for q, p in sets:
        alpha = p - q
        cache = build_sequences(alpha, 201)
        for n in range(1, 201):
            states = np.arange(n + 1, dtype=np.float64)
            lhs = cache.a[n + 1] * (states + q + alpha * states / n) - q * cache.A[n + 1]
            rhs = cache.a[n] * states - q * cache.A[n]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-12
    report(2, ok, f"max |lhs-rhs| {worst:.3e} over states s<=n<=200, "
                  f"5 parameter sets alpha in {{0, 0.25, 0.5, 0.8, -0.25}}")
    assert ok


def test_criterion_03_conditional_moment_formulas():
    """Moment formulas vs two-point expectations, k <= 6, states n <= 50.

    Tolerance 1e-12 taken relative: the raw moments reach 2.4e20 at
    (n, s, k) = (50, 50, 6), where one float64 ulp already exceeds any
    absolute 1e-12 band.
    """
    param_sets = [(0.5, 0.5), (0.25, 0.75), (0.1, 0.9)]
    worst = 0.0
    for q, p in param_sets:
        params = ModelParams(s=0.5, q=q, p=p)
        for n in range(1, 51):
            for s_state in range(n + 1):
                for k in range(1, 7):
                    a = conditional_moment_S(params, n, s_state, k)
                    b = two_point_moment_S(params, n, s_state, k)
                    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
                for k in range(2, 7):
                    a = conditional_moment_eps(params, n, s_state, k)
                    b = two_point_moment_eps(params, n, s_state, k)
                    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    ok = worst <= 1e-12
    report(3, ok, f"max relative deviation {worst:.3e} over all states "
                  f"n<=50, k<=6, 3 parameter sets")
    assert ok


def test_criterion_04_sequence_limits():
    """v_n, f_n, and mean-ratio asymptotics at n = 10^6."""
    checks = []
    # diffusive, alpha = 0.25
    cache = build_sequences(0.25, 10**6)
    ell = math.gamma(1.25) ** 2 / 0.5
    v_dev = abs(cache.v[10**6] / 10**3 - ell) / ell
    f_dev = abs(10**6 * cache.f[10**6] - 0.5)
    checks.append(("diffusive v_n/sqrt(n) rel dev", v_dev, v_dev <= 0.01))
    checks.append(("diffusive |n f_n - 0.5|", f_dev, f_dev <= 0.01))
    # critical
    crit4 = sequence_checkpoints(0.5, [10**4, 10**6])
    target = math.pi / 4
    dev_small = abs(crit4["v"][0] / math.log(10**4) - target) / target
    dev_big = abs(crit4["v"][1] / math.log(10**6) - target) / target
    checks.append(("critical v_n/log n rel dev at 1e6", dev_big, dev_big <= 0.10))
    checks.append(("critical trend 1e4 -> 1e6", dev_small - dev_big, dev_big < dev_small))
    # mean-ratio deviation stays bounded over a log grid for both regimes
    grid = [int(x) for x in np.unique(np.logspace(1, 6, 26).astype(np.int64))]
    bounded = []
    for alpha in (0.25, 0.5):
        out = sequence_checkpoints(alpha, grid)
        g = np.asarray(grid, dtype=np.float64)
        vals = np.abs(out["A"] / (g * out["a"]) - 1 / (1 - alpha)) * g ** (1 - alpha)
        flat_tail = abs(vals[-1] - vals[-2]) <= 1e-3 * vals[-1]
        bounded.append((float(vals.max()), bool(vals.max() < 2.0 and flat_tail)))
    checks.append(("mean-ratio bound alpha=0.25 (max)", bounded[0][0], bounded[0][1]))
    checks.append(("mean-ratio bound alpha=0.5 (max)", bounded[1][0], bounded[1][1]))
    ok = all(c[2] for c in checks)
    detail = "; ".join(f"{name} {val:.4g} {'ok' if good else 'BAD'}" for name, val, good in checks)
    report(4, ok, detail)
    assert ok


def test_criterion_05_diffusive_clt_variance():
    """sqrt(n)(S_n/n - 1/2) at (q=p=s=0.5), n = 10^4, 10^5 replicas.

    The statistic is centered at the limiting frequency q/(1-alpha) = 1/2.
    Variance within 3% of 0.25, KS to N(0, 0.25) <= 0.02, and the exact DP
    variance agrees with central_moments to 1e-10 (deterministic).
    """
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    n, reps = 10**4, 10**5
    finals = walk_checkpoints_batch(params, [n], replica_specs(reps))[:, 0]
    stat = math.sqrt(n) * (finals / n - 0.5)
    var = float(np.var(stat, ddof=1))
    var_ok = abs(var - 0.25) / 0.25 <= 0.03
    sample = WeightedSample(stat, np.ones(reps), float(reps), 0.25, n)
    ks = weighted_ks_to_normal(sample)
    ks_ok = ks <= 0.02
    dist = exact_distribution(params, n)
    dp_var = dist.variance() / n
    rec_var = central_moments(params, n, 2)[1][2, n] / n
    cross_dev = abs(dp_var - rec_var) / rec_var
    cross_ok = cross_dev <= 1e-10
    ok = var_ok and ks_ok and cross_ok
    report(5, ok, f"variance {var:.5f} (target 0.25 within 3%: {var_ok}), "
                  f"KS {ks:.4f} (<=0.02: {ks_ok}), DP vs recursion rel dev "
                  f"{cross_dev:.2e} (<=1e-10: {cross_ok})")
    assert ok


def test_criterion_06_critical_clt_variance():
    """sqrt(n/log n)(S_n/n - 1/2) at (0.25, 0.75), n = 10^5, 10^5 replicas."""
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    n, reps = 10**5, 10**5
    finals = walk_checkpoints_batch(params, [n], replica_specs(reps))[:, 0]
    stat = np.sqrt(n / math.log(n)) * (finals / n - 0.5)
    var = float(np.var(stat, ddof=1))
    dev = abs(var - 0.25) / 0.25
    ok = dev <= 0.10
    report(6, ok, f"variance {var:.5f}, relative deviation from 0.25 is "
                  f"{dev:.3%} (tolerance 10%)")
    assert ok


def test_criterion_07_fclt_covariance_grids():
    """Empirical skeleton covariance vs limit kernels, n = 10^4, 10^5 reps."""
    diff = covariance_grid(
        ModelParams(s=0.5, q=0.5, p=0.5), 10**4, None, 10**5, RngStreamSpec(MASTER_SEED)
    )
    diff_dev = float(np.max(np.abs(diff.empirical / diff.theoretical - 1.0)))
    crit = covariance_grid(
        ModelParams(s=0.5, q=0.25, p=0.75), 10**4, None, 10**5, RngStreamSpec(MASTER_SEED)
    )
    crit_dev = float(np.max(np.abs(crit.empirical / crit.theoretical - 1.0)))
    ok = diff_dev <= 0.10 and crit_dev <= 0.15
    report(7, ok, f"worst cell deviation: diffusive {diff_dev:.3%} (<=10%), "
                  f"critical {crit_dev:.3%} (<=15%)")
    assert ok


def _prefix_ks(sample: WeightedSample, horizon: int) -> float:
    """KS of the diffusive measure truncated to k <= horizon (raw samples)."""
    m = horizon  # start_k = 1, so the first `horizon` points cover k <= horizon
    sub = WeightedSample(
        sample.points[:m], sample.weights[:m], math.log(horizon),
        sample.target_variance, horizon,
    )
    return weighted_ks_to_normal(sub)


def test_criterion_08_asclt():
    """Single-path weighted measures across 20 seeds at n = 10^6.

    Diffusive clause: KS <= 0.25 for >= 90% of seeds and median KS
    decreasing from n = 10^3 to 10^6. Critical clause: weighted variance
    within a factor 2 of 4q(1-p) for >= 90% of seeds. The mass scales are
    1/log n and 1/log log n, so convergence is logarithmic at best; the
    measured rates at these horizons fall short of the stated thresholds
    and the criterion is reported as it comes out.
    """
    seeds = 20
    horizons = [10**3, 10**4, 10**5, 10**6]
    diff_params = ModelParams(s=0.5, q=0.5, p=0.5)
    ks_by_horizon = {h: [] for h in horizons}
    for i in range(seeds):
        sample = asclt_measure_diffusive(diff_params, 10**6, RngStreamSpec(MASTER_SEED, i))
        for h in horizons:
            ks_by_horizon[h].append(_prefix_ks(sample, h))
    final_ks = np.array(ks_by_horizon[10**6])
    frac_diff = float(np.mean(final_ks <= 0.25))
    medians = [float(np.median(ks_by_horizon[h])) for h in horizons]
    median_decreasing = medians[-1] < medians[0]

    crit_params = ModelParams(s=0.5, q=0.25, p=0.75)
    factors = []
    for i in range(seeds):
        sample = asclt_measure_critical(crit_params, 10**6, RngStreamSpec(MASTER_SEED, i))
        _, var = weighted_mean_variance(sample)
        factors.append(var / sample.target_variance)
    factors = np.array(factors)
    frac_crit = float(np.mean((factors >= 0.5) & (factors <= 2.0)))
    # Exact finite-n expectation of the weighted second moment about 2q: the
    # r = 1 functional, renormalized from log log n to the measure's own mass
    # sum 1/(k log k), k = 2..n.
    n = 10**6
    k = np.arange(2, n + 1, dtype=np.float64)
    mass = float(np.sum(1.0 / (k * np.log(k))))
    exact_m2 = exact_qsl_expectation(crit_params, n, 1) * limit_law(crit_params).normalizer(n) / mass
    limit = 4 * crit_params.q * (1 - crit_params.p)

    ok = frac_diff >= 0.90 and median_decreasing and frac_crit >= 0.90
    report(8, ok, f"diffusive: {frac_diff:.0%} of seeds with KS<=0.25 "
                  f"(need 90%), median KS by horizon {[round(m, 3) for m in medians]}; "
                  f"critical: {frac_crit:.0%} of seeds within factor 2 of "
                  f"target variance (need 90%), factor range "
                  f"[{factors.min():.3f}, {factors.max():.3f}], exact finite-n "
                  f"weighted second moment {exact_m2:.4f} (factor {exact_m2 / limit:.3f}) "
                  f"vs limit 4q(1-p) = {limit:.4f}")
    assert ok


def test_criterion_09_qsl_even_moments():
    """Mean functional over 200 paths at n = 10^5 vs the limit constants.

    Diffusive r = 1, 2 within 10%; critical r = 1 within 25%. The exact
    finite-n expectation of each functional (exact_qsl_expectation) is
    printed next to the Monte Carlo mean: where the criterion fails, that
    number shows how far the finite-n target itself sits from the limit.
    """
    n, paths = 10**5, 200
    specs = replica_specs(paths)
    parts = []
    ok = True
    diff_params = ModelParams(s=0.5, q=0.5, p=0.5)
    for r, tol in ((1, 0.10), (2, 0.10)):
        values = qsl_functional_batch(diff_params, n, r, specs)
        target = limit_law(diff_params).moment(r)
        exact = exact_qsl_expectation(diff_params, n, r)
        dev = abs(values.mean() - target) / target
        good = dev <= tol
        ok = ok and good
        parts.append(
            f"diffusive r={r}: mean {values.mean():.4f} vs limit {target:.4f} "
            f"({(values.mean() - target) / target:+.1%}, tol {tol:.0%}, exact finite-n expectation {exact:.4f}) "
            f"{'ok' if good else 'BAD'}"
        )
    crit_params = ModelParams(s=0.5, q=0.25, p=0.75)
    values = qsl_functional_batch(crit_params, n, 1, specs)
    target = limit_law(crit_params).moment(1)
    exact = exact_qsl_expectation(crit_params, n, 1)
    dev = abs(values.mean() - target) / target
    good = dev <= 0.25
    ok = ok and good
    parts.append(
        f"critical r=1: mean {values.mean():.4f} vs limit {target:.4f} "
        f"({(values.mean() - target) / target:+.1%}, tol 25%, exact finite-n expectation {exact:.4f}) "
        f"{'ok' if good else 'BAD'}"
    )
    report(9, ok, "; ".join(parts))
    assert ok


def test_criterion_10_superdiffusive_limit():
    """n^(1-alpha)(S_n/n - 1/2) at (0.1, 0.9): mean, variance, Cauchy RMS."""
    params = ModelParams(s=0.5, q=0.1, p=0.9)
    n_list = [10**3, 10**4, 10**5]
    results = superdiffusive_limit(params, n_list, 10**4, RngStreamSpec(MASTER_SEED))
    final = results[-1]
    means = exact_mean_recursion(params, 10**5)
    c = params.q / (1 - params.alpha)
    exact_mean = (10**5) ** (1 - params.alpha) * (means[10**5] / 10**5 - c)
    mean_dev_se = abs(final.mean - exact_mean) / final.mean_se
    mean_ok = mean_dev_se <= 3.0
    var_lo = final.variance - 2.326 * final.variance_se
    var_ok = var_lo > 0.0
    rms = [r.cauchy_rms for r in results]
    rms_ok = rms[0] > rms[1] > rms[2]
    ok = mean_ok and var_ok and rms_ok
    report(10, ok, f"mean {final.mean:.5f} vs exact {exact_mean:.5f} "
                   f"({mean_dev_se:.2f} SE, <=3), variance {final.variance:.5f} "
                   f"with 99% lower bound {var_lo:.5f} (>0: {var_ok}), "
                   f"Cauchy RMS {[round(x, 4) for x in rms]} decreasing: {rms_ok}")
    assert ok


def test_criterion_11_reproducibility(tmp_path):
    """Byte-identical outputs for identical seeds at any thread count."""
    cases = [
        ["qsl", "--n", "2000", "--replicas", "16", "--q", "0.25", "--p", "0.75"],
        ["superdiffusive", "--n", "500,1000", "--replicas", "500", "--q", "0.1", "--p", "0.9"],
        ["simulate", "--n", "500", "--replicas", "32", "--out", "json"],
    ]
    all_ok = True
    for idx, argv in enumerate(cases):
        blobs = []
        for run, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{idx}-{run}.txt"
            rc = cli_main(argv + ["--threads", threads, "--out-path", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        all_ok = all_ok and blobs[0] == blobs[1] == blobs[2]
    report(11, all_ok, f"{len(cases)} commands, repeat run and 4-thread run "
                       f"byte-identical: {all_ok}")
    assert all_ok
