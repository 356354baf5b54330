from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mrwlab import (
    ModelParams,
    RngStreamSpec,
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
    walk_checkpoints_batch,
)
from mrwlab.exact_oracle import DP_BOUND, MAX_MATERIALIZED


# ---------------------------------------------------------------- laws


def test_one_step_law():
    dist = exact_distribution(ModelParams(s=0.3, q=0.5, p=0.5), 1)
    assert np.allclose(dist.probs, [0.7, 0.3], atol=1e-15)


def test_q_equals_p_reduces_to_shifted_binomial():
    # With q = p every response is Bernoulli(q) regardless of the draw, so
    # S_n = X_1 + Binomial(n - 1, q).
    params = ModelParams(s=0.3, q=0.4, p=0.4)
    n = 25
    dist = exact_distribution(params, n)
    pmf = stats.binom.pmf(np.arange(n), n - 1, params.q)
    expected = np.zeros(n + 1)
    expected[:n] += (1 - params.s) * pmf
    expected[1:] += params.s * pmf
    assert np.allclose(dist.probs, expected, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    s=st.floats(0.05, 0.95),
    q=st.floats(0.05, 1.0),
    p=st.floats(0.0, 1.0),
    n=st.integers(1, 60),
)
def test_dp_law_is_a_probability_vector(s, q, p, n):
    dist = exact_distribution(ModelParams(s=s, q=q, p=p), n)
    dist.validate()
    assert len(dist.probs) == n + 1
    assert abs(dist.probs.sum() - 1.0) < 1e-12
    assert dist.probs.min() >= 0.0


def test_dp_bound_enforced():
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    with pytest.raises(ValueError):
        exact_distribution(params, DP_BOUND + 1)
    with pytest.raises(ValueError):
        exact_urn_distribution(params, DP_BOUND + 1)


def test_distribution_summaries():
    dist = exact_distribution(ModelParams(s=0.5, q=0.25, p=0.75), 8)
    assert abs(dist.moment(1) - dist.mean()) < 1e-15
    assert abs(dist.variance() - (dist.moment(2) - dist.mean() ** 2)) < 1e-13
    cdf = dist.cdf()
    assert abs(cdf[-1] - 1.0) < 1e-12
    assert np.all(np.diff(cdf) >= -1e-15)


def test_dp_variance_is_a_central_sum():
    # moment(2) - mean^2 cancels two numbers of size n^2 and lands 6e-12 away.
    params, n = ModelParams(s=0.5, q=0.5, p=0.5), DP_BOUND
    central = central_moments(params, n, 2)[1][2, n]
    assert abs(exact_distribution(params, n).variance() / central - 1.0) < 1e-13


@pytest.mark.parametrize("q,p", [(0.25, 0.25), (0.5, 0.5), (0.25, 0.75), (0.75, 0.25), (0.3, 1.0), (1.0, 0.0)])
def test_urn_walk_equivalence(q, p):
    params = ModelParams(s=0.4, q=q, p=p)
    walk, urn = exact_distribution(params, 25), exact_urn_distribution(params, 25)
    assert total_variation(walk.probs, urn.probs) < 1e-12


def test_total_variation_pads_lengths():
    assert total_variation(np.array([1.0]), np.array([0.5, 0.5])) == 0.5
    assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0


# ---------------------------------------------------------------- means


def test_mean_alpha_zero_is_affine():
    params = ModelParams(s=0.3, q=0.7, p=0.7)
    means = exact_mean_recursion(params, 100)
    m = np.arange(1, 101)
    assert np.allclose(means[1:], 0.3 + 0.7 * (m - 1), rtol=1e-12)


def test_mean_closed_form_satisfies_recursion():
    for q, p in [(0.5, 0.5), (0.25, 0.75), (0.1, 0.9), (0.6, 0.35)]:
        params = ModelParams(s=0.4, q=q, p=p)
        means = exact_mean_recursion(params, 2000)
        m = np.arange(1, 2000)
        gamma = (m + params.alpha) / m
        resid = means[2:] - (params.q + gamma * means[1:2000])
        assert np.max(np.abs(resid) / np.maximum(1.0, np.abs(means[2:]))) < 1e-12


def test_mean_matches_dp():
    params = ModelParams(s=0.4, q=0.25, p=0.75)
    means = exact_mean_recursion(params, 300)
    dp_mean = exact_distribution(params, 300).mean()
    assert abs(means[300] - dp_mean) < 1e-10 * dp_mean


def test_mean_checkpoints_match_full_array():
    params = ModelParams(s=0.4, q=0.1, p=0.9)
    cps = [1, 7, 100, 4999]
    out = exact_mean_checkpoints(params, cps)
    full = exact_mean_recursion(params, 4999)
    assert np.array_equal(out, full[np.array(cps)])


def test_mean_recursion_refuses_horizons_above_its_bound():
    params = ModelParams(s=0.4, q=0.1, p=0.9)
    with pytest.raises(ValueError, match="materialization bound"):
        exact_mean_recursion(params, MAX_MATERIALIZED + 1)


def test_mean_frequency_limit():
    # E[S_n] / n approaches q / (1 - alpha); within 1e-4 by n = 10^7.
    params = ModelParams(s=0.9, q=0.25, p=0.5)
    mean = exact_mean_checkpoints(params, [10**7])[0]
    assert abs(mean / 1e7 - 0.25 / 0.75) < 1e-4


@pytest.mark.parametrize("s", [0.3, 0.5, 0.9])
def test_mean_checkpoints_at_alpha_minus_one_match_dp(s):
    # The weight sequence is undefined at alpha = -1, but the mean is not.
    params = ModelParams(s=s, q=1.0, p=0.0)
    steps = np.arange(1, 41)
    dp = [exact_distribution(params, int(n)).mean() for n in steps]
    assert np.allclose(exact_mean_checkpoints(params, steps), dp, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------- moments


def test_moment_recursion_first_column():
    params = ModelParams(s=0.3, q=0.5, p=0.8)
    mom = moment_recursion(params, 1, 6)
    assert np.allclose(mom[0, :], 1.0)
    assert np.allclose(mom[1:, 1], params.s, rtol=1e-15)


# alpha = -1; alpha = -1/2, whose first variance factor 1 + 2 alpha/m is 0;
# the decimal critical point (float alpha 0.49999999999999994); p = 1; alpha = 0.8.
BOUNDARY_PAIRS = [(1.0, 0.0), (0.75, 0.25), (0.2, 0.7), (0.3, 1.0), (0.1, 0.9)]


@pytest.mark.parametrize("q,p", [(0.3, 0.7), *BOUNDARY_PAIRS])
def test_moment_recursion_against_dp(q, p):
    params = ModelParams(s=0.4, q=q, p=p)
    n = 200
    mom = moment_recursion(params, n, 6)
    dist = exact_distribution(params, n)
    for order in range(1, 7):
        dp_val = dist.moment(order)
        assert abs(mom[order, n] - dp_val) < 1e-10 * abs(dp_val)


@pytest.mark.parametrize("q,p", [(0.25, 0.75), (0.6, 0.35), (0.95, 0.0), *BOUNDARY_PAIRS])
def test_central_moments_against_exact_rationals(q, p):
    # The DP in rationals, the parameters read as decimals. Order j is held to
    # 1e-12 of Var^(j/2), at most the moment itself for even j; odd moments may vanish.
    n, (s_, q_, p_) = 150, (Fraction(repr(x)) for x in (0.4, q, p))
    law = [1 - s_, s_]
    for m in range(1, n):
        moved = [x * (q_ + (p_ - q_) * j / m) for j, x in enumerate(law)]
        law = [x - out + into for x, out, into in zip(law + [0], moved + [0], [0] + moved)]
    mu = sum(j * x for j, x in enumerate(law))
    exact = [float(sum((j - mu) ** order * x for j, x in enumerate(law))) for order in range(7)]
    mean, central = central_moments(ModelParams(s=0.4, q=q, p=p), n, 6)
    assert abs(mean[n] - float(mu)) <= 1e-12 * float(mu)
    assert central[0, n] == 1.0 and central[1, n] == 0.0
    for order in range(2, 7):
        assert abs(central[order, n] - exact[order]) <= 1e-12 * exact[2] ** (order / 2)


def test_moment_recursion_agrees_with_mean_recursion():
    params = ModelParams(s=0.5, q=0.1, p=0.9)
    mom = moment_recursion(params, 500, 1)
    means = exact_mean_recursion(params, 500)
    assert np.allclose(mom[1, 1:], means[1:], rtol=1e-11)


def test_chained_conditional_moments_reproduce_dp():
    # Mixing the conditional moment over the exact law of S_n must land on
    # the raw moment of S_{n+1}.
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    n, k = 40, 2
    dist = exact_distribution(params, n)
    mixed = sum(
        prob * conditional_moment_S(params, n, float(state), k)
        for state, prob in enumerate(dist.probs)
    )
    target = moment_recursion(params, n + 1, 2 * k)[2 * k, n + 1]
    assert abs(mixed - target) < 1e-10 * abs(target)


# ---------------------------------------------------------------- conditionals


@pytest.mark.parametrize("q,p", [(0.5, 0.5), (0.25, 0.75), (0.1, 0.9)])
def test_conditional_S_matches_two_point(q, p):
    params = ModelParams(s=0.5, q=q, p=p)
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        s_state = int(rng.integers(0, n + 1))
        k = int(rng.integers(1, 7))
        a = conditional_moment_S(params, n, s_state, k)
        b = two_point_moment_S(params, n, s_state, k)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("q,p", [(0.5, 0.5), (0.25, 0.75), (0.1, 0.9)])
def test_conditional_eps_matches_two_point(q, p):
    params = ModelParams(s=0.5, q=q, p=p)
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        s_state = int(rng.integers(0, n + 1))
        k = int(rng.integers(2, 7))
        a = conditional_moment_eps(params, n, s_state, k)
        b = two_point_moment_eps(params, n, s_state, k)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_eps_low_order_closed_forms():
    params = ModelParams(s=0.5, q=0.3, p=0.8)
    n, s_state = 10, 4
    pi = params.q + params.alpha * s_state / n
    var = conditional_moment_eps(params, n, s_state, 2)
    assert abs(var - pi * (1 - pi)) < 1e-15
    third = conditional_moment_eps(params, n, s_state, 3)
    assert abs(third - pi * (1 - pi) * (1 - 2 * pi)) < 1e-15


def test_eps_moments_vanish_at_certain_step():
    # q = p = 1 makes every conditional step deterministic, so the centered
    # step is identically zero.
    params = ModelParams(s=0.5, q=1.0, p=1.0)
    for k in range(2, 7):
        assert abs(conditional_moment_eps(params, 9, 3, k)) < 1e-15


def test_conditional_moment_argument_checks():
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    with pytest.raises(ValueError):
        conditional_moment_S(params, 5, 6, 1)
    with pytest.raises(ValueError):
        conditional_moment_S(params, 5, -1, 1)
    with pytest.raises(ValueError):
        conditional_moment_S(params, 5, 2, 0)
    with pytest.raises(ValueError):
        conditional_moment_eps(params, 5, 2, 1)
    with pytest.raises(ValueError):
        conditional_moment_eps(params, 0, 0, 2)


# ---------------------------------------------------------------- covariance


def brute_force_cov(params: ModelParams, m: int, big_m: int) -> float:
    """Joint covariance by full path enumeration (2^M paths)."""
    e_m = e_M = e_mM = 0.0
    for bits in range(2**big_m):
        x = [(bits >> i) & 1 for i in range(big_m)]
        prob = params.s if x[0] else 1 - params.s
        total = x[0]
        s_at_m = total if m == 1 else None
        for j in range(2, big_m + 1):
            pi = params.q + params.alpha * total / (j - 1)
            prob *= pi if x[j - 1] else 1 - pi
            total += x[j - 1]
            if j == m:
                s_at_m = total
        e_m += prob * s_at_m
        e_M += prob * total
        e_mM += prob * s_at_m * total
    return e_mM - e_m * e_M


@pytest.mark.parametrize(
    "q,p,m,M",
    [(0.3, 0.8, 4, 9), (0.25, 0.75, 1, 8), (0.5, 0.5, 5, 10), (1.0, 0.0, 3, 9), (1.0, 0.0, 1, 6),
     (0.75, 0.25, 3, 8), (0.2, 0.7, 4, 10), (0.3, 1.0, 2, 9), (0.1, 0.9, 5, 10)],
)
def test_covariance_matches_enumeration(q, p, m, M):
    params = ModelParams(s=0.4, q=q, p=p)
    exact = exact_covariance_S(params, m, M)
    brute = brute_force_cov(params, m, M)
    assert abs(exact - brute) < 1e-12 * max(1.0, abs(brute))


def test_covariance_diagonal_is_variance():
    params = ModelParams(s=0.4, q=0.25, p=0.75)
    assert abs(exact_covariance_S(params, 50, 50) - exact_distribution(params, 50).variance()) < 1e-11


def test_covariance_argument_checks():
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    with pytest.raises(ValueError):
        exact_covariance_S(params, 5, 4)
    with pytest.raises(ValueError):
        exact_covariance_S(params, 0, 4)


# ---------------------------------------------------------------- monte carlo


def test_empirical_cdf_under_dkw_band():
    # 10^6 replicas at n = 50: the DKW 99% band is 0.00163, which also
    # dominates the float32 probability quantization (about 3e-6 here).
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    n = 50
    specs = [RngStreamSpec(2024, i) for i in range(1_000_000)]
    finals = walk_checkpoints_batch(params, [n], specs)[:, 0].astype(np.int64)
    emp_cdf = np.cumsum(np.bincount(finals, minlength=n + 1)) / len(specs)
    exact_cdf = exact_distribution(params, n).cdf()
    band = np.sqrt(np.log(2 / 0.01) / (2 * len(specs)))
    assert np.max(np.abs(emp_cdf - exact_cdf)) < band
