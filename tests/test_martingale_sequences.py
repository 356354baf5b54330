import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrwlab import martingale_sequences
from mrwlab import (
    ModelParams,
    Regime,
    RngStreamSpec,
    martingale_track,
    sequence_asymptotics,
    sequence_checkpoints,
    sigma_squared,
    simulate_walk,
)


def closed_form_a(alpha: float, n: np.ndarray) -> np.ndarray:
    # a_n = Gamma(n) Gamma(1 + alpha) / Gamma(n + alpha), via lgamma.
    lg = np.vectorize(math.lgamma)
    return np.exp(lg(n) + math.lgamma(1 + alpha) - lg(n + alpha))


def one_pass_sequences(alpha: float, N: int):
    # Reference: a_n is the reciprocal of one cumprod of 1 + alpha/k over the
    # whole horizon, A_n = 1 + sum_{k=2..n} a_k; no chunking.
    k = np.arange(1.0, N, dtype=np.float64)
    a = 1.0 / np.concatenate([[1.0], np.cumprod(1.0 + alpha / k)])
    v = np.cumsum(a**2)
    A = 1.0 + np.concatenate([[0.0], np.cumsum(a[1:])])
    return {"a": a, "A": A, "v": v, "f": a**2 / v}


def with_alpha(alpha: float) -> ModelParams:
    # q = (1 - alpha)/2 and p = (1 + alpha)/2; p - q is alpha exactly at the
    # dyadic values used below, and within an ulp elsewhere.
    return ModelParams(s=0.5, q=(1.0 - alpha) / 2, p=(1.0 + alpha) / 2)


def steps_to(params: ModelParams, N: int) -> dict:
    # Entry k - 1 of each array is the value at step k.
    return sequence_checkpoints(params, range(1, N + 1))


# ---------------------------------------------------------------- sequences


def test_alpha_zero_sequences_are_trivial():
    seqs = steps_to(with_alpha(0.0), 500)
    n = np.arange(1, 501)
    assert np.array_equal(seqs["a"], np.ones(500))
    assert np.array_equal(seqs["A"], n.astype(np.float64))
    assert np.array_equal(seqs["v"], n.astype(np.float64))
    assert np.allclose(seqs["f"], 1.0 / n, rtol=1e-15)


def test_first_terms_at_critical_alpha():
    seqs = steps_to(with_alpha(0.5), 3)
    a, A = seqs["a"], seqs["A"]
    assert a[0] == 1.0
    assert abs(a[1] - 2.0 / 3.0) < 1e-15
    assert abs(a[2] - 8.0 / 15.0) < 1e-15
    assert abs(A[2] - (1 + 2 / 3 + 8 / 15)) < 1e-15


@pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.0, 0.25, 0.5, 0.8])
def test_recurrence_matches_gamma_closed_form(alpha):
    params = with_alpha(alpha)
    n = np.arange(1, 151)
    expected = closed_form_a(params.alpha, n)
    assert np.allclose(steps_to(params, 150)["a"], expected, rtol=1e-10)


@pytest.mark.parametrize("q, p", [(0.05, 0.95), (0.3, 1.0), (0.65, 0.35), (0.1, 0.9)])
def test_sequences_against_exact_rationals(q, p):
    # With alpha = P/Q in decimal rationals, a_n = prod_{k<n} kQ/(kQ + P) and
    # A_n = sum_{k<=n} a_k are kept as integer fractions over the one
    # denominator prod (kQ + P); int / int rounds them once. The product of
    # k/(k + alpha) in floats erred up to 7.4e-14 here.
    n = 3000
    alpha = Fraction(repr(p)) - Fraction(repr(q))
    P, Q = alpha.numerator, alpha.denominator
    num = den = A_num = 1
    a, A = [1.0], [1.0]
    for k in range(1, n):
        num, den = num * k * Q, den * (k * Q + P)
        A_num = A_num * (k * Q + P) + num
        a.append(num / den)
        A.append(A_num / den)
    got = steps_to(ModelParams(s=0.5, q=q, p=p), n)
    assert np.max(np.abs(got["a"] - a) / a) <= 2e-14
    assert np.max(np.abs(got["A"] - A) / A) <= 2e-14


def test_sequences_accept_params_object():
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    assert np.array_equal(steps_to(params, 10)["a"], one_pass_sequences(0.5, 10)["a"])


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(-0.9, 1.0, exclude_max=True), horizon=st.integers(2, 400))
def test_sequence_shape_invariants(alpha, horizon):
    seqs = steps_to(with_alpha(alpha), horizon)
    assert np.all(seqs["a"] > 0)
    assert np.all(np.diff(seqs["A"]) > 0)
    assert np.all(np.diff(seqs["v"]) > 0)
    f = seqs["f"]
    assert np.all((f > 0) & (f <= 1.0 + 1e-15))
    # v_n <= A_n since a_k <= 1 implies a_k^2 <= a_k, for alpha >= 0
    if alpha >= 0:
        assert np.all(seqs["v"] <= seqs["A"] + 1e-12)


def test_gamma_ratio_accessor():
    a = steps_to(with_alpha(0.25), 10)["a"]
    for k in range(1, 9):
        assert abs(a[k - 1] / a[k] - (1 + 0.25 / k)) < 1e-12


def test_horizon_limits():
    with pytest.raises(ValueError):
        sequence_checkpoints(with_alpha(0.25), [0])
    with pytest.raises(ValueError):
        steps_to(with_alpha(0.25), 0)
    with pytest.raises(ValueError, match="integral"):
        sequence_checkpoints(with_alpha(0.25), [1, 2.5])


def test_streaming_checkpoints_match_materialized():
    for alpha in (-0.25, 0.0, 0.5, 0.8):
        params = with_alpha(alpha)
        cps = [1, 2, 3, 10, 999, 5000]
        out = sequence_checkpoints(params, cps)
        ref = one_pass_sequences(params.alpha, 5000)
        idx = np.array(cps) - 1
        for name in ("a", "A", "v", "f"):
            assert np.array_equal(out[name], ref[name][idx])


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(-0.95, 1.0, exclude_max=True),
    cps=st.lists(st.integers(1, 400), min_size=1, max_size=12, unique=True).map(sorted),
    chunk=st.integers(1, 50),
)
def test_checkpoints_equal_materialized_at_any_chunk(alpha, cps, chunk):
    params = with_alpha(alpha)
    N = cps[-1]
    ref = one_pass_sequences(params.alpha, N)
    idx = np.array(cps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(martingale_sequences, "_STREAM_CHUNK", chunk)
        out = sequence_checkpoints(params, cps)
        every = steps_to(params, N)
    for name in ("a", "A", "v", "f"):
        assert np.array_equal(every[name], ref[name])
        assert np.array_equal(out[name], ref[name][idx - 1])
    assert np.array_equal(out["n"], idx)


def test_streaming_checkpoints_reach_large_horizons():
    out = sequence_checkpoints(with_alpha(0.25), [10**8])
    # v_n ~ ell * sqrt(n): sanity window only, exact value tested elsewhere
    ell = math.gamma(1.25) ** 2 / 0.5
    assert 0.99 < out["v"][0] / (ell * 1e4) < 1.01


# ---------------------------------------------------------------- constants


def test_sigma_squared_examples():
    assert abs(sigma_squared(ModelParams(s=0.5, q=0.5, p=0.5)) - 0.25) < 1e-15
    # q (1 - p) / (1 - alpha)^2 = 0.25 * 0.25 / 0.25
    assert abs(sigma_squared(ModelParams(s=0.5, q=0.25, p=0.75)) - 0.25) < 1e-15
    assert sigma_squared(ModelParams(s=0.5, q=0.4, p=1.0)) == 0.0


def test_sigma_squared_refuses_a_float_one_minus_alpha_of_zero():
    # At p = 1 with q below 2^-53 the float 1 - alpha is 0.
    with pytest.raises(ValueError, match="the float 1 - alpha is 0 at alpha = 1.0"):
        sigma_squared(ModelParams(s=0.5, q=2.2250738585072014e-308, p=1.0))


def test_critical_sigma_squared_identity():
    # At alpha = 1/2 the denominator (1 - alpha)^2 is 1/4, so sigma^2
    # collapses to the critical-regime constant 4 q (1 - p).
    for q in (0.1, 0.25, 0.4):
        params = ModelParams(s=0.5, q=q, p=q + 0.5)
        assert abs(sigma_squared(params) - 4 * q * (1 - params.p)) < 1e-14


def test_limit_constants_fields():
    diff = sequence_asymptotics(ModelParams(s=0.5, q=0.25, p=0.5), 100).targets
    assert set(diff) == {"v_over_power", "n_times_f"}
    assert abs(diff["v_over_power"] - math.gamma(1.25) ** 2 / 0.5) < 1e-14
    assert abs(diff["n_times_f"] - 0.5) < 1e-15
    crit = sequence_asymptotics(ModelParams(s=0.5, q=0.25, p=0.75), 100).targets
    assert crit == {"v_over_logn": math.pi / 4, "nlogn_times_f": 1.0}
    # 0.7 - 0.2 is 0.49999999999999994 in floats, but the point is critical.
    assert sequence_asymptotics(ModelParams(s=0.5, q=0.2, p=0.7), 100).targets == crit


def test_asymptotics_refuse_short_horizons_and_grids():
    params = ModelParams(s=0.5, q=0.25, p=0.5)
    with pytest.raises(ValueError, match="horizon must be at least 2, got 1"):
        sequence_asymptotics(params, 1)
    with pytest.raises(ValueError, match="points must be at least 2, got 1"):
        sequence_asymptotics(params, 100, points=1)


def test_asymptotics_refuse_a_float_damping_that_is_not_positive():
    # Diffusive in exact rationals, but the float alpha is 1/2.
    params = ModelParams(s=0.5, q=0.0007500000000000285, p=0.50075)
    with pytest.raises(ValueError, match=r"damping 1 - 2 alpha is 0\.0 at the float alpha = 0\.5"):
        sequence_asymptotics(params, 1000)


def test_asymptotics_refuse_a_float_one_minus_alpha_of_zero():
    # Superdiffusive, but q is below 2^-53, so the float 1 - alpha is 0; refused before streaming 10^8 steps.
    params = ModelParams(s=0.5, q=2.2250738585072014e-308, p=1.0)
    with pytest.raises(ValueError, match=r"the float 1 - alpha is 0 at alpha = 1\.0"):
        sequence_asymptotics(params, 10**8)


def test_attracting_frequency_is_fixed_point():
    # pi* = q / (1 - alpha) solves q + alpha x = x, so a walk running at
    # frequency pi* keeps drawing steps with mean pi*.
    for q, p in [(0.5, 0.5), (0.25, 0.75), (0.3, 0.6), (0.2, 0.1)]:
        params = ModelParams(s=0.5, q=q, p=p)
        pi_star = q / (1 - params.alpha)
        assert abs((params.q + params.alpha * pi_star) - pi_star) < 1e-15


# ---------------------------------------------------------------- martingale


def test_martingale_first_term_and_alpha_zero():
    params = ModelParams(s=0.5, q=0.3, p=0.3)
    path = simulate_walk(params, 200, RngStreamSpec(5))
    track = martingale_track(path, params)
    assert abs(track.M[1] - (path.steps[0] - 0.3)) < 1e-15
    # alpha = 0: a_k = 1 so M_n = S_n - q n
    expected = path.positions[1:] - 0.3 * np.arange(1, 201)
    assert np.allclose(track.M[1:], expected, atol=1e-10)


def test_martingale_track_discrepancy_small():
    params = ModelParams(s=0.5, q=0.2, p=0.5)
    path = simulate_walk(params, 10_000, RngStreamSpec(77))
    track = martingale_track(path, params)
    assert track.max_discrepancy < 1e-9


def test_martingale_one_step_conditional_mean():
    # E[M_{n+1} | F_n] = M_n pointwise over states: the compensated value
    # a_{n+1} (s + q + alpha s / n) - q A_{n+1} must equal a_n s - q A_n.
    params = ModelParams(s=0.4, q=0.3, p=0.8)
    seqs = steps_to(params, 60)
    a, A = np.concatenate([[np.nan], seqs["a"]]), np.concatenate([[0.0], seqs["A"]])
    alpha = params.alpha
    for n in range(1, 50):
        for s_state in range(n + 1):
            drift = params.q + alpha * s_state / n
            m_now = a[n] * s_state - params.q * A[n]
            m_next = a[n + 1] * (s_state + drift) - params.q * A[n + 1]
            # expectation over the step: + drift contribution already included
            assert abs(m_next - m_now) < 1e-12 * max(1.0, abs(m_now))


# ---------------------------------------------------------------- diagnostics


def test_asymptotics_alpha_zero_is_exact():
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    ref = one_pass_sequences(params.alpha, 100_000)
    diag = sequence_asymptotics(params, 100_000)
    assert diag.regime is Regime.DIFFUSIVE
    for name in ("a", "A", "v", "f"):
        assert np.array_equal(getattr(diag, name), ref[name][diag.grid - 1])
    assert np.allclose(diag.columns["v_over_power"], 1.0, rtol=1e-12)
    assert np.allclose(diag.columns["n_times_f"], 1.0, rtol=1e-12)
    assert np.allclose(diag.mean_ratio_dev, 0.0, atol=1e-9)


def test_asymptotics_critical_trend():
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    diag = sequence_asymptotics(params, 1_000_000)
    ratio = diag.columns["v_over_logn"]
    target = diag.targets["v_over_logn"]
    devs = np.abs(ratio / target - 1)
    # deviation shrinks along the grid tail
    assert devs[-1] < devs[len(devs) // 2] < devs[0]
    assert abs(ratio[-1] / target - 1) < 0.15


def test_asymptotics_superdiffusive_has_only_shared_columns():
    diag = sequence_asymptotics(ModelParams(s=0.5, q=0.1, p=0.9), 10_000)
    assert diag.regime is Regime.SUPERDIFFUSIVE
    assert diag.columns == {} and diag.targets == {}
    assert np.all(np.isfinite(diag.mean_ratio_dev))


@pytest.mark.parametrize(
    "q,p", [(0.95, 0.05), (0.65, 0.35), (0.5, 0.5), (0.25, 0.5), (0.25, 0.75), (0.1, 0.9)]
)
def test_mean_ratio_dev_matches_the_gamma_form(q, p):
    # |A_n/(n a_n) - 1/(1-alpha)| n^(1-alpha) = |alpha| n^(-alpha) / ((1-alpha) a_n),
    # with a_n = Gamma(n) Gamma(1+alpha)/Gamma(n+alpha) evaluated through lgamma.
    n = 10**6
    params = ModelParams(s=0.5, q=q, p=p)
    alpha = params.alpha
    log_ratio = math.lgamma(n + alpha) - math.lgamma(n) - math.lgamma(1 + alpha) - alpha * math.log(n)
    expected = abs(alpha) / (1 - alpha) * math.exp(log_ratio)
    diag = sequence_asymptotics(params, n, points=2)  # the grid [1, n] less step 1
    assert diag.mean_ratio_dev[0] == pytest.approx(expected, rel=1e-7, abs=0)
