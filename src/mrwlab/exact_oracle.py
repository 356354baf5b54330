"""Exact, simulation-free laws and moments of the walk at small scale.

The one-step law depends on the past only through (m, S_m), so the full
distribution of S_n follows from a forward dynamic program over (step,
count) states in O(n^2). The same collapse applies to the urn with the
draw-then-respond mixture written literally, giving an independent route to
what must be the identical law. Beyond the DP bound, central_moments gives
E[S_m] and the central moments of S_m for every m <= n in O(order^2 n),
without differences of raw moments of size n^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_process import ModelParams, _checkpoint_array
from .martingale_sequences import sequence_checkpoints

__all__ = [
    "DP_BOUND",
    "ExactDistribution",
    "exact_distribution",
    "exact_urn_distribution",
    "total_variation",
    "exact_mean_recursion",
    "exact_mean_checkpoints",
    "central_moments",
    "moment_recursion",
    "conditional_moment_S",
    "conditional_moment_eps",
    "two_point_moment_S",
    "two_point_moment_eps",
    "exact_covariance_S",
]

# The DP touches ~n^2/2 states; 10^4 keeps it comfortably sub-second.
DP_BOUND = 10_000

# exact_mean_recursion holds one float64 per step; beyond this horizon call
# exact_mean_checkpoints, which streams in constant memory.
MAX_MATERIALIZED = 10**7


@dataclass
class ExactDistribution:
    """The law of S_n: probs[j] = P(S_n = j) for j = 0..n."""

    n: int
    probs: np.ndarray

    def validate(self) -> None:
        if len(self.probs) != self.n + 1:
            raise AssertionError("probs must have length n+1")
        if np.any(self.probs < 0):
            raise AssertionError("probabilities must be nonnegative")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise AssertionError("probabilities must sum to 1 within 1e-12")

    def support(self) -> np.ndarray:
        return np.arange(self.n + 1, dtype=np.float64)

    def mean(self) -> float:
        return float(np.dot(self.support(), self.probs))

    def moment(self, order: int) -> float:
        return float(np.dot(self.support() ** order, self.probs))

    def variance(self) -> float:
        """Sum of (j - mean)^2 P(S_n = j); moment(2) - mean^2 cancels terms of size n^2."""
        return float(np.dot((self.support() - self.mean()) ** 2, self.probs))

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)


def _forward_dp(s: float, n: int, step_prob) -> np.ndarray:
    """Run the (step, count) DP; step_prob(m, j) is the move-up probability."""
    if not (1 <= n <= DP_BOUND):
        raise ValueError(f"n must lie in [1, {DP_BOUND}] for the exact DP")
    probs = np.zeros(n + 1, dtype=np.float64)
    probs[0], probs[1] = 1.0 - s, s
    for m in range(1, n):
        j = np.arange(m + 1, dtype=np.float64)
        up = step_prob(m, j)
        cur = probs[: m + 1]
        new = np.zeros(m + 2, dtype=np.float64)
        new[1:] += cur * up
        new[: m + 1] += cur * (1.0 - up)
        probs[: m + 2] = new
    return probs


def exact_distribution(params: ModelParams, n: int) -> ExactDistribution:
    """Exact law of S_n via the conditional one-step form q + alpha*j/m."""
    q, alpha = params.q, params.alpha

    def step_prob(m, j):
        return q + alpha * j / m

    return ExactDistribution(n=n, probs=_forward_dp(params.s, n, step_prob))


def exact_urn_distribution(params: ModelParams, n: int) -> ExactDistribution:
    """Exact law of the blue count via the urn's literal draw/respond mixture.

    The move-up probability is written as (j/m)*p + (1-j/m)*q: draw blue
    then add blue with probability p, or draw red then add blue with
    probability q. Deliberately not simplified, so this is an independent
    computation of the law that exact_distribution produces.
    """
    q, p = params.q, params.p

    def step_prob(m, j):
        frac_blue = j / m
        return frac_blue * p + (1.0 - frac_blue) * q

    return ExactDistribution(n=n, probs=_forward_dp(params.s, n, step_prob))


def total_variation(first: np.ndarray, second: np.ndarray) -> float:
    """TV distance between two pmfs on {0, 1, ...}; lengths may differ."""
    size = max(len(first), len(second))
    a = np.zeros(size)
    b = np.zeros(size)
    a[: len(first)] = first
    b[: len(second)] = second
    return 0.5 * float(np.abs(a - b).sum())


def exact_mean_recursion(params: ModelParams, n: int) -> np.ndarray:
    """E[S_m] for m = 1..n (index-aligned array of length n+1, entry 0 = 0).

    The defining recursion is E[S_1] = s, E[S_{m+1}] = q + gamma_m E[S_m]
    with gamma_m = (m+alpha)/m; the values are exact_mean_checkpoints at
    every step. Horizons above MAX_MATERIALIZED should call
    exact_mean_checkpoints on the steps they need.
    """
    if n > MAX_MATERIALIZED:
        raise ValueError(f"horizon {n} exceeds the materialization bound {MAX_MATERIALIZED}")
    return np.concatenate([[0.0], exact_mean_checkpoints(params, np.arange(1, n + 1))])


def exact_mean_checkpoints(params: ModelParams, checkpoints: Sequence[int]) -> np.ndarray:
    """E[S_m] at selected steps, streamed in constant memory (horizons to 10^8).

    The recursion telescopes against the weight sequence to the closed form
    E[S_m] = (s - q + q A_m) / a_m. At alpha = -1, where a_m is undefined,
    E[S_{m+1}] = 1 + (1 - 1/m) E[S_m] gives E[S_1] = s and E[S_m] = m/2 beyond.
    """
    if params.alpha == -1.0:
        cps = _checkpoint_array(checkpoints)
        return np.where(cps == 1, params.s, cps / 2.0)
    seqs = sequence_checkpoints(params, checkpoints)
    return (params.s - params.q + params.q * seqs["A"]) / seqs["a"]


def _affine_recurrence(G: np.ndarray, b: np.ndarray, x1: float) -> np.ndarray:
    """x_1 = x1, x_{m+1} = G_m x_m + b_m for m = 1..len(G), by a cumulative product and sum.

    The steps up to the last G_m <= 0, where the product would vanish or
    change sign, are taken one at a time.
    """
    x = np.empty(len(G) + 1)
    x[0] = x1
    start = max(np.flatnonzero(G <= 0.0), default=-1) + 1
    for i in range(start):
        x[i + 1] = G[i] * x[i] + b[i]
    P = np.cumprod(G[start:])
    x[start + 1 :] = P * (x[start] + np.cumsum(b[start:] / P))
    return x


def central_moments(params: ModelParams, n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean, central): E[S_m] and E[(S_m - E[S_m])^j] for m = 0..n, j = 0..order.

    Shapes (n+1,) and (order+1, n+1); column 0 is S_0 = 0. With D_m = S_m -
    E[S_m], pibar = q + h E[S_m] and h = alpha/m, D_{m+1} = D_m + X_{m+1} -
    pibar is D_m + u (u = 1 - pibar) with probability pibar + h D_m, else
    D_m - pibar. So E[D_{m+1}^j] = sum_i [C(j,i) c_{j-i} + h C(j,i-1)
    w_{j-i+1}] E[D_m^i] over i <= j, where c_t = pibar u^t + u (-pibar)^t
    (the central moments of a Bernoulli(pibar) step) and w_t = u^t -
    (-pibar)^t: each order is an affine recurrence in m with factor 1 + j h,
    driven by the lower orders. The mean has factor 1 + h and input q, so
    nothing needs the weight sequence a_n, and alpha = -1 works.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    q, s = params.q, params.s
    h = params.alpha / np.arange(1, n, dtype=np.float64)
    mean = np.zeros(n + 1)
    mean[1:] = _affine_recurrence(1.0 + h, np.full(n - 1, q), s)
    pibar = q + h * mean[1:n]
    u, t = 1.0 - pibar, np.arange(order + 1)[:, None]
    up, down = u**t, (-pibar) ** t
    c, w = pibar * up + u * down, up - down
    central = np.zeros((order + 1, n + 1))
    central[0] = 1.0
    for j in range(2, order + 1):
        b = c[j] + sum(
            (math.comb(j, i) * c[j - i] + h * math.comb(j, i - 1) * w[j - i + 1]) * central[i, 1:n]
            for i in range(2, j)
        )
        central[j, 1:] = _affine_recurrence(1.0 + j * h, b, s * (1 - s) ** j + (1 - s) * (-s) ** j)
    return mean, central


def moment_recursion(params: ModelParams, n: int, order: int) -> np.ndarray:
    """Raw moments E[S_m^j] for j = 0..order, m = 0..n; shape (order+1, n+1).

    Reassembled from central_moments by the binomial sum
    E[S_m^j] = sum_i C(j,i) E[S_m]^(j-i) E[(S_m - E[S_m])^i].
    """
    mean, central = central_moments(params, n, order)
    mom = np.empty_like(central)
    for j in range(order + 1):
        mom[j] = sum(math.comb(j, i) * mean ** (j - i) * central[i] for i in range(j + 1))
    return mom


def _check_state(n: int, s_state: float) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0 <= s_state <= n):
        raise ValueError(f"state {s_state} is not reachable at step {n}")


def _pi(params: ModelParams, n: int, s_state: float) -> float:
    return params.q + params.alpha * s_state / n


def conditional_moment_S(params: ModelParams, n: int, s_state: float, k: int) -> float:
    """E[S_{n+1}^(2k) | S_n = s_state] by the binomial-sum identity.

    Evaluates s^{2k} + pi * sum_{j=1..2k} C(2k,j) s^{2k-j} with
    pi = q + alpha*s/n; must agree with the direct two-point expectation.
    """
    _check_state(n, s_state)
    if k < 1:
        raise ValueError("moment order k must be at least 1")
    pi = _pi(params, n, s_state)
    tail = sum(math.comb(2 * k, j) * s_state ** (2 * k - j) for j in range(1, 2 * k + 1))
    return s_state ** (2 * k) + pi * tail


def conditional_moment_eps(params: ModelParams, n: int, s_state: float, k: int) -> float:
    """E[eps_{n+1}^k | S_n = s_state] for the centered step eps = X - pi.

    Evaluates sum_{j=0..k-2} C(k,j) pi^{j+1} (-1)^j + (-1)^{k-1} pi^k (k-1);
    must agree with pi(1-pi)^k + (1-pi)(-pi)^k.
    """
    _check_state(n, s_state)
    if k < 2:
        raise ValueError("eps moments are defined here for order k >= 2")
    pi = _pi(params, n, s_state)
    head = sum(math.comb(k, j) * pi ** (j + 1) * (-1) ** j for j in range(k - 1))
    return head + (-1) ** (k - 1) * pi**k * (k - 1)


def two_point_moment_S(params: ModelParams, n: int, s_state: float, k: int) -> float:
    """Direct two-point expectation of S_{n+1}^(2k) given S_n = s_state."""
    _check_state(n, s_state)
    pi = _pi(params, n, s_state)
    return pi * (s_state + 1.0) ** (2 * k) + (1.0 - pi) * s_state ** (2 * k)


def two_point_moment_eps(params: ModelParams, n: int, s_state: float, k: int) -> float:
    """Direct two-point expectation of eps_{n+1}^k given S_n = s_state."""
    _check_state(n, s_state)
    pi = _pi(params, n, s_state)
    return pi * (1.0 - pi) ** k + (1.0 - pi) * (-pi) ** k


def exact_covariance_S(params: ModelParams, m: int, big_m: int) -> float:
    """Exact Cov(S_m, S_M) for m <= M.

    Conditioning on step k >= m gives E[S_{k+1} | F_k] = (1 + alpha/k) S_k + q,
    so the covariance is prod_{m<=k<M} (1 + alpha/k) times Var(S_m), the
    latter read from central_moments. Works at alpha = -1.
    """
    if not (1 <= m <= big_m):
        raise ValueError("need 1 <= m <= M")
    var_m = central_moments(params, m, 2)[1][2, m]
    return float(np.prod(1.0 + params.alpha / np.arange(m, big_m, dtype=np.float64)) * var_m)
