"""Deterministic coefficient sequences and the martingale decomposition.

For memory parameter alpha = p - q, the weight sequence is

    1/a_n = prod_{k<n} (1 + alpha/k),

equivalently a_n = Gamma(n)Gamma(alpha+1)/Gamma(n+alpha), together with the
cumulative sums A_n = sum_{k<=n} a_k, v_n = sum_{k<=n} a_k^2 and the
explosion coefficient f_n = a_n^2 / v_n. The process a_n S_n - q A_n is a
martingale whose increments are a_{n+1} eps_{n+1} with
eps_{n+1} = X_{n+1} - (q + alpha S_n / n).

One chunked stream, _sequence_chunks, computes 1/a_n by that cumulative
product, with B_n = A_n - 1 and, when asked, v_n; sequence_checkpoints and
exact_oracle's exact mean both read it. Gamma is never evaluated at large
arguments (it overflows doubles near 170), and log-gamma appears only in
cross-checks and in Gamma(alpha+1) for the diffusive constant ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_process import ModelParams, Regime, WalkPath, _centre, _checkpoint_array, _diffusive_damping, classify_regime

__all__ = [
    "MartingaleTrack",
    "SequenceDiagnostics",
    "sequence_checkpoints",
    "sigma_squared",
    "martingale_track",
    "sequence_asymptotics",
]

_STREAM_CHUNK = 1_000_000


def _sequence_chunks(alpha: float, horizon: int, rows: int):
    """Yield (start, chunk) up to horizon; chunk rows are 1/a_m = prod_{k<m} (1 + alpha/k),
    B_m = sum_{k=2..m} a_k and, when rows is 3, v_m at steps start, start+1, ...

    The factors 1 + alpha/k round with less bias than k/(k + alpha): against
    exact rationals at n = 3000, a_m = 1/(1/a_m) errs at most 9e-15 relative,
    the reciprocal of the k/(k + alpha) product up to 7.4e-14. Element 0 of
    every cumprod and cumsum input is the value carried from the chunk
    before, so the chunk continues the sequence exactly where one pass over
    the whole horizon would, and the values do not depend on _STREAM_CHUNK.
    """
    carry = np.array([1.0, 0.0, 1.0][:rows])  # 1/a_1, the empty sum B_1 and v_1 = a_1^2
    for start in range(1, horizon + 1, _STREAM_CHUNK):
        m = np.arange(start, min(start + _STREAM_CHUNK, horizon + 1), dtype=np.float64)
        seq = np.empty((rows, len(m) + 1), dtype=np.float64)
        inv_a, a = seq[0], seq[1]
        seq[:, 0] = carry
        np.add(1.0, alpha / m, out=inv_a[1:])
        np.cumprod(inv_a, out=inv_a)
        np.divide(1.0, inv_a[1:], out=a[1:])
        if rows == 3:
            np.square(a[1:], out=seq[2, 1:])
        np.cumsum(seq[1:], axis=1, out=seq[1:])
        carry = seq[:, -1].copy()
        yield start, seq[:, :-1]


def sequence_checkpoints(params: ModelParams, checkpoints: Sequence[int]) -> dict:
    """Stream the weight sequence to large horizons, recording selected steps.

    Returns {"n", "a", "A", "v", "f"} arrays over the strictly increasing
    checkpoint list; range(1, N + 1) gives every step up to N. a is the
    reciprocal of the streamed 1/a_m and A = 1 + B. Memory is
    O(chunk + checkpoints), so horizons of 10^8 and beyond are fine.
    """
    cps = _checkpoint_array(checkpoints)
    alpha = params.alpha
    if alpha == -1.0:
        raise ValueError(
            "the weight sequence a_n is undefined at alpha = -1 (q = 1, p = 0): a_2 = 1/(1 + alpha)"
        )
    inv_a, B, v = _gather_checkpoints(alpha, cps, 3)
    a = 1.0 / inv_a
    return {"n": cps, "a": a, "A": 1.0 + B, "v": v, "f": a**2 / v}


def _gather_checkpoints(alpha: float, cps: np.ndarray, rows: int) -> np.ndarray:
    """The (rows, len(cps)) values of _sequence_chunks at the checkpoint steps cps.

    A run of consecutive steps, such as every step up to n, is copied as a
    slice instead of gathered by index, at a tenth of the cost.
    """
    out = np.empty((rows, len(cps)), dtype=np.float64)
    for start, chunk in _sequence_chunks(alpha, int(cps[-1]), rows):
        lo, hi = np.searchsorted(cps, [start, start + chunk.shape[1]])
        if hi > lo and cps[hi - 1] - cps[lo] == hi - 1 - lo:
            out[:, lo:hi] = chunk[:, cps[lo] - start : cps[hi - 1] - start + 1]
        else:
            out[:, lo:hi] = chunk[:, cps[lo:hi] - start]
    return out


def sigma_squared(params: ModelParams) -> float:
    """Asymptotic one-step variance q(1-p)/(1-alpha)^2; zero iff p = 1. A float
    1 - alpha of 0 is refused with the ValueError of the centre q/(1 - alpha)."""
    _centre(params)
    return params.q * (1.0 - params.p) / (1.0 - params.alpha) ** 2


@dataclass
class MartingaleTrack:
    """Martingale values by two routes plus the increment sequence.

    M[k] = a_k S_k - q A_k for k >= 1 (index 0 is 0 = empty sum), eps[k] is
    the centered step; max_discrepancy is the largest absolute difference
    between the direct M and the accumulated sum of a_k eps_k.
    """

    M: np.ndarray
    eps: np.ndarray
    max_discrepancy: float


def martingale_track(path: WalkPath, params: ModelParams) -> MartingaleTrack:
    """The martingale along path, with a_k and A_k from sequence_checkpoints at k = 1..n."""
    n = path.n
    S = path.positions[1:].astype(np.float64)  # S_1..S_n
    seqs = sequence_checkpoints(params, np.arange(1, n + 1))
    a, A = seqs["a"], seqs["A"]
    M_direct = a * S - params.q * A
    eps = np.empty(n + 1, dtype=np.float64)
    eps[0] = np.nan
    eps[1] = path.steps[0] - params.q
    if n > 1:
        m = np.arange(1.0, n, dtype=np.float64)
        cond = params.q + params.alpha * S[:-1] / m
        eps[2:] = path.steps[1:] - cond
    M_sum = np.cumsum(a * eps[1:])
    disc = float(np.max(np.abs(M_direct - M_sum)))
    M = np.concatenate([[0.0], M_direct])
    return MartingaleTrack(M=M, eps=eps, max_discrepancy=disc)


@dataclass
class SequenceDiagnostics:
    """Sequence values and their rescalings on a step grid.

    a, A, v and f are the sequences at the grid steps. mean_ratio_dev =
    |A_n/(n a_n) - 1/(1-alpha)| * n^(1-alpha), computed as the equal
    |alpha| n^(-alpha)/((1-alpha) a_n), tends to |alpha|/((1-alpha)
    Gamma(1+alpha)) in every regime. The regime-specific columns converge
    to the paired target: diffusive v_n/n^(1-2 alpha) -> ell and n f_n ->
    1-2 alpha; critical v_n/log n -> pi/4 and n log(n) f_n -> 1. The
    superdiffusive regime has no such column (v_n itself converges).
    """

    regime: Regime
    grid: np.ndarray
    a: np.ndarray
    A: np.ndarray
    v: np.ndarray
    f: np.ndarray
    mean_ratio_dev: np.ndarray
    columns: dict[str, np.ndarray]
    targets: dict[str, float]


def sequence_asymptotics(params: ModelParams, horizon: int, points: int = 40) -> SequenceDiagnostics:
    """Evaluate the regime's convergence diagnostics on a step grid.

    The grid is points log-spaced steps from 1 to horizon, rounded, with
    duplicates and step 1 dropped. Values are streamed by
    sequence_checkpoints, so horizons of 10^8 are fine.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be at least 2, got {horizon}")
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    regime, alpha = classify_regime(params), params.alpha
    _centre(params)  # a float 1 - alpha of 0 is refused before the sequences are streamed
    if regime is Regime.DIFFUSIVE:
        damping = _diffusive_damping(alpha)  # refused before the sequences are streamed
    g = np.unique(np.round(np.logspace(0.0, math.log10(horizon), num=points)).astype(np.int64))
    g = g[g >= 2]
    seqs = sequence_checkpoints(params, g)
    a, A, v, f = seqs["a"], seqs["A"], seqs["v"], seqs["f"]
    gf = g.astype(np.float64)
    # (1 - alpha) A_n - n a_n = -alpha for every n, so the deviation needs no difference of near-equal doubles.
    mean_ratio_dev = abs(alpha) * gf ** -alpha / ((1.0 - alpha) * a)
    columns: dict[str, np.ndarray] = {}
    targets: dict[str, float] = {}
    if regime is Regime.DIFFUSIVE:
        columns["v_over_power"] = v / gf**damping
        targets["v_over_power"] = math.gamma(alpha + 1.0) ** 2 / damping
        columns["n_times_f"] = gf * f
        targets["n_times_f"] = damping
    elif regime is Regime.CRITICAL:
        logg = np.log(gf)
        columns["v_over_logn"] = v / logg
        targets["v_over_logn"] = math.pi / 4.0
        columns["nlogn_times_f"] = gf * logg * f
        targets["nlogn_times_f"] = 1.0
    return SequenceDiagnostics(
        regime=regime,
        grid=g,
        a=a,
        A=A,
        v=v,
        f=f,
        mean_ratio_dev=mean_ratio_dev,
        columns=columns,
        targets=targets,
    )
