"""Deterministic coefficient sequences and the martingale decomposition.

For memory parameter alpha = p - q, the weight sequence is

    a_1 = 1,    a_{n+1} = a_n * n / (n + alpha),

equivalently a_n = Gamma(n)Gamma(alpha+1)/Gamma(n+alpha), together with the
cumulative sums A_n = sum_{k<=n} a_k, v_n = sum_{k<=n} a_k^2 and the
explosion coefficient f_n = a_n^2 / v_n. The process a_n S_n - q A_n is a
martingale whose increments are a_{n+1} eps_{n+1} with
eps_{n+1} = X_{n+1} - (q + alpha S_n / n).

Everything is computed by the multiplicative recurrence; Gamma is never
evaluated at large arguments (it overflows doubles near 170), and log-gamma
appears only in cross-checks and in Gamma(alpha+1) for the diffusive
constant ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_process import ModelParams, Regime, WalkPath, _checkpoint_array, classify_regime

__all__ = [
    "MartingaleTrack",
    "SequenceDiagnostics",
    "sequence_checkpoints",
    "sigma_squared",
    "martingale_track",
    "sequence_asymptotics",
]

_STREAM_CHUNK = 1_000_000


def _sequence_chunks(alpha: float, horizon: int):
    """Yield (start, chunk) up to horizon; chunk rows are a, A, v at steps start, start+1, ...

    Each chunk is computed in carry-in form: element 0 of every cumprod and
    cumsum input is the value carried from the step before the chunk, so the
    chunk continues the sequence exactly where one pass over the whole
    horizon would, and the values do not depend on _STREAM_CHUNK. Step 1 is
    reached from (a, A, v) = (1, 0, 0) at step 0 through the ratio 1 that the
    m > 0 mask leaves in place.
    """
    carry = np.array([1.0, 0.0, 0.0])
    for start in range(1, horizon + 1, _STREAM_CHUNK):
        stop = min(start + _STREAM_CHUNK, horizon + 1)
        m = np.arange(start - 1, stop - 1, dtype=np.float64)  # a_{m+1} = a_m * m / (m + alpha)
        seq = np.empty((3, stop - start + 1), dtype=np.float64)
        a, A, v = seq
        seq[:, 0] = carry
        a[1] = 1.0
        np.divide(m, m + alpha, out=a[1:], where=m > 0)
        np.cumprod(a, out=a)
        A[1:] = a[1:]
        np.square(a[1:], out=v[1:])
        np.cumsum(seq[1:], axis=1, out=seq[1:])
        carry = seq[:, -1].copy()
        yield start, seq[:, 1:]


def sequence_checkpoints(params: ModelParams, checkpoints: Sequence[int]) -> dict:
    """Stream the recurrence to large horizons, recording selected steps.

    Returns {"n", "a", "A", "v", "f"} arrays over the strictly increasing
    checkpoint list; range(1, N + 1) gives every step up to N. Memory is
    O(chunk + checkpoints), so horizons of 10^8 and beyond are fine.
    """
    cps = _checkpoint_array(checkpoints)
    alpha = params.alpha
    if alpha == -1.0:
        raise ValueError(
            "the weight sequence a_n is undefined at alpha = -1 (q = 1, p = 0): a_2 = 1/(1 + alpha)"
        )
    out = np.empty((3, len(cps)), dtype=np.float64)
    for start, chunk in _sequence_chunks(alpha, int(cps[-1])):
        lo, hi = np.searchsorted(cps, [start, start + chunk.shape[1]])
        out[:, lo:hi] = chunk[:, cps[lo:hi] - start]
    a, A, v = out
    return {"n": cps, "a": a, "A": A, "v": v, "f": a**2 / v}


def sigma_squared(params: ModelParams) -> float:
    """Asymptotic one-step variance q(1-p)/(1-alpha)^2; zero iff p = 1."""
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
    g = np.unique(np.round(np.logspace(0.0, math.log10(horizon), num=points)).astype(np.int64))
    g = g[g >= 2]
    seqs = sequence_checkpoints(params, g)
    a, A, v, f = seqs["a"], seqs["A"], seqs["v"], seqs["f"]
    regime = classify_regime(params)
    alpha = params.alpha
    gf = g.astype(np.float64)
    # (1 - alpha) A_n - n a_n = -alpha for every n, so the deviation needs no difference of near-equal doubles.
    mean_ratio_dev = abs(alpha) * gf ** -alpha / ((1.0 - alpha) * a)
    columns: dict[str, np.ndarray] = {}
    targets: dict[str, float] = {}
    if regime is Regime.DIFFUSIVE:
        columns["v_over_power"] = v / gf ** (1.0 - 2.0 * alpha)
        targets["v_over_power"] = math.gamma(alpha + 1.0) ** 2 / (1.0 - 2.0 * alpha)
        columns["n_times_f"] = gf * f
        targets["n_times_f"] = 1.0 - 2.0 * alpha
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
