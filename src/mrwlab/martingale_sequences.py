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

from .core_process import ModelParams, Regime, RegimeError, WalkPath, classify_regime

__all__ = [
    "SequenceCache",
    "MartingaleTrack",
    "LimitConstants",
    "SequenceDiagnostics",
    "build_sequences",
    "sequence_checkpoints",
    "sigma_squared",
    "limit_constants",
    "martingale_track",
    "sequence_asymptotics",
]

# Full materialization stores four float64 arrays; beyond this horizon use
# sequence_checkpoints, which streams in constant memory.
MAX_MATERIALIZED = 10**7

_STREAM_CHUNK = 1_000_000


def _alpha_of(params_or_alpha) -> float:
    if isinstance(params_or_alpha, ModelParams):
        alpha = params_or_alpha.alpha
    else:
        alpha = float(params_or_alpha)
    if alpha == -1.0:
        raise ValueError(
            "the weight sequence a_n is undefined at alpha = -1 (q = 1, p = 0): a_2 = 1/(1 + alpha)"
        )
    return alpha


@dataclass
class SequenceCache:
    """Sequences a, A, v, f up to a horizon, as index-aligned arrays.

    Entry k of each array is the value at step k, valid for 1 <= k <= horizon;
    index 0 is a placeholder (nan for a and f, 0 for A and v, matching
    A_0 = v_0 = 0).
    """

    alpha: float
    horizon: int
    a: np.ndarray
    A: np.ndarray
    v: np.ndarray
    f: np.ndarray

    def gamma(self, k) -> np.ndarray:
        """gamma_k = (k + alpha) / k, the one-step mean growth factor."""
        k = np.asarray(k, dtype=np.float64)
        return (k + self.alpha) / k


def build_sequences(params_or_alpha, N: int) -> SequenceCache:
    """Materialize the sequences up to horizon N by the stable recurrence."""
    if N < 1:
        raise ValueError("horizon must be at least 1")
    if N > MAX_MATERIALIZED:
        raise ValueError(
            f"horizon {N} exceeds the materialization bound {MAX_MATERIALIZED}; "
            "use sequence_checkpoints for larger horizons"
        )
    alpha = _alpha_of(params_or_alpha)
    k = np.arange(1.0, N, dtype=np.float64)  # 1 .. N-1
    a = np.empty(N + 1, dtype=np.float64)
    a[0] = np.nan
    a[1] = 1.0
    if N > 1:
        np.cumprod(k / (k + alpha), out=a[2:])
    A = np.empty_like(a)
    A[0] = 0.0
    np.cumsum(a[1:], out=A[1:])
    v = np.empty_like(a)
    v[0] = 0.0
    np.cumsum(a[1:] ** 2, out=v[1:])
    f = np.empty_like(a)
    f[0] = np.nan
    f[1:] = a[1:] ** 2 / v[1:]
    if not np.all(np.isfinite(a[1:])) or np.any(a[1:] <= 0):
        raise ArithmeticError("weight sequence left the finite positive range")
    return SequenceCache(alpha=alpha, horizon=N, a=a, A=A, v=v, f=f)


def sequence_checkpoints(params_or_alpha, checkpoints: Sequence[int]) -> dict:
    """Stream the recurrence to large horizons, recording selected steps.

    Returns {"n", "a", "A", "v", "f"} arrays over the strictly increasing
    checkpoint list. Memory is O(chunk), so horizons of 10^8 and beyond are
    fine.
    """
    cps = [int(c) for c in checkpoints]
    if not cps or any(c < 1 for c in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    alpha = _alpha_of(params_or_alpha)
    n_max = cps[-1]
    out = {name: np.empty(len(cps), dtype=np.float64) for name in ("a", "A", "v", "f")}
    a_cur, A_cur, v_cur = 1.0, 1.0, 1.0  # values at step 1
    next_cp = 0
    if cps[0] == 1:
        out["a"][0], out["A"][0], out["v"][0], out["f"][0] = 1.0, 1.0, 1.0, 1.0
        next_cp = 1
    start = 2
    while start <= n_max:
        stop = min(start + _STREAM_CHUNK, n_max + 1)
        k = np.arange(start, stop, dtype=np.float64)
        a_chunk = a_cur * np.cumprod((k - 1.0) / (k - 1.0 + alpha))
        A_chunk = A_cur + np.cumsum(a_chunk)
        v_chunk = v_cur + np.cumsum(a_chunk**2)
        while next_cp < len(cps) and cps[next_cp] < stop:
            i = cps[next_cp] - start
            out["a"][next_cp] = a_chunk[i]
            out["A"][next_cp] = A_chunk[i]
            out["v"][next_cp] = v_chunk[i]
            out["f"][next_cp] = a_chunk[i] ** 2 / v_chunk[i]
            next_cp += 1
        a_cur, A_cur, v_cur = a_chunk[-1], A_chunk[-1], v_chunk[-1]
        start = stop
    return {"n": np.array(cps, dtype=np.int64), **out}


def sigma_squared(params: ModelParams) -> float:
    """Asymptotic one-step variance q(1-p)/(1-alpha)^2; zero iff p = 1."""
    return params.q * (1.0 - params.p) / (1.0 - params.alpha) ** 2


@dataclass(frozen=True)
class LimitConstants:
    """Constants the sequence diagnostics converge to.

    ell is the diffusive limit of v_n/n^(1-2*alpha) and is None outside the
    diffusive regime; critical_v_limit is the critical limit of v_n/log n;
    mean_ratio_limit is the limit of A_n/(n a_n) for every alpha < 1.
    """

    sigma2: float
    ell: float | None
    critical_v_limit: float
    mean_ratio_limit: float


def limit_constants(params: ModelParams) -> LimitConstants:
    alpha = params.alpha
    ell = None
    if classify_regime(params) is Regime.DIFFUSIVE:
        ell = math.gamma(alpha + 1.0) ** 2 / (1.0 - 2.0 * alpha)
    return LimitConstants(
        sigma2=sigma_squared(params),
        ell=ell,
        critical_v_limit=math.pi / 4.0,
        mean_ratio_limit=1.0 / (1.0 - alpha),
    )


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


def martingale_track(path: WalkPath, cache: SequenceCache, params: ModelParams) -> MartingaleTrack:
    n = path.n
    if cache.horizon < n:
        raise ValueError(f"sequence cache horizon {cache.horizon} is below the path length {n}")
    S = path.positions[1:].astype(np.float64)  # S_1..S_n
    a = cache.a[1 : n + 1]
    A = cache.A[1 : n + 1]
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
    """Rescaled sequence values on a log-spaced step grid.

    mean_ratio_dev = |A_n/(n a_n) - 1/(1-alpha)| * n^(1-alpha) should stay
    bounded in every regime. The regime-specific columns converge to the
    paired target: diffusive v_n/n^(1-2 alpha) -> ell and n f_n -> 1-2 alpha;
    critical v_n/log n -> pi/4 and n log(n) f_n -> 1.
    """

    regime: Regime
    grid: np.ndarray
    mean_ratio_dev: np.ndarray
    columns: dict[str, np.ndarray]
    targets: dict[str, float]


def _log_grid(horizon: int, points: int) -> np.ndarray:
    grid = np.unique(
        np.round(np.logspace(0.0, math.log10(horizon), num=points)).astype(np.int64)
    )
    return grid[grid >= 2]


def sequence_asymptotics(
    cache: SequenceCache,
    params: ModelParams,
    grid: Sequence[int] | None = None,
    kind: str = "auto",
) -> SequenceDiagnostics:
    """Evaluate the regime's convergence diagnostics on a log-spaced grid.

    kind may force "diffusive" or "critical"; forcing a regime whose alpha
    condition the parameters violate is an error.
    """
    regime = classify_regime(params)
    if kind == "auto":
        kind = regime.value
    if kind == "diffusive" and regime is not Regime.DIFFUSIVE:
        raise RegimeError("diffusive diagnostics require alpha < 1/2")
    if kind == "critical" and regime is not Regime.CRITICAL:
        raise RegimeError("critical diagnostics require alpha = 1/2")
    if kind == "superdiffusive" and regime is not Regime.SUPERDIFFUSIVE:
        raise RegimeError("superdiffusive diagnostics require alpha > 1/2")
    alpha = params.alpha
    if grid is None:
        g = _log_grid(cache.horizon, 40)
    else:
        g = np.asarray(sorted(set(int(x) for x in grid)), dtype=np.int64)
        if g[0] < 2 or g[-1] > cache.horizon:
            raise ValueError("grid must lie within [2, horizon]")
    gf = g.astype(np.float64)
    a = cache.a[g]
    A = cache.A[g]
    v = cache.v[g]
    f = cache.f[g]
    mean_ratio_dev = np.abs(A / (gf * a) - 1.0 / (1.0 - alpha)) * gf ** (1.0 - alpha)
    consts = limit_constants(params)
    columns: dict[str, np.ndarray] = {}
    targets: dict[str, float] = {}
    if kind == "diffusive":
        columns["v_over_power"] = v / gf ** (1.0 - 2.0 * alpha)
        targets["v_over_power"] = float(consts.ell)
        columns["n_times_f"] = gf * f
        targets["n_times_f"] = 1.0 - 2.0 * alpha
    elif kind == "critical":
        logg = np.log(gf)
        columns["v_over_log"] = v / logg
        targets["v_over_log"] = consts.critical_v_limit
        columns["nlogn_times_f"] = gf * logg * f
        targets["nlogn_times_f"] = 1.0
    elif kind == "superdiffusive":
        # v_n converges; report it plainly alongside the universal ratio.
        columns["v_n"] = v
    else:
        raise ValueError(f"unknown diagnostics kind {kind!r}")
    return SequenceDiagnostics(
        regime=regime,
        grid=g,
        mean_ratio_dev=mean_ratio_dev,
        columns=columns,
        targets=targets,
    )
