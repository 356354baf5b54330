"""Mean replacement matrix of the two-color urn and the Gaussian covariance
kernels used as functional-limit targets.

Component order is (red, blue) throughout. Each draw adds one ball, so the
mean replacement matrix

    A = [[1-q, 1-p],
         [q,   p  ]]

has columns summing to 1 and eigenvalues 1 and alpha = p - q. The limit
kernels are those of limit_law; the urn route rebuilds the diffusive one from
A's closed-form eigenpairs as a numerical cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_process import ModelParams, Regime, RegimeError, _centre, _require
from .limit_harness import LimitLaw, limit_law

__all__ = [
    "SpectralData",
    "build_spectral",
    "theoretical_covariance_diffusive",
    "theoretical_covariance_critical",
    "matrix_exponential_kernel",
]


@dataclass
class SpectralData:
    """Spectral decomposition of the mean replacement matrix.

    v1, v2 are right eigenvectors and u1, u2 left eigenvectors, normalized
    biorthogonally (u_i . v_j = delta_ij), so that I = v1 u1^T + v2 u2^T and
    A = v1 u1^T + alpha v2 u2^T. sigma_i is the integrated noise covariance
    of the fluctuation field: the urn's noise (u2 B u2^T) v2_blue^2, with
    replacement second moments B = diag(v1), over limit_law's damping, times
    [[1, -1], [-1, 1]]. It is sigma^2/(1-2 alpha) diffusive, 4q(1-p) (per log
    n) critical, and None for alpha > 1/2, where no Gaussian law holds.
    """

    a_matrix: np.ndarray
    lambda1: float
    lambda2: float
    v1: np.ndarray
    v2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    sigma_i: np.ndarray | None

    def validate(self, tol: float = 1e-12) -> None:
        col_sums = self.a_matrix.sum(axis=0)
        if np.max(np.abs(col_sums - 1.0)) > tol:
            raise AssertionError("replacement matrix columns must sum to 1")
        for lam, vec in ((self.lambda1, self.v1), (self.lambda2, self.v2)):
            if np.max(np.abs(self.a_matrix @ vec - lam * vec)) > tol:
                raise AssertionError(f"right eigenvector check failed for lambda={lam}")
        for lam, vec in ((self.lambda1, self.u1), (self.lambda2, self.u2)):
            if np.max(np.abs(vec @ self.a_matrix - lam * vec)) > tol:
                raise AssertionError(f"left eigenvector check failed for lambda={lam}")
        if abs(self.u1 @ self.v1 - 1.0) > tol or abs(self.u1 @ self.v2) > tol:
            raise AssertionError("u1 biorthogonality failed")
        if abs(self.u2 @ self.v2 - 1.0) > tol or abs(self.u2 @ self.v1) > tol:
            raise AssertionError("u2 biorthogonality failed")


def build_spectral(params: ModelParams) -> SpectralData:
    try:
        law = limit_law(params)
    except RegimeError:  # alpha > 1/2: no Gaussian law, so no sigma_i
        law = None
    return _spectral(params, law)


def _spectral(params: ModelParams, law: LimitLaw | None) -> SpectralData:
    """build_spectral from the LimitLaw of params, or None where alpha > 1/2."""
    q, p = params.q, params.p
    alpha = params.alpha
    centre = _centre(params)  # q/(1 - alpha), refused where the float 1 - alpha is 0
    one_minus = 1.0 - alpha
    a_matrix = np.array([[1.0 - q, 1.0 - p], [q, p]], dtype=np.float64)
    v1 = np.array([(1.0 - p) / one_minus, centre])
    v2 = np.array([-0.5, 0.5])
    u1 = np.array([1.0, 1.0])
    u2 = np.array([-2.0 * q / one_minus, 2.0 * (1.0 - p) / one_minus])
    sigma_i = None
    if law is not None:
        noise = (u2 @ np.diag(v1) @ u2) * v2[1] ** 2
        sigma_i = noise / law.damping * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return SpectralData(
        a_matrix=a_matrix,
        lambda1=1.0,
        lambda2=alpha,
        v1=v1,
        v2=v2,
        u1=u1,
        u2=u2,
        sigma_i=sigma_i,
    )


def _check_times(s: float, t: float) -> None:
    if not (0.0 < s <= t):
        raise ValueError("times must satisfy 0 < s <= t")


def _kernel_law(params: ModelParams, regime: Regime, what: str) -> LimitLaw:
    """limit_law(params), refused with a RegimeError unless its regime is
    regime: the kernels parse the regime once per call."""
    law = limit_law(params)  # RegimeError for alpha > 1/2
    _require(params, regime, what, law.regime)
    return law


def theoretical_covariance_diffusive(params: ModelParams, s: float, t: float) -> float:
    """Limit covariance sigma^2 / ((1-2 alpha) t) * (t/s)^alpha, alpha < 1/2.

    At p = 1 the noise variance vanishes and the kernel is identically 0.
    """
    _check_times(s, t)
    return _kernel_law(params, Regime.DIFFUSIVE, "the diffusive kernel").kernel(s, t)


def theoretical_covariance_critical(params: ModelParams, s: float, t: float) -> float:
    """Limit covariance 4 q (1-p) s of the critical time-changed process."""
    _check_times(s, t)
    return _kernel_law(params, Regime.CRITICAL, "the critical kernel").kernel(s, t)


def matrix_exponential_kernel(params: ModelParams, s: float, t: float) -> float:
    """Diffusive kernel recomputed through the matrix exponential route.

    The urn fluctuation covariance at times (s, t) is s * Sigma_I *
    exp(log(t/s) A^T); its (blue, blue) entry, rescaled by 1/(s t) to match
    the position-ratio normalization, must equal the closed-form diffusive
    kernel. The exponential comes from A's eigenpairs, exp(log(t/s) A^T) =
    (t/s) u1 v1^T + (t/s)^alpha u2 v2^T. Kept as a guard against
    transcription errors in the closed form.
    """
    _check_times(s, t)
    sp = _spectral(params, _kernel_law(params, Regime.DIFFUSIVE, "the diffusive kernel"))
    ratio = t / s
    exp_at = ratio * np.outer(sp.u1, sp.v1) + ratio**sp.lambda2 * np.outer(sp.u2, sp.v2)
    cov = s * sp.sigma_i @ exp_at
    return float(cov[1, 1]) / (s * t)
