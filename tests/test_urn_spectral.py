import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrwlab
import mrwlab.core_process as cp
import mrwlab.limit_harness as lh
import mrwlab.urn_spectral as us
from mrwlab import (
    ModelParams,
    Regime,
    RegimeError,
    build_spectral,
    limit_law,
    matrix_exponential_kernel,
    sigma_squared,
    theoretical_covariance_critical,
    theoretical_covariance_diffusive,
)

PARAM_GRID = [
    ModelParams(s=0.5, q=0.5, p=0.5),
    ModelParams(s=0.5, q=0.25, p=0.75),
    ModelParams(s=0.5, q=0.1, p=0.9),
    ModelParams(s=0.5, q=0.75, p=0.25),
    ModelParams(s=0.5, q=0.3, p=0.0),
    ModelParams(s=0.5, q=1.0, p=0.4),
    ModelParams(s=0.5, q=0.7, p=1.0),
]


@pytest.mark.parametrize("params", PARAM_GRID, ids=lambda p: f"q{p.q}p{p.p}")
def test_spectral_data_validates(params):
    build_spectral(params).validate()


def test_spectral_data_refuse_a_float_one_minus_alpha_of_zero():
    with pytest.raises(ValueError, match="the float 1 - alpha is 0"):
        build_spectral(ModelParams(s=0.5, q=2.2250738585072014e-308, p=1.0))


def test_eigenvalues_are_one_and_alpha():
    spectral = build_spectral(ModelParams(s=0.5, q=0.2, p=0.9))
    assert spectral.lambda1 == 1.0
    assert spectral.lambda2 == 0.7
    w = np.sort(np.linalg.eigvals(spectral.a_matrix))
    assert np.allclose(w, [0.7, 1.0], atol=1e-14)


def test_drift_eigenvector_is_attracting_composition():
    params = ModelParams(s=0.5, q=0.25, p=0.5)
    spectral = build_spectral(params)
    assert abs(spectral.v1.sum() - 1.0) < 1e-15
    assert abs(spectral.v1[1] - params.q / (1 - params.alpha)) < 1e-15


def test_projection_matches_rank_one_form():
    # The fluctuation projection I - v1 u1^T equals v2 u2^T, and A splits over
    # the two eigenprojections, at every p including p = 1.
    for params in PARAM_GRID:
        spectral = build_spectral(params)
        drift = np.outer(spectral.v1, spectral.u1)
        fluctuation = np.outer(spectral.v2, spectral.u2)
        assert np.allclose(drift + fluctuation, np.eye(2), rtol=0.0, atol=1e-13)
        assert np.allclose(drift + params.alpha * fluctuation, spectral.a_matrix, rtol=0.0, atol=1e-13)


def test_integrated_covariance_scale():
    params = ModelParams(s=0.5, q=0.25, p=0.5)
    spectral = build_spectral(params)
    expected = sigma_squared(params) / (1 - 2 * params.alpha)
    assert abs(spectral.sigma_i[1, 1] - expected) < 1e-15
    assert np.allclose(spectral.sigma_i, spectral.sigma_i.T)
    assert abs(spectral.sigma_i.sum()) < 1e-15


def test_degenerate_p_one():
    # q = 0.7 keeps alpha = 0.3 below 1/2 while the noise variance is zero.
    params = ModelParams(s=0.5, q=0.7, p=1.0)
    spectral = build_spectral(params)
    spectral.validate()
    assert np.allclose(spectral.u2, [-2.0, 0.0], rtol=0.0, atol=1e-15)
    assert np.array_equal(spectral.sigma_i, np.zeros((2, 2)))
    assert theoretical_covariance_diffusive(params, 0.5, 1.0) == 0.0


def test_degenerate_alpha_half():
    # The urn's noise over the critical damping 1 is 4q(1-p), per log n.
    # 0.7 - 0.2 is 0.49999999999999994 in floats, but the point is critical.
    for q, p in [(0.25, 0.75), (0.2, 0.7)]:
        spectral = build_spectral(ModelParams(s=0.5, q=q, p=p))
        spectral.validate()
        assert abs(spectral.sigma_i[1, 1] - 4.0 * q * (1.0 - p)) < 1e-12


def test_no_integrated_covariance_when_superdiffusive():
    assert build_spectral(ModelParams(s=0.5, q=0.1, p=0.9)).sigma_i is None


def test_diffusive_kernel_values():
    # alpha = 0: kernel is sigma^2 / t regardless of s.
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    assert abs(theoretical_covariance_diffusive(params, 0.25, 1.0) - 0.25) < 1e-15
    assert abs(theoretical_covariance_diffusive(params, 1.0, 1.0) - 0.25) < 1e-15
    # alpha = 0.25: sigma^2 = 0.25 * 0.5 / 0.5625, factor (t/s)^alpha / (0.5 t)
    params = ModelParams(s=0.5, q=0.25, p=0.5)
    expected = sigma_squared(params) / 0.5 * 2.0**0.25
    assert abs(theoretical_covariance_diffusive(params, 0.5, 1.0) - expected) < 1e-15


def test_critical_kernel_values():
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    assert abs(theoretical_covariance_critical(params, 0.5, 1.0) - 0.25 * 0.5) < 1e-15
    assert abs(theoretical_covariance_critical(params, 1.0, 1.0) - 0.25) < 1e-15


@pytest.mark.parametrize("q,p", [(0.5, 0.5), (0.25, 0.5), (0.4, 0.1), (0.9, 0.2), (0.7, 1.0)])
def test_matrix_exponential_route_matches_closed_form(q, p):
    params = ModelParams(s=0.5, q=q, p=p)
    for s, t in [(0.25, 0.25), (0.25, 0.75), (0.5, 1.0), (1.0, 1.0), (0.1, 0.9)]:
        via_expm = matrix_exponential_kernel(params, s, t)
        closed = theoretical_covariance_diffusive(params, s, t)
        assert abs(via_expm - closed) < 1e-12 * max(1.0, abs(closed))


def test_kernel_regime_and_time_guards():
    diffusive = ModelParams(s=0.5, q=0.5, p=0.5)
    critical = ModelParams(s=0.5, q=0.25, p=0.75)
    with pytest.raises(RegimeError, match="the diffusive kernel requires alpha < 1/2; got alpha = 0.5 \\(critical\\)"):
        theoretical_covariance_diffusive(critical, 0.5, 1.0)
    with pytest.raises(RegimeError, match="the critical kernel requires alpha = 1/2"):
        theoretical_covariance_critical(diffusive, 0.5, 1.0)
    with pytest.raises(RegimeError, match="the diffusive kernel requires"):
        matrix_exponential_kernel(critical, 0.5, 1.0)
    with pytest.raises(RegimeError):
        theoretical_covariance_critical(ModelParams(s=0.5, q=0.1, p=0.9), 0.5, 1.0)
    with pytest.raises(ValueError):
        theoretical_covariance_diffusive(diffusive, 0.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_covariance_diffusive(diffusive, 1.0, 0.5)


def test_each_kernel_call_parses_the_regime_once(monkeypatch):
    calls, classify = [], cp.classify_regime

    def counting(params):
        calls.append(params)
        return classify(params)

    for module in (cp, lh, us):
        monkeypatch.setattr(module, "classify_regime", counting, raising=False)
    diffusive, critical = ModelParams(s=0.5, q=0.3, p=0.6), ModelParams(s=0.5, q=0.25, p=0.75)
    superdiffusive = ModelParams(s=0.5, q=0.1, p=0.9)
    cases = [
        (theoretical_covariance_diffusive, diffusive), (matrix_exponential_kernel, diffusive),
        (theoretical_covariance_critical, critical), (theoretical_covariance_critical, diffusive),
        (theoretical_covariance_diffusive, critical), (matrix_exponential_kernel, superdiffusive),
    ]
    for kernel, params in cases:
        calls.clear()
        try:
            kernel(params, 0.5, 1.0)
        except RegimeError as exc:
            assert "kernel requires" in str(exc) or "Gaussian limit laws require" in str(exc)
        assert len(calls) == 1, (kernel.__name__, params)
    for params in (diffusive, critical, superdiffusive):
        calls.clear()
        build_spectral(params)
        assert len(calls) == 1, params


@pytest.mark.parametrize("q,p", [(0.5, 0.5), (0.25, 0.5), (0.3, 0.0), (0.7, 1.0), (0.25, 0.75), (0.2, 0.7), (0.5, 1.0)])
def test_law_kernel_is_the_theoretical_covariance(q, p):
    params = ModelParams(s=0.5, q=q, p=p)
    law = limit_law(params)
    named = theoretical_covariance_critical if law.regime is Regime.CRITICAL else theoretical_covariance_diffusive
    for s, t in [(0.25, 0.25), (0.25, 0.75), (0.5, 1.0), (0.1, 0.9), (1.0, 1.0)]:
        assert law.kernel(s, t) == named(params, s, t)


def test_limit_harness_does_not_import_urn_spectral():
    # The limit law owns its kernels; the urn route builds on it, not the reverse.
    # The package is stubbed so that its __init__ does not import every module.
    code = (
        "import sys, types; pkg = types.ModuleType('mrwlab'); pkg.__path__ = [sys.argv[1]]; "
        "sys.modules['mrwlab'] = pkg; import mrwlab.limit_harness; print('mrwlab.urn_spectral' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code, str(Path(mrwlab.__file__).parent)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
