import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from camsel.errors import ConfigError
from camsel.theory import (TheoryParams, catalog_lambda_min, lambda_tilde,
                           params_for_world, regret_bound, theoretical_alpha,
                           theoretical_alpha_t, theoretical_beta, theory_report,
                           warmup_bound)


def _params(**kw):
    base = dict(d=5, g=2, K=3, T=20_000, lambda_min=0.1, sigma=0.1, L=0.25,
                m_mu=0.105, delta=0.01, gamma=0.5, n_cameras=8)
    base.update(kw)
    return TheoryParams(**base)


def test_lambda_tilde_noiseless_limit():
    for lam in (0.3, 1.0, 2.5):
        assert lambda_tilde(lam, 0.0, 4) == lam


def test_lambda_tilde_monte_carlo_oracle():
    # small-sample spot check; the full 1e7-sample check runs in acceptance
    rng = np.random.default_rng(5)
    lam, sigma, K = 1.0, 0.5, 1
    xs = rng.random(2_000_000) * lam
    mc = lam * np.mean((1.0 - np.exp(-((lam - xs) ** 2) / (2 * sigma ** 2))) ** K)
    assert lambda_tilde(lam, sigma, K) == pytest.approx(float(mc), abs=1e-3)


def test_lambda_tilde_monotone_grids():
    lams = (0.2, 0.5, 1.0, 2.0)
    vals = [lambda_tilde(lam, 0.3, 2) for lam in lams]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    sigmas = (0.05, 0.1, 0.3, 0.8)
    vals = [lambda_tilde(1.0, s, 2) for s in sigmas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    ks = (1, 2, 4, 8)
    vals = [lambda_tilde(1.0, 0.3, k) for k in ks]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lambda_tilde_range():
    for lam, sigma, K in ((0.3, 0.2, 2), (1.0, 0.05, 5), (2.0, 1.0, 1)):
        val = lambda_tilde(lam, sigma, K)
        assert 0.0 < val <= lam
    with pytest.raises(ValueError):
        lambda_tilde(0.0, 0.1, 1)
    with pytest.raises(ValueError):
        lambda_tilde(1.0, 0.1, 0)


def test_theoretical_alpha_arithmetic_identity():
    # arrange the inner terms: 8/lambda_tilde = 1 (sigma = 0, lambda = 8) and
    # choose T, g so d ln(T/d) + 2 ln(4 g T) = 3 -> alpha = sqrt(4) = 2
    p = _params(lambda_min=8.0, sigma=0.0, m_mu=1.0, d=1, g=1)
    # solve ln(T) + 2 ln(4 T) = 3 => 3 ln T = 3 - 2 ln 4
    T = math.exp((3 - 2 * math.log(4)) / 3)

    class Frozen(TheoryParams):
        pass
    inner = 8.0 / 8.0 + 1 * math.log(T / 1) + 2 * math.log(4 * 1 * T)
    assert inner == pytest.approx(4.0)
    assert math.sqrt(inner) / 1.0 == pytest.approx(2.0)


def test_theoretical_alpha_monotone_in_T():
    a1 = theoretical_alpha(_params(T=20_000))
    a2 = theoretical_alpha(_params(T=40_000))
    assert 0 < a1 < a2


def test_theoretical_alpha_scaling_in_m_mu():
    a1 = theoretical_alpha(_params(m_mu=0.105))
    a2 = theoretical_alpha(_params(m_mu=0.21))
    assert a1 == pytest.approx(2 * a2)


def test_theoretical_alpha_requires_T_above_d():
    with pytest.raises(ValueError):
        theoretical_alpha(_params(T=5, d=5))


def test_theoretical_alpha_t_monotone():
    p = _params()
    assert theoretical_alpha_t(p, 100) < theoretical_alpha_t(p, 10_000)
    assert theoretical_alpha_t(p, 100, delta=0.1) < theoretical_alpha_t(p, 100, delta=0.01)


def test_theoretical_beta():
    p = _params(d=2, sigma=0.0, lambda_min=64.0, m_mu=1.0)
    assert theoretical_beta(p) == pytest.approx(1.0)
    assert theoretical_beta(_params(d=20)) == pytest.approx(
        2 * theoretical_beta(_params(d=5)))
    assert theoretical_beta(_params()) > 0


def test_regret_bound_values():
    p = _params(L=1.0, d=1, m_mu=1.0, g=1, K=1)
    T = math.e ** 2
    assert regret_bound(p, int(round(T))) == pytest.approx(
        math.sqrt(round(T)) * math.log(round(T)))
    # ratio at 4T vs T: sqrt(4) * ln(4T)/ln(T)
    r = regret_bound(p, 4000) / regret_bound(p, 1000)
    assert r == pytest.approx(2 * math.log(4000) / math.log(1000))
    with pytest.raises(ValueError):
        regret_bound(p, 1)


def test_warmup_bound_monotonicity():
    base = warmup_bound(_params())
    assert warmup_bound(_params(gamma=1.0)) <= base
    doubled = warmup_bound(_params(n_cameras=16))
    assert doubled > 2 * base
    assert base > 0


def test_theory_params_validation():
    with pytest.raises(ConfigError):
        _params(d=0)
    with pytest.raises(ConfigError):
        _params(delta=1.5)
    with pytest.raises(ConfigError):
        _params(sigma=-0.1)


def test_catalog_lambda_min(world):
    lam = catalog_lambda_min(world.features)
    second_moment = world.features.T @ world.features / world.n_models
    assert lam == pytest.approx(float(np.linalg.eigvalsh(second_moment).min()))
    assert lam > 0


def test_theory_report_world_specific(world):
    report = theory_report(world, k_max=3, horizon=20_000)
    assert report["d"] == 5 and report["g"] == 2 and report["K"] == 3
    assert 0 < report["lambda_tilde"] <= report["lambda_min"]
    assert report["alpha_theory"] > 0 and report["beta_theory"] > 0
    assert report["regret_bound_at_T"] > 0 and report["warmup_bound"] > 0
    assert report["m_mu"] == pytest.approx(0.10499358540350652)


def test_theory_pure_functions(world):
    p = params_for_world(world, 3, 10_000)
    assert theoretical_alpha(p) == theoretical_alpha(p)
    assert lambda_tilde(0.7, 0.2, 3) == lambda_tilde(0.7, 0.2, 3)


def test_import_leaves_scipy_integrate_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, camsel; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_pairs_leave_scipy_sparse_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, camsel\n"
            "from camsel.harness import run_pair\n"
            "from camsel.presets import canonical_agent_config, canonical_world\n"
            "for variant in ('default', 'set-based'):\n"
            "    run_pair(variant, 0, canonical_world(), canonical_agent_config(), 20)\n"
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
