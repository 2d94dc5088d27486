import math

import numpy as np
import pytest

from camsel.core import (LinkConstants, LinkFunctionSpec, cascade_payoff,
                         expected_cascade_payoff, link_constants, link_derivative,
                         link_eval, sigmoid)
from camsel.errors import ConfigError

SIGMOID = LinkFunctionSpec("sigmoid")
IDENTITY = LinkFunctionSpec("identity")
CLIPPED = LinkFunctionSpec("clipped-linear")

# High-precision scalar oracles, frozen.
SIGMOID_AT_1 = 0.7310585786300049
SIGMOID_PRIME_AT_2 = 0.10499358540350652


def test_link_eval_basics():
    assert link_eval(SIGMOID, 0.0) == 0.5
    assert link_eval(IDENTITY, 0.37) == 0.37
    assert link_eval(SIGMOID, 1.0) == pytest.approx(SIGMOID_AT_1, abs=1e-12)
    assert link_eval(CLIPPED, -0.2) == 0.0
    assert link_eval(CLIPPED, 0.4) == pytest.approx(0.4)
    assert link_eval(CLIPPED, 1.7) == 1.0


def _libm_sigmoid(x: float) -> float:
    """1 / (1 + exp(-x)) through the C library's exp, inf past its range."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _same(a, b) -> bool:
    """Equal bits, any NaN equal to any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


# the sigmoid's bits rest on numpy sending a float64 exp with one reversed
# operand to its scalar loop, which calls the C library's exp as expit does
_DISPATCH = ("numpy no longer computes exp of a reversed float64 operand with the C "
             "library's exp: every sigmoid float may change; a platform change, not a bug")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigmoid_equals_scipy_expit_and_the_c_librarys_exp(rng):
    """Bit for bit on 10^6 uniform draws over [-750, 750], 10^6 normal draws,
    the range just past exp's overflow, and +-0, +-inf, NaN and the
    subnormal edges, for Python floats, 0-d, 1-D, (S, M, 1), Fortran-ordered
    and strided arrays, without a RuntimeWarning and leaving the input as
    it was."""
    from scipy.special import expit

    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -709.0, -709.78, -709.79, -710.0,
               -745.2, 709.9, 5e-324, -5e-324, 1e308, -1e308]
    x = np.concatenate([rng.uniform(-750.0, 750.0, 1_000_000), 3.0 * rng.normal(size=1_000_000),
                        -rng.uniform(709.0, 709.8, 50_000), special])
    kept = x.copy()
    ours = sigmoid(x)
    assert ours.shape == x.shape and ours.dtype == np.float64
    assert _same(ours, expit(x)), _DISPATCH
    assert _same(ours, [_libm_sigmoid(v) for v in x.tolist()]), _DISPATCH
    assert _same(x, kept)
    cube = x[:40 * 20 * 50].reshape(50 * 40, 20, 1)
    for arg in (cube, np.asfortranarray(cube[:, :, 0]), cube[::3, 5:, :], x[::-7]):
        out = sigmoid(arg)
        assert out.shape == arg.shape and _same(out, expit(arg)), _DISPATCH
    for v in special + x[:200].tolist():
        for arg in (v, np.array(v)):
            out = sigmoid(arg)
            assert type(out) is np.float64 and _same(out, expit(arg)), (v, _DISPATCH)


def test_link_eval_vectorized():
    z = np.array([-1.0, 0.0, 1.0])
    out = link_eval(SIGMOID, z)
    assert out.shape == (3,)
    assert np.all((out > 0) & (out < 1))


def test_link_eval_rejects_nonfinite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            link_eval(SIGMOID, bad)
        with pytest.raises(ValueError):
            link_derivative(IDENTITY, bad)


def test_link_derivative_values():
    assert link_derivative(SIGMOID, 0.0) == 0.25
    assert link_derivative(IDENTITY, -3.0) == 1.0
    assert link_derivative(SIGMOID, 2.0) == pytest.approx(SIGMOID_PRIME_AT_2, abs=1e-6)
    assert link_derivative(CLIPPED, 0.5) == 1.0
    assert link_derivative(CLIPPED, 1.5) == 0.0


def test_derivative_matches_finite_differences(rng):
    h = 1e-6
    for spec in (SIGMOID, IDENTITY):
        z = rng.uniform(-2, 2, 1000)
        fd = (link_eval(spec, z + h) - link_eval(spec, z - h)) / (2 * h)
        assert np.max(np.abs(link_derivative(spec, z) - fd)) < 1e-5


def test_monotonicity(rng):
    for spec in (SIGMOID, IDENTITY):
        z = np.sort(rng.uniform(-spec.domain_bound, spec.domain_bound, 500))
        vals = link_eval(spec, z)
        assert np.all(np.diff(vals) > 0)


def test_lipschitz_bound(rng):
    for spec in (SIGMOID, IDENTITY):
        consts = link_constants(spec)
        z1 = rng.uniform(-2, 2, 2000)
        z2 = rng.uniform(-2, 2, 2000)
        lhs = np.abs(link_eval(spec, z1) - link_eval(spec, z2))
        assert np.all(lhs <= consts.lipschitz_L * np.abs(z1 - z2) + 1e-12)


def test_link_constants_sigmoid_default_interval():
    consts = link_constants(SIGMOID)
    assert consts.lipschitz_L == 0.25
    assert consts.m_mu == pytest.approx(SIGMOID_PRIME_AT_2, abs=1e-12)
    # grid-scan oracle over [-2, 2]
    grid = np.arange(-2.0, 2.0 + 1e-9, 1e-4)
    slopes = link_derivative(SIGMOID, grid)
    assert consts.lipschitz_L == pytest.approx(float(slopes.max()), abs=1e-8)
    assert consts.m_mu == pytest.approx(float(slopes.min()), abs=1e-8)


def test_link_constants_identity_and_degenerate():
    consts = link_constants(IDENTITY)
    assert (consts.lipschitz_L, consts.m_mu) == (1.0, 1.0)
    degenerate = link_constants(LinkFunctionSpec("sigmoid", domain_bound=0.0))
    assert degenerate.lipschitz_L == degenerate.m_mu == 0.25


def test_link_constants_rejects_clipped_linear():
    with pytest.raises(ConfigError):
        link_constants(CLIPPED)


def test_link_constants_invariant():
    with pytest.raises(ConfigError):
        LinkConstants(lipschitz_L=1.0, m_mu=0.0)
    with pytest.raises(ConfigError):
        LinkConstants(lipschitz_L=0.1, m_mu=0.2)


def test_unknown_link_kind_rejected():
    with pytest.raises(ConfigError):
        LinkFunctionSpec("relu")


def test_cascade_payoff():
    assert cascade_payoff([0, 0, 0]) == 0
    assert cascade_payoff([0, 1]) == 1
    assert cascade_payoff([1]) == 1
    assert cascade_payoff([]) == 0
    with pytest.raises(ValueError):
        cascade_payoff([0, 2])


def test_expected_cascade_payoff():
    assert expected_cascade_payoff([0.5, 0.5]) == pytest.approx(0.75)
    assert expected_cascade_payoff([1.0, 0.0]) == 1.0
    assert expected_cascade_payoff([]) == 0.0
    with pytest.raises(ValueError):
        expected_cascade_payoff([1.2])
    with pytest.raises(ValueError):
        expected_cascade_payoff([-0.1])
    # a NaN fails every comparison, so only "not 0 <= p <= 1" turns it away
    with pytest.raises(ValueError):
        expected_cascade_payoff([0.5, float("nan")])


def test_cascade_matches_expected_on_binary(rng):
    for _ in range(200):
        bits = rng.integers(0, 2, rng.integers(0, 6)).tolist()
        assert cascade_payoff(bits) == expected_cascade_payoff([float(b) for b in bits])


def test_appending_never_decreases_expected(rng):
    for _ in range(200):
        probs = rng.random(rng.integers(0, 5)).tolist()
        extra = float(rng.random())
        assert expected_cascade_payoff(probs + [extra]) >= expected_cascade_payoff(probs) - 1e-15


def test_expected_cascade_brute_force(rng):
    # enumeration oracle: sum over all outcome vectors of P(outcome) * aggregate
    for _ in range(50):
        probs = rng.random(rng.integers(1, 5))
        total = 0.0
        for mask in range(2 ** len(probs)):
            bits = [(mask >> i) & 1 for i in range(len(probs))]
            weight = math.prod(p if b else 1 - p for p, b in zip(probs, bits))
            total += weight * cascade_payoff(bits)
        assert expected_cascade_payoff(probs) == pytest.approx(total, abs=1e-12)


def test_expected_cascade_payoff_is_the_left_fold(rng):
    for _ in range(200):
        probs = rng.random(rng.integers(0, 6))
        assert expected_cascade_payoff(probs) == float(1.0 - np.multiply.reduce(1.0 - probs))
