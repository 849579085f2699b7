import math

import numpy as np
import pytest

from conftest import PrecisionPolicy, hyp2f1_series
from modalbridge.special import beta_fn, gamma_fn, hyp2f1


def test_gamma_basic_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    # high-precision reference (50-digit evaluation of Gamma(3/4))
    assert gamma_fn(0.75) == pytest.approx(1.2254167024651776451290983034, rel=1e-13)


def test_gamma_domain_error():
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-1.5)


def test_gamma_recurrence():
    for x in np.arange(0.1, 5.01, 0.1):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


def test_beta_basic_values():
    assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
    # (3/2 - H, H + 1/2) at H = 1/2 reduces to B(1, 1)
    assert beta_fn(1.5 - 0.5, 0.5 + 0.5) == pytest.approx(1.0, rel=1e-13)
    # product of gamma reference values over Gamma(2) = 1
    expected = gamma_fn(0.75) * gamma_fn(1.25) / gamma_fn(2.0)
    assert beta_fn(0.75, 1.25) == pytest.approx(expected, rel=1e-13)
    assert beta_fn(0.75, 1.25) == pytest.approx(1.1107207345396392, rel=1e-10)


def test_beta_domain_error():
    with pytest.raises(ValueError):
        beta_fn(-0.1, 1.0)
    with pytest.raises(ValueError):
        beta_fn(1.0, 0.0)


def test_beta_gamma_consistency():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.uniform(0.05, 4.0)
        b = rng.uniform(0.05, 4.0)
        assert beta_fn(a, b) * gamma_fn(a + b) == pytest.approx(
            gamma_fn(a) * gamma_fn(b), rel=1e-12)


def test_hyp2f1_trivial_cases():
    assert hyp2f1(0.25, -0.25, 1.25, 0.0) == 1.0
    assert hyp2f1(0.0, 0.7, 1.25, -3.0) == 1.0
    assert hyp2f1(0.7, 0.0, 1.25, -3.0) == 1.0


def test_hyp2f1_log_closed_form():
    # F(1, 1, 2; z) = -log(1 - z) / z
    for z in (-1.0, -0.5, -7.3, -150.0):
        assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log1p(-z) / z, rel=1e-11)
    assert hyp2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-11)


def test_hyp2f1_rejects_positive_z_and_bad_c():
    with pytest.raises(ValueError):
        hyp2f1(0.25, 0.25, 1.25, 0.5)
    with pytest.raises(ValueError):
        hyp2f1(0.25, 0.25, -1.0, -0.5)


def test_hyp2f1_symmetry_in_ab():
    rng = np.random.default_rng(11)
    for _ in range(60):
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.5, 0.5)
        c = rng.uniform(0.6, 1.5)
        z = -rng.uniform(0.0, 50.0)
        assert hyp2f1(a, b, c, z) == pytest.approx(hyp2f1(b, a, c, z), abs=1e-13, rel=1e-13)


def test_series_reference_matches_production_route():
    # Pfaff-transformed series as an independent cross-check on moderate z
    rng = np.random.default_rng(3)
    for _ in range(40):
        h = rng.uniform(0.05, 0.95)
        a, b, c = h - 0.5, 0.5 - h, h + 0.5
        z = -rng.uniform(0.0, 20.0)
        assert hyp2f1_series(a, b, c, z) == pytest.approx(
            hyp2f1(a, b, c, z), rel=1e-10)


def test_series_policy_guard():
    policy = PrecisionPolicy(abs_tol=1e-15, max_terms=5)
    with pytest.raises(RuntimeError):
        hyp2f1_series(0.4, -0.4, 0.9, -30.0, policy)
    with pytest.raises(ValueError):
        PrecisionPolicy(abs_tol=0.0)
    with pytest.raises(ValueError):
        PrecisionPolicy(max_terms=0)


def test_hyp2f1_vectorized_over_z():
    z = -np.linspace(0.0, 10.0, 11)
    out = hyp2f1(0.25, -0.25, 0.75, z)
    assert out.shape == z.shape
    assert out[0] == 1.0
