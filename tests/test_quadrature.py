"""Endpoint-singularity-aware quadrature: reference integrals with known
closed forms, the endpoint-offset callback contract, and affine invariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g1helicoid.quadrature import (
    DEFAULT_SPEC,
    QuadratureError,
    QuadratureSpec,
    integrate,
)


def test_inverse_sqrt_singularity():
    # integral_0^1 x^(-1/2) dx = 2; the singular factor must be formed from
    # the offset argument, never from p - a.
    res = integrate(lambda p, da, db: 1.0 / np.sqrt(da), 0.0, 1.0, DEFAULT_SPEC)
    assert res.converged
    assert abs(res.value - 2.0) < 1e-12


@pytest.mark.parametrize(
    "a_exp,b_exp",
    [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (0.25, 0.75), (0.5, 2.5), (1.5, 0.5)],
)
def test_beta_integrals(a_exp, b_exp):
    # integral_0^1 x^(a-1) (1-x)^(b-1) dx = B(a, b), singular at either end.
    def f(p, da, db):
        return da ** (a_exp - 1.0) * db ** (b_exp - 1.0)

    res = integrate(f, 0.0, 1.0, DEFAULT_SPEC)
    exact = math.gamma(a_exp) * math.gamma(b_exp) / math.gamma(a_exp + b_exp)
    assert res.converged
    assert abs(res.value - exact) < 1e-10 * abs(exact)


def test_smooth_oracle():
    res = integrate(lambda p, da, db: np.sin(p), 0.0, math.pi, DEFAULT_SPEC)
    assert abs(res.value - 2.0) < 1e-13


def test_log_singularity():
    # integral_0^1 ln(x) dx = -1
    res = integrate(lambda p, da, db: np.log(da), 0.0, 1.0, DEFAULT_SPEC)
    assert abs(res.value + 1.0) < 1e-12


def test_result_fields():
    res = integrate(lambda p, da, db: p * p, 0.0, 1.0, DEFAULT_SPEC)
    assert res.converged
    assert res.n_evals > 0
    assert res.levels_used >= 1
    assert res.error_estimate < 1e-10
    assert abs(res.value - 1.0 / 3.0) < 1e-13


def test_error_estimate_is_bound():
    def f(p, da, db):
        return 1.0 / np.sqrt(da * db)

    res = integrate(f, 0.0, 1.0, DEFAULT_SPEC)
    assert abs(res.value - math.pi) <= max(10.0 * res.error_estimate, 1e-12)


def test_nonconvergence_reported():
    # an oscillatory integrand cannot meet sub-machine tolerances at level 4
    tight = QuadratureSpec(rel_tol=1e-18, abs_tol=1e-300, max_level=4)
    res = integrate(
        lambda p, da, db: np.cos(50.0 * p) / np.sqrt(da), 0.0, 1.0, tight
    )
    assert not res.converged


def test_spec_validation():
    with pytest.raises(QuadratureError):
        QuadratureSpec(rel_tol=-1.0)
    with pytest.raises(QuadratureError):
        QuadratureSpec(max_level=2)


def test_invalid_interval_rejected():
    with pytest.raises(QuadratureError):
        integrate(lambda p, da, db: p, 1.0, 1.0, DEFAULT_SPEC)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_affine_invariance(shift, scale):
    # integral over [shift, shift + scale] of f((p - shift)/scale) / scale
    # equals integral over [0, 1] of f.
    def base(p, da, db):
        return 1.0 / np.sqrt(da) + p

    ref = integrate(base, 0.0, 1.0, DEFAULT_SPEC).value

    def mapped(p, da, db):
        return (1.0 / np.sqrt(da / scale) + (p - shift) / scale) / scale

    val = integrate(mapped, shift, shift + scale, DEFAULT_SPEC).value
    assert abs(val - ref) < 1e-10 * (1.0 + abs(ref))
