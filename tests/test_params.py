"""Parameter domain: derived quantities against frozen reference values,
round-trip identities, and domain validation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g1helicoid.params import ParameterDomainError, SurfaceParams, lambda_from_Lambda

# Frozen reference values, computed once with 50-digit arithmetic and pinned.
LAM_OF_0_2 = 2.985467255270842
LAM_OF_0_7 = 2.2964286205717306
LAM_OF_1_2 = 2.0470886545691037
R_AT_0_5 = 1.2983822307657863
T_AT_0_0_5 = 2.107444419312218


def test_lambda_of_Lambda_frozen_values():
    # lambda(Lambda) = 2 / (Lambda + sqrt((Lambda-2)(Lambda+2))) on (2, inf)
    for Lam in (LAM_OF_0_2, LAM_OF_0_7, LAM_OF_1_2):
        lam = lambda_from_Lambda(Lam)
        assert 0.0 < lam < 1.0
        assert SurfaceParams(0.5, lam).Lambda == pytest.approx(Lam, rel=1e-14)


def test_R_frozen_value():
    p = SurfaceParams(0.5, 0.61)
    assert p.R == pytest.approx(R_AT_0_5, rel=1e-14)


def test_T_frozen_value():
    T = SurfaceParams(0.0, 0.5, diagnostic=True).T
    assert T == pytest.approx(T_AT_0_0_5, rel=1e-14)


def test_r_squared_identity():
    p = SurfaceParams(0.8, 0.44)
    lhs = p.r**2
    rhs = 2.0 * math.cos(p.rho) / (p.Lambda - 2.0 * math.sin(p.rho))
    assert lhs == pytest.approx(rhs, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_lambda_Lambda_involution(lam):
    Lam = SurfaceParams(0.5, lam).Lambda
    assert Lam > 2.0
    # Lambda - 2 = (1 - lam)^2 / lam cancels as lam -> 1, so the achievable
    # round-trip accuracy degrades like eps / (1 - lam).
    tol = 5e-15 / (1.0 - lam) + 1e-14
    assert abs(lambda_from_Lambda(Lam) - lam) <= tol


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_T_positive_on_physical_branch(rho, lam):
    p = SurfaceParams(rho, lam)
    assert p.T > 0.0
    assert p.r > 0.0
    assert p.R > 0.0
    assert p.Lambda == pytest.approx(lam + 1.0 / lam, rel=1e-15)


def test_create_rejects_nonphysical():
    with pytest.raises(ParameterDomainError):
        SurfaceParams(0.5, 1.5)  # lam >= 1 needs the diagnostic branch
    with pytest.raises(ParameterDomainError):
        SurfaceParams(0.5, -0.2)
    with pytest.raises(ParameterDomainError):
        SurfaceParams(2.0, 0.5)  # rho outside (-pi/2, pi/2)
    with pytest.raises(ParameterDomainError):
        SurfaceParams(float("nan"), 0.5)


def test_diagnostic_branch_inverted_T():
    d = SurfaceParams(0.71, 1.5, diagnostic=True)
    assert d.diagnostic
    assert d.lam == 1.5
    assert d.T < 0.0  # the (1 - lam^2) factor flips sign past lam = 1


def test_diagnostic_branch_nonpositive_rho():
    d = SurfaceParams(-0.3, 0.5, diagnostic=True)
    assert d.diagnostic
    assert d.rho == -0.3


def test_frozen_dataclass():
    p = SurfaceParams(0.5, 0.61)
    with pytest.raises(AttributeError):
        p.rho = 0.6  # type: ignore[misc]
