"""Endpoint-singularity-aware quadrature: reference integrals with known
closed forms, the endpoint-offset callback contract, and affine invariance.

The closed-form oracles run at tolerances 1e-10 relative and 1e-12
absolute (``ORACLE``), looser than the one policy the package integrates
at; the checks against the level loop run at whichever policy is set."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g1helicoid import period_solver, quadrature
from g1helicoid import weierstrass as W
from g1helicoid.quadrature import QuadratureError, _tanh_sinh_nodes, integrate

from conftest import quadrature_policy

ORACLE = {"rel_tol": 1e-10, "abs_tol": 1e-12}
#: Sub-machine tolerances that no integral below meets.
TIGHT = {"rel_tol": 1e-18, "abs_tol": 1e-300}


def test_inverse_sqrt_singularity():
    # integral_0^1 x^(-1/2) dx = 2; the singular factor must be formed from
    # the offset argument, never from p - a.
    with quadrature_policy(**ORACLE):
        res = integrate(lambda p, da, db: 1.0 / np.sqrt(da), 0.0, 1.0)
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

    with quadrature_policy(**ORACLE):
        res = integrate(f, 0.0, 1.0)
    exact = math.gamma(a_exp) * math.gamma(b_exp) / math.gamma(a_exp + b_exp)
    assert res.converged
    assert abs(res.value - exact) < 1e-10 * abs(exact)


def test_smooth_oracle():
    with quadrature_policy(**ORACLE):
        res = integrate(lambda p, da, db: np.sin(p), 0.0, math.pi)
    assert abs(res.value - 2.0) < 1e-13


def test_log_singularity():
    # integral_0^1 ln(x) dx = -1
    with quadrature_policy(**ORACLE):
        res = integrate(lambda p, da, db: np.log(da), 0.0, 1.0)
    assert abs(res.value + 1.0) < 1e-12


def test_result_fields():
    with quadrature_policy(**ORACLE):
        res = integrate(lambda p, da, db: p * p, 0.0, 1.0)
    assert res.converged
    assert res.n_evals > 0
    assert res.levels_used >= 1
    assert res.error_estimate < 1e-10
    assert abs(res.value - 1.0 / 3.0) < 1e-13


def test_error_estimate_is_bound():
    def f(p, da, db):
        return 1.0 / np.sqrt(da * db)

    with quadrature_policy(**ORACLE):
        res = integrate(f, 0.0, 1.0)
    assert abs(res.value - math.pi) <= max(10.0 * res.error_estimate, 1e-12)


def test_nonconvergence_reported():
    # an oscillatory integrand cannot meet sub-machine tolerances at level 4
    with quadrature_policy(**TIGHT, max_level=4):
        res = integrate(lambda p, da, db: np.cos(50.0 * p) / np.sqrt(da), 0.0, 1.0)
    assert not res.converged


def test_invalid_interval_rejected():
    with pytest.raises(QuadratureError):
        integrate(lambda p, da, db: p, 1.0, 1.0)


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

    def mapped(p, da, db):
        return (1.0 / np.sqrt(da / scale) + (p - shift) / scale) / scale

    with quadrature_policy(**ORACLE):
        ref = integrate(base, 0.0, 1.0).value
        val = integrate(mapped, shift, shift + scale).value
    assert abs(val - ref) < 1e-10 * (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# levels 0-4 in one integrand call against the one-call-per-level loop
# ---------------------------------------------------------------------------


def _reference_integrate(f, a, b):
    """The level loop with one integrand call per level, as ``integrate``
    ran before levels 0-4 shared one call, at the policy set now.  Returns
    ``(value, error_estimate, levels_used, converged)``."""
    a, b = float(a), float(b)
    c = 0.5 * (b - a)
    value, err, level = math.nan, math.inf, 0
    for level in range(quadrature.MAX_LEVEL + 1):
        alpha, beta, weight = _tanh_sinh_nodes(level)
        da = c * alpha
        db = c * beta
        x = np.where(alpha <= beta, a + da, b - db)
        with np.errstate(all="ignore"):
            y = np.asarray(f(x, da, db), dtype=float)
        if y.ndim == 0:
            y = np.full_like(x, float(y))
        bad = ~np.isfinite(y)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise QuadratureError(
                f"integrand returned non-finite value {y[i]!r} at x={x[i]!r} "
                f"(distance to endpoints: da={da[i]:.3e}, db={db[i]:.3e})"
            )
        h = 2.0 ** (-level)
        partial = h * c * float(np.dot(weight, y))
        if level == 0:
            value = partial
        else:
            new_value = 0.5 * value + partial
            err = abs(new_value - value)
            value = new_value
            if err <= max(quadrature.REL_TOL * abs(value), quadrature.ABS_TOL):
                return value, err, level, True
    return value, err, level, False


def _bits(fields):
    return tuple(v.hex() if isinstance(v, float) else v for v in fields)


def _fields(res):
    return _bits((res.value, res.error_estimate, res.levels_used, res.converged))


def _assert_matches_reference(f, a, b):
    res = integrate(f, a, b)
    assert _fields(res) == _bits(_reference_integrate(f, a, b))
    return res


@pytest.fixture
def compared(monkeypatch):
    """Route ``integrate`` in period_solver and weierstrass through a check
    against the reference loop; yields the list of compared calls."""
    calls = []

    def checked(f, a, b):
        calls.append(_assert_matches_reference(f, a, b))
        return calls[-1]

    monkeypatch.setattr(period_solver, "integrate", checked)
    monkeypatch.setattr(W, "integrate", checked)
    return calls


def test_period_integrals_match_level_loop(compared, solution):
    period_solver.F_integral(solution.params.rho, solution.Lambda0)
    period_solver.G_integral(solution.params.rho, solution.Lambda0)
    # every F of the inner root solves, then F and G at the roots
    period_solver.scan_H([0.02, math.pi / 2 - 0.02])
    assert len(compared) > 20
    assert {res.levels_used for res in compared} >= {4, 5, 6}


def test_anchor_integrals_match_level_loop(compared, params):
    W.x2_H1(params, 1.0)
    W.x2_H2(params, 2.5)
    W.x3_E(params, 1.0)
    W.x3_E_tail(params, 1.0)
    assert len(compared) == 4


@pytest.mark.parametrize("a_exp,b_exp", [(0.5, 0.5), (0.25, 0.75), (0.5, 2.5), (1.5, 0.5)])
def test_beta_oracle_matches_level_loop(a_exp, b_exp):
    with quadrature_policy(**ORACLE):
        _assert_matches_reference(
            lambda p, da, db: da ** (a_exp - 1.0) * db ** (b_exp - 1.0), 0.0, 1.0
        )


@pytest.mark.parametrize("max_level", [4, 6])
def test_nonconverging_spec_matches_level_loop(max_level):
    with quadrature_policy(**TIGHT, max_level=max_level):
        res = _assert_matches_reference(_oscillating, 0.0, 1.0)
    assert not res.converged
    assert res.levels_used == max_level


def _interior_nodes(level):
    """Abscissae of one level on (0, 1), away from the endpoints."""
    alpha, beta, _ = _tanh_sinh_nodes(level)
    x = np.where(alpha <= beta, 0.5 * alpha, 1.0 - 0.5 * beta)
    return x[(x > 0.2) & (x < 0.8)]


def _poisoned(levels, base):
    """``base`` with NaN at the interior nodes of ``levels`` only."""
    poison = np.concatenate([_interior_nodes(k) for k in levels])
    earlier = [_interior_nodes(k) for k in range(min(levels))]
    assert not np.isin(poison, np.concatenate([[]] + earlier)).any()

    def f(p, da, db):
        return np.where(np.isin(p, poison), np.nan, base(p, da, db))

    return f


def _square(p, da, db):
    return p * p


def _oscillating(p, da, db):
    return np.cos(50.0 * p) / np.sqrt(da)


def test_nan_at_a_level_not_reached_is_not_seen():
    with quadrature_policy(**ORACLE):
        res = _assert_matches_reference(_poisoned((4,), _square), 0.0, 1.0)
    assert res.converged
    assert res.levels_used == 3
    with quadrature_policy(rel_tol=1e-4, abs_tol=1e-4):
        res = _assert_matches_reference(_poisoned((3, 4), _square), 0.0, 1.0)
    assert res.converged
    assert res.levels_used == 2


@pytest.mark.parametrize("levels", [(0,), (3, 4), (5,)], ids=["level-0", "levels-3-4", "level-5"])
def test_nan_raises_the_level_loop_message(levels):
    f = _poisoned(levels, _oscillating)
    with quadrature_policy(**TIGHT, max_level=6):
        with pytest.raises(QuadratureError) as expected:
            _reference_integrate(f, 0.0, 1.0)
        with pytest.raises(QuadratureError) as got:
            integrate(f, 0.0, 1.0)
    assert str(got.value) == str(expected.value)
    assert "non-finite value" in str(got.value)


def test_f_integral_at_level_4_calls_its_integrand_once(monkeypatch, solution):
    calls = []
    make = period_solver._f_integrand

    def counting(rho, Lam):
        f = make(rho, Lam)

        def g(p, da, db):
            calls.append(p.size)
            return f(p, da, db)

        return g

    monkeypatch.setattr(period_solver, "_f_integrand", counting)
    res = period_solver.F_integral(solution.params.rho, solution.Lambda0)
    assert res.levels_used == 4
    assert calls == [193]
    assert res.n_evals == 193


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-math.pi / 2, 0.71)])
def test_endpoint_distances_stay_positive_where_x_rounds_onto_an_endpoint(a, b):
    # Some abscissae of the level 0-4 call equal an endpoint, so a singular
    # factor must be formed from da/db, which never reach 0.
    calls = []

    def f(x, da, db):
        calls.append((x, da, db))
        return np.ones_like(x)

    integrate(f, a, b)
    x, da, db = calls[0]
    assert x.size == 193
    assert np.all(da > 0.0) and np.all(db > 0.0)
    assert np.any((x == a) | (x == b))
