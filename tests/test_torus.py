"""The spectral curve (rhombic torus): sheeted square root, the three
half-turns, chart geometry, and marked points."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g1helicoid.params import SurfaceParams
from g1helicoid.torus import (
    SHEETS,
    SYMMETRIES,
    SheetDomainError,
    _agm,
    build_chart,
    lift_angle_left,
    tau_horizontal,
    tau_vertical,
    w_branch_left,
    w_on_sheet,
)

# Frozen chart dimensions (50-digit reference computation).
WIDTH_AT_05 = 2.833110808873433
HEIGHT_AT_05 = 2.240766644911041
WIDTH_AT_0 = 2.6220575542921198  # square torus: width == height at rho = 0
WIDTH_AT_RHO0 = 2.857855157377792
HEIGHT_AT_RHO0 = 2.0275333056426

P = SurfaceParams(0.5, 0.61)


# ---------------------------------------------------------------------------
# oracles: the curve equation and |w| on the unit circle, in closed form
# ---------------------------------------------------------------------------


def curve_rhs(params, z):
    """Right-hand side of the curve equation, i.e. the value of w^2 at z."""
    z = np.asarray(z, dtype=complex)
    ea = np.exp(1j * params.rho)
    eb = np.exp(-1j * params.rho)
    return 2.0 * math.cos(params.rho) * z / ((ea - z) * (z + eb))


def master_relation_residual(params, z, w):
    """Residual of ``(2 cos rho)/w^2 + (z - 1/z - 2 i sin rho)`` (zero on curve)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return 2.0 * math.cos(params.rho) / (w * w) + (z - 1.0 / z - 2j * math.sin(params.rho))


def ring_modulus(params, theta):
    """|w| on the interior unit-circle arcs, z = e^{i theta}, sin theta > sin rho."""
    theta = np.asarray(theta, dtype=float)
    return np.sqrt(math.cos(params.rho) / (np.sin(theta) - math.sin(params.rho)))


def slit_modulus(params, phi):
    """|w| on the slit banks, z = -e^{-i phi} with phi in (-pi/2, rho)."""
    phi = np.asarray(phi, dtype=float)
    return np.sqrt(math.cos(params.rho) / (math.sin(params.rho) - np.sin(phi)))


def marked_points(params):
    """(name, sheet, z, w, region) of the distinguished points with finite
    nonzero z and finite w; ``region`` is None where only the curve equation
    is checked."""
    rho, lam, r, R = params.rho, params.lam, params.r, params.R
    e4 = cmath.exp(0.25j * math.pi)
    em4 = cmath.exp(-0.25j * math.pi)
    zeta = -cmath.exp(-1j * rho)
    zeta_shift = math.sqrt(2.0 * math.cos(rho)) * cmath.exp(-0.5j * rho)
    return (
        ("quarter_h_left", "upper_left", 1j, -R * e4, "inner"),
        ("quarter_h_right", "upper_right", 1j, R * e4, "inner"),
        ("quarter_v_near", "upper_left", -1j, em4 / R, "inner"),
        ("quarter_v_far", "upper_left", -1j, -em4 / R, "outer"),
        ("end_left", "upper_left", 1j / lam, -r * e4, "outer"),
        ("end_right", "upper_right", 1j / lam, r * e4, "outer"),
        ("vertical_normal_left", "upper_left", 1j * lam, -r * e4, "inner"),
        ("vertical_normal_right", "upper_right", 1j * lam, r * e4, "inner"),
        ("w_unit_plus", "upper_right", zeta + zeta_shift, 1.0 + 0.0j, None),
        ("w_unit_minus", "upper_left", zeta - zeta_shift, -1.0 + 0.0j, None),
    )


def _left_points(rng_seed, n=64):
    rng = np.random.default_rng(rng_seed)
    m = rng.uniform(0.15, 2.3, n)
    th = rng.uniform(math.pi / 2 + 0.05, 3 * math.pi / 2 - 0.05, n)
    return m * np.exp(1j * th)


def test_w_satisfies_master_relation_all_sheets():
    z_left = _left_points(3)
    for sheet in SHEETS:
        z = z_left if sheet in ("upper_left", "lower_right") else -np.conj(z_left)
        w = w_on_sheet(P, sheet, z)
        res = master_relation_residual(P, z, w)
        assert np.max(np.abs(res)) < 1e-12
        assert np.max(np.abs(w * w - curve_rhs(P, z))) < 1e-12


def test_inner_outer_agree_on_gluing_arc():
    th = np.linspace(math.pi / 2 + 1e-3, math.pi - P.rho - 1e-3, 40)
    z = np.exp(1j * th)
    wi = w_branch_left(P, z, "inner")
    wo = w_branch_left(P, z, "outer")
    assert np.max(np.abs(wi - wo)) < 1e-12


def test_inner_outer_differ_on_slit():
    phi = np.linspace(-math.pi / 2 + 0.05, P.rho - 0.05, 40)
    z = -np.exp(-1j * phi)
    wi = w_branch_left(P, z, "inner")
    wo = w_branch_left(P, z, "outer")
    # the two banks carry opposite w values of equal modulus
    assert np.max(np.abs(wi + wo)) < 1e-12
    assert np.min(np.abs(wi - wo)) > 1e-3
    assert np.max(np.abs(np.abs(wi) - slit_modulus(P, phi))) < 1e-12


def test_wrong_half_plane_rejected():
    with pytest.raises(SheetDomainError):
        w_on_sheet(P, "upper_left", 1.0 + 0.5j)
    with pytest.raises(SheetDomainError):
        w_branch_left(P, 1.0 + 0.5j, "outer")
    with pytest.raises(SheetDomainError):
        lift_angle_left(np.array([0.3 + 0.1j]))


def test_inner_form_is_the_lifted_angle_square_root(params):
    # the inner form writes sqrt(|z|) e^{i theta/2}, theta lifted to
    # [pi/2, 3pi/2], as i sqrt(-z); the rays theta = pi/2 and 3pi/2 and
    # |z| down to 1e-12 included
    m = np.geomspace(1e-12, 1.0, 200)
    th = np.linspace(math.pi / 2, 3 * math.pi / 2, 300)
    z = (m[:, None] * np.exp(1j * th)).ravel()
    for p in (P, params):
        ea, eb = np.exp(1j * p.rho), np.exp(-1j * p.rho)
        lifted = np.sqrt(np.abs(z)) * np.exp(0.5j * lift_angle_left(z))
        oracle = -math.sqrt(2.0 * math.cos(p.rho)) * lifted / (np.sqrt(ea - z) * np.sqrt(z + eb))
        w = w_branch_left(p, z, "inner")
        assert np.max(np.abs(w - oracle) / np.abs(oracle)) < 1e-15, p.rho


def test_lift_angle_range():
    z = _left_points(11)
    th = lift_angle_left(z)
    assert np.all(th >= math.pi / 2 - 1e-12)
    assert np.all(th <= 3 * math.pi / 2 + 1e-12)


def test_modulus_closed_forms():
    t = np.linspace(0.2, 3.0, 25)
    assert np.max(np.abs(np.abs(w_branch_left(P, 1j * t)) - tau_horizontal(P, t))) < 1e-12
    tv = np.linspace(0.2, 0.95, 20)
    assert np.max(np.abs(np.abs(w_branch_left(P, -1j * tv)) - tau_vertical(P, tv))) < 1e-12
    th = np.linspace(math.pi / 2 + 0.01, math.pi - P.rho - 0.01, 20)
    assert np.max(np.abs(np.abs(w_branch_left(P, np.exp(1j * th))) - ring_modulus(P, th))) < 1e-12


def test_branch_points_have_unit_w_squared_factor():
    # w^2 has simple zeros at z = 0, infinity and simple poles at the two
    # slit-tip points e^{i rho}, -e^{-i rho}.
    assert abs(curve_rhs(P, 1e-12)) < 1e-10
    assert abs(curve_rhs(P, 1e12)) < 1e-10
    tip = -cmath.exp(-1j * P.rho)
    assert abs(curve_rhs(P, tip * (1.0 + 1e-10))) > 1e8


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_symmetry_preserves_curve(name):
    z = _left_points(5, n=32)
    w = w_on_sheet(P, "upper_left", z)
    act = SYMMETRIES[name]
    res = master_relation_residual(P, act.z_map(P, z), act.w_map(P, w))
    assert np.max(np.abs(res)) < 1e-10


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_symmetry_is_involution(name):
    # each half-turn squares to the identity on (z, w)
    z = _left_points(7, n=16)
    w = w_on_sheet(P, "upper_left", z)
    act = SYMMETRIES[name]
    z3 = act.z_map(P, act.z_map(P, z))
    w3 = act.w_map(P, act.w_map(P, w))
    assert np.max(np.abs(z3 - z)) < 1e-10
    assert np.max(np.abs(w3 - w)) < 1e-10


# ---------------------------------------------------------------------------
# chart geometry
# ---------------------------------------------------------------------------


def _K(m):
    """Complete elliptic integral of the first kind, pi / (2 AGM(1, sqrt(1 - m)))
    (DLMF 19.8.5); ten AGM steps, which converge quadratically."""
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(10):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _closed_height(rho):
    return math.sqrt(2.0 * math.cos(rho)) * _K((1.0 - math.sin(rho)) / 2.0)


def test_chart_dimensions_frozen():
    chart = build_chart(P)
    assert chart.width == pytest.approx(WIDTH_AT_05, rel=1e-11)


def test_square_torus_at_zero():
    # rho = 0 sits outside the physical branch but the chart is still defined
    chart = build_chart(SurfaceParams(0.0, 0.5, diagnostic=True))
    assert chart.width == pytest.approx(WIDTH_AT_0, rel=1e-11)


def test_chart_dimensions_at_solution(chart):
    assert chart.width == pytest.approx(WIDTH_AT_RHO0, rel=1e-10)


def _gl64_edge(rho, s_end):
    """Chart length of the bottom edge from s = 0 to each ``s_end`` (t = s^2):
    32 panels of 64-point Gauss-Legendre on the speed in s, whose
    1 - 2 sin(rho) s^2 + s^4 is formed as (1 - s^2)^2 + 2 s^2 (1 - sin rho)
    with 1 - sin rho = cos^2 rho / (1 + sin rho), free of cancellation."""
    x, w = np.polynomial.legendre.leggauss(64)
    h = np.asarray(s_end, dtype=float)[..., None, None] / 32
    s = h * (np.arange(32)[:, None] + 0.5 * (x + 1.0))
    gap = math.cos(rho) ** 2 / (1.0 + math.sin(rho))
    speed = math.sqrt(2.0 * math.cos(rho)) / np.sqrt((1.0 - s * s) ** 2 + 2.0 * s * s * gap)
    return np.sum(0.5 * h[..., 0] * (speed @ w), axis=-1)


def _gl64_xi(rho, t):
    """xi(t) by quadrature; past t = 1 through s -> 1/s, which maps the
    speed onto itself, so xi(t) = 2 xi(1) - xi(1/t)."""
    xi = _gl64_edge(rho, np.sqrt(np.minimum(t, 1.0 / t)))
    return np.where(t <= 1.0, xi, 2.0 * _gl64_edge(rho, 1.0) - xi)


def test_chart_edge_matches_a_gauss_legendre_oracle(params):
    t = np.append(np.geomspace(1e-6, 1e6, 121), 1.0)
    for rho in (0.0, 0.5, params.rho, 1.2, 1.55):
        chart = build_chart(SurfaceParams(rho, 0.5, diagnostic=True))
        assert np.max(np.abs(chart.xi_of_t(t) - _gl64_xi(rho, t))) < 2e-15, rho
        assert abs(chart.width - 2.0 * _gl64_edge(rho, 1.0)) < 2e-15, rho


def test_agm_stops_within_ten_steps():
    # a stop rule of c_n <= 1e-17 a_n never stops at rho = 0 (m = 1/2),
    # where c_n stays at the rounding level of a_n
    grid = np.linspace(-math.pi / 2, math.pi / 2, 20003)[1:-1]
    assert 0.0 in grid
    for rho in grid:
        a, c = _agm(float(rho))
        assert len(a) == len(c) <= 11, rho


def test_chart_edge_matches_mpmath_up_to_the_branch_limit():
    # m = (1 + sin rho)/2 -> 1 as rho -> pi/2, so the chart must not form
    # 1 - m or 1 - sin rho by subtraction: that costs 2.7e-10 of the width
    # at rho = 1.5707 and 7e-15 of xi at rho = 1.5
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    t = np.append(np.geomspace(1e-6, 1e6, 25), 1.0)
    for rho in (0.5, 1.2, 1.4, 1.5, 1.55, 1.5707):
        chart = build_chart(SurfaceParams(rho, 0.5, diagnostic=True))
        m = (1 + mp.sin(rho)) / 2
        k0 = mp.sqrt(2 * mp.cos(rho))
        width = k0 * mp.ellipk(m)
        assert abs(chart.width - width) < 5e-16 * width, rho
        for ti, xi in zip(t, chart.xi_of_t(t)):
            low = mp.mpf(ti) if ti <= 1.0 else 1 / mp.mpf(ti)
            ref = k0 / 2 * mp.ellipf(2 * mp.atan(mp.sqrt(low)), m)
            ref = ref if ti <= 1.0 else width - ref
            assert abs(xi - ref) < 1e-15 * ref, (rho, ti)


def test_frozen_heights_match_the_closed_form(params):
    # the height of the chart is twice the chart length of a vertical edge;
    # at rho = 0 the torus is square.  HEIGHT_AT_RHO0 has 14 digits.
    assert math.isclose(HEIGHT_AT_05, _closed_height(0.5), rel_tol=1e-14)
    assert math.isclose(HEIGHT_AT_RHO0, _closed_height(params.rho), rel_tol=5e-14)
    assert math.isclose(WIDTH_AT_0, _closed_height(0.0), rel_tol=1e-14)


def test_chart_edge_tables_roundtrip(params):
    # as t -> 0 or oo the chart gap to 0 or width loses digits, most at
    # rho = 1.55 (about 1e-12)
    t = np.geomspace(1e-6, 1e6, 241)
    for rho in (0.0, 0.5, params.rho, 1.2, 1.55):
        chart = build_chart(SurfaceParams(rho, 0.5, diagnostic=True))
        assert np.max(np.abs(chart.t_of_xi(chart.xi_of_t(t)) / t - 1.0)) < 2e-12, rho


def test_chart_edge_symmetry(chart):
    # z = i t and z = i / t sit mirror-symmetric about the edge midpoint
    for t in (0.3, 0.7):
        assert chart.xi_of_t(t) + chart.xi_of_t(1.0 / t) == pytest.approx(
            chart.width, rel=1e-11
        )


def test_marked_points_on_curve(params):
    for name, sheet, z, w, region in marked_points(params):
        assert abs(master_relation_residual(params, z, w)) < 1e-10, name
        if region is not None:
            assert abs(w_on_sheet(params, sheet, z, region) - w) < 1e-10, name


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=2.5),
    st.floats(min_value=math.pi / 2 + 0.1, max_value=3 * math.pi / 2 - 0.1),
)
def test_master_relation_property(m, th):
    z = m * cmath.exp(1j * th)
    w = w_on_sheet(P, "upper_left", z)
    assert abs(master_relation_residual(P, z, w)) < 1e-11
