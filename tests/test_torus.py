"""The spectral curve (rhombic torus): sheeted square root, symmetries,
chart geometry, and marked points."""

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
    apply_symmetry,
    build_chart,
    curve_rhs,
    du_dz,
    lift_angle_left,
    master_relation_residual,
    mobius_flip_z,
    ring_modulus,
    slit_modulus,
    slit_tip_angle,
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

P = SurfaceParams.create(0.5, 0.61)


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
        lift_angle_left(np.array([0.3 + 0.1j]))


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
    assert slit_tip_angle(P) == pytest.approx(math.pi - P.rho, rel=1e-15)


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_symmetry_preserves_curve(name):
    z = _left_points(5, n=32)
    w = w_on_sheet(P, "upper_left", z)
    z2, w2 = apply_symmetry(P, name, z, w)
    res = master_relation_residual(P, z2, w2)
    assert np.max(np.abs(res)) < 1e-10


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_symmetry_is_involution(name):
    # every named action squares to the identity on (z, w); for the
    # half-lattice translation the square is a full lattice vector
    z = _left_points(7, n=16)
    w = w_on_sheet(P, "upper_left", z)
    z2, w2 = apply_symmetry(P, name, z, w)
    z3, w3 = apply_symmetry(P, name, z2, w2)
    assert np.max(np.abs(z3 - z)) < 1e-10
    assert np.max(np.abs(w3 - w)) < 1e-10


def test_mobius_flip_is_involution_pointwise():
    z = _left_points(13, n=16)
    assert np.max(np.abs(mobius_flip_z(P, mobius_flip_z(P, z)) - z)) < 1e-11


def test_du_dz_value():
    z = 0.4 + 0.9j
    w = 1.1 - 0.2j
    assert du_dz(z, w) == pytest.approx(w / (2 * z), rel=1e-15)


# ---------------------------------------------------------------------------
# chart geometry
# ---------------------------------------------------------------------------


def test_chart_dimensions_frozen():
    chart = build_chart(P)
    assert chart.width == pytest.approx(WIDTH_AT_05, rel=1e-11)
    assert chart.height == pytest.approx(HEIGHT_AT_05, rel=1e-11)


def test_square_torus_at_zero():
    # rho = 0 sits outside the physical branch but the chart is still defined
    chart = build_chart(SurfaceParams.diagnostic_branch(0.0, 0.5))
    assert chart.width == pytest.approx(WIDTH_AT_0, rel=1e-11)
    assert chart.height == pytest.approx(WIDTH_AT_0, rel=1e-11)


def test_chart_dimensions_at_solution(chart):
    assert chart.width == pytest.approx(WIDTH_AT_RHO0, rel=1e-10)
    assert chart.height == pytest.approx(HEIGHT_AT_RHO0, rel=1e-10)


def test_chart_edge_tables_roundtrip(chart):
    t = np.linspace(0.05, 0.95, 17)
    xi = chart.xi_of_t(t)
    assert np.max(np.abs(chart.t_of_xi(xi) - t)) < 1e-10
    eta = chart.eta_of_tv(t)
    assert np.max(np.abs(chart.tv_of_eta(eta) - t)) < 1e-10


def test_chart_edge_symmetry(chart):
    # z = i t and z = i / t sit mirror-symmetric about the edge midpoint
    for t in (0.3, 0.7):
        assert chart.xi_of_t(t) + chart.xi_of_t(1.0 / t) == pytest.approx(
            chart.width, rel=1e-11
        )
    # the vertical edge table folds t > 1 back to 1/t
    assert chart.eta_of_tv(2.0) == pytest.approx(chart.eta_of_tv(0.5), rel=1e-13)


def test_chart_reduce(chart):
    W, H = chart.width, chart.height
    xi, eta = chart.reduce(0.3 * W + 2 * W, 0.1 * H + 2 * H)
    assert xi == pytest.approx(0.3 * W, abs=1e-12)
    assert eta == pytest.approx(0.1 * H, abs=1e-12)


def test_marked_points_on_curve(chart):
    p = chart.params
    for q in chart.marked_points():
        if q.z is None or q.w is None:
            continue
        if abs(q.z) > 1e-9:
            res = master_relation_residual(p, q.z, q.w)
            assert abs(res) < 1e-10, q.name
        if q.region in ("inner", "outer") and abs(q.z) > 1e-9:
            w_direct = w_on_sheet(p, q.sheet, q.z, q.region)
            assert abs(w_direct - q.w) < 1e-10, q.name


def test_marked_point_chart_positions(chart):
    mp = {q.name: q for q in chart.marked_points()}
    W, H = chart.width, chart.height
    assert mp["node_zero"].chart == (0.0, 0.0)
    assert mp["w_pole_left"].chart == (-W / 2, H / 2)
    xi_end = mp["end_right"].chart[0]
    xi_vert = mp["vertical_normal_right"].chart[0]
    assert 0 < xi_vert < W / 2 < xi_end < W
    # ends and vertical-normal points sit mirror-symmetric about W/2
    assert xi_end + xi_vert == pytest.approx(W, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=2.5),
    st.floats(min_value=math.pi / 2 + 0.1, max_value=3 * math.pi / 2 - 0.1),
)
def test_master_relation_property(m, th):
    z = m * cmath.exp(1j * th)
    w = w_on_sheet(P, "upper_left", z)
    assert abs(master_relation_residual(P, z, w)) < 1e-11
