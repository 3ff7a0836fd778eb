"""The three coordinate differentials: algebraic identities, closed-form
boundary values, distinguished cycles, and the position map."""

import math

import numpy as np
import pytest

import g1helicoid.mesh as mesh
import g1helicoid.weierstrass as W
from g1helicoid.params import SurfaceParams, lambda_from_Lambda
from g1helicoid.period_solver import F_integral, G_integral
from g1helicoid.torus import SHEETS, w_on_sheet

from conftest import quadrature_policy

# Frozen reference values.
A0 = 0.4348562680146608        # height of the upper slit-curve endpoint
X1_TIP = -0.5536234052449172   # first coordinate of the slit-curve tip

P = SurfaceParams(0.5, 0.61)


def seg_edge_up(sheet, t0, t1):
    """Bottom-edge leg z = i t, t linear from t0 to t1 (no singular endpoint)."""
    return W.Segment(
        sheet, "auto",
        lambda s: 1j * (t0 + (t1 - t0) * s),
        lambda s: 1j * (t1 - t0) * np.ones_like(s),
        f"edge_up[{t0:g}->{t1:g}]@{sheet}",
    )


def seg_edge_up_from_infinity(sheet, m):
    """Bottom-edge leg z = i t from the node z=oo in to t = m (t = m / s^2)."""
    return W.Segment(
        sheet, "outer",
        lambda s: 1j * m / (s * s),
        lambda s: -2j * m / (s * s * s),
        f"edge_up[inf->{m:g}]@{sheet}",
    )


def _left_points(seed, n=100):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 2.5, n)
    th = rng.uniform(math.pi / 2 + 0.05, 3 * math.pi / 2 - 0.05, n)
    return m * np.exp(1j * th)


# ---------------------------------------------------------------------------
# pointwise identities
# ---------------------------------------------------------------------------


def test_conformality_all_sheets():
    z_left = _left_points(1)
    for sheet in SHEETS:
        z = z_left if sheet in ("upper_left", "lower_right") else -np.conj(z_left)
        f = W.phi_dz(P, sheet, z)
        res = W.conformality_residual(P, sheet, z)
        scale = 1.0 + np.abs(f).max(axis=-1) ** 2
        assert np.max(np.abs(res) / scale) < 1e-12


def test_gauss_map_factorization():
    # phi1 = (1/g - g) phi3 / 2 and phi2 = i (1/g + g) phi3 / 2
    z_left = _left_points(2)
    for sheet in SHEETS:
        z = z_left if sheet in ("upper_left", "lower_right") else -np.conj(z_left)
        f = W.phi_dz(P, sheet, z)
        g = W.gauss_map(P, sheet, z)
        f3 = f[..., 2]
        id1 = np.abs(f[..., 0] - 0.5 * (1.0 / g - g) * f3) / (1.0 + np.abs(f[..., 0]))
        id2 = np.abs(f[..., 1] - 0.5j * (1.0 / g + g) * f3) / (1.0 + np.abs(f[..., 1]))
        assert np.max(id1) < 1e-12
        assert np.max(id2) < 1e-12


def test_gauss_map_vertical_points():
    # the normal is vertical at z = i lam and at the ends z = i/lam
    for sheet, z, region, expect_zero in [
        ("upper_left", 1j * P.lam, "inner", True),
        ("upper_left", 1j / P.lam, "outer", True),
        ("upper_right", 1j * P.lam, "inner", False),
        ("upper_right", 1j / P.lam, "outer", False),
    ]:
        g = W.gauss_map(P, sheet, z * (1 + 1e-8), region)
        if expect_zero:
            assert abs(g) < 1e-3, (sheet, z)
        else:
            assert abs(g) > 1e3, (sheet, z)


def test_gauss_map_formula_moebius():
    w = np.array([0.3 + 0.1j, -1.2j, 2.0])
    a = 0.7 * np.exp(0.25j * math.pi)
    g = W.gauss_map_formula(w, 0.7)
    assert np.max(np.abs(g - (w - a) / (w + a))) < 1e-15


def test_edge_rates_signs():
    t = np.linspace(0.05, 3.0, 50)
    assert np.all(W.x2_rate_edge(P, t) < 0.0)
    tv = np.linspace(0.05, 0.95, 30)
    assert np.all(W.x3_rate_vertical(P, tv) > 0.0)


def test_slit_rate_sign_and_closed_form():
    phis = np.linspace(-math.pi / 2, P.rho, 202)[1:-1]
    rate = W.dh_rate_on_slit_inner(P, phis)
    assert np.all(rate < 0.0)
    c = np.sqrt(np.cos(P.rho) / (np.sin(P.rho) - np.sin(phis)))
    cf = -(c / 2) * (1 - P.lam**2) * np.cos(phis) / (P.Lambda - 2 * np.sin(phis))
    assert np.max(np.abs(rate - cf)) < 1e-12


def test_slit_rate_flips_on_diagnostic_branch():
    d = SurfaceParams(0.5, 1.5, diagnostic=True)
    phis = np.linspace(-math.pi / 2, d.rho, 202)[1:-1]
    assert np.all(W.dh_rate_on_slit_inner(d, phis) > 0.0)


# ---------------------------------------------------------------------------
# closed-form boundary anchors
# ---------------------------------------------------------------------------


def test_axis_rise_frozen(params):
    assert W.axis_rise(params) == pytest.approx(A0, abs=1e-12)


def test_height_split_identity(params):
    # inner edge height + outer tail = half the vertical period
    half = W.x3_E(params, 1.0) + W.x3_E_tail(params, 1.0)
    assert half == pytest.approx(params.T / 2, rel=1e-12)


def test_Ehat_anchor(params):
    assert W.x3_Ehat(params, 1.0) == pytest.approx(-W.axis_rise(params), abs=1e-12)


def test_x3_E_monotone(params):
    # the rate blows up like 1/sqrt(t) at the node, so x3_E(m) ~ sqrt(m) -> 0
    assert W.x3_E(params, 1e-6) < 2e-3
    assert W.x3_E(params, 1e-8) < 0.2 * W.x3_E(params, 1e-6)
    vals = np.array([W.x3_E(params, mm) for mm in np.linspace(0.01, 1.0, 50)])
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("m", [0.35, 0.9, 1.3])
def test_x2_H1_matches_path_integral(params, m):
    seg = W.seg_edge_up_from_zero("upper_left", m)
    val = W.integrate_path(params, [seg])
    assert abs(val[0].real) < 1e-12  # x1 does not move along the edge
    assert abs(val[2].real) < 1e-12  # neither does x3
    assert -val[1].real == pytest.approx(W.x2_H1(params, m), abs=1e-11)


@pytest.mark.parametrize("m", [2.5, 5.0])
def test_x2_H2_matches_path_integral(params, m):
    seg = seg_edge_up_from_infinity("upper_left", m)
    val = W.integrate_path(params, [seg])
    assert val[1].real == pytest.approx(W.x2_H2(params, m), abs=1e-11)


def test_H_rays_monotone(params):
    m1 = np.linspace(0.05, 1.0 / params.lam - 0.05, 30)
    v1 = np.array([W.x2_H1(params, mm) for mm in m1])
    assert np.all(v1 > 0.0)  # unsigned progress out the negative x2-axis
    assert np.all(np.diff(v1) > 0.0)
    m2 = np.geomspace(1.0 / params.lam + 0.05, 50.0, 30)
    v2 = np.array([W.x2_H2(params, mm) for mm in m2])
    assert np.all(np.diff(v2) < 0.0)  # decays back toward the axis
    assert np.all(v2 > 0.0)


# ---------------------------------------------------------------------------
# distinguished cycles and period residuals
# ---------------------------------------------------------------------------


def test_alpha_cycle_is_vertical_period(params):
    alpha = W.alpha_cycle(params, n=512)
    T = params.T
    assert abs(alpha[0]) < 1e-6 * T
    assert abs(alpha[1]) < 1e-6 * T
    assert alpha[2] == pytest.approx(T, rel=1e-6)


def test_descent_axis(params):
    dax = W.descent_axis(params)
    assert abs(dax[0]) < 1e-9
    assert abs(dax[1]) < 1e-9
    assert dax[2] == pytest.approx(-params.T / 2, rel=1e-9)


def test_vertical_period_gap_closes_at_solution(params):
    gap = W.vertical_period_gap(params)
    assert np.max(np.abs(gap)) < 1e-6 * params.T


def test_vertical_period_gap_open_off_solution():
    gap = W.vertical_period_gap(P)  # generic (rho, lam), not the solution
    assert np.max(np.abs(gap)) > 1e-3 * P.T


@pytest.mark.parametrize(
    "rho,Lam",
    [(0.5, 3.0), (0.3, 2.6), (0.9, 2.2), (1.1, 2.05), (0.7, 4.0)],
)
def test_period_residual_ratios(rho, Lam):
    lam = lambda_from_Lambda(Lam)
    pp = SurfaceParams(rho, lam)
    Fv = F_integral(rho, Lam).value
    Gv = G_integral(rho, Lam).value
    kI = lam * math.sqrt(math.cos(rho)) / 2.0
    kII = lam * math.sqrt(math.cos(rho))
    assert W.period_residual_I(pp) == pytest.approx(kI * Fv, rel=1e-5)
    assert W.period_residual_II(pp) == pytest.approx(kII * Gv, rel=1e-5)


# ---------------------------------------------------------------------------
# the position map
# ---------------------------------------------------------------------------


def test_pullback_symmetries(params):
    rng = np.random.default_rng(5)
    scale = params.T
    ms = np.concatenate(
        [rng.uniform(0.05, 0.9, 3), rng.uniform(1.1, 1.0 / params.lam - 0.1, 3)]
    )
    ths = rng.uniform(math.pi / 2 + 0.1, 3 * math.pi / 2 - 0.1, 3)
    for m in ms:
        for th in ths:
            z = m * np.exp(1j * th)
            X = W.x_point(params, "upper_left", z)
            Xa = W.x_point(params, "lower_left", -np.conj(z))
            Xb = W.x_point(params, "upper_right", -np.conj(z))
            Xc = W.x_point(params, "lower_right", z)
            assert np.max(np.abs(Xa - X * [-1, 1, -1])) < 1e-8 * scale
            assert np.max(np.abs(Xb - X * [-1, -1, 1])) < 1e-8 * scale
            assert np.max(np.abs(Xc - X * [1, -1, -1])) < 1e-8 * scale


def test_route_independence(params):
    scale = params.T
    for m, th in [(0.3, 2.0), (0.7, 4.0)]:
        z = m * np.exp(1j * th)
        d = np.abs(
            W.x_point(params, "upper_left", z)
            - W.x_point(params, "upper_left", z, "vertical_inner")
        )
        assert np.max(d) < 1e-8 * scale
    z = 1.4 * np.exp(1j * 2.2)
    d = np.abs(
        W.x_point(params, "upper_left", z)
        - W.x_point(params, "upper_left", z, "vertical_outer")
    )
    assert np.max(d) < 1e-8 * scale


def test_tip_position(params):
    # the ring route against the route up the right vertical edge and along
    # the inner slit bank (homotopic paths)
    tip_r = W.tip_position(params)
    tip_s = W.axis_rise(params) * np.array([0.0, 0.0, 1.0]) + W.integrate_path(
        params, [W.seg_slit_bank(params, "inner")], 1e-12, 1e-15
    ).real
    assert np.max(np.abs(tip_r - tip_s)) < 1e-9
    assert abs(tip_r[1]) < 1e-9
    assert abs(tip_r[2]) < 1e-9
    assert tip_r[0] == pytest.approx(X1_TIP, abs=1e-10)


def test_positions_along_edge(params):
    # walking the bottom edge reproduces the closed form at every break
    s = np.linspace(0.0, 1.0, 9)
    seg = seg_edge_up("upper_left", 0.2, 0.9)
    pos = W.positions_along(params, seg, s, np.zeros(3))
    t = 0.2 + 0.7 * s
    progress = np.array([W.x2_H1(params, tt) for tt in t])
    expect = -(progress - progress[0])  # the edge walks out the negative x2-axis
    assert np.max(np.abs(pos[:, 1] - expect)) < 1e-10
    assert np.max(np.abs(pos[:, [0, 2]])) < 1e-11


def _positions_by_one_k15_panel(params, seg, s_breaks, x0):
    """Positions from one fixed 15-point Kronrod panel per piece, with no
    error test."""
    a, b = s_breaks[:-1], s_breaks[1:]
    half = 0.5 * (b - a)
    s = (0.5 * (a + b))[:, None] + half[:, None] * W._K15_X[None, :]
    s = s.ravel()
    f = W.phi_dz(params, seg.sheet, seg.z_of(s), seg.region) * seg.dz_ds(s)[..., None]
    pieces = half[:, None] * np.einsum("k,nkc->nc", W._K15_W, f.reshape(len(a), 15, 3))
    out = np.empty((len(pieces) + 1, 3))
    out[0] = x0
    out[1:] = out[0] + np.cumsum(pieces.real, axis=0)
    return out


@pytest.mark.parametrize("m", [500, 360, 200, 150])
@pytest.mark.parametrize("bank", ["inner", "outer"])
def test_positions_along_the_slit_banks_accept_every_piece_unsplit(params, bank, m):
    # the sample counts of the verify checks: every piece, the one that ends
    # at the tip included, passes its first error test, so the adaptive
    # positions are the one-panel K15 positions bit for bit
    seg = W.seg_slit_bank(params, bank)
    s = np.linspace(0.0, 1.0, m + 1)
    x0 = np.array([0.0, 0.0, W.axis_rise(params) * (1.0 if bank == "inner" else -1.0)])
    pos = W.positions_along(params, seg, s, x0)
    assert pos.tobytes() == _positions_by_one_k15_panel(params, seg, s, x0).tobytes()


def test_rule_tables_integrate_the_monomials_they_claim():
    # the float tables themselves, against 40-digit moments: K15 is exact to
    # degree 22 and G7, on the odd K15 nodes, to degree 13; each misses the
    # next even degree by far more than rounding
    mpmath = pytest.importorskip("mpmath")
    rules = [(W._K15_X, W._K15_W, 22, 1e-9), (W._K15_X[1::2], W._G7_W, 12, 1e-5)]
    with mpmath.workdps(40):
        for x, w, exact_to, miss in rules:
            x, w = [mpmath.mpf(float(v)) for v in x], [mpmath.mpf(float(v)) for v in w]

            def error(d):
                return abs(mpmath.fsum(wk * xk**d for xk, wk in zip(x, w)) - mpmath.mpf(2) / (d + 1))

            for d in range(0, exact_to + 1, 2):
                assert error(d) < 1e-15, d
            assert error(exact_to + 2) > miss
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(W._K15_X[1::2] - nodes)) <= 2.3e-16
    assert np.max(np.abs(W._G7_W - weights)) <= 2.3e-16


def test_gl_estimates_give_the_complex_einsum_bits(params, monkeypatch):
    # the real K15 and G7 weights on a float view of the values, on every wave
    # of the res-48 patch (each level's first among them), against the complex
    # einsum
    real_estimates = W._k15_estimates
    waves = []

    def checked(half, f):
        n = len(half)
        per_piece = f.reshape(n, 15, 3)
        k15 = half[:, None] * np.einsum("k,nkc->nc", W._K15_W, per_piece)
        g7 = half[:, None] * np.einsum("k,nkc->nc", W._G7_W, per_piece[:, 1::2])
        got = real_estimates(half, f)
        assert got[0].tobytes() == k15.tobytes()
        assert got[1].tobytes() == np.max(np.abs(k15 - g7), axis=1).tobytes()
        waves.append(n)
        return got

    monkeypatch.setattr(W, "_k15_estimates", checked)
    mesh.mesh_patch_D(params, resolution=48, cutoff=1e-2)
    inner, outer = mesh._level_values(params, 48, 1e-2, 10.0 / params.lam)
    assert len(waves) > len(inner) + len(outer)


def _poisoned(seg, nodes):
    """``seg`` with a NaN dz/ds at each s in ``nodes``."""
    def dz_ds(s):
        return np.where(np.isin(s, nodes), np.nan, seg.dz_ds(s))

    return W.Segment(seg.sheet, seg.region, seg.z_of, dz_ds, seg.label)


@pytest.mark.parametrize("kronrod_piece", [10, None])
def test_a_wave_raises_at_its_first_bad_node_in_node_order(params, kronrod_piece):
    # G7 nodes of pieces 12 and 17 and a Kronrod-only node of piece 10: the
    # wave meets piece 10's node first, since the nodes run piece by piece,
    # each piece's 15 ascending, with no G7 block of their own; without it,
    # the G7 node of piece 12
    seg = W.seg_arc("upper_left", 0.7, 1.5 * math.pi, 0.5 * math.pi)
    breaks = np.linspace(0.0, 1.0, 21)
    half, s = W._k15_nodes(breaks[:-1], breaks[1:])
    bad = [s[15 * 12 + 3], s[15 * 17 + 5]]
    if kronrod_piece is not None:
        bad.append(s[15 * kronrod_piece + 4])
    seg = _poisoned(seg, bad)
    with pytest.raises(W.IntegrationError) as exc:
        W.positions_along(params, seg, breaks, np.zeros(3))
    first = bad[-1] if kronrod_piece is not None else bad[0]
    assert str(exc.value) == f"non-finite integrand on {seg.label} at s={float(first)!r}"


def _outcome(call):
    """The bytes a position call returns, or the text of the IntegrationError it raises."""
    try:
        return call().tobytes()
    except W.IntegrationError as exc:
        return str(exc)


def _arc_outcomes(params, resolution, cutoff, rel_tol, abs_tol):
    """Each mesh level swept by arc_positions and by positions_along on its own seg_arc."""
    inner, outer = mesh._level_values(params, resolution, cutoff, 10.0 / params.lam)
    rays = mesh._ray_angles(params, resolution, cutoff)
    s_breaks = (1.5 * math.pi - rays[::-1]) / math.pi
    th0, th1 = 1.5 * math.pi, 0.5 * math.pi
    sweep = W.arc_positions(params, "upper_left", th0, th1, s_breaks, rel_tol, abs_tol)
    for t in np.concatenate([inner, outer]):
        x0 = np.array([0.0, 0.0, t])
        seg = W.seg_arc("upper_left", t, th0, th1)
        yield (
            _outcome(lambda: sweep(t, x0)),
            _outcome(lambda: W.positions_along(params, seg, s_breaks, x0, rel_tol, abs_tol)),
        )


@pytest.mark.parametrize("cutoff", [5e-2, 1e-3])
@pytest.mark.parametrize("resolution", [8, 48, 97])
def test_arc_positions_are_positions_along_on_every_mesh_level(params, resolution, cutoff):
    # the mesh's tolerances; the shared node table must change no bit
    for swept, alone in _arc_outcomes(params, resolution, cutoff, 1e-10, 1e-13 * params.T):
        assert swept == alone


def test_arc_positions_bisect_like_positions_along(params, monkeypatch):
    # a tolerance this tight sends pieces through the shared bisection loop
    waves = []
    real_wave = W._k15_wave
    monkeypatch.setattr(W, "_k15_wave", lambda *args: waves.append(1) or real_wave(*args))
    outcomes = list(_arc_outcomes(params, 8, 1e-2, 1e-14, 0.0))
    for swept, alone in outcomes:
        assert isinstance(swept, bytes) and swept == alone
    # positions_along starts each level with one wave of its own; more are bisections
    assert len(waves) > len(outcomes)


def test_integrate_path_additivity(params):
    whole = W.integrate_path(params, [seg_edge_up("upper_left", 0.2, 0.9)])
    parts = W.integrate_path(
        params,
        [
            seg_edge_up("upper_left", 0.2, 0.5),
            seg_edge_up("upper_left", 0.5, 0.9),
        ],
    )
    assert np.max(np.abs(whole - parts)) < 1e-12


def test_reversed_segment(params):
    fwd = W.integrate_path(params, [seg_edge_up("upper_left", 0.2, 0.9)])
    rev = W.integrate_path(
        params, [W.reversed_segment(seg_edge_up("upper_left", 0.2, 0.9))]
    )
    assert np.max(np.abs(fwd + rev)) < 1e-12


@pytest.mark.parametrize(
    "name,m_of_lam",
    [
        ("x2_H1", lambda lam: 0.999 / lam),
        ("x2_H2", lambda lam: 1.001 / lam),
        ("x3_E", lambda lam: 1e6),
        ("x3_E_tail", lambda lam: 1e-6),
    ],
)
def test_unconverged_anchor_raises(params, name, m_of_lam):
    m = m_of_lam(params.lam)
    with quadrature_policy(max_level=4), pytest.raises(W.IntegrationError) as exc:
        getattr(W, name)(params, m)
    msg = str(exc.value)
    assert msg.startswith(f"{name}(m={m!r}) at rho={params.rho!r}, lam={params.lam!r}")
    assert "did not converge" in msg and "at level 4" in msg
