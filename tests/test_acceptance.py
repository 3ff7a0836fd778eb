"""Acceptance suite: the eleven top-level claims the artifact must satisfy,
each one test, at the stated tolerances.  Run with ``pytest -v`` for one
pass/fail line per criterion."""

import math
import time

import numpy as np
import pytest

import g1helicoid.weierstrass as W
from g1helicoid.mesh import (
    assemble_fundamental_domain,
    export_obj,
    export_ply,
    import_obj,
    import_ply,
    mesh_patch_D,
    stack_periods,
)
from g1helicoid.params import SurfaceParams, lambda_from_Lambda
from g1helicoid.period_solver import (
    F_integral,
    G_integral,
    G_integrand_samples,
    Lambda_upper_bound,
    solve_period_problem,
)
from g1helicoid.quadrature import integrate
from g1helicoid.verify import (
    check_c_convex,
    check_graph_disjointness,
    check_limit_constants,
    check_slab_and_boundary,
    check_x3_monotone_on_C,
)

from conftest import Lambda_window_certificate, quadrature_policy


def test_criterion_01_solver_success():
    """solve: rho0 in (0, pi/2), lambda0 in (0,1), residuals < 1e-9, < 30 s."""
    t0 = time.perf_counter()
    sol = solve_period_problem()
    elapsed = time.perf_counter() - t0
    assert 0.0 < sol.params.rho < math.pi / 2
    assert 0.0 < sol.params.lam < 1.0
    assert abs(sol.residual_F) < 1e-9
    assert abs(sol.residual_G) < 1e-9
    assert elapsed < 30.0


@pytest.mark.parametrize("rho", [0.2, 0.7, 1.2])
def test_criterion_02_bracket_signs(rho):
    """F > 0 at Lambda = 2+1e-6, F < 0 at 2/sin(rho)-1e-6, strictly decreasing."""
    lo = 2.0 + 1e-6
    hi = 2.0 / math.sin(rho) - 1e-6
    assert F_integral(rho, lo).value > 0.0
    assert F_integral(rho, hi).value < 0.0
    vals = [F_integral(rho, L).value for L in np.linspace(lo, hi, 10)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_criterion_03_inner_solve_bounds_certificate():
    """Lambda(rho) bounds on a 64-point grid, sharp near-top bound, F(rho,8)<0."""
    rep = Lambda_window_certificate()  # default 64-point grid
    assert len(rep.rows) == 64
    assert rep.all_bounds_hold
    for row in rep.rows:
        assert 2.0 < row["Lambda"] < row["upper"]
        assert row["F_at_8"] < 0.0
    sharp = Lambda_window_certificate(rho_grid=[1.45, 1.5, 1.55])
    for row in sharp.rows:
        bound = 2.0 + (1.0 - math.sin(row["rho"]))
        assert row["Lambda"] < bound
        assert row["near_top_bound"] is not None
        assert row["near_top_bound"]["holds"]


def test_criterion_04_limit_constants_to_4dp():
    """The two closed-form bound constants reproduce to 4 decimal places."""
    res = check_limit_constants()
    assert res.passed
    details = dict(res.details)
    assert details["c1_rounded_4dp"] == -1.2067
    assert details["c2_rounded_4dp"] == 1.1547
    # and the quadrature pipeline agrees with the closed forms
    assert details["comparison_integral_residual"] < 1e-10
    assert details["limit_integral_residual"] < 1e-10


def test_criterion_05_out_of_branch_impossibility():
    """rho <= 0: single-signed vertical-period integrand; lambda > 1: the
    height rate along the slit reverses to strictly positive."""
    for rho in (-0.5, -0.1, 0.0):
        for Lam in (2.2, 3.0, 6.0):
            vals = G_integrand_samples(rho, Lam, n=200)
            assert vals.shape == (200,)
            assert np.all(vals > 0.0) or np.all(vals < 0.0)
    diag = SurfaceParams(0.71, 1.5, diagnostic=True)
    phis = np.linspace(-math.pi / 2, diag.rho, 202)[1:-1]
    assert np.all(W.dh_rate_on_slit_inner(diag, phis) > 0.0)


def test_criterion_06_period_closure(params):
    """Closed B-cycle, alpha-period (0,0,T), and the -T/2 descent anchor."""
    T = params.T
    gap = W.vertical_period_gap(params)
    assert np.max(np.abs(gap)) < 1e-6 * T
    alpha = W.alpha_cycle(params, n=1024)
    assert abs(alpha[0]) < 1e-6 * T
    assert abs(alpha[1]) < 1e-6 * T
    assert abs(abs(alpha[2]) - T) < 1e-6 * T
    dax = W.descent_axis(params)
    assert abs(dax[2] + T / 2) < 1e-6 * (T / 2)


@pytest.mark.parametrize(
    "rho,Lam", [(0.5, 3.0), (0.3, 2.6), (0.9, 2.2), (1.1, 2.05), (0.7, 4.0)]
)
def test_criterion_07_direct_vs_reduced(rho, Lam):
    """Path-integral period residuals match the reduced integrals in sign and
    through the lam*sqrt(cos rho) conversion factors to 1e-5 relative."""
    lam = lambda_from_Lambda(Lam)
    pp = SurfaceParams(rho, lam)
    Fv = F_integral(rho, Lam).value
    Gv = G_integral(rho, Lam).value
    rI = W.period_residual_I(pp)
    rII = W.period_residual_II(pp)
    assert math.copysign(1.0, rI) == math.copysign(1.0, Fv)
    assert math.copysign(1.0, rII) == math.copysign(1.0, Gv)
    kI = lam * math.sqrt(math.cos(rho)) / 2.0
    kII = lam * math.sqrt(math.cos(rho))
    assert abs(rI / (kI * Fv) - 1.0) < 1e-5
    assert abs(rII / (kII * Gv) - 1.0) < 1e-5


def test_criterion_08_symmetry_pullbacks(params):
    """All three coordinate pullback identities at 100 interior samples."""
    rng = np.random.default_rng(12345)
    n = 100
    m = np.concatenate(
        [
            rng.uniform(0.08, 0.92, n // 2),
            rng.uniform(1.08, 1.0 / params.lam - 0.08, n - n // 2),
        ]
    )
    th = rng.uniform(math.pi / 2 + 0.08, 3 * math.pi / 2 - 0.08, n)
    scale = params.T
    worst = 0.0
    for mm, tt in zip(m, th):
        z = mm * np.exp(1j * tt)
        X = W.x_point(params, "upper_left", z)
        Xa = W.x_point(params, "lower_left", -np.conj(z))
        Xb = W.x_point(params, "upper_right", -np.conj(z))
        Xc = W.x_point(params, "lower_right", z)
        worst = max(
            worst,
            np.max(np.abs(Xa - X * [-1.0, 1.0, -1.0])),
            np.max(np.abs(Xb - X * [-1.0, -1.0, 1.0])),
            np.max(np.abs(Xc - X * [1.0, -1.0, -1.0])),
        )
    assert worst < 1e-8 * scale


def test_criterion_09_embeddedness_spot_checks(params, patch):
    """Strict height monotonicity on C, convex lens c, strict graph order
    F_hat > F off c on a 10^4-point grid, and the boundary descriptions."""
    mono = check_x3_monotone_on_C(params)
    assert mono.passed
    convex = check_c_convex(params)
    assert convex.passed
    assert math.pi < convex.value < 2.0 * math.pi
    graph = check_graph_disjointness(params, patch, grid=100)
    assert graph.passed
    details = dict(graph.details)
    assert details["n_grid"] == 100 * 100
    covered = details["n_checked"] + details["n_inside_c"] + details["n_near_c"]
    assert covered == details["n_grid"]
    assert details["n_lookup_misses"] == 0
    boundary = check_slab_and_boundary(params)
    assert boundary.passed
    assert boundary.tolerance == pytest.approx(1e-8 * params.T)


def test_criterion_10_mesh_integrity(params, tmp_path):
    """Seam welds under 1e-7*T, slab confinement, exact round-trips, and the
    3-copy stack welding under the (0,0,T) translation."""
    T = params.T
    patch = mesh_patch_D(params, resolution=24, cutoff=1e-2)
    # welds raise if any seam gap exceeds the tolerance
    domain = assemble_fundamental_domain(patch)
    assert domain.metadata["weld_tol"] == 1e-7 * T
    stack = stack_periods(domain, 3)
    assert len(stack.vertices) < 3 * len(domain.vertices)
    # slab confinement: every vertex is a surface sample, hard against the
    # wall to rounding
    x3 = patch.vertices[:, 2]
    a = patch.metadata["a"]
    assert x3.min() > -T / 2 - 1e-9 * T
    assert x3.max() < a + 1e-9 * T
    # round-trips
    obj_path = str(tmp_path / "d.obj")
    export_obj(domain, obj_path)
    back = import_obj(obj_path)
    assert np.array_equal(back.faces, domain.faces)
    # OBJ text stores 9 significant digits; scale by the largest coordinate
    scale = np.abs(domain.vertices).max()
    assert np.max(np.abs(back.vertices - domain.vertices)) < 1e-8 * scale
    ply_path = str(tmp_path / "d.ply")
    export_ply(domain, ply_path)
    back = import_ply(ply_path)
    assert np.array_equal(back.vertices, domain.vertices)
    assert np.array_equal(back.faces, domain.faces)


def test_criterion_11_quadrature_engine():
    """Engine oracles: the inverse-sqrt integral and a Beta-function value,
    at tolerances 1e-10 relative and 1e-12 absolute."""
    with quadrature_policy(rel_tol=1e-10, abs_tol=1e-12):
        res = integrate(lambda p, da, db: 1.0 / np.sqrt(da), 0.0, 1.0)
        assert abs(res.value - 2.0) < 1e-12
        # B(1/2, 1/2) = pi, singular at both ends
        res = integrate(lambda p, da, db: 1.0 / np.sqrt(da * db), 0.0, 1.0)
        assert abs(res.value - math.pi) < 1e-10 * math.pi
