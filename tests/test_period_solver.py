"""Period integrals and the nested two-parameter solve.

Reference values were frozen from a 50-digit computation made with an
independent integrator; a composite-Simpson oracle (after a square-root
substitution that removes the endpoint singularity) cross-checks the
production quadrature at generic points.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from g1helicoid import period_solver
from g1helicoid.params import lambda_from_Lambda
from g1helicoid.period_solver import (
    _brent,
    F_integral,
    G_integral,
    G_integrand_samples,
    Lambda_upper_bound,
    NoSignChangeError,
    PeriodSolverError,
    scan_H,
    solve_Lambda_of_rho,
    solve_period_problem,
)

from conftest import Lambda_window_certificate, quadrature_policy

# Frozen reference values (50-digit arithmetic, independent integrator).
F_05_30 = -0.5425754319840516
G_05_30 = 0.4193463545050792
F_02_NEAR2 = 2.5109360335057882  # F(0.2, 2 + 1e-6)
LAMBDA_OF_08 = 2.2238887720217576
RHO0 = 0.7105219800457504
LAMBDA0 = 0.5882995303657090
BIG_LAMBDA0 = 2.2881139078790866
SCAN_G_AT_15 = -3.8515672286288996  # G(1.5, Lambda(1.5))


# ---------------------------------------------------------------------------
# independent composite-Simpson oracle
# ---------------------------------------------------------------------------


def _simpson(h, n=4000):
    """Composite Simpson on [0, 1] for a smooth vectorized integrand."""
    u = np.linspace(0.0, 1.0, 2 * n + 1)
    y = h(u)
    return (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum()) / (6.0 * n)


def F_oracle(rho, Lam, n=4000):
    # p = rho + (pi/2 - rho) u^2 turns the 1/sqrt(sin p - sin rho) endpoint
    # singularity into a bounded analytic factor.
    delta = math.pi / 2 - rho

    def h(u):
        d = delta * u * u
        p = rho + d
        sing = 2.0 * np.cos(rho + 0.5 * d) * np.sin(0.5 * d)  # sin p - sin rho
        ratio = np.empty_like(u)
        nz = u > 0
        ratio[nz] = u[nz] / np.sqrt(sing[nz])
        ratio[~nz] = 1.0 / math.sqrt(delta * math.cos(rho))
        val = (2.0 - Lam * np.sin(p)) / (Lam - 2.0 * np.sin(p))
        return 2.0 * delta * val * ratio

    return _simpson(h, n)


def G_oracle(rho, Lam, n=4000):
    # p = rho - (rho + pi/2) u^2, same substitution from the singular end.
    delta = rho + math.pi / 2
    sr = math.sin(rho)

    def h(u):
        d = delta * u * u  # rho - p
        p = rho - d
        sing = 2.0 * np.cos(rho - 0.5 * d) * np.sin(0.5 * d)  # sin rho - sin p
        ratio = np.empty_like(u)
        nz = u > 0
        ratio[nz] = u[nz] / np.sqrt(sing[nz])
        ratio[~nz] = 1.0 / math.sqrt(delta * math.cos(rho))
        sp = np.sin(p)
        val = (Lam - 4.0 * sr + 2.0 * sp) * (2.0 - Lam * sp) / (Lam - 2.0 * sp) ** 2
        return 2.0 * delta * val * ratio

    return _simpson(h, n)


# ---------------------------------------------------------------------------
# frozen-value and oracle cross-checks
# ---------------------------------------------------------------------------


def test_F_frozen():
    res = F_integral(0.5, 3.0)
    assert res.converged
    assert abs(res.value - F_05_30) < 1e-12


def test_G_frozen():
    res = G_integral(0.5, 3.0)
    assert res.converged
    assert abs(res.value - G_05_30) < 1e-12


def test_F_near_lower_boundary_frozen():
    res = F_integral(0.2, 2.0 + 1e-6)
    assert abs(res.value - F_02_NEAR2) < 1e-10 * abs(F_02_NEAR2)


@pytest.mark.parametrize("rho,Lam", [(0.37, 2.9), (0.95, 2.11), (1.25, 2.03)])
def test_F_against_simpson_oracle(rho, Lam):
    assert F_integral(rho, Lam).value == pytest.approx(F_oracle(rho, Lam), abs=1e-9)


@pytest.mark.parametrize("rho,Lam", [(0.37, 2.9), (0.95, 2.11), (0.6, 2.4)])
def test_G_against_simpson_oracle(rho, Lam):
    assert G_integral(rho, Lam).value == pytest.approx(G_oracle(rho, Lam), abs=1e-9)


# ---------------------------------------------------------------------------
# structure of the inner problem F(rho, .) = 0
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rho", [0.2, 0.7, 1.2])
def test_F_bracket_signs(rho):
    lo = 2.0 + 1e-6
    hi = 2.0 / math.sin(rho) - 1e-6
    assert F_integral(rho, lo).value > 0.0
    assert F_integral(rho, hi).value < 0.0


@pytest.mark.parametrize("rho", [0.2, 0.7, 1.2])
def test_F_strictly_decreasing_in_Lambda(rho):
    lams = np.linspace(2.0 + 1e-6, 2.0 / math.sin(rho) - 1e-6, 10)
    vals = [F_integral(rho, L).value for L in lams]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_solve_Lambda_frozen():
    Lam = solve_Lambda_of_rho(0.8)
    assert abs(Lam - LAMBDA_OF_08) < 1e-11
    assert abs(F_integral(0.8, Lam).value) < 1e-11


def test_Lambda_in_admissible_range():
    for rho in np.linspace(0.05, math.pi / 2 - 0.05, 9):
        Lam = solve_Lambda_of_rho(float(rho))
        assert 2.0 < Lam < Lambda_upper_bound(float(rho))


def test_scan_row_frozen():
    rows = scan_H([1.5])
    (rho, Lam, F, G) = rows[0]
    assert rho == 1.5
    assert abs(F) < 1e-10
    assert abs(G - SCAN_G_AT_15) < 1e-9 * abs(SCAN_G_AT_15)


# ---------------------------------------------------------------------------
# the outer solve
# ---------------------------------------------------------------------------


def test_solution_frozen(solution):
    assert abs(solution.params.rho - RHO0) < 1e-10
    assert abs(solution.params.lam - LAMBDA0) < 1e-10
    assert abs(solution.Lambda0 - BIG_LAMBDA0) < 1e-10
    assert abs(solution.residual_F) < 1e-11
    assert abs(solution.residual_G) < 1e-11


def test_solution_consistency(solution):
    p = solution.params
    assert p.lam == pytest.approx(lambda_from_Lambda(solution.Lambda0), rel=1e-12)
    assert 0.0 < solution.params.rho < math.pi / 2
    assert 0.0 < solution.params.lam < 1.0


def _oracle_solution(mp):
    """(rho0, Lambda0, lambda0, T) from F = G = 0 solved at the working
    precision of ``mp``: tanh-sinh quadrature in s, with p = rho +- s^2 and
    sin p - sin rho in product form, so no endpoint singularity is left."""

    def F(rho, Lam):
        def f(s):
            sp = mp.sin(rho + s * s)
            sing = 2 * mp.cos(rho + s * s / 2) * mp.sin(s * s / 2)
            return (2 - Lam * sp) / (Lam - 2 * sp) * 2 * s / mp.sqrt(sing)

        return mp.quad(f, [0, mp.sqrt(mp.pi / 2 - rho)])

    def G(rho, Lam):
        def g(s):
            sp = mp.sin(rho - s * s)
            sing = 2 * mp.cos(rho - s * s / 2) * mp.sin(s * s / 2)
            den = Lam - 2 * sp
            num = (Lam - 4 * mp.sin(rho) + 2 * sp) * (2 - Lam * sp)
            return num / (den * den) * 2 * s / mp.sqrt(sing)

        return mp.quad(g, [0, mp.sqrt(rho + mp.pi / 2)])

    rho, Lam = mp.findroot(lambda r, L: (F(r, L), G(r, L)), (RHO0, BIG_LAMBDA0))
    lam = 2 / (Lam + mp.sqrt((Lam - 2) * (Lam + 2)))
    T = mp.pi * mp.sqrt(mp.cos(rho)) * (1 - lam * lam) / mp.sqrt(Lam / 2 - mp.sin(rho))
    return rho, Lam, lam, T


def test_headline_constants_match_a_30_digit_oracle(solution):
    # the README's four constants to 1e-16, the solve to 1e-12
    mpmath = pytest.importorskip("mpmath")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = dict(re.findall(r"^(rho0|lambda0|Lambda0|T) += ([0-9.]+)", readme, re.M))
    p = solution.params
    solved = {"rho0": p.rho, "lambda0": p.lam, "Lambda0": solution.Lambda0, "T": p.T}
    with mpmath.workdps(30):
        oracle = dict(zip(("rho0", "Lambda0", "lambda0", "T"), _oracle_solution(mpmath.mp)))
        assert sorted(stated) == sorted(oracle)
        for name, exact in oracle.items():
            assert abs(mpmath.mpf(stated[name]) - exact) < 1e-16, name
            assert abs(solved[name] - exact) < 1e-12, name


def test_solve_raises_without_sign_change():
    # G(rho, Lambda(rho)) is single-signed on a grid far below rho0
    with pytest.raises((NoSignChangeError, PeriodSolverError)):
        solve_period_problem(grid_size=4, rho_min=0.05, rho_max=0.2)


def test_brent_uses_the_given_end_values():
    calls = []

    def f(x):
        calls.append(x)
        return x ** 3 - 2.0 * x - 5.0

    root = _brent(f, 2.0, 3.0, -1.0, 16.0, 1e-14)
    assert root == pytest.approx(2.0945514815423265, abs=1e-14)
    assert 2.0 not in calls and 3.0 not in calls
    assert _brent(f, 2.0, 3.0, 0.0, 16.0, 1e-14) == 2.0


def test_brent_raises_typed_error_without_convergence():
    # at a fivefold root the steps shrink only linearly; 100 are too few
    def f(x):
        return (x - 0.3) ** 5

    with pytest.raises(PeriodSolverError, match="did not converge in 100 iterations"):
        _brent(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12)


def test_root_solves_start_from_known_end_values(monkeypatch):
    # F at the Lambda bracket ends and H at the rho bracket ends are each
    # computed once: by the sign check and by the scan
    F_args, Lambda_args = [], []
    real_F, real_solve = period_solver.F_integral, period_solver.solve_Lambda_of_rho

    def counting_F(rho, Lam):
        F_args.append(Lam)
        return real_F(rho, Lam)

    def counting_solve(rho, root_tol=1e-13):
        Lambda_args.append(rho)
        return real_solve(rho, root_tol)

    monkeypatch.setattr(period_solver, "F_integral", counting_F)
    solve_Lambda_of_rho(0.8)
    assert F_args.count(F_args[0]) == 1 and F_args.count(F_args[1]) == 1

    monkeypatch.setattr(period_solver, "solve_Lambda_of_rho", counting_solve)
    sol = solve_period_problem()
    grid = np.linspace(0.02, math.pi / 2 - 0.02, 64)  # the scan of solve_period_problem
    k = np.searchsorted(grid, sol.params.rho)
    lo, hi = grid[k - 1], grid[k]
    assert Lambda_args.count(lo) == 1 and Lambda_args.count(hi) == 1


def test_scan_stops_at_the_first_sign_change(monkeypatch):
    # Lambda(rho) is solved at the grid points up to the first sign change of
    # H, then only inside that bracket (Brent) and at rho0
    rhos = []
    real_solve = period_solver.solve_Lambda_of_rho

    def counting_solve(rho, root_tol=1e-13):
        rhos.append(rho)
        return real_solve(rho, root_tol)

    monkeypatch.setattr(period_solver, "solve_Lambda_of_rho", counting_solve)
    sol = solve_period_problem()
    grid = np.linspace(0.02, math.pi / 2 - 0.02, 64)
    k = int(np.searchsorted(grid, sol.params.rho))  # grid[k - 1] < rho0 < grid[k]
    assert rhos[: k + 1] == list(grid[: k + 1])
    assert all(grid[k - 1] < rho < grid[k] for rho in rhos[k + 1 :])
    assert len(rhos) < len(grid)


@pytest.mark.parametrize("grid_size", [48, 64, 80])
def test_solve_matches_a_full_scan_bit_for_bit(grid_size):
    # the reference scans every grid point with scan_H, then refines the
    # first sign change as the solve does
    grid = np.linspace(0.02, math.pi / 2 - 0.02, grid_size)
    table = scan_H(grid)
    g = [row[3] for row in table]
    i = next(i for i in range(len(g) - 1) if g[i] == 0.0 or (g[i] < 0.0) != (g[i + 1] < 0.0))

    def H(rho):
        return G_integral(rho, solve_Lambda_of_rho(rho, root_tol=1e-13)).value

    rho0 = _brent(H, table[i][0], table[i + 1][0], g[i], g[i + 1], 1e-12)
    Lambda0 = solve_Lambda_of_rho(rho0, root_tol=1e-14)
    sol = solve_period_problem(grid_size=grid_size)
    assert (sol.params.rho, sol.Lambda0) == (rho0, Lambda0)
    assert sol.residual_F == F_integral(rho0, Lambda0).value
    assert sol.residual_G == G_integral(rho0, Lambda0).value


# ---------------------------------------------------------------------------
# diagnostics outside the physical branch
# ---------------------------------------------------------------------------


def test_G_integrand_samples_shape_and_sign():
    vals = G_integrand_samples(-0.3, 2.5, n=200)
    assert vals.shape == (200,)
    assert np.all(vals > 0.0)


def test_Lambda_window_certificate_small_grid():
    rep = Lambda_window_certificate(rho_grid=[0.3, 0.9, 1.45, 1.5])
    assert rep.all_bounds_hold
    assert rep.tail_bound_constant < 0.0
    assert rep.large_Lambda_constant < 0.0
    assert rep.tail_bound_constant == pytest.approx(math.sqrt(2) / 3 - 0.5, rel=1e-15)
    for row in rep.rows:
        assert row["in_range"]
        assert row["F_at_8"] < 0.0
    near_top = [r for r in rep.rows if r["near_top_bound"] is not None]
    assert near_top, "grid includes rho > 1.4 so the sharp bound must be exercised"
    for row in near_top:
        assert row["near_top_bound"]["holds"]


# ---------------------------------------------------------------------------
# non-convergence is an error
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "integral,rho,Lam",
    [(F_integral, 0.02, 2.000006), (G_integral, math.pi / 2 - 0.02, 2.01)],
    ids=["F", "G"],
)
def test_unconverged_period_integral_raises(integral, rho, Lam):
    # the integral reads the policy when it is called
    with quadrature_policy(max_level=4), pytest.raises(PeriodSolverError) as exc:
        integral(rho, Lam)
    msg = str(exc.value)
    assert msg.startswith(f"{integral.__name__}(rho={rho!r}, Lam={Lam!r}) did not converge")
    assert "at level 4" in msg
    assert "error estimate" in msg
    assert integral(rho, Lam).converged  # the policy of 12 levels reaches the tolerance
