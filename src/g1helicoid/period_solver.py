"""The two period integrals and the nested root solve that closes them.

For ``rho in (0, pi/2)`` and ``Lam in (2, min(2/sin rho, 8))`` define

    F(rho, Lam) = int_rho^{pi/2} (2 - Lam sin p)/(Lam - 2 sin p)
                                 * (sin p - sin rho)^{-1/2} dp
    G(rho, Lam) = int_{-pi/2}^rho (Lam - 4 sin rho + 2 sin p)/(Lam - 2 sin p)
                                 * (2 - Lam sin p)/(Lam - 2 sin p)
                                 * (sin rho - sin p)^{-1/2} dp

``F = 0`` closes the horizontal period across the vertical-symmetry curve and
implicitly defines ``Lam(rho)``; ``G(rho, Lam(rho)) = 0`` then closes the
remaining horizontal period and selects the surface parameters
``(rho0, lam0)``.  Both integrands have an inverse-square-root endpoint at
``p = rho`` which is evaluated cancellation-free via the endpoint-distance
protocol of :mod:`g1helicoid.quadrature`:

    sin p - sin rho = 2 cos(rho + da/2) sin(da/2),        da = p - rho
    sin rho - sin p = 2 cos(rho - db/2) sin(db/2),        db = rho - p

For ``Lam -> 2+`` the F-integrand develops a sharp (but bounded) boundary
layer at ``p = pi/2`` of width ``~sqrt(Lam - 2)``; the factors are written in
terms of ``db = pi/2 - p`` so the layer is resolved without cancellation and
the double-exponential rule clusters nodes there automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from . import NumericError
from .params import SurfaceParams, lambda_from_Lambda
from .quadrature import QuadratureResult, QuadratureSpec, integrate

__all__ = [
    "PeriodSolverError",
    "BracketSignError",
    "NoSignChangeError",
    "F_integral",
    "G_integral",
    "G_integrand_samples",
    "require_converged",
    "Lambda_upper_bound",
    "solve_Lambda_of_rho",
    "PeriodSolution",
    "solve_period_problem",
]

# The one quadrature policy of the period integrals (and of the edge anchors
# of :mod:`g1helicoid.weierstrass`): a little tighter than the engine default
# because the outer root solves chase |G| < 1e-9.  It is read at call time.
PERIOD_SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_level=12)

# Relative inset of the Lambda bracket endpoints.
_BRACKET_INSET = 1e-6

# Relative x-tolerance and iteration cap of both root solves.
_BRENT_RTOL = 8.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


class PeriodSolverError(RuntimeError, NumericError):
    """Base class for period-solver failures."""


class BracketSignError(PeriodSolverError):
    """The F-bracket endpoints did not have the expected signs."""


class NoSignChangeError(PeriodSolverError):
    """The rho-scan of G(rho, Lambda(rho)) found no sign change."""


def _brent(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, xtol: float
) -> float:
    """Root of ``f`` on ``[a, b]`` by Brent's method (Brent 1973, ch. 4).

    ``fa = f(a)`` and ``fb = f(b)`` are values the caller already holds, of
    opposite signs (or one of them zero).  The steps and their order are
    those of SciPy's ``brentq`` (``Zeros/brentq.c``), so the root is
    bit-identical to ``brentq(f, a, b, xtol, rtol=_BRENT_RTOL)``.  Raises
    :class:`PeriodSolverError` when the bracket is not below
    ``xtol + _BRENT_RTOL * |x|`` after ``_BRENT_MAXITER`` steps.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):  # a zero fcur returns below
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise PeriodSolverError(
        f"root solve did not converge in {_BRENT_MAXITER} iterations "
        f"on [{a!r}, {b!r}] (last x={xcur!r})"
    )


def _check_rho_interior(rho: float) -> float:
    rho = float(rho)
    if not 0.0 < rho < math.pi / 2:
        raise PeriodSolverError(f"rho={rho!r} must lie in (0, pi/2) for the period integrals")
    return rho


def _f_integrand(rho: float, Lam: float) -> Callable:
    def f(p: np.ndarray, da: np.ndarray, db: np.ndarray) -> np.ndarray:
        # sin p - sin rho, stable at the singular endpoint p = rho
        sing = 2.0 * np.cos(rho + 0.5 * da) * np.sin(0.5 * da)
        # factors stable in the Lam -> 2+ boundary layer at p = pi/2
        s2 = np.sin(0.5 * db) ** 2
        num = (2.0 - Lam) + 2.0 * Lam * s2          # 2 - Lam sin p
        den = (Lam - 2.0) + 4.0 * s2                # Lam - 2 sin p
        return num / (den * np.sqrt(sing))

    return f


def _g_integrand(rho: float, Lam: float) -> Callable:
    sin_rho = math.sin(rho)

    def g(p: np.ndarray, da: np.ndarray, db: np.ndarray) -> np.ndarray:
        sing = 2.0 * np.cos(rho - 0.5 * db) * np.sin(0.5 * db)  # sin rho - sin p
        sp = np.sin(p)
        den = Lam - 2.0 * sp
        return (Lam - 4.0 * sin_rho + 2.0 * sp) * (2.0 - Lam * sp) / (den * den * np.sqrt(sing))

    return g


def require_converged(res: QuadratureResult, name: str, **where: float) -> QuadratureResult:
    """``res``, or :class:`PeriodSolverError` naming the integral, its
    arguments ``where``, its error estimate and its level if it missed its
    tolerance."""
    if not res.converged:
        args = ", ".join(f"{key}={value!r}" for key, value in where.items())
        raise PeriodSolverError(
            f"{name}{f'({args})' if args else ''} did not converge: "
            f"error estimate {res.error_estimate:.3e} at level {res.levels_used}"
        )
    return res


def F_integral(rho: float, Lam: float) -> QuadratureResult:
    """First period integral F(rho, Lam) at :data:`PERIOD_SPEC`, with
    quadrature diagnostics.

    Raises :class:`PeriodSolverError` if the quadrature does not converge.
    """
    rho = _check_rho_interior(rho)
    Lam = float(Lam)
    res = integrate(_f_integrand(rho, Lam), rho, math.pi / 2, PERIOD_SPEC)
    return require_converged(res, "F_integral", rho=rho, Lam=Lam)


def G_integral(rho: float, Lam: float) -> QuadratureResult:
    """Second period integral G(rho, Lam) at :data:`PERIOD_SPEC`, with
    quadrature diagnostics.

    Defined for every ``rho in (-pi/2, pi/2)`` (the nonpositive-rho branch is
    used for diagnostics only).  Raises :class:`PeriodSolverError` if the
    quadrature does not converge.
    """
    rho = float(rho)
    if not -math.pi / 2 < rho < math.pi / 2:
        raise PeriodSolverError(f"rho={rho!r} outside (-pi/2, pi/2)")
    Lam = float(Lam)
    res = integrate(_g_integrand(rho, Lam), -math.pi / 2, rho, PERIOD_SPEC)
    return require_converged(res, "G_integral", rho=rho, Lam=Lam)


def G_integrand_samples(rho: float, Lam: float, n: int = 200) -> np.ndarray:
    """G-integrand values at ``n`` interior abscissae (sign diagnostics)."""
    rho = float(rho)
    p = np.linspace(-math.pi / 2, rho, n + 2)[1:-1]
    da = p + math.pi / 2
    db = rho - p
    return _g_integrand(rho, Lam)(p, da, db)


def Lambda_upper_bound(rho: float) -> float:
    """Upper end of the admissible Lambda range, ``min(2/sin rho, 8)``."""
    rho = _check_rho_interior(rho)
    s = math.sin(rho)
    return min(2.0 / s, 8.0) if s > 0 else 8.0


def solve_Lambda_of_rho(rho: float, root_tol: float = 1e-13) -> float:
    """Solve ``F(rho, Lambda) = 0`` for Lambda on its validated bracket.

    The bracket is ``(2 + eps, min(2/sin rho, 8) - eps)`` with
    ``eps = 1e-6 * width``.  The endpoint signs are checked (F > 0 at the
    lower end, F < 0 at the upper end) and a :class:`BracketSignError` is
    raised loudly on mismatch rather than guessing.  Brent's method then
    starts from those two F values, so no endpoint is integrated twice; it
    raises :class:`PeriodSolverError` if it does not reach ``root_tol``
    within 100 iterations.
    """
    rho = _check_rho_interior(rho)
    upper = Lambda_upper_bound(rho)
    width = upper - 2.0
    if width <= 0:
        raise PeriodSolverError(f"empty Lambda bracket at rho={rho!r}")
    eps = _BRACKET_INSET * width
    lo, hi = 2.0 + eps, upper - eps

    f_lo = F_integral(rho, lo).value
    f_hi = F_integral(rho, hi).value
    if not (f_lo > 0.0 and f_hi < 0.0):
        raise BracketSignError(
            f"F-bracket signs invalid at rho={rho!r}: "
            f"F({lo!r})={f_lo!r} (expected > 0), F({hi!r})={f_hi!r} (expected < 0)"
        )
    return _brent(lambda L: F_integral(rho, L).value, lo, hi, f_lo, f_hi, root_tol)


@dataclass(frozen=True)
class PeriodSolution:
    """Result of the nested period solve; the solved pair is ``params.rho``
    and ``params.lam``, and ``Lambda0`` is the root of the last inner solve."""

    params: SurfaceParams
    Lambda0: float
    residual_F: float
    residual_G: float


def scan_H(
    rho_grid: Sequence[float], root_tol: float = 1e-13
) -> List[Tuple[float, float, float, float]]:
    """Rows ``(rho, Lambda(rho), F, G)`` over a rho grid (order-preserving),
    each Lambda solved to ``root_tol``."""
    rows = []
    for rho in rho_grid:
        rho = float(rho)
        Lam = solve_Lambda_of_rho(rho, root_tol)
        F = F_integral(rho, Lam).value
        G = G_integral(rho, Lam).value
        rows.append((rho, Lam, F, G))
    return rows


def solve_period_problem(
    grid_size: int = 64,
    rho_min: float = 0.02,
    rho_max: float = math.pi / 2 - 0.02,
) -> PeriodSolution:
    """Solve both period conditions; returns the closed parameter set.

    ``H(rho) = G(rho, Lambda(rho))`` is evaluated at the points of a
    ``grid_size``-point grid over ``(rho_min, rho_max)`` in order, until two
    neighbours bracket the first sign change (no uniqueness is asserted);
    grid points past it are not evaluated.  The bracket is refined to
    1e-12 in rho by Brent's method, which starts from the two scan values
    of H at its ends instead of solving them again; each Lambda(rho) is
    solved to 1e-13, and the returned ``Lambda0`` to 1e-14.  Every integral
    is taken at :data:`PERIOD_SPEC`, the residuals included.

    Raises
    ------
    NoSignChangeError
        If the scan finds no sign change.
    PeriodSolverError
        If a root solve does not converge within 100 iterations.
    """

    def H(rho: float) -> float:
        Lam = solve_Lambda_of_rho(rho, root_tol=1e-13)
        return G_integral(rho, Lam).value

    grid = [float(rho) for rho in np.linspace(rho_min, rho_max, int(grid_size))]
    rho_lo = h_lo = None
    for rho_hi in grid:
        h_hi = H(rho_hi)
        if h_lo is not None and (h_lo == 0.0 or (h_lo < 0.0) != (h_hi < 0.0)):
            break
        rho_lo, h_lo = rho_hi, h_hi
    else:
        raise NoSignChangeError(
            f"no sign change of G(rho, Lambda(rho)) on ({rho_min}, {rho_max}) "
            f"with {grid_size} samples"
        )
    rho0 = _brent(H, rho_lo, rho_hi, h_lo, h_hi, xtol=1e-12)
    Lambda0 = solve_Lambda_of_rho(rho0, root_tol=1e-14)
    return PeriodSolution(
        params=SurfaceParams(rho0, lambda_from_Lambda(Lambda0)),
        Lambda0=Lambda0,
        residual_F=F_integral(rho0, Lambda0).value,
        residual_G=G_integral(rho0, Lambda0).value,
    )
