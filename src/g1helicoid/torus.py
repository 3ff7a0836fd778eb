"""Domain geometry: rhombic torus, algebraic curve (z, w), chart, half-turns.

The immersion domain is a rhombic torus minus two punctures.  It is realized
as the genus-one algebraic curve

    w^2 = 2 cos(rho) * z / ((e^{i rho} - z) (z + e^{-i rho}))

which double-covers the z-sphere, branched over {0, oo, e^{i rho},
-e^{-i rho}}.  Equivalently ``(2 cos rho) / w^2 = -(z - 1/z - 2 i sin rho)``.

A flat chart ``u = xi e^{i pi/4} + eta e^{-i pi/4}`` identifies the torus with
the plane modulo the lattice generated by ``(2*width, 0)`` and
``(width, height)``; the chart coordinate satisfies ``du = (w/2) dz / z``.
Four closed rectangles tile the fundamental domain
``[-width, width] x [-height/2, height/2]``:

    upper_left  = [-width, 0] x [0,  height/2]   z in the closed LEFT half-plane
    upper_right = [0, width]  x [0,  height/2]   z in the closed RIGHT half-plane
    lower_right = [0, width]  x [-height/2, 0]   z in the closed LEFT half-plane
    lower_left  = [-width, 0] x [-height/2, 0]   z in the closed RIGHT half-plane

On ``upper_left`` angles are lifted to ``theta in [pi/2, 3pi/2]`` and w has
the single-valued closed form of :func:`w_branch_left`; the unit-circle arc
``theta in (pi - rho, 3pi/2]`` is a slit whose two banks are the two halves
of the rectangle's top chart edge (inner bank ``|z| -> 1-``, outer bank
``|z| -> 1+``), while the complementary arc ``theta in (pi/2, pi - rho)`` is
interior (w continuous across it).  The other three rectangles carry w by the
transport rules of :func:`w_on_sheet`.

Chart edges of ``upper_left`` (t, tt > 0):

    bottom  (eta = 0):        z = i t,    at (-xi_of_t(t), 0);   w = -tau_h e^{i pi/4}
    right   (xi = 0):         z = -i tt,  tt <= 1;               w = +tau_v e^{-i pi/4}
    left    (xi = -width):    z = -i tt,  tt >= 1;               w = -tau_v e^{-i pi/4}
    top     (eta = height/2): z = e^{i theta}, the slit banks;
                              inner bank  w = +|w| e^{-i pi/4},
                              outer bank  w = -|w| e^{-i pi/4},
                              |w|^2 = cos rho / (sin rho - sin phi) at z = -e^{-i phi}

Only the bottom edge has a position map, in closed form (:meth:`TorusChart.xi_of_t`).

The two punctures sit on the bottom edges at z = i/lam (one on the
``upper_left``/``lower_left`` shared edge, one on the mirror edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .params import SurfaceParams

__all__ = [
    "SHEETS",
    "SheetDomainError",
    "lift_angle_left",
    "w_branch_left",
    "w_on_sheet",
    "tau_horizontal",
    "tau_vertical",
    "SymmetryAction",
    "SYMMETRIES",
    "TorusChart",
    "build_chart",
]

SHEETS = ("upper_left", "upper_right", "lower_right", "lower_left")

# Sheets whose z-image is the closed left half-plane; the other two live on
# the closed right half-plane and transport through z -> -conj(z).
_LEFT_SHEETS = frozenset({"upper_left", "lower_right"})
_RIGHT_SHEETS = frozenset({"upper_right", "lower_left"})

_HALF_PLANE_SLACK = 1e-9
_REGION_SLACK = 1e-6


class SheetDomainError(ValueError):
    """A z value was passed to a sheet whose half-plane does not contain it."""


# ----------------------------------------------------------------------
# The algebraic curve
# ----------------------------------------------------------------------

def _require_left_half_plane(z: np.ndarray, m: np.ndarray) -> None:
    """Raise :class:`SheetDomainError` unless every z (of modulus m) lies in
    the closed left half-plane."""
    if np.any(z.real > _HALF_PLANE_SLACK * (1.0 + m)):
        bad = z.flat[int(np.argmax(z.real - _HALF_PLANE_SLACK * (1.0 + m)))]
        raise SheetDomainError(f"z={bad!r} is not in the closed left half-plane")


def lift_angle_left(z) -> np.ndarray:
    """Angle of z lifted to [pi/2, 3pi/2] on the closed left half-plane."""
    z = np.asarray(z, dtype=complex)
    _require_left_half_plane(z, np.abs(z))
    th = np.arctan2(z.imag, z.real)
    return np.where(th < 0.0, th + 2.0 * math.pi, th)


def w_branch_left(params: SurfaceParams, z, region: str = "auto"):
    """Single-valued w on the left-half-plane sheet ``upper_left``.

    ``region`` selects the closed form: ``"inner"`` (valid for |z| <= 1),
    ``"outer"`` (valid for |z| >= 1) or ``"auto"`` (pick by |z|; points with
    |z| = 1 use the inner form).  On the interior gluing arc
    ``theta in (pi/2, pi - rho)`` the two forms agree; on the slit arc they
    give the two bank values (the inner form the inner bank).  Both forms
    keep their square-root arguments off the principal branch cut everywhere
    in their stated regions, the only exception being the common pole at the
    slit tip ``z = -e^{-i rho}``.  When every point falls in one region,
    its form runs on the whole array, with no gather or scatter.  The inner
    form writes sqrt(z), its angle lifted to [pi/2, 3pi/2], as i sqrt(-z).
    Each form takes one complex square root, of its factors' quotient.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    m = np.abs(z)
    _require_left_half_plane(z, m)

    if region == "auto":
        inner_mask = m <= 1.0
    elif region == "inner":
        if np.any(m > 1.0 + _REGION_SLACK):
            raise SheetDomainError("region='inner' requires |z| <= 1")
        inner_mask = np.ones(z.shape, dtype=bool)
    elif region == "outer":
        if np.any(m < 1.0 - _REGION_SLACK):
            raise SheetDomainError("region='outer' requires |z| >= 1")
        inner_mask = np.zeros(z.shape, dtype=bool)
    else:
        raise ValueError(f"region must be 'auto', 'inner' or 'outer', got {region!r}")

    rho = params.rho
    pref = -math.sqrt(2.0 * math.cos(rho))
    ea = complex(np.exp(1j * rho))
    eb = complex(np.exp(-1j * rho))

    def inner(zi):
        return pref * 1j * np.sqrt(-zi / ((ea - zi) * (zi + eb)))

    def outer(zo):
        return pref / np.sqrt((ea - zo) * (1.0 + eb / zo))

    if np.all(inner_mask):
        w = inner(z)
    elif not np.any(inner_mask):
        w = outer(z)
    else:
        i, o = inner_mask, ~inner_mask
        w = np.empty(z.shape, dtype=complex)
        w[i], w[o] = inner(z[i]), outer(z[o])
    return w[0] if scalar else w


def w_on_sheet(params: SurfaceParams, sheet: str, z, region: str = "auto"):
    """w at the point of ``sheet`` over z.

    Left-half-plane sheets take z with Re z <= 0, right-half-plane sheets
    Re z >= 0.  The transport rules (relative to the base branch ``wL`` of
    :func:`w_branch_left`) are

        upper_left :  w =  wL(z)
        lower_right:  w = -wL(z)
        upper_right:  w = -i conj(wL(-conj(z)))
        lower_left :  w = +i conj(wL(-conj(z)))

    which make w continuous across every shared chart edge and compatible
    with the symmetry actions of :data:`SYMMETRIES`.
    """
    if sheet in _LEFT_SHEETS:
        base = w_branch_left(params, z, region)
        return base if sheet == "upper_left" else -base
    if sheet in _RIGHT_SHEETS:
        zr = -np.conj(np.asarray(z, dtype=complex))
        base = np.conj(w_branch_left(params, zr, region))
        return -1j * base if sheet == "upper_right" else 1j * base
    raise ValueError(f"unknown sheet {sheet!r}; expected one of {SHEETS}")


# ----------------------------------------------------------------------
# Closed forms for |w| along the distinguished curves
# ----------------------------------------------------------------------

def tau_horizontal(params: SurfaceParams, t):
    """|w| on the bottom chart edges, z = i t with t > 0."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(2.0 * math.cos(params.rho) / (t + 1.0 / t - 2.0 * math.sin(params.rho)))


def tau_vertical(params: SurfaceParams, t):
    """|w| on the vertical chart edges, z = -i t with t > 0."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(2.0 * math.cos(params.rho) / (t + 1.0 / t + 2.0 * math.sin(params.rho)))


# ----------------------------------------------------------------------
# Symmetries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryAction:
    """One of the three half-turn symmetries of the surface: its action on
    the curve and the motion of space it induces.

    ``orientation`` is +1 for holomorphic actions and -1 for antiholomorphic
    ones.  ``space_matrix`` is the linear part of the induced ambient motion,
    the half-turn about one coordinate axis.
    """

    name: str
    orientation: int
    z_map: Callable[[SurfaceParams, np.ndarray], np.ndarray]
    w_map: Callable[[SurfaceParams, np.ndarray], np.ndarray]
    space_matrix: np.ndarray


def _mat(d1: int, d2: int, d3: int) -> np.ndarray:
    return np.diag(np.array([d1, d2, d3], dtype=float))


SYMMETRIES: Dict[str, SymmetryAction] = {
    # 180-degree rotation about the x1-axis: chart rotation about the origin,
    # the deck transformation of the z-projection.
    "half_turn_x1": SymmetryAction(
        "half_turn_x1", +1,
        lambda p, z: np.asarray(z, dtype=complex),
        lambda p, w: -np.asarray(w, dtype=complex),
        _mat(1, -1, -1),
    ),
    # 180-degree rotation about the x2-axis.
    "half_turn_x2": SymmetryAction(
        "half_turn_x2", -1,
        lambda p, z: -np.conj(np.asarray(z, dtype=complex)),
        lambda p, w: 1j * np.conj(np.asarray(w, dtype=complex)),
        _mat(-1, 1, -1),
    ),
    # 180-degree rotation about the x3-axis.
    "half_turn_x3": SymmetryAction(
        "half_turn_x3", -1,
        lambda p, z: -np.conj(np.asarray(z, dtype=complex)),
        lambda p, w: -1j * np.conj(np.asarray(w, dtype=complex)),
        _mat(-1, -1, 1),
    ),
}


# ----------------------------------------------------------------------
# The bottom chart edge in closed form
# ----------------------------------------------------------------------

def _agm(rho: float) -> Tuple[List[float], List[float]]:
    """Descending AGM of (1, sqrt(1 - m)) at m = (1 + sin rho)/2 (DLMF 19.8.1,
    22.20.1): the lists a_n and c_n = (a_{n-1} - b_{n-1})/2, c_0 = sqrt(m),
    up to the first c_n <= 1e-15 a_n (the next c is below 1e-30 a_n).  A
    tighter rule need not stop: c_n can stay at the rounding level of a_n, as
    at m = 1/2.  sqrt(1 - m) is cos rho / sqrt(2 (1 + sin rho)), free of the
    cancellation in 1 - m as rho -> pi/2."""
    s = math.sin(rho)
    a, b, c = [1.0], math.cos(rho) / math.sqrt(2.0 * (1.0 + s)), [math.sqrt(0.5 * (1.0 + s))]
    while c[-1] > 1e-15 * a[-1]:
        a, b, c = a + [0.5 * (a[-1] + b)], math.sqrt(a[-1] * b), c + [0.5 * (a[-1] - b)]
    return a, c


def _carlson_rf(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """R_F(x, y, z) for x, y, z >= 0, at most one zero, by duplication
    (B. C. Carlson, Numer. Algorithms 10, 1995; DLMF 19.36.1)."""
    a = (x + y + z) / 3.0
    dx, dy = a - x, a - y
    # Carlson's (3 r)^(-1/6) max|a - x|, r = 2^-53: the series below is then exact to r
    q = (3.0 * 2.0 ** -53) ** (-1.0 / 6.0) * np.max(np.abs([dx, dy, a - z]), axis=0)
    scale = 1.0  # 4^-n after n duplications
    while np.any(q * scale > np.abs(a)):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        scale *= 0.25
    X, Y = dx * scale / a, dy * scale / a
    e2, e3 = X * Y - (X + Y) ** 2, -X * Y * (X + Y)
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a)


@dataclass(frozen=True)
class TorusChart:
    """The chart's bottom edge z = i t, in closed form.

    With k0 = sqrt(2 cos rho) and m = (1 + sin rho)/2, ``width`` = k0 K(m),
    and for t <= 1, xi(t) = (k0/2) F(2 arctan sqrt(t) | m), which is
    k0 sqrt(t) R_F((1-t)^2, 1 - 2 t sin rho + t^2, (1+t)^2).
    """

    params: SurfaceParams
    width: float

    def xi_of_t(self, t):
        """Unsigned chart offset of z = i t on the bottom edge (t > 0);
        xi(t) = width - xi(1/t) for t > 1."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0) or np.any(~np.isfinite(t)):
            raise ValueError("xi_of_t requires finite t > 0")
        low = t <= 1.0
        t = np.where(low, t, 1.0 / t)
        rho, d2 = self.params.rho, (1.0 - t) ** 2
        # 1 - 2 t sin rho + t^2, with 1 - sin rho = cos^2 rho / (1 + sin rho): no cancellation
        y = d2 + 2.0 * t * (math.cos(rho) ** 2 / (1.0 + math.sin(rho)))
        xi = math.sqrt(2.0 * math.cos(rho)) * np.sqrt(t) * _carlson_rf(d2, y, (1.0 + t) ** 2)
        out = np.where(low, xi, self.width - xi)
        return float(out) if out.ndim == 0 else out

    def t_of_xi(self, xi):
        """Inverse of :meth:`xi_of_t` on (0, width): up to width/2,
        t = tan^2(am/2) with the Jacobi amplitude am(2 xi / k0 | m) by the
        descending AGM (DLMF 22.20.1); beyond, 1/t of width - xi."""
        xi = np.asarray(xi, dtype=float)
        if np.any(xi <= 0.0) or np.any(xi >= self.width):
            raise ValueError("t_of_xi requires 0 < xi < width")
        flip = xi > 0.5 * self.width
        rho = self.params.rho
        a, c = _agm(rho)
        n = len(a) - 1
        u = 2.0 * np.where(flip, self.width - xi, xi) / math.sqrt(2.0 * math.cos(rho))
        phi = 2.0 ** n * a[n] * u
        for k in range(n, 0, -1):
            phi = 0.5 * (phi + np.arcsin(c[k] / a[k] * np.sin(phi)))
        t = np.tan(0.5 * phi) ** 2
        t = np.where(flip, 1.0 / np.maximum(t, 1e-300), t)
        return float(t) if t.ndim == 0 else t


def build_chart(params: SurfaceParams) -> TorusChart:
    """The chart of ``params``; K(m) = pi / (2 AGM(1, sqrt(1 - m)))."""
    a, _ = _agm(params.rho)
    return TorusChart(params, math.sqrt(2.0 * math.cos(params.rho)) * math.pi / (2.0 * a[-1]))
