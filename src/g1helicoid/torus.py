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

Only the bottom edge has a position table (:meth:`TorusChart.xi_of_t`).

The two punctures sit on the bottom edges at z = i/lam (one on the
``upper_left``/``lower_left`` shared edge, one on the mirror edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

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


def _lifted_angle(z: np.ndarray) -> np.ndarray:
    th = np.arctan2(z.imag, z.real)
    return np.where(th < 0.0, th + 2.0 * math.pi, th)


def lift_angle_left(z) -> np.ndarray:
    """Angle of z lifted to [pi/2, 3pi/2] on the closed left half-plane."""
    z = np.asarray(z, dtype=complex)
    _require_left_half_plane(z, np.abs(z))
    return _lifted_angle(z)


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
    its form runs on the whole array, with no gather or scatter.  Only the
    inner form needs the lifted angle.
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

    def inner(zi, mi):
        return (pref * np.sqrt(mi) * np.exp(0.5j * _lifted_angle(zi))
                / (np.sqrt(ea - zi) * np.sqrt(zi + eb)))

    def outer(zo):
        return pref / (np.sqrt(ea - zo) * np.sqrt(1.0 + eb / zo))

    if np.all(inner_mask):
        w = inner(z, m)
    elif not np.any(inner_mask):
        w = outer(z)
    else:
        i, o = inner_mask, ~inner_mask
        w = np.empty(z.shape, dtype=complex)
        w[i], w[o] = inner(z[i], m[i]), outer(z[o])
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
# Chart lengths and edge parameterizations
# ----------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# Uniform s-intervals of the bottom-edge table.
_N_TABLE = 1024


def _edge_density(params: SurfaceParams) -> Callable[[np.ndarray], np.ndarray]:
    """Chart speed d(xi)/ds along the bottom edge, with t = s^2 (quartic form)."""
    two_sin = -2.0 * math.sin(params.rho)
    pref = math.sqrt(2.0 * math.cos(params.rho))

    def f(s: np.ndarray) -> np.ndarray:
        s2 = s * s
        return pref / np.sqrt(1.0 + two_sin * s2 + s2 * s2)

    return f


def _gl_cumulative(f: Callable, n_intervals: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative integral of f over [0, 1] at n_intervals+1 uniform edges."""
    edges = np.linspace(0.0, 1.0, n_intervals + 1)
    a = edges[:-1]
    h = edges[1] - edges[0]
    x = a[:, None] + 0.5 * h * (_GL_NODES[None, :] + 1.0)
    vals = f(x)
    per_interval = 0.5 * h * vals @ _GL_WEIGHTS
    cum = np.concatenate(([0.0], np.cumsum(per_interval)))
    return edges, cum


@dataclass(frozen=True)
class TorusChart:
    """Precomputed chart geometry for one parameter set.

    ``width`` is the horizontal period of the chart; the bottom-edge table
    gives machine-accurate xi(t) and its inverse.
    """

    params: SurfaceParams
    width: float
    _s_grid: np.ndarray
    _xi_grid: np.ndarray

    # -- horizontal edge: z = i t at chart (+/- xi_of_t(t), 0) --------

    def _xi_of_s(self, s: np.ndarray) -> np.ndarray:
        f = _edge_density(self.params)
        s = np.asarray(s, dtype=float)
        n = len(self._s_grid) - 1
        idx = np.clip(
            np.searchsorted(self._s_grid, s, side="right") - 1, 0, n - 1
        )
        a = self._s_grid[idx]
        h = s - a
        x = a[..., None] + 0.5 * h[..., None] * (_GL_NODES + 1.0)
        partial = 0.5 * h * (f(x) @ _GL_WEIGHTS)
        return self._xi_grid[idx] + partial

    def _t_of_table(self, target: np.ndarray) -> np.ndarray:
        """The t = s^2 <= 1 where the edge table reaches ``target``: a table
        lookup for s refined by four clipped Newton steps."""
        f = _edge_density(self.params)
        s = np.interp(target, self._xi_grid, self._s_grid)
        for _ in range(4):
            s = s - (self._xi_of_s(s) - target) / f(s)
            s = np.clip(s, 0.0, 1.0)
        return s * s

    def xi_of_t(self, t):
        """Unsigned chart offset of z = i t on the bottom edge (t > 0)."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t).copy()
        if np.any(t <= 0.0) or np.any(~np.isfinite(t)):
            raise ValueError("xi_of_t requires finite t > 0")
        out = np.empty_like(t)
        low = t <= 1.0
        if np.any(low):
            out[low] = self._xi_of_s(np.sqrt(t[low]))
        if np.any(~low):
            out[~low] = self.width - self._xi_of_s(np.sqrt(1.0 / t[~low]))
        return float(out[0]) if scalar else out

    def t_of_xi(self, xi):
        """Inverse of :meth:`xi_of_t` on (0, width)."""
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi).astype(float)
        if np.any(xi <= 0.0) or np.any(xi >= self.width):
            raise ValueError("t_of_xi requires 0 < xi < width")
        half = 0.5 * self.width
        flip = xi > half
        target = np.where(flip, self.width - xi, xi)
        t = self._t_of_table(target)
        t = np.where(flip, 1.0 / np.maximum(t, 1e-300), t)
        return float(t[0]) if scalar else t


def build_chart(params: SurfaceParams) -> TorusChart:
    """Build the chart geometry (the bottom-edge table at machine accuracy)."""
    s_grid, xi_grid = _gl_cumulative(_edge_density(params), _N_TABLE)
    return TorusChart(
        params=params,
        width=2.0 * float(xi_grid[-1]),
        _s_grid=s_grid,
        _xi_grid=xi_grid,
    )
