"""Surface form components and path integration on the curve.

The immersion is ``X = Re integral Phi`` with ``Phi = (phi1, phi2, phi3)``,

    phi3 = dh = e^{i pi/4} (z - i lam)/(z - i/lam) * du,   du = (w/2) dz / z
    phi1 = (1/2) (1/g - g) dh
    phi2 = (i/2) (1/g + g) dh
    g    = (w - a) / (w + a),        a = r e^{i pi/4}

Substituting the curve equation removes every spurious cancellation and puts
the three components into pole-factored closed forms (P = z - i/lam):

    phi1/dz = -(2 cos rho / r) / P^2
    phi2/dz = -i e^{i pi/4} Q(z) w / (2 z P^2),   Q(z) = z^2 + i(Lam - 4 sin rho) z - 1
    phi3/dz =    e^{i pi/4} (z - i lam) w / (2 z P)

The sign of a (equivalently of phi1) is the one orientation choice not fixed
by the w-branch seed; it is pinned here by the geometric invariants: the
fundamental patch must project into the half-space x1 <= 0 (its boundary
curve c bulges to negative x1) while the other components keep the verified
slab range x3 in [-T/2, a] and the residual-to-integral sign conventions.
This corresponds to a = -r e^{i pi/4} in g = (w - a)/(w + a); the anchor
value g(node) = -1 at w = 0 holds for either sign.

These satisfy ``phi1^2 + phi2^2 + phi3^2 = 0`` identically on the curve, and
``phi1`` depends on z alone (it is even under the z-deck involution).  The
only singularities are the double pole at the punctures ``z = i/lam``, the
inverse-square-root at ``z = 0``/``z = oo`` and at the w-poles; every path
constructor below bakes in a substitution that makes its integrand smooth, so
plain Gauss-Legendre panels converge at spectral rate.

Paths are oriented lists of :class:`Segment`; each segment maps ``s in [0,1]``
to a z-path on one sheet.  The three segments that end at a w-pole (the
interior gluing arc, the slit banks and the right-sheet mirror arc) all run
from a quarter point into the pole.  :func:`integrate_path` returns the
(complex) integral of all three components; positions are ``Re`` of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from . import NumericError, period_solver
from .params import SurfaceParams
from .quadrature import integrate
from .torus import lift_angle_left, tau_horizontal, tau_vertical, w_on_sheet

__all__ = [
    "IntegrationError",
    "phi_dz",
    "gauss_map",
    "gauss_map_formula",
    "conformality_residual",
    "Segment",
    "seg_edge_up_from_zero",
    "seg_edge_down_from_zero",
    "seg_edge_down_from_infinity",
    "seg_arc",
    "seg_ring_left_to_tip",
    "seg_slit_bank",
    "seg_mirror_ring_right",
    "reversed_segment",
    "integrate_path",
    "positions_along",
    "arc_positions",
    "alpha_cycle",
    "descent_axis",
    "vertical_period_gap",
    "period_residual_I",
    "period_residual_II",
    "dh_rate_on_slit_inner",
    "x_point",
    "x2_rate_edge",
    "x3_rate_vertical",
    "x2_H1",
    "x2_H2",
    "x3_E",
    "x3_E_tail",
    "axis_rise",
    "x3_Ehat",
    "tip_position",
]

_E4 = complex(np.exp(0.25j * math.pi))


class IntegrationError(RuntimeError, NumericError):
    """A path integral failed to converge or hit a non-finite integrand."""


# ----------------------------------------------------------------------
# Form components
# ----------------------------------------------------------------------

def phi_dz(
    params: SurfaceParams,
    sheet: str,
    z,
    region: str = "auto",
) -> np.ndarray:
    """The three components (phi1, phi2, phi3) per dz; shape ``z.shape + (3,)``."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(w_on_sheet(params, sheet, z, region))
    lam = params.lam
    pole = z - 1j / lam
    q = z * z + 1j * (params.Lambda - 4.0 * math.sin(params.rho)) * z - 1.0
    out = np.empty(z.shape + (3,), dtype=complex)
    out[..., 0] = -(2.0 * math.cos(params.rho) / params.r) / (pole * pole)
    out[..., 1] = -1j * _E4 * q * w / (2.0 * z * pole * pole)
    out[..., 2] = _E4 * (z - 1j * lam) * w / (2.0 * z * pole)
    return out


def gauss_map_formula(w, r: float):
    """The bare Moebius form g = (w - r e^{i pi/4})/(w + r e^{i pi/4}).

    Pass a signed ``r`` to select the orientation; the immersion uses -r
    (see the module docstring).
    """
    a = r * _E4
    return (np.asarray(w, dtype=complex) - a) / (np.asarray(w, dtype=complex) + a)


def gauss_map(params: SurfaceParams, sheet: str, z, region: str = "auto"):
    """Stereographic Gauss map of the immersion at the points of ``sheet``
    over z.  Uses a = -r e^{i pi/4} so the patch projects into x1 <= 0;
    g = -1 at the nodes, |g| = 1 on the chart axes."""
    w = w_on_sheet(params, sheet, z, region)
    return gauss_map_formula(w, -params.r)


def conformality_residual(params: SurfaceParams, sheet: str, z, region: str = "auto"):
    """phi1^2 + phi2^2 + phi3^2 per dz^2 (identically zero on the curve)."""
    f = phi_dz(params, sheet, z, region)
    return f[..., 0] ** 2 + f[..., 1] ** 2 + f[..., 2] ** 2


# ----------------------------------------------------------------------
# Path segments
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """An oriented path s in [0,1] -> z(s) on one sheet of the curve."""

    sheet: str
    region: str
    z_of: Callable[[np.ndarray], np.ndarray]
    dz_ds: Callable[[np.ndarray], np.ndarray]
    label: str


def seg_edge_up_from_zero(sheet: str, m: float) -> Segment:
    """Bottom-edge leg z = i t from the node z=0 out to t = m (t = m s^2)."""
    m = float(m)
    return Segment(
        sheet, "auto",
        lambda s: 1j * m * s * s,
        lambda s: 2j * m * s,
        f"edge_up[0->{m:g}]@{sheet}",
    )


def seg_edge_down_from_zero(sheet: str, m: float) -> Segment:
    """Vertical-edge leg z = -i t from the node z=0 out to t = m <= 1 (t = m s^2)."""
    m = float(m)
    return Segment(
        sheet, "inner",
        lambda s: -1j * m * s * s,
        lambda s: -2j * m * s,
        f"edge_down[0->{m:g}]@{sheet}",
    )


def seg_edge_down_from_infinity(sheet: str, m: float) -> Segment:
    """Vertical-edge leg z = -i t from the node z=oo in to t = m >= 1 (t = m / s^2)."""
    m = float(m)
    return Segment(
        sheet, "outer",
        lambda s: -1j * m / (s * s),
        lambda s: 2j * m / (s * s * s),
        f"edge_down[inf->{m:g}]@{sheet}",
    )


def seg_arc(sheet: str, m: float, th0: float, th1: float) -> Segment:
    """Circular arc z = m e^{i theta}, theta linear from th0 to th1."""
    m, th0, th1 = float(m), float(th0), float(th1)

    def z_of(s):
        return m * np.exp(1j * (th0 + (th1 - th0) * s))

    return Segment(
        sheet, "auto",
        z_of,
        lambda s: 1j * (th1 - th0) * z_of(s),
        f"arc[m={m:g},{th0:.4f}->{th1:.4f}]@{sheet}",
    )


def _tip_substitution(pole: float, start: float):
    """Angle map ``phi(s)`` from ``start`` into the w-pole angle ``pole``, and
    its derivative.

    The map is quadratic in the distance to the pole, phi = pole - (pole -
    start)(1 - s)^2 (a square-root substitution), which makes the integrand
    analytic up to that endpoint.
    """
    d = pole - start

    def phi(s):
        q = 1.0 - s
        return pole - d * q * q

    def dphi(s):
        return 2.0 * d * (1.0 - s)

    return phi, dphi


def _ring_into_pole(sheet: str, region: str, pole: float, label: str) -> Segment:
    """Unit-circle arc z = e^{i theta} from the horizontal quarter point
    theta = pi/2 INTO the w-pole angle ``pole``, with the square-root
    substitution theta = pole - (pole - pi/2)(1-s)^2."""
    theta, dtheta = _tip_substitution(pole, math.pi / 2)

    def z_of(s):
        return np.exp(1j * theta(s))

    return Segment(sheet, region, z_of, lambda s: 1j * dtheta(s) * z_of(s), label)


def seg_ring_left_to_tip(params: SurfaceParams) -> Segment:
    """Upper-left-sheet (inner region) unit-circle arc from theta = pi/2 INTO
    the w-pole at the slit tip theta = pi - rho."""
    return _ring_into_pole(
        "upper_left", "inner", math.pi - params.rho, f"ring[{math.pi / 2:.4f}->tip]"
    )


def seg_slit_bank(params: SurfaceParams, bank: str) -> Segment:
    """Slit-bank arc z = -e^{-i phi} from the vertical quarter point
    phi = -pi/2 INTO the tip phi = rho, with the square-root substitution.

    ``bank="inner"`` is the bank adjoining |z| < 1 (w = +slit_modulus
    e^{-i pi/4}), ``bank="outer"`` the other one (w negated).
    """
    if bank == "inner":
        sheet = "upper_left"
    elif bank == "outer":
        sheet = "lower_right"
    else:
        raise ValueError(f"bank must be 'inner' or 'outer', got {bank!r}")
    phi0 = -math.pi / 2
    phi, dphi = _tip_substitution(params.rho, phi0)

    def z_of(s):
        return -np.exp(-1j * phi(s))

    return Segment(
        sheet, "inner",
        z_of,
        lambda s: 1j * dphi(s) * np.exp(-1j * phi(s)),
        f"slit[{bank},{phi0:.4f}->{params.rho:.4f}]",
    )


def seg_mirror_ring_right(params: SurfaceParams) -> Segment:
    """Upper-right-sheet unit-circle arc from phi = pi/2 INTO that sheet's
    w-pole phi = rho."""
    return _ring_into_pole(
        "upper_right", "auto", params.rho, f"mirror_ring[{math.pi / 2:.4f}->{params.rho:.4f}]"
    )


def reversed_segment(seg: Segment) -> Segment:
    """The same path traversed backwards."""
    return Segment(
        seg.sheet, seg.region,
        lambda s: seg.z_of(1.0 - s),
        lambda s: -seg.dz_ds(1.0 - s),
        f"rev({seg.label})",
    )


# ----------------------------------------------------------------------
# Adaptive Gauss-Legendre path integration (batched GL8/GL16 pairs)
# ----------------------------------------------------------------------


def _symmetric_rule(nodes, weights):
    """A Gauss-Legendre rule on [-1, 1] from its positive nodes and their weights."""
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


# Bit for bit np.polynomial.legendre.leggauss(8) and (16), written out so
# that no run loads numpy.polynomial (and its eigenvalue solve) for them.
_GL8_X, _GL8_W = _symmetric_rule(
    [0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362],
    [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706],
)
_GL16_X, _GL16_W = _symmetric_rule(
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
    [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176],
)

# Bisection waves and live subintervals allowed before a path integral fails.
_MAX_WAVES = 40
_MAX_INTERVALS = 200000


def _gl_nodes(a, b):
    """Half-widths of the pieces [a[k], b[k]], and all their GL8 then GL16 nodes, flat."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    s = [(mid[:, None] + half[:, None] * x[None, :]).ravel() for x in (_GL8_X, _GL16_X)]
    return half, np.concatenate(s)


def _gl_estimates(half, f):
    """GL8/GL16 estimates (I16, err) from the complex (N, 3) values ``f`` at
    :func:`_gl_nodes`.  The real weights sum the real and imaginary parts of
    a float view, which gives the complex sums' bits at a quarter of the
    time."""
    n = len(half)
    parts = f.view(float)
    i8 = np.einsum("k,nkc->nc", _GL8_W, parts[: 8 * n].reshape(n, 8, 6)).view(complex)
    i16 = np.einsum("k,nkc->nc", _GL16_W, parts[8 * n :].reshape(n, 16, 6)).view(complex)
    i8 *= half[:, None]
    i16 *= half[:, None]
    return i16, np.max(np.abs(i16 - i8), axis=1)


def _wave(params, seg, half, s, z, dz):
    """GL8/GL16 estimates (I16, err) on the pieces whose half-widths and
    nodes :func:`_gl_nodes` gave as ``half, s``, from z and dz/ds at ``s``.

    A non-finite value raises :class:`IntegrationError` at its first node in
    the order of ``s``, the GL8 nodes of all pieces before their GL16 nodes.
    """
    vals = phi_dz(params, seg.sheet, z, seg.region) * dz[..., None]
    if not np.all(np.isfinite(vals)):
        bad = int(np.argwhere(~np.isfinite(vals))[0][0])
        raise IntegrationError(f"non-finite integrand on {seg.label} at s={float(s[bad])!r}")
    return _gl_estimates(half, vals)


def _gl_wave(params, seg, a, b):
    """GL8/GL16 estimates (I16, err) on a batch of pieces."""
    half, s = _gl_nodes(a, b)
    return _wave(params, seg, half, s, seg.z_of(s), seg.dz_ds(s))


def _adaptive_pairs(params, seg, a, b, wave, rel_tol, abs_tol) -> np.ndarray:
    """Integrals of all three components over each piece [a[k], b[k]] to the tolerance
    :func:`positions_along` states, from the first :func:`_gl_wave` ``wave`` on them."""
    n_pairs = len(a)
    result = np.zeros((n_pairs, 3), dtype=complex)

    i16, err = wave
    scale = np.maximum(np.max(np.abs(i16), axis=1), np.max(np.abs(i16.sum(axis=0))))
    tol = np.maximum(abs_tol, rel_tol * scale)
    owner = np.arange(n_pairs)

    for _ in range(_MAX_WAVES):
        ok = err <= tol
        if np.any(ok):
            np.add.at(result, owner[ok], i16[ok])
        if np.all(ok):
            return result
        a, b = a[~ok], b[~ok]
        owner, tol = owner[~ok], 0.5 * tol[~ok]
        mid = 0.5 * (a + b)
        a = np.concatenate([a, mid])
        b = np.concatenate([mid, b])
        owner = np.concatenate([owner, owner])
        tol = np.concatenate([tol, tol])
        if len(a) > _MAX_INTERVALS:
            raise IntegrationError(
                f"subdivision explosion on {seg.label}: {len(a)} intervals"
            )
        i16, err = _gl_wave(params, seg, a, b)
    raise IntegrationError(
        f"no convergence on {seg.label}: {len(a)} intervals still failing, "
        f"worst err={float(np.max(err)):.3e} tol={float(np.min(tol)):.3e}"
    )


def _anchored(x0, pieces: np.ndarray) -> np.ndarray:
    """Positions x0, x0 + Re pieces[0], ... (the running sum of the pieces)."""
    out = np.empty((len(pieces) + 1, 3), dtype=float)
    out[0] = np.asarray(x0, dtype=float)
    out[1:] = out[0] + np.cumsum(pieces.real, axis=0)
    return out


def integrate_path(
    params: SurfaceParams,
    segs: Sequence[Segment],
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-14,
) -> np.ndarray:
    """Complex integral of (phi1, phi2, phi3) along a list of segments; shape
    (3,).  Each segment is integrated adaptively on its own to the given
    tolerances."""
    total = np.zeros(3, dtype=complex)
    a, b = np.array([0.0]), np.array([1.0])
    for seg in segs:
        wave = _gl_wave(params, seg, a, b)
        total += _adaptive_pairs(params, seg, a, b, wave, rel_tol, abs_tol)[0]
    return total


def positions_along(
    params: SurfaceParams,
    seg: Segment,
    s_breaks: np.ndarray,
    x0,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-14,
) -> np.ndarray:
    """Real positions X at the given s-breakpoints, anchored at X(s_breaks[0]) = x0.

    Each piece [s_breaks[k], s_breaks[k+1]] is bisected until the gap
    between its GL8 and GL16 estimates, the error estimate of the GL16
    value kept, is at most ``max(abs_tol, rel_tol * scale)``; the tolerance
    halves with each bisection.  ``scale`` is the larger of the piece's own
    size and the net displacement of the segment over all the breakpoints
    (each the largest component modulus).  So X(s_breaks[k]) carries at most
    k such errors: its error is bounded relative to the path, not to the
    short pieces it is summed from.  For one piece the two sizes coincide.

    The path's scale is what lets a piece that ends at a w-pole (the slit
    tip) converge.  The tip substitution makes the integrand analytic up to
    the pole, but its floating-point evaluation there is noisy: the
    integrand is computed from z, a point of modulus 1, which fixes its
    small distance to the pole only up to an absolute rounding error.
    The GL8/GL16 gap of the piece that ends at the pole does not fall below
    about 1e-12 however short the piece (on a slit bank 7.5e-13 for a piece
    of length 1e-2 in s, 1.2e-11 for 1e-3).  Measured against its own size,
    which shrinks with it, that piece would bisect toward the pole until
    the interval limit raised :class:`IntegrationError`; against the path's
    net displacement it passes while it is not much shorter than 1e-3 (on
    the slit banks it passes at 1/800 and fails at 1/900).
    """
    s_breaks = np.asarray(s_breaks, dtype=float)
    a, b = s_breaks[:-1], s_breaks[1:]
    pieces = _adaptive_pairs(params, seg, a, b, _gl_wave(params, seg, a, b), rel_tol, abs_tol)
    return _anchored(x0, pieces)


def arc_positions(
    params: SurfaceParams, sheet: str, th0: float, th1: float, s_breaks: np.ndarray,
    rel_tol: float = 1e-11, abs_tol: float = 1e-14,
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Returns ``positions(m, x0)``, bit for bit ``positions_along(params,
    seg_arc(sheet, m, th0, th1), s_breaks, x0, rel_tol, abs_tol)``, for many
    radii m that share the s-breakpoints.  It shares that function's
    tolerance rule, bisection, errors and running sum; only the first wave's
    nodes and E = e^{i theta} at them are formed once, so a radius costs
    integrand calls at z = m E only.  ``positions`` keeps no state: threads
    may share it."""
    a, b = s_breaks[:-1], s_breaks[1:]
    half, s = _gl_nodes(a, b)
    e = np.exp(1j * (th0 + (th1 - th0) * s))

    def positions(m: float, x0) -> np.ndarray:
        seg = seg_arc(sheet, m, th0, th1)
        z = float(m) * e
        wave = _wave(params, seg, half, s, z, 1j * (th1 - th0) * z)
        return _anchored(x0, _adaptive_pairs(params, seg, a, b, wave, rel_tol, abs_tol))

    return positions


# ----------------------------------------------------------------------
# Distinguished cycles and checks
# ----------------------------------------------------------------------

def alpha_cycle(params: SurfaceParams, n: int = 1024) -> np.ndarray:
    """Real period of the counterclockwise z-circle around the left puncture.

    The radius is a quarter of the puncture's distance to the unit circle,
    to i lam or to e^{i rho}, whichever is least.  The loop crosses the
    bottom chart edge twice, so its two halves live on the two sheets
    meeting there ("upper_left" for Re z <= 0, "lower_left" for Re z >= 0).
    Expected value: (0, 0, +T).  Uses the periodic trapezoid rule (the
    integrand is analytic and periodic in the loop parameter, so
    convergence is spectral).
    """
    lam = params.lam
    center = 1j / lam
    radius = 0.25 * min(1.0 / lam - 1.0, 1.0 / lam - lam, abs(center - np.exp(1j * params.rho)))
    if not 0.0 < radius < 1.0 / lam - 1.0:
        raise ValueError(f"alpha radius {radius!r} leaves the outer region")
    psi = 2.0 * math.pi * np.arange(n) / n
    z = center + radius * np.exp(1j * psi)
    dz = 1j * radius * np.exp(1j * psi)
    vals = np.empty((n, 3), dtype=complex)
    left = z.real <= 0.0
    for mask, sheet in ((left, "upper_left"), (~left, "lower_left")):
        if np.any(mask):
            vals[mask] = phi_dz(params, sheet, z[mask], "outer")
    total = (2.0 * math.pi / n) * np.einsum("nc,n->c", vals, dz)
    return total.real


def descent_axis(params: SurfaceParams) -> np.ndarray:
    """Real displacement along the downward vertical edge from z=0 node to
    the z=oo node (through the far vertical quarter point).  The path is
    pointwise fixed by the x3-axis half-turn, so the expected value is
    (0, 0, -T/2)."""
    segs = [
        seg_edge_down_from_zero("lower_right", 1.0),
        reversed_segment(seg_edge_down_from_infinity("upper_left", 1.0)),
    ]
    return integrate_path(params, segs).real


def vertical_period_gap(params: SurfaceParams) -> np.ndarray:
    """Real period of the homology cycle closing the top-edge loop.

    The cycle is (E + II) - half_turn_x1(E + II): up the right vertical edge
    to the vertical quarter point, along the inner slit bank into the tip,
    then back along the images of both legs under the x1-axis half-turn
    (same z-paths, w negated).  The first component vanishes identically
    (phi1 is even under that half-turn); the other two vanish exactly when
    the two period conditions hold.
    """
    beta = [seg_edge_down_from_zero("upper_left", 1.0), seg_slit_bank(params, "inner")]
    beta_flip = [seg_edge_down_from_zero("lower_right", 1.0), seg_slit_bank(params, "outer")]
    return (integrate_path(params, beta) - integrate_path(params, beta_flip)).real


def period_residual_I(params: SurfaceParams) -> float:
    """Re of the height differential along the right-sheet unit arc from the
    horizontal quarter point (phi = pi/2) into the right w-pole (phi = rho).

    Equals ``(lam sqrt(cos rho) / 2) * F(rho, Lambda)``.
    """
    return float(integrate_path(params, [seg_mirror_ring_right(params)])[2].real)


def period_residual_II(params: SurfaceParams) -> float:
    """Twice the Re of phi2 along the inner slit bank from the vertical
    quarter point (phi = -pi/2) into the tip (phi = rho).

    Equals ``lam sqrt(cos rho) * G(rho, Lambda)``.
    """
    return float(2.0 * integrate_path(params, [seg_slit_bank(params, "inner")])[1].real)


def dh_rate_on_slit_inner(params: SurfaceParams, phis) -> np.ndarray:
    """Re[dh/dphi] along the inner slit bank at the given angles.

    This is the x3-speed of the top-edge track; on the physical branch
    (lam < 1) it is negative throughout, and positive for the diagnostic
    branch lam > 1.
    """
    phis = np.asarray(phis, dtype=float)
    z = -np.exp(-1j * phis)
    dz = 1j * np.exp(-1j * phis)
    f3 = phi_dz(params, "upper_left", z, "inner")[..., 2]
    return (f3 * dz).real


# ----------------------------------------------------------------------
# Point evaluation (for symmetry/homotopy checks)
# ----------------------------------------------------------------------

def x_point(
    params: SurfaceParams,
    sheet: str,
    z: complex,
    route: str = "edge",
) -> np.ndarray:
    """X at the point of ``sheet`` over z, by integrating from the origin node.

    Routes (all avoid the punctures; require |z| < 1/lam):

    - ``"edge"``: out the bottom edge to t = |z|, then the circular arc to z.
    - ``"vertical_inner"`` (|z| < 1): down the right vertical edge, then the
      arc from the lower axis.
    - ``"vertical_outer"`` (1 < |z| < 1/lam): from the z=oo node (anchored at
      (0,0,-T/2)) in along the far vertical edge, then the arc.

    The different routes are homotopic in the punctured torus, so they must
    agree; comparing them is a machinery check.
    """
    z = complex(z)
    m = abs(z)
    if not 0.0 < m < 1.0 / params.lam:
        raise ValueError(f"|z|={m!r} outside (0, 1/lam)")
    if sheet in ("upper_left", "lower_right"):
        theta = float(lift_angle_left(z))
        up_angle, down_angle = math.pi / 2, 3.0 * math.pi / 2
    elif sheet in ("upper_right", "lower_left"):
        theta = math.atan2(z.imag, z.real)
        up_angle, down_angle = math.pi / 2, -math.pi / 2
    else:
        raise ValueError(f"unknown sheet {sheet!r}")

    x0 = np.zeros(3)
    segs: List[Segment] = []
    if route == "edge":
        segs.append(seg_edge_up_from_zero(sheet, m))
        start = up_angle
    elif route == "vertical_inner":
        if m >= 1.0:
            raise ValueError("vertical_inner route requires |z| < 1")
        segs.append(seg_edge_down_from_zero(sheet, m))
        start = down_angle
    elif route == "vertical_outer":
        if m <= 1.0:
            raise ValueError("vertical_outer route requires |z| > 1")
        x0 = np.array([0.0, 0.0, -0.5 * params.T])
        segs.append(seg_edge_down_from_infinity(sheet, m))
        start = down_angle
    else:
        raise ValueError(f"unknown route {route!r}")
    if theta != start:
        segs.append(seg_arc(sheet, m, start, theta))
    return x0 + integrate_path(params, segs).real


# ----------------------------------------------------------------------
# Closed-form edge rates and anchors
# ----------------------------------------------------------------------

def x2_rate_edge(params: SurfaceParams, t):
    """d(x2)/dt along the bottom edge on the left-upper sheet (z = i t).

    Purely real and strictly negative; phi1 and phi3 have no real part
    there, so the edge maps into lines parallel to the x2-axis.
    """
    t = np.asarray(t, dtype=float)
    tau = tau_horizontal(params, t)
    s_fac = t + 1.0 / t + params.Lambda - 4.0 * math.sin(params.rho)
    return -tau * s_fac / (2.0 * (t - 1.0 / params.lam) ** 2)


def x3_rate_vertical(params: SurfaceParams, t):
    """d(x3)/dt along the right vertical edge (z = -i t, w on the near bank).

    Purely real and positive; the vertical edges map into the x3-axis.
    """
    t = np.asarray(t, dtype=float)
    tau_v = tau_vertical(params, t)
    return (t + params.lam) * tau_v / (2.0 * t * (t + 1.0 / params.lam))


def _edge_integral(name: str, params: SurfaceParams, rate, m: float, tail: bool) -> float:
    """Integral of ``rate(t)`` from 0 to m, or from m out to oo with ``tail``
    (in s = 1/t), at the period integrals' policy ``PERIOD_SPEC``;
    :class:`IntegrationError` if it missed its tolerance."""
    spec = period_solver.PERIOD_SPEC
    if tail:
        def integrand(s, da, db):
            t = 1.0 / s
            return rate(t) * t * t

        res = integrate(integrand, 0.0, 1.0 / float(m), spec)
    else:
        res = integrate(lambda t, da, db: rate(t), 0.0, float(m), spec)
    if not res.converged:
        raise IntegrationError(
            f"{name}(m={m!r}) at rho={params.rho!r}, lam={params.lam!r} did not converge: "
            f"error estimate {res.error_estimate:.3e} at level {res.levels_used}"
        )
    return float(res.value)


def x2_H1(params: SurfaceParams, m: float) -> float:
    """Total |x2| progress along the bottom edge from the node to t = m < 1/lam."""
    if not 0.0 < m < 1.0 / params.lam:
        raise ValueError(f"m={m!r} outside (0, 1/lam)")
    return _edge_integral("x2_H1", params, lambda t: -x2_rate_edge(params, t), m, tail=False)


def x2_H2(params: SurfaceParams, m: float) -> float:
    """Remaining |x2| along the bottom edge from t = m > 1/lam out to the node at oo."""
    if not m > 1.0 / params.lam:
        raise ValueError(f"m={m!r} must exceed 1/lam")
    return _edge_integral("x2_H2", params, lambda t: -x2_rate_edge(params, t), m, tail=True)


def x3_E(params: SurfaceParams, m: float) -> float:
    """x3 rise along the right vertical edge from the node to t = m."""
    if m <= 0.0:
        raise ValueError("m must be positive")
    return _edge_integral("x3_E", params, lambda t: x3_rate_vertical(params, t), m, tail=False)


def x3_E_tail(params: SurfaceParams, m: float) -> float:
    """Integral of the vertical-edge x3 rate from t = m out to oo."""
    if m <= 0.0:
        raise ValueError("m must be positive")
    return _edge_integral("x3_E_tail", params, lambda t: x3_rate_vertical(params, t), m, tail=True)


def axis_rise(params: SurfaceParams) -> float:
    """Height of the near vertical quarter point on the x3-axis (= x3_E(1))."""
    return x3_E(params, 1.0)


def x3_Ehat(params: SurfaceParams, m: float) -> float:
    """x3 of the far vertical edge point z = -i m (m is its own t >= 1).

    The far edge descends from the z=oo node at (0,0,-T/2) with the negated
    w, so x3 = -T/2 + x3_E_tail(m); at m = 1 this is -axis_rise.
    """
    return -0.5 * params.T + x3_E_tail(params, m)


def tip_position(params: SurfaceParams) -> np.ndarray:
    """X at the left w-pole (the slit tip), expected on the negative x1-axis.

    Integrates out the bottom edge to the unit circle and along the interior
    gluing arc into the tip; the point is fixed by the x1-axis half-turn, so
    its x2 and x3 vanish.  The last leg is integrated one digit tighter than
    the other fixed paths (rel_tol 1e-12, abs_tol 1e-15).
    """
    x0 = np.array([0.0, -x2_H1(params, 1.0), 0.0])
    return x0 + integrate_path(params, [seg_ring_left_to_tip(params)], 1e-12, 1e-15).real
