"""Numerical re-checks of the surface's global geometric claims.

Every check re-derives its target quantity from the analytic building
blocks (closed-form coordinate integrals, pointwise rate identities,
independent path integration) rather than trusting the mesh pipeline,
and reports a named, tolerance-tagged pass/fail record.  The full suite
at the solved parameter pair is expected to pass with zero failures;
two *diagnostic* checks confirm the sign obstructions that rule out the
out-of-branch regimes (``lam > 1`` and ``rho <= 0``) and are excluded
from the headline failure count.

Checks, in fixed report order:

1.  ``x3_monotone_on_C``       - height strictly decreases along the
    slit curve C from ``+a`` to ``-a`` through 0 at the tip.
2.  ``c_convex``               - the planar projection c of C is convex:
    constant-sign turning, total turning in (pi, 2*pi), mirror-symmetric
    across the x1-axis, contained in {x1 <= 0}, endpoints at the origin.
3.  ``graph_disjointness``     - the patch graph F and its mirror graph
    ``F_hat(x1,x2) = -F(x1,-x2)`` satisfy ``F_hat > F`` strictly off the
    curve c, meet only on c, and keep an order-T/2 gap far out.
4.  ``slab_and_boundary``      - the five boundary pieces are the
    advertised axis segments, horizontal rays, and slit curve, and the
    patch closure stays inside the slab ``-T/2 <= x3 <= a``.
5.  ``limit_constants``        - the two closed-form constants
    (-1.2067... and 1.1547...) that bound the vertical-period integral
    near the upper corner of the parameter interval, with the full
    inequality chain recomputed by quadrature.
6.  ``lambda_above_one_reversal``   [diagnostic] - for ``lam = 1.5`` the
    height rate along the slit curve is strictly positive everywhere,
    so the monotone scan reverses and the regime cannot close.
7.  ``rho_nonpositive_single_sign`` [diagnostic] - for ``rho <= 0`` the
    vertical-period integrand keeps a single strict sign, so the period
    cannot vanish.

Determinism: all sampling grids are fixed; no randomness enters.  The
JSON serialisation excludes wall-clock runtimes, so reports are
byte-identical across runs on one platform; runtimes appear only in the
human-readable table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Tuple

import numpy as np

from . import blocks

# perfbench traces verify.json_text by name, and its wrapper also times cli's calls
from .cli import json_text
from .mesh import SurfaceMesh, mesh_patch_D
from .params import SurfaceParams
from .period_solver import PERIOD_SPEC, G_integrand_samples, require_converged, scan_H
from .quadrature import integrate
from .weierstrass import (
    axis_rise,
    descent_axis,
    dh_rate_on_slit_inner,
    phi_dz,
    positions_along,
    seg_slit_bank,
    tip_position,
    x2_H1,
    x2_H2,
    x2_rate_edge,
    x3_E,
    x3_E_tail,
    x3_Ehat,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_x3_monotone_on_C",
    "check_c_convex",
    "check_graph_disjointness",
    "check_slab_and_boundary",
    "check_limit_constants",
    "check_lambda_above_one_reversal",
    "check_rho_nonpositive_single_sign",
    "run_all",
    "json_text",
]

# Default tolerances: geometric identities scale with the period T;
# monotonicity uses an absolute per-step slack; strict sign claims must
# clear a floor an order of magnitude above the numerical noise level.
GEOM_TOL_FACTOR = 1e-8
MONOTONE_STEP_SLACK = 1e-10
SIGN_FLOOR_FACTOR = 1e-12


# --------------------------------------------------------------------------
# report containers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named verification check with its headline number."""

    name: str
    anchor: str  # plain-language statement of the claim being checked
    quantity: str  # what `value` measures
    value: float
    tolerance: float
    passed: bool
    details: Mapping[str, float]
    diagnostic: bool = False
    runtime_s: float = 0.0  # set by run_all


@dataclass(frozen=True)
class VerificationReport:
    """Ordered check results and the parameters they were run at."""

    params: SurfaceParams
    checks: Tuple[CheckResult, ...]

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed and not c.diagnostic)

    @property
    def n_failed_diagnostic(self) -> int:
        return sum(1 for c in self.checks if not c.passed and c.diagnostic)

    def passed(self) -> bool:
        """True when every non-diagnostic check passed."""
        return self.n_failed == 0

    def to_dict(self) -> Dict[str, object]:
        checks = [
            {
                "name": c.name,
                "anchor": c.anchor,
                "quantity": c.quantity,
                "value": c.value,
                "tolerance": c.tolerance,
                "passed": bool(c.passed),
                "diagnostic": bool(c.diagnostic),
                "details": {k: float(v) for k, v in c.details.items()},
            }
            for c in self.checks
        ]
        return {
            "rho0": self.params.rho,
            "lambda0": self.params.lam,
            "Lambda0": self.params.Lambda,
            "T": self.params.T,
            "n_failed": self.n_failed,
            "n_failed_diagnostic": self.n_failed_diagnostic,
            "passed": self.passed(),
            "checks": checks,
        }

    def table(self) -> str:
        """Human-readable fixed-width table, one line per check."""
        header = f"{'check':34s} {'status':8s} {'value':>13s} {'tolerance':>10s} {'time':>8s}"
        lines = [header, "-" * len(header)]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            if c.diagnostic:
                status += "*"
            lines.append(
                f"{c.name:34s} {status:8s} {c.value:13.4e} {c.tolerance:10.1e} "
                f"{c.runtime_s:7.2f}s"
            )
        lines.append("-" * len(header))
        lines.append(
            f"failures: {self.n_failed} (+{self.n_failed_diagnostic} diagnostic)   "
            f"[* = diagnostic check of an out-of-branch regime]"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------------
# shared sampling helpers
# --------------------------------------------------------------------------


def _sample_slit_curve(
    params: SurfaceParams, n: int
) -> Tuple[np.ndarray, int, float]:
    """Positions along the slit curve C from (0,0,a) to (0,0,-a).

    Both banks are integrated from their own axis anchors (0, 0, +a)
    and (0, 0, -a) toward the slit tip, so the two chains are fully
    independent; the gap between their tip landings is returned as a
    closure residual.  Returns ``(points, m, tip_gap)`` where
    ``points`` has ``2*m + 1`` rows, the tip sits at row ``m``, and row
    ``k`` pairs with row ``2*m - k`` under the mirror map
    (x1, x2, x3) -> (x1, -x2, -x3): both banks share the square-root
    tip substitution, so equal parameter offsets from the tip land on
    mirror-image points.  Each bank is integrated in ``m = n // 2`` pieces.
    """
    m = n // 2
    s = np.linspace(0.0, 1.0, m + 1)
    a = axis_rise(params)
    seg_in = seg_slit_bank(params, "inner")
    pos_in = positions_along(params, seg_in, s, np.array([0.0, 0.0, a]))
    seg_out = seg_slit_bank(params, "outer")
    pos_out = positions_along(params, seg_out, s, np.array([0.0, 0.0, -a]))
    tip_gap = float(np.linalg.norm(pos_in[-1] - pos_out[-1]))
    return np.vstack([pos_in, pos_out[-2::-1]]), m, tip_gap


def _turning_angles(poly: np.ndarray) -> np.ndarray:
    """Signed exterior angles at the interior vertices of a 2D polyline."""
    e = np.diff(np.asarray(poly, dtype=float), axis=0)
    cross = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
    dot = e[:-1, 0] * e[1:, 0] + e[:-1, 1] * e[1:, 1]
    return np.arctan2(cross, dot)


def _polyline_diameter(pts: np.ndarray) -> float:
    pts = np.asarray(pts, dtype=float)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    return float(math.sqrt(d2.max()))


# --------------------------------------------------------------------------
# check 1: height monotone along the slit curve
# --------------------------------------------------------------------------


def check_x3_monotone_on_C(params: SurfaceParams) -> CheckResult:
    """Height strictly decreases along C from +a through 0 to -a.

    Samples 1001 points over both slit banks by independent path
    integration, each bank anchored at its own axis endpoint
    (0, 0, +/-a), then checks every consecutive step decreases (slack
    ``1e-10`` per step), the tip midpoint sits at height 0, and the two
    independently integrated banks land on the same tip point (which
    certifies that the full traverse from +a does reach -a).
    """
    # 500 pieces per bank keep a step's error (8e-12) under MONOTONE_STEP_SLACK
    # and the tip gap (8e-9) under GEOM_TOL_FACTOR * T; not more, because the
    # piece that ends at the tip carries rounding noise and fails from 900.
    pts, m, tip_gap = _sample_slit_curve(params, 1000)
    x3 = pts[:, 2]
    steps = np.diff(x3)
    worst_step = float(steps.max())
    middle = np.sort(steps)[[(len(steps) - 1) // 2, len(steps) // 2]]  # np.median loads numpy.ma
    a = axis_rise(params)
    geom_tol = GEOM_TOL_FACTOR * params.T
    tip_residual = float(abs(x3[m]))
    passed = (
        worst_step < MONOTONE_STEP_SLACK
        and tip_residual < geom_tol
        and tip_gap < geom_tol
    )
    return CheckResult(
        name="x3_monotone_on_C",
        anchor="height is strictly decreasing along the slit curve C, "
        "from +a at the upper axis point to -a at the lower one, "
        "crossing 0 at the tip",
        quantity="largest height increase over one sampling step",
        value=worst_step,
        tolerance=MONOTONE_STEP_SLACK,
        passed=bool(passed),
        details={
            "n_samples": float(len(pts)),
            "median_step": float(middle.mean()),
            "tip_height_residual": tip_residual,
            "tip_closure_gap": tip_gap,
            "axis_rise_a": a,
        },
    )


# --------------------------------------------------------------------------
# check 2: convexity of the projected slit curve
# --------------------------------------------------------------------------


def check_c_convex(params: SurfaceParams) -> CheckResult:
    """The planar projection c of the slit curve is convex.

    Samples 721 points as :func:`check_x3_monotone_on_C` does.  Verifies:
    endpoints at the origin; tangent turning of one constant sign at every
    interior sample; total turning strictly between pi and 2*pi; mirror
    symmetry c(t) = (x1, -x2)(c(-t)); containment in the half plane
    {x1 <= 0}.
    """
    pts, m, _tip_gap = _sample_slit_curve(params, 720)
    c = pts[:, :2]
    geom_tol = GEOM_TOL_FACTOR * params.T

    turning = _turning_angles(c)
    total_turn = float(turning.sum())
    sign = 1.0 if total_turn >= 0 else -1.0
    sign_violation = float((-sign * turning).max())  # > 0 means a wrong-sign turn
    endpoints = float(max(np.hypot(*c[0]), np.hypot(*c[-1])))

    # rows k and 2m-k are parameter mirrors; compare (x1, x2) to (x1, -x2)
    mirrored = pts[::-1].copy()
    mirrored[:, 1] *= -1.0
    mirror_residual = float(np.abs(pts[:, :2] - mirrored[:, :2]).max())

    max_x1 = float(c[:, 0].max())
    turn_in_range = math.pi < abs(total_turn) < 2.0 * math.pi
    passed = (
        endpoints < geom_tol
        and sign_violation <= SIGN_FLOOR_FACTOR
        and turn_in_range
        and mirror_residual < geom_tol
        and max_x1 < geom_tol
    )
    return CheckResult(
        name="c_convex",
        anchor="the planar projection c of the slit curve is a convex arc "
        "from the origin back to the origin, turning between pi and 2*pi, "
        "mirror-symmetric across the x1-axis, inside {x1 <= 0}",
        quantity="total tangent turning along c (radians)",
        value=abs(total_turn),
        tolerance=2.0 * math.pi,
        passed=bool(passed),
        details={
            "total_turning": total_turn,
            "turning_lower_bound": math.pi,
            "worst_wrong_sign_turn": sign_violation,
            "min_abs_turn": float(np.abs(turning).min()),
            "endpoint_residual": endpoints,
            "mirror_residual": mirror_residual,
            "max_x1": max_x1,
            "n_samples": float(len(c)),
        },
    )


# --------------------------------------------------------------------------
# check 3: graph disjointness F_hat > F off the curve c
# --------------------------------------------------------------------------


#: Patch faces whose lattice candidates :class:`_GraphLattice` forms as one
#: block, and the candidates it scores at a time.  Each holds a process peak
#: (MB, the constant unbounded against these sizes, medians of 6 alternating
#: runs, each child's ru_maxrss read with os.wait4 by a small parent; Python
#: 3.11, numpy 2.4, x86-64 Linux): faces, `verify --verify-grid 100` 36.53
#: against 34.51; candidates, `verify --verify-grid 1000` 40.65 against 35.81.
_FACES_PER_BLOCK = 1 << 10
_CANDIDATES_PER_CHUNK = 1 << 12

#: Point-segment pairs that :func:`_lens_masks` tests at a time: unbounded,
#: `verify --verify-grid 1000` peaked at 47.59 MB against 35.81 MB.
_PAIRS_PER_BLOCK = 1 << 12

#: Lattice points that :func:`_lattice_gaps` reads as one band of whole rows
#: (at least one row); up to grid 128 the lattice is one band.  Unbounded,
#: `verify --verify-grid 1000` peaked at 112.63 MB against 35.81 MB; in
#: bands of 65,536 points, grid 300 and 1000 peaked 4 and 5 MB above grid
#: 100, in bands of 16,384 within 1.5 MB of it.
_POINTS_PER_BAND = 1 << 14


def _frames(tri: np.ndarray):
    """Per triangle of ``tri`` (B, 3, 3): its first vertex projected, its two
    projected edge vectors from there, and their determinant."""
    p0 = tri[:, 0, :2]
    d1 = tri[:, 1, :2] - p0
    d2 = tri[:, 2, :2] - p0
    return p0, d1, d2, d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


class _GraphLattice:
    """Heights of the patch graph on the lattices ``(xs[i], ys[j])``, one per
    ``ys`` in ``yss``, a band of rows at a time; NaN where no projected
    triangle holds the point.

    ``xs`` and each ``ys`` ascend.  Each triangle is tested at the lattice
    points inside its bounding box; it holds a point when all three
    barycentrics are at least ``-1e-9``, and a degenerate triangle holds
    none.  Of the triangles that hold a point, the lowest-indexed one with
    the largest ``min(u, v, w)`` (the most interior) gives the height, which
    settles points on shared edges.

    The boxes, as index ranges into the lattices, are formed once.  A band
    reads the faces whose boxes reach it ``_FACES_PER_BLOCK`` at a time, and
    a block's (triangle, lattice point) candidates, in face order, are
    scored ``_CANDIDATES_PER_CHUNK`` at a time.  A chunk replaces a point's
    running best only with a strictly larger score, so the lowest-indexed
    triangle keeps a tie across chunks and blocks.  Every value is formed
    point by point, so a band holds the bits of the whole lattice's rows.
    """

    def __init__(self, patch: SurfaceMesh, xs: np.ndarray, yss):
        faces = patch.faces
        # per face: rows [i0, i1) of xs, then columns [j0, j1) of each ys
        boxes = np.empty((len(faces), 2 + 2 * len(yss)), dtype=np.int32)
        for block, box in zip(blocks(faces, _FACES_PER_BLOCK), blocks(boxes, _FACES_PER_BLOCK)):
            tri = patch.vertices[block]
            lo, hi = tri[:, :, :2].min(axis=1), tri[:, :, :2].max(axis=1)
            for col, (c, axis) in enumerate([(0, xs)] + [(1, ys) for ys in yss]):
                box[:, 2 * col] = np.searchsorted(axis, lo[:, c])
                box[:, 2 * col + 1] = np.searchsorted(axis, hi[:, c], side="right")
            # degenerate triangles get no rows
            off = ~(np.abs(_frames(tri)[3]) > 1e-300)
            box[off, 1] = box[off, 0]
        self.vertices, self.faces, self.boxes, self.xs, self.yss = (
            patch.vertices, faces, boxes, xs, yss
        )

    def heights(self, lattice: int, r0: int, r1: int) -> np.ndarray:
        """Heights on rows ``r0:r1`` of the lattice ``(xs, yss[lattice])``."""
        xs, ys = self.xs[r0:r1], self.yss[lattice]
        i0 = np.maximum(self.boxes[:, 0], r0) - r0
        i1 = np.minimum(self.boxes[:, 1], r1) - r0
        j0, j1 = self.boxes[:, 2 + 2 * lattice], self.boxes[:, 3 + 2 * lattice]
        best = np.full(len(xs) * len(ys), -np.inf)
        heights = np.full(len(xs) * len(ys), np.nan)
        for ids in blocks(np.flatnonzero((i0 < i1) & (j0 < j1)), _FACES_PER_BLOCK):
            tri = self.vertices[self.faces[ids]]  # (B, 3, 3)
            p0, d1, d2, det = _frames(tri)
            inv_det = 1.0 / det
            box_i, box_j, nj = i0[ids], j0[ids], j1[ids] - j0[ids]
            counts = (i1[ids] - box_i) * nj
            ends, total = np.cumsum(counts), int(counts.sum())
            for chunk in blocks(range(total), _CANDIDATES_PER_CHUNK):
                # candidate n is entry n - (ends[t] - counts[t]) of triangle t's box
                n = np.arange(chunk.start, chunk.stop)
                t = np.searchsorted(ends, n, side="right")
                k = n - (ends[t] - counts[t])
                i, j = box_i[t] + k // nj[t], box_j[t] + k % nj[t]
                rel_x, rel_y = xs[i] - p0[t, 0], ys[j] - p0[t, 1]
                u = (rel_x * d2[t, 1] - rel_y * d2[t, 0]) * inv_det[t]
                v = (d1[t, 0] * rel_y - d1[t, 1] * rel_x) * inv_det[t]
                w = 1.0 - u - v
                inside = (u >= -1e-9) & (v >= -1e-9) & (w >= -1e-9)
                t, u, v, w = t[inside], u[inside], v[inside], w[inside]
                point = i[inside] * len(ys) + j[inside]
                score = np.minimum(np.minimum(u, v), w)
                # per point, the chunk's lowest triangle index with the largest score
                order = np.lexsort((t, -score, point))
                top = order[np.flatnonzero(np.diff(point[order], prepend=-1))]
                top = top[score[top] > best[point[top]]]
                z = tri[t[top], :, 2]
                best[point[top]] = score[top]
                heights[point[top]] = z[:, 0] * w[top] + z[:, 1] * u[top] + z[:, 2] * v[top]
        return heights.reshape(len(xs), len(ys))


def point_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd ray-cast test; ``points`` (N,2), ``polygon`` (M,2) closed or
    open (the closing edge is implied).  Boundary points are unspecified."""
    pts = np.asarray(points, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    if np.linalg.norm(poly[0] - poly[-1]) > 0:
        poly = np.vstack([poly, poly[0]])
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    x0, y0 = poly[:-1, 0][None, :], poly[:-1, 1][None, :]
    x1, y1 = poly[1:, 0][None, :], poly[1:, 1][None, :]
    straddle = (y0 <= y) != (y1 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
    hits = straddle & (x_cross > x)
    return np.sum(hits, axis=1) % 2 == 1


def distance_to_polyline(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Euclidean distance from each 2D point to an open 2D polyline."""
    pts = np.asarray(points, dtype=float)
    poly = np.asarray(polyline, dtype=float)
    a, b = poly[:-1], poly[1:]
    ab = b - a
    denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    diff = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pke,ke->pk", diff, ab) / denom[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[..., None] * ab[None, :, :]
    d = np.linalg.norm(pts[:, None, :] - proj, axis=2)
    return d.min(axis=1)


def _lens_masks(
    pts: np.ndarray, poly: np.ndarray, margin: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the points inside the polygon ``poly`` and of the points
    nearer than ``margin`` to it as a polyline.

    A point outside the polyline's bounding box widened by ``margin`` is at
    least ``margin`` away, and outside the polygon (its ray crosses an even
    number of edges), so only the points inside that box are tested, about
    ``_PAIRS_PER_BLOCK / len(poly)`` at a time.
    """
    box = np.flatnonzero(
        np.all((pts >= poly.min(axis=0) - margin) & (pts <= poly.max(axis=0) + margin), axis=1)
    )
    inside = np.zeros(len(pts), dtype=bool)
    near = np.zeros(len(pts), dtype=bool)
    for ids in blocks(box, max(1, _PAIRS_PER_BLOCK // len(poly))):
        inside[ids] = point_in_polygon(pts[ids], poly)
        near[ids] = distance_to_polyline(pts[ids], poly) < margin
    return inside, near


def _lattice_gaps(
    patch: SurfaceMesh, c_poly: np.ndarray, margin: float, L: float, half_T: float, grid: int
) -> Dict[str, float]:
    """The counts and gap extremes of :func:`check_graph_disjointness` on
    its ``grid x grid`` lattice, read in bands of whole rows.

    Only counts and exact minima and maxima carry from one band to the
    next, so the bands give the values of one pass over the lattice.
    """
    xs = -L + (np.arange(grid) + 0.5) * (L / grid)  # in (-L, 0), strictly x1 < 0
    ys = -L + (np.arange(grid) + 0.5) * (2.0 * L / grid)  # in (-L, L)
    lattices = _GraphLattice(patch, xs, (ys, -ys[::-1]))
    out = dict.fromkeys(("n_inside", "n_near", "misses", "n_checked", "n_far"), 0)
    out.update(min_gap=math.inf, far_min=math.inf, far_max=-math.inf, far_dev=-math.inf)
    for band in blocks(range(grid), max(1, _POINTS_PER_BAND // grid)):
        r0, r1 = band.start, band.stop
        pts = np.column_stack([np.repeat(xs[r0:r1], len(ys)), np.tile(ys, r1 - r0)])
        inside, near = _lens_masks(pts, c_poly, margin)
        kept = ~inside & ~near
        F_vals = lattices.heights(0, r0, r1).ravel()[kept]
        F_hat = -lattices.heights(1, r0, r1)[:, ::-1].ravel()[kept]
        ok = ~np.isnan(F_vals) & ~np.isnan(F_hat)
        gaps = F_hat[ok] - F_vals[ok]
        # far field: gap of order T/2
        far_gaps = gaps[np.hypot(*pts[np.flatnonzero(kept)[ok]].T) >= L]
        out["n_inside"] += int(np.sum(inside))
        out["n_near"] += int(np.sum(near & ~inside))
        out["misses"] += int(np.isnan(F_vals).sum() + np.isnan(F_hat).sum())
        out["n_checked"] += len(gaps)
        out["n_far"] += len(far_gaps)
        if len(gaps):
            out["min_gap"] = min(out["min_gap"], float(gaps.min()))
        if len(far_gaps):
            out["far_min"] = min(out["far_min"], float(far_gaps.min()))
            out["far_max"] = max(out["far_max"], float(far_gaps.max()))
            out["far_dev"] = max(out["far_dev"], float(np.abs(far_gaps - half_T).max()))
    if not out["n_checked"]:
        out["min_gap"] = math.nan
    if not out["n_far"]:
        out.update(far_min=math.nan, far_max=math.nan, far_dev=math.nan)
    return out


def check_graph_disjointness(
    params: SurfaceParams, patch: SurfaceMesh, grid: int = 100
) -> CheckResult:
    """The mirror graph stays strictly above the base graph off c.

    ``patch`` is the :func:`mesh_patch_D` patch at ``params``.  Samples a
    ``grid x grid`` rectangle of cell centres on ``[-L, 0] x [-L, L]`` with
    ``L = 5 * diameter(c)``, discards points inside the polygon c or within
    ``0.05 * diameter(c)`` of it, and compares the patch height F against the
    mirrored height ``F_hat(x1, x2) = -F(x1, -x2)``.  Both are read off the
    projected patch triangles by :class:`_GraphLattice`: F on the lattice
    itself and F_hat on the lattice mirrored across the x1-axis, each point
    by barycentric interpolation in the triangles whose bounding boxes hold
    it; a point that no triangle holds counts as a lookup miss and fails
    the check.  The lattice is read in bands of whole rows, at most
    ``_POINTS_PER_BAND`` points each (one band up to grid 128), so the
    check's memory does not grow with the grid.  Off-curve strictness
    requires the minimal gap to clear a floor well above interpolation noise;
    equality on c itself is certified by the height antisymmetry of the slit
    curve (exact path integration, no interpolation).  Far-field samples must
    show the order-T/2 gap.
    """
    if grid < 10:
        raise ValueError("grid must be at least 10")
    T = params.T
    c_poly = np.asarray(patch.boundary_polylines["c"])[:, :2]
    diam = _polyline_diameter(c_poly)
    L = 5.0 * diam
    margin = 0.05 * diam

    lattice = _lattice_gaps(patch, c_poly, margin, L, T / 2.0, grid)

    # strictness floor: far above interpolation noise, far below the
    # smallest genuine gap at the margin ring
    noise = float(patch.metadata.get("worst_x1_closed_form_dev", 0.0))
    sign_floor = max(10.0 * noise, 1e-7 * T)

    # equality on c: height antisymmetry of C under the far-bank mirror,
    # certified by independent path integration of both banks
    curve_pts, m, _tip_gap = _sample_slit_curve(params, 400)
    equality_residual = float(np.abs(curve_pts[:, 2] + curve_pts[::-1, 2]).max())
    geom_tol = GEOM_TOL_FACTOR * T

    # boundary rays: base graph vanishes on the negative x2-axis, the
    # mirror graph sits at +T/2 there (base graph at -T/2 on the
    # positive ray)
    h1 = np.asarray(patch.boundary_polylines["H1"])
    h2 = np.asarray(patch.boundary_polylines["H2"])
    neg_axis_residual = float(np.abs(h1[:, 2]).max())
    pos_axis_residual = float(np.abs(h2[:, 2] + T / 2.0).max())

    passed = (
        lattice["misses"] == 0
        and lattice["n_checked"] > 0
        and lattice["min_gap"] > sign_floor
        and equality_residual < geom_tol
        and neg_axis_residual < geom_tol
        and pos_axis_residual < geom_tol
        and lattice["n_far"] > 0
        and lattice["far_dev"] < T / 4.0
    )
    return CheckResult(
        name="graph_disjointness",
        anchor="off the curve c the mirrored graph lies strictly above the "
        "base graph (F_hat > F); the two heights agree only on c; far from "
        "the axis the gap approaches T/2",
        quantity="minimal gap F_hat - F over the kept grid samples",
        value=lattice["min_gap"],
        tolerance=sign_floor,
        passed=bool(passed),
        details={
            "grid_side": float(grid),
            "n_grid": float(grid * grid),
            "n_inside_c": float(lattice["n_inside"]),
            "n_near_c": float(lattice["n_near"]),
            "n_checked": float(lattice["n_checked"]),
            "n_lookup_misses": float(lattice["misses"]),
            "sign_floor": sign_floor,
            "margin": margin,
            "L": L,
            "curve_diameter": diam,
            "equality_on_c_residual": equality_residual,
            "neg_axis_residual": neg_axis_residual,
            "pos_axis_half_T_residual": pos_axis_residual,
            "n_far": float(lattice["n_far"]),
            "far_gap_min": lattice["far_min"],
            "far_gap_max": lattice["far_max"],
            "far_gap_dev_from_half_T": lattice["far_dev"],
            "half_T": T / 2.0,
        },
    )


# --------------------------------------------------------------------------
# check 4: boundary pieces and slab confinement
# --------------------------------------------------------------------------


def _edge_transverse_residual(
    params: SurfaceParams, zs: np.ndarray, tangent: complex, region: str, active: int
) -> float:
    """The largest off-component of the rates Re[phi * tangent] along an
    edge, relative to the largest ``active`` component."""
    rates = np.real(phi_dz(params, "upper_left", zs, region=region) * tangent)
    scale = float(np.abs(rates[:, active]).max())
    off = [k for k in range(3) if k != active]
    residual = float(np.abs(rates[:, off]).max())
    return residual / max(scale, 1e-300)


def check_slab_and_boundary(params: SurfaceParams) -> CheckResult:
    """All five boundary pieces behave as advertised; slab confinement.

    Pieces: the two vertical-axis segments (heights [0, a] and
    [-T/2, -a]), the two horizontal rays (negative x2-axis at height 0,
    positive x2-axis at height -T/2), and the slit curve C joining
    (0,0,a) to (0,0,-a) inside {x1 <= 0}.  Transversality is checked at 64
    points per edge (the off-axis rate components vanish identically along
    the edges), anchors by independent path integration.
    """
    T = params.T
    a = axis_rise(params)
    geom_tol = GEOM_TOL_FACTOR * T
    rate_tol = 1e-11
    t_in = np.linspace(0.02, 0.98, 64)
    t_mid = np.linspace(1.02, 1.0 / params.lam - 0.02, 64)
    t_out = np.geomspace(1.0 / params.lam + 0.05, 50.0, 64)
    t_far = np.geomspace(1.02, 50.0, 64)

    # horizontal edge (z = +i t): only the x2-rate may be nonzero
    transverse_residual = max(
        _edge_transverse_residual(params, 1j * t_in, 1j, "inner", 1),
        _edge_transverse_residual(params, 1j * t_mid, 1j, "outer", 1),
        _edge_transverse_residual(params, 1j * t_out, 1j, "outer", 1),
        # vertical edge (z = -i t): only the x3-rate may be nonzero
        _edge_transverse_residual(params, -1j * t_in, -1j, "inner", 2),
        _edge_transverse_residual(params, -1j * t_far, -1j, "outer", 2),
    )

    # axis anchors: full descent lands at (0, 0, -T/2); the two segment
    # heights split the descent at -a
    descent = descent_axis(params)
    descent_residual = float(
        np.abs(descent - np.array([0.0, 0.0, -T / 2.0])).max()
    )
    split_residual = abs(a + x3_E_tail(params, 1.0) - T / 2.0)
    lower_top_residual = abs(x3_Ehat(params, 1.0) + a)

    # segment ranges: heights increase 0 -> a inner, -T/2 -> -a outer
    e_heights = np.array([x3_E(params, m) for m in np.linspace(0.1, 1.0, 10)])
    eh_heights = np.array([x3_Ehat(params, m) for m in np.geomspace(1.0, 40.0, 10)])
    e_range_ok = (
        np.all(np.diff(e_heights) > 0)
        and -geom_tol < e_heights[0]
        and e_heights[-1] < a + geom_tol
    )
    eh_range_ok = (
        np.all(np.diff(eh_heights) < 0)
        and eh_heights[0] < -a + geom_tol
        and -T / 2.0 - geom_tol < eh_heights[-1]
    )

    # horizontal rays: x2 strictly advances outward on both sides
    ray_rate_max = float(np.max(x2_rate_edge(params, np.linspace(0.05, 0.95, 32))))
    h1_vals = np.array([x2_H1(params, m) for m in (0.3, 0.6, 0.9, 0.99 / params.lam)])
    h2_vals = np.array([x2_H2(params, m) for m in (1.05 / params.lam, 2.5, 5.0, 20.0)])
    rays_ok = (
        ray_rate_max < 0.0
        and np.all(np.diff(h1_vals) > 0)
        and np.all(h1_vals > 0)
        and np.all(np.diff(h2_vals) < 0)
        and np.all(h2_vals > 0)
    )

    # slit curve: tip on the negative x1-axis, half plane, slab; the two
    # independently anchored banks and a third route through the interior
    # gluing arc must all land on the same tip point
    curve_pts, m_tip, bank_tip_gap = _sample_slit_curve(params, 300)
    tip = tip_position(params)
    tip_residual = float(max(abs(tip[1]), abs(tip[2])))
    tip_route_residual = float(np.linalg.norm(tip - curve_pts[m_tip]))
    tip_x1 = float(tip[0])
    c_max_x1 = float(curve_pts[:, 0].max())
    c_x3_overshoot = float(max(curve_pts[:, 2].max() - a, -a - curve_pts[:, 2].min(), 0.0))

    slab_ok = a < T / 2.0 and c_x3_overshoot < geom_tol
    worst_geom = max(
        descent_residual,
        split_residual,
        lower_top_residual,
        bank_tip_gap,
        tip_route_residual,
        tip_residual,
        c_max_x1,
        c_x3_overshoot,
    )
    passed = (
        transverse_residual < rate_tol
        and worst_geom < geom_tol
        and e_range_ok
        and eh_range_ok
        and rays_ok
        and tip_x1 < 0.0
        and slab_ok
    )
    return CheckResult(
        name="slab_and_boundary",
        anchor="the five boundary pieces are: axis segment heights [0, a] "
        "and [-T/2, -a], the negative x2-ray at height 0, the positive "
        "x2-ray at height -T/2, and the slit curve C from (0,0,a) to "
        "(0,0,-a) in {x1 <= 0}; the patch closure stays in the slab "
        "-T/2 <= x3 <= a",
        quantity="worst geometric residual over anchors and endpoints",
        value=worst_geom,
        tolerance=geom_tol,
        passed=bool(passed),
        details={
            "transverse_rate_residual": transverse_residual,
            "descent_anchor_residual": descent_residual,
            "axis_split_residual": split_residual,
            "lower_segment_top_residual": lower_top_residual,
            "bank_tip_gap": bank_tip_gap,
            "tip_route_residual": tip_route_residual,
            "tip_off_axis_residual": tip_residual,
            "tip_x1": tip_x1,
            "curve_max_x1": c_max_x1,
            "curve_height_overshoot": c_x3_overshoot,
            "ray_rate_max": ray_rate_max,
            "axis_rise_a": a,
            "half_T": T / 2.0,
        },
    )


# --------------------------------------------------------------------------
# check 5: closed-form limit constants bounding the vertical period
# --------------------------------------------------------------------------


def check_limit_constants() -> CheckResult:
    """Recompute the two closed-form constants and their inequality chain.

    Near the upper end of the angle interval the vertical-period
    integral splits into a part over (-pi/2, 0), whose limit is
    ``-I_lim`` with ``I_lim = integral of (1 - sin p)^(-1/2)
    = sqrt(2) * log(1 + sqrt(2))``, bounded below in magnitude by the
    comparison integral of ``(1 - p)^(-1/2)`` with closed form
    ``2*(sqrt(1 + pi/2) - 1)`` (so the displayed constant is
    ``c1 = 2*(1 - sqrt(1 + pi/2)) ~ -1.2067``), and a part over the
    shrinking upper window bounded by ``c2 = 4*sqrt(3/2)/(3*sqrt(2))
    = 2/sqrt(3) ~ 1.1547`` through a chord/moment estimate.  Since
    ``-I_lim + c2 < 0`` (and already ``c1 + c2 < 0``), the period
    integral is strictly negative near the upper corner.

    Every integral of the check is taken at the period solver's policy
    :data:`PERIOD_SPEC`, the Lambda(rho) solves and the G values of its
    near-corner rows included.  An integral that misses its tolerance raises
    :class:`PeriodSolverError`.
    """
    c1 = 2.0 * (1.0 - math.sqrt(1.0 + math.pi / 2.0))
    c2 = 4.0 * math.sqrt(1.5) / (3.0 * math.sqrt(2.0))
    four_dp_ok = round(c1, 4) == -1.2067 and round(c2, 4) == 1.1547

    def quad(f, a, b, name, **where):
        return require_converged(integrate(f, a, b, PERIOD_SPEC), name, **where).value

    # comparison integral, closed form vs quadrature
    q_cmp = quad(lambda p, da, db: 1.0 / np.sqrt(1.0 - p), -math.pi / 2.0, 0.0,
                 "limit-constant comparison integral")
    cmp_residual = abs(q_cmp - (-c1))

    # limit integral, closed form vs quadrature, and inequality direction
    I_lim_closed = math.sqrt(2.0) * math.log(1.0 + math.sqrt(2.0))
    q_lim = quad(lambda p, da, db: 1.0 / np.sqrt(1.0 - np.sin(p)), -math.pi / 2.0, 0.0,
                 "limit-constant limit integral")
    lim_residual = abs(q_lim - I_lim_closed)
    # sin p >= p on (-pi/2, 0) makes the limit integral the larger one,
    # so its negative respects the displayed -1.2067 bound
    direction_ok = q_lim >= -c1 and (-q_lim) <= c1

    # one solve of Lambda(rho) and G per near-corner rho serves every part
    # of the chain below
    rows = scan_H((1.45, 1.52, 1.55))

    # the lower-window part of the period integral approaches -I_lim
    window_vals = []
    for rho, Lam, _F, _G in rows:
        sin_rho = math.sin(rho)

        def integrand(p, da, db, Lam=Lam, sin_rho=sin_rho):
            sp = np.sin(p)
            den = Lam - 2.0 * sp
            return (
                (Lam - 4.0 * sin_rho + 2.0 * sp)
                * (2.0 - Lam * sp)
                / (den * den * np.sqrt(sin_rho - sp))
            )

        window_vals.append(
            quad(integrand, -math.pi / 2.0, 0.0, "lower-window integral", rho=rho, Lam=Lam)
        )
    window_gaps = [abs(v + I_lim_closed) for v in window_vals]
    window_ok = (
        window_gaps[0] > window_gaps[1] > window_gaps[2] and window_gaps[-1] < 0.05
    )

    # upper-window chord/moment chain at a representative near-corner rho
    rho, Lam = rows[-1][:2]
    sin_rho = math.sin(rho)
    sin_phi_r = (4.0 * sin_rho - Lam) / 2.0
    phi_r = math.asin(sin_phi_r)
    delta = sin_rho - sin_phi_r

    def moment(p, da, db):
        # sin(rho) - sin(p) written via the distance to the singular end
        sing = 2.0 * np.cos(rho - 0.5 * db) * np.sin(0.5 * db)
        return (np.sin(p) - sin_phi_r) * np.cos(p) / np.sqrt(sing)

    q_moment = quad(moment, phi_r, rho, "upper-window moment integral", rho=rho, Lam=Lam)
    moment_closed = (4.0 / 3.0) * delta ** 1.5
    moment_residual = abs(q_moment - moment_closed) / moment_closed

    phis = phi_r + (rho - phi_r) * (np.arange(1, 64) / 64.0)
    s = np.sin(phis)
    chord = (s - sin_phi_r) / delta
    g_vals = (Lam - 4.0 * sin_rho + 2.0 * s) / (Lam - 2.0 * s)
    chord_ok = bool(np.all(g_vals <= chord + 1e-12))
    second_factor_ok = bool(np.all((2.0 - Lam * s) / (Lam - 2.0 * s) <= 1.0 + 1e-12))
    upper_bound = (4.0 / 3.0) * math.sqrt(delta / (1.0 - sin_rho ** 2))
    bound_chain_ok = (
        upper_bound <= 4.0 * math.sqrt(1.5) / (3.0 * math.sqrt(1.0 + sin_rho)) + 1e-12
        and upper_bound < c2 + 5e-3
    )

    # the full period integral is indeed negative near the corner
    G_near = [row[3] for row in rows]
    negative_ok = all(g < 0.0 for g in G_near)
    combination = -q_lim + c2

    quad_tol = 1e-10
    passed = (
        four_dp_ok
        and cmp_residual < quad_tol
        and lim_residual < quad_tol
        and direction_ok
        and window_ok
        and moment_residual < 1e-9
        and chord_ok
        and second_factor_ok
        and bound_chain_ok
        and negative_ok
        and combination < 0.0
        and c1 + c2 < 0.0
    )
    return CheckResult(
        name="limit_constants",
        anchor="the closed-form constants -1.2067 and 1.1547 bound the two "
        "halves of the vertical-period integral near the upper corner of "
        "the angle interval, and their combination is strictly negative",
        quantity="bound combination -I_lim + c2 (must be negative)",
        value=combination,
        tolerance=0.0,
        passed=bool(passed),
        details={
            "c1_closed_form": c1,
            "c2_closed_form": c2,
            "c1_rounded_4dp": round(c1, 4),
            "c2_rounded_4dp": round(c2, 4),
            "comparison_integral_residual": cmp_residual,
            "limit_integral": q_lim,
            "limit_integral_residual": lim_residual,
            "window_gap_at_1p45": window_gaps[0],
            "window_gap_at_1p52": window_gaps[1],
            "window_gap_at_1p55": window_gaps[2],
            "moment_identity_rel_residual": moment_residual,
            "upper_window_bound": upper_bound,
            "G_at_1p45": G_near[0],
            "G_at_1p52": G_near[1],
            "G_at_1p55": G_near[2],
            "c1_plus_c2": c1 + c2,
        },
    )


# --------------------------------------------------------------------------
# diagnostic checks: out-of-branch impossibility signs
# --------------------------------------------------------------------------


def check_lambda_above_one_reversal(rho: float = 0.71) -> CheckResult:
    """For lam > 1 the height rate along the slit curve is positive.

    With the conjugate-branch ratio the monotone scan of check 1
    reverses: at lam = 1.5 the pointwise height rate along the inner slit
    bank is strictly positive at each of 200 samples, so the slit curve
    cannot descend and the closing geometry is impossible.  Diagnostic
    check.
    """
    lam, n = 1.5, 200
    diag = SurfaceParams(rho, lam, diagnostic=True)
    phis = np.linspace(-math.pi / 2.0, diag.rho, n + 2)[1:-1]
    rates = dh_rate_on_slit_inner(diag, phis)
    floor = SIGN_FLOOR_FACTOR * float(np.abs(rates).max())
    min_rate = float(rates.min())
    # reference: at a physical-branch lambda the same rate is negative
    ref = SurfaceParams(rho, 1.0 / lam)
    ref_rates = dh_rate_on_slit_inner(ref, np.linspace(-math.pi / 2.0, rho, n + 2)[1:-1])
    ref_max = float(ref_rates.max())
    passed = min_rate > floor and ref_max < -floor
    return CheckResult(
        name="lambda_above_one_reversal",
        anchor="for lam above one the height rate along the slit curve is "
        "strictly positive at every sample (the descent required for "
        "closing is impossible); the mirrored lam below one descends",
        quantity="minimal height rate along the slit bank at lam = 1.5",
        value=min_rate,
        tolerance=floor,
        passed=bool(passed),
        diagnostic=True,
        details={
            "rho": rho,
            "lam": lam,
            "n_samples": float(n),
            "max_rate": float(rates.max()),
            "sign_floor": floor,
            "reference_lam": 1.0 / lam,
            "reference_max_rate": ref_max,
        },
    )


def check_rho_nonpositive_single_sign() -> CheckResult:
    """For rho <= 0 the vertical-period integrand has one strict sign.

    Sampling the integrand at 200 interior abscissae for each pair of
    rho in (-0.5, -0.1, 0) and Lam in (2.2, 3, 6) shows it is strictly
    positive everywhere, so the vertical period cannot vanish and no
    nonpositive rho closes the geometry.  Diagnostic check.
    """
    rhos, Lams, n = (-0.5, -0.1, 0.0), (2.2, 3.0, 6.0), 200
    global_min = math.inf
    global_max = -math.inf
    all_single = True
    details: Dict[str, float] = {"n_samples": float(n)}
    for rho in rhos:
        for Lam in Lams:
            vals = G_integrand_samples(rho, Lam, n=n)
            lo, hi = float(vals.min()), float(vals.max())
            details[f"min_at_rho_{rho:+.1f}_Lam_{Lam:.1f}"] = lo
            global_min = min(global_min, lo)
            global_max = max(global_max, hi)
            if lo <= 0.0 or hi <= 0.0:
                all_single = False
    floor = SIGN_FLOOR_FACTOR * abs(global_max)
    passed = all_single and global_min > floor
    return CheckResult(
        name="rho_nonpositive_single_sign",
        anchor="for rho at or below zero the vertical-period integrand is "
        "strictly positive at every abscissa, so the period cannot vanish",
        quantity="minimal integrand sample over all (rho, Lam) pairs",
        value=float(global_min),
        tolerance=floor,
        passed=bool(passed),
        diagnostic=True,
        details=details,
    )


# --------------------------------------------------------------------------
# suite driver
# --------------------------------------------------------------------------


def run_all(
    params: SurfaceParams,
    grid: int = 100,
    resolution: int = 48,
    cutoff: float = 1e-2,
) -> VerificationReport:
    """Run every check at the solved parameters ``params``, one after
    another, and assemble the report in the fixed check order.

    Each check's ``runtime_s`` is its wall time here, so the seven add up to
    the run; the graph check's includes the :func:`mesh_patch_D` patch it
    reads.  Every period and anchor integral is taken at the one quadrature
    policy :data:`PERIOD_SPEC`, so no argument sets a tolerance.
    """
    runs = (
        lambda: check_x3_monotone_on_C(params),
        lambda: check_c_convex(params),
        lambda: check_graph_disjointness(
            params, mesh_patch_D(params, resolution=resolution, cutoff=cutoff), grid
        ),
        lambda: check_slab_and_boundary(params),
        lambda: check_limit_constants(),
        lambda: check_lambda_above_one_reversal(rho=round(params.rho, 2)),
        lambda: check_rho_nonpositive_single_sign(),
    )
    checks = []
    for check in runs:
        t0 = time.perf_counter()
        result = check()
        checks.append(replace(result, runtime_s=time.perf_counter() - t0))
    return VerificationReport(params=params, checks=tuple(checks))
