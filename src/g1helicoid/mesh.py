"""Triangle meshing of the surface: one graph patch, the four-piece
translational fundamental domain, vertical stacking, and file export.

The patch covers the quarter-rectangle whose z-image is the left half-plane:
a polar grid in z (levels of constant |z| = t crossed by rays of constant
arg z in [pi/2, 3pi/2]).  Every boundary piece of the patch is an exact
z-track, so no trimming is needed:

- bottom edge (theta = pi/2):   near ray H1 (t < 1/lam), far ray H2 (t > 1/lam)
- top edge (theta = 3pi/2):     axis segments E (t < 1) and E-hat (t > 1)
- unit circle:                  interior gluing arc + the slit curve C (two banks)
- puncture at z = i/lam:        the helicoidal end; a cutoff disk is excluded

The grid is one table of vertex-index rows in radial order, each with its
radius: O (t = 0), the inner levels, the unit circle twice (inner slit bank,
then outer bank), the outer levels, O' (t = inf).  The x1 check, the faces
(strips between consecutive rows), the seams (first and last vertex of each
row) and the asymptotic cap that continues the end all read this table.  No
level enters the cutoff disk; the two rows that straddle the puncture sit at
1/lam -+ cutoff, which is where the cap is fitted.

Each level is anchored on the x3-axis (its theta = 3pi/2 endpoint has the
closed-form height) and swept independently, so no error accumulates from
one level to the next.  The levels share one node table; a large patch
sweeps them on two threads, with the same output.  The bottom-edge
endpoints then get re-derived by the sweep and checked against the
independent closed-form ray values -- a strong whole-pipeline consistency
check.  The first coordinate of every vertex is additionally checked
against the exact global formula x1 = (2 cos rho / r) Re[1/(z - i/lam)].

The fundamental domain is the patch plus its images under the three axis
half-turns diag(1,-1,-1), diag(-1,-1,1), diag(-1,1,-1); the two
antiholomorphic copies get flipped triangle windings.  Welding is by explicit
seam lists (exact index correspondences), not by fuzzy proximity.  Only the
patch carries named boundary curves; assembled and stacked meshes do not.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from stat import S_ISREG
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import NumericError
from .params import SurfaceParams
from .torus import SYMMETRIES, build_chart, w_on_sheet
from .weierstrass import (
    arc_positions,
    axis_rise,
    positions_along,
    seg_ring_left_to_tip,
    seg_slit_bank,
    x2_H1,
    x2_H2,
    x3_E,
    x3_Ehat,
)

__all__ = [
    "MeshError",
    "SurfaceMesh",
    "mesh_patch_D",
    "assemble_fundamental_domain",
    "stack_periods",
    "check_oriented_manifold",
    "export_obj",
    "import_obj",
    "export_ply",
    "import_ply",
    "export_curves_csv",
]


class MeshError(RuntimeError, NumericError):
    """Structural failure while building or exporting a mesh."""


@dataclass
class SurfaceMesh:
    """Triangle mesh with named boundary polylines and build metadata.

    Every mesh this module builds or reads stores ``faces`` as int32, the
    index type of the PLY face records, so a mesh holds at most 2**31 - 1
    vertices; functions that take a mesh accept any integer dtype.
    """

    vertices: np.ndarray
    faces: np.ndarray
    boundary_polylines: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return len(self.vertices) == 0 or len(self.faces) == 0


# ----------------------------------------------------------------------
# Grid layout
# ----------------------------------------------------------------------

def _level_values(
    params: SurfaceParams, resolution: int, cutoff: float, m_max: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Radii of the constant-|z| levels for the inner (t<1) and outer (t>1)
    blocks.  Levels are uniform in the chart coordinate xi(t) (so cells stay
    near-square in the flat metric), with a geometric band hugging the
    puncture radius 1/lam down to the cutoff distance on both sides.  No
    base level is kept within ``cutoff`` of 1/lam, so the band levels
    1/lam -+ cutoff are the two that straddle the puncture."""
    chart = build_chart(params)
    half = 0.5 * chart.width
    dxi = half / resolution
    inner = chart.t_of_xi(np.arange(1, resolution) * dxi)

    t_punct = 1.0 / params.lam
    xi_base = half + np.arange(1, resolution) * dxi
    xi_cap = chart.xi_of_t(m_max)
    base = chart.t_of_xi(xi_base[xi_base < xi_cap - 0.35 * dxi])
    base = base[np.abs(base - t_punct) > cutoff]  # no level enters the disk

    # local base spacing in t near the puncture: dxi/dt = tau(t) / (2t), and
    # tau(1/lam) = r
    dt_base = dxi * 2.0 * t_punct / params.r
    offsets = [cutoff]
    while offsets[-1] * 1.6 < 0.6 * dt_base:
        offsets.append(offsets[-1] * 1.6)
    offsets = np.asarray(offsets)
    band = np.concatenate([t_punct - offsets[::-1], t_punct + offsets])
    band = band[band > 1.0 + 1e-9]

    outer = np.sort(np.concatenate([base, band, [m_max]]))
    # drop base levels that crowd a band level
    crowded = (np.abs(outer - t_punct) < dt_base) & (
        np.min(np.abs(outer[:, None] - band), axis=1) < 0.45 * cutoff
    )
    outer = outer[np.any(outer[:, None] == band, axis=1) | ~crowded]
    return inner, outer


def _ray_angles(params: SurfaceParams, resolution: int, cutoff: float) -> np.ndarray:
    """Ray angles on [pi/2, 3pi/2]: a uniform base, the exact tip angle,
    geometric refinement toward the end direction (pi/2) and around the tip."""
    th_lo, th_hi = 0.5 * math.pi, 1.5 * math.pi
    tip = math.pi - params.rho
    base_step = math.pi / (2 * resolution)
    base = np.linspace(th_lo, th_hi, 2 * resolution + 1)

    d0 = 0.6 * cutoff * params.lam
    end_cluster = []
    d = d0
    while d < base_step:
        end_cluster.append(th_lo + d)
        d *= 1.7
    tip_cluster = []
    d = max(4.0 * d0, 2e-3)
    while d < 0.8 * base_step:
        tip_cluster.extend([tip - d, tip + d])
        d *= 1.7

    rays = np.concatenate([base, [tip], end_cluster, tip_cluster])
    rays = rays[(rays >= th_lo) & (rays <= th_hi)]
    rays = np.sort(rays)
    rays = rays[np.concatenate([[True], rays[1:] != rays[:-1]])]
    # dedupe while preserving the exact endpoints and tip angle
    keep = [rays[0]]
    protected = {th_lo, th_hi, tip}
    for v in rays[1:]:
        if v - keep[-1] < 0.35 * d0 and v not in protected:
            continue
        if v in protected and keep[-1] not in protected and v - keep[-1] < 0.35 * d0:
            keep.pop()
        keep.append(v)
    rays = np.asarray(keep)
    if rays[0] != th_lo or rays[-1] != th_hi or tip not in rays:
        raise MeshError("ray layout lost a protected angle")
    return rays


# ----------------------------------------------------------------------
# Patch construction
# ----------------------------------------------------------------------

def _x1_closed_form(params: SurfaceParams, z) -> np.ndarray:
    """Exact first coordinate: x1 = (2 cos rho / r) Re[1/(z - i/lam)]."""
    zeta = np.asarray(z, dtype=complex) - 1j / params.lam
    return (2.0 * math.cos(params.rho) / params.r) * (1.0 / zeta).real


def _ring_polylines(
    params: SurfaceParams,
    rays: np.ndarray,
    a_rise: float,
    rel_tol: float,
    abs_tol: float,
):
    """Vertex positions on the unit circle: the interior gluing arc
    (theta <= tip), and the two slit banks (theta >= tip), each with its own
    vertex copies.  Returns (glue_pos, inner_pos, outer_pos, masks)."""
    tip = math.pi - params.rho
    glue_mask = rays <= tip
    slit_mask = rays >= tip
    th_glue = rays[glue_mask]
    th_slit = rays[slit_mask]

    seg_glue = seg_ring_left_to_tip(params)
    s_glue = 1.0 - np.sqrt(np.maximum(tip - th_glue, 0.0) / (tip - 0.5 * math.pi))
    anchor_glue = np.array([0.0, -x2_H1(params, 1.0), 0.0])
    glue_pos = positions_along(params, seg_glue, s_glue, anchor_glue, rel_tol, abs_tol)

    phi = math.pi - th_slit  # in [-pi/2, rho], descending theta <-> ascending s
    s_slit = 1.0 - np.sqrt(
        np.maximum(params.rho - phi, 0.0) / (params.rho + 0.5 * math.pi)
    )
    # the rays ascend, so s never increases: reversed, it ascends
    s_up = s_slit[::-1]

    seg_in = seg_slit_bank(params, "inner")
    inner_up = positions_along(
        params, seg_in, s_up, np.array([0.0, 0.0, a_rise]), rel_tol, abs_tol
    )
    seg_out = seg_slit_bank(params, "outer")
    outer_up = positions_along(
        params, seg_out, s_up, np.array([0.0, 0.0, -a_rise]), rel_tol, abs_tol
    )
    return glue_pos, inner_up[::-1], outer_up[::-1], glue_mask, slit_mask


def _lengths(d: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of ``d`` (N, 3), bit for bit what
    ``np.linalg.norm`` gives for that row alone: both reduce through the same
    dot product.  ``norm(d, axis=1)`` and ``einsum`` round differently in the
    last bit, which would flip near-tie diagonal choices."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


# Corner picks (ll, lr, ur, ul) = (0, 1, 2, 3) of the two triangles of a
# cell, by kind: split on ll-ur, split on lr-ul.
_CELL_SPLITS = np.array([[0, 1, 2, 0, 2, 3], [0, 1, 3, 1, 2, 3]])


def _strip_faces(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Triangles of the cells between two vertex rows, in cell order.

    A row of one vertex closes the other row with a fan.  Otherwise cell j
    has corners ll, lr = lo[j], lo[j+1] and ul, ur = hi[j], hi[j+1]; it is
    split on its shorter 3D diagonal (ll-ur on a tie).  Deterministic.  A
    row that repeats a vertex index in two adjacent entries raises
    :class:`MeshError`: its cell would collapse.
    """
    if np.any(lo[1:] == lo[:-1]) or np.any(hi[1:] == hi[:-1]):
        raise MeshError("vertex row repeats an index: collapsed cell")
    if len(lo) == 1:
        return np.stack([np.full(len(hi) - 1, lo[0]), hi[1:], hi[:-1]], axis=1)
    if len(hi) == 1:
        return np.stack([lo[:-1], lo[1:], np.full(len(lo) - 1, hi[0])], axis=1)
    ll, lr, ul, ur = lo[:-1], lo[1:], hi[:-1], hi[1:]
    kind = np.where(_lengths(v[ll] - v[ur]) <= _lengths(v[lr] - v[ul]), 0, 1)
    corners = np.stack([ll, lr, ur, ul], axis=1)
    return np.take_along_axis(corners, _CELL_SPLITS[kind], axis=1).reshape(-1, 3)


def _asymptote_coefficients(params: SurfaceParams):
    """Exact Laurent data of the integrand vector at the puncture:
    f ~ A/zeta^2 + B/zeta + O(1), so X ~ Re[-A/zeta + B Log zeta + C]."""
    e4 = complex(np.exp(0.25j * math.pi))
    rho, lam = params.rho, params.lam
    c0 = 1j / lam
    w0 = complex(w_on_sheet(params, "upper_left", np.array([c0]), "outer")[0])
    q0 = c0 * c0 + 1j * (params.Lambda - 4.0 * math.sin(rho)) * c0 - 1.0
    dq0 = 2.0 * c0 + 1j * (params.Lambda - 4.0 * math.sin(rho))
    d_fac = (np.exp(1j * rho) - c0) * (c0 + np.exp(-1j * rho))
    dd_fac = (np.exp(1j * rho) - c0) - (c0 + np.exp(-1j * rho))
    dw0 = 0.5 * w0 * (1.0 / c0 - dd_fac / d_fac)

    A = np.zeros(3, dtype=complex)
    B = np.zeros(3, dtype=complex)
    A[0] = -2.0 * math.cos(rho) / params.r
    h2 = lambda z, w, q: -1j * e4 * q * w / (2.0 * z)
    A[1] = h2(c0, w0, q0)
    B[1] = -1j * e4 * ((dq0 * w0 + q0 * dw0) / (2.0 * c0) - q0 * w0 / (2.0 * c0 * c0))
    B[2] = e4 * (c0 - 1j * lam) * w0 / (2.0 * c0)
    return A, B


def _asymptote_positions(A, B, C, zeta: np.ndarray) -> np.ndarray:
    """Re[-A/zeta + B Log zeta + C] with the log branch continuous on the
    left half-disk (angles lifted to [pi/2, 3pi/2])."""
    ang = np.arctan2(zeta.imag, zeta.real)
    ang = np.where(ang < 0.25 * math.pi, ang + 2.0 * math.pi, ang)
    logz = np.log(np.abs(zeta)) + 1j * ang
    vals = -A[None, :] / zeta[:, None] + B[None, :] * logz[:, None] + C[None, :]
    return vals.real


# Integrand nodes from which a patch's levels are swept on two threads.  In-process
# on two CPUs two threads lost 15-18 % at res 48-96 (0.2-0.8 million nodes), tied at
# res 112 (1.1 million) and won 12-33 % at res 128-160 (1.4-2.2 million).  The pool
# stays on the benchmark's mesh workload (5 alternating pairs, seeds 1-5, 20 s runs,
# shared 2-core VM): mesh_ply median 1.19 s with it, 1.30 s on one thread (+9 %, more
# than the 5 % that would retire it).  Nor does batching help one thread: every level's
# first GL wave as one integrand call per block took 0.61 s at res 160, level by level
# 0.38 s (best of 3; the 2.2 million nodes' temporaries leave the cache).
_THREADED_NODES = 1_200_000


def mesh_patch_D(
    params: SurfaceParams,
    resolution: int = 48,
    cutoff: float = 1e-2,
) -> SurfaceMesh:
    """Mesh the graph patch (z in the left half-plane, one quarter-rectangle).

    The grid is one table of vertex-index rows in radial order, each with
    its radius ``row_t``: O (t = 0), the inner levels, the unit circle twice
    (the inner-bank row, then the outer-bank row), the outer levels and O'
    (t = inf).  The x1 check, the faces (strips between consecutive rows,
    none between the two circle rows), the seams and the asymptotic cap all
    read this table.  The levels share one node table; from ``_THREADED_NODES``
    integrand nodes on, two threads sweep them, read in order: the output and
    the first error do not depend on the thread count; no level starts after an error.

    ``cutoff`` is the radius of the disk around the puncture z = i/lam that
    no level enters; the two rows that straddle it sit at 1/lam -+ cutoff.
    |z| is truncated at 10/lam near the far node, where the grid closes with
    a fan onto the exact node image.  The truncated helicoidal end is
    continued by an asymptote strip, flagged in ``metadata['asymptotic_caps']``
    (its vertices are approximations, not surface samples, and are excluded
    from the exactness checks).
    """
    if resolution < 8:
        raise MeshError("resolution must be at least 8")
    if not 0.0 < cutoff < 0.2 * (1.0 / params.lam - 1.0):
        raise MeshError(f"cutoff {cutoff!r} out of safe range")
    T = params.T
    rel_tol = 1e-10
    abs_tol = 1e-13 * T
    slab_tol = 1e-6 * T
    t_punct = 1.0 / params.lam
    a_rise = axis_rise(params)

    inner_t, outer_t = _level_values(params, resolution, cutoff, 10.0 / params.lam)
    rays = _ray_angles(params, resolution, cutoff)
    n_rays = len(rays)

    # --- level polylines, each anchored on the x3-axis (E below the unit
    # circle, E-hat above), swept down to theta = pi/2 and closed there
    # against the independent ray value (H1 below the puncture, H2 above) --
    s_breaks = (1.5 * math.pi - rays[::-1]) / math.pi
    sweep = arc_positions(params, "upper_left", 1.5 * math.pi, 0.5 * math.pi, s_breaks,
                          rel_tol, abs_tol)

    def level(t):
        anchor = np.array([0.0, 0.0, x3_E(params, t) if t < 1.0 else x3_Ehat(params, t)])
        poly = sweep(t, anchor)[::-1]
        if t < t_punct:
            expect = np.array([0.0, -x2_H1(params, float(t)), 0.0])
        else:
            expect = np.array([0.0, x2_H2(params, float(t)), -0.5 * T])
        gap = float(np.linalg.norm(poly[0] - expect))
        arc = float(np.sum(np.linalg.norm(np.diff(poly, axis=0), axis=1)))
        if gap > 5e-9 * (T + arc):
            raise MeshError(f"closure failure at level t={t:.6g}, theta=pi/2: gap {gap:.3e}")
        return poly

    level_t = np.concatenate([inner_t, outer_t])
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if 24 * (n_rays - 1) * len(level_t) < _THREADED_NODES or (cpus or 1) < 2:  # GL8 + GL16
        levels = [level(t) for t in level_t]
    else:
        # map yields in level order, raises the first error and cancels the
        # levels not yet started; more threads were never measured
        with ThreadPoolExecutor(2) as pool:
            levels = list(pool.map(level, level_t))

    glue_pos, bank_in_pos, bank_out_pos, glue_mask, slit_mask = _ring_polylines(
        params, rays, a_rise, rel_tol, abs_tol
    )
    # tip agreement between the three ring polylines (the slit arrays are
    # indexed by ascending theta over rays >= tip, so the tip entry is first)
    gap_in, gap_out = (np.linalg.norm(glue_pos[-1] - b[0]) for b in (bank_in_pos, bank_out_pos))
    if max(gap_in, gap_out) > 5e-9 * (T + float(np.abs(glue_pos).max())):
        raise MeshError(f"slit-tip closure failure: {gap_in:.3e} / {gap_out:.3e}")

    # --- the row table ------------------------------------------------------
    # vertices: O and O', the levels (n_rays each, inner then outer), the
    # gluing arc, then each slit bank without the tip it shares with the arc
    vertices = np.vstack(
        [np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -0.5 * T]])]
        + levels
        + [glue_pos, bank_in_pos[1:], bank_out_pos[1:]]
    )
    level_rows = 2 + np.arange(len(levels) * n_rays).reshape(len(levels), n_rays)
    glue_ids = 2 + level_rows.size + np.arange(len(glue_pos))
    n_bank = len(bank_in_pos) - 1
    bank_ids = glue_ids[-1] + np.arange(n_bank + 1)  # the tip, then the inner bank
    ring_rows = np.empty((2, n_rays), dtype=int)
    ring_rows[:, glue_mask] = glue_ids
    ring_rows[0, slit_mask] = bank_ids
    ring_rows[1, slit_mask] = np.concatenate([bank_ids[:1], bank_ids[1:] + n_bank])
    n_inner = len(inner_t)
    ring = 1 + n_inner  # rows[ring], rows[ring + 1]: the two circle rows
    rows = (
        [np.array([0])]
        + list(level_rows[:n_inner])
        + list(ring_rows)
        + list(level_rows[n_inner:])
        + [np.array([1])]
    )
    row_t = np.concatenate([[0.0], inner_t, [1.0, 1.0], outer_t, [np.inf]])
    hole = int(np.searchsorted(row_t, t_punct))  # rows hole-1, hole straddle 1/lam

    # --- exactness and slab validation ------------------------------------
    e_rays = np.exp(1j * rays)
    worst_x1 = 0.0
    for t, row in zip(row_t[1:-1], rows[1:-1]):
        x1_exact = _x1_closed_form(params, t * e_rays)
        dev = np.abs(vertices[row, 0] - x1_exact)
        j = int(np.argmax(dev))
        worst_x1 = max(worst_x1, float(dev[j]))
        if dev[j] > 1e-7 * (T + float(np.abs(x1_exact[j]))):
            raise MeshError(
                f"x1 closed-form violation at cell t={t:.6g}, "
                f"theta={rays[j]:.6g}: dev {dev[j]:.3e}"
            )
    lo, hi = -0.5 * T - slab_tol, a_rise + slab_tol
    x1v, x3v = vertices[:, 0], vertices[:, 2]
    bad = np.where((x1v > slab_tol) | (x3v < lo) | (x3v > hi))[0]
    if len(bad) > 0:
        raise MeshError(
            f"slab violation at vertex {int(bad[0])}: {vertices[bad[0]]!r}"
        )

    # --- faces: strips between consecutive rows ----------------------------
    face_blocks: List[np.ndarray] = []
    for r in range(len(rows) - 1):
        if r == ring:
            continue  # the two circle rows are the same curve, no cells
        lo_row, hi_row = rows[r], rows[r + 1]
        if r == hole - 1:
            lo_row, hi_row = lo_row[1:], hi_row[1:]  # skip the cell around the puncture
        face_blocks.append(_strip_faces(vertices, lo_row, hi_row))
    faces_arr = np.concatenate(face_blocks, dtype=np.int32)
    areas = _face_areas(vertices, faces_arr)
    tiny = np.where(areas < (1e-8 * T) ** 2)[0]
    if len(tiny) > 0:
        raise MeshError(f"degenerate face {int(tiny[0])}: area {areas[tiny[0]]:.3e}")

    # --- boundary polylines: the first (theta = pi/2) and last (3pi/2)
    # vertex of each row; the outer-bank circle row starts at the vertex the
    # inner-bank row starts at --------------------------------------------
    firsts = np.array([row[0] for row in rows])
    lasts = np.array([row[-1] for row in rows])
    hole_lo, hole_hi = rows[hole - 1], rows[hole]
    seam_ids = {
        "H1": np.delete(firsts[:hole], ring + 1),
        "H2": firsts[hole:],
        "E": lasts[: ring + 1],
        "E_hat": lasts[ring + 1 :],
        "C": np.concatenate([ring_rows[0, slit_mask][::-1], ring_rows[1, slit_mask][1:]]),
    }
    end_ids = np.array([hole_lo[0], hole_lo[1], hole_hi[1], hole_hi[0]])
    boundary = {name: vertices[ids] for name, ids in seam_ids.items()}
    boundary["end"] = vertices[end_ids]
    c_proj = boundary["C"].copy()
    c_proj[:, 2] = 0.0
    boundary["c"] = c_proj

    metadata: Dict[str, object] = {
        "rho0": params.rho,
        "lambda0": params.lam,
        "Lambda0": params.Lambda,
        "T": T,
        "a": a_rise,
        "resolution": resolution,
        "cutoff": cutoff,
        "worst_x1_closed_form_dev": worst_x1,
        "seam_ids": seam_ids,
    }

    mesh = SurfaceMesh(vertices, faces_arr, boundary, metadata)
    _append_asymptotic_cap(params, mesh, cutoff, end_ids, row_t[hole - 1 : hole + 1], rays)
    return mesh


def _face_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    a = vertices[faces[:, 1]] - vertices[faces[:, 0]]
    b = vertices[faces[:, 2]] - vertices[faces[:, 0]]
    return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)


def _append_asymptotic_cap(
    params: SurfaceParams,
    mesh: SurfaceMesh,
    cutoff: float,
    rim_ids: np.ndarray,
    rim_t: np.ndarray,
    rays: np.ndarray,
) -> None:
    """Continue the truncated end by a strip of the exact first-order
    asymptote X ~ Re[-A/zeta + B Log zeta + C].  The strip is a separate
    component (not stitched to the exact-surface grid) and is flagged in the
    metadata; its constant C is fitted from the hole-rim vertices ``rim_ids``
    (the two first vertices of the row at radius ``rim_t[0]``, then the two
    of the row at ``rim_t[1]`` in reverse)."""
    n_angles, n_rings = 49, 4
    A, B = _asymptote_coefficients(params)
    t_punct = 1.0 / params.lam
    t_below, t_above = rim_t
    zeta_rim = np.array(
        [
            t_below * np.exp(1j * rays[0]) - 1j * t_punct,
            t_below * np.exp(1j * rays[1]) - 1j * t_punct,
            t_above * np.exp(1j * rays[1]) - 1j * t_punct,
            t_above * np.exp(1j * rays[0]) - 1j * t_punct,
        ]
    )
    base = _asymptote_positions(A, B, np.zeros(3), zeta_rim)
    C = np.mean(mesh.vertices[rim_ids] - base, axis=0)

    chi = np.linspace(0.5 * math.pi, 1.5 * math.pi, n_angles)
    radii = cutoff * 0.5 ** np.arange(n_rings)
    rings = [_asymptote_positions(A, B, C, rad * np.exp(1j * chi)) for rad in radii]
    n0 = len(mesh.vertices)
    n_new = n_rings * n_angles
    mesh.vertices = np.vstack([mesh.vertices] + rings)
    ring_ids = n0 + np.arange(n_new).reshape(n_rings, n_angles)
    strips = zip(ring_ids[:-1], ring_ids[1:])
    mesh.faces = np.concatenate(
        [mesh.faces] + [_strip_faces(mesh.vertices, lo, hi) for lo, hi in strips],
        dtype=np.int32,
    )
    mesh.metadata["asymptotic_caps"] = [{"vertex_start": int(n0), "vertex_count": int(n_new)}]


# ----------------------------------------------------------------------
# Assembly, welding, stacking
# ----------------------------------------------------------------------

_COPY_SPECS = (
    ("base", None),
    ("half_turn_x1", "half_turn_x1"),
    ("half_turn_x3", "half_turn_x3"),
    ("half_turn_x2", "half_turn_x2"),
)


def _check_seam(label: str, pts_a: np.ndarray, pts_b: np.ndarray, tol: float) -> None:
    """Raise :class:`MeshError` unless the two point rows match within ``tol``."""
    if len(pts_a) != len(pts_b):
        raise MeshError(f"seam {label}: length mismatch {len(pts_a)} vs {len(pts_b)}")
    gaps = np.linalg.norm(pts_a - pts_b, axis=1)
    worst = float(gaps.max()) if len(gaps) else 0.0
    if worst > tol:
        raise MeshError(f"seam {label}: max gap {worst:.3e} exceeds weld tol {tol:.3e}")


def _weld_by_pairs(
    vertices: np.ndarray,
    faces: np.ndarray,
    pairs: Sequence[Tuple[np.ndarray, np.ndarray, str]],
    tol: float,
):
    """Merge vertices along explicit seam index pairs; validates gaps first.

    Each vertex is labelled with the smallest index of its component in the
    graph of seam pairs.  Labels start as the indices; each round lowers both
    ends of every pair to the smaller of their two labels and then replaces
    every label by its own label (pointer jumping), until a round changes
    nothing.  Labels only fall and always name a vertex of the same
    component, so at that point every component carries its smallest index.
    The welded vertices are these minima in ascending order, the roots a
    union-find that always links the larger root under the smaller finds.
    A root is a vertex labelled with its own index, so a cumulative sum of
    the roots numbers them without a sort.  Faces that lost a corner go.

    Returns (vertices, faces, old_to_new, n_duplicates_removed); the faces
    and ``old_to_new`` are int32.
    """
    for ids_a, ids_b, label in pairs:
        _check_seam(label, vertices[ids_a], vertices[ids_b], tol)
    roots = np.arange(len(vertices))
    if pairs:
        a = np.concatenate([ids_a for ids_a, _, _ in pairs])
        b = np.concatenate([ids_b for _, ids_b, _ in pairs])
        while True:
            low = np.minimum(roots[a], roots[b])
            step = roots.copy()
            np.minimum.at(step, a, low)
            np.minimum.at(step, b, low)
            step = step[step]
            if np.array_equal(step, roots):
                break
            roots = step
    is_root = roots == np.arange(len(vertices))
    old_to_new = (np.cumsum(is_root, dtype=np.int32) - 1)[roots]
    new_faces = old_to_new[faces]
    keep = (
        (new_faces[:, 0] != new_faces[:, 1])
        & (new_faces[:, 1] != new_faces[:, 2])
        & (new_faces[:, 0] != new_faces[:, 2])
    )
    if not keep.all():
        new_faces = new_faces[keep]
    removed = len(vertices) - int(np.count_nonzero(is_root))
    return vertices[is_root], new_faces, old_to_new, removed


def assemble_fundamental_domain(patch: SurfaceMesh) -> SurfaceMesh:
    """One translational fundamental domain: the patch plus its images under
    the three axis half-turns, welded along the shared boundary curves.

    Every seam gap must stay below ``1e-7 * T`` (kept as
    ``metadata["weld_tol"]``).  The two antiholomorphic copies (x3-axis and
    x2-axis half-turns) get flipped triangle windings so the assembled
    orientation is consistent.
    """
    if patch.is_empty():
        raise MeshError("cannot assemble from an empty patch")
    weld_tol = 1e-7 * float(patch.metadata["T"])
    n = len(patch.vertices)
    seams = patch.metadata["seam_ids"]
    vertices = np.empty((4, n, 3))
    faces = np.empty((4,) + patch.faces.shape, dtype=np.int32)
    offsets = {}
    for k, (name, sym) in enumerate(_COPY_SPECS):
        mat = np.eye(3) if sym is None else SYMMETRIES[sym].space_matrix
        flip = sym is not None and SYMMETRIES[sym].orientation < 0
        np.matmul(patch.vertices, mat.T, out=vertices[k])
        np.add(patch.faces[:, ::-1] if flip else patch.faces, k * n, out=faces[k])
        offsets[name] = k * n

    def ids(copy: str, seam: str) -> np.ndarray:
        return np.asarray(seams[seam], dtype=int) + offsets[copy]

    pairs = [
        (ids("base", "C"), ids("half_turn_x1", "C")[::-1], "C: base~x1"),
        (ids("half_turn_x3", "C"), ids("half_turn_x2", "C")[::-1], "C: x3~x2"),
        (ids("base", "E"), ids("half_turn_x3", "E"), "E: base~x3"),
        (ids("base", "E_hat"), ids("half_turn_x3", "E_hat"), "E_hat: base~x3"),
        (ids("half_turn_x1", "E"), ids("half_turn_x2", "E"), "E: x1~x2"),
        (ids("half_turn_x1", "E_hat"), ids("half_turn_x2", "E_hat"), "E_hat: x1~x2"),
        (ids("base", "H1"), ids("half_turn_x2", "H1"), "H1: base~x2"),
        (ids("half_turn_x1", "H1"), ids("half_turn_x3", "H1"), "H1: x1~x3"),
    ]
    new_vertices, new_faces, old_to_new, removed = _weld_by_pairs(
        vertices.reshape(-1, 3), faces.reshape(-1, 3), pairs, weld_tol
    )
    del vertices, faces

    stack_seams = {
        "bottom_pos_x2": old_to_new[ids("base", "H2")],
        "bottom_neg_x2": old_to_new[ids("half_turn_x3", "H2")],
        "top_pos_x2": old_to_new[ids("half_turn_x2", "H2")],
        "top_neg_x2": old_to_new[ids("half_turn_x1", "H2")],
    }

    metadata = dict(patch.metadata)
    metadata.pop("seam_ids", None)
    # a cap is on no seam, so each copy's cap stays one run of vertices
    metadata["asymptotic_caps"] = [
        dict(cap, vertex_start=int(old_to_new[k * n + cap["vertex_start"]]))
        for k in range(len(_COPY_SPECS))
        for cap in patch.metadata["asymptotic_caps"]
    ]
    metadata["weld_tol"] = weld_tol
    metadata["weld_duplicates_removed"] = removed
    metadata["vertices_before_weld"] = 4 * n
    metadata["stack_seams"] = stack_seams

    fd = SurfaceMesh(new_vertices, new_faces, metadata=metadata)
    report = check_oriented_manifold(fd)
    if report["misoriented_edges"] or report["overused_edges"]:
        raise MeshError(
            "fundamental domain is not consistently oriented: "
            f"{report['misoriented_edges']} misoriented, "
            f"{report['overused_edges']} overused edges"
        )
    return fd


class _Periods:
    """k periods of a fundamental domain, checked and laid out but not
    built: the one body that :func:`stack_periods` fills its arrays from and
    that :func:`export_obj` and :func:`export_ply` write copy by copy.

    The constructor runs every check :func:`stack_periods` documents, in its
    order, and lays out the stack: ``table[j]`` is copy j's stack index of
    each domain vertex, ``metadata`` the stack's metadata with every copy's
    caps.  ``vertices(j)`` and ``faces(j)`` then form copy j's new vertex
    rows and its faces.  One period is the domain as it is and reads no
    stack metadata.
    """

    def __init__(self, domain: SurfaceMesh, k: int):
        if k < 1:
            raise MeshError("k must be >= 1")
        if domain.is_empty():
            raise MeshError("cannot stack an empty mesh")
        self.domain, self.k = domain, k
        v, f = domain.vertices, domain.faces
        n = len(v)
        self.n_faces = k * len(f)
        if k == 1:
            self.n_vertices, self.metadata = n, domain.metadata
            return
        T = float(domain.metadata["T"])
        weld_tol = float(domain.metadata["weld_tol"])
        seams = domain.metadata["stack_seams"]
        self.shift = shift = np.array([0.0, 0.0, T])
        sides = ("pos", "neg")
        tops = [np.asarray(seams[f"top_{side}_x2"], dtype=int) for side in sides]
        bottoms = [np.asarray(seams[f"bottom_{side}_x2"], dtype=int) for side in sides]
        top, bottom = np.concatenate(tops), np.concatenate(bottoms)
        partner = np.full(n, -1)
        partner[bottom] = top
        keep = partner < 0
        on_top = np.zeros(n, dtype=bool)
        on_top[top] = True
        m = int(np.count_nonzero(keep))
        if np.any(partner[bottom] != top) or np.count_nonzero(on_top) != n - m:
            raise MeshError("stack seams do not pair bottom and top vertices one to one")
        if np.any(on_top[bottom]):
            raise MeshError("a vertex sits on both a top and a bottom stack seam")
        self.n_vertices = n + (k - 1) * m
        if self.n_vertices > np.iinfo(np.int32).max:
            raise MeshError(
                f"{k} copies need {self.n_vertices} vertices, past the int32 face-index "
                f"limit of {np.iinfo(np.int32).max}"
            )
        for j in range(k - 1):
            for side, top, bottom in zip(sides, tops, bottoms):
                label = f"stack {side}-x2 {j}~{j+1}"
                _check_seam(label, v[top] + j * shift, v[bottom] + (j + 1) * shift, weld_tol)

        self.kept = np.flatnonzero(keep)
        bottom = np.flatnonzero(~keep)
        top = partner[bottom]
        self.table = table = np.empty((k, n), dtype=np.int32)
        table[0] = np.arange(n)
        for j in range(1, k):
            start = n + (j - 1) * m
            table[j, self.kept] = np.arange(start, start + m)
            table[j, bottom] = table[j - 1, top]  # where copy j-1 put the top seam
        # a cap is on no seam: each copy lays it out as one run
        caps = [
            dict(cap, vertex_start=int(table[j, cap["vertex_start"]]))
            for j in range(k)
            for cap in domain.metadata["asymptotic_caps"]
        ]
        self.metadata = dict(domain.metadata)
        self.metadata["stack_duplicates_removed"] = (k - 1) * (n - m)
        self.metadata["asymptotic_caps"] = caps
        self.metadata.pop("stack_seams", None)

    def vertices(self, j: int) -> np.ndarray:
        """The vertex rows copy j adds to the stack."""
        v = self.domain.vertices
        if self.k == 1:
            return v
        if j == 0:
            return v + 0 * self.shift  # -0.0 becomes +0.0, as in later copies
        rows = v[self.kept]
        rows += j * self.shift
        return rows

    def faces(self, j: int) -> np.ndarray:
        """Copy j's faces as stack vertex indices."""
        f = self.domain.faces
        return f if self.k == 1 else self.table[j][f]


def stack_periods(domain: SurfaceMesh, k: int) -> SurfaceMesh:
    """k copies of the fundamental domain translated by (0,0,T) steps, welded
    along the matching horizontal boundary lines with the domain's own
    ``metadata["weld_tol"]``.

    Copy j's bottom seam is copy j-1's top seam, so the output is copy 0,
    then each later copy without its bottom-seam vertices (the layout
    :func:`_weld_by_pairs` gives the k staged copies).  The ``stack_seams``
    must pair bottom and top vertices one to one, and no vertex may sit on
    both a top and a bottom seam; otherwise :class:`MeshError` is raised.  So
    is a stack whose vertex count passes the int32 face-index limit, before
    any seam is checked or any copy is built.  ``export_obj(domain, path, k)``
    and ``export_ply(domain, path, k)`` write the same stack copy by copy,
    without building it.
    """
    periods = _Periods(domain, k)
    if k == 1:
        return domain
    vertices = np.empty((periods.n_vertices, 3))
    faces = np.empty((periods.n_faces, 3), dtype=np.int32)
    nf = len(domain.faces)
    start = 0
    for j in range(k):
        rows = periods.vertices(j)
        vertices[start : start + len(rows)] = rows
        start += len(rows)
        del rows  # before the next copy's rows are formed
        faces[j * nf : (j + 1) * nf] = periods.faces(j)
    return SurfaceMesh(vertices, faces, metadata=periods.metadata)


# ----------------------------------------------------------------------
# Planar geometry helpers (shared with the verification module)
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# Structural checks
# ----------------------------------------------------------------------

def check_oriented_manifold(mesh: SurfaceMesh) -> Dict[str, int]:
    """Edge-use report: interior edges must be shared by exactly two faces
    with opposite orientation; boundary edges by one.

    Each of the 3F directed face edges a->b gets the int64 key
    2 (min(a, b) n + max(a, b)) + [a < b], written one face corner at a time
    from the faces as they are (any integer dtype, never copied) into one
    array sorted in place.  A run of keys with the same half is one edge: the
    run length is its use count, and an edge used twice is consistently
    oriented when exactly one of its uses runs from the smaller index to the
    larger (its two keys differ in the last bit).
    """
    f = np.asarray(mesh.faces)
    n = int(f.max()) + 1 if f.size else 0
    keys = np.empty((3, len(f)), dtype=np.int64)
    for j in range(3):  # no name may keep a view of keys past the del below
        a, b = f[:, j], f[:, (j + 1) % 3]
        np.minimum(a, b, out=keys[j])
        keys[j] *= n
        keys[j] += np.maximum(a, b)
        keys[j] *= 2
        keys[j] += a < b
    keys = keys.reshape(-1)
    keys.sort()
    ascending = np.empty(len(keys), dtype=bool)
    np.bitwise_and(keys, 1, out=ascending, casting="unsafe")
    keys >>= 1
    # same[i]: keys i - 1 and i are one edge; False at 0 and past the end
    same = np.zeros(len(keys) + 2, dtype=bool)
    np.equal(keys[1:], keys[:-1], out=same[1:-2])
    del keys
    first = ~same[:-2]  # key i begins an edge
    twice = first & same[1:-1]
    overused = twice & same[2:]
    twice &= ~overused
    interior = int(np.count_nonzero(twice[:-1] & (ascending[:-1] != ascending[1:])))
    return {
        "interior_edges": interior,
        "boundary_edges": int(np.count_nonzero(first & ~same[1:-1])),
        "misoriented_edges": int(np.count_nonzero(twice)) - interior,
        "overused_edges": int(np.count_nonzero(overused)),
    }


# ----------------------------------------------------------------------
# Export / import
# ----------------------------------------------------------------------

def _require_nonempty(mesh: SurfaceMesh) -> None:
    if mesh.is_empty():
        raise MeshError("refusing to export an empty mesh")


def _metadata_header_lines(md: Dict[str, object]) -> List[str]:
    lines = ["artifact surface mesh"]
    prov = md.get("provenance")
    if isinstance(prov, (list, tuple)):
        lines.extend(str(p) for p in prov)
    for key in ("rho0", "lambda0", "Lambda0", "T", "a", "resolution", "cutoff"):
        if key in md:
            lines.append(f"{key} = {md[key]!r}")
    for cap in md.get("asymptotic_caps", []):
        lines.append(
            f"asymptotic cap: vertices {cap['vertex_start']}.."
            f"{cap['vertex_start'] + cap['vertex_count'] - 1}"
        )
    return lines


_ROWS_PER_WRITE = 1 << 16


def _write_rows(fh, row_format: str, rows: np.ndarray) -> None:
    """Write ``row_format % row`` for every row, formatting a block of rows
    per write (``%.9g`` gives the same text as ``f"{x:.9g}"``)."""
    for start in range(0, len(rows), _ROWS_PER_WRITE):
        block = rows[start : start + _ROWS_PER_WRITE]
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def export_obj(mesh: SurfaceMesh, path: str, copies: int = 1) -> Tuple[int, int]:
    """ASCII OBJ (v/f records, 1-based indices, 9 significant digits) of
    ``copies`` periods of ``mesh``, the bytes ``export_obj(stack_periods(mesh,
    copies), path)`` writes, formed and written one copy at a time.  Every
    check of the stack runs before the file is opened.  Returns the vertex
    and face counts written."""
    _require_nonempty(mesh)
    periods = _Periods(mesh, copies)
    try:
        with open(path, "w", encoding="ascii") as fh:
            for line in _metadata_header_lines(periods.metadata):
                fh.write(f"# {line}\n")
            for j in range(copies):
                _write_rows(fh, "v %.9g %.9g %.9g\n", periods.vertices(j))
            for j in range(copies):
                _write_rows(fh, "f %d %d %d\n", periods.faces(j) + 1)
    except OSError as exc:
        raise MeshError(f"OBJ export failed for {path!r}: {exc}") from exc
    return periods.n_vertices, periods.n_faces


def _obj_columns(lines: List[bytes], dtype, path: str) -> np.ndarray:
    """Fields 1-3 of each OBJ record line as an (N, 3) array."""
    try:
        return np.loadtxt(lines, dtype=dtype, usecols=(1, 2, 3), ndmin=2)
    except ValueError as exc:
        raise MeshError(f"malformed OBJ record in {path!r}: {exc}") from exc


def _require_vertex_indices(faces: np.ndarray, nv: int, path: str, first: int) -> None:
    """Raise :class:`MeshError` naming the first face that refers to no vertex;
    the file numbers the ``nv`` vertices from ``first``."""
    if len(faces) and (faces.min() < 0 or faces.max() >= nv):
        k = int(np.flatnonzero(np.any((faces < 0) | (faces >= nv), axis=1))[0])
        raise MeshError(
            f"{path!r}: face {k} ({' '.join(str(i + first) for i in faces[k])}) refers to "
            f"a vertex outside {first}..{nv - 1 + first}"
        )


def import_obj(path: str) -> SurfaceMesh:
    """Read the lines that begin ``v `` and ``f `` of an OBJ file.

    A vertex is the first three coordinates of its line, a face its three
    vertex references (``f a/b/c`` keeps ``a``); other lines are skipped.  A
    record with fewer than three fields, a face with more than three (a
    polygon), a field that is not a number, or a reference that is not a
    vertex number (1 to the vertex count; relative references are not read)
    raises :class:`MeshError`."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise MeshError(f"OBJ import failed for {path!r}: {exc}") from exc
    v_lines = [line for line in lines if line.startswith(b"v ")]
    if not v_lines:
        raise MeshError(f"no vertices found in {path!r}")
    f_lines = [line for line in lines if line.startswith(b"f ")]
    if f_lines:
        block = re.sub(rb"/\S*", b"", b"\n".join(f_lines))
        f_lines = block.splitlines()
        faces = _obj_columns(f_lines, np.int32, path) - 1
        # every record has at least four fields now, so three spaces and no
        # tab per record leave no room for a fourth reference; else count
        # per record (`in` is a memchr, a tenth of the cost of a count)
        if b"\t" in block or block.count(b" ") != 3 * len(f_lines):
            for k, line in enumerate(f_lines):
                n = len(line.split(b"#", 1)[0].split()) - 1  # as np.loadtxt reads it
                if n > 3:
                    raise MeshError(f"{path!r}: face {k} has {n} vertices; only triangles are read")
    else:
        faces = np.empty((0, 3), dtype=np.int32)
    _require_vertex_indices(faces, len(v_lines), path, 1)
    return SurfaceMesh(_obj_columns(v_lines, float, path), faces)


#: One binary PLY face record: the vertex count (uchar) and three int indices.
_PLY_FACE = np.dtype([("n", "u1"), ("i", "<i4", (3,))])


def _ply_layout(nv, nf) -> List[str]:
    """The header lines, comments left out, of the one PLY layout that
    :func:`export_ply` writes and :func:`import_ply` reads."""
    return [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {nv}",
        "property double x",
        "property double y",
        "property double z",
        f"element face {nf}",
        "property list uchar int vertex_indices",
    ]


def _write_ply_faces(fh, records: np.ndarray, faces: np.ndarray) -> None:
    """Write ``faces`` as PLY face records, ``_ROWS_PER_WRITE`` at a time
    through ``records`` (whose counts are set)."""
    for start in range(0, len(faces), _ROWS_PER_WRITE):
        block = records[: len(faces) - start]
        block["i"] = faces[start : start + _ROWS_PER_WRITE]
        fh.write(memoryview(block).cast("B"))


def export_ply(mesh: SurfaceMesh, path: str, copies: int = 1) -> Tuple[int, int]:
    """Binary little-endian PLY with float64 coordinates of ``copies``
    periods of ``mesh``, the bytes ``export_ply(stack_periods(mesh, copies),
    path)`` writes, formed and written one copy at a time.  Every check of
    the stack runs before the file is opened.  Returns the vertex and face
    counts written."""
    _require_nonempty(mesh)
    periods = _Periods(mesh, copies)
    layout = _ply_layout(periods.n_vertices, periods.n_faces)
    header_lines = (
        layout[:2]
        + [f"comment {line}" for line in _metadata_header_lines(periods.metadata)]
        + layout[2:]
        + ["end_header"]
    )
    try:
        with open(path, "wb") as fh:
            fh.write(("\n".join(header_lines) + "\n").encode("ascii"))
            for j in range(copies):
                rows = np.ascontiguousarray(periods.vertices(j), dtype="<f8")
                fh.write(memoryview(rows).cast("B"))
                del rows  # before the next copy's rows are formed
            records = np.empty(min(len(mesh.faces), _ROWS_PER_WRITE), dtype=_PLY_FACE)
            records["n"] = 3
            for j in range(copies):
                _write_ply_faces(fh, records, periods.faces(j))
    except OSError as exc:
        raise MeshError(f"PLY export failed for {path!r}: {exc}") from exc
    return periods.n_vertices, periods.n_faces


def _read_ply(fh, path: str) -> SurfaceMesh:
    """The body of :func:`import_ply` on the open file ``fh``."""
    head = []
    while not head or not head[-1].endswith(b"end_header\n"):
        line = fh.readline()
        if not line:
            raise MeshError(f"{path!r} is not a PLY file")
        head.append(line)
    header = b"".join(head)[: -len(b"end_header\n")].decode("ascii", errors="replace")
    header = [line for line in header.splitlines() if not line.startswith("comment ")]
    counts = [
        re.search(rf"^element {name} (\d+)$", "\n".join(header), re.M)
        for name in ("vertex", "face")
    ]
    nv, nf = (m.group(1) if m else "<count>" for m in counts)
    for want, line in itertools.zip_longest(_ply_layout(nv, nf), header):
        if line != want:
            found = "no line" if line is None else f"line {line!r}"
            raise MeshError(f"{path!r}: unsupported PLY header: {found}, expected {want!r}")
    nv, nf = int(nv), int(nf)
    need = nv * 24 + nf * _PLY_FACE.itemsize

    def truncated(size: int) -> MeshError:
        return MeshError(
            f"{path!r}: truncated PLY body, {size} bytes "
            f"for {nv} vertices and {nf} faces ({need} bytes)"
        )

    # a regular file too short for its counts allocates nothing
    stat = os.fstat(fh.fileno())
    if S_ISREG(stat.st_mode) and stat.st_size - fh.tell() < need:
        raise truncated(stat.st_size - fh.tell())
    vertices = np.empty((nv, 3), dtype="<f8")
    faces = np.empty((nf, 3), dtype=np.int32)
    got = fh.readinto(vertices)
    records = np.empty(min(nf, _ROWS_PER_WRITE), dtype=_PLY_FACE)
    bad_size = None
    for start in range(0, nf, _ROWS_PER_WRITE):
        block = records[: nf - start]
        n_read = fh.readinto(block)
        got += n_read
        if n_read < block.nbytes:
            break
        faces[start : start + len(block)] = block["i"]
        bad = np.flatnonzero(block["n"] != 3)
        if bad_size is None and len(bad):
            bad_size = block["n"][bad[0]]
    if got < need:
        raise truncated(got)
    if bad_size is not None:
        raise MeshError(f"{path!r}: non-triangular face of size {bad_size}")
    _require_vertex_indices(faces, nv, path, 0)
    return SurfaceMesh(vertices, faces)


def import_ply(path: str) -> SurfaceMesh:
    """Read a PLY file in the layout :func:`export_ply` writes; any other
    header raises :class:`MeshError` naming its first unsupported line, and a
    face index outside the vertex range raises it too.  The vertex block is
    read straight into the returned float64 array and the face records a
    block at a time into the int32 face array."""
    try:
        with open(path, "rb") as fh:
            return _read_ply(fh, path)
    except OSError as exc:
        raise MeshError(f"PLY import failed for {path!r}: {exc}") from exc


def export_curves_csv(mesh: SurfaceMesh, path: str) -> None:
    """Named boundary polylines as CSV rows (name, index, x1, x2, x3)."""
    if not mesh.boundary_polylines:
        raise MeshError("mesh has no named curves to export")
    try:
        with open(path, "w", encoding="ascii") as fh:
            for line in _metadata_header_lines(mesh.metadata):
                fh.write(f"# {line}\n")
            fh.write("name,index,x1,x2,x3\n")
            for name in sorted(mesh.boundary_polylines):
                poly = mesh.boundary_polylines[name]
                for i, p in enumerate(poly):
                    fh.write(f"{name},{i},{p[0]:.17g},{p[1]:.17g},{p[2]:.17g}\n")
    except OSError as exc:
        raise MeshError(f"curves export failed for {path!r}: {exc}") from exc
