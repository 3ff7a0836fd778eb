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
(strips between consecutive rows) and the seams (first and last vertex of each
row) all read this table.  No level enters the cutoff disk; the two rows that
straddle the puncture sit at 1/lam -+ cutoff, and the helicoidal end is cut
off there: the cell between them around the puncture is left open, so every
vertex is a sample of the surface and the patch is one connected piece.

Each level is anchored on the x3-axis (its theta = 3pi/2 endpoint has the
closed-form height) and swept independently, so no error accumulates from
one level to the next.  The levels share one table of K15 nodes
(:func:`~g1helicoid.weierstrass.arc_positions`).  The bottom-edge
endpoints then get re-derived by the sweep and checked against the
independent closed-form ray values -- a strong whole-pipeline consistency
check.  The first coordinate of every vertex is additionally checked
against the exact global formula x1 = (2 cos rho / r) Re[1/(z - i/lam)].

The fundamental domain is the patch plus its images under the three axis
half-turns diag(1,-1,-1), diag(-1,-1,1), diag(-1,1,-1); the two
antiholomorphic copies get flipped triangle windings.  Welding is by explicit
seam lists (exact index correspondences), not by fuzzy proximity.  Each image
repeats the patch's edges, so the assembly checks edge use on the patch once
and on the faces at the weld seams, not on the whole domain.  Only the patch
carries named boundary curves; assembled and stacked meshes do not.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, field
from stat import S_ISREG
from typing import Dict, List, Tuple

import numpy as np

from . import NumericError, blocks
from .params import SurfaceParams
from .torus import SYMMETRIES, build_chart
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


#: Rows that the exporters form and write, and the PLY reader reads, at a
#: time.  Process peaks in MB, unbounded against these blocks (medians of 4
#: and 6 alternating runs, each child's ru_maxrss read with os.wait4 by a
#: small parent; Python 3.11, numpy 2.4, x86-64 Linux): `mesh --resolution
#: 48 --copies 3` OBJ 50.1 against 38.5, the res-160 OBJ 211.7 against 63.5,
#: the res-160 PLY 85.8 against 62.9, and import_ply of that PLY 110.1
#: against 80.4.
_ROWS_PER_WRITE = 1 << 14

#: Faces whose areas :func:`_face_areas` forms at a time.  With no bound,
#: `verify --verify-grid 100` peaked at 36.10 MB against 34.88 MB (medians of
#: 12 alternating runs, measured as for ``_ROWS_PER_WRITE``).
_FACES_PER_AREA_BLOCK = 1 << 13


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
    none between the two circle rows) and the seams all read this table.
    The levels share one table of K15 nodes and are swept in level order, so
    the first level that fails raises and no later level starts.

    ``cutoff`` is the radius of the disk around the puncture z = i/lam that
    no level enters; the two rows that straddle it sit at 1/lam -+ cutoff,
    and the patch ends there: their cell around the puncture is left open
    and its four corners are the ``end`` polyline.  |z| is truncated at
    10/lam near the far node, where the grid closes with a fan onto the
    exact node image.
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

    levels = [level(t) for t in np.concatenate([inner_t, outer_t])]

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

    return SurfaceMesh(vertices, faces_arr, boundary, metadata)


def _face_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """The area of each face, formed ``_FACES_PER_AREA_BLOCK`` faces at a time."""
    areas = np.empty(len(faces))
    size = _FACES_PER_AREA_BLOCK
    for block, out in zip(blocks(faces, size), blocks(areas, size)):
        a = vertices[block[:, 1]] - vertices[block[:, 0]]
        b = vertices[block[:, 2]] - vertices[block[:, 0]]
        out[:] = 0.5 * np.linalg.norm(np.cross(a, b), axis=1)
    return areas


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


def _component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label each of ``n`` nodes (int32) with the smallest node of its
    component in the graph whose edges join ``a[i]`` and ``b[i]``.

    Labels start as the node numbers; each round lowers both ends of every
    edge to the smaller of their two labels and then replaces every label by
    its own label (pointer jumping), until a round changes nothing.  Labels
    only fall and always name a node of the same component, so at that point
    every component carries its smallest node: the roots of a union-find that
    always links the larger root under the smaller.
    """
    labels = np.arange(n, dtype=np.int32)
    while True:
        low = np.minimum(labels[a], labels[b])
        step = labels.copy()
        np.minimum.at(step, a, low)
        np.minimum.at(step, b, low)
        step = step[step]
        if np.array_equal(step, labels):
            return labels
        labels = step


def _whole(faces: np.ndarray) -> np.ndarray:
    """Whether each face has three distinct corners."""
    return (faces[:, 0] != faces[:, 1]) & (faces[:, 1] != faces[:, 2]) & (faces[:, 0] != faces[:, 2])


def assemble_fundamental_domain(patch: SurfaceMesh) -> SurfaceMesh:
    """One translational fundamental domain: the patch plus its images under
    the three axis half-turns, welded along the shared boundary curves.

    Every seam gap must stay below ``1e-7 * T`` (kept as
    ``metadata["weld_tol"]``).  The two antiholomorphic copies (x3-axis and
    x2-axis half-turns) get flipped triangle windings so the assembled
    orientation is consistent.

    The domain's two arrays are the only full-size ones built.  Each seam gap
    is measured on the two images' seam rows.  Each seam vertex is welded
    into the smallest vertex of its component in the graph of seam pairs,
    labelled on the seam vertices alone; every other vertex stays.  So the
    domain holds the vertices that stay, image after image (base, then the
    x1, x3 and x2 half-turns), each image's faces are mapped straight into
    the domain's face array, and faces that lost a corner go.  Each image's
    rows ``patch.vertices @ M.T`` then fill its block.

    Edge use is checked in two parts before any vertex row is formed.  A
    welded vertex is one on C, E, E_hat or H1.  Each image uses an edge with
    no welded end as the patch does: the first part is the patch, each
    welded corner given an id of its own, so an edge with a welded end is
    used once.  Every use of such an edge, and every face that loses a
    corner, lies in a face that touches a welded vertex: the second part is
    every image's faces that do.  :class:`MeshError` is raised exactly when
    a check of the whole domain would find a misoriented or overused edge,
    with the two parts' counts: an error inside the patch counts once.
    """
    if patch.is_empty():
        raise MeshError("cannot assemble from an empty patch")
    weld_tol = 1e-7 * float(patch.metadata["T"])
    n = len(patch.vertices)
    seams = patch.metadata["seam_ids"]
    mats = [np.eye(3) if sym is None else SYMMETRIES[sym].space_matrix for _, sym in _COPY_SPECS]
    copy_of = {name: k for k, (name, _) in enumerate(_COPY_SPECS)}

    # the curves two images share; each C pair runs the second image's curve backwards
    shared = [
        ("base", "half_turn_x1", "C", "C: base~x1"),
        ("half_turn_x3", "half_turn_x2", "C", "C: x3~x2"),
        ("base", "half_turn_x3", "E", "E: base~x3"),
        ("base", "half_turn_x3", "E_hat", "E_hat: base~x3"),
        ("half_turn_x1", "half_turn_x2", "E", "E: x1~x2"),
        ("half_turn_x1", "half_turn_x2", "E_hat", "E_hat: x1~x2"),
        ("base", "half_turn_x2", "H1", "H1: base~x2"),
        ("half_turn_x1", "half_turn_x3", "H1", "H1: x1~x3"),
    ]
    ends_a: List[np.ndarray] = []
    ends_b: List[np.ndarray] = []
    welded = np.zeros(n, dtype=bool)
    for copy_a, copy_b, curve, label in shared:
        ids_a = np.asarray(seams[curve], dtype=int)
        ids_b = ids_a[::-1] if curve == "C" else ids_a
        rows_a = patch.vertices[ids_a] @ mats[copy_of[copy_a]].T
        rows_b = patch.vertices[ids_b] @ mats[copy_of[copy_b]].T
        _check_seam(label, rows_a, rows_b, weld_tol)
        ends_a.append(ids_a + n * copy_of[copy_a])
        ends_b.append(ids_b + n * copy_of[copy_b])
        welded[ids_a] = True

    # `nodes` ascends, so each component's smallest node is its smallest vertex
    nodes, pairs = np.unique(np.concatenate(ends_a + ends_b), return_inverse=True)
    labels = _component_labels(len(nodes), *np.split(pairs, 2))
    kept = np.ones(4 * n, dtype=bool)
    kept[nodes[labels != np.arange(len(nodes))]] = False
    old_to_new = np.cumsum(kept, dtype=np.int32)
    old_to_new -= 1
    old_to_new[nodes] = old_to_new[nodes[labels]]

    # the misoriented and overused edges among the faces that keep three corners
    def misuses(faces: np.ndarray) -> np.ndarray:
        report = check_oriented_manifold(SurfaceMesh(np.empty((0, 3)), faces[_whole(faces)]))
        return np.array([report["misoriented_edges"], report["overused_edges"]])

    # the edge check's first part: the patch, each welded corner given an id of its own
    touched = welded[patch.faces]
    own = np.array(patch.faces)
    rows, cols = np.nonzero(touched)
    own[rows, cols] = n + np.arange(len(rows))
    errors = misuses(own)
    del own, rows, cols

    nf = len(patch.faces)
    faces = np.empty((4 * nf, 3), dtype=np.int32)
    for k, (_, sym) in enumerate(_COPY_SPECS):
        flip = sym is not None and SYMMETRIES[sym].orientation < 0
        image = patch.faces[:, ::-1] if flip else patch.faces
        # indexing casts the int32 faces a buffer at a time; np.take would copy them as intp
        faces[k * nf : (k + 1) * nf] = old_to_new[k * n : (k + 1) * n][image]
    # its second part: every image's faces that touch a welded vertex
    errors += misuses(faces.reshape(4, nf, 3)[:, touched.any(axis=1)].reshape(-1, 3))
    del touched
    if errors.any():
        raise MeshError(
            "fundamental domain is not consistently oriented: "
            "{} misoriented, {} overused edges".format(*errors)
        )
    keep = _whole(faces)
    if not keep.all():
        faces = faces[keep]
    del keep

    def new_ids(copy: str, seam: str) -> np.ndarray:
        return old_to_new[np.asarray(seams[seam], dtype=int) + n * copy_of[copy]]

    metadata = dict(patch.metadata)
    metadata.pop("seam_ids", None)
    metadata["weld_tol"] = weld_tol
    metadata["weld_duplicates_removed"] = 4 * n - int(np.count_nonzero(kept))
    metadata["vertices_before_weld"] = 4 * n
    metadata["stack_seams"] = {
        "bottom_pos_x2": new_ids("base", "H2"),
        "bottom_neg_x2": new_ids("half_turn_x3", "H2"),
        "top_pos_x2": new_ids("half_turn_x2", "H2"),
        "top_neg_x2": new_ids("half_turn_x1", "H2"),
    }
    del old_to_new

    vertices = np.empty((4 * n - metadata["weld_duplicates_removed"], 3))
    start = 0
    for k, mat in enumerate(mats):
        stays = kept[k * n : (k + 1) * n]
        count = int(np.count_nonzero(stays))
        np.compress(stays, patch.vertices @ mat.T, axis=0, out=vertices[start : start + count])
        start += count
    return SurfaceMesh(vertices, faces, metadata=metadata)


class _Periods:
    """k periods of a fundamental domain, checked and laid out but not
    built: the one body that :func:`stack_periods` fills its arrays from and
    that :func:`export_obj` and :func:`export_ply` write copy by copy.

    The constructor runs every check :func:`stack_periods` documents, in its
    order, and lays out the stack: its vertex and face counts and its
    ``metadata``.
    ``vertices()`` and ``faces()`` then form the stack's vertex rows and its
    faces copy after copy, ``_ROWS_PER_WRITE`` rows at a time.  One period is
    the domain as it is and reads no stack metadata.
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
        self.bottom = np.flatnonzero(~keep)
        self.top = partner[self.bottom]
        self.metadata = dict(domain.metadata)
        self.metadata["stack_duplicates_removed"] = (k - 1) * (n - m)
        self.metadata.pop("stack_seams", None)

    def vertices(self):
        """The stack's vertex rows: the domain's, then the rows each later
        copy adds."""
        v = self.domain.vertices
        if self.k == 1:
            yield from blocks(v, _ROWS_PER_WRITE)
            return
        for rows in blocks(v, _ROWS_PER_WRITE):
            yield rows + 0 * self.shift  # -0.0 becomes +0.0 in copy 0, as in later copies
        for j in range(1, self.k):
            for ids in blocks(self.kept, _ROWS_PER_WRITE):
                yield np.take(v, ids, axis=0) + j * self.shift  # faster than v[ids]

    def faces(self):
        """Every copy's faces as stack vertex indices, copy after copy.

        ``index`` holds one copy's stack index of each domain vertex; copy
        j's is formed from copy j - 1's, whose top seam is copy j's bottom
        seam, so no more than one copy's is held."""
        f = self.domain.faces
        if self.k == 1:
            yield from blocks(f, _ROWS_PER_WRITE)
            return
        index = np.arange(len(self.domain.vertices), dtype=np.int32)
        for j in range(self.k):
            if j:
                top = index[self.top]
                first = len(index) + (j - 1) * len(self.kept)
                index[self.kept] = np.arange(first, first + len(self.kept))
                index[self.bottom] = top
            for block in blocks(f, _ROWS_PER_WRITE):
                yield index[block]


def stack_periods(domain: SurfaceMesh, k: int) -> SurfaceMesh:
    """k copies of the fundamental domain translated by (0,0,T) steps, welded
    along the matching horizontal boundary lines with the domain's own
    ``metadata["weld_tol"]``.

    Copy j's bottom seam is copy j-1's top seam, so the output is copy 0,
    then each later copy without its bottom-seam vertices (the layout a weld
    of the k staged copies into the smallest vertex of each seam pair gives).
    The ``stack_seams`` must pair bottom and top vertices one to one, and no
    vertex may sit on both a top and a bottom seam; otherwise
    :class:`MeshError` is raised.  So is a stack whose vertex count passes the
    int32 face-index limit, before any seam is checked or any copy is built.
    ``export_obj(domain, path, k)`` and ``export_ply(domain, path, k)`` write
    the same stack copy by copy, without building it.
    """
    periods = _Periods(domain, k)
    if k == 1:
        return domain
    vertices = np.empty((periods.n_vertices, 3))
    faces = np.empty((periods.n_faces, 3), dtype=np.int32)
    for out, parts in ((vertices, periods.vertices()), (faces, periods.faces())):
        start = 0
        for block in parts:
            out[start : start + len(block)] = block
            start += len(block)
            del block  # before the next block is formed
    return SurfaceMesh(vertices, faces, metadata=periods.metadata)


# ----------------------------------------------------------------------
# Structural checks
# ----------------------------------------------------------------------

def check_oriented_manifold(mesh: SurfaceMesh) -> Dict[str, int]:
    """Edge-use report: interior edges must be shared by exactly two faces
    with opposite orientation; boundary edges by one.

    Each of the 3F directed face edges a->b gets the int64 key
    2 (min(a, b) n + max(a, b)) + [a < b], formed one face corner at a time
    from the faces as they are (any integer dtype, never copied) as
    2 (min(a, b) (n - 1) + a + b) + [a < b] into one array sorted in place.
    A run of keys with the same half is one edge: the run length is its use
    count, and an edge used twice is consistently oriented when its two keys
    differ (in the last bit).  So two neighbouring sorted keys are one use
    twice when their XOR is 0, one edge's two directions when it is 1, and
    two edges otherwise; the XORs, capped at 2 as int8 codes, classify every
    run in one pass.
    """
    f = np.asarray(mesh.faces)
    n = int(f.max()) + 1 if f.size else 0
    keys = np.empty((3, len(f)), dtype=np.int64)
    for j in range(3):
        a, b = f[:, j], f[:, (j + 1) % 3]
        key = keys[j]
        np.minimum(a, b, out=key)
        key *= n - 1
        key += a
        key += b
        key *= 2
        key += a < b
    keys = keys.reshape(-1)
    keys.sort()
    n_keys = len(keys)
    # in place, as numpy reads each input before the output overwrites it
    # (keys[1:] runs ahead of keys[:-1]); no temporary of the keys' size
    np.bitwise_xor(keys[1:], keys[:-1], out=keys[:-1])
    np.minimum(keys, 2, out=keys)
    # code[i]: keys i - 1 and i are one use twice (0), two directions (1) or
    # two edges (2); 2 before the first key and past the last
    code = np.full(n_keys + 2, 2, dtype=np.int8)
    code[1:n_keys] = keys[:-1]
    del keys, key
    begins, second, third = code[:n_keys] == 2, code[1 : n_keys + 1], code[2:]
    twice = begins & (second < 2) & (third == 2)
    counts = [
        np.count_nonzero(twice & (second == 1)),
        np.count_nonzero(begins & (second == 2)),
        np.count_nonzero(twice & (second == 0)),
        np.count_nonzero(begins & (second < 2) & (third < 2)),
    ]
    names = ("interior_edges", "boundary_edges", "misoriented_edges", "overused_edges")
    return {name: int(count) for name, count in zip(names, counts)}


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
    return lines


def _write_rows(fh, row_format: str, rows: np.ndarray) -> None:
    """Write ``row_format % row`` for every row of a block with one ``%``,
    whose Python floats and text take about 170 bytes a vertex row (``%.9g``
    gives the same text as ``f"{x:.9g}"``)."""
    fh.write((row_format * len(rows)) % tuple(rows.ravel().tolist()))


def export_obj(mesh: SurfaceMesh, path: str, copies: int = 1) -> Tuple[int, int]:
    """ASCII OBJ (v/f records, 1-based indices, 9 significant digits) of
    ``copies`` periods of ``mesh``, the bytes ``export_obj(stack_periods(mesh,
    copies), path)`` writes, formed and written ``_ROWS_PER_WRITE`` rows at a
    time.  Every check of the stack runs before the file is opened.  Returns
    the vertex and face counts written."""
    _require_nonempty(mesh)
    periods = _Periods(mesh, copies)
    try:
        with open(path, "w", encoding="ascii") as fh:
            for line in _metadata_header_lines(periods.metadata):
                fh.write(f"# {line}\n")
            for rows in periods.vertices():
                _write_rows(fh, "v %.9g %.9g %.9g\n", rows)
            for block in periods.faces():
                _write_rows(fh, "f %d %d %d\n", block + 1)
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
    """Read the lines that begin ``v `` and ``f `` of an OBJ file, cut as
    ``bytes.splitlines`` cuts them.

    A vertex is the first three coordinates of its line, a face its three
    vertex references (``f a/b/c`` keeps ``a``); other lines are skipped.  A
    record with fewer than three fields, a face with more than three (a
    polygon), a field that is not a number, or a reference that is not a
    vertex number (1 to the vertex count; relative references are not read)
    raises :class:`MeshError`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MeshError(f"OBJ import failed for {path!r}: {exc}") from exc
    v_lines: List[bytes] = []
    f_lines: List[bytes] = []
    for line in data.splitlines():
        tag = line[:2]
        if tag == b"v ":
            v_lines.append(line)
        elif tag == b"f ":
            f_lines.append(line)
    del data
    if not v_lines:
        raise MeshError(f"no vertices found in {path!r}")
    if f_lines:
        block = b"\n".join(f_lines)
        if b"/" in block:  # never in the files export_obj writes
            block = re.sub(rb"/\S*", b"", block)
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


def export_ply(mesh: SurfaceMesh, path: str, copies: int = 1) -> Tuple[int, int]:
    """Binary little-endian PLY with float64 coordinates of ``copies``
    periods of ``mesh``, the bytes ``export_ply(stack_periods(mesh, copies),
    path)`` writes, formed and written ``_ROWS_PER_WRITE`` rows at a time.
    Every check of the stack runs before the file is opened.  Returns the
    vertex and face counts written."""
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
            for rows in periods.vertices():
                fh.write(memoryview(np.ascontiguousarray(rows, dtype="<f8")).cast("B"))
            records = np.empty(min(len(mesh.faces), _ROWS_PER_WRITE), dtype=_PLY_FACE)
            records["n"] = 3
            for block in periods.faces():
                block_records = records[: len(block)]
                block_records["i"] = block
                del block  # before the next block is formed
                fh.write(memoryview(block_records).cast("B"))
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
    for block in blocks(faces, _ROWS_PER_WRITE):
        block_records = records[: len(block)]
        n_read = fh.readinto(block_records)
        got += n_read
        if n_read < block_records.nbytes:
            break
        block[:] = block_records["i"]
        bad = np.flatnonzero(block_records["n"] != 3)
        if bad_size is None and len(bad):
            bad_size = block_records["n"][bad[0]]
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
