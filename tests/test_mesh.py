"""Mesh generation: patch structure, symmetry assembly, period stacking,
planar-graph property, and file-format round-trips."""

import csv
import dataclasses
import math
import os
import threading
import time
import tracemalloc
from concurrent import futures

import numpy as np
import pytest

from g1helicoid import cli, mesh, weierstrass
from g1helicoid.mesh import (
    MeshError,
    SurfaceMesh,
    _level_values,
    _strip_faces,
    assemble_fundamental_domain,
    check_oriented_manifold,
    export_curves_csv,
    export_obj,
    export_ply,
    import_obj,
    import_ply,
    mesh_patch_D,
    stack_periods,
)
from g1helicoid.torus import SYMMETRIES
from g1helicoid.verify import distance_to_polyline, point_in_polygon

from conftest import traced_peak, triangles_holding

CURVE_NAMES = {"C", "E", "E_hat", "H1", "H2", "c", "end"}


# ---------------------------------------------------------------------------
# patch structure
# ---------------------------------------------------------------------------


def test_patch_basic_structure(patch):
    v, f = patch.vertices, patch.faces
    assert v.ndim == 2 and v.shape[1] == 3
    assert f.ndim == 2 and f.shape[1] == 3
    assert np.all(np.isfinite(v))
    assert f.min() >= 0 and f.max() < len(v)
    assert set(patch.boundary_polylines) == CURVE_NAMES


def test_patch_metadata(patch, params):
    md = patch.metadata
    assert md["rho0"] == pytest.approx(params.rho, rel=1e-14)
    assert md["lambda0"] == pytest.approx(params.lam, rel=1e-14)
    assert md["T"] == pytest.approx(params.T, rel=1e-14)
    assert md["resolution"] == 48
    assert md["worst_x1_closed_form_dev"] < 1e-8 * params.T


def test_patch_is_oriented_manifold(patch):
    rep = check_oriented_manifold(patch)
    assert rep["misoriented_edges"] == 0
    assert rep["overused_edges"] == 0
    assert rep["boundary_edges"] > 0


def test_patch_in_quarter_slab(patch, params):
    x3 = patch.vertices[:, 2]
    T = params.T
    # every vertex is a surface sample and respects the slab wall to rounding
    assert x3.min() > -T / 2 - 1e-9 * T
    # the patch tops out at the upper slit-curve endpoint, below T/2
    assert x3.max() < T / 2


def test_patch_projects_into_left_half_plane(patch, params):
    assert patch.vertices[:, 0].max() < 1e-8 * params.T


def _interior_vertices(mesh):
    """Mask of the vertices that lie on some face and on no edge that only
    one face uses."""
    faces = mesh.faces
    edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, uses = np.unique(edges, axis=0, return_counts=True)
    interior = np.zeros(len(mesh.vertices), dtype=bool)
    interior[faces.ravel()] = True
    interior[edges[uses == 1].ravel()] = False
    return interior


def _graph_collisions(mesh, T):
    """Check the graph property on the projected triangles.

    The patch projects injectively to the (x1, x2)-plane over the domain
    outside the projected slit curve ``c``; the projection folds along the
    axis segments, inside the lens bounded by ``c``.  So take the interior
    vertices whose projection is outside the lens and at least ``0.02 * T``
    away from it, and count those that lie in two or more projected
    triangles whose heights there differ by more than ``10 * 1e-4 * T``.
    Returns (vertices checked, vertices in collision).

    The mesh is graded towards the origin, so the vertices go in rings: the
    square box, halving in size, whose outer half holds them, each ring
    tested only against the triangles that reach that outer half."""
    pts = mesh.vertices[_interior_vertices(mesh), :2]
    lens = np.asarray(mesh.boundary_polylines["c"])[:, :2]
    pts = pts[~point_in_polygon(pts, lens) & ~(distance_to_polyline(pts, lens) < 0.02 * T)]
    reach = np.abs(pts).max(axis=1)
    faces = mesh.faces
    xy = mesh.vertices[faces][:, :, :2]
    # the half sides of the smallest origin-centred square that the triangle
    # reaches and of the smallest that holds it
    near = np.maximum(xy.min(axis=1), -xy.max(axis=1)).max(axis=1)
    far = np.abs(xy).max(axis=(1, 2))
    collisions = 0
    size = reach.max()
    while size >= reach.min():
        ring = pts[(reach <= size) & (reach > size / 2)]
        in_ring = faces[(near <= size) & (far > size / 2)]
        for _, _, heights in triangles_holding(mesh, ring, in_ring):
            collisions += len(heights) > 1 and np.ptp(heights) > 10 * 1e-4 * T
        size /= 2
    return len(pts), collisions


def test_patch_graph_injectivity(patch, params):
    checked, collisions = _graph_collisions(patch, params.T)
    assert checked > 1000
    assert collisions == 0


def test_graph_collisions_seen_on_a_lifted_second_sheet(patch, params):
    # a second copy of the patch, lifted by T/4 over the half plane x2 > 0,
    # lies over the first: the check must see the two heights there
    T = params.T
    lifted = patch.vertices.copy()
    lifted[lifted[:, 1] > 0, 2] += T / 4
    n = len(patch.vertices)
    doubled = SurfaceMesh(
        np.vstack([patch.vertices, lifted]),
        np.vstack([patch.faces, patch.faces + n]),
        boundary_polylines={"c": patch.boundary_polylines["c"]},
    )
    checked, collisions = _graph_collisions(doubled, T)
    assert checked > 2000
    assert collisions > checked // 4


def test_boundary_polylines_are_attached(patch):
    # every boundary polyline point coincides with some mesh vertex, except
    # "c", which is the planar projection of the slit curve, not a mesh edge
    v = patch.vertices
    for name, line in patch.boundary_polylines.items():
        line = np.asarray(line)
        assert line.ndim == 2 and line.shape[1] == 3, name
        if name == "c":
            assert np.max(np.abs(line[:, 2])) < 1e-12  # flattened to x3 = 0
            continue
        sample = line[:: max(1, len(line) // 7)]
        for pt in sample:
            d = np.min(np.linalg.norm(v - pt, axis=1))
            assert d < 1e-9, name


def _scalar_split(v, ll, lr, ur, ul):
    """The per-quad diagonal rule: split on the shorter 3D diagonal, ll-ur on
    a tie, with one ``np.linalg.norm`` per diagonal."""
    if np.linalg.norm(v[ll] - v[ur]) <= np.linalg.norm(v[lr] - v[ul]):
        return [(ll, lr, ur), (ll, ur, ul)]
    return [(ll, lr, ul), (lr, ur, ul)]


def test_quad_diagonals_follow_scalar_rule(patch):
    # Grid cells (every face pair not on the fans at O and O', which are
    # vertices 0 and 1) come as two consecutive triangles (ll, lr, ur),
    # (ll, ur, ul) or (ll, lr, ul), (lr, ur, ul).  Read each quad's corners
    # back from its pair, split it again with the scalar rule, and the faces
    # must come out the same.
    v, f = patch.vertices, patch.faces
    cells = f[~np.isin(f, (0, 1)).any(axis=1)]
    assert len(cells) % 2 == 0
    resplit = []
    for f1, f2 in zip(cells[0::2].tolist(), cells[1::2].tolist()):
        if f2[0] == f1[0] and f2[1] == f1[2]:
            ll, lr, ur, ul = f1[0], f1[1], f1[2], f2[2]
        else:
            assert f2[0] == f1[1] and f2[2] == f1[2]
            ll, lr, ul, ur = f1[0], f1[1], f1[2], f2[1]
        resplit.extend(_scalar_split(v, ll, lr, ur, ul))
    assert len(resplit) > 5000
    assert np.array_equal(np.asarray(resplit), cells)


@pytest.mark.parametrize("lo, hi", [([0, 1, 1, 2], [3, 4, 5, 6]), ([0, 1, 2], [3, 4, 4])])
def test_strip_faces_rejects_a_repeated_row_index(lo, hi):
    # a repeat would collapse a cell to one triangle
    v = np.random.default_rng(0).random((7, 3))
    with pytest.raises(MeshError, match="repeats"):
        _strip_faces(v, np.array(lo), np.array(hi))


@pytest.mark.parametrize("resolution, cutoff", [(48, 1e-2), (8, 5e-2), (23, 3e-3)])
def test_patch_boundary_is_its_named_curves(patch, params, resolution, cutoff):
    # the edges used by one face are exactly the edges between consecutive
    # vertices of the named curves, and each seam names its curve
    if (resolution, cutoff) != (48, 1e-2):
        patch = mesh_patch_D(params, resolution, cutoff)
    v = patch.vertices
    seams = patch.metadata["seam_ids"]
    for name, ids in seams.items():
        assert np.array_equal(v[ids], patch.boundary_polylines[name]), name
    end_ids = [int(np.flatnonzero((v == p).all(axis=1))[0]) for p in patch.boundary_polylines["end"]]
    curves = [ids.tolist() for ids in seams.values()] + [end_ids]
    curve_edges = {frozenset(e) for ids in curves for e in zip(ids[:-1], ids[1:])}
    edges = np.sort(patch.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, uses = np.unique(edges, axis=0, return_counts=True)
    assert {frozenset(e) for e in edges[uses == 1].tolist()} == curve_edges


def test_the_levels_that_straddle_the_puncture_are_the_cutoff_rim(params):
    # no level enters the cutoff disk around z = i/lam
    t_punct = 1.0 / params.lam
    for cutoff in (5e-2, 1e-2, 3e-3, 1e-3):
        for resolution in range(8, 201):
            _, outer = _level_values(params, resolution, cutoff, 10.0 / params.lam)
            k = np.searchsorted(outer, t_punct)
            assert outer[k - 1] == t_punct - cutoff, (resolution, cutoff)
            assert outer[k] == t_punct + cutoff, (resolution, cutoff)


def test_patch_keeps_off_the_pole(params):
    # at res 31 a base level once fell inside the cutoff disk: a vertex sat
    # 4,760 out
    patch = mesh_patch_D(params, 31, 1e-2)
    assert np.linalg.norm(patch.vertices, axis=1).max() < 200


def test_patch_builds_when_a_ray_sits_next_to_the_slit_tip(params):
    # res 137 at cutoff 1e-3 once failed with "subdivision explosion on
    # ring[1.5708->tip]": the gluing-arc piece that ends at the tip was held
    # to its own small size and bisected into the pole's rounding noise
    patch = mesh_patch_D(params, 137, 1e-3)
    assert np.all(np.isfinite(patch.vertices))
    assert patch.metadata["worst_x1_closed_form_dev"] < 1e-8 * params.T
    rep = check_oriented_manifold(patch)
    assert rep["misoriented_edges"] == 0
    assert rep["overused_edges"] == 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_patch_does_not_depend_on_the_cpu_count(patch, params, monkeypatch, cpus):
    # a res-48 patch is below the node count that threads its levels; with
    # the count lowered, two CPUs sweep on two threads and one on none
    pools = []
    real_pool = futures.ThreadPoolExecutor
    monkeypatch.setattr(mesh, "_THREADED_NODES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", lambda n: pools.append(n) or real_pool(n))
    again = mesh_patch_D(params, resolution=48, cutoff=1e-2)
    assert pools == ([2] if cpus == 2 else [])
    assert again.vertices.tobytes() == patch.vertices.tobytes()
    assert again.faces.tobytes() == patch.faces.tobytes()


def test_small_patches_sweep_on_one_thread_and_large_ones_on_two(params, monkeypatch):
    # the thread count follows the nodes of the level sweeps, not the CPUs
    pools = []
    real_pool = futures.ThreadPoolExecutor
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", lambda n: pools.append(n) or real_pool(n))
    mesh_patch_D(params, resolution=96, cutoff=1e-2)
    assert pools == []
    mesh_patch_D(params, resolution=128, cutoff=1e-2)
    assert pools == [2]


def test_no_level_starts_after_a_failing_level(params, monkeypatch):
    # the first level's anchor is off, so its closure check fails; every
    # other level holds in its anchor until the pool has cancelled the queue,
    # so only the levels the two threads took up meanwhile can start
    inner, outer = _level_values(params, 48, 1e-2, 10.0 / params.lam)
    started = []
    cancelled = threading.Event()
    deadline = time.monotonic() + 10.0  # a regression fails instead of hanging
    real_anchor = mesh.x3_E

    class Pool(futures.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            cancelled.set()
            super().shutdown(wait=wait)

    def anchor(params, t):
        started.append(t)
        if t == inner[0]:
            return real_anchor(params, t) + 1.0
        cancelled.wait(max(0.0, deadline - time.monotonic()))
        return real_anchor(params, t)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(mesh, "x3_E", anchor)
    monkeypatch.setattr(mesh, "_THREADED_NODES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(MeshError, match=f"closure failure at level t={inner[0]:.6g}, "):
        mesh_patch_D(params, resolution=48, cutoff=1e-2)
    assert cancelled.is_set()
    # the failing level plus at most one more per thread
    assert len(started) <= 3


def test_the_first_level_with_a_non_finite_integrand_is_reported(params, monkeypatch):
    # two levels poisoned, one inside the unit circle and one outside, which
    # two threads sweep at once: the error is the inner one's, in the words
    # positions_along uses for it
    inner, outer = _level_values(params, 48, 1e-2, 10.0 / params.lam)
    bad = (inner[5], outer[3])
    real_phi = weierstrass.phi_dz

    def poisoned(params, sheet, z, region="auto"):
        out = real_phi(params, sheet, z, region)
        m = np.abs(z)
        hit = (np.abs(m - bad[0]) < 1e-9) | (np.abs(m - bad[1]) < 1e-9)
        out[hit & (z.real < -0.5 * m)] = np.nan
        return out

    monkeypatch.setattr(weierstrass, "phi_dz", poisoned)
    monkeypatch.setattr(mesh, "_THREADED_NODES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    s_breaks = (1.5 * math.pi - mesh._ray_angles(params, 48, 1e-2)[::-1]) / math.pi
    arc = weierstrass.seg_arc("upper_left", bad[0], 1.5 * math.pi, 0.5 * math.pi)
    with pytest.raises(weierstrass.IntegrationError) as alone:
        weierstrass.positions_along(params, arc, s_breaks, np.zeros(3))
    assert str(alone.value).startswith(f"non-finite integrand on {arc.label} at s=")
    with pytest.raises(weierstrass.IntegrationError) as swept:
        mesh_patch_D(params, resolution=48, cutoff=1e-2)
    assert str(swept.value) == str(alone.value)


def test_patch_resolution_must_be_sane(params):
    with pytest.raises(MeshError):
        mesh_patch_D(params, resolution=4)
    with pytest.raises(MeshError):
        mesh_patch_D(params, resolution=16, cutoff=0.9)


# ---------------------------------------------------------------------------
# assembly and stacking
# ---------------------------------------------------------------------------


def test_domain_spans_full_slab(domain, params):
    x3 = domain.vertices[:, 2]
    T = params.T
    # extremes sit on the two end planes, O' and its image, to rounding
    assert x3.min() == pytest.approx(-T / 2, abs=1e-9 * T)
    assert x3.max() == pytest.approx(T / 2, abs=1e-9 * T)


def test_domain_is_oriented_manifold(domain):
    rep = check_oriented_manifold(domain)
    assert rep["misoriented_edges"] == 0
    assert rep["overused_edges"] == 0


def _components(mesh):
    """The number of connected components of the mesh's vertices joined by
    its face edges (a vertex on no face is one of its own), by breadth-first
    search over the edges sorted by their first end."""
    f = np.asarray(mesh.faces)
    heads = f[:, [1, 2, 0]]
    tails = np.concatenate([f.ravel(), heads.ravel()])
    order = np.argsort(tails, kind="stable")
    starts = np.searchsorted(tails[order], np.arange(len(mesh.vertices) + 1))
    neighbours = np.concatenate([heads.ravel(), f.ravel()])[order]
    seen = np.zeros(len(mesh.vertices), dtype=bool)
    count = 0
    while not seen.all():
        front = np.flatnonzero(~seen)[:1]
        seen[front] = True
        count += 1
        while len(front):
            first, n = starts[front], starts[front + 1] - starts[front]
            front = np.unique(neighbours[np.repeat(first - np.cumsum(n) + n, n) + np.arange(n.sum())])
            front = front[~seen[front]]
            seen[front] = True
    return count


def test_component_count_of_two_triangles_and_a_lone_vertex():
    faces = np.array([[0, 1, 2], [3, 5, 4], [2, 1, 6]])
    assert _components(SurfaceMesh(np.zeros((8, 3)), faces)) == 3


@pytest.mark.parametrize("resolution", [24, 48, 96])
def test_domain_is_one_connected_surface(patch, params, resolution):
    # the patch and its three images weld into one piece with every edge
    # used once or twice and consistently oriented; a detached end cap once
    # made each domain five components
    if resolution != patch.metadata["resolution"]:
        patch = mesh_patch_D(params, resolution=resolution, cutoff=1e-2)
    domain = assemble_fundamental_domain(patch)
    assert _components(patch) == 1
    assert _components(domain) == 1
    rep = check_oriented_manifold(domain)
    assert rep["misoriented_edges"] == 0 and rep["overused_edges"] == 0


def test_three_periods_are_one_connected_surface(domain):
    assert _components(stack_periods(domain, 3)) == 1


def test_domain_has_mirror_symmetry(domain):
    # the assembled domain is invariant under (x1,x2,x3) -> (x1,-x2,-x3)
    v = domain.vertices
    flipped = v * np.array([1.0, -1.0, -1.0])
    sample = flipped[:: max(1, len(flipped) // 200)]
    for pt in sample:
        assert np.min(np.linalg.norm(v - pt, axis=1)) < 1e-7


def test_stack_three_periods(domain, params):
    stack = stack_periods(domain, 3)
    T = params.T
    spread = stack.vertices[:, 2].max() - stack.vertices[:, 2].min()
    assert spread == pytest.approx(3.0 * T, abs=1e-9 * T)
    rep = check_oriented_manifold(stack)
    assert rep["misoriented_edges"] == 0
    assert rep["overused_edges"] == 0
    # welding consumed the interface duplicates
    assert len(stack.vertices) < 3 * len(domain.vertices)


def _union_find_roots(n, pairs):
    """Reference labels: a union-find that links the larger root under the
    smaller, so every root is the smallest index of its component."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for ids_a, ids_b, _ in pairs:
        for i, j in zip(ids_a.tolist(), ids_b.tolist()):
            ri, rj = find(i), find(j)
            parent[max(ri, rj)] = min(ri, rj)
    return np.array([find(i) for i in range(n)])


def test_weld_labels_match_union_find(rng):
    n = 400
    # long chains in both index directions, random pairs and repeated pairs
    pairs = [
        (np.arange(0, 99), np.arange(1, 100), "chain up"),
        (np.arange(299, 200, -1), np.arange(298, 199, -1), "chain down"),
        (rng.integers(0, n, 150), rng.integers(0, n, 150), "random"),
        (np.array([5, 5, 399]), np.array([399, 399, 5]), "repeats"),
    ]
    a = np.concatenate([ids_a for ids_a, _, _ in pairs])
    b = np.concatenate([ids_b for _, ids_b, _ in pairs])
    labels = mesh._component_labels(n, a, b)
    assert labels.dtype == np.int32
    assert np.array_equal(labels, _union_find_roots(n, pairs))


def test_weld_rejects_bad_seams():
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1e-3, 0.0]])
    with pytest.raises(MeshError, match="seam s: length mismatch 2 vs 1"):
        mesh._check_seam("s", vertices[[0, 1]], vertices[[2]], 1.0)
    with pytest.raises(MeshError, match=r"seam s: max gap 1\.000e-03 exceeds weld tol 1\.000e-04"):
        mesh._check_seam("s", vertices[[0]], vertices[[2]], 1e-4)


def _weld_by_pairs(vertices, faces, pairs, tol):
    """Reference weld of staged copies: every seam gap is checked, then each
    vertex is labelled with the smallest index of its component in the graph
    of seam pairs (its own pointer-jumping loop, not the package's), the
    smallest indices stay in ascending order and faces that lost a corner go.
    Returns (vertices, faces, old_to_new, n_duplicates_removed)."""
    for ids_a, ids_b, label in pairs:
        mesh._check_seam(label, vertices[ids_a], vertices[ids_b], tol)
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
    removed = len(vertices) - int(np.count_nonzero(is_root))
    return vertices[is_root], new_faces[keep], old_to_new, removed


def _staged_domain(patch):
    """Reference assembly: the four images staged whole, ``np.matmul`` into
    one (4, n, 3) array, welded by ``_weld_by_pairs``.  Returns the domain's
    arrays, stack seams and weld count."""
    n = len(patch.vertices)
    seams = patch.metadata["seam_ids"]
    names = ("base", "half_turn_x1", "half_turn_x3", "half_turn_x2")
    vertices = np.empty((4, n, 3))
    faces = np.empty((4,) + patch.faces.shape, dtype=np.int32)
    for k, name in enumerate(names):
        sym = SYMMETRIES.get(name)
        mat = np.eye(3) if sym is None else sym.space_matrix
        np.matmul(patch.vertices, mat.T, out=vertices[k])
        flip = sym is not None and sym.orientation < 0
        np.add(patch.faces[:, ::-1] if flip else patch.faces, k * n, out=faces[k])

    def ids(copy, seam):
        return np.asarray(seams[seam], dtype=int) + names.index(copy) * n

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
    vertices, faces, old_to_new, removed = _weld_by_pairs(
        vertices.reshape(-1, 3), faces.reshape(-1, 3), pairs, 1e-7 * patch.metadata["T"]
    )
    stack_seams = {
        "bottom_pos_x2": old_to_new[ids("base", "H2")],
        "bottom_neg_x2": old_to_new[ids("half_turn_x3", "H2")],
        "top_pos_x2": old_to_new[ids("half_turn_x2", "H2")],
        "top_neg_x2": old_to_new[ids("half_turn_x1", "H2")],
    }
    return vertices, faces, stack_seams, removed


def _assert_assembled_as_staged(patch):
    domain = assemble_fundamental_domain(patch)
    vertices, faces, stack_seams, removed = _staged_domain(patch)
    # tobytes tells -0.0 from +0.0
    assert domain.vertices.dtype == vertices.dtype and domain.vertices.shape == vertices.shape
    assert domain.vertices.tobytes() == vertices.tobytes()
    assert domain.faces.dtype == faces.dtype and domain.faces.shape == faces.shape
    assert domain.faces.tobytes() == faces.tobytes()
    assert domain.metadata["stack_seams"].keys() == stack_seams.keys()
    for name, ids in stack_seams.items():
        got = domain.metadata["stack_seams"][name]
        assert got.dtype == ids.dtype and np.array_equal(got, ids), name
    assert domain.metadata["weld_duplicates_removed"] == removed
    assert domain.metadata["vertices_before_weld"] == 4 * len(patch.vertices)
    return domain


@pytest.mark.parametrize("resolution", [16, 48])
def test_assembly_matches_the_staged_weld_bit_for_bit(patch, params, resolution):
    if resolution != patch.metadata["resolution"]:
        patch = mesh_patch_D(params, resolution=resolution, cutoff=1e-2)
    # a -0.0 on the origin O must come out of each image as the staged
    # product gives it
    vertices = patch.vertices.copy()
    assert vertices[0].tobytes() == np.zeros(3).tobytes()
    vertices[0, 0] = -0.0
    signed = SurfaceMesh(vertices, patch.faces, patch.boundary_polylines, patch.metadata)
    for source in (patch, signed):
        _assert_assembled_as_staged(source)


def _collapsing_patch():
    """Every image sits on the origin, so every seam gap is 0; vertices 0 and
    1 lie on all the welded curves, so all their images weld into one vertex
    and face (0, 1, 2) loses a corner in every image; (1, 2, 3) stays.  The
    two faces run their edge 1-2 the same way, which the weld collapses."""
    seam = np.array([0, 1])
    return SurfaceMesh(
        np.zeros((4, 3)),
        np.array([[0, 1, 2], [1, 2, 3]], dtype=np.int32),
        metadata={
            "T": 1.0,
            "seam_ids": {"C": seam, "E": seam, "E_hat": seam, "H1": seam, "H2": seam[:0]},
        },
    )


def test_assembly_drops_the_faces_that_lose_a_corner():
    domain = _assert_assembled_as_staged(_collapsing_patch())
    assert len(domain.faces) == 4 and domain.metadata["weld_duplicates_removed"] == 7


def _welded(patch):
    welded = np.zeros(len(patch.vertices), dtype=bool)
    for curve in ("C", "E", "E_hat", "H1"):
        welded[patch.metadata["seam_ids"][curve]] = True
    return welded


@pytest.mark.parametrize("case", ["flipped_face", "flipped_image", "collapsed_face"])
def test_assembly_raises_exactly_when_the_whole_domain_misuses_an_edge(patch, monkeypatch, case):
    # the assembly checks the patch and the faces at the weld seams, not the
    # whole domain; it must raise exactly when the whole domain's check finds
    # an error, with the two parts' counts: a patch-interior error once
    if case == "flipped_face":
        faces = patch.faces.copy()
        # the face nearest the middle row that has no welded corner
        free = np.flatnonzero(~_welded(patch)[faces].any(axis=1))
        k = free[np.argmin(np.abs(free - len(faces) // 2))]
        faces[k] = faces[k, ::-1]
        patch = SurfaceMesh(patch.vertices, faces, patch.boundary_polylines, patch.metadata)
    elif case == "flipped_image":
        sym = SYMMETRIES["half_turn_x1"]
        monkeypatch.setitem(mesh.SYMMETRIES, sym.name, dataclasses.replace(sym, orientation=-1))
    else:
        patch = _collapsing_patch()
    whole = check_oriented_manifold(SurfaceMesh(np.empty((0, 3)), _staged_domain(patch)[1]))
    bad = (whole["misoriented_edges"], whole["overused_edges"])
    if case == "collapsed_face":
        assert bad == (0, 0)
        assemble_fundamental_domain(patch)
        return
    with pytest.raises(MeshError) as err:
        assemble_fundamental_domain(patch)
    if case == "flipped_face":
        assert bad == (12, 0)  # the face's three edges in each of the four images
        counts = (3, 0)
    else:
        assert bad[0] > 0
        counts = bad  # every misused edge has a welded end
    assert str(err.value) == (
        "fundamental domain is not consistently oriented: "
        "{} misoriented, {} overused edges".format(*counts)
    )


def test_assembly_checks_under_half_the_faces_through_the_module_global(patch, monkeypatch):
    # the benchmark times and counts the check by replacing the module's
    # check_oriented_manifold and reading its first positional argument
    passed = []
    checked = mesh.check_oriented_manifold

    def spy(*args, **kwargs):
        assert len(args) == 1 and not kwargs
        passed.append(len(args[0].faces))
        return checked(*args)

    monkeypatch.setattr(mesh, "check_oriented_manifold", spy)
    domain = assemble_fundamental_domain(patch)
    assert len(passed) == 2 and sum(passed) < 0.5 * len(domain.faces)


def test_assembly_raises_the_staged_weld_s_first_seam_error(patch):
    # a vertex on C and one on H1 moved off their partners: the C pairs are
    # checked first
    vertices = patch.vertices.copy()
    for curve in ("C", "H1"):
        vertices[patch.metadata["seam_ids"][curve][3], 0] += 1e-3
    moved = SurfaceMesh(vertices, patch.faces, patch.boundary_polylines, patch.metadata)
    with pytest.raises(MeshError) as staged:
        _staged_domain(moved)
    with pytest.raises(MeshError) as streamed:
        assemble_fundamental_domain(moved)
    assert str(streamed.value) == str(staged.value)
    assert str(streamed.value).startswith("seam C: base~x1: max gap")


def test_stack_requires_positive_count(domain):
    with pytest.raises(MeshError):
        stack_periods(domain, 0)


def _staged_stack(domain, k):
    """Reference stack: k translated copies staged whole and welded by the
    generic seam weld; ``stack_periods`` must give the same arrays."""
    n = len(domain.vertices)
    shift = np.array([0.0, 0.0, domain.metadata["T"]])
    seams = domain.metadata["stack_seams"]
    vertices = np.vstack([domain.vertices + j * shift for j in range(k)])
    faces = np.vstack([domain.faces + j * n for j in range(k)])
    pairs = [
        (seams[f"top_{side}_x2"] + j * n, seams[f"bottom_{side}_x2"] + (j + 1) * n, side)
        for j in range(k - 1)
        for side in ("pos", "neg")
    ]
    vertices, faces, _, removed = _weld_by_pairs(
        vertices, faces, pairs, domain.metadata["weld_tol"]
    )
    return vertices, faces, removed


@pytest.mark.parametrize("k", [2, 3])
def test_stack_matches_the_staged_weld_bit_for_bit(domain, k):
    # tobytes tells -0.0 from +0.0: the staged copy 0 turns the -0.0 put
    # on the origin O into +0.0, so the stack must too
    vertices = domain.vertices.copy()
    assert vertices[0].tobytes() == np.zeros(3).tobytes()
    vertices[0, 0] = -0.0
    domain = SurfaceMesh(vertices, domain.faces, domain.boundary_polylines, domain.metadata)
    stack = stack_periods(domain, k)
    vertices, faces, removed = _staged_stack(domain, k)
    assert stack.vertices.dtype == vertices.dtype and stack.faces.dtype == faces.dtype
    assert stack.vertices.shape == vertices.shape and stack.faces.shape == faces.shape
    assert stack.vertices.tobytes() == vertices.tobytes()
    assert stack.faces.tobytes() == faces.tobytes()
    assert stack.metadata["stack_duplicates_removed"] == removed


def _with_extra_seam(domain, extra_vertices, top_ids, bottom_ids):
    """A copy of ``domain`` with vertices appended (used by no face) and
    extra (top, bottom) entries on the pos-x2 stack seams."""
    seams = dict(domain.metadata["stack_seams"])
    seams["top_pos_x2"] = np.concatenate([seams["top_pos_x2"], top_ids])
    seams["bottom_pos_x2"] = np.concatenate([seams["bottom_pos_x2"], bottom_ids])
    metadata = {**domain.metadata, "stack_seams": seams}
    vertices = np.vstack([domain.vertices, extra_vertices])
    return SurfaceMesh(vertices, domain.faces, domain.boundary_polylines, metadata)


@pytest.mark.parametrize("case", ["two tops", "two bottoms", "two of each"])
def test_stack_rejects_seams_that_are_not_one_to_one(domain, case):
    # the extra vertices copy the first pos-x2 top (t) or bottom (b) vertex,
    # so every seam gap stays 0 while the pairing stops being one to one
    seams = domain.metadata["stack_seams"]
    t, b = seams["top_pos_x2"][0], seams["bottom_pos_x2"][0]
    n = len(domain.vertices)
    copied, tops, bottoms = {
        "two tops": ([t], [n], [b]),  # b~t and b~n
        "two bottoms": ([b], [t], [n]),  # b~t and n~t
        "two of each": ([t, b], [n, t], [b, n + 1]),  # b~t, b~n and n+1~t
    }[case]
    twin = _with_extra_seam(domain, domain.vertices[copied], tops, bottoms)
    with pytest.raises(MeshError, match="one to one"):
        stack_periods(twin, 2)


def test_stack_rejects_a_vertex_on_both_a_top_and_a_bottom_seam(domain):
    # vertex n is a top (over n + 1) and a bottom (under n + 2); each gap is 0
    n = len(domain.vertices)
    T = domain.metadata["T"]
    p = domain.vertices[domain.metadata["stack_seams"]["top_pos_x2"][0]]
    extra = np.array([p, p - [0.0, 0.0, T], p + [0.0, 0.0, T]])
    both = _with_extra_seam(domain, extra, [n, n + 2], [n + 1, n])
    with pytest.raises(MeshError, match="both a top and a bottom"):
        stack_periods(both, 2)


def _moved_seam(domain):
    """``domain`` with one pos-x2 top-seam vertex moved 1e-3 off its partner."""
    vertices = domain.vertices.copy()
    vertices[domain.metadata["stack_seams"]["top_pos_x2"][3], 0] += 1e-3
    return SurfaceMesh(vertices, domain.faces, domain.boundary_polylines, domain.metadata)


def test_stack_rejects_a_seam_gap_above_the_weld_tolerance(domain):
    with pytest.raises(MeshError, match=r"seam stack pos-x2 0~1: max gap 1\.000e-03 exceeds"):
        stack_periods(_moved_seam(domain), 3)


@pytest.mark.parametrize("export", [export_obj, export_ply])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_streamed_periods_write_the_stack_bytes(domain, tmp_path, export, k):
    stack = stack_periods(domain, k)
    streamed, built = tmp_path / "streamed", tmp_path / "built"
    assert export(domain, str(streamed), k) == (len(stack.vertices), len(stack.faces))
    export(stack, str(built))
    assert streamed.read_bytes() == built.read_bytes()


@pytest.mark.parametrize("export", [export_obj, export_ply])
def test_streamed_periods_check_every_seam_before_the_file_opens(domain, tmp_path, export):
    path = tmp_path / "moved"
    with pytest.raises(MeshError) as built:
        stack_periods(_moved_seam(domain), 3)
    with pytest.raises(MeshError) as streamed:
        export(_moved_seam(domain), str(path), 3)
    assert str(streamed.value) == str(built.value)
    assert not path.exists()


def _written_and_read(domain, directory):
    """Per export of ``domain`` (OBJ and PLY, 1 and 3 copies): the file's
    bytes and the bytes of the arrays its importer returns."""
    directory.mkdir()
    out = {}
    for copies in (1, 3):
        for export, read in ((export_obj, import_obj), (export_ply, import_ply)):
            path = directory / f"{copies}-{export.__name__}"
            export(domain, str(path), copies)
            back = read(str(path))
            out[path.name] = (path.read_bytes(), back.vertices.tobytes(), back.faces.tobytes())
    return out


@pytest.fixture(scope="module")
def small_domain(params):
    return assemble_fundamental_domain(mesh_patch_D(params, resolution=8, cutoff=1e-2))


@pytest.mark.parametrize("rows", [1, 5, 7])
def test_block_boundaries_change_no_written_or_read_byte(small_domain, tmp_path, monkeypatch, rows):
    # the exporters and the PLY reader cut every array in blocks of
    # _ROWS_PER_WRITE rows; blocks of a few rows put a boundary inside every
    # copy, seam and record run, which the default size never splits here
    assert len(small_domain.vertices) < mesh._ROWS_PER_WRITE
    default = _written_and_read(small_domain, tmp_path / "default")
    monkeypatch.setattr(mesh, "_ROWS_PER_WRITE", rows)
    assert _written_and_read(small_domain, tmp_path / "small") == default


# Each bound sits between the stage and the one it replaced, at res 48: the
# assembly that checks the patch and the weld band peaks at 1.35x the
# domain's arrays, at 1.60x when it checked the whole domain's faces, the
# four staged images welded into new arrays at 2.68x (at 6.47x before the
# staged copies were written in place); the stack 1.24x, at 3.36x before it
# was written in place; the manifold check, one sort of every key and the
# neighbours' XORs capped in place, 2.25x the face bytes (a window at a time
# 2.19x, bucketed 2.12x, classified whole with boolean masks at 2.50x, at
# 5.00x with staged copies); the PLY export 0.15x, at 0.72x with staged
# copies.


def test_face_areas_peak_memory(patch):
    # the patch build's degenerate-face check: all 19,738 res-48 faces in one
    # block traced 2.7 MB, 8,192 faces at a time 1.2 MB
    areas, peak = traced_peak(mesh._face_areas, patch.vertices, patch.faces)
    assert len(areas) == len(patch.faces)
    assert peak <= 1_600_000


def test_assembly_peak_memory(patch):
    fd, peak = traced_peak(assemble_fundamental_domain, patch)
    assert peak <= 2.0 * (fd.vertices.nbytes + fd.faces.nbytes)


def test_stack_peak_memory(domain):
    stack, peak = traced_peak(stack_periods, domain, 3)
    assert peak <= 1.75 * (stack.vertices.nbytes + stack.faces.nbytes)


def test_manifold_check_peak_memory(domain):
    _, peak = traced_peak(check_oriented_manifold, domain)
    assert peak <= 2.3 * domain.faces.nbytes


def test_ply_export_peak_memory(domain, tmp_path):
    stack = stack_periods(domain, 3)
    _, peak = traced_peak(export_ply, stack, str(tmp_path / "stack.ply"))
    assert peak <= 0.5 * (stack.vertices.nbytes + stack.faces.nbytes)


def test_obj_export_peak_memory(domain, tmp_path):
    # set by the rows formatted in one `%` string, not by the mesh: 65,536
    # rows at a time peaked at 10.9 MB on the res-48 domain, 16,384 at 3.3 MB
    _, peak = traced_peak(export_obj, domain, str(tmp_path / "domain.obj"))
    assert peak <= 6_000_000


def test_mesh_command_peak_memory_per_written_vertex(tmp_path):
    # the whole `mesh` run, solve to export: int32 faces, no patch held past
    # assembly, the domain's arrays the only full-size ones the assembly
    # forms and the periods written a block at a time without building the
    # stack (int64 faces peaked at 120 bytes per written vertex, int32 faces
    # at 76 with the stack built, streamed copies at 49, the streamed
    # assembly at 36, with the bucketed check or the check by structure)
    out = str(tmp_path / "m.ply")
    argv = ["mesh", "--resolution", "48", "--copies", "3", "--format", "ply", "--out", out]
    code, peak = traced_peak(cli.run, argv)
    assert code == 0
    assert peak <= 42 * len(import_ply(out).vertices)


def test_streamed_export_memory_does_not_grow_with_the_period_count(domain):
    # copy j's stack index of each domain vertex is formed from copy j - 1's;
    # the (k, n) table of every copy's took 2.7 MB at k = 3 and 18.5 MB at
    # k = 100; now only the header's counts grow
    _, three = traced_peak(export_ply, domain, os.devnull, 3)
    _, hundred = traced_peak(export_ply, domain, os.devnull, 100)
    assert hundred <= 1.1 * three


def test_ply_import_reads_straight_into_its_arrays(domain, tmp_path):
    # the whole file held as bytes, then copied and converted, peaked at 2.04x
    path = str(tmp_path / "stack.ply")
    stack = stack_periods(domain, 3)
    export_ply(stack, path)
    n_vertices = len(stack.vertices)
    del stack
    back, peak = traced_peak(import_ply, path)
    assert len(back.vertices) == n_vertices
    assert peak <= 1.25 * (back.vertices.nbytes + back.faces.nbytes)


def _mesh_from(source, patch, domain, path):
    if source == "patch":
        return patch
    if source == "domain":
        return domain
    if source == "stack":
        return stack_periods(domain, 2)
    export, read = {"import_obj": (export_obj, import_obj), "import_ply": (export_ply, import_ply)}[
        source
    ]
    export(patch, path)
    return read(path)


@pytest.mark.parametrize("source", ["patch", "domain", "stack", "import_obj", "import_ply"])
def test_built_and_read_meshes_store_int32_faces(patch, domain, tmp_path, source):
    mesh = _mesh_from(source, patch, domain, str(tmp_path / "m"))
    assert mesh.faces.dtype == np.int32
    if source.startswith("import"):
        assert np.array_equal(mesh.faces, patch.faces)


@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
def test_mesh_functions_accept_any_integer_faces(domain, tmp_path, dtype):
    # int32 is what the package builds, not what its functions require
    wide = SurfaceMesh(domain.vertices, domain.faces.astype(dtype), metadata=domain.metadata)
    assert check_oriented_manifold(wide) == check_oriented_manifold(domain)
    assert np.array_equal(stack_periods(wide, 2).faces, stack_periods(domain, 2).faces)
    for name, export in (("m.ply", export_ply), ("m.obj", export_obj)):
        export(wide, str(tmp_path / f"wide_{name}"))
        export(domain, str(tmp_path / name))
        assert (tmp_path / f"wide_{name}").read_bytes() == (tmp_path / name).read_bytes()
        export(wide, str(tmp_path / f"wide_streamed_{name}"), 2)
        export(stack_periods(domain, 2), str(tmp_path / f"stack_{name}"))
        streamed = (tmp_path / f"wide_streamed_{name}").read_bytes()
        assert streamed == (tmp_path / f"stack_{name}").read_bytes()


def test_stack_past_the_int32_index_limit_raises_before_any_copy(domain, monkeypatch):
    # a billion copies would need more vertex indices than int32 has; the
    # limit is checked before the k - 1 seam checks and before the output
    # arrays are allocated
    def no_seam_check(*args):
        raise AssertionError("a seam was checked before the index limit")

    monkeypatch.setattr(mesh, "_check_seam", no_seam_check)
    tracemalloc.start()
    try:
        with pytest.raises(MeshError, match=r"1000000000 copies need \d+ vertices, past the int32"):
            stack_periods(domain, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < domain.vertices.nbytes


def _report(faces):
    mesh = SurfaceMesh(np.zeros((max(map(max, faces)) + 1, 3)), np.array(faces))
    return check_oriented_manifold(mesh)


def test_manifold_report_counts_bad_edges():
    assert _report([(0, 1, 2)]) == {
        "interior_edges": 0,
        "boundary_edges": 3,
        "misoriented_edges": 0,
        "overused_edges": 0,
    }
    # edge 1-2 is run 1->2 by both faces
    assert _report([(0, 1, 2), (3, 1, 2)]) == {
        "interior_edges": 0,
        "boundary_edges": 4,
        "misoriented_edges": 1,
        "overused_edges": 0,
    }
    # edge 0-1 carries three faces
    assert _report([(0, 1, 2), (1, 0, 3), (0, 1, 4)]) == {
        "interior_edges": 0,
        "boundary_edges": 6,
        "misoriented_edges": 0,
        "overused_edges": 1,
    }
    # a closed, consistently wound tetrahedron
    assert _report([(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]) == {
        "interior_edges": 6,
        "boundary_edges": 0,
        "misoriented_edges": 0,
        "overused_edges": 0,
    }


def _edge_use_report(faces):
    """Reference report: a dict from each undirected edge to the +-1
    directions of its uses."""
    edge_use = {}
    for face in faces.tolist():
        for a, b in ((face[0], face[1]), (face[1], face[2]), (face[2], face[0])):
            edge_use.setdefault((min(a, b), max(a, b)), []).append(1 if a < b else -1)
    counts = dict.fromkeys(
        ("interior_edges", "boundary_edges", "misoriented_edges", "overused_edges"), 0
    )
    for uses in edge_use.values():
        if len(uses) == 1:
            counts["boundary_edges"] += 1
        elif len(uses) == 2:
            counts["interior_edges" if sum(uses) == 0 else "misoriented_edges"] += 1
        else:
            counts["overused_edges"] += 1
    return counts


def test_manifold_report_matches_edge_dict(domain):
    # flipped faces misorient edges and repeated faces overuse others, the
    # second face set with faces repeated up to three times
    many = domain.faces.copy()
    many[::97] = many[::97, ::-1]
    many = np.vstack([many, many[5::301]])
    few = domain.faces[:300].copy()
    few[::7] = few[::7, ::-1]
    few = np.vstack([few, few[3::11], few[5::13], few[5::13]])
    for faces in (many, few):
        expect = _edge_use_report(faces)
        assert expect["misoriented_edges"] > 0 and expect["overused_edges"] > 0
        assert check_oriented_manifold(SurfaceMesh(domain.vertices, faces)) == expect
    empty = SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    assert check_oriented_manifold(empty) == _edge_use_report(empty.faces)


# ---------------------------------------------------------------------------
# planar predicates
# ---------------------------------------------------------------------------


def test_point_in_polygon_square():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2], [0.9, 0.99]])
    got = point_in_polygon(pts, square)
    assert got.tolist() == [True, False, False, True]


def test_point_in_polygon_even_odd():
    # a bowtie: the even-odd rule excludes nothing extra at the crossing
    bowtie = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
    pts = np.array([[0.5, 1.0], [1.5, 1.0], [1.0, 1.0 + 1e-6]])
    got = point_in_polygon(pts, bowtie)
    assert got.tolist() == [True, True, False]


def test_distance_to_polyline():
    line = np.array([[0.0, 0.0], [1.0, 0.0]])
    pts = np.array([[0.5, 0.3], [2.0, 0.0], [-1.0, 0.0], [0.25, 0.0]])
    d = distance_to_polyline(pts, line)
    assert d == pytest.approx([0.3, 1.0, 1.0, 0.0], abs=1e-12)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_obj_roundtrip(patch, tmp_path):
    path = str(tmp_path / "patch.obj")
    export_obj(patch, path)
    back = import_obj(path)
    assert back.faces.shape == patch.faces.shape
    assert np.array_equal(back.faces, patch.faces)
    scale = np.abs(patch.vertices).max()
    # OBJ stores 9 significant digits
    assert np.max(np.abs(back.vertices - patch.vertices)) < 1e-8 * scale


def test_obj_reads_v_vt_vn_faces(tmp_path):
    # texture and normal records are skipped; f a/b/c and a//c keep a
    path = tmp_path / "tri.obj"
    path.write_text(
        "# two triangles\no quad\n"
        "v 0 0 0\nvt 0 0\nvn 0 0 1\n"
        "v 1.5 0 -2e-3\nvt 1 0\n"
        "v 1 1 0.1 1.0\nv 0 1 0\n"
        "s off\n"
        "f 1/1/1 2/2/1 3/3/1\n"
        "f 1//1 3//1 4//1\r\n"
    )
    back = import_obj(str(path))
    assert np.array_equal(
        back.vertices, [[0, 0, 0], [1.5, 0, -2e-3], [1, 1, 0.1], [0, 1, 0]]
    )
    assert np.array_equal(back.faces, [[0, 1, 2], [0, 2, 3]])
    assert back.faces.dtype == np.int32


def test_obj_faces_with_and_without_references_read_the_same_arrays(tmp_path):
    # references are stripped only from a file whose face records hold a
    # '/': a file that mixes f a/b/c with plain faces reads as before, and
    # the same faces without references read the same arrays
    verts = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
    mixed, plain = tmp_path / "mixed.obj", tmp_path / "plain.obj"
    mixed.write_text(verts + "f 1/1 2/2 3/3\nf 1 3 4\nf 2//1 3//1 4//1\nf 4 3 2\n")
    plain.write_text(verts + "f 1 2 3\nf 1 3 4\nf 2 3 4\nf 4 3 2\n")
    a, b = import_obj(str(mixed)), import_obj(str(plain))
    assert np.array_equal(a.faces, [[0, 1, 2], [0, 2, 3], [1, 2, 3], [3, 2, 1]])
    for x, y in [(a.vertices, b.vertices), (a.faces, b.faces)]:
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


_OBJ_RECORDS = "v 0 0 0\nv 1.5 0 -2e-3\nv 1 1 0.1\nv 0 1 0\nf 1 2 3\nf 1 3 4\n"


@pytest.mark.parametrize(
    "text",
    [
        _OBJ_RECORDS.replace("\n", "\r\n"),
        _OBJ_RECORDS.rstrip("\n"),
        _OBJ_RECORDS.replace("\n", "\r"),
        "# a comment\nv 0 0 0\nvn 0 0 1\nvt 0 0\nv 1.5 0 -2e-3\n# between\nv 1 1 0.1\n"
        "vt 1 1\nv 0 1 0\n\ns off\nf 1 2 3\nvn 1 0 0\nf 1 3 4",
    ],
    ids=["crlf", "no_final_newline", "cr", "vn_vt_comments_between"],
)
def test_obj_line_endings_and_other_records_read_the_same_arrays(tmp_path, text):
    path = tmp_path / "tri.obj"
    path.write_bytes(text.encode("ascii"))
    back = import_obj(str(path))
    assert np.array_equal(back.vertices, [[0, 0, 0], [1.5, 0, -2e-3], [1, 1, 0.1], [0, 1, 0]])
    assert np.array_equal(back.faces, [[0, 1, 2], [0, 2, 3]])


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"\n",
        b"\r\n\r\n",
        b"v",
        b"v ",
        b"v\n",
        b"v\r\nv 1 2 3",
        b"\rv 1 2 3\r\r\nf 1 2 3\n\rf 4 5 6\r",
        b"vt 1 2\nvn 1 2 3\nv\t1 2 3\n v 1 2 3\nf1 2 3\nf 1 2 3\x0bx\n",
        _OBJ_RECORDS.encode() + b"# end",
        b"v 1 2 3\n\nv 4 5 6\n\n\nf 1 2 3\r\n\rf 3 2 1\n",
    ],
)
def test_obj_record_lines_are_cut_as_splitlines_cuts_them(tmp_path, data):
    # the file reads as the records that `bytes.splitlines` gives and
    # `startswith` picks, one per "\n"-ended line: the same arrays or the
    # same MeshError text
    records = [line for line in data.splitlines() if line.startswith((b"v ", b"f "))]
    path = tmp_path / "records.obj"
    outcomes = []
    for text in (data, b"\n".join(records)):
        path.write_bytes(text)
        try:
            back = import_obj(str(path))
            outcomes.append((back.vertices.tobytes(), back.faces.tobytes()))
        except MeshError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "line", ["v 1 2\n", "v 1 x 3\n", "f 1 2\n", "f 1 2 x\n", "f 1 2.5 3\n"]
)
def test_malformed_obj_record_raises_mesh_error(tmp_path, line):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n" + line)
    with pytest.raises(MeshError, match="bad.obj"):
        import_obj(str(path))


@pytest.mark.parametrize("face", ["f 1 2 3 4", "f 1/1/1 2/2/1 3/3/1 4/4/1", "f 1\t2 3  4"])
def test_obj_polygon_face_raises_mesh_error(tmp_path, face):
    # a polygon is refused, not cut to its first three corners; face 0, with
    # extra blanks around its fields, is a triangle and reads
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf  1 2 3 \n" + face + "\n")
    with pytest.raises(MeshError, match="quad.obj': face 1 has 4 vertices; only triangles are read"):
        import_obj(str(path))


@pytest.mark.parametrize(
    "faces, named",
    [
        ("f 1 2 3\nf 0 1 2\n", r"face 1 \(0 1 2\)"),
        ("f 1 2 9\n", r"face 0 \(1 2 9\)"),
        ("f -1 -2 -3\n", r"face 0 \(-1 -2 -3\)"),
    ],
    ids=["zero", "past_the_end", "relative"],
)
def test_obj_face_outside_the_vertices_raises_mesh_error(tmp_path, faces, named):
    # 0 once wrapped to the last vertex, 9 failed at the first use of the
    # faces, and relative references were read as absolute ones
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n" + faces)
    with pytest.raises(MeshError, match=rf"bad.obj': {named} refers to a vertex outside 1\.\.3"):
        import_obj(str(path))


def test_ply_face_outside_the_vertices_raises_mesh_error(tmp_path):
    path = tmp_path / "bad.ply"
    export_ply(SurfaceMesh(np.eye(3), np.array([[0, 1, 2], [0, 1, 7]])), str(path))
    message = r"bad.ply': face 1 \(0 1 7\) refers to a vertex outside 0\.\.2"
    with pytest.raises(MeshError, match=message):
        import_ply(str(path))


def test_ply_roundtrip_exact(patch, tmp_path):
    path = str(tmp_path / "patch.ply")
    export_ply(patch, path)
    back = import_ply(path)
    # binary doubles survive bit-for-bit
    assert np.array_equal(back.vertices, patch.vertices)
    assert np.array_equal(back.faces, patch.faces)


@pytest.mark.parametrize("cut", [5, 20])
def test_truncated_ply_raises_mesh_error(patch, tmp_path, cut):
    path = tmp_path / "patch.ply"
    export_ply(patch, str(path))
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(MeshError, match="truncated"):
        import_ply(str(path))


def test_non_triangular_ply_face_raises_mesh_error(patch, tmp_path):
    path = tmp_path / "patch.ply"
    export_ply(patch, str(path))
    data = bytearray(path.read_bytes())
    data[-13] = 4  # the count byte of the last face record
    path.write_bytes(bytes(data))
    with pytest.raises(MeshError, match="non-triangular face of size 4"):
        import_ply(str(path))


def test_float32_ply_names_its_unsupported_header_line(tmp_path):
    # once read as doubles, this file failed as a "truncated PLY body"
    path = tmp_path / "float.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\ncomment float32 coordinates\n"
        "element vertex 4\nproperty float x\nproperty float y\nproperty float z\n"
        "element face 2\nproperty list uchar int vertex_indices\nend_header\n"
    )
    records = np.zeros(2, dtype=[("n", "u1"), ("i", "<i4", (3,))])
    records["n"] = 3
    records["i"] = [[0, 1, 2], [0, 2, 3]]
    vertices = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype="<f4")
    path.write_bytes(header.encode("ascii") + vertices.tobytes() + records.tobytes())
    with pytest.raises(MeshError, match="unsupported PLY header: line 'property float x'"):
        import_ply(str(path))
    path.write_bytes(path.read_bytes() + bytes(64))  # trailing bytes change nothing
    with pytest.raises(MeshError, match="unsupported PLY header: line 'property float x'"):
        import_ply(str(path))


def test_obj_header_carries_parameters(patch, tmp_path, params):
    path = str(tmp_path / "patch.obj")
    export_obj(patch, path)
    with open(path) as fh:
        header = [line for line in fh if line.startswith("#")]
    text = "".join(header)
    assert "rho0" in text and "lambda0" in text and "T" in text


def test_export_rejects_empty(tmp_path):
    from g1helicoid.mesh import SurfaceMesh

    empty = SurfaceMesh(
        vertices=np.zeros((0, 3)),
        faces=np.zeros((0, 3), dtype=int),
        boundary_polylines={},
        metadata={},
    )
    with pytest.raises(MeshError):
        export_obj(empty, str(tmp_path / "e.obj"))


def test_curves_csv(patch, tmp_path):
    path = str(tmp_path / "curves.csv")
    export_curves_csv(patch, path)
    names = set()
    n_rows = 0
    with open(path) as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    header, body = rows[0], rows[1:]
    assert header == ["name", "index", "x1", "x2", "x3"]
    for row in body:
        names.add(row[0])
        float(row[2]), float(row[3]), float(row[4])
        n_rows += 1
    assert names == CURVE_NAMES
    assert n_rows == sum(len(v) for v in patch.boundary_polylines.values())


def test_only_the_patch_carries_named_curves(domain, tmp_path):
    assert domain.boundary_polylines == {}
    assert stack_periods(domain, 2).boundary_polylines == {}
    with pytest.raises(MeshError, match="mesh has no named curves"):
        export_curves_csv(domain, str(tmp_path / "curves.csv"))


def test_exports_are_deterministic(patch, tmp_path):
    p1 = str(tmp_path / "a.obj")
    p2 = str(tmp_path / "b.obj")
    export_obj(patch, p1)
    export_obj(patch, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
