"""Shared fixtures: the period solve and a mid-resolution mesh patch are
expensive, so they are computed once per session and shared.  Also the
test-side point location on a projected mesh, which the graph lookup's
reference and the mesh's graph-injectivity tests share, and the traced
memory peak that the mesh's and the verification's memory tests read."""

import tracemalloc

import numpy as np
import pytest

from g1helicoid.mesh import assemble_fundamental_domain, mesh_patch_D
from g1helicoid.period_solver import solve_period_problem
from g1helicoid.torus import build_chart


@pytest.fixture(scope="session")
def solution():
    return solve_period_problem()


@pytest.fixture(scope="session")
def params(solution):
    return solution.params


@pytest.fixture(scope="session")
def chart(params):
    return build_chart(params)


@pytest.fixture(scope="session")
def patch(params):
    return mesh_patch_D(params, resolution=48, cutoff=1e-2)


@pytest.fixture(scope="session")
def domain(patch):
    return assemble_fundamental_domain(patch)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)


def triangles_holding(mesh, pts, faces):
    """Point by point, every projected triangle among ``faces`` that holds the
    2D point: one ``(rows, scores, heights)`` triple per point, where ``rows``
    index ``faces`` in ascending order, a score is ``min(u, v, w)`` and a
    height the barycentric interpolation of the triangle's x3 at the point.

    Each point tests every triangle whose bounding box holds it, with the
    arithmetic of ``verify._GraphLattice``: a triangle holds the point when
    all three barycentrics are at least ``-1e-9``, and a degenerate one holds
    none."""
    tri = mesh.vertices[faces]
    p0 = tri[:, 0, :2]
    d1 = tri[:, 1, :2] - p0
    d2 = tri[:, 2, :2] - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    lo_x, lo_y = np.min(tri[:, :, :2], axis=1).T.copy()
    hi_x, hi_y = np.max(tri[:, :, :2], axis=1).T.copy()
    good = np.abs(det) > 1e-300
    out = []
    for p in np.asarray(pts, dtype=float).reshape(-1, 2):
        rows = np.flatnonzero((lo_x <= p[0]) & (p[0] <= hi_x) & good)
        rows = rows[(lo_y[rows] <= p[1]) & (p[1] <= hi_y[rows])]
        rel = p - p0[rows]
        inv_det = 1.0 / det[rows]
        u = (rel[:, 0] * d2[rows, 1] - rel[:, 1] * d2[rows, 0]) * inv_det
        v = (d1[rows, 0] * rel[:, 1] - d1[rows, 1] * rel[:, 0]) * inv_det
        w = 1.0 - u - v
        inside = (u >= -1e-9) & (v >= -1e-9) & (w >= -1e-9)
        rows, u, v, w = rows[inside], u[inside], v[inside], w[inside]
        z = tri[rows, :, 2]
        out.append(
            (rows, np.minimum(np.minimum(u, v), w), z[:, 0] * w + z[:, 1] * u + z[:, 2] * v)
        )
    return out


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated (tracemalloc
    sees numpy's array buffers)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
