"""Shared fixtures: the period solve and a mid-resolution mesh patch are
expensive, so they are computed once per session and shared.  Also the
test-side point location on a projected mesh, which the graph lookup's
reference and the mesh's graph-injectivity tests share, the traced memory
peak that the mesh's and the verification's memory tests read, and the
bounds certificate of the inner solve that acceptance criterion 3 and the
period solver's tests read."""

import math
import tracemalloc
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import pytest

from g1helicoid.mesh import assemble_fundamental_domain, mesh_patch_D
from g1helicoid.period_solver import (
    F_integral,
    Lambda_upper_bound,
    solve_Lambda_of_rho,
    solve_period_problem,
)
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


@dataclass(frozen=True)
class LambdaWindowReport:
    """Bounds certificate for the inner solve ``Lambda(rho)``.

    Per grid point: ``2 < Lambda(rho) < min(2/sin rho, 8)`` and
    ``F(rho, 8) < 0`` whenever 8 is inside the admissible range.  Near the
    upper end of the rho interval the sharper bound
    ``Lambda(rho) < 2 + (1 - sin rho)`` is certified by the sign
    ``F(rho, 2 + (1 - sin rho)) < 0``.  Two closed-form constants used by the
    underlying monotonicity estimates are recomputed:

    ``tail_bound_constant``  = sqrt(2)/3 - 1/2            (< 0)
    ``large_Lambda_constant``= (1/2) sqrt(1/3.75) - (1/2) sqrt(15/16)  (< 0)
    """

    rows: List[dict]
    all_bounds_hold: bool
    tail_bound_constant: float
    large_Lambda_constant: float


def Lambda_window_certificate(rho_grid: Optional[Sequence[float]] = None) -> LambdaWindowReport:
    """Certify the Lambda(rho) bounds on a rho grid (default 64 points).

    ``F(rho, 8)`` is well defined for every rho (the integrand denominator
    ``Lam - 2 sin p >= 6`` there), and its negativity certifies
    ``Lambda(rho) < 8`` via the strict Lambda-decrease of F.
    """
    if rho_grid is None:
        rho_grid = np.linspace(0.02, math.pi / 2 - 0.02, 64)
    rows: List[dict] = []
    ok = True
    for rho in rho_grid:
        rho = float(rho)
        upper = Lambda_upper_bound(rho)
        Lam = solve_Lambda_of_rho(rho)
        row = {
            "rho": rho,
            "Lambda": Lam,
            "upper": upper,
            "in_range": 2.0 < Lam < upper,
            "F_at_8": F_integral(rho, 8.0).value,
            "near_top_bound": None,
        }
        row["F_at_8_negative"] = row["F_at_8"] < 0.0
        ok &= row["F_at_8_negative"]
        if rho > 1.4:
            sharp = 2.0 + (1.0 - math.sin(rho))
            if sharp < upper:
                f_sharp = F_integral(rho, sharp).value
                row["near_top_bound"] = {
                    "Lambda_bound": sharp,
                    "F_at_bound": f_sharp,
                    "holds": Lam < sharp and f_sharp < 0.0,
                }
                ok &= row["near_top_bound"]["holds"]
        ok &= row["in_range"]
        rows.append(row)
    tail_const = math.sqrt(2.0) / 3.0 - 0.5
    big_const = 0.5 * math.sqrt(0.25 / (1.0 - 1.0 / 16.0)) - 0.5 * math.sqrt(1.0 - 1.0 / 16.0)
    ok &= tail_const < 0.0 and big_const < 0.0
    return LambdaWindowReport(
        rows=rows,
        all_bounds_hold=bool(ok),
        tail_bound_constant=tail_const,
        large_Lambda_constant=big_const,
    )
