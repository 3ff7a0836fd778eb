"""The verification suite itself: every check passes at the solution, the
report serializes deterministically, and the guard rails trip correctly."""

import dataclasses
import inspect
import json
import math
import os

import numpy as np
import pytest

from g1helicoid import NumericError, mesh, verify
from g1helicoid import weierstrass as W
from g1helicoid.mesh import SurfaceMesh, distance_to_polyline, point_in_polygon
from g1helicoid.period_solver import PeriodSolverError, scan_H
from g1helicoid.quadrature import DEFAULT_SPEC
from g1helicoid.verify import (
    _GRAPH_BINS,
    GEOM_TOL_FACTOR,
    MONOTONE_STEP_SLACK,
    _lens_masks,
    _polyline_diameter,
    _ProjectedGraph,
    check_c_convex,
    check_graph_disjointness,
    check_lambda_above_one_reversal,
    check_limit_constants,
    check_rho_nonpositive_single_sign,
    check_slab_and_boundary,
    check_x3_monotone_on_C,
    json_text,
    run_all,
)


@pytest.fixture(scope="module")
def report(params):
    return run_all(params=params)


def test_all_checks_pass(report):
    assert report.passed()
    assert report.n_failed == 0
    assert report.n_failed_diagnostic == 0
    assert len(report.checks) == 7


def test_report_order_is_fixed(report):
    names = [c.name for c in report.checks]
    assert names == [
        "x3_monotone_on_C",
        "c_convex",
        "graph_disjointness",
        "slab_and_boundary",
        "limit_constants",
        "lambda_above_one_reversal",
        "rho_nonpositive_single_sign",
    ]


def test_report_parameters(report, params):
    assert report.rho0 == pytest.approx(params.rho, rel=1e-14)
    assert report.lambda0 == pytest.approx(params.lam, rel=1e-14)
    assert report.T == pytest.approx(params.T, rel=1e-14)


def test_json_roundtrip_and_determinism(report):
    s1 = json_text(report.to_dict())
    s2 = json_text(report.to_dict())
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["rho0"] == report.rho0
    assert len(parsed["checks"]) == 7
    # runtimes are excluded so reruns stay byte-identical
    assert "runtime_s" not in s1


def test_report_does_not_depend_on_the_level_threads(report, params, monkeypatch):
    # its res-48 patch sweeps on one thread; with the threading node count
    # lowered and two CPUs, on two
    monkeypatch.setattr(mesh, "_THREADED_NODES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert json_text(run_all(params=params).to_dict()) == json_text(report.to_dict())


def test_table_mentions_every_check(report):
    tbl = report.table()
    for c in report.checks:
        assert c.name in tbl


def test_json_text_formatting():
    s = json_text({"a": 1.0 / 3.0, "b": [float("nan"), float("inf")], "c": "x"})
    assert "0.33333333333333331" in s
    assert "NaN" in s and "Infinity" in s
    # insertion order is preserved
    assert s.index('"a"') < s.index('"b"') < s.index('"c"')


def test_monotone_check_details(params):
    res = check_x3_monotone_on_C(params)
    assert res.passed
    assert res.value < 0.0  # worst step is genuinely decreasing
    assert dict(res.details)["tip_height_residual"] < 1e-8 * params.T
    assert dict(res.details)["n_samples"] == 2 * 500 + 1


def test_slit_position_error_bounds_sit_inside_the_check_tolerances(params):
    # positions_along holds each slit piece to rel_tol times the bank's net
    # displacement: one step of the monotone check carries one piece's
    # error, and the tip gap between the two banks' chains the errors of
    # all 2 * 500 pieces of the monotone check
    rel_tol = inspect.signature(W.positions_along).parameters["rel_tol"].default
    net = max(
        np.max(np.abs(W.integrate_path(params, [W.seg_slit_bank(params, bank)])))
        for bank in ("inner", "outer")
    )
    piece = rel_tol * net
    assert piece < MONOTONE_STEP_SLACK / 10
    assert 2 * 500 * piece < GEOM_TOL_FACTOR * params.T / 3


def test_convexity_check(params):
    res = check_c_convex(params)
    assert res.passed
    assert dict(res.details)["n_samples"] == 2 * 360 + 1
    assert math.pi < res.value < 2.0 * math.pi  # total turning of the lens


def test_slab_check(params):
    res = check_slab_and_boundary(params)
    assert res.passed
    assert res.value < res.tolerance


def test_limit_constants_check():
    res = check_limit_constants(DEFAULT_SPEC)
    assert res.passed
    details = dict(res.details)
    assert details["c1_rounded_4dp"] == pytest.approx(-1.2067, abs=1e-12)
    assert details["c2_rounded_4dp"] == pytest.approx(1.1547, abs=1e-12)
    assert res.value < 0.0  # the combined bound is strictly negative
    # the check's spec also shapes the Lambda(rho) solve and G of each row
    assert details["G_at_1p45"] == scan_H((1.45,), DEFAULT_SPEC)[0][3]


def test_limit_constants_check_rejects_an_unconverged_integral(monkeypatch):
    # each of its six integrals in turn misses its tolerance: the check raises
    # a NumericError (the CLI exits 1) that names it, its estimate and level
    names = [
        "limit-constant comparison integral did not converge",
        "limit-constant limit integral did not converge",
        "lower-window integral(rho=1.45, Lam=",
        "lower-window integral(rho=1.52, Lam=",
        "lower-window integral(rho=1.55, Lam=",
        "upper-window moment integral(rho=1.55, Lam=",
    ]
    real_integrate = verify.integrate
    for k, name in enumerate(names):
        calls = []

        def integrate(*args, k=k, calls=calls):
            res = real_integrate(*args)
            calls.append(res)
            return dataclasses.replace(res, converged=False) if len(calls) == k + 1 else res

        with monkeypatch.context() as m:
            m.setattr(verify, "integrate", integrate)
            with pytest.raises(PeriodSolverError) as exc:
                check_limit_constants(DEFAULT_SPEC)
        bad = calls[k]
        assert isinstance(exc.value, NumericError)
        assert str(exc.value).startswith(name)
        assert str(exc.value).endswith(
            f"did not converge: error estimate {bad.error_estimate:.3e} at level {bad.levels_used}"
        )
        assert len(calls) == k + 1


def test_diagnostic_checks_flagged():
    r1 = check_lambda_above_one_reversal()
    r2 = check_rho_nonpositive_single_sign()
    assert r1.diagnostic and r1.passed
    assert r2.diagnostic and r2.passed


def test_graph_check_with_data(params, patch):
    res = check_graph_disjointness(params, patch, grid=40)
    # value is the smallest F_hat - F gap; passing requires no lookup misses
    assert res.passed and res.value > 0


class _LoopGraph:
    """Reference for :class:`_ProjectedGraph`: dict buckets built in a
    triple loop and one lookup per point, with the same arithmetic."""

    def __init__(self, patch, box):
        verts = patch.vertices
        faces = patch.faces
        for cap in patch.metadata.get("asymptotic_caps", []):
            faces = faces[np.all(faces < int(cap["vertex_start"]), axis=1)]
        tri = verts[faces]
        xy = tri[:, :, :2]
        lo_x, hi_x, lo_y, hi_y = box
        keep = (
            (xy[:, :, 0].min(axis=1) <= hi_x)
            & (xy[:, :, 0].max(axis=1) >= lo_x)
            & (xy[:, :, 1].min(axis=1) <= hi_y)
            & (xy[:, :, 1].max(axis=1) >= lo_y)
        )
        xy = xy[keep]
        self._z = tri[keep][:, :, 2]
        self._p0 = xy[:, 0, :]
        d1 = xy[:, 1, :] - self._p0
        d2 = xy[:, 2, :] - self._p0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        scale = max(hi_x - lo_x, hi_y - lo_y)
        good = np.abs(det) > 1e-300 * scale * scale
        self._p0, d1, d2 = self._p0[good], d1[good], d2[good]
        self._z = self._z[good]
        self._d1, self._d2 = d1, d2
        self._inv_det = 1.0 / (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        self._lo = np.array([lo_x, lo_y])
        self._span = np.array([hi_x - lo_x, hi_y - lo_y])
        mins = np.minimum(np.minimum(xy[good][:, 0], xy[good][:, 1]), xy[good][:, 2])
        maxs = np.maximum(np.maximum(xy[good][:, 0], xy[good][:, 1]), xy[good][:, 2])
        lo_cells = self._cell_of(mins)
        hi_cells = self._cell_of(maxs)
        buckets = {}
        for t in range(len(self._p0)):
            for ix in range(lo_cells[t, 0], hi_cells[t, 0] + 1):
                for iy in range(lo_cells[t, 1], hi_cells[t, 1] + 1):
                    buckets.setdefault((ix, iy), []).append(t)
        self._buckets = {k: np.array(v, dtype=np.int64) for k, v in buckets.items()}

    def _cell_of(self, pts):
        rel = (np.atleast_2d(pts) - self._lo) / self._span
        cells = np.floor(rel * _GRAPH_BINS).astype(np.int64)
        return np.clip(cells, 0, _GRAPH_BINS - 1)

    def lookup(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vals = np.full(len(pts), np.nan)
        found = np.zeros(len(pts), dtype=bool)
        cells = self._cell_of(pts)
        for i, (p, (ix, iy)) in enumerate(zip(pts, cells)):
            cand = self._buckets.get((int(ix), int(iy)))
            if cand is None:
                continue
            rel = p - self._p0[cand]
            u = (rel[:, 0] * self._d2[cand, 1] - rel[:, 1] * self._d2[cand, 0]) * self._inv_det[cand]
            v = (self._d1[cand, 0] * rel[:, 1] - self._d1[cand, 1] * rel[:, 0]) * self._inv_det[cand]
            w = 1.0 - u - v
            inside = (u >= -1e-9) & (v >= -1e-9) & (w >= -1e-9)
            if not inside.any():
                continue
            idx = np.flatnonzero(inside)
            best = idx[np.argmax(np.minimum(np.minimum(u[idx], v[idx]), w[idx]))]
            tri = cand[best]
            vals[i] = (
                self._z[tri, 0] * w[best] + self._z[tri, 1] * u[best] + self._z[tri, 2] * v[best]
            )
            found[i] = True
        return vals, found


def _same_lookup(mesh, box, *point_sets):
    """Both lookups give the same heights (bit for bit, NaN for a miss) and
    found-masks on each point set; returns them, one pair per set."""
    graph, ref = _ProjectedGraph(mesh, box), _LoopGraph(mesh, box)
    results = []
    for pts in point_sets:
        vals, found = graph.lookup(pts)
        ref_vals, ref_found = ref.lookup(pts)
        assert vals.tobytes() == ref_vals.tobytes()
        assert np.array_equal(found, ref_found)
        assert np.array_equal(np.isnan(vals), ~found)
        results.append((vals, found))
    return results if len(results) > 1 else results[0]


def test_graph_lookup_matches_per_point_loop(patch):
    # the queries of check_graph_disjointness at grid 100, plus the lens
    # interior and the patch vertices (which sit on shared edges)
    c_poly = np.asarray(patch.boundary_polylines["c"])[:, :2]
    diam = _polyline_diameter(c_poly)
    L, margin = 5.0 * diam, 0.05 * diam
    box = (-L - margin, 0.0, -L - margin, L + margin)
    xs = -L + (np.arange(100) + 0.5) * (L / 100)
    ys = -L + (np.arange(100) + 0.5) * (2.0 * L / 100)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    kept = ~point_in_polygon(grid, c_poly) & ~(distance_to_polyline(grid, c_poly) < margin)
    mirror = grid[kept] * [1.0, -1.0]
    base, mirrored, full, _ = _same_lookup(
        patch, box, grid[kept], mirror, grid, patch.vertices[:, :2]
    )
    assert base[1].all() and mirrored[1].all()
    assert 0 < np.count_nonzero(~full[1]) < len(grid) // 10


def _sheets(*heights):
    """The unit square split on its 0-2 diagonal, once per height in
    ``heights`` (each sheet flat at that height), sheet by sheet."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    verts = np.vstack([np.column_stack([square, np.full(4, h)]) for h in heights])
    faces = np.vstack([np.array([[0, 1, 2], [0, 2, 3]]) + 4 * k for k in range(len(heights))])
    return SurfaceMesh(verts, faces)


def test_graph_lookup_empty_and_clipped_cells():
    mesh = _sheets(0.25)
    pts = np.array(
        [
            [0.5, 0.2],  # inside the first triangle
            [3.0, 3.0],  # in the box, in a cell no triangle reaches
            [0.5, -0.5],  # below the box: clipped into a filled cell, in no triangle
            [9.0, 9.0],  # beyond the box: clipped into an empty corner cell
        ]
    )
    vals, found = _same_lookup(mesh, (0.0, 4.0, 0.0, 4.0), pts)
    assert found.tolist() == [True, False, False, False]
    assert vals[0] == 0.25
    # a point left of a box that cuts the square is still found, through
    # the clipped cell at the box edge
    vals, found = _same_lookup(mesh, (0.5, 4.0, 0.0, 4.0), np.array([[0.1, 0.7]]))
    assert found[0] and vals[0] == 0.25


def test_graph_lookup_tie_takes_first_candidate():
    # a point on the shared diagonal scores 0 in both triangles
    vals, found = _same_lookup(_sheets(0.25), (0.0, 4.0, 0.0, 4.0), np.array([[0.5, 0.5]]))
    assert found[0] and vals[0] == 0.25
    # two sheets over the same square tie everywhere: the lower triangle
    # index wins, whichever sheet it is on
    pts = np.array([[0.5, 0.5], [0.7, 0.2], [0.2, 0.7]])
    vals, _ = _same_lookup(_sheets(0.25, 0.75), (0.0, 4.0, 0.0, 4.0), pts)
    assert vals == pytest.approx([0.25, 0.25, 0.25], abs=1e-12)
    vals, _ = _same_lookup(_sheets(0.75, 0.25), (0.0, 4.0, 0.0, 4.0), pts)
    assert vals == pytest.approx([0.75, 0.75, 0.75], abs=1e-12)


def test_graph_lookup_of_no_points():
    vals, found = _same_lookup(_sheets(0.25), (0.0, 4.0, 0.0, 4.0), np.empty((0, 2)))
    assert vals.shape == found.shape == (0,)


def test_failed_check_detected():
    # a generic non-solution parameter set must NOT verify: the vertical
    # period is open, so the mirror-graph equality on c fails
    from g1helicoid.params import SurfaceParams

    off = SurfaceParams.create(0.5, 0.61)
    res = check_slab_and_boundary(off)
    assert not res.passed


def test_near_mask_prefilter_matches_full_distance(patch):
    # the grid and margin of check_graph_disjointness at its default grid
    c_poly = np.asarray(patch.boundary_polylines["c"])[:, :2]
    diam = _polyline_diameter(c_poly)
    L, margin, grid = 5.0 * diam, 0.05 * diam, 100
    xs = -L + (np.arange(grid) + 0.5) * (L / grid)
    ys = -L + (np.arange(grid) + 0.5) * (2.0 * L / grid)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside, near = _lens_masks(pts, c_poly, margin)
    assert np.array_equal(inside, point_in_polygon(pts, c_poly))
    assert np.array_equal(near, distance_to_polyline(pts, c_poly) < margin)
    assert 0 < inside.sum() < len(pts) and 0 < near.sum() < len(pts)

    # points exactly margin outside the bounding box of c, and one and two
    # ulps either side of that, along all four sides
    lo = c_poly.min(axis=0) - margin
    hi = c_poly.max(axis=0) + margin
    edge = []
    for frac in np.linspace(0.0, 1.0, 41):
        across = lo + frac * (hi - lo)
        for axis in (0, 1):
            for bound in (lo[axis], hi[axis]):
                for steps in (-2, -1, 0, 1, 2):
                    v = bound
                    for _ in range(abs(steps)):
                        v = np.nextafter(v, math.copysign(math.inf, steps))
                    p = across.copy()
                    p[axis] = v
                    edge.append(p)
    edge = np.array(edge)
    inside, near = _lens_masks(edge, c_poly, margin)
    assert np.array_equal(inside, point_in_polygon(edge, c_poly))
    assert np.array_equal(near, distance_to_polyline(edge, c_poly) < margin)
