"""The verification suite itself: every check passes at the solution, the
report serializes deterministically, and the guard rails trip correctly."""

import dataclasses
import inspect
import json
import math
import os
import time

import numpy as np
import pytest

from g1helicoid import NumericError, cli, mesh, verify
from g1helicoid import weierstrass as W
from g1helicoid.mesh import SurfaceMesh
from g1helicoid.period_solver import PeriodSolverError, scan_H
from g1helicoid.verify import (
    GEOM_TOL_FACTOR,
    MONOTONE_STEP_SLACK,
    _GraphLattice,
    _lens_masks,
    _polyline_diameter,
    check_c_convex,
    check_graph_disjointness,
    check_lambda_above_one_reversal,
    check_limit_constants,
    check_rho_nonpositive_single_sign,
    check_slab_and_boundary,
    check_x3_monotone_on_C,
    distance_to_polyline,
    json_text,
    point_in_polygon,
    run_all,
)

from conftest import traced_peak, triangles_holding


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
    assert report.params.rho == pytest.approx(params.rho, rel=1e-14)
    assert report.params.lam == pytest.approx(params.lam, rel=1e-14)
    assert report.params.T == pytest.approx(params.T, rel=1e-14)


def test_check_times_cover_the_run(params):
    # run_all times every check itself, the graph check together with the
    # patch it reads, so the table's times add up to the run
    t0 = time.perf_counter()
    timed = run_all(params=params)
    wall = time.perf_counter() - t0
    assert sum(c.runtime_s for c in timed.checks) >= 0.9 * wall


def test_json_roundtrip_and_determinism(report):
    s1 = json_text(report.to_dict())
    s2 = json_text(report.to_dict())
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["rho0"] == report.params.rho
    assert len(parsed["checks"]) == 7
    # runtimes are excluded so reruns stay byte-identical
    assert "runtime_s" not in s1


def test_run_all_reproduces_the_cli_report(report, tmp_path):
    # run_all's defaults are the CLI's: its quadrature policy included
    out = tmp_path / "report.json"
    assert cli.run(["verify", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    del written["provenance"]
    assert json_text(written) == json_text(report.to_dict())


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
    res = check_limit_constants()
    assert res.passed
    details = dict(res.details)
    assert details["c1_rounded_4dp"] == pytest.approx(-1.2067, abs=1e-12)
    assert details["c2_rounded_4dp"] == pytest.approx(1.1547, abs=1e-12)
    assert res.value < 0.0  # the combined bound is strictly negative
    # the check's rows are those of the period solver's own scan
    assert details["G_at_1p45"] == scan_H((1.45,))[0][3]


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
                check_limit_constants()
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


def _reference_heights(mesh, pts):
    """Per-point reference for :class:`_GraphLattice`: of the triangles that
    hold each point, the first (lowest face row) with the largest score; NaN
    where none does."""
    out = np.full(len(pts), np.nan)
    for k, (rows, scores, heights) in enumerate(triangles_holding(mesh, pts, mesh.faces)):
        if len(rows):
            out[k] = heights[np.argmax(scores)]
    return out


def _same_heights(mesh, xs, ys):
    """The lattice lookup equals the per-point reference at every lattice
    point (bit for bit, NaN for a miss); returns its heights."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    heights = _GraphLattice(mesh, xs, (ys,)).heights(0, 0, len(xs))
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    ref = _reference_heights(mesh, np.column_stack([gx.ravel(), gy.ravel()]))
    assert heights.shape == (len(xs), len(ys))
    assert heights.tobytes() == ref.tobytes()
    return heights


def test_graph_lookup_matches_per_point_loop(patch):
    # the lattice of check_graph_disjointness at grid 100 and its mirror
    # across the x1-axis, which the check reads on its kept points
    c_poly = np.asarray(patch.boundary_polylines["c"])[:, :2]
    diam = _polyline_diameter(c_poly)
    L, margin = 5.0 * diam, 0.05 * diam
    xs = -L + (np.arange(100) + 0.5) * (L / 100)
    ys = -L + (np.arange(100) + 0.5) * (2.0 * L / 100)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    inside, near = _lens_masks(np.column_stack([gx.ravel(), gy.ravel()]), c_poly, margin)
    kept = ~inside & ~near
    full = _same_heights(patch, xs, ys).ravel()
    mirrored = _same_heights(patch, xs, -ys[::-1])[:, ::-1].ravel()
    assert not np.isnan(full[kept]).any() and not np.isnan(mirrored[kept]).any()
    assert 0 < np.count_nonzero(np.isnan(full)) < len(full) // 10


def _check_lattice(patch, grid):
    """The cell centres of ``check_graph_disjointness`` at ``grid``, and the
    polygon c and margin it masks them with."""
    c_poly = np.asarray(patch.boundary_polylines["c"])[:, :2]
    diam = _polyline_diameter(c_poly)
    L = 5.0 * diam
    xs = -L + (np.arange(grid) + 0.5) * (L / grid)
    ys = -L + (np.arange(grid) + 0.5) * (2.0 * L / grid)
    return xs, ys, c_poly, 0.05 * diam


@pytest.mark.parametrize("size", [1, 7, "split"])
def test_graph_lookup_in_blocks_and_chunks_matches_per_point_loop(patch, monkeypatch, size):
    # the grid-20 lattice of the check joined with one over the end cell's two
    # giant triangles (faces 13335 and 13336 at res 48, ROADMAP item 13),
    # which fold over each other; faces and candidates go 1 or 7 at a time,
    # or in default blocks with chunks half as long as the most candidates
    # of any triangle (face 13336's), so a chunk boundary falls inside it
    near_xs, near_ys, _, _ = _check_lattice(patch, 20)
    xs = np.concatenate([np.linspace(-62.0, -53.0, 8), near_xs])
    ys = np.union1d(np.linspace(-95.0, 95.0, 24), near_ys)
    if size == "split":
        xy = patch.vertices[patch.faces][:, :, :2]
        lo, hi = xy.min(axis=1), xy.max(axis=1)
        counts = (np.searchsorted(xs, hi[:, 0], "right") - np.searchsorted(xs, lo[:, 0])) * (
            np.searchsorted(ys, hi[:, 1], "right") - np.searchsorted(ys, lo[:, 1])
        )
        size = int(counts.max()) // 2
        assert size >= 7
        monkeypatch.setattr(verify, "_CANDIDATES_PER_CHUNK", size)
    else:
        monkeypatch.setattr(verify, "_FACES_PER_BLOCK", size)
        monkeypatch.setattr(verify, "_CANDIDATES_PER_CHUNK", size)
    heights = _same_heights(patch, xs, ys)
    assert np.count_nonzero(~np.isnan(heights[:8])) > 0


@pytest.mark.parametrize("block, chunk", [(2, 4), (1, 1)])
def test_graph_lookup_tie_across_blocks_takes_the_lower_face_row(monkeypatch, block, chunk):
    # the two sheets' triangles tie at every point, and each sheet, or each
    # triangle, is a block of its own, scored a few candidates at a time: the
    # first sheet's face rows win
    monkeypatch.setattr(verify, "_FACES_PER_BLOCK", block)
    monkeypatch.setattr(verify, "_CANDIDATES_PER_CHUNK", chunk)
    lattice = [0.2, 0.5, 0.7]
    vals = _same_heights(_sheets(0.25, 0.75), lattice, lattice)
    assert vals.ravel() == pytest.approx([0.25] * 9, abs=1e-12)
    vals = _same_heights(_sheets(0.75, 0.25), lattice, lattice)
    assert vals.ravel() == pytest.approx([0.75] * 9, abs=1e-12)


@pytest.mark.parametrize("points", [1, 7])
def test_lens_masks_in_blocks_match_the_unblocked_masks(patch, monkeypatch, points):
    xs, ys, c_poly, margin = _check_lattice(patch, 40)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    monkeypatch.setattr(verify, "_PAIRS_PER_BLOCK", points * len(c_poly))
    inside, near = _lens_masks(pts, c_poly, margin)
    assert np.array_equal(inside, point_in_polygon(pts, c_poly))
    assert np.array_equal(near, distance_to_polyline(pts, c_poly) < margin)
    assert 0 < inside.sum() and 0 < near.sum()


@pytest.mark.parametrize(
    "grid, bound", [(100, 2_500_000), (300, 7_000_000), (1000, 12_000_000)]
)
def test_graph_check_peak_memory(params, patch, grid, bound):
    # every (triangle, lattice point) candidate of the patch formed at once,
    # and the lens masks' points x segments matrices, traced 7.0 MB at grid
    # 100 and 27.9 MB at grid 300; in blocks and chunks 3.2, 9.0 and 99 MB at
    # grid 100, 300 and 1000; with the lattice in bands of rows, 1.8, 4.9 and
    # 5.9 MB
    res, peak = traced_peak(check_graph_disjointness, params, patch, grid)
    assert res.passed
    assert peak <= bound


@pytest.mark.parametrize("rows", [1, 7, 13])
def test_graph_check_reads_the_same_in_bands(params, patch, monkeypatch, rows):
    # grid 40 is one band at the default; in bands of 1, 7 or 13 rows (the
    # last of 5 or 1 rows) only counts and exact extremes carry across bands
    whole = check_graph_disjointness(params, patch, 40)
    assert whole.details["n_checked"] > 0 and whole.details["n_far"] > 0
    monkeypatch.setattr(verify, "_POINTS_PER_BAND", 40 * rows)
    assert repr(check_graph_disjointness(params, patch, 40)) == repr(whole)
    # and each band's heights are the bits of those rows of the whole lattice
    xs, ys, _, _ = _check_lattice(patch, 40)
    lattices = _GraphLattice(patch, xs, (ys, -ys[::-1]))
    for k in (0, 1):
        bands = [lattices.heights(k, r0, min(r0 + rows, 40)) for r0 in range(0, 40, rows)]
        assert np.vstack(bands).tobytes() == lattices.heights(k, 0, 40).tobytes()


def _sheets(*heights):
    """The unit square split on its 0-2 diagonal, once per height in
    ``heights`` (each sheet flat at that height), sheet by sheet."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    verts = np.vstack([np.column_stack([square, np.full(4, h)]) for h in heights])
    faces = np.vstack([np.array([[0, 1, 2], [0, 2, 3]]) + 4 * k for k in range(len(heights))])
    return SurfaceMesh(verts, faces)


def test_graph_lookup_off_the_triangles():
    # lattice points that no triangle holds read NaN
    base, xs, ys = _sheets(0.25), [0.5, 3.0], [0.2, 3.0]
    alone = _same_heights(base, xs, ys)
    assert alone[0, 0] == 0.25 and np.isnan(alone).ravel().tolist() == [False, True, True, True]
    # copies of the square whose bounding boxes hold no lattice point (left
    # of, right of, below, above and between the lattice points, and one
    # that spans a lattice column between two rows) change nothing
    shifts = [(-5.0, 0.0), (9.0, 0.0), (0.0, -7.0), (0.0, 4.0), (1.6, 1.4), (2.5, 1.2)]
    verts = np.vstack([base.vertices] + [base.vertices + [dx, dy, 0.5] for dx, dy in shifts])
    faces = np.vstack([base.faces + 4 * k for k in range(len(shifts) + 1)])
    crowded = _same_heights(SurfaceMesh(verts, faces), xs, ys)
    assert crowded.tobytes() == alone.tobytes()


def test_graph_lookup_tie_takes_first_candidate():
    # a point on the shared diagonal scores 0 in both triangles
    assert _same_heights(_sheets(0.25), [0.5], [0.5])[0, 0] == 0.25
    # two sheets over the same square tie everywhere: the lower triangle
    # index wins, whichever sheet it is on
    lattice = [0.2, 0.5, 0.7]
    vals = _same_heights(_sheets(0.25, 0.75), lattice, lattice)
    assert vals.ravel() == pytest.approx([0.25] * 9, abs=1e-12)
    vals = _same_heights(_sheets(0.75, 0.25), lattice, lattice)
    assert vals.ravel() == pytest.approx([0.75] * 9, abs=1e-12)


def test_graph_lookup_of_no_points():
    assert _same_heights(_sheets(0.25), [], []).shape == (0, 0)
    assert _same_heights(_sheets(0.25), [0.5, 0.7], []).shape == (2, 0)


def test_failed_check_detected():
    # a generic non-solution parameter set must NOT verify: the vertical
    # period is open, so the mirror-graph equality on c fails
    from g1helicoid.params import SurfaceParams

    off = SurfaceParams(0.5, 0.61)
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
