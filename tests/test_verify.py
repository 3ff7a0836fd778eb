"""The verification suite itself: every check passes at the solution, the
report serializes deterministically, and the guard rails trip correctly."""

import json
import math

import numpy as np
import pytest

from g1helicoid.period_solver import scan_H
from g1helicoid.quadrature import DEFAULT_SPEC
from g1helicoid.verify import (
    CheckResult,
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
    assert report.all_passed()
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
    s1 = report.to_json()
    s2 = report.to_json()
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["rho0"] == report.rho0
    assert len(parsed["checks"]) == 7
    # runtimes are excluded so reruns stay byte-identical
    assert "runtime_s" not in s1


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
    res = check_x3_monotone_on_C(params, n=400)
    assert res.passed
    assert res.value < 0.0  # worst step is genuinely decreasing
    assert res.detail("tip_height_residual") < 1e-8 * params.T


def test_monotone_check_rejects_tiny_n(params):
    with pytest.raises(ValueError):
        check_x3_monotone_on_C(params, n=50)


def test_convexity_check(params):
    res = check_c_convex(params, n=480)
    assert res.passed
    assert math.pi < res.value < 2.0 * math.pi  # total turning of the lens


def test_slab_check(params):
    res = check_slab_and_boundary(params, n=48)
    assert res.passed
    assert res.value < res.tolerance


def test_limit_constants_check():
    res = check_limit_constants(DEFAULT_SPEC)
    assert res.passed
    assert res.detail("c1_rounded_4dp") == pytest.approx(-1.2067, abs=1e-12)
    assert res.detail("c2_rounded_4dp") == pytest.approx(1.1547, abs=1e-12)
    assert res.value < 0.0  # the combined bound is strictly negative
    # the check's spec also shapes the Lambda(rho) solve and G of each row
    assert res.detail("G_at_1p45") == scan_H((1.45,), DEFAULT_SPEC)[0][3]


def test_diagnostic_checks_flagged():
    r1 = check_lambda_above_one_reversal()
    r2 = check_rho_nonpositive_single_sign()
    assert r1.diagnostic and r1.passed
    assert r2.diagnostic and r2.passed


def test_graph_check_with_data(params, patch):
    res = check_graph_disjointness(params, grid=40, patch=patch)
    # value is the smallest F_hat - F gap; passing requires no lookup misses
    assert res.passed and res.value > 0


def test_failed_check_detected():
    # a generic non-solution parameter set must NOT verify: the vertical
    # period is open, so the mirror-graph equality on c fails
    from g1helicoid.params import SurfaceParams

    off = SurfaceParams.create(0.5, 0.61)
    res = check_slab_and_boundary(off, n=32)
    assert not res.passed


def test_check_result_detail_missing(report):
    with pytest.raises(KeyError):
        report.checks[0].detail("no_such_detail")
