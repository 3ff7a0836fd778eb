import json
import statistics
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER, RoundTrace, import_seconds, layer_values
from stats import median, quartiles, relative_spread, summary
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    assert median(values) == statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert summary(values) == {"n": 10, "median": median(values), "q1": q1, "q3": q3}


def test_single_value_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5)
    assert relative_spread([2.5]) == 0.0


def test_empty_samples_raise():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        quartiles([])


def test_import_seconds_sums_self_time_per_package():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:       200 |        300 | numpy\n"
        "import time:      1000 |       1000 |     scipy.optimize\n"
        "import time:        50 |         50 |   g1helicoid.params\n"
        "import time:        70 |       1420 | g1helicoid.cli\n"
        "import time:         5 |          5 | json\n"
    )
    got = import_seconds(stderr)
    assert got == {
        "numpy": pytest.approx(300e-6),
        "scipy": pytest.approx(1000e-6),
        "g1helicoid": pytest.approx(120e-6),
    }


def test_layer_values_name_every_metric_and_derive_ratios():
    agg = RoundTrace()
    doc = {
        "spans": [
            [1, "period_solver.solve_Lambda_of_rho", 0.0, 1.0, None],
            [2, "period_solver.F_integral", 0.1, 0.2, 1],
            [3, "period_solver.F_integral", 0.3, 0.4, 1],
            [4, "period_solver.F_integral", 2.0, 2.1, None],
            [5, "weierstrass.x2_H1", 3.0, 3.5, None],
            [6, "weierstrass.x3_E", 4.0, 4.25, None],
        ],
        "counters": {"mesh.weld.removed": 5, "mesh.weld.before": 100},
        "peaks": {"quadrature.integrate.max_level": 4},
    }
    agg.add_child("solve", doc, wall_s=6.0)
    agg.add_child("solve", {"spans": [], "counters": {},
                            "peaks": {"quadrature.integrate.max_level": 6}}, 1.0)
    agg.untraced_s, agg.traced_s = 4.0, 5.0
    values = layer_values(agg)
    assert list(values) == [name for name, _ in PER_LAYER]
    assert values["period_solver.F_integral.calls"] == 3
    assert values["period_solver.F_calls_per_root"] == pytest.approx(2.0)
    assert values["period_solver.solve_Lambda_of_rho.s"] == pytest.approx(0.8)
    assert values["weierstrass.anchors.calls"] == 2
    assert values["weierstrass.anchors.s"] == pytest.approx(0.75)
    assert values["mesh.weld.removed_ratio"] == pytest.approx(0.05)
    assert values["quadrature.integrate.max_level"] == 6
    assert values["mesh.export_ply.s"] == 0.0
    assert values["trace.overhead"] == pytest.approx(0.25)
    assert agg.by_kind["solve"]["outside_spans"] == pytest.approx(6.0 - 1.85 + 1.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_timed_or_counted_function_is_traced():
    from child import TARGETS

    derived = {"setup.scipy.s", "setup.numpy.s", "setup.g1helicoid.s",
               "weierstrass.anchors.calls", "weierstrass.anchors.s"}
    for name, _ in PER_LAYER:
        if name in derived:
            continue
        base, _, field = name.rpartition(".")
        if field in ("s", "calls"):
            assert base in TARGETS, name
