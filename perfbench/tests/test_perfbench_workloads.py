import json
import math
from pathlib import Path

import pytest

from workloads import (
    README_CONSTANTS,
    WORKLOADS,
    CheckFailed,
    Step,
    check,
    output_files,
    plan,
)

OUT = Path("/nonexistent/out")


def _value(step, flag):
    return float(step.args[step.args.index(flag) + 1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_steps(workload):
    assert plan(workload, 7, OUT) == plan(workload, 7, OUT)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_vary_the_steps(workload):
    assert len({str(plan(workload, seed, OUT)) for seed in range(10)}) > 1


@pytest.mark.parametrize(
    "workload, kind, flag, lo, hi",
    [
        ("solve", "solve", "--grid", 48, 80),
        ("solve", "periods", "--rho-grid", 24, 40),
        ("solve", "periods", "--rho-min", 0.02, 0.10),
        ("solve", "periods", "--rho-max", 1.45, math.pi / 2 - 0.02),
        ("mesh", "mesh_obj", "--resolution", 40, 56),
        ("mesh", "mesh_ply", "--resolution", 144, 160),
        ("mesh", "curves", "--resolution", 40, 56),
        ("verify", "verify", "--verify-grid", 90, 110),
    ],
)
def test_inputs_stay_in_range_and_mirror(workload, kind, flag, lo, hi):
    for seed in range(50):
        first, second = (
            _value(next(s for s in cycle if s.kind == kind), flag)
            for cycle in plan(workload, seed, OUT)
        )
        assert lo - 1e-6 <= first <= hi + 1e-6
        assert lo - 1e-6 <= second <= hi + 1e-6
        assert first + second == pytest.approx(lo + hi, abs=2e-6)


def test_every_cycle_starts_with_an_import_probe():
    for workload in WORKLOADS:
        for cycle in plan(workload, 1, OUT):
            assert cycle[0] == Step("import")


def test_mesh_outputs_are_listed_for_cleanup():
    assert output_files(plan("mesh", 1, OUT)) == [
        OUT / "curves.csv", OUT / "mesh.obj", OUT / "mesh.ply"
    ]


def _solve_stdout(**override):
    doc = {**README_CONSTANTS, "residual_F": 1e-16, "residual_G": -2e-14, **override}
    return json.dumps(doc)


def test_solve_check():
    step = Step("solve", ("solve", "--grid", "64"))
    digest = check(step, _solve_stdout(), {})
    assert digest["bytes"] == len(_solve_stdout())
    with pytest.raises(CheckFailed):
        check(step, _solve_stdout(rho0=README_CONSTANTS["rho0"] + 1e-9), {})
    with pytest.raises(CheckFailed):
        check(step, _solve_stdout(residual_G=2e-9), {})


def test_periods_check_counts_rows_and_residuals():
    step = Step("periods", ("periods", "--rho-grid", "2"))
    good = "# header\nrho,Lambda,F,G\n0.1,2.5,1e-12,-3\n0.2,2.4,-2e-12,-2\n"
    assert check(step, good, {}) is not None
    with pytest.raises(CheckFailed):
        check(step, good.replace("-2e-12", "2e-8"), {})
    with pytest.raises(CheckFailed):
        check(Step("periods", ("periods", "--rho-grid", "3")), good, {})


def test_mesh_counts_must_match_the_read_back(tmp_path):
    obj = tmp_path / "m.obj"
    obj.write_text("v 0 0 0\n")
    state = {}
    step = Step("mesh_obj", ("mesh", "--out", str(obj)))
    check(step, f"wrote {obj}: 10 vertices, 16 faces (3 periods)\n", state)
    state["mesh_ply"] = [20, 32]
    read = Step("mesh_read", (str(obj), "x.ply"))
    good = {"seconds": 1.0, "obj": [10, 16], "ply": [20, 32]}
    assert check(read, json.dumps(good), state) is None
    with pytest.raises(CheckFailed):
        check(read, json.dumps({**good, "obj": [10, 15]}), state)


def test_curves_check_needs_all_seven_names(tmp_path):
    csv = tmp_path / "c.csv"
    names = ["C", "E", "E_hat", "H1", "H2", "c", "end"]
    csv.write_text("# g1helicoid\nname,index,x1,x2,x3\n" + "".join(f"{n},0,0,0,0\n" for n in names))
    step = Step("curves", ("curves", "--out", str(csv)))
    assert check(step, "", {})["bytes"] == csv.stat().st_size
    csv.write_text("name,index,x1,x2,x3\n" + "".join(f"{n},0,0,0,0\n" for n in names[:-1]))
    with pytest.raises(CheckFailed):
        check(step, "", {})


def test_verify_check_hashes_only_the_report():
    step = Step("verify", ("verify",))
    report = '{\n  "n_failed": 0\n}'
    a = check(step, report + "\n\ncheck  pass  0.31s\n", {})
    b = check(step, report + "\n\ncheck  pass  0.29s\n", {})
    assert a == b
    with pytest.raises(CheckFailed):
        check(step, '{"n_failed": 1}\n\ntable\n', {})
