"""Command-line interface: subcommand contracts, exit codes, config-file
merging, provenance headers, and byte-identical reruns."""

import contextlib
import errno
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import g1helicoid
from g1helicoid import period_solver
from g1helicoid.cli import _OPTIONS, _SUBCOMMANDS, RunConfig, UsageError, _build_parser, _flag, run
from g1helicoid.period_solver import F_integral, G_integral

from conftest import quadrature_policy

RHO0 = 0.7105219800457504
LAM0 = 0.5882995303657090
OVERRIDE = ["--rho", repr(RHO0), "--lambda", repr(LAM0)]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "g1helicoid" in capsys.readouterr().out


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0


def test_unknown_flag_exits_2(capsys):
    assert run(["solve", "--no-such-flag"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    assert run([]) == 2


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency
    src = str(Path(g1helicoid.__file__).resolve().parents[1])
    code = (
        "import sys, g1helicoid.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _fresh_python(code, timeout=None):
    src = str(Path(g1helicoid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_solve_and_periods_load_only_the_solver():
    code = (
        "import contextlib, io, sys\n"
        "from g1helicoid import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['solve']), cli.main(['periods', '--rho-grid', '4'])]\n"
        "heavy = ('mesh', 'verify', 'weierstrass', 'torus')\n"
        "print(codes, sorted(m for m in heavy if 'g1helicoid.' + m in sys.modules))\n"
    )
    out = _fresh_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0] []"


def test_numpy_ma_and_a_thread_pool_stay_unloaded(tmp_path):
    # numpy.ma costs about 8 ms of import per process; concurrent.futures
    # loads logging; the quadrature tables are written out, so none of the
    # mesh stack's runs below, a res-128 patch among them, loads those
    # modules or numpy.polynomial
    code = (
        "import contextlib, io, sys\n"
        "from g1helicoid import cli\n"
        "lazy = ('numpy.ma', 'numpy.polynomial', 'concurrent.futures', 'logging')\n"
        "print(sorted(m for m in lazy + ('g1helicoid.mesh',) if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(['mesh', '--resolution', '8', '--out', {str(tmp_path / 'm.obj')!r}]),\n"
        "             cli.main(['mesh', '--resolution', '128', '--format', 'ply',\n"
        f"                       '--out', {str(tmp_path / 'm.ply')!r}]),\n"
        f"             cli.main(['curves', '--resolution', '8', '--out', {str(tmp_path / 'c.csv')!r}]),\n"
        "             cli.main(['verify', '--verify-grid', '10'])]\n"
        "print(codes, sorted(m for m in lazy if m in sys.modules))\n"
    )
    out = _fresh_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[0, 0, 0, 0] []"]


def test_mesh_error_exits_1_from_a_fresh_process(tmp_path):
    # the mesher's closure check fails off the solution; its module is
    # imported only by the mesh command itself
    code = (
        "import sys\n"
        "from g1helicoid import cli\n"
        "sys.exit(cli.main(['mesh', '--rho', '0.75', '--lambda', '0.6',"
        f" '--out', {str(tmp_path / 'm.obj')!r}]))\n"
    )
    out = _fresh_python(code)
    assert out.returncode == 1
    assert out.stderr.startswith(
        "g1helicoid: numeric error: MeshError: closure failure at level t=1.04006"
    )


def test_copies_past_the_int32_index_limit_exit_1_at_once(tmp_path):
    # a billion periods of even the smallest patch need more vertex indices
    # than int32 has: the stack refuses before its per-copy seam checks
    code = (
        "import sys\n"
        "from g1helicoid import cli\n"
        "sys.exit(cli.main(['mesh', '--resolution', '8', '--copies', '1000000000',"
        f" '--out', {str(tmp_path / 'm.obj')!r}]))\n"
    )
    out = _fresh_python(code, timeout=30)
    assert out.returncode == 1
    assert out.stderr.startswith("g1helicoid: numeric error: MeshError: 1000000000 copies need ")
    assert "past the int32 face-index limit of 2147483647" in out.stderr
    assert not (tmp_path / "m.obj").exists()


def test_unconverged_solve_exits_1(capsys):
    # a policy of 4 levels stops F short of its tolerance near rho_min
    with quadrature_policy(max_level=4):
        assert run(["solve"]) == 1
    err = capsys.readouterr().err
    assert "numeric error: PeriodSolverError: F_integral(rho=0.02" in err
    assert "did not converge" in err


def test_a_period_unclosed_at_the_default_settings_exits_1(tmp_path, capsys):
    # the Lambda solve cannot close F this near pi/2 (Lambda - 2 is about
    # 3e-8 on the last row), so the row is refused and no output is written
    out = tmp_path / "out"
    assert run(["periods", "--rho-max", "1.5705", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "g1helicoid: numeric error: PeriodSolverError: "
        "F = -1.663e-06 at rho=1.5705 exceeds the bound |F| <= 1e-09\n"
    )
    assert not out.exists()


def test_an_empty_lambda_bracket_exits_1_naming_rho(tmp_path, capsys):
    # this near pi/2 the bracket's lower end 2 + 1e-6 * width rounds onto 2,
    # where F's integrand is 0/0
    out = tmp_path / "out"
    argv = ["periods", "--rho-min", "1.5707863", "--rho-max", "1.57079", "--rho-grid", "1"]
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "g1helicoid: numeric error: PeriodSolverError: empty Lambda bracket at rho=1.5707863\n"
    )
    assert not out.exists()


def test_g_unconverged_near_pi_over_2_exits_1_naming_the_last_level(tmp_path, capsys):
    # Lambda - 2 is about 3e-9 at rho = 1.5707, and G misses its tolerance at
    # the policy's last level
    out = tmp_path / "out"
    argv = ["periods", "--rho-min", "1.5707", "--rho-max", "1.57079", "--rho-grid", "1"]
    assert run(argv + ["--out", str(out)]) == 1
    found = re.fullmatch(
        r"g1helicoid: numeric error: PeriodSolverError: G_integral\(rho=1\.5707, "
        r"Lam=(2\.\d+)\) did not converge: error estimate (\d\.\d{3}e-\d+) at level 12\n",
        capsys.readouterr().err,
    )
    assert found and 0.0 < float(found[1]) - 2.0 < 1e-8 and float(found[2]) > 0.0
    assert not out.exists()


def _lambda_solves_at_abs_tol_1e300(monkeypatch):
    """Take every Lambda(rho) solve at abs_tol 1e300, leaving the residual
    integrals at the one quadrature policy."""
    solve = period_solver.solve_Lambda_of_rho

    def solve_loosely(rho, root_tol=1e-13):
        with quadrature_policy(abs_tol=1e300):
            return solve(rho, root_tol)

    monkeypatch.setattr(period_solver, "solve_Lambda_of_rho", solve_loosely)


def _rho_solve_at_root_tol_1(monkeypatch):
    """Refine the rho0 bracket to 1 instead of 1e-12; a rho bracket lies in
    (0, pi/2), a Lambda bracket above 2, so the Lambda solves keep theirs."""
    brent = period_solver._brent

    def brent_loosely(f, a, b, fa, fb, xtol):
        return brent(f, a, b, fa, fb, 1.0 if b < 2.0 else xtol)

    monkeypatch.setattr(period_solver, "_brent", brent_loosely)


@pytest.mark.parametrize(
    "argv, loosen, residual",
    [
        (["periods", "--rho-grid", "4"], _lambda_solves_at_abs_tol_1e300,
         "F = (\\S+) at rho=0.02 "),
        (["solve"], _lambda_solves_at_abs_tol_1e300, "residual_F = (\\S+) "),
        (["solve"], _rho_solve_at_root_tol_1, "residual_G = (\\S+) "),
        (["mesh"], _rho_solve_at_root_tol_1, "residual_G = (\\S+) "),
    ],
    ids=["periods_abs_tol", "solve_abs_tol", "solve_root_tol", "mesh_root_tol"],
)
def test_an_unclosed_period_exits_1_naming_the_residual_and_bound(tmp_path, capsys, monkeypatch,
                                                                    argv, loosen, residual):
    # a solve too loose to close a period at the one policy: the row's Lambda
    # or the solved rho0 is off, and no output is written
    loosen(monkeypatch)
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    name = residual.split(" ")[0]
    found = re.fullmatch(
        f"g1helicoid: numeric error: PeriodSolverError: {residual}exceeds the bound "
        f"\\|{name}\\| <= 1e-09\n",
        err,
    )
    assert found and abs(float(found[1])) > 1e-9
    assert not out.exists()


#: Ends of the rho range, drawn near pi/2 as often as anywhere in (0, pi/2).
_RHO_ENDS = st.floats(1e-3, 1.569) | st.floats(1.569, math.pi / 2 - 1e-5)


@settings(max_examples=25, deadline=None)
@given(
    subcommand=st.sampled_from(["solve", "periods"]),
    grid=st.integers(2, 16),
    rho_grid=st.integers(1, 4),
    rho_ends=st.tuples(_RHO_ENDS, _RHO_ENDS).filter(lambda ends: ends[0] != ends[1]),
)
def test_solve_and_periods_print_closed_periods_or_exit_1_with_one_line(
    subcommand, grid, rho_grid, rho_ends
):
    # every drawn setting passes the usage checks, so a run either prints
    # residuals that F_integral and G_integral reproduce under 1e-9, or
    # fails with one numeric-error line
    rho_min, rho_max = sorted(rho_ends)
    argv = [subcommand, "--rho-min", repr(rho_min), "--rho-max", repr(rho_max)]
    if subcommand == "solve":
        argv += ["--grid", str(grid)]
    else:
        argv += ["--rho-grid", str(rho_grid)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code != 0:
        assert code == 1 and err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("g1helicoid: numeric error: ")
        return
    assert err.getvalue() == ""
    if subcommand == "solve":
        sol = json.loads(out.getvalue())
        rows = [(sol["rho0"], sol["Lambda0"], sol["residual_F"], sol["residual_G"])]
    else:
        body = [line for line in out.getvalue().splitlines() if not line.startswith("#")][1:]
        rows = [tuple(map(float, line.split(","))) for line in body]
        assert len(rows) == rho_grid
    for rho, Lam, F, G in rows:
        assert (F, G) == (F_integral(rho, Lam).value, G_integral(rho, Lam).value)
        assert abs(F) <= 1e-9
        if subcommand == "solve":
            assert abs(G) <= 1e-9


def test_solve_json_contract(tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert run(["solve", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for key in (
        "provenance",
        "rho0",
        "lambda0",
        "Lambda0",
        "r",
        "R",
        "T",
        "residual_F",
        "residual_G",
    ):
        assert key in payload
    assert payload["rho0"] == pytest.approx(RHO0, abs=1e-10)
    assert payload["lambda0"] == pytest.approx(LAM0, abs=1e-10)
    assert abs(payload["residual_F"]) < 1e-9
    assert abs(payload["residual_G"]) < 1e-9
    prov = payload["provenance"]
    assert prov["artifact"] == "g1helicoid"
    assert prov["config"]["subcommand"] == "solve"
    assert prov["solution"]["rho0"] == payload["rho0"]


def test_solve_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["solve", "--out", str(a)]) == 0
    assert run(["solve", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_stdout_matches_file(tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert run(["solve", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["solve"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_periods_row_count(tmp_path):
    out = tmp_path / "per.csv"
    assert run(["periods", "--rho-grid", "6", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "rho,Lambda,F,G"
    assert len(lines) - 1 == 6
    for line in lines[1:]:
        rho, Lam, F, G = map(float, line.split(","))
        assert 2.0 < Lam < 8.0
        assert abs(F) < 1e-9  # each row solves the inner problem


def test_periods_provenance_header(tmp_path):
    out = tmp_path / "per.csv"
    assert run(["periods", "--rho-grid", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# g1helicoid")
    assert "rho_grid=2" in text


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\nrho-grid = 3\nrho_min = 0.4\nrho-max = 1.0\n")
    out = tmp_path / "per.csv"
    assert run(["--config", str(cfg), "periods", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if "," in l][1:]
    assert len(rows) == 3
    assert float(rows[0].split(",")[0]) == pytest.approx(0.4)
    assert float(rows[-1].split(",")[0]) == pytest.approx(1.0)


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho-grid = 3\n")
    out = tmp_path / "per.csv"
    assert run(["--config", str(cfg), "periods", "--rho-grid", "2", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if "," in l][1:]
    assert len(rows) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # still rejected when it sits beside a key of another subcommand
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rho = 0.75\nbogus = 1\n")
    assert run(["--config", str(cfg), "solve"]) == 2
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_config_key_of_another_subcommand_is_ignored(tmp_path, capsys):
    # `solve` has no --rho: the key belongs to `mesh`/`curves` only
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = 0.75\n")
    assert run(["--config", str(cfg), "solve", "--out", str(tmp_path / "s.json")]) == 0
    assert "rho" not in json.loads((tmp_path / "s.json").read_text())["provenance"]["config"]
    assert run(["--config", str(cfg), "mesh", "--out", str(tmp_path / "m.obj")]) == 2
    assert "--rho and --lambda must be given together" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("resolution 16\n")
    assert run(["--config", str(cfg), "solve"]) == 2


@pytest.mark.parametrize(
    "argv,config,named",
    [
        (["--threads", "2", "solve"], None, "--threads"),
        (["--seed", "1", "solve"], None, "--seed"),
        (["solve"], "threads = 2\n", "threads"),
        # the solver has one quadrature policy, which no flag or config key sets
        (["periods", "--max-level", "2"], None, "--max-level"),
        (["solve", "--rel-tol", "-1e-9"], None, "--rel-tol"),
        (["solve", "--abs-tol", "1e-14"], None, "--abs-tol"),
        (["verify", "--root-tol", "1e-12"], None, "--root-tol"),
        (["solve"], "rel_tol = 1e-12\n", "rel_tol"),
        (["periods"], "abs-tol = 1e-14\n", "abs_tol"),
        (["verify"], "max_level = 12\n", "max_level"),
        (["solve"], "root_tol = 1e-12\n", "root_tol"),
    ],
    ids=["threads-flag", "seed-flag", "threads-config-key", "max-level-below-4",
         "rel-tol-flag", "abs-tol-flag", "root-tol-flag", "rel_tol-config-key",
         "abs_tol-config-key", "max_level-config-key", "root_tol-config-key"],
)
def test_rejected_setting_exits_2(tmp_path, capsys, argv, config, named):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = ["--config", str(path), *argv]
    assert run(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key", [key for key, opt in _OPTIONS.items() if opt.type is float])
def test_non_finite_setting_exits_2(tmp_path, capsys, key):
    # NaN passes every `<= 0` test and inf every test without an upper end,
    # so a solve would run on them: from a flag or a config key, each float
    # setting must be finite
    command = next(name for name, sub in _SUBCOMMANDS.items() if key in sub.options.split())
    partner = {"rho": ["--lambda", "0.6"], "lam": ["--rho", "0.7"]}.get(key, [])
    argv = [command, *partner, "--out", str(tmp_path / "out")]
    config = tmp_path / "run.cfg"
    for value in ("nan", "inf", "-inf"):
        config.write_text(f"{'lambda' if key == 'lam' else key} = {value}\n")
        for args in ([*argv, f"{_flag(key)}={value}"], ["--config", str(config), *argv]):
            assert run(args) == 2
            assert f"{_flag(key)} must be finite, got {float(value)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unwritable_out_exits_2():
    assert run(["solve", "--out", "/no/such/dir/x.json"]) == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("subcommand", ["solve", "periods", "verify"])
def test_failed_text_write_exits_1_with_one_line(capsys, subcommand):
    # /dev/full accepts the open and fails the write with ENOSPC
    assert run([subcommand, "--out", "/dev/full"]) == 1
    err = capsys.readouterr().err
    assert err == f"g1helicoid: error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
def test_out_naming_a_directory_exits_2(tmp_path, capsys, monkeypatch, name):
    # a usage error on every subcommand, refused before anything is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the usage check")

    monkeypatch.setattr("g1helicoid.cli.solve_period_problem", no_solve)
    monkeypatch.setattr("g1helicoid.cli.scan_H", no_solve)
    assert run([name, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"--out names a directory: {tmp_path}" in err
    assert "Traceback" not in err


def test_the_console_script_runs_the_cli(capsys):
    # pyproject's [project.scripts] target, which the benchmark's launcher
    # also imports, must stay a callable that returns the exit code
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(g1helicoid.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["g1helicoid"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert callable(entry)
    assert entry(["solve", "--no-such-flag"]) == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


def test_rho_without_lambda_exits_2(tmp_path):
    assert run(["mesh", "--rho", "0.7", "--out", str(tmp_path / "m.obj")]) == 2


def test_mesh_requires_out():
    assert run(["mesh"]) == 2


def test_domain_error_exits_1(tmp_path, capsys):
    rc = run(
        ["mesh", "--rho", "2.0", "--lambda", "0.5", "--out", str(tmp_path / "m.obj")]
    )
    assert rc == 1
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "module, name",
    [
        ("params", "ParameterDomainError"),
        ("quadrature", "QuadratureError"),
        ("period_solver", "PeriodSolverError"),
        ("weierstrass", "IntegrationError"),
        ("mesh", "MeshError"),
    ],
)
def test_every_numeric_error_exits_1(monkeypatch, capsys, module, name):
    # no CLI input reaches some of these classes, so raise each one from
    # the solve the subcommand calls
    error = getattr(importlib.import_module(f"g1helicoid.{module}"), name)
    assert issubclass(error, g1helicoid.NumericError)

    def fail(**kwargs):
        raise error("forced failure")

    monkeypatch.setattr("g1helicoid.cli.solve_period_problem", fail)
    assert run(["solve"]) == 1
    assert f"numeric error: {name}: forced failure" in capsys.readouterr().err


def test_out_of_memory_exits_1_with_one_line(monkeypatch, capsys):
    # `verify --verify-grid 2000000` asks numpy for a 29.1 TiB lattice; the
    # graph check raises what numpy raises there, without allocating it
    message = (
        "Unable to allocate 29.1 TiB for an array with shape (2000000, 2000000) "
        "and data type float64"
    )

    def fail(*args):
        raise MemoryError(message)

    monkeypatch.setattr("g1helicoid.verify.check_graph_disjointness", fail)
    assert run(["verify", "--verify-grid", "2000000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"g1helicoid: error: out of memory: {message}\n"


def test_mesh_obj_output(tmp_path):
    from g1helicoid.mesh import check_oriented_manifold, import_obj

    out = tmp_path / "m.obj"
    rc = run(["mesh", "--resolution", "16", *OVERRIDE, "--out", str(out)])
    assert rc == 0
    mesh = import_obj(str(out))
    assert len(mesh.vertices) > 1000
    rep = check_oriented_manifold(mesh)
    assert rep["misoriented_edges"] == 0
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert any("g1helicoid" in l for l in header)  # provenance embedded


def test_mesh_ply_stack(tmp_path):
    from g1helicoid.mesh import import_ply

    out = tmp_path / "m.ply"
    rc = run(
        ["mesh", "--resolution", "16", "--copies", "2", "--format", "ply",
         *OVERRIDE, "--out", str(out)]
    )
    assert rc == 0
    mesh = import_ply(str(out))
    spread = mesh.vertices[:, 2].max() - mesh.vertices[:, 2].min()
    T = 2.5503397681180493
    assert spread == pytest.approx(2.0 * T, abs=1e-3 * T)


def test_curves_csv_output(tmp_path):
    out = tmp_path / "curves.csv"
    rc = run(["curves", "--resolution", "16", *OVERRIDE, "--out", str(out)])
    assert rc == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "name,index,x1,x2,x3"
    names = {line.split(",")[0] for line in body[1:]}
    assert names == {"C", "E", "E_hat", "H1", "H2", "c", "end"}


def test_verify_exits_zero_at_solution(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run(["verify", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["provenance"]["config"]["subcommand"] == "verify"
    assert all(c["passed"] for c in report["checks"])
    # the human-readable table went to stdout
    assert "failures: 0" in capsys.readouterr().out


def test_verify_solves_with_the_solver_flags(tmp_path):
    solve_out, verify_out = tmp_path / "sol.json", tmp_path / "report.json"
    assert run(["solve", "--grid", "16", "--out", str(solve_out)]) == 0
    assert run(["verify", "--grid", "16", "--out", str(verify_out)]) == 0
    solved = json.loads(solve_out.read_text())["rho0"]
    assert json.loads(verify_out.read_text())["rho0"] == solved


def test_runconfig_validation_direct():
    with pytest.raises(UsageError):
        RunConfig(subcommand="solve", grid=1).validate()
    with pytest.raises(UsageError):
        RunConfig(subcommand="mesh", format="stl").validate()
    with pytest.raises(UsageError):
        RunConfig(subcommand="solve", rho_min=0.9, rho_max=0.4).validate()
    RunConfig(subcommand="solve").validate()  # defaults are valid


def test_verify_grid_below_10_exits_2(capsys):
    # check_graph_disjointness needs a grid of at least 10
    assert run(["verify", "--verify-grid", "9"]) == 2
    assert "verify-grid" in capsys.readouterr().err


def test_the_readme_names_only_options_the_cli_has():
    # each `g1helicoid ...` line of a shell block parses, and every flag in a
    # backticked span of the prose that is a g1helicoid command or flag is an
    # option of some subcommand, or a top-level one
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    shell = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    commands = [line.split("#", 1)[0].split()[1:] for block in shell
                for line in block.splitlines() if line.startswith("g1helicoid ")]
    assert len(commands) >= 5
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    named = {word for span in re.findall(r"`([^`]+)`", prose)
             if span.split()[0] in {*_SUBCOMMANDS, "g1helicoid"} or span.startswith("--")
             for word in span.split() if word.startswith("--")}
    options = {_flag(key) for key in _OPTIONS} | {"--config", "--version", "--help"}
    assert named and named <= options, sorted(named - options)


#: ``RunConfig(subcommand=s).echo()`` of every subcommand, keys in order, as
#: the option table must keep reproducing it.
ECHO = {
    "solve": [
        ("subcommand", "solve"), ("grid", 64), ("rho_min", 0.02), ("rho_max", 1.5507963267948965),
    ],
    "periods": [
        ("subcommand", "periods"), ("rho_grid", 32), ("rho_min", 0.02),
        ("rho_max", 1.5507963267948965),
    ],
    "mesh": [
        ("subcommand", "mesh"), ("grid", 64), ("resolution", 48), ("copies", 1), ("cutoff", 0.01),
        ("format", "obj"), ("rho", None), ("lam", None),
    ],
    "curves": [
        ("subcommand", "curves"), ("grid", 64), ("resolution", 48), ("cutoff", 0.01), ("rho", None),
        ("lam", None),
    ],
    "verify": [
        ("subcommand", "verify"), ("grid", 64), ("verify_grid", 100), ("resolution", 48),
        ("cutoff", 0.01),
    ],
}


@pytest.mark.parametrize("name", sorted(ECHO))
def test_echo_keeps_its_keys_and_order(name):
    assert list(RunConfig(subcommand=name).echo().items()) == ECHO[name]


@pytest.mark.parametrize("name", sorted(ECHO))
def test_parser_options_are_the_echo_keys_and_out(tmp_path, name):
    args = _build_parser().parse_args([name, "--out", str(tmp_path / "x")])
    dests = set(vars(args)) - {"subcommand", "config"}
    assert dests == (set(RunConfig(subcommand=name).echo()) - {"subcommand"}) | {"out"}


@pytest.mark.parametrize("name", sorted(ECHO))
def test_help_shows_each_runconfig_default(capsys, name):
    with pytest.raises(SystemExit) as exc:
        run([name, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    options = text.split(" options: ", 1)[1]
    shown = 0
    for key, value in RunConfig(subcommand=name).echo().items():
        if key == "subcommand" or value is None:
            continue
        flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
        # the flag, its metavar, then its help up to the next flag
        pattern = rf"{re.escape(flag)} \S+ (?:(?! --).)*\(default {re.escape(str(value))}\)"
        assert re.search(pattern, options), (flag, value)
        shown += 1
    assert shown >= 3
