"""Command-line interface: subcommand contracts, exit codes, config-file
merging, provenance headers, and byte-identical reruns."""

import errno
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import g1helicoid
from g1helicoid.cli import _OPTIONS, _SUBCOMMANDS, RunConfig, UsageError, _build_parser, _flag, run

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


def test_numpy_ma_stays_unloaded_and_the_level_pool_is_mesh_only(tmp_path):
    # numpy.ma costs about 8 ms of import per process; concurrent.futures
    # serves the mesh's level pool only, so a bare import must not load it
    code = (
        "import contextlib, io, sys\n"
        "from g1helicoid import cli\n"
        "lazy = ('numpy.ma', 'concurrent.futures', 'g1helicoid.mesh')\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(['mesh', '--resolution', '8', '--out', {str(tmp_path / 'm.obj')!r}]),\n"
        f"             cli.main(['curves', '--resolution', '8', '--out', {str(tmp_path / 'c.csv')!r}]),\n"
        "             cli.main(['verify', '--verify-grid', '10'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    out = _fresh_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[0, 0, 0] False"]


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
    # --max-level 4 stops F short of its tolerance near rho_min
    assert run(["solve", "--max-level", "4"]) == 1
    err = capsys.readouterr().err
    assert "numeric error: PeriodSolverError: F_integral(rho=0.02" in err
    assert "did not converge" in err


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


def test_nonpositive_tolerance_exits_2():
    assert run(["solve", "--rel-tol", "-1e-9"]) == 2


@pytest.mark.parametrize(
    "argv,config,named",
    [
        (["--threads", "2", "solve"], None, "--threads"),
        (["--seed", "1", "solve"], None, "--seed"),
        (["solve"], "threads = 2\n", "threads"),
        (["periods", "--max-level", "2"], None, "max-level"),
    ],
    ids=["threads-flag", "seed-flag", "threads-config-key", "max-level-below-4"],
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


#: ``RunConfig(subcommand=s).echo()`` of every subcommand, keys in order, as
#: the option table must keep reproducing it.
ECHO = {
    "solve": [
        ("subcommand", "solve"), ("rel_tol", 1e-12), ("abs_tol", 1e-14), ("max_level", 12),
        ("grid", 64), ("root_tol", 1e-12), ("rho_min", 0.02), ("rho_max", 1.5507963267948965),
    ],
    "periods": [
        ("subcommand", "periods"), ("rel_tol", 1e-12), ("abs_tol", 1e-14), ("max_level", 12),
        ("root_tol", 1e-12), ("rho_grid", 32), ("rho_min", 0.02),
        ("rho_max", 1.5507963267948965),
    ],
    "mesh": [
        ("subcommand", "mesh"), ("rel_tol", 1e-12), ("abs_tol", 1e-14), ("max_level", 12),
        ("grid", 64), ("root_tol", 1e-12), ("resolution", 48), ("copies", 1), ("cutoff", 0.01),
        ("format", "obj"), ("rho", None), ("lam", None),
    ],
    "curves": [
        ("subcommand", "curves"), ("rel_tol", 1e-12), ("abs_tol", 1e-14), ("max_level", 12),
        ("grid", 64), ("root_tol", 1e-12), ("resolution", 48), ("cutoff", 0.01), ("rho", None),
        ("lam", None),
    ],
    "verify": [
        ("subcommand", "verify"), ("rel_tol", 1e-12), ("abs_tol", 1e-14), ("max_level", 12),
        ("grid", 64), ("root_tol", 1e-12), ("verify_grid", 100), ("resolution", 48),
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
    assert shown >= 7
