"""Command-line front end.

One executable, five subcommands::

    g1helicoid solve    # solve both period conditions, print the closed
                        # parameter set as JSON
    g1helicoid periods  # CSV table (rho, Lambda(rho), F, G) over a rho grid
    g1helicoid mesh     # triangle mesh of the surface (OBJ or PLY)
    g1helicoid curves   # CSV dump of the distinguished boundary curves
    g1helicoid verify   # run the verification suite; nonzero exit on failure

Behaviour shared by every subcommand:

* a flat ``KEY = VALUE`` config file (``--config``) supplies defaults;
  explicit flags override it; unknown keys are rejected,
* every output carries a provenance header (artifact version, the exact
  configuration used, and the solved parameters when applicable),
* floating-point output uses 17 significant digits, so reruns with the same
  configuration are byte-identical,
* exit 0 on success, 2 on usage/config errors, 1 on numeric failures and
  failed writes of ``--out``,
* every period integral runs at the one quadrature policy of
  ``g1helicoid.quadrature``, which no option changes, and a printed root
  whose residual exceeds 1e-9 is a numeric failure.

Options are declared in one table: ``_OPTIONS`` (type, metavar, help) and
``_SUBCOMMANDS`` (each subcommand's options in provenance order), which the
parser, the config file and the echo read; defaults live in ``RunConfig``.

Each subcommand imports only what it runs.  ``solve`` and ``periods`` load
``params``, ``quadrature`` and ``period_solver`` (through this module's
own imports); ``mesh`` and ``curves`` add ``mesh`` (which brings ``torus`` and
``weierstrass``); ``verify`` adds ``verify`` and, through it, ``mesh``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import NumericError, __version__
from .params import SurfaceParams
from .period_solver import PeriodSolverError, scan_H, solve_period_problem

if TYPE_CHECKING:
    from .mesh import SurfaceMesh

__all__ = ["RunConfig", "UsageError", "run", "main", "json_text"]


class UsageError(ValueError):
    """Bad flags, bad config file, or an unwritable output path (exit 2)."""


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

_FORMATS = ("obj", "ply")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one CLI run.

    Defaults live here (not in argparse) so that the merge order is
    explicit: built-in default < config file < command-line flag.  Which
    subcommand reads which field is declared in ``_SUBCOMMANDS``.
    """

    subcommand: str
    grid: int = 64
    rho_min: float = 0.02
    rho_max: float = math.pi / 2 - 0.02
    rho_grid: int = 32
    resolution: int = 48
    copies: int = 1
    cutoff: float = 1e-2
    format: str = "obj"
    rho: Optional[float] = None
    lam: Optional[float] = None
    verify_grid: int = 100
    out: Optional[str] = None

    def validate(self) -> None:
        for key, opt in _OPTIONS.items():
            value = getattr(self, key)
            if opt.type is float and value is not None and not math.isfinite(value):
                raise UsageError(f"{_flag(key)} must be finite, got {value}")
        if self.cutoff <= 0:
            raise UsageError("cutoff must be positive")
        if self.grid < 2:
            raise UsageError("grid must be >= 2")
        if self.rho_grid < 1:
            raise UsageError("rho-grid must be >= 1")
        if not (0.0 < self.rho_min < self.rho_max < math.pi / 2):
            raise UsageError("need 0 < rho-min < rho-max < pi/2")
        if self.resolution < 8:
            raise UsageError("resolution must be >= 8")
        if self.copies < 1:
            raise UsageError("copies must be >= 1")
        if self.format not in _FORMATS:
            raise UsageError(f"unknown mesh format {self.format!r}")
        if self.verify_grid < 10:
            raise UsageError("verify-grid must be >= 10")
        if (self.rho is None) != (self.lam is None):
            raise UsageError("--rho and --lambda must be given together")
        if self.out is not None:
            if os.path.isdir(self.out):
                raise UsageError(f"--out names a directory: {self.out}")
            parent = os.path.dirname(os.path.abspath(self.out))
            if not os.path.isdir(parent):
                raise UsageError(f"output directory does not exist: {parent}")
            if not os.access(parent, os.W_OK):
                raise UsageError(f"output directory is not writable: {parent}")

    def echo(self) -> Dict[str, object]:
        """Deterministic key/value echo of everything that shaped the run:
        the subcommand's options in the order of its ``_SUBCOMMANDS`` entry."""
        out: Dict[str, object] = {"subcommand": self.subcommand}
        for name in _SUBCOMMANDS[self.subcommand].options.split():
            out[name] = getattr(self, name)
        return out


class _Option(NamedTuple):
    """One setting: its value type, flag metavar and help (whose default is
    appended from the ``RunConfig`` field)."""

    type: type
    metavar: Optional[str]
    help: str
    choices: Optional[Tuple[str, ...]] = None


#: Every setting by ``RunConfig`` field name, which is also its config-file
#: key (``-`` read as ``_``); the flag is ``--`` plus the name with ``_`` as
#: ``-``, except ``lam``, whose flag and config key are ``lambda``.
_OPTIONS: Dict[str, _Option] = {
    "grid": _Option(int, "N", "scan grid size for the outer root"),
    "rho_min": _Option(float, "X", "lower end of the rho range"),
    "rho_max": _Option(float, "X", "upper end of the rho range"),
    "rho_grid": _Option(int, "N", "number of rho samples"),
    "resolution": _Option(int, "N", "angular resolution of the patch"),
    "copies": _Option(int, "K", "number of vertical periods to stack"),
    "cutoff": _Option(float, "X", "puncture cutoff radius on the conformal disk"),
    "format": _Option(str, None, "mesh file format", _FORMATS),
    "rho": _Option(float, "X", "expert override: use this rho instead of solving "
                               "(requires --lambda)"),
    "lam": _Option(float, "X", "expert override: use this lambda (requires --rho)"),
    "verify_grid": _Option(int, "N", "side of the planar sampling grid"),
    "out": _Option(str, "PATH", "output file"),
}


def _flag(name: str) -> str:
    return "--lambda" if name == "lam" else "--" + name.replace("_", "-")


def _parse_config_file(path: str) -> Dict[str, str]:
    """Flat ``KEY = VALUE`` file; ``#`` comments; unknown keys rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    entries: Dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected KEY = VALUE, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key == "lambda":  # reserved word; the dataclass field is `lam`
            key = "lam"
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in entries:
            raise UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
        entries[key] = value.strip()
    return entries


def _coerce(key: str, text: str) -> object:
    typ = _OPTIONS[key].type
    try:
        return typ(text)
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: cannot parse {text!r} as {typ.__name__}") from exc


def _merge(args: argparse.Namespace) -> RunConfig:
    """Built-in defaults < config file < explicit flags, then validate.  The
    file supplies only ``out`` and the subcommand's ``_SUBCOMMANDS`` options."""
    file_values: Dict[str, object] = {}
    if args.config is not None:
        takes = _SUBCOMMANDS[args.subcommand].options.split() + ["out"]
        for key, text in _parse_config_file(args.config).items():
            if key in takes:
                file_values[key] = _coerce(key, text)

    values: Dict[str, object] = {"subcommand": args.subcommand}
    for key in _OPTIONS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
        elif key in file_values:
            values[key] = file_values[key]
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# argument parser
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that raises UsageError instead of calling sys.exit."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


#: Options argparse accepts before the subcommand.
_TOP_LEVEL_OPTIONS = ("--config", "--version", "--help", "-h")


def _check_top_level(argv: Sequence[str]) -> None:
    """Reject an unknown option given before the subcommand by its name.

    argparse would read such an option's value as the subcommand and report
    an invalid subcommand instead.  Unique prefixes stay accepted, as
    argparse accepts them.
    """
    tokens = iter(argv)
    for tok in tokens:
        if tok in _SUBCOMMANDS or not tok.startswith("-"):
            return
        name = tok.split("=", 1)[0]
        if not any(opt.startswith(name) for opt in _TOP_LEVEL_OPTIONS):
            raise UsageError(f"unrecognized arguments: {tok}")
        if len(name) > 2 and "--config".startswith(name) and "=" not in tok:
            next(tokens, None)  # the config file path


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="g1helicoid",
        description=(
            "Numerical construction of the singly periodic genus-one helicoid:"
            " period solve, parameter tables, surface meshes, boundary curves,"
            " and a verification suite."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", metavar="FILE", help="flat KEY = VALUE config file")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.options.split():
            opt = _OPTIONS[key]
            default = getattr(RunConfig, key)
            help_text = opt.help if default is None else f"{opt.help} (default {default})"
            p.add_argument(_flag(key), dest=key, type=opt.type, metavar=opt.metavar,
                           choices=opt.choices, help=help_text)
        out = _OPTIONS["out"]
        p.add_argument("--out", metavar=out.metavar, required=command.out_required,
                       help=out.help if command.out_required else f"{out.help} (default: stdout)")
    return parser


# --------------------------------------------------------------------------
# provenance + output helpers
# --------------------------------------------------------------------------


def _fmt_float(x: object) -> str:
    """A float at 17 significant digits (JSON's names for NaN and the
    infinities), anything else as ``str``."""
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, ".17g")
    return str(x)


def json_text(obj: object, indent: int = 2, _level: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    Dict keys keep insertion order (the callers build them in fixed
    order), so identical inputs give byte-identical text.  The ``solve``
    output and the ``verify`` report are both written with it; ``verify``
    imports it from here, so this module may import ``verify`` only inside
    a function.
    """
    pad = " " * (indent * _level)
    pad_in = " " * (indent * (_level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}{json.dumps(str(k))}: {json_text(v, indent, _level + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad_in}{json_text(v, indent, _level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _triple(params: SurfaceParams) -> Dict[str, float]:
    """The solved parameters a provenance record names."""
    return {"rho0": params.rho, "lambda0": params.lam, "T": params.T}


def _provenance(cfg: RunConfig, solution: Optional[Dict[str, float]] = None) -> Dict[str, object]:
    prov: Dict[str, object] = {
        "artifact": "g1helicoid",
        "version": __version__,
        "config": cfg.echo(),
    }
    if solution is not None:
        prov["solution"] = solution
    return prov


def _provenance_comment_lines(cfg: RunConfig,
                              solution: Optional[Dict[str, float]] = None) -> List[str]:
    lines = [f"g1helicoid {__version__}"]
    for head, record in (("config", cfg.echo()), ("solution", solution)):
        if record is not None:
            lines.append(f"{head}: " + " ".join(f"{k}={_fmt_float(v)}" for k, v in record.items()))
    return lines


class _WriteError(Exception):
    """A failed write of --out (exit 1)."""


def _emit_text(cfg: RunConfig, text: str) -> None:
    """Write to --out when given, otherwise to stdout."""
    if cfg.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _WriteError(f"cannot write {cfg.out}: {exc.strerror or exc}") from exc


def _require_closed(name: str, value: float, where: str = "") -> None:
    """Raise :class:`PeriodSolverError` unless the period residual ``value``
    is at most 1e-9 in modulus: a root the solve could not close must not be
    printed as if it had."""
    if not abs(value) <= 1e-9:
        raise PeriodSolverError(f"{name} = {value:.3e}{where} exceeds the bound |{name}| <= 1e-09")


def _solve(cfg: RunConfig):
    sol = solve_period_problem(grid_size=cfg.grid, rho_min=cfg.rho_min, rho_max=cfg.rho_max)
    _require_closed("residual_F", sol.residual_F)
    _require_closed("residual_G", sol.residual_G)
    return sol


def _resolve_params(cfg: RunConfig) -> SurfaceParams:
    """Solve unless an explicit (rho, lambda) override was given."""
    if cfg.rho is not None and cfg.lam is not None:
        return SurfaceParams(cfg.rho, cfg.lam)
    return _solve(cfg).params


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_solve(cfg: RunConfig) -> int:
    sol = _solve(cfg)
    p = sol.params
    payload = {
        "provenance": _provenance(cfg, _triple(p)),
        "rho0": p.rho,
        "lambda0": p.lam,
        "Lambda0": sol.Lambda0,
        "r": p.r,
        "R": p.R,
        "T": p.T,
        "residual_F": sol.residual_F,
        "residual_G": sol.residual_G,
    }
    _emit_text(cfg, json_text(payload) + "\n")
    return 0


def _cmd_periods(cfg: RunConfig) -> int:
    rhos = np.linspace(cfg.rho_min, cfg.rho_max, cfg.rho_grid)
    lines = ["# " + s for s in _provenance_comment_lines(cfg)]
    lines.append("rho,Lambda,F,G")
    for rho, Lam, F, G in scan_H(rhos, root_tol=1e-12):
        _require_closed("F", F, f" at rho={rho!r}")
        lines.append(",".join(_fmt_float(v) for v in (rho, Lam, F, G)))
    _emit_text(cfg, "\n".join(lines) + "\n")
    return 0


def _build_patch(cfg: RunConfig) -> SurfaceMesh:
    from .mesh import mesh_patch_D

    params = _resolve_params(cfg)
    patch = mesh_patch_D(params, resolution=cfg.resolution, cutoff=cfg.cutoff)
    patch.metadata["provenance"] = _provenance_comment_lines(cfg, _triple(params))
    return patch


def _cmd_mesh(cfg: RunConfig) -> int:
    from .mesh import assemble_fundamental_domain, export_obj, export_ply

    # no name holds the patch, so it is freed once the domain is assembled;
    # the exporter writes the periods copy by copy, so no stack is built
    domain = assemble_fundamental_domain(_build_patch(cfg))
    export = export_ply if cfg.format == "ply" else export_obj
    n_vertices, n_faces = export(domain, cfg.out, cfg.copies)
    sys.stdout.write(
        f"wrote {cfg.out}: {n_vertices} vertices, {n_faces} faces"
        f" ({cfg.copies} period{'s' if cfg.copies != 1 else ''})\n"
    )
    return 0


def _cmd_curves(cfg: RunConfig) -> int:
    from .mesh import export_curves_csv

    patch = _build_patch(cfg)
    export_curves_csv(patch, cfg.out)
    names = ", ".join(sorted(patch.boundary_polylines))
    sys.stdout.write(f"wrote {cfg.out}: curves {names}\n")
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    from .verify import run_all

    report = run_all(
        params=_solve(cfg).params,
        grid=cfg.verify_grid,
        resolution=cfg.resolution,
        cutoff=cfg.cutoff,
    )
    payload = {"provenance": _provenance(cfg, _triple(report.params)), **report.to_dict()}
    _emit_text(cfg, json_text(payload) + "\n")
    if cfg.out is None:
        sys.stdout.write("\n")
    sys.stdout.write(report.table() + "\n")
    n_bad = report.n_failed
    if n_bad:
        sys.stderr.write(f"verification FAILED: {n_bad} check(s)\n")
        return 1
    return 0


class _Subcommand(NamedTuple):
    """A subcommand's entry point, help and ``_OPTIONS`` names, in the order
    of the provenance echo; ``--out`` follows them on every subcommand."""

    run: Callable[[RunConfig], int]
    help: str
    options: str
    out_required: bool = False


_SUBCOMMANDS: Dict[str, _Subcommand] = {
    "solve": _Subcommand(
        _cmd_solve, "solve both period conditions (JSON)",
        "grid rho_min rho_max",
    ),
    "periods": _Subcommand(
        _cmd_periods, "CSV table (rho, Lambda, F, G) over a rho grid",
        "rho_grid rho_min rho_max",
    ),
    "mesh": _Subcommand(
        _cmd_mesh, "triangle mesh of the surface (OBJ or PLY)",
        "grid resolution copies cutoff format rho lam",
        out_required=True,
    ),
    "curves": _Subcommand(
        _cmd_curves, "CSV dump of the distinguished boundary curves",
        "grid resolution cutoff rho lam",
        out_required=True,
    ),
    "verify": _Subcommand(
        _cmd_verify, "run the verification suite",
        "grid verify_grid resolution cutoff",
    ),
}


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv``, execute the subcommand, and return the exit code.

    0 = success, 1 = numeric failure, a failed write of ``--out`` or an
    allocation the process cannot make (with a diagnostic on stderr), 2 =
    usage or configuration error.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        _check_top_level(argv)
        args = parser.parse_args(argv)
        cfg = _merge(args)
    except UsageError as exc:
        sys.stderr.write(f"g1helicoid: error: {exc}\n")
        sys.stderr.write("run 'g1helicoid --help' for usage\n")
        return 2
    try:
        return _SUBCOMMANDS[cfg.subcommand].run(cfg)
    except (NumericError, FloatingPointError, ZeroDivisionError) as exc:
        sys.stderr.write(f"g1helicoid: numeric error: {type(exc).__name__}: {exc}\n")
        return 1
    except _WriteError as exc:
        sys.stderr.write(f"g1helicoid: error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"g1helicoid: error: out of memory: {exc}\n")
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
