"""One benchmark step in a fresh interpreter.

    python3 perfbench/child.py [--spans FILE] cli ARG...
    python3 perfbench/child.py [--spans FILE] read OBJ PLY

``cli`` calls ``g1helicoid.cli.run(ARG...)`` and exits with its code.
``read`` loads an OBJ and a PLY file with ``import_obj``/``import_ply`` and
prints ``{"seconds": ..., "obj": [vertices, faces], "ply": [...]}``; the
seconds cover the two reads only.  With ``--spans`` the public functions
listed in ``TARGETS`` are wrapped before the step runs, and the spans and
counters are written to FILE as JSON when it ends.  The package must be
importable (the benchmark puts the checkout's ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from spans import Hook, Recorder, installed

MODULES = ("params", "quadrature", "period_solver", "torus", "weierstrass", "mesh", "verify", "cli")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _points(key: str) -> Hook:
    def hook(rec, args, kwargs, result):
        rec.add(key, int(np.size(_arg(args, kwargs, 2, "z"))))

    return hook


def _integrate(rec, args, kwargs, result):
    rec.add("quadrature.integrate.evals", result.n_evals)
    rec.peak("quadrature.integrate.max_level", result.levels_used)
    rec.add("quadrature.integrate.nonconverged", int(not result.converged))


def _patch(rec, args, kwargs, result):
    rec.add("mesh.mesh_patch_D.vertices", len(result.vertices))


def _assemble(rec, args, kwargs, result):
    rec.add("mesh.weld.removed", result.metadata["weld_duplicates_removed"])
    rec.add("mesh.weld.before", result.metadata["vertices_before_weld"])


def _stack(rec, args, kwargs, result):
    domain, k = _arg(args, kwargs, 0, "domain"), _arg(args, kwargs, 1, "k")
    if k > 1:
        rec.add("mesh.weld.removed", result.metadata["stack_duplicates_removed"])
        rec.add("mesh.weld.before", k * len(domain.vertices))


def _manifold(rec, args, kwargs, result):
    rec.add("mesh.check_oriented_manifold.faces", len(_arg(args, kwargs, 0, "mesh").faces))


def _export(rec, args, kwargs, result):
    rec.add("mesh.export.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _run_all(rec, args, kwargs, result):
    rec.add("verify.checks_failed", result.n_failed)


#: ``"module.function"`` -> counter hook (or None) for every traced function.
TARGETS: Dict[str, Optional[Hook]] = {
    "cli.run": None,
    "quadrature.integrate": _integrate,
    "period_solver.F_integral": None,
    "period_solver.G_integral": None,
    "period_solver.solve_Lambda_of_rho": None,
    "period_solver.scan_H": None,
    "period_solver.solve_period_problem": None,
    "torus.build_chart": None,
    "torus.w_on_sheet": _points("torus.w_on_sheet.points"),
    "weierstrass.phi_dz": _points("weierstrass.phi_dz.points"),
    "weierstrass.integrate_path": None,
    "weierstrass.positions_along": None,
    "weierstrass.x2_H1": None,
    "weierstrass.x2_H2": None,
    "weierstrass.x3_E": None,
    "weierstrass.x3_E_tail": None,
    "mesh.mesh_patch_D": _patch,
    "mesh.assemble_fundamental_domain": _assemble,
    "mesh.check_oriented_manifold": _manifold,
    "mesh.stack_periods": _stack,
    "mesh.export_obj": _export,
    "mesh.export_ply": _export,
    "mesh.export_curves_csv": _export,
    "mesh.import_obj": None,
    "mesh.import_ply": None,
    "verify.run_all": _run_all,
    "verify.check_x3_monotone_on_C": None,
    "verify.check_c_convex": None,
    "verify.check_graph_disjointness": None,
    "verify.check_slab_and_boundary": None,
    "verify.check_limit_constants": None,
    "verify.check_lambda_above_one_reversal": None,
    "verify.check_rho_nonpositive_single_sign": None,
    "verify.json_text": None,
}


def _read(mesh, obj_path: str, ply_path: str) -> int:
    start = time.perf_counter()
    obj = mesh.import_obj(obj_path)
    ply = mesh.import_ply(ply_path)
    seconds = time.perf_counter() - start
    counts = {name: [len(m.vertices), len(m.faces)] for name, m in (("obj", obj), ("ply", ply))}
    print(json.dumps({"seconds": seconds, **counts}))
    return 0


def main(argv: List[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if not argv or argv[0] not in ("cli", "read") or (argv[0] == "read" and len(argv) != 3):
        sys.stderr.write(__doc__)
        return 2
    modules = {name: importlib.import_module(f"g1helicoid.{name}") for name in MODULES}
    recorder = Recorder()
    tracing = installed(recorder, TARGETS, modules) if spans_path else contextlib.nullcontext()
    with tracing:
        if argv[0] == "cli":
            code = modules["cli"].run(argv[1:])
        else:
            code = _read(modules["mesh"], argv[1], argv[2])
    sys.stdout.flush()
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            doc = {"spans": recorder.spans, "counters": recorder.counters, "peaks": recorder.peaks}
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
