"""Seeded workloads and the checks on each step's output.

A workload is a *round*: two cycles of steps whose inputs mirror each other
about the middle of each seeded range (antithetic pairs).  The seed picks
one point of each range for the first cycle; the second cycle takes its
mirror image.  Both halves of the range are therefore in every round, so a
run's median sits near the middle of the ranges whatever the seed, and the
spread between seeds reflects the machine rather than the draw.  A run
repeats its round as time allows, and every output is compared byte for
byte with its earlier repetitions.

Each cycle starts with an ``import`` step: a fresh interpreter importing
``g1helicoid.cli``, which is what every invocation pays before it works.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("solve", "mesh", "verify")

#: Solved parameters as the package README states them.
README_CONSTANTS = {
    "rho0": 0.7105219800457504,
    "lambda0": 0.5882995303657090,
    "Lambda0": 2.2881139078790866,
    "T": 2.5503397681180493,
}
CONSTANT_TOL = 1e-10
RESIDUAL_TOL = 1e-9
CURVE_NAMES = frozenset({"C", "E", "E_hat", "H1", "H2", "c", "end"})


@dataclass(frozen=True)
class Step:
    """One timed step: ``kind`` names what it measures, ``args`` its inputs.

    For CLI kinds ``args`` is the argument list after ``g1helicoid``; for
    ``mesh_read`` it is the OBJ and PLY path; ``import`` has none.
    """

    kind: str
    args: Tuple[str, ...] = ()

    @property
    def label(self) -> str:
        head = "g1helicoid" if self.kind in CLI_KINDS else self.kind
        return " ".join((head,) + self.args)


CLI_KINDS = frozenset({"solve", "periods", "mesh_obj", "mesh_ply", "curves", "verify"})


def _mirrored(rng: random.Random, lo: float, hi: float) -> Tuple[float, float]:
    x = lo + (hi - lo) * rng.random()
    return x, lo + hi - x


def _mirrored_int(rng: random.Random, lo: int, hi: int) -> Tuple[int, int]:
    x = min(hi, lo + int((hi - lo + 1) * rng.random()))
    return x, lo + hi - x


def _fixed(x: float) -> str:
    return f"{x:.6f}"


def plan(workload: str, seed: int, outdir: Path) -> List[List[Step]]:
    """The round of ``workload`` for ``seed``: two cycles of steps.

    Output files go under ``outdir``; the same seed gives the same steps.
    """
    rng = random.Random(f"{workload}:{seed}")
    cycles: List[List[Step]] = [[Step("import")], [Step("import")]]
    if workload == "solve":
        grids = _mirrored_int(rng, 48, 80)
        rows = _mirrored_int(rng, 24, 40)
        lows = _mirrored(rng, 0.02, 0.10)
        highs = _mirrored(rng, 1.45, math.pi / 2 - 0.02)
        for k, cycle in enumerate(cycles):
            cycle.append(Step("solve", ("solve", "--grid", str(grids[k]))))
            cycle.append(Step("periods", (
                "periods", "--rho-grid", str(rows[k]),
                "--rho-min", _fixed(lows[k]), "--rho-max", _fixed(highs[k]),
            )))
    elif workload == "mesh":
        small = _mirrored_int(rng, 40, 56)
        large = _mirrored_int(rng, 144, 160)
        obj, ply, csv = (str(outdir / name) for name in ("mesh.obj", "mesh.ply", "curves.csv"))
        for k, cycle in enumerate(cycles):
            cycle.append(Step("mesh_obj", (
                "mesh", "--resolution", str(small[k]), "--copies", "3", "--format", "obj",
                "--out", obj,
            )))
            cycle.append(Step("mesh_ply", (
                "mesh", "--resolution", str(large[k]), "--copies", "3", "--format", "ply",
                "--out", ply,
            )))
            cycle.append(Step("curves", ("curves", "--resolution", str(small[k]), "--out", csv)))
            cycle.append(Step("mesh_read", (obj, ply)))
    elif workload == "verify":
        grids = _mirrored_int(rng, 90, 110)
        for k, cycle in enumerate(cycles):
            cycle.append(Step("verify", ("verify", "--verify-grid", str(grids[k]))))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return cycles


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


class CheckFailed(Exception):
    """A step's output is wrong."""


def digest(data: bytes) -> Dict[str, object]:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


_WROTE = re.compile(r"wrote .*: (\d+) vertices, (\d+) faces")


def _check_solve(stdout: str) -> bytes:
    doc = json.loads(stdout)
    for key, want in README_CONSTANTS.items():
        if not abs(doc[key] - want) <= CONSTANT_TOL:
            raise CheckFailed(f"{key} = {doc[key]!r}, README says {want!r}")
    for key in ("residual_F", "residual_G"):
        if not abs(doc[key]) < RESIDUAL_TOL:
            raise CheckFailed(f"|{key}| = {abs(doc[key]):.3e} >= {RESIDUAL_TOL:g}")
    return stdout.encode()


def _check_periods(stdout: str, rows: int) -> bytes:
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "rho,Lambda,F,G":
        raise CheckFailed("periods: missing CSV header")
    table = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    if len(table) != rows:
        raise CheckFailed(f"periods: {len(table)} rows, expected {rows}")
    worst = max(abs(row[2]) for row in table)
    if not worst < RESIDUAL_TOL:
        raise CheckFailed(f"periods: max |F| = {worst:.3e} >= {RESIDUAL_TOL:g}")
    return stdout.encode()


def _check_mesh(stdout: str, path: Path, state: Dict[str, object], key: str) -> bytes:
    match = _WROTE.search(stdout)
    if match is None:
        raise CheckFailed(f"{key}: no vertex/face counts on stdout")
    state[key] = [int(match.group(1)), int(match.group(2))]
    return path.read_bytes()


def _check_curves(path: Path) -> bytes:
    data = path.read_bytes()
    lines = [ln for ln in data.decode("ascii").splitlines() if ln and not ln.startswith("#")]
    names = {ln.split(",", 1)[0] for ln in lines[1:]}
    if names != CURVE_NAMES:
        raise CheckFailed(f"curves: got {sorted(names)}, expected {sorted(CURVE_NAMES)}")
    return data


def _check_read(stdout: str, state: Dict[str, object]) -> None:
    doc = json.loads(stdout)
    for fmt in ("obj", "ply"):
        printed = state.get(f"mesh_{fmt}")
        if printed != doc[fmt]:
            raise CheckFailed(f"{fmt}: read back {doc[fmt]}, mesh printed {printed}")


def _check_verify(stdout: str) -> bytes:
    doc, end = json.JSONDecoder().raw_decode(stdout)
    if doc["n_failed"] != 0:
        raise CheckFailed(f"verify: n_failed = {doc['n_failed']}")
    # The table after the JSON carries run times, so only the JSON must repeat.
    return stdout[:end].encode()


def check(step: Step, stdout: str, state: Dict[str, object]) -> Optional[Dict[str, object]]:
    """Check one successful step's output; return the output's digest.

    ``state`` carries what one cycle's earlier steps printed (the mesh
    counts that ``mesh_read`` must reproduce).  Raises :class:`CheckFailed`
    (or a parse error) when the output is wrong.  ``import`` and
    ``mesh_read`` produce no output of the program, so they return None.
    """
    kind = step.kind
    if kind == "import":
        return None
    if kind == "mesh_read":
        _check_read(stdout, state)
        return None
    if kind == "solve":
        data = _check_solve(stdout)
    elif kind == "periods":
        data = _check_periods(stdout, int(step.args[step.args.index("--rho-grid") + 1]))
    elif kind in ("mesh_obj", "mesh_ply"):
        data = _check_mesh(stdout, Path(step.args[-1]), state, kind)
    elif kind == "curves":
        data = _check_curves(Path(step.args[-1]))
    elif kind == "verify":
        data = _check_verify(stdout)
    else:
        raise ValueError(f"unknown step kind {kind!r}")
    return digest(data)


def output_files(cycles: Sequence[Sequence[Step]]) -> List[Path]:
    """Every file the steps write, so a run can delete them between cycles."""
    out = set()
    for cycle in cycles:
        for step in cycle:
            if step.kind in CLI_KINDS and "--out" in step.args:
                out.add(Path(step.args[step.args.index("--out") + 1]))
    return sorted(out)
