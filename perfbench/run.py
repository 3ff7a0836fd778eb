"""End-to-end benchmark of the g1helicoid command line.

Run from the root of a checkout (the directory holding ``src/g1helicoid``):

    python3 perfbench/run.py --workload {solve,mesh,verify} --seed N \\
        --seconds S --trace {0,1}

Every step runs in a fresh interpreter, import included, one at a time (a
closed loop with one client).  The run repeats the seed's round of steps
(see ``workloads.py``) until ``--seconds`` have passed, at least once, and
compares every output with its earlier repetitions.

``--trace 0`` reports the end-to-end metrics: the median import time of
``g1helicoid.cli`` (``setup_s``), the median wall time of one cycle of the
workload's steps (``cycle_s``) and the largest ``ru_maxrss`` of any CLI
child (``peak_rss_mb``).  ``--trace 1`` runs each step untraced and then
traced (``child.py --spans``), and reports the per-layer metrics of
``PER_LAYER`` as medians over rounds, with the tracing overhead against the
untraced steps.

Standard output ends with a detail record (``{"perfbench": ...}``: every
sample summary, output digests, environment) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  A summary table goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from spans import count_within, totals_by_name
from stats import median, summary
from workloads import CLI_KINDS, WORKLOADS, CheckFailed, Step, check, output_files, plan

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: What the ``g1helicoid`` console script runs.
LAUNCHER = "import sys\nfrom g1helicoid.cli import main\nsys.exit(main())"
IMPORT_PROBE = "import g1helicoid.cli"
ENV_PROBE = (
    "import json, sys, numpy, scipy, g1helicoid.cli as cli\n"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
    " 'scipy': scipy.__version__, 'cli': cli.__file__}))"
)
STEP_TIMEOUT_S = 150.0

END_TO_END = (("setup_s", "s"), ("cycle_s", "s"), ("peak_rss_mb", "MB"))

ANCHORS = ("weierstrass.x2_H1", "weierstrass.x2_H2", "weierstrass.x3_E", "weierstrass.x3_E_tail")
VERIFY_CHECKS = (
    "check_x3_monotone_on_C",
    "check_c_convex",
    "check_graph_disjointness",
    "check_slab_and_boundary",
    "check_limit_constants",
    "check_lambda_above_one_reversal",
    "check_rho_nonpositive_single_sign",
)

#: Per-layer metrics.  ``<function>.s`` is summed self time, ``.calls`` the
#: number of calls; the other names are counters from ``child.py`` hooks or
#: are derived in ``layer_values``.  All are totals over one round.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("setup.scipy.s", "s"),
    ("setup.numpy.s", "s"),
    ("setup.g1helicoid.s", "s"),
    ("cli.run.s", "s"),
    ("quadrature.integrate.calls", "count"),
    ("quadrature.integrate.evals", "count"),
    ("quadrature.integrate.s", "s"),
    ("quadrature.integrate.max_level", "count"),
    ("quadrature.integrate.nonconverged", "count"),
    ("period_solver.F_integral.calls", "count"),
    ("period_solver.G_integral.calls", "count"),
    ("period_solver.solve_Lambda_of_rho.calls", "count"),
    ("period_solver.solve_Lambda_of_rho.s", "s"),
    ("period_solver.scan_H.s", "s"),
    ("period_solver.solve_period_problem.calls", "count"),
    ("period_solver.solve_period_problem.s", "s"),
    ("period_solver.F_calls_per_root", "calls"),
    ("torus.build_chart.calls", "count"),
    ("torus.build_chart.s", "s"),
    ("torus.w_on_sheet.points", "count"),
    ("torus.w_on_sheet.s", "s"),
    ("weierstrass.positions_along.calls", "count"),
    ("weierstrass.positions_along.s", "s"),
    ("weierstrass.phi_dz.points", "count"),
    ("weierstrass.phi_dz.s", "s"),
    ("weierstrass.anchors.calls", "count"),
    ("weierstrass.anchors.s", "s"),
    ("weierstrass.integrate_path.s", "s"),
    ("mesh.mesh_patch_D.s", "s"),
    ("mesh.mesh_patch_D.vertices", "count"),
    ("mesh.assemble_fundamental_domain.s", "s"),
    ("mesh.check_oriented_manifold.s", "s"),
    ("mesh.check_oriented_manifold.faces", "count"),
    ("mesh.stack_periods.s", "s"),
    ("mesh.weld.removed_ratio", "ratio"),
    ("mesh.export_obj.s", "s"),
    ("mesh.export_ply.s", "s"),
    ("mesh.export_curves_csv.s", "s"),
    ("mesh.export.bytes", "bytes"),
    ("mesh.import_obj.s", "s"),
    ("mesh.import_ply.s", "s"),
    ("verify.run_all.s", "s"),
    *((f"verify.{name}.s", "s") for name in VERIFY_CHECKS),
    ("verify.json_text.s", "s"),
    ("verify.checks_failed", "count"),
    ("trace.overhead", "ratio"),
)


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def spawn(argv: Sequence[str], cwd: Path, env: Dict[str, str], scratch: Path) -> Outcome:
    """Run ``argv`` to completion; wall time from start to reaped exit.

    The child is reaped with ``os.wait4`` for its own ``ru_maxrss``, and
    killed after ``STEP_TIMEOUT_S``.  Its output goes to files, which
    cannot fill up the way a pipe can.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def import_seconds(importtime_stderr: str) -> Dict[str, float]:
    """Self import time per top-level package from ``python -X importtime``."""
    out = {"scipy": 0.0, "numpy": 0.0, "g1helicoid": 0.0}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        top = parts[2].strip().split(".")[0]
        if top in out:
            out[top] += int(parts[0]) / 1e6
    return out


# --------------------------------------------------------------------------
# per-layer aggregation
# --------------------------------------------------------------------------


@dataclass
class RoundTrace:
    """Totals over the traced steps of one round."""

    spans: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    imports: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    f_in_roots: int = 0
    untraced_s: float = 0.0
    traced_s: float = 0.0
    by_kind: Dict[str, Dict[str, float]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float))
    )

    def add_child(self, kind: str, doc: dict, wall_s: float) -> None:
        spans = [tuple(s) for s in doc["spans"]]
        for name, (calls, seconds) in totals_by_name(spans).items():
            self.spans[name][0] += calls
            self.spans[name][1] += seconds
            self.by_kind[kind][name.split(".")[0]] += seconds
        in_roots = sum(end - start for _, _, start, end, parent in spans if parent is None)
        self.by_kind[kind]["outside_spans"] += wall_s - in_roots
        for key, value in doc["counters"].items():
            self.counters[key] += value
        for key, value in doc["peaks"].items():
            self.counters[key] = max(self.counters[key], value)
        self.f_in_roots += count_within(
            spans, "period_solver.F_integral", "period_solver.solve_Lambda_of_rho"
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(agg: RoundTrace) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of one round; 0 where the layer did not run."""

    def calls(name: str) -> float:
        return agg.spans[name][0] if name in agg.spans else 0

    def secs(name: str) -> float:
        return agg.spans[name][1] if name in agg.spans else 0.0

    derived = {
        "setup.scipy.s": agg.imports["scipy"],
        "setup.numpy.s": agg.imports["numpy"],
        "setup.g1helicoid.s": agg.imports["g1helicoid"],
        "weierstrass.anchors.calls": sum(calls(a) for a in ANCHORS),
        "weierstrass.anchors.s": sum(secs(a) for a in ANCHORS),
        "period_solver.F_calls_per_root": _ratio(
            agg.f_in_roots, calls("period_solver.solve_Lambda_of_rho")
        ),
        "mesh.weld.removed_ratio": _ratio(
            agg.counters["mesh.weld.removed"], agg.counters["mesh.weld.before"]
        ),
        "trace.overhead": _ratio(agg.traced_s, agg.untraced_s) - 1.0 if agg.untraced_s else 0.0,
    }
    out: Dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
        elif name.endswith(".s"):
            out[name] = secs(name[: -len(".s")])
        else:
            out[name] = agg.counters.get(name, 0)
    return out


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.trace = trace
        self.workdir = root / ".perfbench_out" / f"{workload}-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cycles = plan(workload, seed, self.workdir)
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.cycle_s: List[float] = []
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.outputs: Dict[str, Dict[str, object]] = {}
        self.rounds: List[RoundTrace] = []
        self.round_count = 0

    def spawn(self, argv: Sequence[str]) -> Outcome:
        return spawn(argv, self.root, self.env, self.workdir)

    def argv(self, step: Step, spans: Optional[Path] = None) -> List[str]:
        py = sys.executable
        if step.kind == "import":
            return [py, "-c", IMPORT_PROBE]
        tracing = ["--spans", str(spans)] if spans else []
        if step.kind == "mesh_read":
            return [py, str(CHILD), *tracing, "read", *step.args]
        if spans:
            return [py, str(CHILD), *tracing, "cli", *step.args]
        return [py, "-c", LAUNCHER, *step.args]

    def run_step(self, step: Step, argv: Sequence[str], state: dict) -> Optional[Outcome]:
        """Run and check one step; count it, and return None if it failed."""
        self.attempted += 1
        try:
            out = self.spawn(argv)
            if out.code != 0:
                last = (out.stderr.strip().splitlines() or ["no message"])[-1]
                raise CheckFailed(f"exit code {out.code}: {last}")
            digest = check(step, out.stdout, state)
            if digest is not None:
                self._record_output(step, digest)
        except (CheckFailed, ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            self.failed += 1
            self.errors.append(f"{self.key(step)}: {type(exc).__name__}: {exc}")
            return None
        return out

    def key(self, step: Step) -> str:
        """The step's label with the per-run work directory written as OUT."""
        return step.label.replace(str(self.workdir), "OUT")

    def _record_output(self, step: Step, digest: Dict[str, object]) -> None:
        seen = self.outputs.get(self.key(step))
        if seen is None:
            self.outputs[self.key(step)] = {**digest, "repeats": 1}
            return
        if (seen["sha256"], seen["bytes"]) != (digest["sha256"], digest["bytes"]):
            raise CheckFailed(f"output differs from an earlier repetition: {digest} vs {seen}")
        seen["repeats"] += 1

    @staticmethod
    def value(step: Step, out: Outcome) -> float:
        if step.kind == "mesh_read":
            return float(json.loads(out.stdout)["seconds"])
        return out.wall_s

    def _clear_outputs(self) -> None:
        for path in output_files(self.cycles):
            path.unlink(missing_ok=True)

    def run_cycle(self, cycle: Sequence[Step]) -> None:
        state: dict = {}
        total = 0.0
        complete = True
        for step in cycle:
            out = self.run_step(step, self.argv(step), state)
            if out is None:
                complete = False
                continue
            value = self.value(step, out)
            self.samples[step.kind].append(value)
            if step.kind in CLI_KINDS:
                self.peak_rss_mb = max(self.peak_rss_mb, out.rss_mb)
            if step.kind != "import":
                total += value
        if complete:
            self.cycle_s.append(total)
        self._clear_outputs()

    def run_traced_cycle(self, cycle: Sequence[Step], agg: RoundTrace) -> None:
        state: dict = {}
        spans_file = self.workdir / "spans.json"
        for step in cycle:
            if step.kind == "import":
                probe = [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE]
                out = self.run_step(step, probe, state)
                if out is not None:
                    for package, seconds in import_seconds(out.stderr).items():
                        agg.imports[package] += seconds
                continue
            plain = self.run_step(step, self.argv(step), state)
            spans_file.unlink(missing_ok=True)
            traced = self.run_step(step, self.argv(step, spans_file), state)
            if plain is None or traced is None:
                continue
            agg.untraced_s += self.value(step, plain)
            agg.traced_s += self.value(step, traced)
            doc = json.loads(spans_file.read_text(encoding="utf-8"))
            agg.add_child(step.kind, doc, traced.wall_s)
        self._clear_outputs()

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        while self.round_count == 0 or time.perf_counter() - start < seconds:
            if self.trace:
                agg = RoundTrace()
                for cycle in self.cycles:
                    self.run_traced_cycle(cycle, agg)
                self.rounds.append(agg)
            else:
                for cycle in self.cycles:
                    self.run_cycle(cycle)
            self.round_count += 1

    def metrics(self) -> Dict[str, Dict[str, object]]:
        if self.trace:
            per_round = [layer_values(agg) for agg in self.rounds]
            return {
                name: {"value": median([r[name] for r in per_round]), "unit": unit}
                for name, unit in PER_LAYER
            }
        values = {
            "setup_s": median(self.samples["import"]),
            "cycle_s": median(self.cycle_s),
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


def environment(bench: Bench, seed: int) -> Dict[str, object]:
    """Versions, core count and source size; fails if the package is not the checkout's."""
    out = bench.spawn([sys.executable, "-c", ENV_PROBE])
    if out.code != 0:
        raise RuntimeError(f"cannot import g1helicoid.cli: {out.stderr.strip()}")
    env = json.loads(out.stdout)
    src = bench.root / "src"
    if not Path(env.pop("cli")).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"g1helicoid was not imported from {src}")
    lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted((src / "g1helicoid").rglob("*.py"))
    )
    return {
        **env,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": lines,
    }


def _summary_table(workload: str, detail: dict, metrics: dict) -> str:
    lines = [
        f"perfbench {workload}: seed {detail['env']['seed']}, {detail['rounds']} rounds,"
        f" {detail['attempted']} steps, {detail['failed']} failed"
        f" (fail_ratio {detail['fail_ratio']:.3g})"
    ]
    for name, m in metrics.items():
        lines.append(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for kind, s in detail["samples"].items():
        lines.append(
            f"  step {kind:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
            f"  n={s['n']}"
        )
    lines.extend(f"  FAILED {e}" for e in detail["errors"])
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "g1helicoid" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no src/g1helicoid/cli.py under {root}; run from a checkout\n")
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench = Bench(root, args.workload, args.seed, bool(args.trace))
    try:
        try:
            env = environment(bench, args.seed)
        except (RuntimeError, ValueError) as exc:
            sys.stderr.write(f"perfbench: {exc}\n")
            return 2
        bench.run(args.seconds)
        try:
            metrics = bench.metrics()
        except ValueError as exc:
            sys.stderr.write(f"perfbench: {exc}\n" + "\n".join(bench.errors) + "\n")
            return 1
    finally:
        bench.close()

    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "rounds": bench.round_count,
        "plan": [[bench.key(step) for step in cycle] for cycle in bench.cycles],
        "attempted": bench.attempted,
        "failed": bench.failed,
        "fail_ratio": bench.failed / bench.attempted,
        "errors": bench.errors,
        "samples": {kind: summary(v) for kind, v in bench.samples.items()},
        "outputs": bench.outputs,
    }
    if bench.trace:
        detail["self_s_by_step"] = {
            kind: {
                module: median([r.by_kind[kind][module] for r in bench.rounds])
                for module in modules
            }
            for kind, modules in bench.rounds[0].by_kind.items()
        }
    else:
        detail["samples"]["cycle"] = summary(bench.cycle_s)
    sys.stderr.write(_summary_table(args.workload, detail, metrics) + "\n")
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
