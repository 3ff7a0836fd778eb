"""The CI workflow parses, every job has a time limit, each step does
something, the tier-1 step runs the tier-1 command that ROADMAP.md states,
every pytest step turns warnings into errors, every step that runs a
command has a time limit of its own, and the traced benchmark runs cover
every workload that BENCHMARK.json declares."""

import json
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]


def _jobs():
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    return workflow["jobs"]


def _steps():
    return [step for job in _jobs().values() for step in job["steps"]]


def test_every_job_sets_a_timeout():
    # without one a hung job holds its runner for GitHub's 360-minute default
    jobs = _jobs()
    assert jobs
    for name, job in jobs.items():
        assert 0 < job.get("timeout-minutes", 0) <= 60, name


def test_every_step_has_exactly_one_of_run_and_uses():
    steps = _steps()
    assert steps
    for step in steps:
        assert ("run" in step) != ("uses" in step), step


def test_tier1_step_runs_the_roadmap_command_with_warnings_as_errors():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    (step,) = [step for step in _steps() if step.get("name") == "Tier-1 tests"]
    assert step["run"].strip() == command
    assert step["env"]["PYTHONWARNINGS"] == "error"


def test_every_pytest_step_turns_warnings_into_errors():
    steps = [step for step in _steps() if "-m pytest" in step.get("run", "")]
    assert len(steps) >= 2
    for step in steps:
        assert step.get("env", {}).get("PYTHONWARNINGS") == "error", step["name"]


def test_every_run_step_sets_a_timeout():
    # a hung test, install or benchmark run fails its step fast instead of
    # holding the runner until the job's limit
    steps = [step for step in _steps() if "run" in step]
    assert len(steps) >= 4
    for step in steps:
        assert 0 < step.get("timeout-minutes", 0) <= 10, step["name"]


def test_traced_runs_cover_every_benchmark_workload():
    # a workload added to BENCHMARK.json must also get a traced CI run
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    (step,) = [step for step in _steps() if step.get("name") == "Traced benchmark runs"]
    loop = re.search(r"^\s*for workload in ([^;]+); do$", step["run"], re.MULTILINE)
    assert loop is not None, step["run"]
    assert loop.group(1).split() == declared
