"""Tests of the benchmark itself.

Every correctness check must fail on a value off by one and a half
times its tolerance, tracing must leave the rows unchanged, and the
metric names must match BENCHMARK.json.  Run from the checkout root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import checks
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The lightest rows that still reach every kind of check: the He rows
# carry the published-row checks, omega = 1/10 and 1/2 the Taut
# energies, omega = 1/4 the solver-row and one-sided T0+T2+T4 checks.
LIGHT = [("atoms", 1, ("he",)),
         ("hooke", 1, (0.1, 0.25, 0.5)),
         ("tabulated", 1, ("he",)),
         ("tabulated", 2, ("he",))]


@pytest.fixture(scope="module", params=LIGHT,
                ids=[f"{w}-seed{s}" for w, s, _ in LIGHT])
def light(request):
    workload, seed, keys = request.param
    inputs = [(key, compute)
              for key, compute in workloads.load_inputs(workload, seed)
              if key in keys]
    plain = [compute() for _, compute in inputs]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = [compute() for _, compute in inputs]
    return workload, plain, traced, tracer


def off_by(check: checks.Check, factor: float) -> checks.Check:
    """The check fed a value off by factor times its tolerance."""
    if check.kind == "rel":
        return replace(check, got=check.want * (1.0 + factor * check.tol))
    return replace(check, got=check.want + factor * check.tol)


def test_checks_pass_on_program_rows(light):
    workload, plain, _, _ = light
    results = checks.workload_checks(workload, plain)
    assert results
    assert [c.describe() for c in results if not c.passed] == []


def test_each_check_fails_off_by_one_and_a_half_tolerances(light):
    workload, plain, _, _ = light
    for check in checks.workload_checks(workload, plain):
        assert check.tol > 0.0, check.name
        assert off_by(check, 0.5).passed, check.name
        assert not off_by(check, -1.5).passed, check.name
        if check.kind != "min":
            assert not off_by(check, 1.5).passed, check.name


def test_tracing_leaves_rows_unchanged(light):
    _, plain, traced, _ = light
    assert [row.values for row in traced] == [row.values for row in plain]


def test_tracer_counts_evaluations_and_restores_originals(light):
    _, _, _, tracer = light
    metrics = tracer.layer_metrics(1)
    assert metrics["radial.eval.calls"] > 0
    assert 0.0 < metrics["radial.eval.quad_share"] < 1.0
    assert metrics["radial.quad.neval"] >= metrics["radial.quad.calls"] > 0
    assert workloads.radial.grid_for_density.__name__ == "grid_for_density"
    assert workloads.radial.DensityModel.eval.__name__ == "eval"


def test_metric_names_match_benchmark_json():
    tracer = tracing.Tracer()
    traced = set(tracer.layer_metrics(1)) | {"atoms.load.busy_s",
                                             "trace.overhead_pct"}
    per_layer = [(m["name"], m["unit"], m["better"])
                 for m in SPEC["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER)
    assert traced == {name for name, _, _ in tracing.PER_LAYER}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS)


def test_run_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload",
         "tabulated", "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (4, 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == (
        dict(run.END_TO_END))
    assert all(m["value"] > 0.0 for m in result["metrics"].values())


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "atoms", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
