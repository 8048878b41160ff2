"""The benchmark's own tests, at toy sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_ruinkit()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = run.run_workload(workload, seed=1, seconds=0, trace=False, size="tiny")
    metrics = result["metrics"]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0
    assert result["status"]["correct"], result["status"]["problems"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    result = run.run_workload(workload, seed=1, seconds=0, trace=True, size="tiny")
    metrics = result["metrics"]
    assert {s["name"] for s in SPEC["per_layer"]} <= set(metrics)
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    # spans nest, so self times add up to the traced job time
    assert abs(metrics["trace.coverage"]["value"] - 1) < 0.05


def test_generator_is_deterministic_and_covers_both_regimes():
    for workload in workloads.WORKLOADS:
        assert workloads.jobs_for(workload, 7) == workloads.jobs_for(workload, 7)
    assert workloads.jobs_for("sweep", 7) != workloads.jobs_for("sweep", 8)
    import random

    rng = random.Random(0)
    for regime in ("low", "high"):
        for _ in range(20):
            pmf = workloads.random_pmf(rng, regime)
            mean = workloads._mean(pmf)
            assert (mean < 2) == (regime == "low")
            assert 0 < pmf[0] <= 0.5 and sum(pmf) == 1
            assert any(pmf[k] for k in range(1, len(pmf), 2))


def test_perturbed_golden_fails_the_check(cli):
    jobs = workloads.jobs_for("survival", 1, "tiny")
    outcomes, _walls, _cpu = run.run_list(cli, jobs)
    goldens = {o.job_key: o.record() for o in outcomes}
    clean = run.judge_all(jobs, [outcomes], goldens)
    assert clean["correct"] and clean["failed"] == 0

    key = jobs[0].key
    table = goldens[key]["report"]["results"]["phi_table"]
    table[3] = repr(float(table[3]) + 1e-9)
    perturbed = run.judge_all(jobs, [outcomes], goldens)
    assert not perturbed["correct"]
    assert perturbed["failed"] / perturbed["attempted"] > 0
    assert any("golden mismatch" in p for p in perturbed["problems"])


def test_exact_fields_match_bit_for_bit():
    assert checks.compare({"m": "1/3"}, {"m": "1/3"}, exact_floats=False) == []
    assert checks.compare({"m": "1/3"}, {"m": "2/6x"}, exact_floats=False)
    assert checks.compare({"v": "0.5"}, {"v": "0.50000000000001"}, exact_floats=False) == []
    assert checks.compare({"v": "0.5"}, {"v": "0.50000000000001"}, exact_floats=True)


def test_known_overflow_is_a_counted_known_failure(cli):
    job = workloads.Job(("asympt", "--dist", workloads.KNOWN_OVERFLOW_LAW, "--n", "300"))
    status = run.judge_all([job], [[run.run_job(cli, job)[0]]], {})
    assert status["failed"] == 1 and status["correct"]
    assert status["known_failures"][0]["known_failure"] == "asympt-overflow"


def test_unconverged_ratio_route_is_a_counted_known_failure(cli):
    law = "pmf:1/2,5/22,1/11,1/11,0,0,0,1/22,1/22"
    job = workloads.Job(("solve", "--dist", law, "--u-max", "50", "--route", "all"))
    status = run.judge_all([job], [[run.run_job(cli, job)[0]]], {})
    assert status["failed"] == 1 and status["correct"]
    assert status["known_failures"][0]["known_failure"] == "limit-route-unconverged"


def test_tracer_restores_every_binding(cli):
    from ruinkit import recurrence, survival
    from ruinkit.distributions import ClaimDistribution

    before = (survival.build_table, recurrence.build_table, ClaimDistribution.pgf)
    tracer = run.Tracer()
    tracer.install()
    try:
        assert survival.build_table is not before[0]
        assert ClaimDistribution.pgf is not before[2]
    finally:
        tracer.uninstall()
    assert (survival.build_table, recurrence.build_table, ClaimDistribution.pgf) == before
