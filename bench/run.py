#!/usr/bin/env python3
"""ruinkit benchmark: three seeded workloads through ``ruinkit.cli.main``.

    python3 bench/run.py --workload survival --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0

Each workload runs in its own process, one client running its jobs back to
back (a closed loop), in-process through ``ruinkit.cli.main(argv)`` with
stdout captured.  The job list repeats until ``--seconds`` have passed.
Times are each job's fastest repetition, summed over the list: on a shared
host other tenants slow a CPU by half or more for seconds to minutes at a
time, and the fastest repetition is the one they disturbed least.  Jobs
are sized so that a run holds about ten repetitions or more.  Set-up time
is the median of cold starts spread over the run.  Outputs are checked
after the timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and reports
per-layer metrics from spans recorded around ruinkit's public functions.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans, findings and known
failures are written under ``.bench_out/``.

``--write-goldens`` records the outputs of one repetition as the goldens of
the workload (run it at the default seed).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = BENCH / "goldens"
DEFAULT_SEED = 0

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

#: the declared metrics: a run emits exactly these, with these units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def import_ruinkit():
    """Import ruinkit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "ruinkit" / "cli.py").is_file():
        raise SystemExit(f"ruinkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import ruinkit.cli

    if Path(ruinkit.__file__).resolve().parent != SRC / "ruinkit":
        raise SystemExit(f"imported ruinkit from {ruinkit.__file__}, not from {SRC}")
    return ruinkit.cli


# ---------------------------------------------------------------------------
# set-up time

def setup_probe(workload: str, seed: int, size: str) -> None:
    """Body of a cold start: import, generate and parse the inputs, report."""
    import numpy  # noqa: F401

    cli = import_ruinkit()
    parser = cli.build_parser()
    for job in workloads.jobs_for(workload, seed, size):
        args = parser.parse_args(list(job.argv))
        if getattr(args, "dist", None) is not None:
            cli.parse_dist(args.dist)
    print("ready", flush=True)


def cold_start(workload: str, seed: int, size: str) -> float:
    """Seconds from spawning a fresh interpreter to its first job being
    ready to start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--size", size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise SystemExit("set-up probe failed")
    return elapsed


# ---------------------------------------------------------------------------
# running jobs

def run_job(cli, job, tracer: Tracer | None = None):
    """Run one job; returns (Outcome, wall seconds, cpu seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    if tracer is not None:
        tracer.job = job.key
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception as exc:  # a job's uncaught exception is a failure to record
        error = type(exc).__name__
        err.write(f"{error}: {exc}")
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.end_job()
    return checks.Outcome(job.key, code, out.getvalue(), err.getvalue(), error), wall, cpu


def run_list(cli, jobs, tracer: Tracer | None = None):
    """One repetition of the job list: outcomes, per-job walls and cpus."""
    outcomes, walls, cpus = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for job in jobs:
            outcome, wall, cpu = run_job(cli, job, tracer)
            outcomes.append(outcome)
            walls.append(wall)
            cpus.append(cpu)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcomes, walls, cpus


def load_goldens(workload: str) -> dict:
    path = GOLDENS / f"{workload}.json"
    return json.loads(path.read_text())["jobs"] if path.exists() else {}


def judge_all(jobs, reps, goldens: dict) -> dict:
    """Check the first repetition in full; later ones must repeat it exactly.

    Each job of the list counts once in ``attempted``, however many
    repetitions the window held, so the counts depend on the seed alone; a
    job fails if its checks fail or any repetition's output differs."""
    oracles = checks.Oracles()
    failed, problems, known, findings = 0, [], [], []
    first = reps[0]
    with_golden = sum(job.key in goldens for job in jobs)
    for i, (job, outcome) in enumerate(zip(jobs, first)):
        v = checks.judge(job.argv, outcome, goldens.get(job.key), oracles)
        if v.finding:
            findings.append(v.finding)
        if v.known_failure:
            known.append({"job": job.key, "known_failure": v.known_failure,
                          "why": checks.KNOWN_FAILURES[v.known_failure]})
        problems += [f"{job.key}: {p}" for p in v.problems]
        same = all((outcome.exit_code, outcome.error, outcome.stdout)
                   == (rep[i].exit_code, rep[i].error, rep[i].stdout) for rep in reps[1:])
        if not same:
            problems.append(f"{job.key}: output differs between repetitions")
        failed += v.failed or not same
    return {"attempted": len(jobs), "failed": failed,
            "correct": not problems, "problems": problems, "golden_checked": with_golden,
            "known_failures": known, "findings": findings}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# ---------------------------------------------------------------------------
# the two kinds of run

class Window:
    """The measuring window: a repetition starts only if one more of the
    median length still fits, so a run measures about ``seconds`` and never
    much longer; there is always at least one repetition."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()
        self.lengths: list[float] = []

    def room_for_another(self) -> bool:
        if not self.lengths:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.lengths) <= self.seconds

    def time(self, func, *args):
        start = time.perf_counter()
        result = func(*args)
        self.lengths.append(time.perf_counter() - start)
        return result


def timed_run(cli, workload: str, seed: int, seconds: float, size: str) -> tuple[dict, dict]:
    """End-to-end metrics: each job's fastest repetition, summed over the
    list (``wall_s``, ``cpu_s``) or of the headline job (``big_job_s``)."""
    jobs = workloads.jobs_for(workload, seed, size)
    headline = next(i for i, j in enumerate(jobs) if j.headline)
    run_job(cli, workloads.WARMUP)
    cold_start(workload, seed, size)  # fills the byte-code and file caches
    reps, walls, cpus, setups = [], [], [], []
    window = Window(seconds)
    while window.room_for_another():
        outcomes, job_walls, job_cpus = window.time(run_list, cli, jobs)
        reps.append(outcomes)
        walls.append(job_walls)
        cpus.append(job_cpus)
        # one cold start after each repetition spreads them over the window
        setups.append(cold_start(workload, seed, size))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fastest_walls = [min(w) for w in zip(*walls)]
    metrics = {
        "wall_s": sum(fastest_walls),
        "cpu_s": sum(min(c) for c in zip(*cpus)),
        "big_job_s": fastest_walls[headline],
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }
    status = judge_all(jobs, reps, load_goldens(workload))
    status["samples"] = {"list wall_s": [sum(w) for w in walls],
                         "list cpu_s": [sum(c) for c in cpus],
                         "big_job_s": [w[headline] for w in walls],
                         "setup_s": setups}
    return metrics, status


def traced_run(cli, workload: str, seed: int, seconds: float, size: str) -> tuple[dict, dict, list]:
    """Alternate untraced and traced repetitions; per-layer metrics are
    medians over the traced ones."""
    jobs = workloads.jobs_for(workload, seed, size)
    run_job(cli, workloads.WARMUP)
    plain_walls, tracers, traced_walls, reps = [], [], [], []

    def pair():
        outcomes, job_walls, _cpus = run_list(cli, jobs)
        plain_walls.append(sum(job_walls))
        reps.append(outcomes)
        tracer = Tracer()
        outcomes, job_walls, _cpus = run_list(cli, jobs, tracer)
        tracers.append(tracer)
        traced_walls.append(sum(job_walls))
        reps.append(outcomes)

    window = Window(seconds)
    while window.room_for_another():
        window.time(pair)
    per_rep = [layer_metrics(t, wall) for t, wall in zip(tracers, traced_walls)]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    )
    metrics["src.lines"] = src_lines()
    status = judge_all(jobs, reps, load_goldens(workload))
    metrics["fail_frac"] = status["failed"] / status["attempted"]
    return metrics, status, tracers


#: functions whose own self time is reported
PER_LAYER_SELF = (
    "recurrence.build_table", "recurrence.check_conjecture",
    "series.series_divide", "series.deflate_G",
    "survival.phi_table", "survival.solve",
    "roots.refine_alpha", "roots.root_profile", "roots.interior_sign_changes",
    "distributions.pmf_prefix",
    "asymptotics.compute_coefficients", "asymptotics.verify_sign_monotonicity",
    "asymptotics.residuals_converged",
    "oracle.mc_estimate", "oracle.finite_horizon_dp",
    "cli.render_report", "cli.parse_dist", "cli.main",
)


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict:
    selfs = tracer.self_times()
    counts, maxes = tracer.counts, tracer.max_values
    m = {f"{layer}.self_s": sum(v for k, v in selfs.items() if k.startswith(layer + "."))
         for layer in LAYERS}
    for name in PER_LAYER_SELF:
        m[f"{name}.self_s"] = selfs.get(name, 0.0)
    bt = "recurrence.build_table"
    m[f"{bt}.calls"] = counts[f"{bt}.calls"]
    m[f"{bt}.terms"] = counts[f"{bt}.terms"]
    m[f"{bt}.useful_frac"] = counts[f"{bt}.useful"] / max(1, counts[f"{bt}.iterations"])
    m[f"{bt}.max_bits"] = maxes[f"{bt}.max_bits"]
    m["survival.solve.alpha_bits"] = maxes["survival.solve.alpha_bits"]
    ra = "roots.refine_alpha"
    m[f"{ra}.bits"] = counts[f"{ra}.bits"]
    m[f"{ra}.evals_per_bit"] = counts[f"{ra}.pgf_evals"] / max(1, counts[f"{ra}.bits"])
    m["distributions.pgf.calls"] = counts["distributions.pgf.calls"]
    mc, dp = "oracle.mc_estimate", "oracle.finite_horizon_dp"
    m[f"{mc}.trial_steps_per_s"] = counts[f"{mc}.trial_steps"] / selfs[mc] if selfs.get(mc) else 0.0
    m[f"{dp}.steps_per_s"] = counts[f"{dp}.steps"] / selfs[dp] if selfs.get(dp) else 0.0
    m["cli.render_report.bytes"] = counts["cli.render_report.bytes"]
    for layer in LAYERS:
        m[f"{layer}.errors"] = counts[f"{layer}.errors"]
    m["trace.coverage"] = sum(selfs.values()) / traced_wall
    return m


# ---------------------------------------------------------------------------

def write_goldens(cli, workload: str, seed: int, size: str) -> None:
    jobs = workloads.jobs_for(workload, seed, size)
    outcomes, _walls, _cpus = run_list(cli, jobs)
    GOLDENS.mkdir(exist_ok=True)
    payload = {"workload": workload, "seed": seed, "size": size,
               "jobs": {o.job_key: o.record() for o in outcomes}}
    (GOLDENS / f"{workload}.json").write_text(json.dumps(payload, sort_keys=True) + "\n")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    cli = import_ruinkit()
    if trace:
        metrics, status, tracers = traced_run(cli, workload, seed, seconds, size)
        spans = [dict(record, rep=i) for i, t in enumerate(tracers) for record in t.records()]
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{workload}-{seed}.json").write_text(json.dumps(spans))
    else:
        metrics, status = timed_run(cli, workload, seed, seconds, size)
    OUT.mkdir(exist_ok=True)
    notes = {k: status[k] for k in ("problems", "known_failures", "findings", "samples")
             if k in status}
    (OUT / f"status-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(notes, indent=2))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {
        "workload": workload,
        "status": status,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def print_result(result: dict) -> None:
    status = result["status"]
    print(f"== {result['workload']}: {status['attempted']} jobs attempted, "
          f"{status['failed']} failed (fail_frac "
          f"{status['failed'] / status['attempted']:.4f}); "
          f"{status['golden_checked']} jobs of the list checked against goldens")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    for name, values in status.get("samples", {}).items():
        print(f"  {name} per repetition: " + " ".join(f"{v:.3f}" for v in values))
    for k in status["known_failures"]:
        print(f"  known failure [{k['known_failure']}]: {k['job']}")
    for f in status["findings"]:
        print(f"  finding: determinant pattern {f['verdict']} for {f['dist']}")
    for p in status["problems"]:
        print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    p.add_argument("--write-goldens", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    a = p.parse_args(argv)

    if a.setup_probe:
        setup_probe(a.workload, a.seed, a.size)
        return 0
    if a.workload == "all":
        return run_all(a)
    if a.write_goldens:
        write_goldens(import_ruinkit(), a.workload, a.seed, a.size)
        return 0
    result = run_workload(a.workload, a.seed, a.seconds, bool(a.trace), a.size)
    print_result(result)
    status = result["status"]
    print(json.dumps({"correct": status["correct"], "attempted": status["attempted"],
                      "failed": status["failed"], "metrics": result["metrics"]}))
    return 0


def run_all(a) -> int:
    """Every workload, each in its own process, end-to-end then traced; the
    results go to ``.bench_out/results-<seed>.json``."""
    summary = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(a.seed), "--seconds", str(a.seconds),
                   "--trace", str(trace), "--size", a.size]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            summary[f"{workload}/trace{trace}"] = json.loads(done.stdout.splitlines()[-1])
    OUT.mkdir(exist_ok=True)
    (OUT / f"results-{a.seed}.json").write_text(json.dumps(summary, indent=2))
    names = [m["name"] for m in SPEC["end_to_end"]] + ["fail_frac"]
    print("\n" + f"{'workload':10s}" + "".join(f"{n:>13s}" for n in names))
    for workload in workloads.WORKLOADS:
        e2e = summary[f"{workload}/trace0"]
        row = {k: v["value"] for k, v in e2e["metrics"].items()}
        row["fail_frac"] = e2e["failed"] / e2e["attempted"]
        print(f"{workload:10s}" + "".join(f"{row[n]:13.4g}" for n in names))
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
