"""composite-sgd benchmark: end-to-end run cost per workload, and a traced
per-module breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark writes the workload's config
(and group file) for instance seed ``N % 32`` under ``.perfbench/``, then
repeats ``composite-sgd run`` on it, each repetition in a fresh process
(``perfbench/child.py``) with the jobs sequential (``COMPOSITE_SGD_THREADS=1``)
and one BLAS thread, until ``S`` seconds have passed. Every job of every
repetition is checked: exit code, final objective against
``perfbench/references.json`` (relative tolerance ``RTOL``), and its trace CSV
against the first repetition's, ``elapsed_seconds`` aside.

``--trace 0`` reports the end-to-end metrics as medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones, with ``trace_overhead`` the ratio of
their median run times, and prints them next to the matching ROADMAP
baseline rows. A wrapped function the workload uses that records no call
fails the run.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every job passed the gate. A results file with
the machine record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import REFERENCE_KERNEL_S  # noqa: E402
from workloads import SOLVERS, WORKLOADS, Workload, instance_seed, write_inputs  # noqa: E402

ROOT = HERE.parent
PACKAGE = ROOT / "src" / "composite_sgd"
REFERENCES = HERE / "references.json"
WORK_ROOT = ROOT / ".perfbench"

# Final objectives must match their reference to this relative tolerance, not
# bitwise: the BLAS thread count alone moves the last digit.
RTOL = 1e-9
MIN_REPS = 2
# Start no repetition that could push the whole invocation past this.
TIME_LIMIT_S = 170.0
CHILD_ENV = {
    "COMPOSITE_SGD_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "sg_us_per_iter": "us/iter",
    "ssg_us_per_iter": "us/iter",
    "acsa_us_per_iter": "us/iter",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.rng_normal.calls": "count",
    "core.rng_normal.s": "s",
    "core.rng_indices.calls": "count",
    "core.rng_indices.s": "s",
    "problems.gen_dataset.s": "s",
    "problems.lipschitz.s": "s",
    "problems.oracle_sample.calls": "count",
    "problems.oracle_sample.us_per_call": "us",
    "problems.objective.calls": "count",
    "problems.objective.s": "s",
    "regularizers.build_structure.s": "s",
    "regularizers.prox.calls": "count",
    "regularizers.prox.us_per_call": "us",
    "regularizers.prox.failed": "count",
    "regularizers.evaluate.calls": "count",
    "regularizers.evaluate.s": "s",
    "smoothing.smoothed.calls": "count",
    "smoothing.smoothed_gradient.calls": "count",
    "smoothing.smoothed_gradient.us_per_call": "us",
    "solvers.sg.s": "s",
    "solvers.ssg.s": "s",
    "solvers.acsa.s": "s",
    "solvers.sg.self_us_per_iter": "us/iter",
    "solvers.ssg.self_us_per_iter": "us/iter",
    "solvers.acsa.self_us_per_iter": "us/iter",
    "solvers.pilot.s": "s",
    "solvers.trace.s": "s",
    "harness.build_problem.calls": "count",
    "harness.build_problem.s": "s",
    "harness.build_problem.useful_ratio": "ratio",
    "harness.write_trace.s": "s",
    "harness.write_summary.s": "s",
    "harness.run.self_s": "s",
    "config.parse.s": "s",
    "trace_overhead": "ratio",
}


def run_repetition(config: Path, rep_dir: Path, traced: bool, timeout: float) -> dict:
    """One fresh process running the workload; its measurements, or the
    reason it failed under ``error``."""
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    log_path = rep_dir / "log.txt"
    cmd = [sys.executable, str(HERE / "child.py"), config.name, str(rep_dir / "out"),
           str(result_path), "--traced", str(int(traced))]
    env = dict(os.environ, **CHILD_ENV, PYTHONPATH=str(PACKAGE.parent))
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, cwd=config.parent, env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"repetition exceeded {timeout:.0f} s and was killed"}
    if proc.returncode != 0 or not result_path.is_file():
        tail = log_path.read_text(encoding="utf-8").strip().splitlines()[-5:]
        return {"error": f"exit code {proc.returncode}: " + " | ".join(tail)}
    return json.loads(result_path.read_text(encoding="utf-8"))


def read_jobs(out_dir: Path) -> dict:
    """solver -> (final objective, trace rows without elapsed_seconds)."""
    payload = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    jobs = {}
    for run in payload.get("runs", [payload]):
        trace = Path(run["trace_file"])
        solver = trace.stem.split("_")[1]
        with open(trace, encoding="utf-8", newline="") as fh:
            rows = [row[:1] + row[2:] for row in csv.reader(fh)]
        jobs[solver] = (run["final_objective"], rows)
    return jobs


def gate_jobs(jobs: dict, refs: dict, first_rows: dict) -> list[str]:
    """Failure messages, one per failed job; the first passing trace of each
    solver becomes the one later repetitions must reproduce."""
    failures = []
    for solver in SOLVERS:
        if solver not in jobs:
            failures.append(f"{solver}: no job in summary.json")
            continue
        final, rows = jobs[solver]
        ref = refs[solver]
        if abs(final - ref) > RTOL * abs(ref):
            failures.append(f"{solver}: final objective {final!r} differs from reference {ref!r}")
        elif first_rows.setdefault(solver, rows) != rows:
            failures.append(f"{solver}: trace differs from the first repetition's")
    return failures


def end_to_end(reps: list[dict], N: int) -> dict:
    """Per-repetition samples of each end-to-end metric."""
    per_rep = {name: [] for name in END_TO_END}
    for rep in reps:
        spans = rep["spans"]
        per_rep["run_s"].append(rep["run_s"])
        per_rep["setup_s"].append(spans["harness.build_problem"]["s"])
        for solver in SOLVERS:
            span = spans[f"solvers.{solver}"]
            per_rep[f"{solver}_us_per_iter"].append(span["s"] / span["calls"] / (N + 1) * 1e6)
        per_rep["peak_rss_mb"].append(rep["peak_rss_kb"] / 1024.0)
    return per_rep


def layer(rep: dict, N: int) -> dict:
    spans = rep["spans"]
    calls = lambda name: spans[name]["calls"]
    secs = lambda name: spans[name]["s"]
    us_per_call = lambda name: secs(name) / calls(name) * 1e6 if calls(name) else 0.0
    m = {
        "core.rng_normal.calls": calls("core.rng_normal"),
        "core.rng_normal.s": secs("core.rng_normal"),
        "core.rng_indices.calls": calls("core.rng_indices"),
        "core.rng_indices.s": secs("core.rng_indices"),
        "problems.gen_dataset.s": secs("problems.gen_dataset"),
        "problems.lipschitz.s": secs("problems.lipschitz"),
        "problems.oracle_sample.calls": calls("problems.oracle_sample"),
        "problems.oracle_sample.us_per_call": us_per_call("problems.oracle_sample"),
        "problems.objective.calls": calls("problems.objective"),
        "problems.objective.s": secs("problems.objective"),
        "regularizers.build_structure.s": secs("regularizers.build_structure"),
        "regularizers.prox.calls": calls("regularizers.prox"),
        "regularizers.prox.us_per_call": us_per_call("regularizers.prox"),
        "regularizers.prox.failed": spans["regularizers.prox"]["failed"],
        "regularizers.evaluate.calls": calls("regularizers.evaluate"),
        "regularizers.evaluate.s": secs("regularizers.evaluate"),
        "smoothing.smoothed.calls": calls("smoothing.smoothed"),
        "smoothing.smoothed_gradient.calls": calls("smoothing.smoothed_gradient"),
        "smoothing.smoothed_gradient.us_per_call": us_per_call("smoothing.smoothed_gradient"),
        "solvers.pilot.s": secs("solvers.pilot"),
        "solvers.trace.s": rep["trace_s"],
        "harness.build_problem.calls": calls("harness.build_problem"),
        "harness.build_problem.s": secs("harness.build_problem"),
        # One seed per config, so every build after the first repeats one.
        "harness.build_problem.useful_ratio": 1.0 / calls("harness.build_problem"),
        "harness.write_trace.s": secs("harness.write_trace"),
        "harness.write_summary.s": secs("harness.write_summary"),
        "harness.run.self_s": spans["harness.run"]["self_s"],
        "config.parse.s": secs("config.parse"),
    }
    for solver in SOLVERS:
        span = spans[f"solvers.{solver}"]
        m[f"solvers.{solver}.s"] = span["s"]
        m[f"solvers.{solver}.self_us_per_iter"] = span["self_s"] / span["calls"] / (N + 1) * 1e6
    return m


def missing_calls(workload: Workload, rep: dict) -> list[str]:
    """The wrapped targets this workload uses that recorded no call. Targets,
    not spans, are checked: a span that gathers several targets keeps its
    calls when one of them is bypassed."""
    return [
        f"{target} recorded zero calls on {workload.name}"
        for target, calls in rep["target_calls"].items()
        if calls == 0 and target not in workload.unused_targets
    ]


def config_values(workload: Workload) -> dict:
    return dict(line.split(" = ", 1) for line in workload.body.splitlines())


def baseline_rows(workload: Workload, m: dict) -> list[tuple]:
    """(ROADMAP baseline row, its value range, measured value, unit, note) for
    the rows this workload corresponds to, normalized where sizes differ."""
    cfg = config_values(workload)
    N = workload.N
    if workload.name == "lasso-small":
        return [("sg loop, p=20, batch 10, l1", (39, 39), m["solvers.sg.s"] / (N + 1) * 1e6,
                 "us/iter", "solver call incl. tracing")]
    if workload.name == "tree-large":
        K, p = int(cfg["K"]), 2 ** int(cfg["n"])
        builds = m["harness.build_problem.calls"]
        return [
            ("_prox_laminar, n=9, per call", (4100, 4100), m["regularizers.prox.us_per_call"],
             "us", "prox entry point"),
            ("build_hierarchical(9), dense laminarity check", (0.46, 0.46),
             m["regularizers.build_structure.s"] / builds, "s", "per build"),
            ("fig2_right sg solver only (cP): 10.7 s / 2001 iters", (5350, 5350),
             m["solvers.sg.s"] / (N + 1) * 1e6, "us/iter", "not under cProfile"),
            ("fig2_right data generation (cP): ~3 s / 51.2M normals", (58.6, 58.6),
             m["problems.gen_dataset.s"] / builds / (K * p + K) * 1e9, "ns/normal",
             "not under cProfile"),
            ("fig2_right lipschitz_linear (cP): 0.6-1.7 s at K=1e5", (0.6e-5, 1.7e-5),
             m["problems.lipschitz.s"] / builds / K, "s/row", "scaled by K"),
            ("fig2_right tracing (cP): 23 objectives in 0.55 s at K=1e5", (0.239, 0.239),
             m["problems.objective.s"] / m["problems.objective.calls"] / K * 1e6, "us/row",
             "scaled by K"),
        ]
    return [("overlapping prox, p=64, 40 random groups of 8: block ascent", (58000, 107000),
             m["regularizers.prox.us_per_call"], "us",
             "the ROADMAP timed the prox on other inputs")]


def print_baseline(workload: Workload, m: dict) -> None:
    print("ROADMAP baseline cross-check, measured at the reference host speed "
          "(agrees = within a factor 1.5 of the ROADMAP range):")
    for label, (lo, hi), value, unit, note in baseline_rows(workload, m):
        verdict = "agrees" if lo / 1.5 <= value <= hi * 1.5 else "DISAGREES"
        rng = f"{lo:.4g}" if lo == hi else f"{lo:.4g}-{hi:.4g}"
        print(f"  {label}: ROADMAP {rng} {unit}, measured {value:.4g} {unit} "
              f"[{verdict}] ({note})")


def describe(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    return (f"  {name:42s} {med:14.6g} {unit:8s} median of {len(values)} "
            f"(min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None, workloads=WORKLOADS, references: Path = REFERENCES,
         work_root: Path = WORK_ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {PACKAGE}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    inst = instance_seed(args.seed)
    refs = json.loads(references.read_text(encoding="utf-8"))["workloads"][workload.name][str(inst)]

    work = work_root / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    config = write_inputs(workload, inst, work)

    modes = (False, True) if args.trace else (False,)
    reps = {False: [], True: []}
    failures: list[str] = []
    attempted = failed = 0
    first_rows: dict = {}
    started = time.monotonic()
    cycle = 0.0
    while not failures:
        cycle_start = time.monotonic()
        for traced in modes:
            timeout = max(5.0, TIME_LIMIT_S - (time.monotonic() - started))
            rep_dir = work / f"rep{attempted // len(SOLVERS)}"
            rep = run_repetition(config, rep_dir, traced, timeout)
            attempted += len(SOLVERS)
            if "error" in rep:
                failed += len(SOLVERS)
                failures.append(f"repetition failed: {rep['error']}")
            else:
                bad = gate_jobs(read_jobs(rep_dir / "out"), refs, first_rows)
                failed += len(bad)
                failures += bad
                if traced:
                    failures += missing_calls(workload, rep)
                reps[traced].append(rep)
            shutil.rmtree(rep_dir)
        cycle = max(cycle, time.monotonic() - cycle_start)
        elapsed = time.monotonic() - started
        if elapsed + cycle > TIME_LIMIT_S:
            break
        if elapsed >= args.seconds and len(reps[False]) >= MIN_REPS:
            break
    shutil.rmtree(work)

    machine = (reps[False] or reps[True] or [{}])[0].get("machine", {})
    print(f"perfbench {workload.name}: seed {args.seed} (instance seed {inst}), "
          f"trace {args.trace}, {len(reps[False])} untraced + {len(reps[True])} traced "
          f"repetitions in {time.monotonic() - started:.1f} s")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))

    metrics: dict = {}
    samples: dict = {}
    if reps[False]:
        samples = end_to_end(reps[False], workload.N)
        if args.trace and reps[True]:
            layers = [layer(rep, workload.N) for rep in reps[True]]
            samples = {name: [m[name] for m in layers] for name in PER_LAYER if name != "trace_overhead"}
            samples["trace_overhead"] = [
                statistics.median(r["run_s"] for r in reps[True])
                / statistics.median(r["run_s"] for r in reps[False])
            ]
        for name, unit in (PER_LAYER if args.trace else END_TO_END).items():
            if name in samples:
                print(describe(name, samples[name], unit))
                metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        kernel_ms = statistics.median(r["kernel_s"] for r in reps[False]) * 1e3
        wall_s = statistics.median(r["wall_run_s"] for r in reps[False])
        print(f"  times are at the reference host speed: the calibration kernel took "
              f"{kernel_ms:.4g} ms here against {REFERENCE_KERNEL_S * 1e3:.4g} ms; "
              f"median wall time of an untraced run {wall_s:.6g} s")
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} {'ratio':8s} "
          f"{failed} of {attempted} (solver, seed) jobs")
    if args.trace and len(metrics) == len(PER_LAYER):
        print_baseline(workload, {k: v["value"] for k, v in metrics.items()})
    for message in failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    correct = not failures
    results_dir = work_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{work.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "instance_seed": inst,
        "trace": args.trace, "seconds": args.seconds, "machine": machine,
        "child_env": CHILD_ENV, "rtol": RTOL, "correct": correct,
        "attempted": attempted, "failed": failed, "failures": failures,
        "samples": samples, "metrics": metrics,
        "wall_run_s": [r["wall_run_s"] for r in reps[False] + reps[True]],
        "kernel_s": [r["kernel_s"] for r in reps[False] + reps[True]],
        "spans": [rep["spans"] for rep in reps[True]],
    }, indent=1), encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
