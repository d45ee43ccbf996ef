"""Experiment harness: executes run configurations, writes convergence-trace
CSVs and summary JSON, merges runs for comparison, checks the convergence
bounds on instances with closed-form optima, and draws and writes a seed's
dataset. Every CSV a command writes goes through ``write_csv``.

A seed's ``Instance`` (objective, penalty, ``L``, oracle maker and any known
optimum) is built once per unit of work and shared by every config and solver
in it; ``run`` and ``verify-bounds`` make finite-data instances with one
builder, ``finite_instance``, and run them through one dispatch, ``solve``;
``run`` and ``gen-data`` draw a seed's dataset with ``seed_dataset``."""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, List

import numpy as np

from . import problems as pb
from . import regularizers as rg
from . import solvers as sv
from .config import BoundsConfig, ConfigError, RunConfig, check_memory
from .core import ParameterError, RngStream, TraceRecord
from .smoothing import smoothed

THREADS_ENV = "COMPOSITE_SGD_THREADS"

# Substream ids hung off each seed: the dataset, the solver's sample sequence,
# and the acsa pilot draws. Every solver sees the same dataset and the same
# sample stream for a given seed.
STREAM_DATA = 1
STREAM_SOLVER = 2
STREAM_PILOT = 3


def thread_cap() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            if int(env) >= 1:
                return int(env)
        except ValueError:
            pass
        raise ConfigError(THREADS_ENV, f"expected an integer >= 1, got {env!r}")
    return os.cpu_count() or 1


@dataclass
class Instance:
    """One seed's problem: the smooth objective, the penalty, ``L``,
    ``oracle(batch_size)``, the gradient oracle a config makes of it (exact
    for ``batch_size`` None), and the optimum ``x_star`` where it is known."""
    smooth_objective: Callable
    reg: rg.Regularizer
    L: float
    oracle: Callable
    x_star: np.ndarray | None = None

    def phi(self, x) -> float:
        """The composite objective: smooth part plus penalty."""
        return self.smooth_objective(x) + rg.evaluate(self.reg, x)


def seed_dataset(problem: str, K: int, p: int, seed: int) -> pb.Dataset:
    """The finite dataset of ``problem`` (linear-discrete or logistic) for
    ``seed``, drawn from the seed's data substream."""
    rng = RngStream(seed).split(STREAM_DATA)
    if problem == "linear-discrete":
        return pb.gen_linear_dataset(K, p, rng)
    return pb.gen_logistic_dataset(K, p, rng)


def finite_instance(dataset: pb.Dataset, reg, L: float, x_star=None) -> Instance:
    """The instance of a finite ``dataset`` under penalty ``reg``: its loss by
    ``dataset.kind``, the full-data gradient for ``batch_size`` None and
    minibatches drawn from the dataset otherwise."""
    loss = pb.exact_objective_linear if dataset.kind == "linear" else pb.exact_objective_logistic
    oracle = lambda batch: (pb.ExactOracle(lambda b: pb.exact_gradient(dataset, b), dataset.p)
                            if batch is None else pb.MinibatchLinearOracle(dataset, batch))
    return Instance(lambda b: loss(dataset, b), reg, L, oracle, x_star)


def build_problem(cfg: RunConfig, seed: int) -> Instance:
    if cfg.regularizer == "l1":
        reg = rg.l1(cfg.lam, cfg.p)
    elif cfg.regularizer == "hierarchical":
        reg = rg.group_norm(cfg.lam, rg.build_hierarchical(cfg.n))
    else:
        if not Path(cfg.structure_file).is_file():
            raise ConfigError("structure_file", f"file not found: {cfg.structure_file}")
        size = Path(cfg.structure_file).stat().st_size
        check_memory("structure_file", f"{size} file bytes at {rg.LOAD_BYTES_PER_FILE_BYTE} "
                     "bytes each to parse", rg.LOAD_BYTES_PER_FILE_BYTE * size)
        try:
            structure = rg.load_group_structure(cfg.structure_file, p=cfg.p)
        except ParameterError as exc:
            raise ConfigError("structure_file", str(exc)) from exc
        except UnicodeDecodeError as exc:  # decoded in blocks, so no cheap line number
            raise ConfigError("structure_file", f"not UTF-8 ({exc.reason})") from None
        reg = rg.group_norm(cfg.lam, structure)

    L = cfg.lipschitz_override
    if cfg.problem != "linear-continuous":
        dataset = seed_dataset(cfg.problem, cfg.K, cfg.p, seed)
        if L is None and cfg.problem == "linear-discrete":
            L = pb.lipschitz_linear(dataset, cfg.lipschitz_convention)
        return finite_instance(dataset, reg, 1.0 if L is None else float(L))
    beta_hat = pb.ground_truth("linear", cfg.p)
    oracle = lambda batch: (pb.ExactOracle(lambda b: pb.continuous_gradient(b, beta_hat), cfg.p)
                            if batch is None else pb.ContinuousLinearOracle(beta_hat, batch))
    return Instance(lambda b: pb.continuous_objective(b, beta_hat), reg,
                    1.0 if L is None else float(L), oracle)


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` (lists of strings) as UTF-8 CSV with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(path, rows: List[TraceRecord]) -> None:
    """Header iteration,elapsed_seconds,objective; 17 significant digits."""
    write_csv(path, ["iteration", "elapsed_seconds", "objective"], (
        [str(r.iteration), f"{r.elapsed_seconds:.17g}", f"{r.objective:.17g}"] for r in rows))


def write_dataset_csv(path, d: pb.Dataset) -> None:
    """Header ``y,x1,...,xp``, then one row per sample; 17 significant digits."""
    write_csv(path, ["y"] + [f"x{j + 1}" for j in range(d.p)],
              ([f"{y:.17g}"] + [f"{v:.17g}" for v in row] for y, row in zip(d.y, d.X)))


def solve(solver: str, inst: Instance, oracle, sreg, gamma_star, N: int, rng: RngStream,
          trace_every: int):
    """Run ``solver`` for N iterations on ``inst`` with ``oracle``: ssg on the
    smoothed penalty ``sreg``, acsa with step scale ``gamma_star``. Returns
    (x, trace)."""
    if solver == "sg":
        return sv.run_sg(oracle, inst.reg, inst.L, N, rng, inst.smooth_objective,
                         trace_every=trace_every)
    if solver == "ssg":
        return sv.run_ssg(oracle, sreg, inst.L, N, rng, inst.smooth_objective,
                          trace_every=trace_every)
    return sv.run_acsa(oracle, inst.reg, inst.L, N, gamma_star, rng,
                       inst.smooth_objective, trace_every=trace_every)


def configure(inst: Instance, cfg: RunConfig, seed: int):
    """Set ``cfg`` up on seed ``seed``'s instance ``inst``. Returns its
    oracle, smoothed penalty, acsa's gamma* and the bounds its summaries
    record; ``theorem_bound_smoothed`` assumes the scheduled mu = ||A|| / (N+2),
    also when ``mu_override`` runs ssg at another mu. Within the numeric
    envelope every step size and bound is finite (README "Numeric envelope")."""
    sreg = smoothed(inst.reg, mu=cfg.mu_override, N=cfg.N)
    oracle = inst.oracle(cfg.batch_size)
    sigma_sq = cfg.acsa_sigma_sq
    if sigma_sq is None:  # the exact oracle's is 0
        sigma_sq = 0.0 if cfg.batch_size is None else sv.pilot_sigma_sq(
            oracle, np.zeros(oracle.dim), RngStream(seed).split(STREAM_PILOT))
    gamma_star = sv.resolve_acsa_params(inst.L, cfg.N, sigma_sq, D=cfg.acsa_d)
    sigma = float(np.sqrt(sigma_sq))
    bounds = {
        "sigma_sq_pilot": float(sigma_sq),
        "theorem_bound_D": cfg.acsa_d,
        "theorem_bound": sv.theorem_bound(cfg.acsa_d, sigma, inst.L, cfg.N),
        "theorem_bound_smoothed": sv.theorem_bound_smoothed(cfg.acsa_d, sigma, inst.L,
                                                            inst.reg.A_norm, inst.reg.M, cfg.N),
    }
    return oracle, sreg, gamma_star, bounds


def run_seed(pairs, seed: int, jobs) -> list[tuple[dict, list]]:
    """Build one seed's instance once, set up on it each config ``pairs[r] =
    (cfg, out_dir)`` that ``jobs`` uses, then run each ``(r, solver)`` of
    ``jobs`` under config ``r``, writing its trace; returns (summary, trace
    rows) per job, in ``jobs`` order."""
    inst = build_problem(pairs[0][0], seed)
    setups = {r: configure(inst, pairs[r][0], seed) for r in dict.fromkeys(r for r, _ in jobs)}
    results = []
    for r, solver in jobs:
        (cfg, out_dir), (oracle, sreg, gamma_star, bounds) = pairs[r], setups[r]
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        solver_rng = RngStream(seed).split(STREAM_SOLVER)
        started = time.perf_counter()
        x, trace = solve(solver, inst, oracle, sreg, gamma_star, cfg.N, solver_rng,
                         cfg.trace_every)
        wall = time.perf_counter() - started

        trace_path = Path(out_dir) / f"trace_{solver}_{seed}.csv"
        write_trace_csv(trace_path, trace)
        results.append(({
            "config": cfg.echo(),
            "final_objective": float(inst.phi(x)),
            "wall_clock_seconds": wall,
            **bounds,
            "trace_file": str(trace_path),
        }, trace))
    return results


def execute_run(runs: dict[str, tuple[RunConfig, str]]) -> list[list[tuple]]:
    """All (solver, seed) jobs of the ``(config, out_dir)`` pairs in ``runs``,
    keyed by config name; the configs must share an instance key. Writes each
    config's ``summary.json`` and returns, per config, its jobs as ``(solver,
    seed, summary, trace rows)`` in run order, identical however they are spread.

    A unit of work is one seed's instance and a contiguous slice of that
    seed's (config, solver) jobs, cut into ``k`` slices: enough to give every
    worker a unit, so a command builds at most one instance per job and runs
    ``min(jobs, workers)`` units at once. With one worker each seed is one unit
    and all units run in this process."""
    (first_name, (first, _)), *rest = runs.items()
    for name, (cfg, _) in rest:
        for label, b in cfg.instance_key().items():
            a = first.instance_key()[label]
            if a != b:
                raise ConfigError(
                    label, f"mismatch between {first_name} ({a!r}) and {name} ({b!r})")
    pairs = list(runs.values())
    seed_jobs = [(r, solver) for r, (cfg, _) in enumerate(pairs) for solver in cfg.solvers]
    workers = min(len(seed_jobs) * len(first.seeds), thread_cap())
    k = min(len(seed_jobs), -(-workers // len(first.seeds)))
    cuts = [len(seed_jobs) * i // k for i in range(k + 1)]
    units = [(pairs, seed, seed_jobs[lo:hi]) for seed in first.seeds
             for lo, hi in zip(cuts, cuts[1:])]
    if workers <= 1:
        results = list(map(run_seed, *zip(*units)))
    else:
        # Imported here, as only a pool needs it: concurrent.futures and its
        # multiprocessing imports cost a single-worker run about 1.6 MB.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_seed, *zip(*units)))
    # Units are seed-major and each seed's slices are in job order.
    done = dict(zip([(seed, *job) for seed in first.seeds for job in seed_jobs],
                    chain.from_iterable(results)))
    outputs = []
    for r, (cfg, out_dir) in enumerate(pairs):
        jobs = [(solver, seed, *done[seed, r, solver])
                for solver in cfg.solvers for seed in cfg.seeds]
        write_summary(Path(out_dir) / "summary.json", [summary for _, _, summary, _ in jobs])
        outputs.append(jobs)
    return outputs


def write_summary(path, summaries: list[dict]) -> None:
    """``{"runs": [...]}``, one entry per job, whatever the number of jobs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"runs": summaries}, fh, indent=2)
        fh.write("\n")


def merge_compare(job_traces: dict[str, list[TraceRecord]]) -> tuple[list[str], list[list[str]]]:
    """Inner-join traces on iteration; one objective column per job plus a gap
    column against the best final objective across jobs (empirical best)."""
    by_iter = {name: {r.iteration: r.objective for r in rows} for name, rows in job_traces.items()}
    common = sorted(set.intersection(*(set(objs) for objs in by_iter.values())))
    best_final = min(rows[-1].objective for rows in job_traces.values())
    header = ["iteration"] + [f"objective_{n}" for n in by_iter]
    header += [f"gap_vs_empirical_best_{n}" for n in by_iter]
    table = []
    for it in common:
        objs = [by_iter[n][it] for n in by_iter]
        table.append([str(it)] + [f"{v:.17g}" for v in objs]
                     + [f"{v - best_final:.17g}" for v in objs])
    return header, table


@dataclass
class BoundsReport:
    mean_gap: float
    bound: float
    D: float
    L: float
    passed: bool


def verify_bounds(cfg: BoundsConfig) -> BoundsReport:
    """Run R seeded repetitions on an instance with a known optimum and compare
    the seed-mean final gap against the matching convergence bound."""
    if cfg.problem == "quadratic":
        target = np.zeros(cfg.p)
        target[0] = cfg.D
        inst = Instance(lambda x: 0.5 * float((x - target) @ (x - target)), rg.l1(0.0, cfg.p),
                        1.0, lambda batch: pb.ExactOracle(lambda x: x - target, cfg.p), target)
        D = cfg.D
    else:
        data_rng = RngStream(cfg.seed).split(STREAM_DATA)
        dataset, x_star = pb.ortho_lasso_instance(cfg.p, cfg.lam, data_rng)
        inst = finite_instance(dataset, rg.l1(cfg.lam, cfg.p),
                               pb.lipschitz_linear(dataset, "scaled"), x_star)
        D = float(np.linalg.norm(x_star))

    sreg = smoothed(inst.reg, N=cfg.N)
    phi_star = inst.phi(inst.x_star)
    # At sigma = 0 the noise oracle returns the exact gradient and draws nothing.
    oracle = pb.GaussianNoiseOracle(inst.oracle(None), cfg.sigma)
    runs = (solve(cfg.solver, inst, oracle, sreg, None, cfg.N,
                  RngStream(cfg.seed + r).split(STREAM_SOLVER), trace_every=0)
            for r in range(cfg.R))
    mean_gap = float(np.mean([inst.phi(x) - phi_star for x, _ in runs]))

    if cfg.solver == "sg":
        bound = sv.theorem_bound(D, cfg.sigma, inst.L, cfg.N)
    else:
        # With no penalty ||A|| = 0 and this is exactly theorem_bound.
        bound = sv.theorem_bound_smoothed(D, cfg.sigma, inst.L, inst.reg.A_norm, inst.reg.M,
                                          cfg.N)
    return BoundsReport(mean_gap=mean_gap, bound=float(bound), D=D, L=inst.L,
                        passed=mean_gap <= bound)
