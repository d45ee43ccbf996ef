"""Command-line experiment harness.

Subcommands: ``run <config>`` executes solver jobs and writes traces plus a
summary, ``compare <dir>`` runs sibling configs as one run on a shared
instance and merges the traces it returns, ``verify-bounds <config>`` checks
the convergence bounds on a closed-form instance, ``gen-data <config>`` writes
the dataset a ``run`` of the same problem, K, p and seed uses.
"""

from __future__ import annotations

import argparse
import sys
from itertools import product
from pathlib import Path

from .config import (
    ConfigError,
    parse_bounds_config,
    parse_gendata_config,
    parse_run_config,
)
from .core import ConvergenceError, DivergenceError
from .harness import (execute_run, merge_compare, seed_dataset, verify_bounds, write_csv,
                      write_dataset_csv)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(str(path), "config file not found")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # read_text decodes the whole file at once
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(str(path), f"line {line}: not UTF-8 ({exc.reason})") from None


def _default_out(config_path: str) -> Path:
    p = Path(config_path)
    return p.parent / f"{p.stem}_out"


def cmd_run(args) -> int:
    cfg = parse_run_config(_read(args.config))
    out_dir = Path(args.out) if args.out else _default_out(args.config)
    [(summaries, _)] = execute_run({Path(args.config).name: (cfg, str(out_dir))})
    for s in summaries:
        print(f"{s['trace_file']}: final objective {s['final_objective']:.17g}")
    print(f"wrote {out_dir / 'summary.json'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ConfigError(str(directory), "not a directory")
    config_paths = sorted(directory.glob("*.cfg"))
    if len(config_paths) < 2:
        raise ConfigError(str(directory), "compare needs at least 2 run configs")

    cfgs = [parse_run_config(_read(path)) for path in config_paths]
    runs = {path.name: (cfg, str(_default_out(path))) for path, cfg in zip(config_paths, cfgs)}
    job_traces, finals = {}, {}
    for path, cfg, (summaries, traces) in zip(config_paths, cfgs, execute_run(runs)):
        # execute_run returns each config's jobs solver-major.
        for (solver, seed), s, trace in zip(product(cfg.solvers, cfg.seeds), summaries, traces):
            name = f"{path.stem}_{solver}_{seed}"
            job_traces[name], finals[name] = trace, s["final_objective"]

    merged = directory / "compare.csv"
    write_csv(merged, *merge_compare(job_traces))
    print(f"wrote {merged}")
    print(f"{'job':40s} final objective")
    for name, value in finals.items():
        print(f"{name:40s} {value:.17g}")
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    cfg = parse_bounds_config(_read(args.config))
    report = verify_bounds(cfg)
    print(
        f"verify-bounds: problem={cfg.problem} solver={cfg.solver} R={cfg.R} "
        f"N={cfg.N} sigma={cfg.sigma:g} D={report.D:.17g} L={report.L:.17g}"
    )
    print(f"mean_final_gap={report.mean_gap:.17g}")
    print(f"bound={report.bound:.17g}")
    if cfg.R == 1:
        print("note: R=1 is a high-variance check")
    print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_ERROR


def cmd_gen_data(args) -> int:
    cfg = parse_gendata_config(_read(args.config))
    out_dir = Path(args.out) if args.out else _default_out(args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "dataset.csv"
    dataset = seed_dataset(cfg.problem, cfg.K, cfg.p, cfg.seed)
    write_dataset_csv(out_path, dataset)
    print(f"wrote {out_path} ({dataset.K} rows, p={dataset.p})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="composite-sgd",
        description="Stochastic proximal solver benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config, write traces and summary")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run all configs in a directory and merge traces")
    p_cmp.add_argument("directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_vb = sub.add_parser("verify-bounds", help="check convergence bounds on a closed-form instance")
    p_vb.add_argument("config")
    p_vb.set_defaults(func=cmd_verify_bounds)

    p_gd = sub.add_parser("gen-data", help="write a dataset CSV")
    p_gd.add_argument("config")
    p_gd.add_argument("--out", default=None, help="output directory")
    p_gd.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
