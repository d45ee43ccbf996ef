import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from composite_sgd import cli, config, harness, solvers
from composite_sgd.cli import main
from composite_sgd.config import (
    BoundsConfig,
    ConfigError,
    GenDataConfig,
    RunConfig,
    parse_bounds_config,
    parse_gendata_config,
    parse_run_config,
    physical_memory,
)
from composite_sgd.core import ENVELOPE, DivergenceError, ParameterError, RngStream
from composite_sgd.problems import (
    ExactOracle,
    continuous_objective,
    ground_truth,
    lipschitz_linear,
    ortho_lasso_instance,
)
from composite_sgd.regularizers import (GroupStructure, build_hierarchical, evaluate, group_norm,
                                       l1, prox)
from composite_sgd.smoothing import smoothed
from composite_sgd.solvers import (
    resolve_acsa_params,
    run_acsa,
    run_sg,
    run_ssg,
    theorem_bound,
    theorem_bound_smoothed,
)

from _reference import read_dataset_csv, read_trace_csv

SMALL_RUN = """
problem = linear-discrete
regularizer = l1
solver = sg
K = 40
p = 4
lambda = 0.1
N = 150
batch_size = 5
seed = 3
trace_every = 25
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def masked_outputs(out_dir):
    """Every file a run wrote to ``out_dir``, as text by name, with the trace
    CSVs' elapsed_seconds column and summary.json's wall_clock_seconds values
    cut out: the parts of a run's outputs that must repeat byte for byte."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            text = "".join(",".join(line.split(",")[::2]) + "\n" for line in text.splitlines())
        else:
            text = re.sub(r'"wall_clock_seconds": [^,\n]+', '"wall_clock_seconds": _', text)
        files[path.name] = text
    return files


def counting_builds(monkeypatch, log):
    """Patch harness.build_problem to append each seed it builds to ``log``, a
    file, so that builds in forked pool workers are counted too."""
    real_build = harness.build_problem

    def counted_build(cfg, seed):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{seed}\n")
        return real_build(cfg, seed)

    monkeypatch.setattr(harness, "build_problem", counted_build)


class TestConfigParsing:
    def test_small_run_parses(self):
        cfg = parse_run_config(SMALL_RUN)
        assert cfg.solvers == ("sg",) and cfg.seeds == (3,)
        assert cfg.lipschitz_convention == "scaled"

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError) as err:
            parse_run_config(SMALL_RUN + "\nstep_size = 2\n")
        assert "step_size" in str(err.value)

    def test_missing_field_names_it(self):
        with pytest.raises(ConfigError) as err:
            parse_run_config("problem = logistic\n")
        assert "required" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config(SMALL_RUN + "\nK = 50\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_run_config("# header\n\n" + SMALL_RUN + "# tail\n")
        assert cfg.K == 40

    def test_hierarchical_requires_power_of_two(self):
        # A tree's size is n alone: p = 2^n is derived, so a p is refused
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = hierarchical")
        text = text.replace("p = 4", "p = 12")
        with pytest.raises(ConfigError) as err:
            parse_run_config(text)
        assert err.value.key == "p" and "p = 2^n" in err.value.message
        assert "from n" in err.value.message

    def test_hierarchical_n_derives_p(self):
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = hierarchical")
        text = text.replace("p = 4", "n = 3")
        cfg = parse_run_config(text)
        assert cfg.p == 8 and cfg.n == 3

    def test_continuous_forbids_K(self):
        text = SMALL_RUN.replace("linear-discrete", "linear-continuous")
        with pytest.raises(ConfigError) as err:
            parse_run_config(text)
        assert "K" in str(err.value)

    def test_odd_p_rejected_for_linear(self):
        with pytest.raises(ConfigError):
            parse_run_config(SMALL_RUN.replace("p = 4", "p = 5"))

    def test_solver_and_seed_lists(self):
        text = SMALL_RUN.replace("solver = sg", "solver = sg,ssg,acsa")
        text = text.replace("seed = 3", "seed = 3,4")
        cfg = parse_run_config(text)
        assert cfg.solvers == ("sg", "ssg", "acsa")
        assert cfg.seeds == (3, 4)

    def test_full_batch_size(self):
        cfg = parse_run_config(SMALL_RUN.replace("batch_size = 5", "batch_size = full"))
        assert cfg.batch_size is None

    def test_bounds_config_rejects_unknown_problem(self):
        with pytest.raises(ConfigError) as err:
            parse_bounds_config("problem = lasso\nsolver = sg\np = 4\nN = 10\n")
        assert "closed-form" in str(err.value)

    def test_custom_regularizer_requires_structure_file(self):
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = custom")
        with pytest.raises(ConfigError) as err:
            parse_run_config(text)
        assert "structure_file" in str(err.value)

    def test_structure_file_only_for_custom(self):
        with pytest.raises(ConfigError):
            parse_run_config(SMALL_RUN + "\nstructure_file = g.txt\n")

    @pytest.mark.parametrize("cls, parse, count", [
        (RunConfig, parse_run_config, 17),
        (BoundsConfig, parse_bounds_config, 9),
        (GenDataConfig, parse_gendata_config, 4),
    ], ids=["run", "verify-bounds", "gen-data"])
    def test_accepted_keys_are_the_dataclass_fields(self, cls, parse, count):
        # every field is accepted by its config key, and nothing else: not the
        # keys of the other commands, nor a field name that differs from its key
        expected = {config._KEY_OF_FIELD.get(f.name, f.name) for f in fields(cls)}
        assert len(expected) == count
        candidates = {config._KEY_OF_FIELD.get(f.name, f.name)
                      for kind in (RunConfig, BoundsConfig, GenDataConfig)
                      for f in fields(kind)}
        candidates |= set(config._KEY_OF_FIELD) | {"step_size"}
        accepted = set()
        for key in candidates:
            with pytest.raises(ConfigError) as err:
                parse(f"{key} = ?\n")
            if (err.value.key, err.value.message) != (key, "unknown key"):
                accepted.add(key)
        assert accepted == expected

    @pytest.mark.parametrize("parse, text", [
        (parse_run_config, "problem = logistic\nregularizer = l1\nsolver = sg\nK = 10\n"
                           "p = 3\nlambda = 0.1\nN = 5\nbatch_size = 2\nseed = 1\n"),
        (parse_bounds_config, "problem = quadratic\nsolver = sg\np = 4\nN = 10\n"),
    ], ids=["run", "verify-bounds"])
    def test_required_keys_alone_give_every_field_default(self, parse, text):
        cfg = parse(text)
        defaulted = [f for f in fields(cfg) if f.default is not MISSING]
        assert defaulted
        for f in defaulted:
            assert getattr(cfg, f.name) == f.default, f.name

    def test_ortho_lasso_preflight_names_p(self, monkeypatch):
        # p=100: the design and its Gram are 160000 B, but the QR that makes the
        # design holds about five p x p arrays at once: 48 B per entry, 480000 B
        monkeypatch.setattr(config, "physical_memory", lambda: 300_000)
        text = "problem = ortho-lasso\nsolver = sg\np = 100\nN = 10\nlambda = 0.1\n"
        with pytest.raises(ConfigError) as err:
            parse_bounds_config(text)
        assert err.value.key == "p"
        assert err.value.message.startswith("100^2 design entries at 48 bytes each to build")
        assert parse_bounds_config(text.replace("p = 100", "p = 78")).p == 78
        assert parse_bounds_config(text.replace("ortho-lasso", "quadratic").replace(
            "lambda = 0.1\n", "")).p == 100


class TestRunCommand:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        header, rows = read_trace_csv(out / "trace_sg_3.csv")
        assert header == ["iteration", "elapsed_seconds", "objective"]
        assert rows[0][0] == "0"
        assert rows[-1][0] == "151"
        (summary,) = json.loads((out / "summary.json").read_text())["runs"]
        assert summary["config"]["K"] == 40
        assert summary["trace_file"].endswith("trace_sg_3.csv")

    def test_trace_has_lf_endings_and_17_digits(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        main(["run", str(cfg_path), "--out", str(out)])
        blob = (out / "trace_sg_3.csv").read_bytes()
        assert b"\r" not in blob
        value = blob.decode().splitlines()[1].split(",")[2]
        assert float(value) == float(f"{float(value):.17g}")

    def test_replay_identical_except_elapsed(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_RUN.replace("solver = sg", "solver = sg,ssg"))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", str(cfg_path), "--out", str(out2)]) == 0
        for solver in ("sg", "ssg"):
            h1, r1 = read_trace_csv(out1 / f"trace_{solver}_3.csv")
            h2, r2 = read_trace_csv(out2 / f"trace_{solver}_3.csv")
            assert h1 == h2
            iters1 = [row[0] for row in r1]
            objs1 = [row[2] for row in r1]
            assert iters1 == [row[0] for row in r2]
            assert objs1 == [row[2] for row in r2]  # bitwise equal text
            elapsed = [float(row[1]) for row in r1]
            assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))

    def test_summary_bounds_recomputable(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        main(["run", str(cfg_path), "--out", str(out)])
        (summary,) = json.loads((out / "summary.json").read_text())["runs"]
        cfg = parse_run_config(SMALL_RUN)
        sigma = float(np.sqrt(summary["sigma_sq_pilot"]))
        from composite_sgd.harness import build_problem
        from composite_sgd.smoothing import smoothed

        setup = build_problem(cfg, 3)
        sreg = smoothed(setup.reg, N=cfg.N)
        # both bounds are evaluated at the configured D, which the summary names
        D = summary["theorem_bound_D"]
        assert D == cfg.acsa_d
        assert summary["theorem_bound"] == theorem_bound(D, sigma, setup.L, cfg.N)
        assert summary["theorem_bound_smoothed"] == theorem_bound_smoothed(
            D, sigma, setup.L, sreg.base.A_norm, sreg.base.M, cfg.N
        )
        # mu_override moves ssg's mu, not the recorded smoothed bound, which
        # holds only under the scheduled mu = ||A|| / (N+2)
        scheduled = summary["theorem_bound_smoothed"]
        text = SMALL_RUN.replace("solver = sg", "solver = ssg") + "mu_override = 0.05\n"
        main(["run", str(write_cfg(tmp_path, text)), "--out", str(out)])
        (summary,) = json.loads((out / "summary.json").read_text())["runs"]
        assert summary["config"]["mu_override"] == 0.05
        assert summary["theorem_bound_smoothed"] == scheduled
        text = SMALL_RUN + "acsa_d = 2.5\n"
        main(["run", str(write_cfg(tmp_path, text)), "--out", str(out)])
        (summary,) = json.loads((out / "summary.json").read_text())["runs"]
        assert summary["theorem_bound_D"] == 2.5
        assert summary["theorem_bound"] == theorem_bound(2.5, sigma, setup.L, cfg.N)

    def test_summary_config_echoes_every_key_in_order(self, tmp_path):
        (tmp_path / "groups.txt").write_text("1: 1,2\n1.5: 2,3,4\n")
        structure = str(tmp_path / "groups.txt")
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = custom").replace(
            "solver = sg", "solver = ssg,sg").replace("seed = 3", "seed = 3,4")
        text += (f"structure_file = {structure}\nlipschitz_convention = paper\n"
                 "mu_override = 0.5\nacsa_sigma_sq = 0.25\nacsa_d = 2\n"
                 "lipschitz_override = 400\n")
        out = tmp_path / "out"
        assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
        expected = {
            "problem": "linear-discrete", "regularizer": "custom", "solver": "ssg,sg",
            "K": 40, "p": 4, "n": None, "lambda": 0.1, "N": 150, "batch_size": 5,
            "seed": "3,4", "trace_every": 25, "lipschitz_convention": "paper",
            "mu_override": 0.5, "acsa_sigma_sq": 0.25, "acsa_d": 2.0,
            "lipschitz_override": 400.0, "structure_file": structure,
        }
        for run in json.loads((out / "summary.json").read_text())["runs"]:
            assert list(run["config"].items()) == list(expected.items())

    def test_full_batch_trace_monotone_after_warmup(self, tmp_path):
        text = SMALL_RUN.replace("batch_size = 5", "batch_size = full")
        text = text.replace("lambda = 0.1", "lambda = 0.0")
        text = text.replace("trace_every = 25", "trace_every = 1")
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        main(["run", str(cfg_path), "--out", str(out)])
        _, rows = read_trace_csv(out / "trace_sg_3.csv")
        values = [float(r[2]) for r in rows if int(r[0]) >= 3]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_multi_seed_fanout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPOSITE_SGD_THREADS", "2")
        text = SMALL_RUN.replace("seed = 3", "seed = 3,4,5")
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        for seed in (3, 4, 5):
            assert (out / f"trace_sg_{seed}.csv").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["runs"]) == 3

    def test_fanout_matches_serial_execution(self, tmp_path, monkeypatch):
        text = SMALL_RUN.replace("seed = 3", "seed = 3,4")
        cfg_path = write_cfg(tmp_path, text)
        out_par, out_ser = tmp_path / "par", tmp_path / "ser"
        monkeypatch.setenv("COMPOSITE_SGD_THREADS", "2")
        main(["run", str(cfg_path), "--out", str(out_par)])
        monkeypatch.setenv("COMPOSITE_SGD_THREADS", "1")
        main(["run", str(cfg_path), "--out", str(out_ser)])
        for seed in (3, 4):
            _, rp = read_trace_csv(out_par / f"trace_sg_{seed}.csv")
            _, rs = read_trace_csv(out_ser / f"trace_sg_{seed}.csv")
            assert [r[2] for r in rp] == [r[2] for r in rs]

    @pytest.mark.parametrize("seeds", [(7,), (7, 8)])
    def test_outputs_identical_serial_and_pooled(self, tmp_path, monkeypatch, seeds):
        # A recipe-shaped run: every solver on one hierarchical instance per seed.
        text = f"""
problem = linear-discrete
regularizer = hierarchical
solver = sg,ssg,acsa
K = 60
n = 3
lambda = 0.1
N = 80
batch_size = 5
seed = {",".join(str(s) for s in seeds)}
trace_every = 20
"""
        cfg_path = write_cfg(tmp_path, text)
        built_log = tmp_path / "built.txt"
        counting_builds(monkeypatch, built_log)
        inherits_patch = multiprocessing.get_start_method() == "fork"
        outputs = {}
        for threads in (1, 2, 3):
            monkeypatch.setenv("COMPOSITE_SGD_THREADS", str(threads))
            built_log.write_text("")
            out = tmp_path / f"out{threads}"
            assert main(["run", str(cfg_path), "--out", str(out)]) == 0

            built = sorted(int(s) for s in built_log.read_text().split())
            if threads == 1:
                assert built == sorted(seeds)
            elif inherits_patch:
                # each seed's 3 solvers cut into min(3, ceil(threads / seeds)) units
                units = min(3, -(-threads // len(seeds)))
                assert built == sorted(seeds * units)
                assert len(built) >= threads

            traces = {}
            for path in sorted(out.glob("trace_*.csv")):
                header, rows = read_trace_csv(path)
                traces[path.name] = [header] + [[r[0]] + r[2:] for r in rows]
            runs = json.loads((out / "summary.json").read_text())["runs"]
            for run in runs:
                del run["wall_clock_seconds"]
                run["trace_file"] = Path(run["trace_file"]).name
            outputs[threads] = (traces, runs)

        traces, runs = outputs[1]
        assert len(traces) == 3 * len(seeds)
        assert [r["trace_file"] for r in runs] == [
            f"trace_{solver}_{seed}.csv" for solver in ("sg", "ssg", "acsa") for seed in seeds
        ]
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    @pytest.mark.parametrize("regularizer, dim, reg", [
        ("l1", "p = 8", l1(0.1, 8)),
        ("hierarchical", "n = 3", group_norm(0.1, build_hierarchical(3))),
    ])
    def test_continuous_full_batch_ends_near_the_optimum(self, tmp_path, regularizer, dim, reg):
        # The continuous loss is (1/2)(||x - beta_hat||^2 + 1), so the composite
        # optimum is the prox of beta_hat, exact for l1 and for a tree.
        text = (f"problem = linear-continuous\nregularizer = {regularizer}\n"
                f"solver = sg,ssg,acsa\n{dim}\nlambda = 0.1\nN = 2000\n"
                "batch_size = full\nseed = 1\n")
        out = tmp_path / "out"
        assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
        beta_hat = ground_truth("linear", 8)
        x_star = prox(reg, np.zeros(8), beta_hat, 1.0)
        phi_star = continuous_objective(x_star, beta_hat) + evaluate(reg, x_star)
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert [Path(run["trace_file"]).name for run in runs] == [
            "trace_sg_1.csv", "trace_ssg_1.csv", "trace_acsa_1.csv"]
        for run in runs:
            assert phi_star - 1e-12 <= run["final_objective"] <= phi_star + 5e-3

    def test_continuous_minibatch_replay_identical_except_elapsed(self, tmp_path):
        text = SMALL_RUN.replace("linear-discrete", "linear-continuous").replace("K = 40\n", "")
        cfg_path = write_cfg(tmp_path, text.replace("solver = sg", "solver = sg,ssg,acsa"))
        out = tmp_path / "out"
        replays = []
        for _ in range(2):
            assert main(["run", str(cfg_path), "--out", str(out)]) == 0
            replays.append(masked_outputs(out))
        assert sorted(replays[0]) == [
            "summary.json", "trace_acsa_3.csv", "trace_sg_3.csv", "trace_ssg_3.csv"]
        assert replays[1] == replays[0]

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "problem = linear-discrete\n")
        assert main(["run", str(cfg_path)]) == 2
        assert "required" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "/nonexistent/x.cfg"]) == 2

    def test_custom_structure_run(self, tmp_path):
        # overlapping groups exercise the iterative prox through the CLI
        (tmp_path / "groups.txt").write_text("1: 1,2\n1.5: 2,3\n1: 4\n")
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = custom")
        text += f"structure_file = {tmp_path / 'groups.txt'}\n"
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "trace_sg_3.csv").is_file()

    def test_prox_budget_exhaustion_exits_1_naming_gap(self, tmp_path, capsys, monkeypatch):
        # an overlapping prox out of dual iterations ends a serial run with exit
        # 1, naming the solver iteration, the dual iterations and the gap
        from composite_sgd import regularizers

        monkeypatch.setattr(regularizers, "DUAL_MAX_ITER", 0)
        monkeypatch.setenv("COMPOSITE_SGD_THREADS", "1")
        (tmp_path / "groups.txt").write_text("1: 1,2\n1.5: 2,3\n1: 4\n")
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = custom")
        text += f"structure_file = {tmp_path / 'groups.txt'}\n"
        cfg_path = write_cfg(tmp_path, text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("solver error: prox failed at iteration 0: ")
        assert "dual gap" in err and "after 0 dual iterations" in err

    def test_hierarchical_ssg_with_mu_override(self, tmp_path):
        text = """
problem = linear-discrete
regularizer = hierarchical
solver = ssg
K = 40
n = 3
lambda = 0.1
N = 120
batch_size = 5
seed = 2
trace_every = 30
mu_override = 0.01
"""
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        (summary,) = json.loads((out / "summary.json").read_text())["runs"]
        assert summary["config"]["mu_override"] == 0.01
        assert np.isfinite(summary["final_objective"])

    def test_non_integer_thread_count_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COMPOSITE_SGD_THREADS", "two")
        cfg_path = write_cfg(tmp_path, SMALL_RUN)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: COMPOSITE_SGD_THREADS:")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_1_exits_2(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("COMPOSITE_SGD_THREADS", threads)
        cfg_path = write_cfg(tmp_path, SMALL_RUN)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: COMPOSITE_SGD_THREADS: expected an integer >= 1, got '{threads}'\n")
        assert not (tmp_path / "out").exists()

    def test_custom_structure_missing_file_exits_2(self, tmp_path, capsys):
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = custom")
        text += "structure_file = /nonexistent/groups.txt\n"
        cfg_path = write_cfg(tmp_path, text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / 'out')]) == 2
        assert "structure_file" in capsys.readouterr().err

    def test_divergence_exits_3_naming_iteration(self, tmp_path, capsys):
        # acsa with sigma^2 pinned to 0 and a tiny Lipschitz override takes huge
        # steps and must trip the overflow guard
        text = """
problem = linear-discrete
regularizer = l1
solver = acsa
K = 20
p = 4
lambda = 0.0
N = 50
batch_size = full
seed = 1
acsa_sigma_sq = 0
lipschitz_override = 1e-9
"""
        cfg_path = write_cfg(tmp_path, text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        assert "iteration" in capsys.readouterr().err

    def test_pooled_divergence_exits_3_naming_iteration(self, tmp_path, capsys, monkeypatch):
        # the worker's DivergenceError must cross the process pool intact
        text = """
problem = linear-discrete
regularizer = l1
solver = sg,acsa
K = 20
p = 4
lambda = 0.0
N = 50
batch_size = full
seed = 1
acsa_sigma_sq = 0
lipschitz_override = 1e-9
"""
        monkeypatch.setenv("COMPOSITE_SGD_THREADS", "2")
        cfg_path = write_cfg(tmp_path, text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("diverged: ") and "at iteration" in err

    @pytest.mark.skipif(physical_memory() is None,
                        reason="the operating system does not report physical memory")
    @pytest.mark.parametrize("command, text", [
        ("run", SMALL_RUN.replace("K = 40", "K = 1000000000").replace("p = 4", "p = 10000")),
        ("gen-data", "problem = logistic\nK = 1000000000\np = 10000\nseed = 0\n"),
    ], ids=["run", "gen-data"])
    def test_dataset_beyond_physical_memory_exits_2_naming_K(self, tmp_path, capsys,
                                                             command, text):
        # an 80 TB design is refused while parsing, before anything is allocated
        out = tmp_path / "out"
        assert main([command, str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: K: K=1000000000 rows of p=10000 need ")
        assert "physical memory" in err and not out.exists()

    @pytest.mark.parametrize("command, text, line", [
        ("run", SMALL_RUN.replace("regularizer = l1", "regularizer = hierarchical")
                         .replace("p = 4", "n = 2000"),
         "n: must be <= 23, got 2000"),
        ("gen-data", f"problem = logistic\nK = 10\np = {10**400}\nseed = 0\n",
         f"K: K=10 rows of p={10**400} need 7.45e+392 GiB, more than the 8 GiB "
         "of physical memory"),
        ("run", SMALL_RUN.replace("linear-discrete", "linear-continuous")
                         .replace("K = 40\n", "").replace("p = 4", f"p = {10**400}"),
         f"p: p={10**400} coordinates in draws of 5 need 3.73e+392 GiB, more than "
         "the 8 GiB of physical memory"),
        ("verify-bounds", f"problem = quadratic\nsolver = sg\np = {10**400}\nN = 10\n",
         f"p: p={10**400} coordinates need 7.45e+391 GiB, more than the 8 GiB of "
         "physical memory"),
    ], ids=["run", "gen-data", "run-continuous", "verify-bounds"])
    def test_dimension_past_float_range_exits_2_with_one_line(self, tmp_path, capsys,
                                                              monkeypatch, command, text,
                                                              line):
        # p = 2^2000 would be formed before any bound, and 8 * K * p bytes past
        # 1e308 has no float to print in GiB; a continuous p has no K, so its
        # draws are checked, and the quadratic bounds instance holds p-vectors
        monkeypatch.setattr(config, "physical_memory", lambda: 2**33)
        out = tmp_path / "out"
        args = [command, str(write_cfg(tmp_path, text))]
        if command != "verify-bounds":  # the one command that writes no files
            args += ["--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not out.exists()

    def test_oversized_tree_exits_2_naming_n(self, tmp_path, capsys, monkeypatch):
        # n = 24, one past the deepest tree: refused while parsing, before any
        # instance is built, also where the operating system reports no memory
        built = []
        monkeypatch.setattr(harness, "build_problem", lambda *args: built.append(args))
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = hierarchical")
        text = text.replace("p = 4", "n = 24").replace("linear-discrete", "linear-continuous")
        out = tmp_path / "out"
        argv = ["run", str(write_cfg(tmp_path, text.replace("K = 40\n", ""))), "--out", str(out)]
        for memory in [2**33, None]:
            monkeypatch.setattr(config, "physical_memory", lambda: memory)
            assert main(argv) == 2
            assert capsys.readouterr().err == "config error: n: must be <= 23, got 24\n"
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("size", ["p = 8", "n = 3\np = 8"], ids=["p", "n-and-p"])
    def test_tree_given_p_exits_2_naming_p(self, tmp_path, capsys, size):
        # p = 2^n is derived from n, so a tree takes no p, even a matching one
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = hierarchical")
        out = tmp_path / "out"
        argv = ["run", str(write_cfg(tmp_path, text.replace("p = 4", size))), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("config error: p: derived from n as p = 2^n for "
                                           "the hierarchical regularizer\n")
        assert not out.exists()

    def test_tree_past_physical_memory_is_refused_before_its_draws(self, monkeypatch):
        # n = 22: 9.6e7 tree indices need 8.62 GiB, and one draw of 1e5 rows
        # of p = 2^22 needs 3125 GiB; only parsing runs, so nothing is allocated
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = hierarchical")
        text = text.replace("p = 4", "n = 22").replace("linear-discrete", "linear-continuous")
        text = text.replace("K = 40\n", "").replace("batch_size = 5", "batch_size = 100000")
        for memory, key in [(2**33, "n"), (2**34, "p")]:
            monkeypatch.setattr(config, "physical_memory", lambda: memory)
            with pytest.raises(ConfigError) as err:
                parse_run_config(text)
            assert err.value.key == key
        assert parse_run_config(text.replace("batch_size = 100000", "batch_size = 5")).n == 22

    def test_footprint_counts_the_kept_gram(self, monkeypatch):
        # K=100, p=50: 40000 B of design, plus 20000 B of Gram for a linear dataset
        monkeypatch.setattr(config, "physical_memory", lambda: 50_000)
        text = SMALL_RUN.replace("K = 40", "K = 100").replace("p = 4", "p = 50")
        with pytest.raises(ConfigError) as err:
            parse_run_config(text)
        assert err.value.key == "K"
        assert parse_run_config(text.replace("linear-discrete", "logistic")).K == 100

    def test_memory_error_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 7.11 PiB for an array")

        monkeypatch.setattr(cli, "execute_run", exhausted)
        assert main(["run", str(write_cfg(tmp_path, SMALL_RUN))]) == 1
        assert capsys.readouterr().err == "out of memory: Unable to allocate 7.11 PiB for an array\n"

    def test_structure_file_error_exits_2(self, tmp_path, capsys):
        (tmp_path / "groups.txt").write_text("nan: 2,3\n")
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = custom")
        text += f"structure_file = {tmp_path / 'groups.txt'}\n"
        cfg_path = write_cfg(tmp_path, text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: structure_file: line 1:")

    def test_structure_file_not_utf8_exits_2(self, tmp_path, capsys):
        (tmp_path / "groups.txt").write_bytes(b"\xff\xfe: 3\n")
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = custom")
        text += f"structure_file = {tmp_path / 'groups.txt'}\n"
        assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: structure_file: not UTF-8 (invalid start byte)\n")

    def test_structure_index_past_int64_exits_2_with_one_line(self, tmp_path, capsys):
        (tmp_path / "groups.txt").write_text("1: 1,99999999999999999999999\n")
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = custom")
        text += f"structure_file = {tmp_path / 'groups.txt'}\n"
        assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: structure_file: line 1: cannot parse '1: 1,99999999999999999999999'\n")

    @pytest.mark.parametrize("lines, fault", [
        ("1: 1,2\n\n1: 3,9\n", "line 3: index 9 is outside [1, 4]"),
        ("1: 1,2\n\n1: 3,2,3\n", "line 3: index 3 is repeated"),
    ], ids=["outside", "repeated"])
    def test_structure_index_fault_exits_2_naming_line_and_index(self, tmp_path, capsys,
                                                                  lines, fault):
        (tmp_path / "groups.txt").write_text(lines)
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = custom")
        text += f"structure_file = {tmp_path / 'groups.txt'}\n"
        assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: structure_file: {fault}\n"

    def test_structure_file_past_physical_memory_exits_2_before_parsing(self, tmp_path, capsys,
                                                                        monkeypatch):
        # 100 one-index lines are 400 bytes, allowed 256 bytes each to parse
        (tmp_path / "groups.txt").write_text("1:1\n" * 100)
        text = SMALL_RUN.replace("regularizer = l1", "regularizer = custom")
        text += f"structure_file = {tmp_path / 'groups.txt'}\n"
        cfg_path = write_cfg(tmp_path, text)
        parsed = []
        load = harness.rg.load_group_structure
        monkeypatch.setattr(harness.rg, "load_group_structure",
                            lambda *args, **kw: parsed.append(args) or load(*args, **kw))
        monkeypatch.setattr(config, "physical_memory", lambda: 400 * 256 - 1)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: structure_file: 400 file bytes at 256 bytes each to parse need "
            "0.0000954 GiB, more than the 0.0000954 GiB of physical memory\n")
        assert not parsed
        monkeypatch.setattr(config, "physical_memory", lambda: 400 * 256)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert len(parsed) == 1

    @pytest.mark.parametrize(
        "exc",
        [
            ConfigError("seed", "must be an integer"),
            DivergenceError("iterate exceeded the guard at iteration 7", iteration=7),
        ],
        ids=["config", "divergence"],
    )
    def test_errors_survive_pickle(self, exc):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


class TestShippedRecipes:
    def test_all_figure_configs_parse(self):
        from pathlib import Path

        recipes = sorted((Path(__file__).parent.parent / "scripts" / "figures").glob("*.cfg"))
        assert len(recipes) == 8
        for recipe in recipes:
            cfg = parse_run_config(recipe.read_text())
            assert cfg.solvers == ("sg", "ssg", "acsa")

    def test_benchmark_recipes_pin_unscaled_eigenvalue_convention(self):
        from pathlib import Path

        figures = Path(__file__).parent.parent / "scripts" / "figures"
        for stem in ("fig1_left", "fig1_right", "fig2_left", "fig2_right"):
            cfg = parse_run_config((figures / f"{stem}.cfg").read_text())
            assert cfg.lipschitz_convention == "paper"


class TestCompareCommand:
    def _write_pair(self, tmp_path, mutate_b=""):
        base = SMALL_RUN.replace("trace_every = 25", "trace_every = 50")
        a = base
        b = base.replace("solver = sg", "solver = ssg") + mutate_b
        (tmp_path / "a.cfg").write_text(a)
        (tmp_path / "b.cfg").write_text(b)

    def test_merges_traces(self, tmp_path, capsys):
        self._write_pair(tmp_path)
        assert main(["compare", str(tmp_path)]) == 0
        header, rows = read_trace_csv(tmp_path / "compare.csv")
        assert header[0] == "iteration"
        assert any(col.startswith("objective_a_sg") for col in header)
        assert any(col.startswith("objective_b_ssg") for col in header)
        assert any(col.startswith("gap_vs_empirical_best_") for col in header)
        out = capsys.readouterr().out
        assert "final objective" in out

    def test_objective_cells_equal_trace_csv_text(self, tmp_path):
        self._write_pair(tmp_path)
        b = (tmp_path / "b.cfg").read_text().replace("trace_every = 50", "trace_every = 30")
        (tmp_path / "b.cfg").write_text(b.replace("seed = 3", "seed = 3,4"))
        a = (tmp_path / "a.cfg").read_text().replace("solver = sg", "solver = sg,acsa")
        (tmp_path / "a.cfg").write_text(a.replace("seed = 3", "seed = 3,4"))
        assert main(["compare", str(tmp_path)]) == 0
        header, rows = read_trace_csv(tmp_path / "compare.csv")
        jobs = [col.removeprefix("objective_") for col in header if col.startswith("objective_")]
        assert jobs == ["a_sg_3", "a_sg_4", "a_acsa_3", "a_acsa_4", "b_ssg_3", "b_ssg_4"]
        for job in jobs:
            stem, solver, seed = job.split("_")
            _, trace = read_trace_csv(tmp_path / f"{stem}_out" / f"trace_{solver}_{seed}.csv")
            objective = {r[0]: r[2] for r in trace}
            column = header.index(f"objective_{job}")
            assert [r[column] for r in rows] == [objective[r[0]] for r in rows]

    def test_single_config_rejected(self, tmp_path):
        (tmp_path / "a.cfg").write_text(SMALL_RUN)
        assert main(["compare", str(tmp_path)]) == 2

    def test_mismatched_K_rejected(self, tmp_path, capsys):
        self._write_pair(tmp_path)
        b = (tmp_path / "b.cfg").read_text().replace("K = 40", "K = 41")
        (tmp_path / "b.cfg").write_text(b)
        assert main(["compare", str(tmp_path)]) == 2
        assert "K" in capsys.readouterr().err

    def test_mismatched_seed_rejected(self, tmp_path):
        self._write_pair(tmp_path)
        b = (tmp_path / "b.cfg").read_text().replace("seed = 3", "seed = 4")
        (tmp_path / "b.cfg").write_text(b)
        assert main(["compare", str(tmp_path)]) == 2

    def test_mismatched_structure_file_rejected(self, tmp_path, capsys):
        (tmp_path / "g1.txt").write_text("1: 1,2\n1: 3,4\n")
        (tmp_path / "g2.txt").write_text("2: 1,2,3\n1: 4\n")
        custom = SMALL_RUN.replace("regularizer = l1", "regularizer = custom")
        (tmp_path / "a.cfg").write_text(custom + f"structure_file = {tmp_path / 'g1.txt'}\n")
        b = custom.replace("solver = sg", "solver = ssg")
        (tmp_path / "b.cfg").write_text(b + f"structure_file = {tmp_path / 'g2.txt'}\n")
        assert main(["compare", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: structure_file: mismatch")

    def test_differing_trace_grids_inner_join(self, tmp_path):
        # solvers may trace on different strides; the merge keeps shared iterations
        self._write_pair(tmp_path)
        b = (tmp_path / "b.cfg").read_text().replace("trace_every = 50", "trace_every = 30")
        (tmp_path / "b.cfg").write_text(b)
        assert main(["compare", str(tmp_path)]) == 0
        _, rows = read_trace_csv(tmp_path / "compare.csv")
        iters = {int(r[0]) for r in rows}
        assert 0 in iters and 151 in iters  # start and final always shared
        assert all(it % 50 == 0 or it % 30 == 0 or it == 151 for it in iters)

    # Two configs on one hierarchical instance per seed; b differs in every
    # per-config part: oracle (batch_size), N, mu_override, acsa_sigma_sq.
    TREE_PAIR = """
problem = linear-discrete
regularizer = hierarchical
solver = sg,acsa
K = 60
n = 3
lambda = 0.1
N = 80
batch_size = 5
seed = 7,8
trace_every = 20
"""

    def _write_tree_pair(self, tmp_path):
        (tmp_path / "a.cfg").write_text(self.TREE_PAIR)
        b = self.TREE_PAIR.replace("solver = sg,acsa", "solver = ssg").replace(
            "batch_size = 5", "batch_size = 10").replace("N = 80", "N = 60")
        (tmp_path / "b.cfg").write_text(b + "mu_override = 0.05\nacsa_sigma_sq = 0.5\n")

    def test_builds_each_seed_instance_once(self, tmp_path, monkeypatch):
        self._write_tree_pair(tmp_path)
        monkeypatch.setenv("COMPOSITE_SGD_THREADS", "1")
        log = tmp_path / "built.log"
        counting_builds(monkeypatch, log)
        log.write_text("")
        assert main(["compare", str(tmp_path)]) == 0
        assert sorted(int(s) for s in log.read_text().split()) == [7, 8]

    def test_outputs_identical_serial_and_pooled(self, tmp_path, monkeypatch):
        self._write_tree_pair(tmp_path)
        log = tmp_path / "built.log"
        counting_builds(monkeypatch, log)
        inherits_patch = multiprocessing.get_start_method() == "fork"
        outputs = {}
        for threads in (1, 2, 3):
            monkeypatch.setenv("COMPOSITE_SGD_THREADS", str(threads))
            log.write_text("")
            assert main(["compare", str(tmp_path)]) == 0
            built = sorted(int(s) for s in log.read_text().split())
            if threads == 1 or inherits_patch:
                # each seed's 3 jobs (a's sg, acsa; b's ssg) cut into
                # min(3, ceil(threads / 2 seeds)) units, each one build
                assert built == sorted([7, 8] * min(3, -(-threads // 2)))
            outputs[threads] = (masked_outputs(tmp_path / "a_out"),
                                masked_outputs(tmp_path / "b_out"),
                                (tmp_path / "compare.csv").read_text(encoding="utf-8"))
        a, b, _ = outputs[1]
        assert sorted(a) == ["summary.json"] + [
            f"trace_{solver}_{seed}.csv" for solver in ("acsa", "sg") for seed in (7, 8)]
        assert sorted(b) == ["summary.json", "trace_ssg_7.csv", "trace_ssg_8.csv"]
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_config_equals_its_standalone_run(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("COMPOSITE_SGD_THREADS", threads)
        self._write_tree_pair(tmp_path)
        assert main(["compare", str(tmp_path)]) == 0
        compared = {stem: masked_outputs(tmp_path / f"{stem}_out") for stem in ("a", "b")}
        for stem in ("a", "b"):
            for path in (tmp_path / f"{stem}_out").iterdir():
                path.unlink()
            # run's default output directory is the one compare wrote to
            assert main(["run", str(tmp_path / f"{stem}.cfg")]) == 0
            assert masked_outputs(tmp_path / f"{stem}_out") == compared[stem]


class TestVerifyBoundsCommand:
    def test_quadratic_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "problem = quadratic\nsolver = sg\np = 8\nN = 98\nR = 3\n")
        assert main(["verify-bounds", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "mean_final_gap" in out and "PASS" in out

    def test_noisy_quadratic_passes(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "problem = quadratic\nsolver = sg\np = 8\nN = 98\nsigma = 0.5\nR = 20\n",
        )
        assert main(["verify-bounds", str(cfg)]) == 0

    def test_ortho_lasso_ssg_passes(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "problem = ortho-lasso\nsolver = ssg\np = 8\nN = 1000\nlambda = 0.1\nR = 1\n",
        )
        assert main(["verify-bounds", str(cfg)]) == 0
        assert "high-variance" in capsys.readouterr().out

    def test_ssg_on_quadratic_uses_plain_bound(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "problem = quadratic\nsolver = ssg\np = 6\nN = 98\nR = 2\n"
        )
        assert main(["verify-bounds", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert f"bound={theorem_bound(1.0, 0.0, 1.0, 98):.17g}" in out

    def test_header_line_names_the_instance(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "problem = quadratic\nsolver = ssg\np = 6\nN = 98\n"
                                  "sigma = 0.5\nD = 2.5\nR = 2\n")
        main(["verify-bounds", str(cfg)])
        assert capsys.readouterr().out.splitlines()[0] == (
            "verify-bounds: problem=quadratic solver=ssg R=2 N=98 sigma=0.5 D=2.5 L=1"
        )
        cfg = write_cfg(tmp_path, "problem = ortho-lasso\nsolver = sg\np = 8\nN = 50\n"
                                  "lambda = 0.1\nR = 1\nseed = 5\n")
        main(["verify-bounds", str(cfg)])
        dataset, x_star = ortho_lasso_instance(8, 0.1, RngStream(5).split(harness.STREAM_DATA))
        D, L = np.linalg.norm(x_star), lipschitz_linear(dataset, "scaled")
        assert capsys.readouterr().out.splitlines()[0] == (
            f"verify-bounds: problem=ortho-lasso solver=sg R=1 N=50 sigma=0 D={D:.17g} L={L:.17g}"
        )

    @pytest.mark.parametrize("text, D, L, gap, bound", [
        ("problem = quadratic\nsolver = sg\np = 8\nN = 98\nR = 3\n",
         1.0, 1.0, 0.012413663354527829, 0.20040000000000002),
        ("problem = quadratic\nsolver = ssg\np = 6\nN = 98\nsigma = 0.5\nD = 2.5\nR = 4\n",
         2.5, 1.0, 0.072958187630141752, 1.27755),
        ("problem = ortho-lasso\nsolver = ssg\np = 8\nN = 1000\nlambda = 0.1\nR = 3\n"
         "seed = 5\n", 1.7461408997391477, 1.0000000000000004, 0.02088032731491668,
         0.19427217076395645),
        ("problem = ortho-lasso\nsolver = sg\np = 10\nN = 300\nlambda = 0.05\nsigma = 0.3\n"
         "R = 5\n", 2.078451912598311, 1.0, 0.0091273718572693792, 0.50254215440322558),
    ], ids=["quadratic-sg", "noisy-quadratic-ssg", "ortho-lasso-ssg", "noisy-ortho-lasso-sg"])
    def test_report_matches_pinned_values(self, tmp_path, capsys, text, D, L, gap, bound):
        # BLAS kernels differ by CPU, so the printed digits are pinned at
        # perfbench's rtol 1e-9, not byte for byte
        assert main(["verify-bounds", str(write_cfg(tmp_path, text))]) == 0
        out = capsys.readouterr().out
        printed = [float(re.search(rf"\b{key}=(\S+)", out).group(1))
                   for key in ("D", "L", "mean_final_gap", "bound")]
        np.testing.assert_allclose(printed, [D, L, gap, bound], rtol=1e-9, atol=0)
        assert out.endswith("result: PASS\n")

    def test_unsupported_instance_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "problem = logistic\nsolver = sg\np = 4\nN = 10\n")
        assert main(["verify-bounds", str(cfg)]) == 2

    def test_last_repetition_seed_out_of_range_exits_2(self, tmp_path, capsys):
        # repetition r runs on seed + r, so seed + R - 1 must fit in 64 bits
        text = f"problem = quadratic\nsolver = sg\np = 4\nN = 10\nseed = {2**64 - 1}\n"
        assert main(["verify-bounds", str(write_cfg(tmp_path, text + "R = 2\n"))]) == 2
        assert capsys.readouterr().err.startswith("config error: seed: ")
        assert parse_bounds_config(text + "R = 1\n").seed == 2**64 - 1
        assert parse_bounds_config(text.replace(str(2**64 - 1), str(2**64 - 2))
                                   + "R = 2\n").R == 2


QUADRATIC_BOUNDS = "problem = quadratic\nsolver = sg\np = 8\nN = 98\nR = 3\n"
ORTHO_BOUNDS = "problem = ortho-lasso\nsolver = sg\np = 8\nN = 98\nR = 1\n"
# A custom penalty whose second group's weight a test writes into weights.groups.
CUSTOM_RUN = SMALL_RUN.replace("regularizer = l1",
                               "regularizer = custom\nstructure_file = {groups}")


def refusal(key, value, zero=False, hi=ENVELOPE[1]):
    """The line the command line prints for ``value`` of ``key`` outside the envelope."""
    return (f"config error: {key}: must be {'0 or ' if zero else ''}in "
            f"[{ENVELOPE[0]:g}, {hi:g}], got {value!r}\n")


@pytest.mark.parametrize("value", ["nan", "inf", "floor", "ceiling", "below", "above"])
@pytest.mark.parametrize("command, base, key", [
    pytest.param("run", SMALL_RUN, key, id=f"run-{key}")
    for key in ("lambda", "mu_override", "acsa_sigma_sq", "acsa_d", "lipschitz_override")
] + [
    pytest.param("verify-bounds", QUADRATIC_BOUNDS, "sigma", id="bounds-sigma"),
    pytest.param("verify-bounds", ORTHO_BOUNDS, "lambda", id="bounds-lambda"),
    pytest.param("verify-bounds", QUADRATIC_BOUNDS, "D", id="bounds-D"),
    pytest.param("run", CUSTOM_RUN, "weight", id="run-weight"),
])
def test_non_finite_float_exits_2_naming_key(tmp_path, capsys, command, base, key, value):
    # Every float key, and a structure file's weight, is accepted at both
    # edges of the numeric envelope (D's ceiling is half the divergence guard)
    # and refused one double past either, NaN and inf included: exit 2 naming
    # the key, or structure_file and the line, before anything is written.
    lo, hi = ENVELOPE[0], solvers.OVERFLOW_LIMIT / 2 if key == "D" else ENVELOPE[1]
    text = {"floor": repr(lo), "ceiling": repr(hi), "below": repr(math.nextafter(lo, 0.0)),
            "above": repr(math.nextafter(hi, math.inf))}.get(value, value)
    if key == "weight":
        groups = tmp_path / "weights.groups"
        groups.write_text(f"1: 1,2\n{text}: 3,4\n")
        cfg = write_cfg(tmp_path, base.format(groups=groups))
    else:
        lines = [line for line in base.splitlines() if not line.startswith(f"{key} =")]
        cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {text}"]) + "\n")
    out = tmp_path / "out"
    code = main([command, str(cfg)] + (["--out", str(out)] if command == "run" else []))
    err = capsys.readouterr().err
    if value in ("floor", "ceiling"):
        # a run ends normally; a bound check may fail or, at sigma = 1e50, diverge
        assert "config error" not in err
        assert code == 0 if command == "run" else code != 2
        return
    assert code == 2 and not out.exists()
    if key == "weight":
        assert err.startswith("config error: structure_file: line 2: weight must be in ")
    else:
        assert err == refusal(key, float(text), zero=key in ("lambda", "acsa_sigma_sq", "sigma"),
                              hi=hi)


HUGE_LAMBDA_SSG = {
    "l1": SMALL_RUN.replace("lambda = 0.1", "lambda = 1e160")
                   .replace("solver = sg", "solver = sg,ssg,acsa"),
    "tree": SMALL_RUN.replace("regularizer = l1", "regularizer = hierarchical")
                     .replace("p = 4", "n = 2").replace("lambda = 0.1", "lambda = 1e154")
                     .replace("solver = sg", "solver = ssg"),
    "logistic": SMALL_RUN.replace("linear-discrete", "logistic")
                         .replace("lambda = 0.1", "lambda = 1e300")
                         .replace("solver = sg", "solver = ssg"),
    "continuous": SMALL_RUN.replace("linear-discrete", "linear-continuous")
                           .replace("K = 40\n", "").replace("lambda = 0.1", "lambda = 1e300")
                           .replace("solver = sg", "solver = ssg"),
}


@pytest.mark.parametrize("command, text", [
    pytest.param("run", text, id=f"run-{name}") for name, text in HUGE_LAMBDA_SSG.items()
] + [
    pytest.param("compare", HUGE_LAMBDA_SSG["l1"], id="compare"),
    pytest.param("verify-bounds", ORTHO_BOUNDS.replace("solver = sg", "solver = ssg")
                 + "lambda = 1e300\n", id="bounds"),
])
def test_huge_lambda_with_ssg_exits_2_naming_lambda(tmp_path, capsys, monkeypatch, command,
                                                    text):
    # A lambda past the envelope (ssg's ||A||^2 used to overflow at these) is
    # refused while parsing, whatever the solvers: sg alone, which ran, is too
    monkeypatch.setenv("COMPOSITE_SGD_THREADS", "2")
    lam = float(re.search(r"lambda = (\S+)", text).group(1))
    sg_only = re.sub(r"solver = .*", "solver = sg", text)
    if command == "compare":  # only b runs ssg; a, parsed first, is refused as well
        write_cfg(tmp_path, sg_only, "a.cfg")
        write_cfg(tmp_path, sg_only.replace("solver = sg", "solver = ssg"), "b.cfg")
        argv = ["compare", str(tmp_path)]
    else:
        argv = [command, str(write_cfg(tmp_path, text))]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    for config in (text, sg_only):
        if command != "compare":
            write_cfg(tmp_path, config)
        assert main(argv) == 2
        assert capsys.readouterr().err == refusal("lambda", lam, zero=True)
        assert not any(path.name.endswith("out") for path in tmp_path.iterdir())


# Penalties whose scales lambda * w_g passed the largest double at lambda = 1e308:
# the n = 2 tree's weights sqrt(2) and 2, and three crossing groups of weight 2.
OVERFLOWING_PENALTIES = {
    "tree": ("regularizer = hierarchical\nn = 2\n", None),
    "custom": ("regularizer = custom\np = 4\nstructure_file = three.groups\n",
               "2: 1,2\n2: 2,3\n2: 3,4\n"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("penalty", sorted(OVERFLOWING_PENALTIES))
def test_overflowing_penalty_scales_run_under_runtime_warnings_as_errors(tmp_path, penalty,
                                                                         threads):
    # At lambda = 1e50, the envelope's ceiling, every solver runs under
    # -W error::RuntimeWarning, in pool workers too, and both bounds are
    # finite; lambda = 1e308, whose scales overflowed, is refused naming lambda.
    body, groups = OVERFLOWING_PENALTIES[penalty]
    if groups is not None:
        (tmp_path / "three.groups").write_text(groups)
    text = (SMALL_RUN.replace("p = 4\n", "").replace("regularizer = l1\n", body)
            .replace("solver = sg", "solver = sg,ssg,acsa"))
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, COMPOSITE_SGD_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run_cli(lam):
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "composite_sgd", "run",
                str(write_cfg(tmp_path, text.replace("lambda = 0.1", f"lambda = {lam}"))),
                "--out", str(tmp_path / "out")]
        return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)

    done = run_cli("1e50")
    assert (done.returncode, done.stderr) == (0, "")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [Path(run["trace_file"]).name for run in summary["runs"]] == [
        "trace_sg_3.csv", "trace_ssg_3.csv", "trace_acsa_3.csv"]
    assert all(math.isfinite(run[key]) for run in summary["runs"]
               for key in ("theorem_bound", "theorem_bound_smoothed"))
    refused = run_cli("1e308")
    assert (refused.returncode, refused.stderr) == (2, refusal("lambda", 1e308, zero=True))


MU_OVERRIDE_SSG = SMALL_RUN.replace("solver = sg", "solver = sg,ssg") + "mu_override = 1e-320\n"


@pytest.mark.parametrize("command", ["run", "compare"])
def test_mu_override_whose_quotient_overflows_exits_2_naming_mu_override(
        tmp_path, capsys, monkeypatch, command):
    # mu = 1e-320, where ||A||^2 / mu overflowed, is past the envelope and
    # refused while parsing, so no unit starts; at its floor 1e-50 ssg runs
    monkeypatch.setenv("COMPOSITE_SGD_THREADS", "2")
    if command == "compare":  # only b sets mu_override
        write_cfg(tmp_path, SMALL_RUN, "a.cfg")
        write_cfg(tmp_path, MU_OVERRIDE_SSG, "b.cfg")
        argv = ["compare", str(tmp_path)]
    else:
        argv = ["run", str(write_cfg(tmp_path, MU_OVERRIDE_SSG)), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == refusal("mu_override", 1e-320)
    assert not any(path.name.endswith("out") for path in tmp_path.iterdir())
    write_cfg(tmp_path, MU_OVERRIDE_SSG.replace("1e-320", "1e-50"),
              "b.cfg" if command == "compare" else "run.cfg")
    assert main(argv) == 0


def test_acsa_d_whose_gamma_star_overflows_exits_2_naming_acsa_d(tmp_path, capsys,
                                                                 monkeypatch):
    # gamma* = max(2L, sqrt(2 sigma^2 N(N+1)(N+2) / (3 acsa_d^2))) overflowed
    # at acsa_d = 1e-162, at L = 1e308 and at sigma^2 = 1e308: each is past
    # the envelope and refused while parsing, before either unit starts; at
    # acsa_d = 1e-50 acsa runs on the pilot's sigma^2
    monkeypatch.setenv("COMPOSITE_SGD_THREADS", "2")
    out = tmp_path / "out"
    text = SMALL_RUN.replace("solver = sg", "solver = sg,acsa")
    argv = ["run", str(write_cfg(tmp_path, text)), "--out", str(out)]
    for key, value in (("acsa_d", 1e-162), ("lipschitz_override", 1e308),
                       ("acsa_sigma_sq", 1e308)):
        write_cfg(tmp_path, text + f"{key} = {value!r}\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == refusal(key, value, zero=key == "acsa_sigma_sq")
        assert not out.exists()
    write_cfg(tmp_path, text + "acsa_d = 1e-50\n")
    assert main(argv) == 0
    assert (out / "trace_acsa_3.csv").is_file()


@pytest.mark.parametrize("solver, lam, L, where", [
    ("sg", 0.1, 1e308, "past the largest double at t = 0"),
    ("sg", 0.1, 1e-310, "past the largest double at t = 0"),
    ("ssg", 0.1, 1e308, "past the largest double at t = 0"),
    ("ssg", 0.0, 1e-320, "past the largest double at t = 0"),
    ("acsa", 0.1, 1e-320, "past the largest double at t = 0"),
    ("acsa", 0.1, 6e307, "past the largest double at t = 0"),
    ("acsa", 0.1, 1e307, "not positive at t = N"),
    ("sg", 0.1, 1e-300, None),
    ("sg", 0.1, 1e307, "None in the range prox takes eta from"),
    ("ssg", 0.1, 1e-300, None),
    ("ssg", 0.1, 1e307, None),
    ("acsa", 0.1, 1e-300, None),
    ("acsa", 0.1, 1e300, "None in the range prox takes eta from"),
])
def test_lipschitz_override_whose_step_size_overflows_exits_2_naming_it(
        tmp_path, capsys, solver, lam, L, where):
    # Every L here is past the envelope, so the command line refuses it while
    # parsing, whether or not its step size overflows. ``where`` is what the
    # library's own check in run_* finds at N = 150 (acsa's gamma* at
    # sigma^2 = 1): eta(0) past the largest double, eta(N) = 0 as L (N+1)
    # overflows, no eta(t) in [1e-100, 1e100], where prox takes it from, or
    # None, step sizes that its step map takes.
    text = (SMALL_RUN.replace("solver = sg", f"solver = {solver}")
            .replace("lambda = 0.1", f"lambda = {lam}") + f"lipschitz_override = {L}\n")
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == refusal("lipschitz_override", L)
    assert not out.exists()
    reg, N = l1(lam, 4), 150
    run = {
        "sg": lambda: run_sg(None, reg, L, N, None, None),
        "ssg": lambda: run_ssg(None, smoothed(reg, N=N), L, N, None, None),
        "acsa": lambda: run_acsa(None, reg, L, N, resolve_acsa_params(L, N, 1.0), None, None),
    }[solver]
    with mock.patch.object(solvers, "_run_two_sequence", lambda *args: None):
        if where is None:
            run()
            return
        with pytest.raises(ParameterError) as err:
            run()
    assert str(err.value).startswith("its step size eta(t) must be in [")
    if where.startswith("None in"):
        assert str(err.value).startswith("its step size eta(t) must be in [1e-100, 1e+100] ")
    elif where.endswith("t = 0"):
        assert "eta(0) = inf and " in str(err.value)
    else:
        assert str(err.value).endswith(" and eta(N) = 0") and "inf" not in str(err.value)


def test_mu_override_whose_step_size_overflows_exits_2_naming_mu_override(tmp_path, capsys):
    # lambda = 1e150 with mu = 1e-8, whose ssg eta(0) overflowed, is refused
    # naming lambda. At the envelope's edges lambda = 1e50 and mu = 1e-50,
    # the largest ||A||^2 / mu a config gives, ssg runs; one double below
    # that mu is refused naming mu_override.
    text = SMALL_RUN.replace("solver = sg", "solver = sg,ssg")
    out = tmp_path / "out"
    argv = ["run", str(write_cfg(tmp_path, text.replace("lambda = 0.1", "lambda = 1e150")
                                 + "mu_override = 1e-8\n")), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == refusal("lambda", 1e150, zero=True)
    edge = text.replace("lambda = 0.1", "lambda = 1e50")
    below = math.nextafter(1e-50, 0.0)
    write_cfg(tmp_path, edge + f"mu_override = {below!r}\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == refusal("mu_override", below)
    assert not out.exists()
    write_cfg(tmp_path, edge + "mu_override = 1e-50\n")
    assert main(argv) == 0


def test_lambda_at_the_envelope_floor_runs_every_solver(tmp_path):
    # lambda = 1e-50: the scheduled mu = ||A|| / (N+2) is positive, not the
    # floor that lambda = 0 takes, and every solver runs
    text = (SMALL_RUN.replace("solver = sg", "solver = sg,ssg,acsa")
            .replace("lambda = 0.1", "lambda = 1e-50").replace("N = 150", "N = 50"))
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
    assert len(json.loads((out / "summary.json").read_text())["runs"]) == 3


@pytest.mark.parametrize("D, code", [
    (5e11, 0), (math.nextafter(5e11, math.inf), 2), (1e13, 2),
])
def test_bounds_D_past_half_the_divergence_guard_exits_2_naming_D(tmp_path, capsys, D, code):
    # z overshoots the quadratic's optimum at distance D by up to 1.4 D, so a D
    # near the guard's 1e12 ended a convergent run as a divergence (exit 3)
    text = QUADRATIC_BOUNDS + f"D = {D!r}\n"
    assert main(["verify-bounds", str(write_cfg(tmp_path, text))]) == code
    if code:
        assert capsys.readouterr().err == refusal("D", D, hi=solvers.OVERFLOW_LIMIT / 2)
    else:
        assert capsys.readouterr().out.endswith("result: PASS\n")


def _log_uniform(lo, hi):
    """Doubles from lo to hi whose logarithm is uniform, and both ends."""
    return hst.one_of(hst.sampled_from([lo, hi]), hst.floats(math.log10(lo), math.log10(hi))
                      .map(lambda e: min(max(10.0**e, lo), hi)))


IN_ENVELOPE = _log_uniform(*ENVELOPE)


@pytest.mark.deep
@given(solver=hst.sampled_from(config.SOLVERS), L=IN_ENVELOPE,
       lam=hst.one_of(hst.just(0.0), IN_ENVELOPE), weight=IN_ENVELOPE,
       copies=hst.integers(0, 63), mu=hst.one_of(hst.none(), IN_ENVELOPE),
       sigma_sq=hst.one_of(hst.none(), hst.just(0.0), IN_ENVELOPE), acsa_d=IN_ENVELOPE,
       N=hst.floats(0.0, 53.0).map(lambda e: min(int(2.0**e), 2**53)))
@example(solver="ssg", L=1e-50, lam=1e50, weight=1e50, copies=63, mu=1e-50, sigma_sq=None,
         acsa_d=1.0, N=2**53)  # the largest ||A||^2 / mu
@example(solver="acsa", L=1e-50, lam=0.1, weight=1.0, copies=0, mu=None, sigma_sq=1e50,
         acsa_d=1e-50, N=2**53)  # the largest gamma* / L
def test_every_config_in_the_envelope_sets_up_finite_steps_and_bounds(
        solver, L, lam, weight, copies, mu, sigma_sq, acsa_d, N):
    # The envelope's claim (README "Numeric envelope"): any config the parser
    # takes, here over l1 or up to 63 groups of weight w on one coordinate (as
    # many as hold a coordinate of the deepest tree), sets up with no refusal;
    # the step sizes its solver builds are finite at t = 0 and positive at
    # t = N, and both bounds are finite.
    keys = {"solver": solver, "lambda": lam, "N": N, "lipschitz_override": L, "acsa_d": acsa_d,
            "mu_override": mu, "acsa_sigma_sq": sigma_sq, "batch_size": "full"}
    lines = [line for line in SMALL_RUN.splitlines() if line.split(" =")[0] not in keys]
    cfg = parse_run_config("\n".join(lines + [f"{key} = {value}" for key, value in keys.items()
                                              if value is not None]))
    reg = l1(lam, 1) if copies == 0 else group_norm(lam, GroupStructure(
        np.zeros(copies), np.ones(copies), np.full(copies, weight), 1))
    inst = harness.Instance(None, reg, cfg.lipschitz_override, lambda batch: ExactOracle(None, 1))
    oracle, sreg, gamma_star, bounds = harness.configure(inst, cfg, cfg.seeds[0])
    built = []  # the step sizes run_* builds for its step map; the loop does not start

    def recorded(build):
        def record(*args):
            built.append(build(*args))
            return built[-1]
        return record

    with (mock.patch.object(solvers, "horizon_eta", recorded(solvers.horizon_eta)),
          mock.patch.object(solvers, "acsa_eta", recorded(solvers.acsa_eta)),
          mock.patch.object(solvers, "_run_two_sequence", lambda *args: None)):
        harness.solve(solver, inst, oracle, sreg, gamma_star, N, None, 0)
    eta, = built
    assert math.isfinite(eta(0)) and eta(N) > 0
    assert all(math.isfinite(bounds[key]) for key in ("theorem_bound", "theorem_bound_smoothed"))


def test_nan_smoothed_gradient_on_a_tree_ends_ssg_as_a_divergence(tmp_path, capsys,
                                                                  monkeypatch):
    # The tiled smoothed gradient leaves a NaN's sign unspecified, since no
    # output can show it: a NaN anywhere in A^T v makes z NaN, and the run
    # ends at that iteration, exit 3, before any trace or summary is written.
    k, calls = 7, []
    real = solvers.smoothed_gradient

    def nan_at_k(sreg, y):
        grad = real(sreg, y)
        if len(calls) == k:
            grad[-1] = -np.nan
        calls.append(k)
        return grad

    monkeypatch.setattr(solvers, "smoothed_gradient", nan_at_k)
    text = (SMALL_RUN.replace("regularizer = l1", "regularizer = hierarchical")
            .replace("p = 4", "n = 2").replace("solver = sg", "solver = ssg"))
    cfg = parse_run_config(text)
    inst = harness.build_problem(cfg, 3)
    assert inst.reg.structure.covers == 3
    with pytest.raises(DivergenceError) as err:
        run_ssg(inst.oracle(cfg.batch_size), smoothed(inst.reg, N=cfg.N), inst.L, cfg.N,
                RngStream(3), inst.smooth_objective)
    assert err.value.iteration == k
    calls.clear()
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"diverged: iterate is not finite or exceeded 1e+12 at iteration {k}; "
        "is the Lipschitz constant set too small?\n")
    assert not list(out.glob("*"))


def test_unit_sets_up_only_the_configs_its_jobs_run(tmp_path, monkeypatch):
    # Two configs, and jobs from the first alone: the second is not set up
    configured, real_configure = [], harness.configure

    def configure(inst, cfg, seed):
        configured.append(cfg)
        return real_configure(inst, cfg, seed)

    monkeypatch.setattr(harness, "configure", configure)
    a = parse_run_config(SMALL_RUN)
    b = parse_run_config(SMALL_RUN.replace("batch_size = 5", "batch_size = 2"))
    pairs = [(a, tmp_path / "a_out"), (b, tmp_path / "b_out")]
    (summary, _), = harness.run_seed(pairs, 3, [(0, "sg")])
    assert configured == [a] and summary["config"] == a.echo()
    assert not (tmp_path / "b_out").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_refused_config_in_compare_starts_no_job_of_any_config(tmp_path, capsys, monkeypatch,
                                                               threads):
    # b's acsa_sigma_sq is past the envelope; a runs sg alone and comes first,
    # but every config is parsed before the first unit starts, so no *_out
    monkeypatch.setenv("COMPOSITE_SGD_THREADS", threads)
    write_cfg(tmp_path, SMALL_RUN, "a.cfg")
    write_cfg(tmp_path, SMALL_RUN.replace("solver = sg", "solver = acsa")
              + "acsa_sigma_sq = 1e308\n", "b.cfg")
    assert main(["compare", str(tmp_path)]) == 2
    assert capsys.readouterr().err == refusal("acsa_sigma_sq", 1e308, zero=True)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.cfg", "b.cfg"]


@pytest.mark.parametrize("N", [2**53 + 1, 10**400])
@pytest.mark.parametrize("command, base, parse", [
    ("run", SMALL_RUN, parse_run_config),
    ("verify-bounds", QUADRATIC_BOUNDS, parse_bounds_config),
])
def test_N_past_2_to_53_exits_2_naming_N(tmp_path, capsys, command, base, parse, N):
    # up to 2^53 float(N) is exact and every step size finite; N is checked
    # while parsing, before any file is written
    out = tmp_path / "out"
    argv = [command, str(write_cfg(tmp_path, re.sub(r"N = \d+", f"N = {N}", base)))]
    if command == "run":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: N: must be <= {2**53}, got {N}\n")
    assert not out.exists()
    assert parse(re.sub(r"N = \d+", f"N = {2**53}", base)).N == 2**53


def test_acsa_d_whose_square_underflows_exits_2_naming_acsa_d(tmp_path, capsys):
    # gamma* divides by 3 acsa_d^2, which is 0 at 1e-170; the envelope's floor
    # 1e-50 runs, and summary.json records it
    out = tmp_path / "out"
    argv = ["run", str(write_cfg(tmp_path, SMALL_RUN + "acsa_d = 1e-170\n")), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == refusal("acsa_d", 1e-170)
    assert not out.exists()
    argv[1] = str(write_cfg(tmp_path, SMALL_RUN + "acsa_d = 1e-50\n"))
    assert main(argv) == 0
    (summary,) = json.loads((out / "summary.json").read_text())["runs"]
    assert summary["theorem_bound_D"] == 1e-50


@pytest.mark.parametrize("command", ["run", "compare", "verify-bounds", "gen-data"])
def test_non_utf8_config_exits_2_naming_path_and_line(tmp_path, capsys, command):
    # every command reads its config through one decoder, before any key
    path = tmp_path / "a.cfg"
    path.write_bytes(SMALL_RUN.encode() + b"# \xff\n")
    (tmp_path / "b.cfg").write_text(SMALL_RUN)
    assert main([command, str(tmp_path if command == "compare" else path)]) == 2
    line = SMALL_RUN.count("\n") + 1
    assert capsys.readouterr().err == (
        f"config error: {path}: line {line}: not UTF-8 (invalid start byte)\n")
    assert not (tmp_path / "a_out").exists()


class TestGenDataCommand:
    def test_writes_loadable_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, "problem = logistic\nK = 12\np = 5\nseed = 2\n")
        out = tmp_path / "data_out"
        assert main(["gen-data", str(cfg), "--out", str(out)]) == 0
        header, X, y = read_dataset_csv(out / "dataset.csv")
        assert header == ["y", "x1", "x2", "x3", "x4", "x5"]
        assert X.shape == (12, 5)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, rtol=0, atol=1e-12)
        assert set(y) <= {0.0, 1.0}

    @pytest.mark.parametrize("problem", ["linear-discrete", "logistic"])
    def test_writes_the_dataset_run_draws(self, tmp_path, problem):
        body = f"problem = {problem}\nK = 12\np = 4\nseed = 5\n"
        out = tmp_path / "data_out"
        assert main(["gen-data", str(write_cfg(tmp_path, body)), "--out", str(out)]) == 0
        _, X, y = read_dataset_csv(out / "dataset.csv")
        run = parse_run_config(body + "regularizer = l1\nsolver = sg\nlambda = 0.1\n"
                                      "N = 10\nbatch_size = 3\n")
        dataset = harness.build_problem(run, 5).oracle(run.batch_size).dataset
        assert np.array_equal(X, dataset.X) and np.array_equal(y, dataset.y)

    def test_continuous_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "problem = linear-continuous\nK = 5\np = 4\nseed = 0\n")
        assert main(["gen-data", str(cfg)]) == 2

    def test_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"problem = logistic\nK = 5\np = 4\nseed = {2**64}\n")
        out = tmp_path / "data_out"
        assert main(["gen-data", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: seed: ")
        assert not out.exists()
