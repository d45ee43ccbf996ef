"""Fast self-tests of the benchmark, on tiny workloads.

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
from workloads import (UNUSED_BY_CUSTOM, UNUSED_BY_L1, WORKLOADS, RandomGroups,  # noqa: E402
                       Workload, write_inputs)

SEED = 35  # instance seed 3
TINY_BODY = """\
problem = linear-discrete
solver = sg,ssg,acsa
K = 100
p = 16
lambda = 0.1
trace_every = 10
"""
TINY = {
    "tiny": Workload(
        name="tiny", why="overlapping groups at toy size", N=20,
        body=f"regularizer = custom\nstructure_file = groups.txt\nbatch_size = 5\n{TINY_BODY}",
        groups=RandomGroups(p=16, count=6, size=4), unused_targets=UNUSED_BY_CUSTOM,
    ),
    # Exact gradients: no minibatch oracle and no pilot, so the traced guard must fire.
    "tiny-exact": Workload(name="tiny-exact", why="l1 with full gradients at toy size",
                           N=20, body=f"regularizer = l1\nbatch_size = full\n{TINY_BODY}",
                           unused_targets=UNUSED_BY_L1),
}


@pytest.fixture(scope="module")
def references(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("references")
    store = {"workloads": {}}
    for name, workload in TINY.items():
        config = write_inputs(workload, 3, work / name)
        rep = run.run_repetition(config, work / name / "rep", False, timeout=60)
        assert "error" not in rep, rep
        jobs = run.read_jobs(work / name / "rep" / "out")
        store["workloads"][name] = {"3": {s: jobs[s][0] for s in jobs}}
    path = work / "references.json"
    path.write_text(json.dumps(store), encoding="utf-8")
    return path


def bench(capsys, tmp_path, references, workload="tiny", trace=0, workloads=TINY):
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace)],
                    workloads=workloads, references=references, work_root=tmp_path)
    captured = capsys.readouterr()
    return code, json.loads(captured.out.strip().splitlines()[-1]), captured.err


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(capsys, tmp_path, references, trace, section):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    code, result, _ = bench(capsys, tmp_path, references, trace=trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 6 * (1 + trace)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[section]
    }


def test_gate_fails_on_perturbed_reference(capsys, tmp_path, references):
    store = json.loads(references.read_text(encoding="utf-8"))
    store["workloads"]["tiny"]["3"]["ssg"] *= 1 + 1e-7
    perturbed = tmp_path / "references.json"
    perturbed.write_text(json.dumps(store), encoding="utf-8")
    code, result, _ = bench(capsys, tmp_path, perturbed)
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_traced_guard_fails_on_a_span_with_no_calls(capsys, tmp_path, references):
    code, result, err = bench(capsys, tmp_path, references, workload="tiny-exact", trace=1)
    assert code == 1 and not result["correct"] and result["failed"] == 0
    assert "problems.MinibatchLinearOracle.sample recorded zero calls" in err


def test_traced_guard_fails_on_a_bypassed_target_of_a_shared_span(capsys, tmp_path, references):
    # The custom structure builds through load_group_structure and group_norm,
    # so regularizers.build_structure has calls while l1, expected here, has none.
    expects_l1 = dataclasses.replace(TINY["tiny"], unused_targets=UNUSED_BY_CUSTOM - {"regularizers.l1"})
    code, result, err = bench(capsys, tmp_path, references, trace=1,
                              workloads={"tiny": expects_l1})
    assert code == 1 and not result["correct"] and result["failed"] == 0
    assert "regularizers.l1 recorded zero calls" in err
    assert result["metrics"]["regularizers.build_structure.s"]["value"] > 0


def test_unused_targets_name_traced_targets():
    targets = {f"{module}.{path}" for _, module, path in child.TRACED}
    for workload in list(WORKLOADS.values()) + list(TINY.values()):
        assert workload.unused_targets <= targets


def test_same_seed_writes_same_workload_files(tmp_path):
    for name, workload in WORKLOADS.items():
        a = write_inputs(workload, 5, tmp_path / "a" / name).parent
        b = write_inputs(workload, 5, tmp_path / "b" / name).parent
        c = write_inputs(workload, 6, tmp_path / "c" / name).parent
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes()
            assert (a / f).read_bytes() != (c / f).read_bytes()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lasso-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
