import importlib.util
import json
from pathlib import Path

import pytest

from _reference import read_trace_csv
from composite_sgd.config import parse_kv

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_figures.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_figures = load_script()


def test_unknown_figure_exits_2(tmp_path, capsys):
    argv = ["--figures", "fig1_left", "no_such_figure", "--out", str(tmp_path)]
    assert run_figures.run(argv) == 2
    assert "no_such_figure" in capsys.readouterr().err
    assert not (tmp_path / "fig1_left").exists()


def test_scaled_text_floors_N_and_K_only():
    text = ("problem = linear-discrete\nK = 1000\np = 20\nN = 50000\n"
            "batch_size = 10\ntrace_every = 100\nseed = 1\n")
    tiny = run_figures.scaled_text(text, 0.001).splitlines()
    half = run_figures.scaled_text(text, 0.5).splitlines()
    original = text.splitlines()
    assert tiny[1] == "K = 50" and tiny[3] == "N = 100"
    assert half[1] == "K = 500" and half[3] == "N = 25000"
    for scaled in (tiny, half):
        assert [line for i, line in enumerate(scaled) if i not in (1, 3)] == [
            line for i, line in enumerate(original) if i not in (1, 3)
        ]
    # Every layout parse_kv accepts: no spaces, extra spaces, a trailing
    # comment (kept), and an integer form int() reads.
    variants = {
        "N=50000": "N = 500",
        "  K   =  1000  ": "K = 50",
        "N = 50000  # note": "N = 500  # note",
        "K=1000# dense": "K = 50  # dense",
        "N = 50_000": "N = 500",
    }
    for line, expected in variants.items():
        scaled = run_figures.scaled_text(line + "\n", 0.01)
        assert scaled == expected + "\n"
        assert parse_kv(scaled).keys() == parse_kv(line).keys()
    # Not N or K, or not an integer: left for the config parser.
    for line in ("NN = 50000", "# N = 50000", "N = 5e4", "p = 20  # N = 5"):
        assert run_figures.scaled_text(line + "\n", 0.01) == line + "\n"


# Each recipe's N at --scale 0.01: a hundredth of it, floored at 100.
SCALED_N = {
    "fig1_left": 500, "fig1_right": 500, "fig2_left": 100, "fig2_right": 100,
    "fig3_continuous_l1": 100, "fig4_continuous_tree": 100, "fig5_logistic_l1": 500,
    "fig6_logistic_tree": 500,
}


@pytest.mark.parametrize("figure", SCALED_N)
def test_scaled_recipe_writes_traces_and_summary(tmp_path, monkeypatch, figure):
    N = SCALED_N[figure]
    monkeypatch.setenv("COMPOSITE_SGD_THREADS", "1")
    out = tmp_path / "runs"
    assert run_figures.run(["--figures", figure, "--scale", "0.01", "--out", str(out)]) == 0
    assert f"N = {N}\n" in (out / f"{figure}.cfg").read_text()
    run_dir = out / figure
    traces = sorted(path.name for path in run_dir.glob("trace_*.csv"))
    assert traces == ["trace_acsa_1.csv", "trace_sg_1.csv", "trace_ssg_1.csv"]
    for name in traces:
        header, rows = read_trace_csv(run_dir / name)
        assert header == ["iteration", "elapsed_seconds", "objective"]
        assert rows[-1][0] == str(N + 1)
    summary = json.loads((run_dir / "summary.json").read_text())
    assert [run["config"]["N"] for run in summary["runs"]] == [N, N, N]


def test_every_recipe_is_covered():
    assert sorted(path.stem for path in run_figures.FIGURES_DIR.glob("*.cfg")) == sorted(SCALED_N)
