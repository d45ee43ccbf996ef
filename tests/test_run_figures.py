import importlib.util
import json
from pathlib import Path

from _reference import read_trace_csv

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


def test_scaled_recipe_writes_traces_and_summary(tmp_path, monkeypatch):
    monkeypatch.setenv("COMPOSITE_SGD_THREADS", "1")
    out = tmp_path / "runs"
    assert run_figures.run(["--figures", "fig1_left", "--scale", "0.01", "--out", str(out)]) == 0
    assert "N = 500\n" in (out / "fig1_left.cfg").read_text()
    run_dir = out / "fig1_left"
    traces = sorted(path.name for path in run_dir.glob("trace_*.csv"))
    assert traces == ["trace_acsa_1.csv", "trace_sg_1.csv", "trace_ssg_1.csv"]
    for name in traces:
        header, rows = read_trace_csv(run_dir / name)
        assert header == ["iteration", "elapsed_seconds", "objective"]
        assert rows[-1][0] == "501"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert [run["config"]["N"] for run in summary["runs"]] == [500, 500, 500]
