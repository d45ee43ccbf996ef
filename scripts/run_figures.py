#!/usr/bin/env python3
"""Run the benchmark recipes under scripts/figures/ and collect trace CSVs.

Each recipe pits sg, ssg and acsa against each other on one problem family.
``--scale`` shrinks N and K proportionally for quick smoke runs; the emitted
CSVs are ready for any plotting tool (objective vs elapsed_seconds).
"""

import argparse
import sys
from pathlib import Path

from composite_sgd.cli import main as cli_main

FIGURES_DIR = Path(__file__).parent / "figures"


def scaled_text(text: str, scale: float) -> str:
    """``text`` with its N and K values scaled by ``scale`` and floored at 100
    and 50. Each line is read as ``config.parse_kv`` reads it: key and value
    around the first ``=``, spaces stripped, before any ``#`` comment, which
    is kept. Other lines, and an N or K that is not an integer (the config
    parser reports it), are left as they are."""
    def scaled(line):
        body, hash_, comment = line.partition("#")
        key, eq, value = body.partition("=")
        key = key.strip()
        if not eq or key not in ("N", "K"):
            return line
        try:
            count = int(value)
        except ValueError:
            return line
        floor = 100 if key == "N" else 50
        return f"{key} = {max(floor, int(count * scale))}" + (f"  #{comment}" if hash_ else "")

    return "".join(scaled(line) + "\n" for line in text.splitlines())


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figures", nargs="*", default=None,
                        help="recipe stems to run (default: all)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply N and K by this factor (smoke runs)")
    parser.add_argument("--out", default="figure_runs", help="output directory")
    args = parser.parse_args(argv)

    recipes = sorted(FIGURES_DIR.glob("*.cfg"))
    if args.figures:
        wanted = set(args.figures)
        recipes = [r for r in recipes if r.stem in wanted]
        missing = wanted - {r.stem for r in recipes}
        if missing:
            print(f"unknown figures: {sorted(missing)}", file=sys.stderr)
            return 2

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    for recipe in recipes:
        text = recipe.read_text()
        if args.scale != 1.0:
            text = scaled_text(text, args.scale)
        cfg_path = out_root / recipe.name
        cfg_path.write_text(text)
        print(f"== {recipe.stem} ==")
        code = cli_main(["run", str(cfg_path), "--out", str(out_root / recipe.stem)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
