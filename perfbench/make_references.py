"""Write perfbench/references.json: the final objective of every solver on
every instance seed of every workload, from one untraced repetition each.

    python3 perfbench/make_references.py

Run it from the root of a checkout, only when the program's results are meant
to change; the benchmark gates every job against this file. It regenerates
every workload and rewrites the file from scratch, with the record of the one
machine that produced it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import CHILD_ENV, REFERENCES, RTOL, WORK_ROOT, read_jobs, run_repetition
from workloads import INSTANCE_SEEDS, WORKLOADS, write_inputs


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)

    store = {"workloads": {}}
    for name in sorted(WORKLOADS):
        finals = {}
        for inst in range(INSTANCE_SEEDS):
            work = WORK_ROOT / f"references-{name}-{inst}"
            if work.exists():
                shutil.rmtree(work)
            config = write_inputs(WORKLOADS[name], inst, work)
            rep = run_repetition(config, work / "rep", False, timeout=600)
            if "error" in rep:
                print(f"{name} instance {inst}: {rep['error']}", file=sys.stderr)
                return 1
            jobs = read_jobs(work / "rep" / "out")
            finals[str(inst)] = {solver: jobs[solver][0] for solver in jobs}
            shutil.rmtree(work)
            print(f"{name} instance {inst}: {finals[str(inst)]}", flush=True)
        store["workloads"][name] = finals
        store["machine"] = rep["machine"]
    store["child_env"] = CHILD_ENV
    store["rtol"] = RTOL
    REFERENCES.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
