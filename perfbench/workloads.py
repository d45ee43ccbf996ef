"""The benchmark's workloads: each turns a seed into the config file (and, for
the custom structure, the group file) that ``composite-sgd run`` reads.

The program sees only these generated files. ``--seed n`` selects instance
seed ``n % INSTANCE_SEEDS``; ``references.json`` holds the final objective of
every solver on every instance seed, so any ``--seed`` can be gated.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

INSTANCE_SEEDS = 32
SOLVERS = ("sg", "ssg", "acsa")
CONFIG_NAME = "workload.cfg"
GROUPS_NAME = "groups.txt"


@dataclass(frozen=True)
class RandomGroups:
    """``count`` groups of ``size`` distinct coordinates out of ``p``, weight sqrt(size)."""

    p: int
    count: int
    size: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    N: int
    # Config body without the seed and N lines; both are filled in per run.
    body: str
    groups: Optional[RandomGroups] = None
    # Traced targets (module.attribute, as in child.TRACED) this workload never
    # calls; every other target must record a call.
    unused_targets: frozenset = frozenset()


# The penalty constructors a workload does not use, by its regularizer.
UNUSED_BY_L1 = frozenset({"regularizers.build_hierarchical",
                          "regularizers.load_group_structure", "regularizers.group_norm"})
UNUSED_BY_TREE = frozenset({"regularizers.load_group_structure", "regularizers.l1"})
UNUSED_BY_CUSTOM = frozenset({"regularizers.build_hierarchical", "regularizers.l1"})


# Why these three:
# - lasso-small is the fig1_left instance: per-iteration Python overhead is the
#   whole cost, setup is milliseconds, and it is the only l1 path. It is the
#   "no change" side for every group-prox, structure and big-data change.
# - tree-large is the fig2_right instance (n=9, p=512, 1023 laminar groups)
#   with K cut from 1e5 to 2e4 and N to 200, so that a repetition stays near
#   5 s and 0.35 GB: setup (data, power iteration, the dense laminarity check)
#   is rebuilt for each job, and the laminar prox dominates sg and acsa.
# - overlap-random is the paper's motivating overlapping case (40 random
#   groups of 8 over p=64): the only workload on the dual block-coordinate
#   ascent prox and the overlapping smoothing path. Linear loss, because with
#   logistic loss at lambda=0.1 sg stays at x=0, where the prox is trivial.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lasso-small",
            why="fig1_left l1 lasso, K=1000 p=20: per-iteration overhead is the whole cost; no group prox",
            N=10000,
            body="""\
problem = linear-discrete
regularizer = l1
solver = sg,ssg,acsa
K = 1000
p = 20
lambda = 0.1
batch_size = 10
trace_every = 100
lipschitz_convention = paper
""",
            unused_targets=UNUSED_BY_L1,
        ),
        Workload(
            name="tree-large",
            why="fig2_right tree norm, n=9 p=512 K=2e4: setup rebuilt per job and the laminar prox dominate",
            N=200,
            body="""\
problem = linear-discrete
regularizer = hierarchical
solver = sg,ssg,acsa
K = 20000
n = 9
lambda = 0.1
batch_size = 100
trace_every = 100
lipschitz_convention = paper
""",
            unused_targets=UNUSED_BY_TREE,
        ),
        Workload(
            name="overlap-random",
            why="40 random overlapping groups of 8 over p=64: dual-ascent prox and the overlapping smoothing path",
            N=1000,
            body=f"""\
problem = linear-discrete
regularizer = custom
structure_file = {GROUPS_NAME}
solver = sg,ssg,acsa
K = 1000
p = 64
lambda = 0.1
batch_size = 10
trace_every = 100
""",
            groups=RandomGroups(p=64, count=40, size=8),
            unused_targets=UNUSED_BY_CUSTOM,
        ),
    )
}


def instance_seed(seed: int) -> int:
    return seed % INSTANCE_SEEDS


def random_groups(spec: RandomGroups, seed: int) -> list[list[int]]:
    """Partial Fisher-Yates draws from ``random.Random(seed).random()``, whose
    sequence Python guarantees across versions; returns sorted 0-based groups."""
    rng = random.Random(seed)
    groups = []
    for _ in range(spec.count):
        pool = list(range(spec.p))
        for i in range(spec.size):
            j = i + int(rng.random() * (spec.p - i))
            pool[i], pool[j] = pool[j], pool[i]
        groups.append(sorted(pool[: spec.size]))
    return groups


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the files the program reads for instance ``seed`` into ``directory``
    and return the config path; the group file is named relative to it."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload.groups is not None:
        weight = repr(math.sqrt(workload.groups.size))
        lines = [
            f"{weight}: {','.join(str(i + 1) for i in g)}\n"
            for g in random_groups(workload.groups, seed)
        ]
        (directory / GROUPS_NAME).write_text("".join(lines), encoding="utf-8")
    config = directory / CONFIG_NAME
    config.write_text(f"{workload.body}N = {workload.N}\nseed = {seed}\n", encoding="utf-8")
    return config
