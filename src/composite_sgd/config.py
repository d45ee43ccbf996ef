"""Flat key=value run configurations for the experiment harness.

One ``key=value`` pair per line, ``#`` starts a comment, unknown keys are hard
errors. ``solver`` and ``seed`` accept comma-separated lists. Each config
dataclass is the one statement of its keys and defaults: a parser accepts the
dataclass fields by config key and passes on only the keys a config gives.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Optional

from .core import _MAX_SEED, ENVELOPE, envelope_fault
from .problems import ORTHO_LASSO_BYTES_PER_ENTRY
from .regularizers import MAX_TREE_N, TREE_BYTES_PER_INDEX
from .solvers import OVERFLOW_LIMIT

PROBLEMS = ("linear-discrete", "linear-continuous", "logistic")
REGULARIZERS = ("l1", "hierarchical", "custom")
SOLVERS = ("sg", "ssg", "acsa")
CONVENTIONS = ("paper", "scaled")
BOUND_PROBLEMS = ("quadratic", "ortho-lasso")


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the field."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key
        self.message = message

    def __reduce__(self):
        # Rebuild from both arguments so the error survives a process pool.
        return type(self), (self.key, self.message)


def parse_kv(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise ConfigError(key, "duplicate key")
        pairs[key] = value
    return pairs


def _pairs(text: str, cls) -> dict[str, str]:
    """The key=value pairs of ``text``, each key one of ``cls``'s fields by
    config key."""
    pairs = parse_kv(text)
    keys = {_KEY_OF_FIELD.get(f.name, f.name) for f in fields(cls)}
    for key in pairs:
        if key not in keys:
            raise ConfigError(key, "unknown key")
    return pairs


def _require(pairs, key) -> str:
    if key not in pairs:
        raise ConfigError(key, "required field is missing")
    return pairs[key]


def _forbid(pairs, key, why):
    if key in pairs:
        raise ConfigError(key, why)


def _number(pairs, key, kind, minimum=None, maximum=None):
    """The required int ``key``, at least ``minimum`` and at most ``maximum``;
    or the required float ``key``, in the numeric envelope (``core.ENVELOPE``,
    topped at ``maximum`` when given) or, where ``minimum`` is 0, equal to 0."""
    text = _require(pairs, key)
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(key, f"expected {what}, got {text!r}") from None
    if kind is float:
        fault = envelope_fault(value, zero=minimum == 0, hi=maximum or ENVELOPE[1])
        if fault:
            raise ConfigError(key, fault)
    elif minimum is not None and value < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {value}")
    elif maximum is not None and value > maximum:
        raise ConfigError(key, f"must be <= {maximum}, got {value}")
    return value


def _given(pairs, *specs) -> dict:
    """Each ``(key, kind, minimum, maximum)`` number the config gives, by key,
    so that an omitted key keeps its dataclass default."""
    return {key: _number(pairs, key, *rest) for key, *rest in specs if key in pairs}


def _choice(pairs, key, options, many=False, why=""):
    """The required ``key``, one of ``options``; with ``many``, a tuple of
    distinct options from a comma-separated list."""
    text = _require(pairs, key)
    values = tuple(v.strip() for v in text.split(",")) if many else (text,)
    if any(v not in options for v in values):
        raise ConfigError(key, f"{why}must be one of {options}, got {text!r}")
    if len(set(values)) != len(values):
        raise ConfigError(key, f"repeated {key}")
    return values if many else text


def _check_seed(seed: int, repetitions: int = 1) -> None:
    """The seed rule of every command: each stream seed a command derives,
    ``seed`` through ``seed + repetitions - 1``, must be one RngStream takes."""
    last = seed + repetitions - 1
    if seed < 0 or last > _MAX_SEED:
        got = seed if repetitions == 1 else f"{seed}..{last} (seed to seed + R - 1)"
        raise ConfigError("seed", f"seeds must fit in 64 unsigned bits, got {got}")


def physical_memory() -> Optional[int]:
    """The machine's physical memory in bytes, or None where the operating
    system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _gib(nbytes: int) -> str:
    """A byte count in GiB to three digits. Decimal, because a count past
    about 1e308 bytes has no float; imported here, as only a refusal needs it."""
    from decimal import Decimal

    return f"{Decimal(nbytes) / 2**30:.3g}"


def check_memory(key: str, what: str, need: int) -> None:
    """Refuse ``what`` (config ``key``) if its ``need`` bytes exceed physical memory."""
    have = physical_memory()
    if have is not None and need > have:
        raise ConfigError(key, f"{what} need {_gib(need)} GiB, more than "
                               f"the {_gib(have)} GiB of physical memory")


def _check_footprint(K: int, p: int, gram: bool) -> None:
    """Refuse a dataset that cannot fit in physical memory: K * p doubles for
    the design, plus min(K, p)^2 for the Gram matrix a linear dataset keeps."""
    check_memory("K", f"K={K} rows of p={p}", 8 * K * p + (8 * min(K, p) ** 2 if gram else 0))


@dataclass(frozen=True)
class RunConfig:
    problem: str
    regularizer: str
    solvers: tuple[str, ...]
    K: Optional[int]
    p: int
    n: Optional[int]
    lam: float
    N: int
    batch_size: Optional[int]  # None means full-data exact gradients
    seeds: tuple[int, ...]
    trace_every: int = 100
    lipschitz_convention: str = "scaled"
    mu_override: Optional[float] = None
    acsa_sigma_sq: Optional[float] = None
    acsa_d: float = 1.0
    lipschitz_override: Optional[float] = None
    structure_file: Optional[str] = None

    def echo(self) -> dict:
        """Every field by its config key, in field order, as summary.json
        records it."""
        shown = {
            "solvers": ",".join(self.solvers),
            "seeds": ",".join(str(s) for s in self.seeds),
            "batch_size": "full" if self.batch_size is None else self.batch_size,
        }
        return {
            _KEY_OF_FIELD.get(f.name, f.name): shown.get(f.name, getattr(self, f.name))
            for f in fields(self)
        }

    def instance_key(self) -> dict:
        """The fields that pin the problem instance, by config key; configs
        run together (``compare``) must have these equal."""
        echo = self.echo()
        return {key: echo[key] for key in _INSTANCE_KEYS}


# The config keys whose field, in any config dataclass, has another name.
_KEY_OF_FIELD = {"lam": "lambda", "solvers": "solver", "seeds": "seed"}
_INSTANCE_KEYS = (
    "problem", "regularizer", "K", "p", "n", "lambda", "lipschitz_convention",
    "lipschitz_override", "seed", "structure_file",
)
# The most iterations a config may ask for: up to 2^53, float(N) is exact and
# every step-size formula finite (at 1 us per iteration, over 280 years).
_MAX_ITERATIONS = 2**53


def parse_run_config(text: str) -> RunConfig:
    pairs = _pairs(text, RunConfig)
    problem = _choice(pairs, "problem", PROBLEMS)
    regularizer = _choice(pairs, "regularizer", REGULARIZERS)
    solvers = _choice(pairs, "solver", SOLVERS, many=True)

    if problem == "linear-continuous":
        _forbid(pairs, "K", "not applicable to linear-continuous (infinite data)")
        K = None
    else:
        K = _number(pairs, "K", int, 1)

    # Dimension: l1/custom take p directly; hierarchical takes n, and p = 2^n.
    if regularizer == "hierarchical":
        _forbid(pairs, "structure_file", "only valid with the custom regularizer")
        _forbid(pairs, "p", "derived from n as p = 2^n for the hierarchical regularizer")
        n = _number(pairs, "n", int, 0, maximum=MAX_TREE_N)
        p = 2**n
        check_memory("n", f"{p * (n + 1)} tree indices at {TREE_BYTES_PER_INDEX} bytes "
                     "each to build", TREE_BYTES_PER_INDEX * p * (n + 1))
    else:
        _forbid(pairs, "n", "only valid with the hierarchical regularizer")
        p = _number(pairs, "p", int, 1)
        n = None
        if regularizer == "custom":
            _require(pairs, "structure_file")
        else:
            _forbid(pairs, "structure_file", "only valid with the custom regularizer")

    if problem in ("linear-discrete", "linear-continuous") and p % 2 != 0:
        raise ConfigError("p", f"linear problems require even p (half-ones truth), got {p}")
    if K is not None:
        _check_footprint(K, p, gram=problem == "linear-discrete")

    lam = _number(pairs, "lambda", float, 0.0)
    N = _number(pairs, "N", int, 1, maximum=_MAX_ITERATIONS)
    if _require(pairs, "batch_size") == "full":
        batch_size = None
    else:
        batch_size = _number(pairs, "batch_size", int, 1)
    check_memory("p", f"p={p} coordinates in draws of {batch_size or 1}",
                 8 * p * (batch_size or 1))

    try:
        seeds = tuple(int(tok) for tok in _require(pairs, "seed").split(","))
    except ValueError:
        raise ConfigError("seed", f"expected integers, got {pairs['seed']!r}") from None
    for seed in seeds:
        _check_seed(seed)
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seed", "repeated seed")

    given = _given(
        pairs, ("trace_every", int, 1), ("mu_override", float), ("acsa_sigma_sq", float, 0.0),
        ("acsa_d", float), ("lipschitz_override", float),
    )
    if "lipschitz_convention" in pairs:
        given["lipschitz_convention"] = _choice(pairs, "lipschitz_convention", CONVENTIONS)
        if problem != "linear-discrete":
            raise ConfigError("lipschitz_convention", "only applies to linear-discrete")
    if "structure_file" in pairs:
        given["structure_file"] = pairs["structure_file"]

    return RunConfig(
        problem=problem, regularizer=regularizer, solvers=solvers, K=K, p=p, n=n,
        lam=lam, N=N, batch_size=batch_size, seeds=seeds, **given,
    )


@dataclass(frozen=True)
class BoundsConfig:
    problem: str  # quadratic | ortho-lasso
    solver: str   # sg | ssg
    p: int
    N: int
    sigma: float = 0.0
    lam: Optional[float] = None
    R: int = 20
    seed: int = 0
    D: float = 1.0


def parse_bounds_config(text: str) -> BoundsConfig:
    pairs = _pairs(text, BoundsConfig)
    problem = _choice(pairs, "problem", BOUND_PROBLEMS,
                      why="verify-bounds needs a closed-form optimum: ")
    solver = _choice(pairs, "solver", ("sg", "ssg"))
    p = _number(pairs, "p", int, 1)
    N = _number(pairs, "N", int, 1, maximum=_MAX_ITERATIONS)
    given = _given(pairs, ("sigma", float, 0.0), ("R", int, 1), ("seed", int))

    if problem == "ortho-lasso":
        given["lam"] = _number(pairs, "lambda", float, 0.0)
        _forbid(pairs, "D", "derived from the closed-form optimum for ortho-lasso")
        if p % 2 != 0:
            raise ConfigError("p", f"ortho-lasso requires even p, got {p}")
        check_memory("p", f"{p}^2 design entries at {ORTHO_LASSO_BYTES_PER_ENTRY} bytes each "
                     "to build", ORTHO_LASSO_BYTES_PER_ENTRY * p * p)
    else:
        _forbid(pairs, "lambda", "quadratic instance has no penalty")
        # The iterates overshoot the optimum at distance D by up to about 1.4 D,
        # so a D past half the divergence guard would end a convergent run.
        given |= _given(pairs, ("D", float, None, OVERFLOW_LIMIT / 2))
        check_memory("p", f"p={p} coordinates", 8 * p)

    cfg = BoundsConfig(problem=problem, solver=solver, p=p, N=N, **given)
    _check_seed(cfg.seed, cfg.R)
    return cfg


@dataclass(frozen=True)
class GenDataConfig:
    problem: str
    K: int
    p: int
    seed: int


def parse_gendata_config(text: str) -> GenDataConfig:
    pairs = _pairs(text, GenDataConfig)
    problem = _choice(pairs, "problem", ("linear-discrete", "logistic"),
                      why="gen-data writes a finite dataset: ")
    K = _number(pairs, "K", int, 1)
    p = _number(pairs, "p", int, 1)
    if problem == "linear-discrete" and p % 2 != 0:
        raise ConfigError("p", f"linear-discrete requires even p, got {p}")
    _check_footprint(K, p, gram=False)
    seed = _number(pairs, "seed", int)
    _check_seed(seed)
    return GenDataConfig(problem=problem, K=K, p=p, seed=seed)
