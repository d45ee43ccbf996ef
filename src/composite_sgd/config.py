"""Flat key=value run configurations for the experiment harness.

One ``key=value`` pair per line, ``#`` starts a comment, unknown keys are hard
errors. ``solver`` and ``seed`` accept comma-separated lists.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Optional

PROBLEMS = ("linear-discrete", "linear-continuous", "logistic")
REGULARIZERS = ("l1", "hierarchical", "custom")
SOLVERS = ("sg", "ssg", "acsa")
CONVENTIONS = ("paper", "scaled")
BOUND_PROBLEMS = ("quadratic", "ortho-lasso")

_BOUNDS_KEYS = {"problem", "solver", "p", "N", "sigma", "lambda", "R", "seed", "D"}
_GENDATA_KEYS = {"problem", "K", "p", "seed"}


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


def _reject_unknown(pairs: dict[str, str], allowed: set[str]) -> None:
    for key in pairs:
        if key not in allowed:
            raise ConfigError(key, "unknown key")


def _get_int(pairs, key, minimum=None):
    try:
        value = int(pairs[key])
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {pairs[key]!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {value}")
    return value


def _get_float(pairs, key, minimum=None, strict=False):
    try:
        value = float(pairs[key])
    except ValueError:
        raise ConfigError(key, f"expected a number, got {pairs[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {pairs[key]!r}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        op = ">" if strict else ">="
        raise ConfigError(key, f"must be {op} {minimum}, got {value}")
    return value


def physical_memory() -> Optional[int]:
    """The machine's physical memory in bytes, or None where the operating
    system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_footprint(K: int, p: int, gram: bool) -> None:
    """Refuse a dataset that cannot fit in physical memory: K * p doubles for
    the design, plus min(K, p)^2 for the Gram matrix a linear dataset keeps."""
    need = 8 * K * p + (8 * min(K, p) ** 2 if gram else 0)
    have = physical_memory()
    if have is not None and need > have:
        raise ConfigError(
            "K", f"K={K} rows of p={p} need {need / 2**30:.3g} GiB, more than "
                 f"the {have / 2**30:.3g} GiB of physical memory"
        )


def _require(pairs, key):
    if key not in pairs:
        raise ConfigError(key, "required field is missing")


def _forbid(pairs, key, why):
    if key in pairs:
        raise ConfigError(key, why)


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
        """The fields that pin the problem instance, by config key; compare
        requires these equal."""
        echo = self.echo()
        return {key: echo[key] for key in _INSTANCE_KEYS}


# The config keys whose RunConfig field has another name.
_KEY_OF_FIELD = {"lam": "lambda", "solvers": "solver", "seeds": "seed"}
_RUN_KEYS = {_KEY_OF_FIELD.get(f.name, f.name) for f in fields(RunConfig)}
_INSTANCE_KEYS = (
    "problem", "regularizer", "K", "p", "n", "lambda", "lipschitz_convention",
    "lipschitz_override", "seed", "structure_file",
)


def parse_run_config(text: str) -> RunConfig:
    pairs = parse_kv(text)
    _reject_unknown(pairs, _RUN_KEYS)
    for key in ("problem", "regularizer", "solver", "lambda", "N", "batch_size", "seed"):
        _require(pairs, key)

    problem = pairs["problem"]
    if problem not in PROBLEMS:
        raise ConfigError("problem", f"must be one of {PROBLEMS}, got {problem!r}")
    regularizer = pairs["regularizer"]
    if regularizer not in REGULARIZERS:
        raise ConfigError("regularizer", f"must be one of {REGULARIZERS}, got {regularizer!r}")

    solvers = tuple(s.strip() for s in pairs["solver"].split(","))
    if not solvers or any(s not in SOLVERS for s in solvers):
        raise ConfigError("solver", f"entries must be among {SOLVERS}, got {pairs['solver']!r}")
    if len(set(solvers)) != len(solvers):
        raise ConfigError("solver", "repeated solver")

    if problem == "linear-continuous":
        _forbid(pairs, "K", "not applicable to linear-continuous (infinite data)")
        K = None
    else:
        _require(pairs, "K")
        K = _get_int(pairs, "K", minimum=1)

    # Dimension: l1/custom take p directly; hierarchical takes n (or a power-of-two p).
    if regularizer == "hierarchical":
        _forbid(pairs, "structure_file", "only valid with the custom regularizer")
        if "n" in pairs:
            n = _get_int(pairs, "n", minimum=0)
            p = 2**n
            if "p" in pairs and _get_int(pairs, "p", minimum=1) != p:
                raise ConfigError("p", f"inconsistent with n={n} (expected {p})")
        elif "p" in pairs:
            p = _get_int(pairs, "p", minimum=1)
            if p & (p - 1) != 0:
                raise ConfigError("p", f"hierarchical regularizer requires p = 2^n, got {p}")
            n = p.bit_length() - 1
        else:
            raise ConfigError("n", "required field is missing (hierarchical regularizer)")
    else:
        _forbid(pairs, "n", "only valid with the hierarchical regularizer")
        _require(pairs, "p")
        p = _get_int(pairs, "p", minimum=1)
        n = None
        if regularizer == "custom":
            _require(pairs, "structure_file")
        else:
            _forbid(pairs, "structure_file", "only valid with the custom regularizer")
    structure_file = pairs.get("structure_file")

    if problem in ("linear-discrete", "linear-continuous") and p % 2 != 0:
        raise ConfigError("p", f"linear problems require even p (half-ones truth), got {p}")
    if K is not None:
        _check_footprint(K, p, gram=problem == "linear-discrete")

    lam = _get_float(pairs, "lambda", minimum=0.0)
    N = _get_int(pairs, "N", minimum=1)

    if pairs["batch_size"] == "full":
        batch_size = None
    else:
        batch_size = _get_int(pairs, "batch_size", minimum=1)

    seeds = []
    for tok in pairs["seed"].split(","):
        try:
            seeds.append(int(tok.strip()))
        except ValueError:
            raise ConfigError("seed", f"expected integers, got {pairs['seed']!r}") from None
    if any(s < 0 or s > 2**64 - 1 for s in seeds):
        raise ConfigError("seed", "seeds must fit in 64 unsigned bits")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seed", "repeated seed")

    trace_every = _get_int(pairs, "trace_every", minimum=1) if "trace_every" in pairs else 100

    convention = pairs.get("lipschitz_convention", "scaled")
    if convention not in CONVENTIONS:
        raise ConfigError("lipschitz_convention", f"must be one of {CONVENTIONS}")
    if "lipschitz_convention" in pairs and problem != "linear-discrete":
        raise ConfigError("lipschitz_convention", "only applies to linear-discrete")

    mu_override = _get_float(pairs, "mu_override", 0.0, strict=True) if "mu_override" in pairs else None
    acsa_sigma_sq = _get_float(pairs, "acsa_sigma_sq", 0.0) if "acsa_sigma_sq" in pairs else None
    acsa_d = _get_float(pairs, "acsa_d", 0.0, strict=True) if "acsa_d" in pairs else 1.0
    lipschitz_override = (
        _get_float(pairs, "lipschitz_override", 0.0, strict=True)
        if "lipschitz_override" in pairs else None
    )

    return RunConfig(
        problem=problem, regularizer=regularizer, solvers=solvers, K=K, p=p, n=n,
        lam=lam, N=N, batch_size=batch_size, seeds=tuple(seeds),
        trace_every=trace_every, lipschitz_convention=convention,
        mu_override=mu_override, acsa_sigma_sq=acsa_sigma_sq, acsa_d=acsa_d,
        lipschitz_override=lipschitz_override, structure_file=structure_file,
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
    pairs = parse_kv(text)
    _reject_unknown(pairs, _BOUNDS_KEYS)
    for key in ("problem", "solver", "p", "N"):
        _require(pairs, key)

    problem = pairs["problem"]
    if problem not in BOUND_PROBLEMS:
        raise ConfigError(
            "problem",
            f"no closed-form optimum for {problem!r}; must be one of {BOUND_PROBLEMS}",
        )
    solver = pairs["solver"]
    if solver not in ("sg", "ssg"):
        raise ConfigError("solver", f"must be sg or ssg, got {solver!r}")

    p = _get_int(pairs, "p", minimum=1)
    N = _get_int(pairs, "N", minimum=1)
    sigma = _get_float(pairs, "sigma", minimum=0.0) if "sigma" in pairs else 0.0
    R = _get_int(pairs, "R", minimum=1) if "R" in pairs else 20
    seed = _get_int(pairs, "seed", minimum=0) if "seed" in pairs else 0

    if problem == "ortho-lasso":
        _require(pairs, "lambda")
        lam = _get_float(pairs, "lambda", minimum=0.0)
        _forbid(pairs, "D", "derived from the closed-form optimum for ortho-lasso")
        if p % 2 != 0:
            raise ConfigError("p", f"ortho-lasso requires even p, got {p}")
        D = 1.0
    else:
        _forbid(pairs, "lambda", "quadratic instance has no penalty")
        lam = None
        D = _get_float(pairs, "D", 0.0, strict=True) if "D" in pairs else 1.0

    return BoundsConfig(problem=problem, solver=solver, p=p, N=N, sigma=sigma,
                        lam=lam, R=R, seed=seed, D=D)


@dataclass(frozen=True)
class GenDataConfig:
    problem: str
    K: int
    p: int
    seed: int


def parse_gendata_config(text: str) -> GenDataConfig:
    pairs = parse_kv(text)
    _reject_unknown(pairs, _GENDATA_KEYS)
    for key in ("problem", "K", "p", "seed"):
        _require(pairs, key)
    problem = pairs["problem"]
    if problem == "linear-continuous":
        raise ConfigError("problem", "linear-continuous has no finite dataset to write")
    if problem not in ("linear-discrete", "logistic"):
        raise ConfigError("problem", f"must be linear-discrete or logistic, got {problem!r}")
    K = _get_int(pairs, "K", minimum=1)
    p = _get_int(pairs, "p", minimum=1)
    if problem == "linear-discrete" and p % 2 != 0:
        raise ConfigError("p", f"linear-discrete requires even p, got {p}")
    _check_footprint(K, p, gram=False)
    seed = _get_int(pairs, "seed", minimum=0)
    return GenDataConfig(problem=problem, K=K, p=p, seed=seed)
