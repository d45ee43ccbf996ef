"""The one rule for a scalar argument (``core.as_count`` and ``core.as_real``),
at every setup function that takes one: a count is an integer (a Python or
NumPy int, not 2.0) of at least its least value, a real parameter a finite
number >= 0, or > 0 where the function needs it positive, and anything else
raises ``ParameterError`` naming the argument. The per-iteration code keeps
its inline checks and calls neither helper."""

import math

import numpy as np
import pytest

from composite_sgd import core, problems, regularizers, smoothing, solvers
from composite_sgd.core import ParameterError, RngStream
from composite_sgd.problems import (
    ContinuousLinearOracle,
    ExactOracle,
    GaussianNoiseOracle,
    MinibatchLinearOracle,
    gen_linear_dataset,
    gen_logistic_dataset,
    ortho_lasso_instance,
)
from composite_sgd.regularizers import (
    GroupStructure,
    Regularizer,
    build_hierarchical,
    group_norm,
    l1,
)
from composite_sgd.smoothing import (
    SmoothedRegularizer,
    lipschitz_mu,
    mu_schedule,
    smoothed,
    smoothed_gradient,
)
from composite_sgd.solvers import (
    acsa_eta,
    horizon_eta,
    pilot_sigma_sq,
    resolve_acsa_params,
    run_acsa,
    run_sg,
    run_ssg,
    theorem_bound,
    theorem_bound_smoothed,
)

# Valid values of every other argument below.
V = np.array([0.5, 1.0, 2.0, 0.25])
LINEAR = gen_linear_dataset(12, 4, RngStream(1))
ORACLE = MinibatchLinearOracle(LINEAR, 5)
REG = l1(0.3, 4)
OBJECTIVE = lambda x: 0.5 * float((x - V) @ (x - V))
PENALTIES = {
    "l1": REG,
    "tree": group_norm(0.3, build_hierarchical(2)),
    "overlap": group_norm(0.3, GroupStructure([0, 1, 1, 2, 2, 3], [2, 2, 2], [1.0, 1.5, 2.0], 4)),
}

# An argument's rule: a count of at least ``least``, or a real >= 0 or > 0.
COUNT0, COUNT1, COUNT2 = ("count", 0), ("count", 1), ("count", 2)
REAL, POSITIVE = ("real", ">="), ("real", ">")


def _sample(oracle):
    return oracle.sample(V, RngStream(2))


def _at(eta):
    return [eta(t) for t in range(7)]


def _traced(run):
    # a run's final iterate, then its trace's objectives
    def call(**kwargs):
        x, rows = run(**kwargs)
        return np.concatenate([x, [row.objective for row in rows]])
    return call


def _by_keyword(entry, fn, rules):
    # One case per argument of fn, each passed by keyword with the others valid.
    valid = {name: value for name, (_, value) in rules.items()}
    for name, (rule, value) in rules.items():
        yield entry, name, rule, value, lambda v, name=name: fn(**{**valid, name: v})


def _cases():
    # (entry point, argument, its rule, a valid value, the call passing v as
    # that argument and valid values elsewhere, returning numbers to compare)
    yield "RngStream.uniform", "n", COUNT0, 3, lambda v: RngStream(1).uniform(v)
    yield "RngStream.normal", "n", COUNT1, 3, lambda v: RngStream(1).normal(v)
    yield from _by_keyword("gen_linear_dataset",
                           lambda **kw: gen_linear_dataset(rng=RngStream(1), **kw).X,
                           {"K": (COUNT1, 6), "p": (COUNT1, 4)})
    yield from _by_keyword("gen_logistic_dataset",
                           lambda **kw: gen_logistic_dataset(rng=RngStream(1), **kw).X,
                           {"K": (COUNT1, 6), "p": (COUNT1, 4)})
    yield ("MinibatchLinearOracle", "batch", COUNT1, 5,
           lambda v: _sample(MinibatchLinearOracle(LINEAR, v)))
    yield ("ContinuousLinearOracle", "batch", COUNT1, 5,
           lambda v: _sample(ContinuousLinearOracle(V, v)))
    yield ("GaussianNoiseOracle", "sigma", REAL, 0.5,
           lambda v: _sample(GaussianNoiseOracle(ExactOracle(lambda x: x - V, 4), v)))
    yield ("ortho_lasso_instance", "p", COUNT1, 4,
           lambda v: ortho_lasso_instance(v, 0.1, RngStream(1))[1])
    yield ("GroupStructure", "p", COUNT1, 4,
           lambda v: GroupStructure([0, 1, 2, 3], [2, 2], [1.0, 2.0], v).flat_index)
    yield "build_hierarchical", "n", COUNT0, 2, lambda v: build_hierarchical(v).flat_index
    yield "Regularizer", "p", COUNT1, 4, lambda v: Regularizer(0.3, v).a_weights
    yield "l1", "p", COUNT1, 4, lambda v: [l1(0.3, v).p, l1(0.3, v).M]
    yield ("SmoothedRegularizer", "mu", POSITIVE, 0.5,
           lambda v: smoothed_gradient(SmoothedRegularizer(REG, v), V))
    yield from _by_keyword("mu_schedule", mu_schedule, {"A_norm": (REAL, 0.3), "N": (COUNT0, 10)})
    yield "smoothed", "N", COUNT0, 10, lambda v: smoothed(REG, N=v).mu
    yield "lipschitz_mu", "L", REAL, 2.0, lambda v: lipschitz_mu(v, smoothed(REG, mu=0.5))
    yield ("pilot_sigma_sq", "draws", COUNT2, 3,
           lambda v: pilot_sigma_sq(ORACLE, V, RngStream(3), v))
    yield from _by_keyword("resolve_acsa_params", resolve_acsa_params, {
        "L": (REAL, 2.0), "N": (COUNT0, 10), "sigma_sq": (REAL, 3.0), "D": (POSITIVE, 0.5)})
    bound = {"D": (REAL, 0.5), "sigma": (REAL, 1.5), "L": (REAL, 2.0), "N": (COUNT0, 10)}
    yield from _by_keyword("theorem_bound", theorem_bound, bound)
    yield from _by_keyword("theorem_bound_smoothed", theorem_bound_smoothed,
                           {**bound, "A_norm": (REAL, 0.3), "M": (REAL, 2.0)})
    horizon = {"N": (COUNT1, 6), "L": (POSITIVE, 2.0)}
    yield from _by_keyword("horizon_eta", lambda **kw: _at(horizon_eta(**kw)), horizon)
    acsa = {**horizon, "gamma_star": (POSITIVE, 5.0)}
    yield from _by_keyword("acsa_eta", lambda **kw: _at(acsa_eta(**kw)), acsa)
    run = dict(oracle=ORACLE, reg=REG, smooth_objective=OBJECTIVE)
    yield from _by_keyword("run_sg", _traced(lambda **kw: run_sg(rng=RngStream(4), **run, **kw)),
                           horizon)
    yield from _by_keyword("run_acsa",
                           _traced(lambda **kw: run_acsa(rng=RngStream(4), **run, **kw)), acsa)
    # ssg's L only has to give L_mu = L + ||A||^2 / mu > 0, so with a penalty 0 is in range
    sreg = smoothed(REG, mu=0.5)
    yield from _by_keyword("run_ssg", _traced(lambda **kw: run_ssg(
        ORACLE, sreg, rng=RngStream(4), smooth_objective=OBJECTIVE, **kw)),
        {"N": (COUNT1, 6), "L": (REAL, 2.0)})


CASES = [pytest.param(name, rule, valid, call, id=f"{entry}-{name}")
         for entry, name, rule, valid, call in _cases()]


def _refused(name, rule, valid):
    # (value, the message's start) for each value the rule refuses
    kind, bound = rule
    if kind == "count":
        message = rf"^{name} must be an integer >= {bound}, got "
        return [(v, message) for v in (2.5, float(bound + 1), np.float64(bound + 1),
                                       str(bound + 1), None, bound - 1, np.int64(bound - 1))]
    message = rf"^{name} must be a finite number {bound} 0, got "
    below = [-1.0, -math.ulp(0.0)] + [0.0, 0] * (bound == ">")
    return [(v, message) for v in [math.nan, math.inf, -math.inf, str(valid), None] + below]


@pytest.mark.parametrize("name, rule, valid, call", CASES)
def test_outside_rule_names_argument(name, rule, valid, call):
    for value, message in _refused(name, rule, valid):
        with pytest.raises(ParameterError, match=message):
            call(value)


def _bytes(out) -> bytes:
    return np.asarray(out, dtype=np.float64).tobytes()


@pytest.mark.parametrize("name, rule, valid, call", CASES)
def test_numpy_scalar_same_bytes(name, rule, valid, call):
    # a NumPy int for a count, a NumPy float for a real parameter
    numpy_value = np.int64(valid) if rule[0] == "count" else np.float64(valid)
    assert _bytes(call(numpy_value)) == _bytes(call(valid))


# Each of these was accepted and gave a wrong result: a batch of 2.5 drew 2
# rows and divided by 2.5, 0.8 times the batch-2 gradient; a NaN sigma^2 or D
# gave gamma* = 2L, as max(2L, nan) drops the NaN; n = 2.7 built the n = 2
# tree; a NaN sigma gave NaN gradients; N = 2.5 was taken as a horizon.
SILENT = {
    "minibatch-batch-2.5-was-0.8x-gradient":
        lambda: _sample(MinibatchLinearOracle(LINEAR, 2.5)),
    "acsa-sigma_sq-nan-was-2L": lambda: resolve_acsa_params(1.0, 10, math.nan),
    "acsa-D-nan-was-2L": lambda: resolve_acsa_params(1.0, 10, 1.0, D=math.nan),
    "tree-n-2.7-was-the-n-2-tree": lambda: build_hierarchical(2.7),
    "noise-sigma-nan-was-nan-gradients":
        lambda: _sample(GaussianNoiseOracle(ExactOracle(lambda x: x - V, 4), math.nan)),
    "smoothed-N-2.5-was-accepted": lambda: smoothed(l1(0.1, 4), N=2.5),
}


@pytest.mark.parametrize("call", SILENT.values(), ids=SILENT.keys())
def test_silent_case_is_refused(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("reg", PENALTIES.values(), ids=PENALTIES.keys())
def test_no_iteration_calls_the_scalar_rule(monkeypatch, reg):
    # Every call of either helper, from any module, is counted: a run's
    # count is its setup's, the same at N = 2 as at N = 40.
    calls = []
    for helper in (core.as_count, core.as_real):
        def counted(*args, helper=helper, **kwargs):
            calls.append(helper.__name__)
            return helper(*args, **kwargs)
        for module in (core, problems, regularizers, smoothing, solvers):
            if hasattr(module, helper.__name__):
                monkeypatch.setattr(module, helper.__name__, counted)
    sreg = smoothed(reg, mu=0.5)
    runs = {
        "sg": lambda N: run_sg(ORACLE, reg, 2.0, N, RngStream(4), OBJECTIVE),
        "ssg": lambda N: run_ssg(ORACLE, sreg, 2.0, N, RngStream(4), OBJECTIVE),
        "acsa": lambda N: run_acsa(ORACLE, reg, 2.0, N, 5.0, RngStream(4), OBJECTIVE),
    }
    for solver, run in runs.items():
        counts = []
        for N in (2, 40):
            calls.clear()
            run(N)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, (solver, counts)
