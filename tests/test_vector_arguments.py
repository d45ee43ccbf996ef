"""The one rule for a vector argument (``core.as_vector``), at every entry
point that takes one: an array-like is coerced to float64, so a list gives
the ndarray's bytes, and a wrong length or a 2-d input raises
``DimensionError`` naming the argument."""

import numpy as np
import pytest

from composite_sgd.core import DimensionError, RngStream, as_vector
from composite_sgd.problems import (
    ContinuousLinearOracle,
    Dataset,
    MinibatchLinearOracle,
    continuous_gradient,
    continuous_objective,
    exact_gradient,
    exact_objective_linear,
    exact_objective_logistic,
    gen_linear_dataset,
    gen_logistic_dataset,
)
from composite_sgd.regularizers import (
    GroupStructure,
    build_hierarchical,
    evaluate,
    group_norm,
    l1,
    prox,
)
from composite_sgd.smoothing import maximizer, smoothed, smoothed_gradient, smoothed_value

# A valid value of every argument below, weights included.
V = np.array([0.5, 1.0, 2.0, 0.25])
LINEAR = gen_linear_dataset(12, 4, RngStream(1))
LOGISTIC = gen_logistic_dataset(12, 4, RngStream(1))
PENALTIES = {
    "l1": l1(0.3, 4),
    "tree": group_norm(0.3, build_hierarchical(2)),
    "overlap": group_norm(0.3, GroupStructure([0, 1, 1, 2, 2, 3], [2, 2, 2], [1.0, 1.5, 2.0], 4)),
}


def _cases():
    # (id, argument name, call passing v as that argument, the name a wrong
    # length is reported under: the argument's own, the one it is checked
    # against, or None where any length is taken)
    yield "as_vector", "x", lambda v: as_vector(v, 4), "x"
    for kind, reg in PENALTIES.items():
        s = smoothed(reg, mu=0.5)
        yield f"evaluate-{kind}", "beta", lambda v, reg=reg: evaluate(reg, v), "beta"
        yield f"prox-g-{kind}", "g", lambda v, reg=reg: prox(reg, v, V, 2.0), "g"
        yield f"prox-z-{kind}", "z", lambda v, reg=reg: prox(reg, V, v, 2.0), "z"
        for fn in (maximizer, smoothed_value, smoothed_gradient):
            yield f"{fn.__name__}-{kind}", "x", lambda v, fn=fn, s=s: fn(s, v), "x"
    yield "objective-linear", "beta", lambda v: exact_objective_linear(LINEAR, v), "beta"
    yield "objective-logistic", "beta", lambda v: exact_objective_logistic(LOGISTIC, v), "beta"
    for d in (LINEAR, LOGISTIC):
        yield f"gradient-{d.kind}", "beta", lambda v, d=d: exact_gradient(d, v), "beta"
        oracle = MinibatchLinearOracle(d, 5)
        yield f"oracle-{d.kind}", "x", lambda v, o=oracle: o.sample(v, RngStream(2)), "x"
    for fn in (continuous_objective, continuous_gradient):
        name = fn.__name__.replace("_", "-")
        yield f"{name}-beta", "beta", lambda v, fn=fn: fn(v, V), "beta"
        yield f"{name}-beta_hat", "beta_hat", lambda v, fn=fn: fn(V, v), "beta"
    oracle = ContinuousLinearOracle(V, 5)
    yield "oracle-continuous", "x", lambda v: oracle.sample(v, RngStream(2)), "x"
    yield ("oracle-continuous-beta_hat", "beta_hat",
           lambda v: ContinuousLinearOracle(v, 5).sample(V, RngStream(2)), None)
    yield ("gen_logistic_dataset", "beta_hat",
           lambda v: gen_logistic_dataset(12, 4, RngStream(3), beta_hat=v), "beta_hat")
    yield ("GroupStructure", "weights",
           lambda v: GroupStructure(np.arange(4), np.ones(4), v, 4), "weights")


CASES = [pytest.param(name, call, id=id) for id, name, call, _ in _cases()]
LENGTH_CASES = [pytest.param(name, call, id=id) for id, _, call, name in _cases() if name]


def _bytes(out) -> bytes:
    if isinstance(out, Dataset):
        return out.X.tobytes() + out.y.tobytes()
    if isinstance(out, GroupStructure):
        out = out.weights
    return np.asarray(out, dtype=np.float64).tobytes()


@pytest.mark.parametrize("name, call", CASES)
def test_list_gives_the_ndarray_bytes(name, call):
    assert _bytes(call(V.tolist())) == _bytes(call(V))


@pytest.mark.parametrize("name, call", CASES)
def test_two_d_input_raises_naming_the_argument(name, call):
    for bad in (V.reshape(2, 2), V[None, :], V.reshape(4, 1).tolist()):
        with pytest.raises(DimensionError, match=rf"^{name} must be a 1-d vector, got shape"):
            call(bad)


@pytest.mark.parametrize("name, call", LENGTH_CASES)
def test_wrong_length_raises_naming_the_argument(name, call):
    for bad in (V[:3], np.append(V, 1.0).tolist()):
        with pytest.raises(DimensionError, match=rf"^{name} has length \d, expected \d$"):
            call(bad)
