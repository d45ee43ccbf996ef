"""Synthetic regression problems and their stochastic gradient oracles.

Three families: least squares on a fixed design, least squares against a
continuous Gaussian data distribution (fresh-sample oracle, closed-form
objective), and logistic regression on unit-norm rows. The two finite-data
losses act on the linear predictor X x and differ only in its link (identity
or sigmoid), so one minibatch oracle and one full-data gradient serve both,
reading the link from the dataset's kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    Array,
    ConvergenceError,
    DimensionError,
    ParameterError,
    RngStream,
    as_count,
    as_real,
    as_vector,
)
from .regularizers import soft_threshold

POWER_ITERATION_TOL = 1e-8
POWER_ITERATION_MAX = 5000
_POWER_SEED = 0x9E3779B97F4A7C15  # fixed start vector seed, independent of user streams

LOGISTIC_ROW_NORM_TOL = 1e-12

# Row norms of a design are taken about this many entries at a time.
_NORM_BLOCK = 2**16


class Moments(NamedTuple):
    """A dataset's second moments: ``gram`` is the smaller Gram matrix, X^T X
    when K >= p and X X^T when K < p; a tall design (K >= p) also keeps X^T y
    and y^T y, which are None for a wide one."""

    gram: Array
    xty: Optional[Array]
    yty: Optional[float]


@dataclass(frozen=True)
class Dataset:
    """K observations: rows of X with responses (linear) or 0/1 labels (logistic).

    Logistic datasets must have unit-norm rows (to within 1e-12) and 0/1 labels.
    X and y are taken as float64 arrays (a float64 ndarray as the same object,
    anything else as a new array the dataset owns) and made read-only at
    construction, so ``moments``, formed on first use and kept, always
    describes them.
    """

    X: Array
    y: Array
    kind: str  # "linear" | "logistic"

    def __post_init__(self):
        if self.kind not in ("linear", "logistic"):
            raise ParameterError(f"unknown dataset kind {self.kind!r}")
        object.__setattr__(self, "X", np.asarray(self.X, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise DimensionError("X must be K x p and y length K")
        if self.X.shape[0] != self.y.shape[0]:
            raise DimensionError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise ParameterError("need K >= 1 and p >= 1")
        if self.kind == "logistic":
            # A tolerance check, so any summation order will do: this one
            # forms no K x p temporary.
            norms = np.sqrt(np.einsum("ij,ij->i", self.X, self.X))
            if np.any(np.abs(norms - 1.0) > LOGISTIC_ROW_NORM_TOL):
                raise ParameterError("logistic rows must have unit norm")
            if not np.all((self.y == 0.0) | (self.y == 1.0)):
                raise ParameterError("logistic labels must be 0 or 1")
        self.X.flags.writeable = False
        self.y.flags.writeable = False

    @cached_property
    def moments(self) -> Moments:
        """The Gram matrix (min(K, p) on a side) and, when K >= p, X^T y and
        y^T y; computed once per dataset."""
        X = self.X
        if self.K < self.p:
            return Moments(X @ X.T, None, None)
        # Contiguous like a residual vector, so y^T y has the same bits as the
        # residual form's ||X 0 - y||^2.
        y = np.ascontiguousarray(self.y)
        return Moments(X.T @ X, X.T @ y, float(y @ y))

    @property
    def K(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def ground_truth(kind: str, p: int) -> Array:
    """The generating coefficients: half ones then zeros (linear), all ones (logistic)."""
    if kind == "linear":
        if p % 2 != 0:
            raise ParameterError(f"linear ground truth needs even p, got {p}")
        beta = np.zeros(p)
        beta[: p // 2] = 1.0
        return beta
    if kind == "logistic":
        return np.ones(p)
    raise ParameterError(f"unknown dataset kind {kind!r}")


def gen_linear_dataset(K: int, p: int, rng: RngStream) -> Dataset:
    """Standard normal design, responses y = X beta + eps / 10, eps ~ N(0, 1)."""
    K, p = as_count(K, "K", 1), as_count(p, "p", 1)
    beta = ground_truth("linear", p)
    X = rng.normal(K * p).reshape(K, p)
    eps = rng.normal(K)
    y = X @ beta + eps / 10.0
    return Dataset(X, y, "linear")


def gen_logistic_dataset(K: int, p: int, rng: RngStream, beta_hat=None) -> Dataset:
    """Unit-normalized Gaussian rows with Bernoulli labels from the logistic model."""
    K, p = as_count(K, "K", 1), as_count(p, "p", 1)
    # Checked before any draw, so a refused beta_hat leaves rng where it was.
    beta = ground_truth("logistic", p) if beta_hat is None else as_vector(beta_hat, p, "beta_hat")
    X = rng.normal(K * p).reshape(K, p)
    norms = _row_norms(X)
    while np.any(norms == 0.0):  # probability-zero draw; resample those rows
        bad = np.flatnonzero(norms == 0.0)
        X[bad] = rng.normal(bad.size * p).reshape(bad.size, p)
        norms = _row_norms(X)
    X /= norms[:, None]
    prob = sigmoid(X @ beta)
    labels = (rng.uniform(K) < prob).astype(np.float64)
    return Dataset(X, labels, "logistic")


def _row_norms(X: Array) -> Array:
    # np.linalg.norm(X, axis=1) a block of rows at a time, so its squares take
    # no second K x p array; each row's norm has the same bits.
    rows = max(1, _NORM_BLOCK // X.shape[1])
    return np.concatenate([np.linalg.norm(X[i:i + rows], axis=1)
                           for i in range(0, X.shape[0], rows)])


def sigmoid(t) -> Array:
    """Numerically stable 1 / (1 + exp(-t)): with e = exp(-|t|), 1 / (1 + e)
    for t >= 0 and e / (1 + e) otherwise, so exp never overflows."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _log1p_exp(t: Array) -> Array:
    # log(1 + e^t) = max(t, 0) + log1p(exp(-|t|))
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def exact_objective_linear(d: Dataset, beta) -> float:
    """(1 / 2K) ||X beta - y||^2 over the full dataset.

    A tall design (K >= p) expands the square over the dataset's cached
    moments, (beta^T G beta - 2 (X^T y)^T beta + y^T y) / 2K with G = X^T X,
    at O(p^2) per call; the first call forms the moments unless
    ``lipschitz_linear`` already has. At beta = 0 this is bit-equal to the
    residual form; elsewhere the two differ by at most
    (K + 2p + 4) eps || |X| |beta| + |y| ||^2 / K, the rounding of either
    form, plus subnormal roundings where that underflows. A wide design
    (K < p) evaluates the residual, at O(Kp) per call.
    """
    beta = as_vector(beta, d.p, "beta")
    if d.K < d.p:
        r = d.X @ beta - d.y
        return float((r @ r) / (2.0 * d.K))
    gram, xty, yty = d.moments
    return float((beta @ (gram @ beta) - 2.0 * (xty @ beta) + yty) / (2.0 * d.K))


def exact_objective_logistic(d: Dataset, beta) -> float:
    """Average negative log-likelihood (1/K) sum log(1 + e^{t_i}) - y_i t_i."""
    beta = as_vector(beta, d.p, "beta")
    t = d.X @ beta
    return float(np.mean(_log1p_exp(t) - d.y * t))


def _link(d: Dataset, t: Array) -> Array:
    # The mean response at linear predictor t: t itself for a linear dataset,
    # sigmoid(t) for a logistic one.
    return sigmoid(t) if d.kind == "logistic" else t


def exact_gradient(d: Dataset, beta) -> Array:
    """Full-data gradient (1/K) X^T (link(X beta) - y) of the dataset's loss:
    the link is the identity for a linear dataset, the sigmoid for a logistic
    one."""
    beta = as_vector(beta, d.p, "beta")
    return d.X.T @ (_link(d, d.X @ beta) - d.y) / d.K


def continuous_objective(beta, beta_hat) -> float:
    """Closed-form expected half square loss when x ~ N(0, I), y = x^T beta_hat + eps.

    Equals (1/2) (beta^T beta - 2 beta^T beta_hat + ||beta_hat||^2 + 1).
    """
    beta_hat = as_vector(beta_hat, name="beta_hat")
    beta = as_vector(beta, beta_hat.shape[0], "beta")
    diff = beta - beta_hat
    return float(0.5 * (diff @ diff + 1.0))


def continuous_gradient(beta, beta_hat) -> Array:
    """beta - beta_hat; Lipschitz with constant 1."""
    beta_hat = as_vector(beta_hat, name="beta_hat")
    beta = as_vector(beta, beta_hat.shape[0], "beta")
    return beta - beta_hat


class MinibatchLinearOracle:
    """Uniform-with-replacement minibatch gradient of a loss on the linear
    predictor X x: the square loss on a linear dataset, the logistic loss on
    a logistic one. They differ only in the link applied to X_S x."""

    def __init__(self, dataset: Dataset, batch: int):
        self.dataset = dataset
        self.batch = as_count(batch, "batch", 1)
        self.dim = dataset.p
        # 0-d: numpy converts a Python int operand on every call, not a 0-d array
        self._divisor = np.array(float(self.batch))

    def sample(self, x: Array, rng: RngStream) -> Array:
        # The minibatch gradient (1/|S|) X_S^T (link(X_S x) - y_S); rng.indices
        # draws S in range, so only x needs a check: inline for an ndarray of
        # the right shape, which is all the solvers pass, as_vector otherwise.
        # ndarray.dot gives the bits of @ at about half its per-call cost;
        # X.take copies the rows X[S] does at about a third of its cost, while
        # y[S] is the cheaper 1-D gather.
        if not isinstance(x, np.ndarray) or x.shape != (self.dim,):
            x = as_vector(x, self.dim)
        S = rng.indices(self.batch, self.dataset.K)
        XS = self.dataset.X.take(S, axis=0)
        return XS.T.dot(_link(self.dataset, XS.dot(x)) - self.dataset.y[S]) / self._divisor


class ContinuousLinearOracle:
    """Fresh Gaussian minibatch each call; unbiased for beta - beta_hat.

    Draw order per call: batch * p design normals, then batch noise normals.
    """

    def __init__(self, beta_hat, batch: int):
        self.beta_hat = as_vector(beta_hat, name="beta_hat")
        self.batch = as_count(batch, "batch", 1)
        self.dim = self.beta_hat.shape[0]
        self._divisor = np.array(float(self.batch))  # 0-d, as in MinibatchLinearOracle

    def sample(self, x: Array, rng: RngStream) -> Array:
        if not isinstance(x, np.ndarray) or x.shape != (self.dim,):  # as above
            x = as_vector(x, self.dim)
        X = rng.normal(self.batch * self.dim).reshape(self.batch, self.dim)
        eps = rng.normal(self.batch)
        y = X.dot(self.beta_hat) + eps
        return X.T.dot(X.dot(x) - y) / self._divisor


class ExactOracle:
    """Wraps a deterministic gradient function; sigma = 0."""

    def __init__(self, grad_fn, dim: int):
        self.grad_fn = grad_fn
        self.dim = dim

    def sample(self, x: Array, rng: RngStream) -> Array:
        return self.grad_fn(x)


class GaussianNoiseOracle:
    """Adds isotropic Gaussian noise with E ||noise||^2 = sigma^2 to a base oracle."""

    def __init__(self, base, sigma: float):
        self.base = base
        self.sigma = as_real(sigma, "sigma")
        self.dim = base.dim
        self._scale = np.array(self.sigma / np.sqrt(self.dim))  # 0-d, as the batch divisors

    def sample(self, x: Array, rng: RngStream) -> Array:
        g = self.base.sample(x, rng)
        if self.sigma == 0.0:
            return g
        return g + self._scale * rng.normal(self.dim)


def lipschitz_linear(d: Dataset, convention: str = "scaled") -> float:
    """Largest eigenvalue of X^T X by power iteration.

    ``scaled`` divides by K, giving the true gradient Lipschitz constant of the
    averaged loss; ``paper`` returns the raw eigenvalue. It iterates on the
    dataset's cached Gram matrix (``Dataset.moments``): X^T X, or for a wide
    design (K < p) the K x K matrix X X^T, which has the same largest
    eigenvalue, so the matrix formed is min(K, p) on a side. Forming it here
    also readies the moments ``exact_objective_linear`` reads.
    """
    if convention not in ("paper", "scaled"):
        raise ParameterError(f"unknown convention {convention!r}")
    M = d.moments.gram
    start = RngStream(_POWER_SEED)
    b = start.normal(M.shape[0])
    b /= np.linalg.norm(b)
    lam = 0.0
    for _ in range(POWER_ITERATION_MAX):
        w = M @ b
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        lam_new = float(b @ w)
        b = w / nrm
        if abs(lam_new - lam) <= POWER_ITERATION_TOL * max(abs(lam_new), 1e-300):
            return lam_new / d.K if convention == "scaled" else lam_new
        lam = lam_new
    raise ConvergenceError(
        f"power iteration did not converge in {POWER_ITERATION_MAX} steps",
        last_iterate=lam,
    )


def ortho_lasso_instance(p: int, lam: float, rng: RngStream):
    """Square-loss + l1 instance with an orthogonal design, so the optimum has a
    closed form by soft thresholding.

    X = sqrt(p) Q with Q orthogonal and K = p rows, hence the scaled Lipschitz
    constant is exactly 1 and the objective is (1/2) ||beta - b||^2 + const with
    b = Q^T y / sqrt(p). Returns (dataset, x_star).
    """
    p = as_count(p, "p", 1)
    G = rng.normal(p * p).reshape(p, p)
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))  # fix the sign convention so Q is deterministic
    X = np.sqrt(p) * Q
    beta_hat = ground_truth("linear", p)
    eps = rng.normal(p)
    y = X @ beta_hat + eps / 10.0
    b = Q.T @ y / np.sqrt(p)
    x_star = soft_threshold(b, lam)
    return Dataset(X, y, "linear"), x_star
