"""Stochastic proximal solvers for composite objectives f(x) + lam * Omega(x).

Three variants share one accelerated two-sequence recursion driven by a
stochastic gradient oracle G with E G(x, .) = grad f(x):

    y_t     = (1 - theta_t) x_t + theta_t z_t,      theta_t = 2 / (2 + t)
    z_{t+1} = argmin_x { <x, d_t> + (eta(t) / 2) ||x - z_t||^2 + h(x) }
    x_{t+1} = (1 - theta_t) x_t + theta_t z_{t+1}

They differ only in the step map and in the prox weight eta(t) = gamma_t L_eff:

``sg``   takes d_t = G(y_t), h = the penalty, solves the prox exactly, and uses
         eta(t) = gamma_t L with gamma_t = (2/(t+2)) (N^{3/2}/L + 2).
``ssg``  replaces the penalty by its smoothed form: d_t = G(y_t) + A^T v_mu(y_t),
         h = 0, so the prox step is the closed-form z_t - d_t / eta(t); eta(t)
         is sg's with L replaced by L_mu = L + ||A||^2 / mu.
``acsa`` is the sg step map with the baseline weight eta(t) = 2 gamma* / (L (t+1)) L.
"""

from __future__ import annotations

import math
import time
from typing import Callable, List, Protocol, Tuple

import numpy as np

from .core import Array, DivergenceError, ParameterError, RngStream, TraceRecord
from .regularizers import ConvergenceError, Regularizer, evaluate, prox
from .smoothing import SmoothedRegularizer, lipschitz_mu, smoothed_gradient

# Abort when any iterate coordinate exceeds this; a mis-set Lipschitz constant
# silently explodes otherwise.
OVERFLOW_LIMIT = 1e12
_OVERFLOW_SQ_HALF = OVERFLOW_LIMIT**2 / 2

ACSA_PILOT_DRAWS = 30


class StochasticOracle(Protocol):
    dim: int

    def sample(self, x: Array, rng: RngStream) -> Array: ...


def pilot_sigma_sq(oracle: StochasticOracle, x0: Array, rng: RngStream,
                   draws: int = ACSA_PILOT_DRAWS) -> float:
    """Unbiased estimate of E ||G(x0) - grad f(x0)||^2 from repeated draws."""
    if draws < 2:
        raise ParameterError(f"need >= 2 pilot draws, got {draws}")
    samples = np.stack([oracle.sample(x0, rng) for _ in range(draws)])
    centered = samples - samples.mean(axis=0)
    return float((centered**2).sum() / (draws - 1))


def resolve_acsa_params(L: float, N: int, sigma_sq: float, D: float = 1.0) -> float:
    """The baseline step-size scale
    gamma* = max(2L, sqrt(2 sigma^2 N(N+1)(N+2) / (3 D^2))), which ``run_acsa``
    takes; ``sigma_sq`` is the oracle's variance, e.g. from ``pilot_sigma_sq``."""
    if D <= 0:
        raise ParameterError(f"D must be > 0, got {D}")
    if sigma_sq < 0:
        raise ParameterError(f"sigma_sq must be >= 0, got {sigma_sq}")
    return max(
        2.0 * L,
        math.sqrt(2.0 * sigma_sq * N * (N + 1) * (N + 2) / (3.0 * D * D)),
    )


def theorem_bound(D: float, sigma: float, L: float, N: int) -> float:
    """Expected-gap guarantee after N iterations of the sg loop.

    (2 D^2 + sigma^2) / (N+2)^{1/2} + L (4 D^2 + 2 sigma^2) / (N+2)^2.
    """
    _require_nonnegative(D=D, sigma=sigma, L=L, N=N)
    return (2.0 * D * D + sigma * sigma) / math.sqrt(N + 2.0) + L * (
        4.0 * D * D + 2.0 * sigma * sigma
    ) / (N + 2.0) ** 2


def theorem_bound_smoothed(D: float, sigma: float, L: float, A_norm: float,
                           M: float, N: int) -> float:
    """Guarantee for the smoothed loop under mu = ||A|| / (N+2); adds the
    smoothing penalty (||A|| / (N+2)) (M + 4 D^2 + 2 sigma^2)."""
    _require_nonnegative(D=D, sigma=sigma, L=L, A_norm=A_norm, M=M, N=N)
    return theorem_bound(D, sigma, L, N) + (A_norm / (N + 2.0)) * (
        M + (4.0 * D * D + 2.0 * sigma * sigma)
    )


def _require_nonnegative(**kwargs):
    for name, value in kwargs.items():
        if value < 0:
            raise ParameterError(f"{name} must be >= 0, got {value}")


def _check_overflow(z: Array, t: int) -> None:
    # z alone: x_{t+1} = fl(fl(fl(1 - theta) x_t) + fl(theta z_{t+1})) with x_0 = 0 is
    # finite while every z passes, and tops the largest max|z| by a factor of at most
    # (1 + 2^-53)^{3(t+1)}, about 1 + 3.3e-10 at t = 1e6. Written as "not <=" so that
    # NaN, which fails every comparison, trips it; the ufunc reduction propagates NaN
    # as np.max does, without its Python wrapper on every iteration.
    # The one-call fast path before it: each of the p squares in ||z||^2 passes
    # through at most p roundings, each shrinking it by at most a factor 1 - 2^-53,
    # so the computed sum is at least (1 - p 2^-53) times the true one (squares that
    # underflow are far below the limit), and a value of at most LIMIT^2 / 2 gives
    # max|z| <= LIMIT for every p up to 2^52. NaN, inf and every larger value fall
    # through to the exact test. np.vdot, unlike ndarray.dot and @, does not warn
    # when the squares overflow.
    if np.vdot(z, z) <= _OVERFLOW_SQ_HALF:
        return
    if not np.maximum.reduce(np.abs(z)) <= OVERFLOW_LIMIT:
        raise DivergenceError(
            f"iterate is not finite or exceeded {OVERFLOW_LIMIT:g} at iteration {t}; "
            "is the Lipschitz constant set too small?",
            iteration=t,
        )


def _require_horizon(N: int, L_eff: float) -> None:
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    if L_eff <= 0:
        raise ParameterError(f"the Lipschitz constant must be > 0, got {L_eff}")


def horizon_eta(N: int, L_eff: float) -> Callable[[int], float]:
    """sg's and ssg's prox weight eta(t) = gamma_t L_eff with
    gamma_t = (2/(t+2)) (N^{3/2}/L_eff + 2), which satisfies gamma_t > theta_t
    and the telescoping inequality
    (1 - theta_{t+1}) / (theta_{t+1} gamma_{t+1}) <= 1 / (theta_t gamma_t)."""
    _require_horizon(N, L_eff)
    scale = N**1.5 / L_eff + 2.0
    return lambda t: (2.0 / (t + 2.0)) * scale * L_eff


def acsa_eta(N: int, L: float, gamma_star: float) -> Callable[[int], float]:
    """acsa's prox weight eta(t) = gamma_t L with gamma_t = 2 gamma* / (L (t+1))."""
    _require_horizon(N, L)
    return lambda t: 2.0 * gamma_star / (L * (t + 1.0)) * L


def _run_two_sequence(oracle, step, eta, N, reg, rng, smooth_objective, trace_every):
    # The one recursion; ``step(y, g, z, eta(t))`` maps to z_{t+1}. Every
    # ``trace_every`` iterations (and after the last) a row records the exact
    # objective smooth_objective + the penalty ``reg`` at x. The rows' clock
    # measures the solver: it stops while a row evaluates the objective.
    x = np.zeros(oracle.dim)
    z = np.zeros(oracle.dim)
    rows: List[TraceRecord] = []
    start = time.perf_counter()
    paused = 0.0

    def record(iteration, x):
        nonlocal paused
        stopped = time.perf_counter()
        value = float(smooth_objective(x) + evaluate(reg, x))
        rows.append(TraceRecord(iteration, stopped - start - paused, value))
        paused += time.perf_counter() - stopped

    if trace_every > 0:
        record(0, x)
    # theta_t and 1 - theta_t are computed as floats and written into 0-d
    # registers: a ufunc takes a 0-d array operand faster than a Python float
    # or np.float64, with the same bits.
    theta_0d, rest_0d = np.empty(()), np.empty(())
    for t in range(N + 1):
        th = 2.0 / (2.0 + t)
        theta_0d[()] = th
        rest_0d[()] = 1.0 - th
        x_part = rest_0d * x  # (1 - theta_t) x_t, shared by y_t and x_{t+1}
        y = x_part + theta_0d * z
        g = oracle.sample(y, rng)
        try:
            z = step(y, g, z, eta(t))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"prox failed at iteration {t}: {exc}", last_iterate=exc.last_iterate
            ) from exc
        x = x_part + theta_0d * z
        _check_overflow(z, t)
        if trace_every > 0 and ((t + 1) % trace_every == 0 or t == N):
            record(t + 1, x)
    return x, rows


def run_sg(oracle: StochasticOracle, reg: Regularizer, L: float, N: int,
           rng: RngStream, smooth_objective: Callable[[Array], float],
           trace_every: int = 1) -> Tuple[Array, List[TraceRecord]]:
    """Stochastic proximal loop with the accelerated two-sequence schedule.

    Runs iterations t = 0..N from x_0 = z_0 = 0 and returns x_{N+1} together
    with trace rows of the exact objective smooth_objective + penalty, sampled
    every ``trace_every`` iterations (0 disables tracing).
    """
    step = lambda y, g, z, eta: prox(reg, g, z, eta)
    return _run_two_sequence(oracle, step, horizon_eta(N, L), N, reg, rng,
                             smooth_objective, trace_every)


def run_acsa(oracle: StochasticOracle, reg: Regularizer, L: float, N: int,
             gamma_star: float, rng: RngStream,
             smooth_objective: Callable[[Array], float],
             trace_every: int = 1) -> Tuple[Array, List[TraceRecord]]:
    """Baseline: the sg loop with step sizes gamma_t = 2 gamma* / (L (t+1)),
    where ``gamma_star`` is gamma* from ``resolve_acsa_params``."""
    step = lambda y, g, z, eta: prox(reg, g, z, eta)
    return _run_two_sequence(oracle, step, acsa_eta(N, L, gamma_star), N, reg, rng,
                             smooth_objective, trace_every)


def run_ssg(oracle: StochasticOracle, sreg: SmoothedRegularizer, L: float, N: int,
            rng: RngStream, smooth_objective: Callable[[Array], float],
            trace_every: int = 1) -> Tuple[Array, List[TraceRecord]]:
    """Smoothed variant: closed-form steps against G + A^T v_mu, traced on the
    original (non-smoothed) objective.

    The effective Lipschitz constant is L_mu = L + ||A||^2 / mu. A zero
    penalty (A = 0) needs no special case: L_mu = L and A^T v_mu = 0.
    """
    eta_0d = np.empty(())  # eta as a 0-d operand, as in _run_two_sequence

    def step(y, g, z, eta):  # h = 0: the prox step is closed-form
        eta_0d[()] = eta
        return z - (g + smoothed_gradient(sreg, y)) / eta_0d

    return _run_two_sequence(oracle, step, horizon_eta(N, lipschitz_mu(L, sreg)), N,
                             sreg.base, rng, smooth_objective, trace_every)
