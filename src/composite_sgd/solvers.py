"""Stochastic proximal solvers for composite objectives f(x) + lam * Omega(x).

Three variants share one accelerated two-sequence recursion driven by a
stochastic gradient oracle G with E G(x, .) = grad f(x):

    y_t     = (1 - theta_t) x_t + theta_t z_t,      theta_t = 2 / (2 + t)
    z_{t+1} = argmin_x { <x, d_t> + (eta(t) / 2) ||x - z_t||^2 + h(x) }
    x_{t+1} = (1 - theta_t) x_t + theta_t z_{t+1}

They differ only in the step map, which owns its prox weight eta(t) = gamma_t L_eff:

``sg``   takes d_t = G(y_t), h = the penalty, solves the prox exactly, and uses
         eta(t) = gamma_t L with gamma_t = (2/(t+2)) (N^{3/2}/L + 2).
``ssg``  replaces the penalty by its smoothed form: d_t = G(y_t) + A^T v_mu(y_t),
         h = 0, so the prox step is the closed-form z_t - d_t / eta(t); eta(t)
         is sg's with L replaced by L_mu = L + ||A||^2 / mu.
``acsa`` is the sg step map with the baseline weight eta(t) = 2 gamma* / (L (t+1)) L.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable, List, Protocol, Tuple

import numpy as np

from .core import Array, DivergenceError, ParameterError, RngStream, TraceRecord, as_count, as_real
from .regularizers import ETA_RANGE, ConvergenceError, Regularizer, evaluate, prox
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
    draws = as_count(draws, "draws", 2)
    samples = np.stack([oracle.sample(x0, rng) for _ in range(draws)])
    centered = samples - samples.mean(axis=0)
    return float((centered**2).sum() / (draws - 1))


def resolve_acsa_params(L: float, N: int, sigma_sq: float, D: float = 1.0) -> float:
    """The baseline step-size scale
    gamma* = max(2L, sqrt(2 sigma^2 N(N+1)(N+2) / (3 D^2))), which ``run_acsa``
    takes; ``sigma_sq`` is the oracle's variance, e.g. from ``pilot_sigma_sq``."""
    L, N, sigma_sq = as_real(L, "L"), as_count(N, "N"), as_real(sigma_sq, "sigma_sq")
    D = as_real(D, "D", positive=True)
    return max(
        2.0 * L,
        math.sqrt(2.0 * sigma_sq * N * (N + 1) * (N + 2) / (3.0 * D * D)),
    )


def theorem_bound(D: float, sigma: float, L: float, N: int) -> float:
    """Expected-gap guarantee after N iterations of the sg loop.

    (2 D^2 + sigma^2) / (N+2)^{1/2} + L (4 D^2 + 2 sigma^2) / (N+2)^2.
    """
    D, sigma, L, N = as_real(D, "D"), as_real(sigma, "sigma"), as_real(L, "L"), as_count(N, "N")
    return (2.0 * D * D + sigma * sigma) / math.sqrt(N + 2.0) + L * (
        4.0 * D * D + 2.0 * sigma * sigma
    ) / (N + 2.0) ** 2


def theorem_bound_smoothed(D: float, sigma: float, L: float, A_norm: float,
                           M: float, N: int) -> float:
    """Guarantee for the smoothed loop under mu = ||A|| / (N+2); adds the
    smoothing penalty (||A|| / (N+2)) (M + 4 D^2 + 2 sigma^2)."""
    A_norm, M = as_real(A_norm, "A_norm"), as_real(M, "M")
    return theorem_bound(D, sigma, L, N) + (A_norm / (N + 2.0)) * (
        M + (4.0 * D * D + 2.0 * sigma * sigma)
    )


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


def _checked(eta, N: int, lo=math.ulp(0.0), hi=sys.float_info.max) -> Callable[[int], float]:
    # eta falls with t, so eta(0) and eta(N) bound every step; by default, a positive double.
    if not (eta(0) <= hi and eta(N) >= lo):
        raise ParameterError(f"its step size eta(t) must be in [{lo:g}, {hi:g}] at t = 0 and "
                             f"t = N, but eta(0) = {eta(0):g} and eta(N) = {eta(N):g}")
    return eta


def horizon_eta(N: int, L: float) -> Callable[[int], float]:
    """sg's and ssg's prox weight eta(t) = gamma_t L (ssg's L is L_mu), where
    gamma_t = (2/(t+2)) (N^{3/2}/L + 2) satisfies gamma_t > theta_t and the telescoping
    inequality (1 - theta_{t+1}) / (theta_{t+1} gamma_{t+1}) <= 1 / (theta_t gamma_t)."""
    N, L = as_count(N, "N", 1), as_real(L, "L", positive=True)
    scale = N**1.5 / L + 2.0
    return lambda t: (2.0 / (t + 2.0)) * scale * L


def acsa_eta(N: int, L: float, gamma_star: float) -> Callable[[int], float]:
    """acsa's prox weight eta(t) = gamma_t L with gamma_t = 2 gamma* / (L (t+1))."""
    N, L = as_count(N, "N", 1), as_real(L, "L", positive=True)
    gamma_star = as_real(gamma_star, "gamma_star", positive=True)
    return lambda t: 2.0 * gamma_star / (L * (t + 1.0)) * L


def _prox_step(reg: Regularizer, eta, N: int):  # sg's and acsa's: the exact prox at eta(t)
    _checked(eta, N, *ETA_RANGE)  # in the range prox takes eta from
    return lambda t, y, g, z: prox(reg, g, z, eta(t))


def _run_two_sequence(oracle, step, N, reg, rng, smooth_objective, trace_every):
    # The one recursion; ``step(t, y, g, z)`` maps to z_{t+1}. Every
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
            z = step(t, y, g, z)
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
    return _run_two_sequence(oracle, _prox_step(reg, horizon_eta(N, L), N), N, reg, rng,
                             smooth_objective, trace_every)


def run_acsa(oracle: StochasticOracle, reg: Regularizer, L: float, N: int,
             gamma_star: float, rng: RngStream,
             smooth_objective: Callable[[Array], float],
             trace_every: int = 1) -> Tuple[Array, List[TraceRecord]]:
    """Baseline: the sg loop with step sizes gamma_t = 2 gamma* / (L (t+1)),
    where ``gamma_star`` is gamma* from ``resolve_acsa_params``."""
    return _run_two_sequence(oracle, _prox_step(reg, acsa_eta(N, L, gamma_star), N), N, reg,
                             rng, smooth_objective, trace_every)


def run_ssg(oracle: StochasticOracle, sreg: SmoothedRegularizer, L: float, N: int,
            rng: RngStream, smooth_objective: Callable[[Array], float],
            trace_every: int = 1) -> Tuple[Array, List[TraceRecord]]:
    """Smoothed variant: closed-form steps against G + A^T v_mu, traced on the
    original (non-smoothed) objective.

    The effective Lipschitz constant is L_mu = L + ||A||^2 / mu. A zero
    penalty (A = 0) needs no special case: L_mu = L and A^T v_mu = 0.
    """
    eta, eta_0d = _checked(horizon_eta(N, lipschitz_mu(L, sreg)), N), np.empty(())

    def step(t, y, g, z):  # h = 0: closed form, with eta(t) a 0-d operand as theta_t is
        eta_0d[()] = eta(t)
        return z - (g + smoothed_gradient(sreg, y)) / eta_0d

    return _run_two_sequence(oracle, step, N, sreg.base, rng, smooth_objective, trace_every)
