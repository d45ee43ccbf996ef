"""Smooth lower approximation of lam * Omega via its dual-ball representation.

The penalty is max over the product of unit balls Q of v^T A x. Subtracting the
strongly convex term (mu/2) ||v||^2 inside the max yields a value h_mu(x) with

    h_mu(x) <= lam * Omega(x) <= h_mu(x) + mu * M,   M = max_{v in Q} (1/2)||v||^2,

whose gradient A^T v_mu(x) is Lipschitz with constant ||A||^2 / mu.

A is never built: for l1 it is lam * I, and for a group norm it maps x to
(lam * w_g * x_g)_g in the structure's flat block layout, so A x is
``lam * rep_weights * x[flat_index]`` and A^T v scatters back with
``np.bincount`` over ``flat_index``. When that layout is L full covers of
0..p-1 in order (``GroupStructure.covers``, every dyadic tree's), A x is a
broadcast product of x with the ``(L, p)`` view of the weights, with no
gather, and A^T v the sum over axis 0 of that view times v, which adds in
bincount's order, with neither copy of the layout. Its finite values keep
bincount's bits; a NaN sits where bincount's does, with its sign unspecified
(where two NaNs meet, numpy's vector loop and its scalar tail keep different
ones). No output can show that sign: a NaN gradient makes the solver's
iterate NaN, which ends the run as a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Array, DimensionError, ParameterError, as_vector
from .regularizers import Regularizer, operator_norm

# Substitute for mu when the penalty vanishes (lam = 0) and the schedule would
# otherwise divide by it. A = 0 then, so L_mu = L and the smoothed gradient is 0.
MU_FLOOR = 1e-12

# The l1 clamp's bounds, and the group projection's floor, as 0-d operands.
_ONE, _MINUS_ONE = np.array(1.0), np.array(-1.0)


@dataclass(frozen=True)
class SmoothedRegularizer:
    base: Regularizer
    mu: float
    A_norm: float
    M: float
    # Derived from the fields, as 0-d copies of scalars: a ufunc takes a 0-d
    # array operand faster than a Python float, with the same bits. A's
    # entries in flat block layout: lam for l1, lam * rep_weights for a group
    # norm, shaped (covers, p) when the layout is covers full covers of
    # 0..p-1; and mu.
    a_weights: Array = field(init=False, repr=False, compare=False)
    mu_0d: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mu <= 0:
            raise ParameterError(f"mu must be > 0, got {self.mu}")
        st = self.base.structure
        lam = self.base.lam
        a_weights = np.array(float(lam)) if st is None else lam * st.rep_weights
        if st is not None and st.covers:
            a_weights = a_weights.reshape(st.covers, st.p)
        object.__setattr__(self, "a_weights", a_weights)
        object.__setattr__(self, "mu_0d", np.array(float(self.mu)))


def mu_schedule(A_norm: float, N: int) -> float:
    """Horizon schedule mu = ||A|| / (N + 2); MU_FLOOR when ||A|| = 0."""
    if N < 0:
        raise ParameterError(f"N must be >= 0, got {N}")
    if A_norm == 0.0:
        return MU_FLOOR
    return A_norm / (N + 2)


def smoothed(reg: Regularizer, mu: float | None = None, N: int | None = None) -> SmoothedRegularizer:
    """Wrap a regularizer for smoothing; defaults mu to the horizon schedule."""
    a_norm = operator_norm(reg)
    if mu is None:
        if N is None:
            raise ParameterError("pass either mu or the iteration count N")
        mu = mu_schedule(a_norm, N)
    if reg.structure is None:
        m_const = reg.p / 2.0
    else:
        m_const = len(reg.structure) / 2.0
    return SmoothedRegularizer(reg, float(mu), a_norm, m_const)


def _apply(s: SmoothedRegularizer, x) -> Array:
    # A x, after checking that x is a vector of length p.
    x = as_vector(x)
    reg = s.base
    if x.shape[0] != reg.p:
        raise DimensionError(f"x has length {x.shape[0]}, expected {reg.p}")
    st = reg.structure
    if st is None:
        return s.a_weights * x
    if st.covers:
        return (s.a_weights * x).ravel()
    return s.a_weights * x[st.flat_index]


def _project(s: SmoothedRegularizer, ax: Array) -> Array:
    # v_mu: A x / mu projected onto Q, one unit ball per coordinate (l1) or group.
    # A group norm's v is written over ax, which the caller gives up: the divide
    # and the scaling allocate no array of the flat layout's length.
    st = s.base.structure
    if st is None:  # np.clip(ax / mu, -1.0, 1.0)'s bits, NaN included, in two ufuncs
        return np.minimum(np.maximum(ax / s.mu_0d, _MINUS_ONE), _ONE)
    ax /= s.mu_0d
    ax *= (_ONE / np.maximum(st.block_norms(ax), _ONE))[st.owner]
    return ax


def maximizer(s: SmoothedRegularizer, x) -> Array:
    """The unique v in Q attaining h_mu(x), in flat block layout.

    l1: per-coordinate clamp of lam * x / mu to [-1, 1]. Group norm: per-group
    projection of lam * w_g * x_g / mu onto the unit ball.
    """
    return _project(s, _apply(s, x))


def smoothed_value(s: SmoothedRegularizer, x) -> float:
    """h_mu(x) = v^T A x - (mu/2) ||v||^2 at the maximizing v."""
    ax = _apply(s, x)
    v = _project(s, ax.copy())
    return float(v @ ax - 0.5 * s.mu * (v @ v))


def smoothed_gradient(s: SmoothedRegularizer, x) -> Array:
    """Gradient A^T v_mu(x); for l1 this is lam * clamp(lam * x / mu, -1, 1)."""
    v = maximizer(s, x)
    st = s.base.structure
    if st is None:
        return s.a_weights * v
    w = v.reshape(s.a_weights.shape)
    w *= s.a_weights  # v is this call's own array, and w a view of it
    if st.covers:
        return np.add.reduce(w, axis=0)
    return np.bincount(st.flat_index, weights=v, minlength=st.p)


def lipschitz_mu(L: float, s: SmoothedRegularizer) -> float:
    """Gradient Lipschitz constant of the smoothed composite: L + ||A||^2 / mu."""
    if L < 0:
        raise ParameterError(f"L must be >= 0, got {L}")
    return float(L + s.A_norm**2 / s.mu)
