"""Smooth lower approximation of lam * Omega via its dual-ball representation.

The penalty is max over the product of unit balls Q of v^T A x. Subtracting the
strongly convex term (mu/2) ||v||^2 inside the max yields a value h_mu(x) with

    h_mu(x) <= lam * Omega(x) <= h_mu(x) + mu * M,   M = max_{v in Q} (1/2)||v||^2,

whose gradient A^T v_mu(x) is Lipschitz with constant ||A||^2 / mu.

A is never built: for l1 it is lam * I, and for a group norm it maps x to
(lam * w_g * x_g)_g in the structure's flat block layout. The penalty holds
A's entries, ||A|| and M (``Regularizer.a_weights``, ``A_norm`` and ``M``),
and the smoothing adds only mu. A x is ``a_weights * x[flat_index]`` and
A^T v scatters back with ``np.bincount`` over ``flat_index``. When that layout
is L full covers of 0..p-1 in order (``GroupStructure.covers``, every dyadic
tree's), ``a_weights`` is ``(L, p)``, A x is its broadcast product with x,
with no gather, and A^T v the sum over axis 0 of its product with v, which adds in
bincount's order, with neither copy of the layout. Its finite values keep
bincount's bits; a NaN sits where bincount's does, with its sign unspecified
(where two NaNs meet, numpy's vector loop and its scalar tail keep different
ones). No output can show that sign: a NaN gradient makes the solver's
iterate NaN, which ends the run as a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Array, as_count, as_real, as_vector
from .regularizers import Regularizer

# Substitute for mu when the schedule ||A|| / (N+2) is 0, as it is when the
# penalty vanishes (lam = 0): then A = 0, so L_mu = L and the smoothed
# gradient is 0.
MU_FLOOR = 1e-12

# The l1 clamp's bounds, and the group projection's floor, as 0-d operands.
_ONE, _MINUS_ONE = np.array(1.0), np.array(-1.0)


@dataclass(frozen=True)
class SmoothedRegularizer:
    """The penalty ``base`` smoothed at ``mu``."""

    base: Regularizer
    mu: float
    # For the per-iteration calls: the penalty's A entries, one attribute
    # lookup away, and mu as a 0-d array, which a ufunc takes faster than a
    # Python float, with the same bits.
    a_weights: Array = field(init=False, repr=False, compare=False)
    mu_0d: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", as_real(self.mu, "mu", positive=True))
        object.__setattr__(self, "a_weights", self.base.a_weights)
        object.__setattr__(self, "mu_0d", np.array(self.mu))


def mu_schedule(A_norm: float, N: int) -> float:
    """Horizon schedule mu = ||A|| / (N + 2); MU_FLOOR when that is 0, as it
    is for ||A|| = 0 (lam = 0)."""
    mu = as_real(A_norm, "A_norm") / (as_count(N, "N") + 2)
    return MU_FLOOR if mu == 0.0 else mu


def smoothed(reg: Regularizer, mu: float | None = None, N: int | None = None) -> SmoothedRegularizer:
    """Wrap a regularizer for smoothing; without mu, the horizon schedule at N."""
    return SmoothedRegularizer(reg, mu_schedule(reg.A_norm, N) if mu is None else mu)


def _apply(s: SmoothedRegularizer, x) -> Array:
    # A x, after checking that x is a vector of length p.
    x = as_vector(x, s.base.p)
    st = s.base.structure
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
    """Gradient Lipschitz constant of the smoothed composite: L + ||A||^2 / mu.
    ||A||^2 is a double for every penalty (see ``Regularizer``)."""
    return as_real(L, "L") + s.base.A_norm**2 / s.mu
