"""Nonsmooth penalties lam * Omega(beta): the l1 norm and weighted group norms,
their exact proximal maps, and the norm of the block-selection map A that the
smoothing module applies through a structure's flat block layout."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Array,
    CapacityError,
    ConvergenceError,
    DimensionError,
    ParameterError,
    as_vector,
)

# Generic (overlapping-group) prox fallback: dual block-coordinate ascent.
# On the overlap-random benchmark workload (40 random groups of 8 over p=64)
# it stops after 4-7 sweeps per call; the cap of 10 * |groups| * p sweeps
# leaves a wide margin.
DUAL_ASCENT_TOL = 1e-10
DUAL_ASCENT_SWEEP_FACTOR = 10

# Refuse hierarchical structures whose index storage would exceed this.
_MAX_TOTAL_INDICES = 2**28


class GroupStructure:
    """An ordered family of index groups over coordinates with positive weights.

    Groups are stored as sorted 0-based index arrays. ``is_laminar`` is true
    when every pair of groups is either disjoint or nested, which is the case
    admitting an exact single-pass prox; it is decided in O(total indices).
    ``layers`` then splits the groups by nesting depth, deepest first; groups
    of equal depth are disjoint. Each layer is ``(index, offsets, sizes,
    weights)`` in flat block layout. ``layers`` is None for an overlapping family.
    """

    def __init__(self, groups, weights, p: int):
        p = int(p)
        if p < 1:
            raise ParameterError(f"p must be >= 1, got {p}")
        weights = np.asarray(weights, dtype=np.float64)
        if len(groups) != weights.shape[0]:
            raise DimensionError(
                f"{len(groups)} groups but {weights.shape[0]} weights"
            )
        if len(groups) == 0:
            raise ParameterError("need at least one group")
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0)))
        if bad.size:
            raise ParameterError(
                f"group {bad[0]} has weight {weights[bad[0]]!r}; "
                "group weights must be finite and strictly positive"
            )

        cleaned = []
        for k, g in enumerate(groups):
            idx = np.asarray(g, dtype=np.int64)
            if idx.size == 0:
                raise ParameterError(f"group {k} is empty")
            if idx.min() < 0 or idx.max() >= p:
                raise ParameterError(f"group {k} has indices outside [0, {p})")
            idx = np.sort(idx)
            if np.any(np.diff(idx) == 0):
                raise ParameterError(f"group {k} repeats an index")
            cleaned.append(idx)

        self.p = p
        self.groups = cleaned
        self.weights = weights
        self.sizes = np.array([g.size for g in cleaned], dtype=np.int64)

        # The groups and weights in dual-ascent visit order: non-decreasing |g|,
        # ties by smallest first index.
        firsts = np.array([g[0] for g in cleaned], dtype=np.int64)
        order = np.lexsort((firsts, self.sizes))
        self.visit_groups = [cleaned[k] for k in order]
        self.visit_weights = weights[order]

        # Flat block layout in stored group order, one slice of length |g| per
        # group: A x = lam * rep_weights * x[flat_index] in smoothing, and the
        # penalty's block norms in evaluate.
        self.flat_index = np.concatenate(cleaned)
        self.offsets = np.zeros(len(cleaned), dtype=np.int64)
        np.cumsum(self.sizes[:-1], out=self.offsets[1:])
        self.rep_weights = np.repeat(weights, self.sizes)

        self.layers = self._depth_layers()

    def __len__(self) -> int:
        return len(self.groups)

    @property
    def is_laminar(self) -> bool:
        return self.layers is not None

    def _depth_layers(self):
        # Visit groups largest first (stable, so identical groups nest in stored
        # order) while ``owner`` maps each coordinate to the innermost group
        # visited so far. A group is disjoint from or nested in every group
        # before it exactly when all its coordinates have one owner: its parent,
        # or -1 for a root. O(total indices) in all.
        owner = np.full(self.p, -1, dtype=np.int64)
        depth = np.full(len(self.groups) + 1, -1, dtype=np.int64)  # depth[-1]: no parent
        for k in np.argsort(-self.sizes, kind="stable"):
            parents = owner[self.groups[k]]
            if np.any(parents != parents[0]):
                return None
            depth[k] = depth[parents[0]] + 1
            owner[self.groups[k]] = k
        # One stable sort by depth, deepest first: a scan per depth would be
        # quadratic for long chains of identical groups.
        depth = depth[:-1]
        order = np.argsort(-depth, kind="stable")
        layers = []
        for members in np.split(order, np.cumsum(np.bincount(depth)[::-1])[:-1]):
            sizes = self.sizes[members]
            offsets = np.concatenate(([0], np.cumsum(sizes[:-1])))
            index = np.concatenate([self.groups[k] for k in members])
            layers.append((index, offsets, sizes, self.weights[members]))
        return layers

    def block_norms(self, flat: Array) -> Array:
        """Per-group Euclidean norms of a flat block-layout vector."""
        return np.sqrt(np.add.reduceat(flat * flat, self.offsets))


def singleton_structure(p: int) -> GroupStructure:
    """One unit-weight group per coordinate; behaves identically to the l1 norm."""
    return GroupStructure([np.array([i]) for i in range(p)], np.ones(p), p)


def build_hierarchical(n: int) -> GroupStructure:
    """Dyadic tree of groups over p = 2**n coordinates, weights sqrt(|g|).

    Level i contributes the contiguous blocks of size 2**i, for i = 0..n,
    giving 2**(n+1) - 1 groups in total.
    """
    n = int(n)
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    p = 2**n
    if p * (n + 1) > _MAX_TOTAL_INDICES:
        raise CapacityError(f"hierarchical structure with n={n} is too large")
    groups = []
    weights = []
    for i in range(n + 1):
        size = 2**i
        for j in range(2 ** (n - i)):
            groups.append(np.arange(j * size, (j + 1) * size, dtype=np.int64))
            weights.append(np.sqrt(size))
    return GroupStructure(groups, np.array(weights), p)


@dataclass(frozen=True)
class Regularizer:
    """lam * Omega(beta): plain l1 when ``structure`` is None, else the weighted
    group norm sum_g w_g ||beta_g||."""

    lam: float
    p: int
    structure: Optional[GroupStructure] = None

    def __post_init__(self):
        if self.lam < 0:
            raise ParameterError(f"lambda must be >= 0, got {self.lam}")
        if self.p < 1:
            raise ParameterError(f"p must be >= 1, got {self.p}")
        if self.structure is not None and self.structure.p != self.p:
            raise DimensionError(
                f"structure dimension {self.structure.p} != p {self.p}"
            )


def l1(lam: float, p: int) -> Regularizer:
    return Regularizer(lam, p)


def group_norm(lam: float, structure: GroupStructure) -> Regularizer:
    return Regularizer(lam, structure.p, structure)


def evaluate(reg: Regularizer, beta) -> float:
    """lam * Omega(beta)."""
    beta = as_vector(beta)
    if beta.shape[0] != reg.p:
        raise DimensionError(f"beta has length {beta.shape[0]}, expected {reg.p}")
    if reg.structure is None:
        return float(reg.lam * np.abs(beta).sum())
    st = reg.structure
    norms = st.block_norms(beta[st.flat_index])
    return float(reg.lam * (st.weights @ norms))


def soft_threshold(u: Array, thr: float) -> Array:
    """Coordinate-wise shrinkage sign(u) * max(|u| - thr, 0)."""
    return np.sign(u) * np.maximum(np.abs(u) - thr, 0.0)


def prox(reg: Regularizer, g, z, eta: float) -> Array:
    """Exact minimizer of <x, g> + (eta/2) ||x - z||^2 + lam * Omega(x).

    l1 and laminar group structures are solved in closed form: for a laminar
    family the prox is the leaf-to-root composition of group shrinkages
    (Jenatton, Mairal, Obozinski & Bach, JMLR 2011), applied as one vectorized
    shrink per depth layer, deepest first. Overlapping structures fall back to
    dual block-coordinate ascent in residual form: it keeps eta * x and each
    group's scaled dual, so a group update is one projection onto a ball of
    radius lam * w_g. It sweeps until the iterate moves less than
    ``DUAL_ASCENT_TOL`` and raises ``ConvergenceError``, carrying the last
    iterate, once ``DUAL_ASCENT_SWEEP_FACTOR * |groups| * p`` sweeps are spent.
    """
    if eta <= 0:
        raise ParameterError(f"eta must be > 0, got {eta}")
    g, z = as_vector(g), as_vector(z)
    if g.shape[0] != reg.p or z.shape[0] != reg.p:
        raise DimensionError(
            f"g/z lengths ({g.shape[0]}, {z.shape[0]}) do not match p={reg.p}"
        )
    u = z - g / eta
    if reg.lam == 0.0:
        return soft_threshold(u, 0.0)
    if reg.structure is None:
        return soft_threshold(u, reg.lam / eta)
    st = reg.structure
    if st.is_laminar:
        return _prox_laminar(st, reg.lam, u, eta)
    return _prox_dual_ascent(st, reg.lam, u, eta)


def _prox_laminar(st: GroupStructure, lam: float, u: Array, eta: float) -> Array:
    x = u.copy()
    for index, offsets, sizes, weights in st.layers:
        block = x[index]
        nrm = np.sqrt(np.add.reduceat(block * block, offsets))
        thr = lam * weights / eta
        # Blocks with nrm <= thr become exact zeros; dividing only where
        # nrm > thr >= 0 also keeps zero-norm blocks free of 0/0.
        keep = nrm > thr
        scale = 1.0 - np.divide(thr, nrm, out=np.ones_like(nrm), where=keep)
        x[index] = block * np.repeat(scale, sizes)
    return x


def _prox_dual_ascent(st: GroupStructure, lam: float, u: Array, eta: float) -> Array:
    # Maximize a^T A u - ||A^T a||^2 / (2 eta) over the product of unit balls
    # ||a_g|| <= 1; x = u - A^T a / eta recovers the primal. One block update per
    # group per sweep, in the deterministic visit order (smallest first), kept
    # in residual form: r = eta * x and the scaled duals b_g = c_g * a_g with
    # c_g = lam * w_g. Group g's update is the projection of r_g + b_g onto the
    # ball of radius c_g, and r_g keeps what the ball cuts off.
    r = eta * u
    b = [0.0] * len(st.visit_groups)
    radii = (lam * st.visit_weights).tolist()
    x = u.copy()
    max_sweeps = DUAL_ASCENT_SWEEP_FACTOR * len(st.visit_groups) * st.p
    for _ in range(max_sweeps):
        x_prev = x
        for j, (idx, c) in enumerate(zip(st.visit_groups, radii)):
            rj = r[idx] + b[j]
            nrm = math.sqrt(rj @ rj)
            if nrm > c:
                b[j] = rj * (c / nrm)
                r[idx] = rj - b[j]
            else:
                b[j] = rj
                r[idx] = 0.0
        x = r / eta
        if np.max(np.abs(x - x_prev)) < DUAL_ASCENT_TOL:
            return x
    raise ConvergenceError(
        f"prox dual ascent did not converge in {max_sweeps} sweeps",
        last_iterate=x,
    )


def operator_norm(reg: Regularizer) -> float:
    """Spectral norm of the map A behind the smoothing (lam for plain l1).

    For a group norm A x = (lam * w_g * x_g)_g, so A^T A is diagonal with
    entries lam^2 * sum_{g containing j} w_g^2 and the norm is lam times the
    square root of the largest of those sums.
    """
    if reg.structure is None:
        return float(reg.lam)
    st = reg.structure
    col_sq = np.bincount(st.flat_index, weights=st.rep_weights**2, minlength=st.p)
    return float(reg.lam * np.sqrt(col_sq.max()))


def save_group_structure(st: GroupStructure, path) -> None:
    """Text format: one group per line, ``weight: i1,i2,...,ik`` with 1-based indices."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for g, w in zip(st.groups, st.weights):
            idx = ",".join(str(i + 1) for i in g)
            fh.write(f"{w:.17g}: {idx}\n")


def load_group_structure(path, p: Optional[int] = None) -> GroupStructure:
    """Parse the text format written by save_group_structure.

    When ``p`` is omitted it is inferred as the largest index mentioned.
    """
    groups = []
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                w_part, idx_part = line.split(":", 1)
                w = float(w_part)
                idx = np.array([int(t) - 1 for t in idx_part.split(",")], dtype=np.int64)
            except ValueError as exc:
                raise ParameterError(f"line {lineno}: cannot parse {line!r}") from exc
            if not (np.isfinite(w) and w > 0):
                raise ParameterError(
                    f"line {lineno}: weight {w!r} must be finite and strictly positive"
                )
            groups.append(idx)
            weights.append(w)
    if not groups:
        raise ParameterError("structure file contains no groups")
    if p is None:
        p = int(max(g.max() for g in groups)) + 1
    return GroupStructure(groups, np.array(weights), p)
