"""Nonsmooth penalties lam * Omega(beta): the l1 norm and weighted group norms,
their proximal maps (exact, or certified for overlapping groups), and the norm
of the block-selection map A that the smoothing module applies through a
structure's flat block layout."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ENVELOPE,
    Array,
    ConvergenceError,
    DimensionError,
    ParameterError,
    as_count,
    as_vector,
    envelope_fault,
)

# Overlapping-group prox: accelerated projected-gradient ascent on the dual,
# stopped once the duality gap is at most DUAL_GAP_RTOL times the penalty at
# the iterate plus the penalty at the prox centre; DUAL_MAX_ITER ascent steps
# are the budget. See ``prox``.
DUAL_GAP_RTOL = 1e-15
DUAL_MAX_ITER = 100_000

# The prox weights eta that ``prox`` takes: ``core.ENVELOPE`` squared.
ETA_RANGE = (ENVELOPE[0] ** 2, ENVELOPE[1] ** 2)

# The deepest tree ``build_hierarchical`` builds: p (n + 1) = 2^23 * 24 indices,
# up to 18 GiB to build at TREE_BYTES_PER_INDEX. Checked before 2^n is formed.
MAX_TREE_N = 23
# Bytes of memory that building a tree may take per index, p (n + 1) of them:
# rounded up from tracemalloc peaks of build_hierarchical(n) and group_norm,
# 95.4 at n = 10, 93.3 at n = 14 and 92.4 at n = 18.
TREE_BYTES_PER_INDEX = 96

# The laminar prox's 1, 0-d: a ufunc takes it faster than a float, same bits.
_ONE = np.array(1.0)
# FISTA's t after a step with momentum beta = 0, from t = 1: (1 + sqrt(1 + 4)) / 2.
_T_AFTER_RESTART = 0.5 * (1.0 + math.sqrt(5.0))


class GroupIndexError(ParameterError):
    """A group is empty, holds an index outside [0, p) or repeats one: ``group``
    is its stored position and ``index`` the index at fault, None when empty."""

    def __init__(self, message: str, group: int, index):
        super().__init__(message)
        self.group, self.index = group, index


class GroupStructure:
    """An ordered family of index groups over coordinates with positive weights.

    Built from the flat layout ``(index, sizes, weights, p)``: ``index`` holds
    every group's 0-based coordinates, concatenated in group order, and group
    k is the next ``sizes[k]`` of them. The structure keeps that layout and no
    array per group: ``flat_index`` (``index`` sorted within each group),
    ``sizes``, ``offsets`` (where each group's slice starts) and ``owner``
    (the group of each flat entry, so ``scale[owner]`` spreads one value per
    group over its block). The first faulty group in stored order raises
    ``GroupIndexError`` with its first fault of: empty, an index outside
    [0, p), a repeated index.

    ``is_laminar`` is true when every pair of groups is either disjoint or
    nested, which is the case admitting an exact single-pass prox; it is
    decided, with every group's depth, by two stable sorts of the flat
    entries, O(n log n) in the total indices n. ``layers`` then splits the
    groups by nesting depth, deepest first; groups of equal depth are
    disjoint. Each layer is ``(index, offsets, owner, lo, hi)`` in flat block
    layout. ``index`` gathers the layer's coordinates: it is the basic slice
    ``slice(a, a + n)`` when they are ``a, ..., a + n - 1`` in order, as in
    every layer of a dyadic tree, so that the prox reads a view and scales it
    in place, and an int64 array otherwise. ``owner`` gives the position
    within the layer of the group each gathered coordinate belongs to, and
    the layer's weights are ``layer_weights[lo:hi]``, which holds all groups'
    weights in layer order. ``layers`` and ``layer_weights`` are None for an
    overlapping family.

    ``covers`` is L when ``flat_index`` is ``0, ..., p-1`` repeated L times,
    L full covers in order, and p >= 2, as in every ``build_hierarchical(n)``
    with n >= 1; it is 0 otherwise. The smoothing then reads the flat layout
    as an ``(L, p)`` array: A x is a broadcast product and A^T v a sum over
    axis 0, with the bits of the gather and, for finite values, of
    ``np.bincount``; a NaN sits where bincount's does, with its sign
    unspecified. At p = 1
    numpy's axis-0 sum adds in another order than bincount, so L copies of
    one coordinate keep the general path. All of it is built once per
    structure.
    """

    def __init__(self, index, sizes, weights, p: int):
        p = as_count(p, "p", 1)
        index, sizes = _as_integers(index, "index"), _as_integers(sizes, "sizes").copy()
        weights = as_vector(weights, sizes.shape[0], "weights")  # one per group
        if sizes.shape[0] == 0:
            raise ParameterError("need at least one group")
        bad = np.flatnonzero(~((weights >= ENVELOPE[0]) & (weights <= ENVELOPE[1])))
        if bad.size:
            raise ParameterError(f"group {bad[0]} weight {envelope_fault(weights[bad[0]])}")
        if sizes.min() < 0 or index.size != sizes.sum():
            raise DimensionError(f"group sizes must be >= 0 and sum to {index.size} indices")

        self.p, self.weights, self.sizes = p, weights, sizes
        # Flat block layout in stored group order, one slice of length |g| per
        # group, sorted within it: A x = a_weights * x[flat_index] in smoothing
        # (see Regularizer), and the penalty's block norms in evaluate.
        owner = self.owner = np.repeat(np.arange(sizes.size), sizes)
        flat = self.flat_index = index[np.lexsort((index, owner))]
        # The first faulty group in stored order, with its first fault: empty,
        # an index outside [0, p), a repeat.
        faults = [(k, None, "is empty") for k in np.flatnonzero(sizes == 0)[:1]]
        faults += [(owner[i], int(index[i]), f"has indices outside [0, {p})")
                   for i in np.flatnonzero((index < 0) | (index >= p))[:1]]
        faults += [(owner[i], int(flat[i]), "repeats an index")
                   for i in np.flatnonzero((flat[1:] == flat[:-1]) & (owner[1:] == owner[:-1]))[:1]]
        if faults:
            k, i, what = min(faults, key=lambda fault: fault[0])
            raise GroupIndexError(f"group {k} {what}", int(k), i)
        self.offsets = np.zeros(sizes.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=self.offsets[1:])
        # The most groups any one coordinate lies in: the overlapping prox's
        # dual gradient is max_cover / eta Lipschitz.
        self.max_cover = int(np.bincount(flat, minlength=p).max())
        tiled = p >= 2 and flat.size % p == 0 and np.all(flat.reshape(-1, p) == np.arange(p))
        self.covers = flat.size // p if tiled else 0

        self.layers, self.layer_weights = self._depth_layers()

    def __len__(self) -> int:
        return self.sizes.size

    @property
    def is_laminar(self) -> bool:
        return self.layers is not None

    def _depth_layers(self):
        # Order the flat entries by coordinate, then largest group first, ties
        # in stored order (lexsort is stable and flat_index group-major), so
        # that identical groups nest in stored order. An entry's predecessor
        # in its coordinate's run then lies in the innermost group ordered
        # before its own that holds the coordinate: its parent, or -1 first in
        # the run. The family is laminar exactly when each group's entries
        # have one parent, and a group's depth is then their rank in the runs.
        e = np.lexsort((-self.sizes[self.owner], self.flat_index))
        coords, groups = self.flat_index[e], self.owner[e]
        rank = np.arange(e.size) - np.searchsorted(coords, coords)
        parent = np.empty_like(e)
        parent[e] = np.where(rank > 0, np.roll(groups, 1), -1)
        if np.any(parent != parent[self.offsets][self.owner]):
            return None, None
        depth = np.empty_like(self.sizes)
        depth[groups] = rank
        del e, coords, groups, rank, parent  # there may be a layer per group
        # Deepest first, stably: the groups in layer order and, flat_index
        # being group-major, every layer's flat entries in that same order.
        order = np.argsort(-depth, kind="stable")
        bounds = np.cumsum(np.bincount(depth)[::-1])
        at = np.argsort(-depth[self.owner], kind="stable")
        starts = np.concatenate(([0], np.cumsum(self.sizes[order])))
        within = np.repeat(np.arange(len(self)), self.sizes[order])
        layers = []
        for lo, hi in zip([0, *bounds[:-1]], bounds):
            a, b = starts[lo], starts[hi]
            index = self.flat_index[at[a:b]]
            if np.all(np.diff(index) == 1):
                index = slice(int(index[0]), int(index[-1]) + 1)
            layers.append((index, starts[lo:hi] - a, within[a:b] - lo, int(lo), int(hi)))
        return layers, self.weights[order]

    def block_norms(self, flat: Array) -> Array:
        """Per-group Euclidean norms of a flat block-layout vector."""
        return np.sqrt(np.add.reduceat(flat * flat, self.offsets))


def _as_integers(values, name: str) -> Array:
    # values as a 1-d int64 vector, not copied when it is one. A float entry
    # that is no integer (NaN, inf and past int64 too) raises, where the cast
    # would truncate it.
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    with np.errstate(invalid="ignore"):
        ints = arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "f" and (bad := np.flatnonzero(ints != arr)).size:
        raise ParameterError(f"{name}[{bad[0]}] must be an integer, got {float(arr[bad[0]])!r}")
    return ints


def build_hierarchical(n: int) -> GroupStructure:
    """Dyadic tree of groups over p = 2**n coordinates, weights sqrt(|g|).

    Level i contributes the contiguous blocks of size 2**i, for i = 0..n,
    giving 2**(n+1) - 1 groups in total.
    """
    n = as_count(n, "n")
    if n > MAX_TREE_N:
        raise ParameterError(f"n must be <= {MAX_TREE_N}, got {n}")
    p = 2**n
    levels = np.arange(n + 1)
    sizes = np.repeat(2**levels, 2 ** (n - levels))
    return GroupStructure(np.tile(np.arange(p), n + 1), sizes, np.sqrt(sizes), p)


@dataclass(frozen=True)
class Regularizer:
    """lam * Omega(beta): plain l1 when ``structure`` is None, else the weighted
    group norm sum_g w_g ||beta_g||. Built with it, once: ``a_weights``, A's
    entries c_g = lam * w_g (lam for l1) in flat block layout (0-d for l1,
    ``(covers, p)`` when it tiles); ``layer_scales``, the laminar prox's c_g in
    layer order; ``A_norm`` = ||A||; ``M``. ``lam`` and the structure's weights
    lie in the numeric envelope (``core.ENVELOPE``), so every c_g is 0 or in
    [1e-100, 1e100] and ||A||^2 is a double."""

    lam: float
    p: int
    structure: Optional[GroupStructure] = None

    def __post_init__(self):
        fault = envelope_fault(self.lam, zero=True)
        if fault:
            raise ParameterError(f"lambda {fault}")
        put = lambda name, value: object.__setattr__(self, name, value)
        put("p", as_count(self.p, "p", 1))
        st, lam = self.structure, self.lam
        if st is not None and st.p != self.p:
            raise DimensionError(f"structure dimension {st.p} != p {self.p}")
        a = np.array(float(lam)) if st is None else lam * st.weights[st.owner]
        put("a_weights", a.reshape(st.covers, st.p) if st is not None and st.covers else a)
        put("layer_scales", lam * st.layer_weights if st is not None and st.is_laminar else None)
        # ||A||: A^T A is diagonal, lam^2 * sum_{g containing j} w_g^2 at j,
        # multiplied out in Python floats.
        a_norm = float(lam)
        if st is not None:
            col_sq = np.bincount(st.flat_index, weights=(st.weights**2)[st.owner], minlength=st.p)
            a_norm *= float(np.sqrt(col_sq.max()))
        put("A_norm", a_norm)
        put("M", (self.p if st is None else len(st)) / 2.0)


def l1(lam: float, p: int) -> Regularizer:
    return Regularizer(lam, p)


def group_norm(lam: float, structure: GroupStructure) -> Regularizer:
    return Regularizer(lam, structure.p, structure)


def evaluate(reg: Regularizer, beta) -> float:
    """lam * Omega(beta)."""
    beta = as_vector(beta, reg.p, "beta")
    if reg.structure is None:
        return float(reg.lam * np.abs(beta).sum())
    st = reg.structure
    norms = st.block_norms(beta[st.flat_index])
    return float(reg.lam * (st.weights @ norms))


def soft_threshold(u: Array, thr: float) -> Array:
    """Coordinate-wise shrinkage sign(u) * max(|u| - thr, 0), returning +0.0
    wherever a finite u has |u| <= thr.

    Computed as u minus u clamped to [-thr, thr] (three ufuncs, not five):
    fl(u - thr) and fl(u + thr) outside the band are the sign form's values,
    as are NaN and +-inf; inside it u - u is +0.0 where the sign form gives
    -0.0 for negative u. Clamping to thr before -thr keeps u = -0.0 at
    thr = 0 at +0.0 too, whichever zero np.minimum and np.maximum return on a
    tie."""
    return u - np.maximum(np.minimum(u, thr), -thr)


def prox(reg: Regularizer, g, z, eta: float) -> Array:
    """Minimizer of <x, g> + (eta/2) ||x - z||^2 + lam * Omega(x), exact or certified.

    With u = z - g / eta this is the minimizer x* of
    P(x) = (eta/2) ||x - u||^2 + sum_g c_g ||x_g||, where c_g = lam * w_g. An
    eta outside ``ETA_RANGE`` = [1e-100, 1e100] raises ``ParameterError`` (NaN
    and inf too). Every c_g > 0 lies in it (README "Numeric envelope"), and sg's
    and acsa's step map checks its eta(t) against it: c_g / eta is a normal double.

    l1 and laminar group structures are solved in closed form: for a laminar
    family the prox is the leaf-to-root composition of group shrinkages
    (Jenatton, Mairal, Obozinski & Bach, JMLR 2011), applied as one vectorized
    shrink per depth layer, deepest first.

    Overlapping structures are solved on the dual (Yuan, Liu & Ye, NIPS 2011).
    Writing c_g ||x_g|| as the max of b_g^T x_g over ||b_g|| <= c_g gives the
    dual D(b) = min_x (eta/2) ||x - u||^2 + b^T A x, over duals b with one
    slice per group of the flat block layout. The min is attained at
    x(b) = u - A^T b / eta, with A^T b = bincount(flat_index, b). FISTA (Beck &
    Teboulle, SIAM J. Imaging Sci. 2009) ascends D with projected gradient
    steps of eta / max_cover, the inverse Lipschitz constant of
    grad D(b) = x(b)[flat_index], and resets its momentum whenever a step runs
    against it (the gradient restart of O'Donoghue & Candes, Found. Comput.
    Math. 2015). It returns x(b) once the duality gap
    ``P(x(b)) - D(b) = sum_g c_g ||x_g|| - b^T x[flat_index]`` is at most
    ``DUAL_GAP_RTOL * sum_g c_g (||x_g|| + ||u_g||)`` with
    ``DUAL_GAP_RTOL = 1e-15``. The output is then *certified*: P is
    eta-strongly convex, so ``||x - x*|| <= sqrt(2 gap / eta)``. The ``u``
    term keeps the target above the gap's rounding level when x* is near 0.
    After ``DUAL_MAX_ITER = 10**5`` ascent steps it raises
    ``ConvergenceError``, naming the gap reached and carrying the last primal
    iterate; a centre u on which a step could overflow (eta / max_cover *
    max_g ||u_g|| past about 2^510) gets a budget of 0. A centre whose penalty
    sum_g c_g ||u_g|| is not finite raises ``ParameterError`` instead.
    """
    lo, hi = ETA_RANGE
    if not lo <= eta <= hi:
        raise ParameterError(f"eta must be in [{lo:g}, {hi:g}], got {float(eta)!r}")
    g, z = as_vector(g, reg.p, "g"), as_vector(z, reg.p, "z")
    u = z - g / eta
    if reg.lam == 0.0:
        return soft_threshold(u, 0.0)
    if reg.structure is None:
        return soft_threshold(u, reg.lam / eta)
    if reg.structure.is_laminar:
        return _prox_laminar(reg, u, eta)
    return _prox_dual_fista(reg, u, eta)


def _prox_laminar(reg: Regularizer, u: Array, eta: float) -> Array:
    # Blocks with nrm <= thr get scale 1 - thr / thr = 0, exact zeros. c_g and
    # eta lie in [1e-100, 1e100], so no thr is 0 (0/0 on a zero block) or inf.
    thr = reg.layer_scales / eta
    x = u.copy()
    for index, offsets, owner, lo, hi in reg.structure.layers:
        block = x[index]
        nrm = np.sqrt(np.add.reduceat(block * block, offsets))
        t = thr[lo:hi]
        scale = _ONE - t / np.maximum(nrm, t)
        if isinstance(index, slice):  # block is a view of x: scale it in place
            np.multiply(block, scale[owner], out=block)
        else:
            x[index] = block * scale[owner]
    return x


def _prox_dual_fista(reg: Regularizer, u: Array, eta: float) -> Array:
    # Everything lives on the flat block layout: b, the momentum point y and
    # xf = x(b)[flat_index] have one slice per group. x is affine in b, so the
    # gathered primal at y is the same combination of the last two xf as y is
    # of the last two b: one bincount per iteration.
    st = reg.structure
    index, offsets, owner = st.flat_index, st.offsets, st.owner
    radii = reg.a_weights.take(offsets)  # c_g, A's entries at the groups' first slots
    step = eta / st.max_cover
    xf = u[index]
    with np.errstate(over="ignore"):  # an overflowing ||u_g||^2 is refused just below
        pen_u = float(radii.dot(norms := st.block_norms(xf)))
    if not math.isfinite(pen_u):
        raise ParameterError(f"overlapping prox: sum_g c_g ||u_g|| is {pen_u} at the centre u")
    # At k = 0, b = 0 and x = u: the gap is pen_u and the target 2e-15 pen_u, so
    # the stop test passes there exactly when pen_u == 0 (u's grouped entries all
    # 0 or below 1e-162, squares underflowing); the loop starts at the first step.
    if pen_u == 0.0:
        return u.copy()
    # No step overflows v * v while step max_g ||u_g|| + (1 + sqrt(p)) ||A|| <= 2^510:
    # ||v_g|| < 3 (c_g + step ||xf_g||) (||b_g|| <= c_g <= ||A||, beta < 1) and step
    # ||xf_g|| <= step ||u_g|| + sqrt(p) c_max. Past it one may, the projection then
    # zeroes b_g and the loop stalls: it gets no budget.
    bound = step * float(norms.max()) + (1.0 + math.sqrt(st.p)) * reg.A_norm
    budget = DUAL_MAX_ITER if bound <= 2.0**510 else 0
    # The loop costs numpy calls on a few hundred floats, not arithmetic, so it
    # makes and allocates as few as it can. b, b_prev, y, v and a scratch
    # array are work buffers of this call, written in place, and b and b_prev
    # swap by name. x stays fresh, since it is what the call returns or the
    # error carries; so do the gather xf = x[index] and the per-group reduceat
    # sums, which are slower written into a buffer. ndarray.dot runs the same
    # BLAS ddot as @, with less overhead per call. beta, the step and eta are
    # ufunc operands as 0-d registers, which numpy takes faster than Python
    # floats: each value is computed as a float and written in.
    #
    # Each iteration projects v, tests the gap, then forms the next v. A step
    # with beta = 0, the first and each restart, takes the closed form
    # v = b + step * xf, one call for the first (b = 0). The general form
    # also adds beta * db and beta * (xf - xf_prev), which are +-0 there as
    # every operand is finite: b and b_prev are wherever the restart test
    # passes (a NaN fails it, and ||b_g|| is c_g at most, up to rounding),
    # u's grouped entries are (pen_u is), and so is xf, the gather of
    # u - A^T b / eta with eta >= 1e-100. Adding +-0 changes at most the sign of
    # a zero, so v and b keep every bit but such signs, and x keeps all of its:
    # np.bincount starts each bin at +0.0, and +0.0 + -0.0 = +0.0. The gap's
    # sums do not see zero signs either. The general form's y = b + 0 * db
    # is b_prev one step later, so the next restart test would read
    # ||db||^2 < 0, never true: that step skips it, and y goes unused.
    b = np.zeros(index.size)  # the others are written before they are read
    b_prev, y, v, work = np.empty((4, index.size))
    beta_0d, step_0d, eta_0d = np.empty(()), np.array(step), np.array(float(eta))
    x, gap, target = u, pen_u, DUAL_GAP_RTOL * (pen_u + pen_u)
    np.multiply(xf, step_0d, out=v)
    t, may_restart = _T_AFTER_RESTART, False
    for _ in range(budget):
        nrm = np.add.reduceat(np.multiply(v, v, out=work), offsets)
        np.sqrt(nrm, out=nrm)
        scale = np.divide(radii, np.maximum(nrm, radii, out=nrm), out=nrm)
        b, b_prev, xf_prev = b_prev, b, xf
        np.multiply(v, scale[owner], out=b)
        x = np.bincount(index, weights=b, minlength=st.p)
        x /= eta_0d
        np.subtract(u, x, out=x)
        xf = x[index]
        nrm = np.add.reduceat(np.multiply(xf, xf, out=work), offsets)
        pen_x = float(radii.dot(np.sqrt(nrm, out=nrm)))
        gap = pen_x - float(b.dot(xf))
        target = DUAL_GAP_RTOL * (pen_x + pen_u)
        if gap <= target:
            return x
        # Restart when the last step's ascent direction b - y opposes the
        # momentum db = b - b_prev.
        db = np.subtract(b, b_prev, out=work)
        if may_restart and np.subtract(b, y, out=v).dot(db) < 0.0:
            t, may_restart = _T_AFTER_RESTART, False
            np.add(b, np.multiply(xf, step_0d, out=v), out=v)
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta_0d[()] = (t - 1.0) / t_next
        t, may_restart = t_next, True
        # y = b + beta * db, v = y + step * (xf + beta * (xf - xf_prev))
        np.add(b, np.multiply(db, beta_0d, out=y), out=y)
        np.subtract(xf, xf_prev, out=v)
        v *= beta_0d
        np.add(xf, v, out=v)
        v *= step_0d
        np.add(y, v, out=v)
    raise ConvergenceError(
        f"overlapping prox: dual gap {gap:.3e} above target {target:.3e} "
        f"after {budget} dual iterations",
        last_iterate=x.copy(),  # x is u itself when the budget is 0
    )


def save_group_structure(st: GroupStructure, path) -> None:
    """Text format: one group per line, ``weight: i1,i2,...,ik`` with 1-based indices."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for g, w in zip(np.split(st.flat_index, st.offsets[1:]), st.weights):
            idx = ",".join(str(i + 1) for i in g)
            fh.write(f"{w:.17g}: {idx}\n")


# Bytes of memory that parsing may take per byte of a structure file, rounded
# up from tracemalloc peaks over 2e5 groups: 151 for one-index lines "1:1",
# the most groups per byte, 110 for "1:1,2", 17 for distinct singletons, 23
# for one long line. Most of the "1:1" peak is its 2e5 laminar layers, one
# per copy of the same group.
LOAD_BYTES_PER_FILE_BYTE = 256


def load_group_structure(path, p: int) -> GroupStructure:
    """Parse the text format written by save_group_structure into groups over
    ``p`` coordinates. A fault names the line that holds it."""
    index, sizes, weights, lines = array("q"), array("q"), array("d"), array("q")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                w_part, idx_part = line.split(":", 1)
                w = float(w_part)
                idx = [int(t) - 1 for t in idx_part.split(",")]
                index.extend(idx)
            except (ValueError, OverflowError) as exc:
                raise ParameterError(f"line {lineno}: cannot parse {line!r}") from exc
            fault = envelope_fault(w)
            if fault:
                raise ParameterError(f"line {lineno}: weight {fault}")
            sizes.append(len(idx))
            weights.append(w)
            lines.append(lineno)
    if not sizes:
        raise ParameterError("structure file contains no groups")
    try:
        return GroupStructure(index, sizes, weights, p)
    except GroupIndexError as exc:
        fault = "is repeated" if 0 <= exc.index < p else f"is outside [1, {p}]"
        raise ParameterError(f"line {lines[exc.group]}: index {exc.index + 1} {fault}") from exc
