"""Independent reference computations used only by the tests.

Everything here works from first principles on dense matrices and avoids the
package's fast paths: the block-selection map is explicitly materialized, the
prox reference maximizes the dual with projected gradient steps and certifies
its accuracy through the duality gap, laminarity is decided from dense pairwise
intersections, the laminar prox is applied one group at a time, the overlapping
prox is dual block-coordinate ascent on the unscaled duals, gradients are
checked against central finite differences, random draws come straight from
Philox one request at a time, normal draws from one whole-array Box-Muller
transform, the sigmoid from the sign-split masked form, dataset CSVs are read
back with ``csv`` and ``float``, trace and compare CSVs as rows of strings
with ``csv``, the square loss from its residual, the
minibatch gradients from their validated formulas, and the solvers' recursion
is a plain loop over the public, validating functions, with the l1 shrink in
its sign form.

Some references pin the bits of a fast path instead: the laminar prox in its
masked form on depth layers rebuilt by dense containment, the overlapping
prox's dual FISTA and the smoothing's projection spreading their per-group
scales with ``np.repeat``, the logistic generator with whole-array row norms
and a copying divide, and the group structure built one group at a time.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from composite_sgd.core import (ENVELOPE, ConvergenceError, DimensionError, DivergenceError,
                                ParameterError, RngStream, as_vector, envelope_fault)
from composite_sgd.problems import ground_truth, sigmoid
from composite_sgd.regularizers import (
    DUAL_GAP_RTOL,
    DUAL_MAX_ITER,
    GroupStructure,
    evaluate,
    prox,
)


def flat_family(groups, weights, p: int):
    """The ``GroupStructure`` arguments ``(index, sizes, weights, p)`` of a
    family given as one index sequence per group."""
    index = np.array([i for g in groups for i in g], dtype=np.int64)
    return index, [len(g) for g in groups], weights, p


def groups_of(st) -> list[np.ndarray]:
    """Each group's sorted indices, as views of the structure's flat layout."""
    return np.split(st.flat_index, st.offsets[1:])


class PerGroupStructure:
    """``GroupStructure`` as it was built from one index array per group: each
    group validated and sorted on its own, the flat layout concatenated from
    them, and each depth layer's indices concatenated group by group."""

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
        bad = np.flatnonzero(~((weights >= ENVELOPE[0]) & (weights <= ENVELOPE[1])))
        if bad.size:
            raise ParameterError(f"group {bad[0]} weight {envelope_fault(weights[bad[0]])}")
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
        self.flat_index = np.concatenate(cleaned)
        self.offsets = np.zeros(len(cleaned), dtype=np.int64)
        np.cumsum(self.sizes[:-1], out=self.offsets[1:])
        self.owner = np.repeat(np.arange(len(cleaned)), self.sizes)
        self.max_cover = int(np.bincount(self.flat_index, minlength=p).max())
        self.layers, self.layer_weights = self._depth_layers()

    def _depth_layers(self):
        innermost = np.full(self.p, -1, dtype=np.int64)
        depth = np.full(len(self.groups) + 1, -1, dtype=np.int64)
        for k in np.argsort(-self.sizes, kind="stable"):
            parents = innermost[self.groups[k]]
            if np.any(parents != parents[0]):
                return None, None
            depth[k] = depth[parents[0]] + 1
            innermost[self.groups[k]] = k
        depth = depth[:-1]
        order = np.argsort(-depth, kind="stable")
        bounds = np.cumsum(np.bincount(depth)[::-1])
        layers = []
        for lo, hi in zip([0, *bounds[:-1]], bounds):
            members = order[lo:hi]
            sizes = self.sizes[members]
            offsets = np.concatenate(([0], np.cumsum(sizes[:-1])))
            index = np.concatenate([self.groups[k] for k in members])
            if np.all(np.diff(index) == 1):
                index = slice(int(index[0]), int(index[-1]) + 1)
            within = np.repeat(np.arange(members.size), sizes)
            layers.append((index, offsets, within, int(lo), int(hi)))
        return layers, self.weights[order]


def materialize_map(lam: float, groups, weights, p: int) -> np.ndarray:
    """Dense matrix of the block-selection map: one row per (group, coordinate)."""
    rows = sum(len(g) for g in groups)
    A = np.zeros((rows, p))
    r = 0
    for g, w in zip(groups, weights):
        for i in g:
            A[r, i] = lam * w
            r += 1
    return A


def _block_layout(groups):
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    offsets = np.zeros(len(groups), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    return sizes, offsets


def prox_reference(g, z, eta, lam, groups, weights, p,
                   gap_tol=None, max_iter=500_000):
    """Minimizer of <x, g> + (eta/2)||x - z||^2 + lam * sum_g w_g ||x_g||.

    Maximizes the dual over the product of unit balls with projected gradient
    steps (momentum plus restart on a non-monotone gap) and stops once the
    primal-dual gap certifies the primal iterate to well below 1e-6 per
    coordinate. Returns (x, certified_gap).
    """
    g = np.asarray(g, float)
    z = np.asarray(z, float)
    u = z - g / eta
    if lam == 0.0 or len(groups) == 0:
        return u.copy(), 0.0
    A = materialize_map(lam, groups, weights, p)
    sizes, offsets = _block_layout(groups)
    L_dual = np.linalg.norm(A, 2) ** 2 / eta
    if L_dual == 0.0:
        return u.copy(), 0.0
    if gap_tol is None:
        # strong convexity eta: ||x - x*|| <= sqrt(2 gap / eta)
        gap_tol = max(1e-15, 0.25e-13 * eta)

    def project(a):
        norms = np.sqrt(np.add.reduceat(a * a, offsets))
        factor = 1.0 / np.maximum(norms, 1.0)
        return a * np.repeat(factor, sizes)

    a = np.zeros(A.shape[0])
    momentum = a.copy()
    tk = 1.0
    prev_gap = np.inf
    best = (np.inf, u.copy())
    for _ in range(max_iter):
        a_new = project(momentum + (A @ (u - (A.T @ momentum) / eta)) / L_dual)
        x = u - (A.T @ a_new) / eta
        ax = A @ x
        # duality gap = lam*Omega(x) - a^T A x, blockwise (weights folded into A)
        omega = np.sqrt(np.add.reduceat(ax * ax, offsets)).sum()
        gap = omega - a_new @ ax
        if gap < best[0]:
            best = (gap, x)
        if gap <= gap_tol:
            return x, gap
        tk_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        momentum = a_new + ((tk - 1.0) / tk_new) * (a_new - a)
        if gap > prev_gap:
            momentum = a_new
            tk_new = 1.0
        prev_gap = gap
        a = a_new
        tk = tk_new
    return best[1], best[0]


def prox_objective(x, g, z, eta, lam, groups, weights):
    """The prox objective <x, g> + (eta/2)||x - z||^2 + lam * sum w_g ||x_g||."""
    x = np.asarray(x, float)
    omega = sum(w * np.linalg.norm(x[np.asarray(idx)]) for idx, w in zip(groups, weights))
    return float(x @ g + 0.5 * eta * ((x - z) @ (x - z)) + lam * omega)


def is_laminar_dense(groups, p: int) -> bool:
    """Every pair of groups is disjoint or nested, decided on dense G x p masks:
    the pairwise intersection sizes must be 0 or the smaller group's size."""
    mask = np.zeros((len(groups), p), dtype=np.int64)
    for k, g in enumerate(groups):
        mask[k, g] = 1
    sizes = mask.sum(axis=1)
    inter = mask @ mask.T
    pair_min = np.minimum.outer(sizes, sizes)
    return bool(((inter == 0) | (inter == pair_min)).all())


def prox_laminar_loop(u, lam, eta, groups, weights):
    """Laminar prox as one group shrinkage at a time, smallest group first
    (ties by first index), so every group is shrunk after all groups it contains."""
    x = np.array(u, float)
    sizes = np.array([len(g) for g in groups])
    firsts = np.array([np.min(g) for g in groups])
    for k in np.lexsort((firsts, sizes)):
        idx = np.asarray(groups[k])
        block = x[idx]
        nrm = np.sqrt(block @ block)
        thr = lam * weights[k] / eta
        if nrm <= thr:
            x[idx] = 0.0
        else:
            x[idx] = block * (1.0 - thr / nrm)
    return x


def masked_layers(st):
    """The laminar depth layers as ``(index, offsets, sizes, weights)``, rebuilt
    from ``groups_of(st)`` by dense containment: a group's depth is the number
    of groups that strictly contain it plus the identical groups stored before
    it. Deepest layer first, members in stored order."""
    groups = groups_of(st)
    sets = [frozenset(g.tolist()) for g in groups]
    depth = [sum(1 for j, h in enumerate(sets) if h > s or (h == s and j < k))
             for k, s in enumerate(sets)]
    layers = []
    for d in sorted(set(depth), reverse=True):
        members = [k for k in range(len(sets)) if depth[k] == d]
        sizes = np.array([groups[k].size for k in members], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(sizes[:-1])))
        index = np.concatenate([groups[k] for k in members])
        layers.append((index, offsets, sizes, st.weights[members]))
    return layers


def prox_laminar_masked(st, lam, u, eta):
    """The laminar prox in its masked form: per layer a ``keep`` mask, a divide
    into ``ones_like`` only where kept, and ``np.repeat`` over the block sizes."""
    x = u.copy()
    for index, offsets, sizes, weights in masked_layers(st):
        block = x[index]
        nrm = np.sqrt(np.add.reduceat(block * block, offsets))
        thr = lam * weights / eta
        # Blocks with nrm <= thr become exact zeros; dividing only where
        # nrm > thr >= 0 also keeps zero-norm blocks free of 0/0.
        keep = nrm > thr
        scale = 1.0 - np.divide(thr, nrm, out=np.ones_like(nrm), where=keep)
        x[index] = block * np.repeat(scale, sizes)
    return x


def prox_dual_fista_repeat(st, lam, u, eta, max_iter=DUAL_MAX_ITER, restarts=None):
    """The overlapping prox's restarted dual FISTA, spreading each group's
    projection scale over its block with ``np.repeat`` over the block sizes,
    with fresh arrays and the general momentum step at every step;
    ``max_iter`` ascent steps are the budget, and an exhausted one raises
    the prox's message. ``restarts``, a list if given, collects the number
    (from 1) of each ascent step whose momentum the gradient test resets."""
    index, offsets, sizes = st.flat_index, st.offsets, st.sizes
    radii = lam * st.weights
    step = eta / st.max_cover
    pen_u = radii @ st.block_norms(u[index])
    b = np.zeros(index.size)
    x = u.copy()
    xf = x[index]
    b_prev, xf_prev, y = b, xf, b
    t = 1.0
    for k in range(max_iter + 1):
        pen_x = radii @ st.block_norms(xf)
        gap = pen_x - b @ xf
        target = DUAL_GAP_RTOL * (pen_x + pen_u)
        if gap <= target:
            return x
        if k == max_iter:
            break
        db = b - b_prev
        if (b - y) @ db < 0.0:
            t = 1.0
            if restarts is not None:
                restarts.append(k + 1)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        t = t_next
        y = b + beta * db
        v = y + step * (xf + beta * (xf - xf_prev))
        nrm = np.sqrt(np.add.reduceat(v * v, offsets))
        scale = radii / np.maximum(nrm, radii)
        b_prev, xf_prev = b, xf
        b = v * np.repeat(scale, sizes)
        x = u - np.bincount(index, weights=b, minlength=st.p) / eta
        xf = x[index]
    raise ConvergenceError(
        f"overlapping prox: dual gap {gap:.3e} above target {target:.3e} "
        f"after {max_iter} dual iterations",
        last_iterate=x,
    )


def prox_dual_ascent_loop(u, lam, eta, groups, weights, tol=1e-15, max_sweeps=100_000):
    """Overlapping prox by dual block-coordinate ascent over unit-ball duals a_g,
    keeping s = sum_g lam * w_g * a_g. Groups are visited smallest first (ties
    by first index); the sweep stops once the iterate moves less than ``tol``,
    or raises ``ConvergenceError`` with the last iterate after ``max_sweeps``
    sweeps."""
    u = np.asarray(u, float)
    groups = [np.asarray(g) for g in groups]
    sizes = np.array([g.size for g in groups])
    firsts = np.array([np.min(g) for g in groups])
    order = np.lexsort((firsts, sizes))
    s = np.zeros(u.size)
    alphas = [np.zeros(g.size) for g in groups]
    x = u.copy()
    for _ in range(max_sweeps):
        x_prev = x
        for k in order:
            idx = groups[k]
            c = lam * weights[k]
            s[idx] -= c * alphas[k]
            target = (eta * u[idx] - s[idx]) / c
            nrm = np.sqrt(target @ target)
            if nrm > 1.0:
                target = target / nrm
            alphas[k] = target
            s[idx] += c * target
        x = u - s / eta
        if np.max(np.abs(x - x_prev)) < tol:
            return x
    raise ConvergenceError("reference dual ascent did not converge", last_iterate=x)


def singleton_structure(p: int) -> GroupStructure:
    """One unit-weight group per coordinate; behaves identically to the l1 norm."""
    return GroupStructure(*flat_family([np.array([i]) for i in range(p)], np.ones(p), p))


def random_laminar_structure(p: int, rng: RngStream):
    """Random nested segment family over [0, p): (groups, weights)."""
    groups = [np.arange(p, dtype=np.int64)]

    def split(lo, hi):
        if hi - lo >= 2 and rng.uniform(1)[0] < 0.8:
            mid = lo + 1 + int(rng.uniform(1)[0] * (hi - lo - 1))
            groups.append(np.arange(lo, mid, dtype=np.int64))
            groups.append(np.arange(mid, hi, dtype=np.int64))
            split(lo, mid)
            split(mid, hi)

    split(0, p)
    weights = 0.5 + 1.5 * rng.uniform(len(groups))
    return groups, weights


def central_difference(f, x, step=1e-6):
    """Per-coordinate central finite differences of a scalar function."""
    x = np.asarray(x, float)
    out = np.empty_like(x)
    for j in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        out[j] = (f(hi) - f(lo)) / (2.0 * step)
    return out


class PhiloxStream:
    """RngStream without its block: every request draws straight from Philox
    keyed on (seed, stream path), as ``uniform(n)``, ``normal(n)`` from one
    Box-Muller batch, and ``indices(n, upper)`` mapped from ``uniform(n)``."""

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(path))))

    def uniform(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def normal(self, n: int) -> np.ndarray:
        return normal_one_shot(self, n)

    def indices(self, n: int, upper: int) -> np.ndarray:
        return np.minimum((self.uniform(n) * upper).astype(np.int64), upper - 1)


def logistic_dataset_copying(K: int, p: int, rng):
    """X and y of the logistic generator with whole-array row norms and a
    copying divide."""
    beta = ground_truth("logistic", p)
    X = rng.normal(K * p).reshape(K, p)
    norms = np.linalg.norm(X, axis=1)
    while np.any(norms == 0.0):
        bad = np.flatnonzero(norms == 0.0)
        X[bad] = rng.normal(bad.size * p).reshape(bad.size, p)
        norms = np.linalg.norm(X, axis=1)
    X = X / norms[:, None]
    prob = sigmoid(X @ beta)
    return X, (rng.uniform(K) < prob).astype(np.float64)


def sigmoid_masked(t) -> np.ndarray:
    """1 / (1 + exp(-t)) for t >= 0 and e^t / (1 + e^t) otherwise, written into
    the two sign classes through boolean masks."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def normal_one_shot(rng, n: int) -> np.ndarray:
    """n Box-Muller normals from one batch of uniforms: r from the even-index
    uniforms, the angle from the odd ones through the tangent t of its half,
    cosine normals r (1 - t^2) / (1 + t^2) at even positions and sine normals
    r 2t / (1 + t^2) at odd ones."""
    pairs = (n + 1) // 2
    u = rng.uniform(2 * pairs)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    t = np.tan(np.pi * u[1::2])
    w = r / (1.0 + t * t)
    z = np.empty(2 * pairs)
    z[0::2] = w * (1.0 - t * t)
    z[1::2] = w * (2.0 * t)
    return z[:n]


def objective_residual(d, beta) -> float:
    """(1 / 2K) ||X beta - y||^2 from the residual vector."""
    r = d.X @ beta - d.y
    return float((r @ r) / (2.0 * d.K))


def minibatch_gradient_linear(d, beta, S) -> np.ndarray:
    """(1/|S|) X_S^T (X_S beta - y_S) for an index multiset S (with replacement)."""
    beta = as_vector(beta, d.p, "beta")
    S = np.asarray(S, dtype=np.int64)
    if S.size == 0:
        raise ParameterError("minibatch S must be nonempty")
    if S.min() < 0 or S.max() >= d.K:
        raise ParameterError(f"minibatch indices outside [0, {d.K})")
    XS = d.X[S]
    return XS.T @ (XS @ beta - d.y[S]) / S.size


def minibatch_gradient_logistic(d, beta, S) -> np.ndarray:
    """(1/|S|) sum_{i in S} (sigmoid(beta^T x_i) - y_i) x_i."""
    beta = as_vector(beta, d.p, "beta")
    S = np.asarray(S, dtype=np.int64)
    if S.size == 0:
        raise ParameterError("minibatch S must be nonempty")
    if S.min() < 0 or S.max() >= d.K:
        raise ParameterError(f"minibatch indices outside [0, {d.K})")
    XS = d.X[S]
    return XS.T @ (sigmoid(XS @ beta) - d.y[S]) / S.size


def read_dataset_csv(path):
    """Header, X and y of a dataset CSV, parsed with ``csv`` and ``float``."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    data = np.array([[float(v) for v in row] for row in rows])
    return header, data[:, 1:], data[:, 0]


def read_trace_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a trace or compare CSV, each row as its strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def maximizer_formula(sreg, x):
    """v_mu(x) written out from the penalty: for l1, clip(lam * x / mu, -1, 1)
    with Python-float bounds; for a group norm, a = lam * w_g * x_g / mu
    projected onto each group's unit ball, the projection's factor spread
    over the block with ``np.repeat`` over the block sizes."""
    st = sreg.base.structure
    if st is None:
        return np.clip(sreg.base.lam * x / sreg.mu, -1.0, 1.0)
    a = sreg.base.lam * st.weights[st.owner] * x[st.flat_index] / sreg.mu
    return a * np.repeat(1.0 / np.maximum(st.block_norms(a), 1.0), st.sizes)


def smoothed_gradient_formula(sreg, x):
    """A^T v_mu(x) written out from the penalty: lam * clip(lam * x / mu, -1, 1)
    for l1; for a group norm, ``maximizer_formula`` scaled by lam * w_g and
    summed back per coordinate."""
    reg = sreg.base
    st = reg.structure
    a = maximizer_formula(sreg, x)
    if st is None:
        return reg.lam * a
    return np.bincount(st.flat_index, weights=reg.lam * st.weights[st.owner] * a,
                       minlength=st.p)


def soft_threshold_sign(u, thr) -> np.ndarray:
    """The l1 shrink in its sign form sign(u) * max(|u| - thr, 0), which
    gives -0.0 where a negative u has |u| <= thr."""
    return np.sign(u) * np.maximum(np.abs(u) - thr, 0.0)


def two_sequence_loop(data, batch, reg, eta, N, rng, objective, trace_every, sreg=None):
    """The solvers' recursion from x_0 = z_0 = 0, one validating call at a time.

    Each iteration draws S with ``rng.indices`` (pass a ``PhiloxStream`` to
    draw without the stream's block) and takes the minibatch
    gradient through ``minibatch_gradient_*``; the step is ``prox`` (``sreg``
    None; for l1 the shrink ``soft_threshold_sign`` of z - g / eta) or the
    closed-form smoothed step against ``smoothed_gradient_formula``;
    a coordinate of z or x that is not finite or exceeds 1e12 raises
    ``DivergenceError``. Returns x_{N+1} and the (iteration, objective +
    penalty) rows at x_0, every ``trace_every``-th iterate and the last.
    """
    gradient = minibatch_gradient_linear if data.kind == "linear" else minibatch_gradient_logistic
    x = np.zeros(data.p)
    z = np.zeros(data.p)
    rows = [(0, float(objective(x) + evaluate(reg, x)))]
    for t in range(N + 1):
        th = 2.0 / (2.0 + t)
        y = (1.0 - th) * x + th * z
        g = gradient(data, y, rng.indices(batch, data.K))
        if sreg is None and reg.structure is None:
            z = soft_threshold_sign(z - g / eta(t), reg.lam / eta(t))
        elif sreg is None:
            z = prox(reg, g, z, eta(t))
        else:
            z = z - (g + smoothed_gradient_formula(sreg, y)) / eta(t)
        x = (1.0 - th) * x + th * z
        if not (np.max(np.abs(z)) <= 1e12 and np.max(np.abs(x)) <= 1e12):
            raise DivergenceError("reference iterate diverged", iteration=t)
        if (t + 1) % trace_every == 0 or t == N:
            rows.append((t + 1, float(objective(x) + evaluate(reg, x))))
    return x, rows
