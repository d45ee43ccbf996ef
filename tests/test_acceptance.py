"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import time

import numpy as np

from composite_sgd.cli import main
from composite_sgd.core import RngStream
from composite_sgd.problems import (
    ContinuousLinearOracle,
    ExactOracle,
    GaussianNoiseOracle,
    MinibatchLinearOracle,
    continuous_objective,
    exact_gradient,
    exact_objective_linear,
    gen_linear_dataset,
    gen_logistic_dataset,
    ground_truth,
    lipschitz_linear,
    ortho_lasso_instance,
)
from composite_sgd.regularizers import (
    GroupStructure,
    build_hierarchical,
    evaluate,
    group_norm,
    l1,
    prox,
)
from composite_sgd.smoothing import (
    maximizer,
    smoothed,
    smoothed_gradient,
    smoothed_value,
)
from composite_sgd.solvers import (
    pilot_sigma_sq,
    run_sg,
    run_ssg,
    resolve_acsa_params,
    run_acsa,
    theorem_bound,
    theorem_bound_smoothed,
)

from _reference import (central_difference, flat_family, prox_reference, random_laminar_structure,
                        read_trace_csv)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_schedule_inequalities():
    started = time.perf_counter()
    slack = 1e-12
    ok = True
    for N in (1, 10, 100, 10_000):
        for L_eff in (1e-3, 1.0, 1e3):
            t = np.arange(N + 1, dtype=np.float64)
            theta = 2.0 / (2.0 + t)
            gamma = (2.0 / (t + 2.0)) * (N**1.5 / L_eff + 2.0)
            ok &= bool(np.all(gamma > theta))
            lhs = (1.0 - theta[1:]) / (theta[1:] * gamma[1:])
            rhs = 1.0 / (theta[:-1] * gamma[:-1])
            ok &= bool(np.all(lhs <= rhs + slack))
    elapsed = time.perf_counter() - started
    report(1, "schedule inequalities", ok and elapsed < 1.0,
           f"elapsed {elapsed:.2f}s (< 1s)")


def test_criterion_2_prox_oracle_equivalence():
    started = time.perf_counter()
    rng = RngStream(202)
    worst = 0.0
    minimizer_ok = True
    for trial in range(200):
        p = 2 + int(rng.uniform(1)[0] * 15)
        if trial % 2 == 0:
            lam = 0.05 + float(rng.uniform(1)[0])
            reg = l1(lam, p)
            groups = [np.array([j]) for j in range(p)]
            weights = np.ones(p)
        else:
            groups, weights = random_laminar_structure(p, rng)
            lam = 0.05 + float(rng.uniform(1)[0])
            reg = group_norm(lam, GroupStructure(*flat_family(groups, weights, p)))
        g = rng.normal(p)
        z = 2.0 * rng.normal(p)
        eta = 0.3 + 3.0 * float(rng.uniform(1)[0])

        mine = prox(reg, g, z, eta)
        ref, gap = prox_reference(g, z, eta, lam, groups, weights, p)
        worst = max(worst, float(np.max(np.abs(mine - ref))))

        # minimizer inequality with psi(x) = (<x,g> + h(x)) / eta at 100 probes
        def psi(x):
            return (float(x @ g) + evaluate(reg, x)) / eta

        lhs = psi(mine) + 0.5 * float((mine - z) @ (mine - z))
        for _ in range(100):
            probe = z + rng.normal(p)
            rhs = (
                psi(probe)
                + 0.5 * float((probe - z) @ (probe - z))
                - 0.5 * float((probe - mine) @ (probe - mine))
            )
            if lhs > rhs + 1e-9:
                minimizer_ok = False
    elapsed = time.perf_counter() - started
    report(2, "prox oracle equivalence", worst <= 1e-6 and minimizer_ok and elapsed < 60.0,
           f"worst coord err {worst:.2e} (<= 1e-6), elapsed {elapsed:.1f}s (< 60s)")


def test_criterion_3_smoothing_sandwich_and_gradient():
    started = time.perf_counter()
    rng = RngStream(303)
    regs = [l1(0.4, 8), group_norm(0.25, build_hierarchical(3))]

    sandwich_ok = True
    for k in range(1000):
        reg = regs[k % 2]
        x = 4.0 * rng.normal(8)
        mu = 10.0 ** (-3 + 4 * float(rng.uniform(1)[0]))
        s = smoothed(reg, mu=mu)
        value = smoothed_value(s, x)
        h = evaluate(reg, x)
        sandwich_ok &= value <= h + 1e-10 and h <= value + mu * s.base.M + 1e-10

    fd_worst = 0.0
    for k in range(100):
        reg = regs[k % 2]
        s = smoothed(reg, mu=0.05)
        x = 2.0 * rng.normal(8)
        grad = smoothed_gradient(s, x)
        fd = central_difference(lambda v: smoothed_value(s, v), x, step=1e-6)
        fd_worst = max(fd_worst, float(np.linalg.norm(fd - grad))
                       / max(float(np.linalg.norm(grad)), 1e-12))

    lipschitz_ok = True
    for k in range(1000):
        reg = regs[k % 2]
        s = smoothed(reg, mu=0.02)
        x = 3.0 * rng.normal(8)
        y = 3.0 * rng.normal(8)
        lhs = np.linalg.norm(smoothed_gradient(s, x) - smoothed_gradient(s, y))
        rhs = (s.base.A_norm**2 / s.mu) * np.linalg.norm(x - y) + 1e-10
        lipschitz_ok &= bool(lhs <= rhs)

    elapsed = time.perf_counter() - started
    report(3, "smoothing sandwich + gradient",
           sandwich_ok and fd_worst <= 1e-4 and lipschitz_ok and elapsed < 30.0,
           f"fd rel err {fd_worst:.2e} (<= 1e-4), elapsed {elapsed:.1f}s (< 30s)")


def test_criterion_4_expectation_bound_quadratic():
    started = time.perf_counter()
    p = 8
    target = np.zeros(p)
    target[0] = 1.0  # D = 1
    reg = l1(0.0, p)
    objective = lambda x: 0.5 * float((x - target) @ (x - target))
    exact = ExactOracle(lambda x: x - target, p)

    x, _ = run_sg(exact, reg, 1.0, 98, RngStream(0), objective, trace_every=0)
    gap_exact = objective(x)
    bound_exact = 0.2004  # theorem bound at D=1, sigma=0, L=1, N=98

    gaps = []
    for seed in range(20):
        noisy = GaussianNoiseOracle(exact, 0.5)  # injected sigma^2 = 0.25
        xs, _ = run_sg(noisy, reg, 1.0, 98, RngStream(seed), objective, trace_every=0)
        gaps.append(objective(xs))
    mean_gap = float(np.mean(gaps))
    bound_noisy = theorem_bound(1.0, 0.5, 1.0, 98)

    elapsed = time.perf_counter() - started
    report(4, "expectation bound, quadratic",
           gap_exact <= bound_exact and mean_gap <= bound_noisy and elapsed < 10.0,
           f"gap {gap_exact:.4f} <= {bound_exact}, noisy mean {mean_gap:.4f} <= "
           f"{bound_noisy:.5f}, elapsed {elapsed:.1f}s (< 10s)")


def test_criterion_5_expectation_bound_smoothed_lasso():
    started = time.perf_counter()
    p, lam, N = 8, 0.1, 1000
    data, x_star = ortho_lasso_instance(p, lam, RngStream(11))
    reg = l1(lam, p)
    L = lipschitz_linear(data, "scaled")
    objective = lambda b: exact_objective_linear(data, b)
    phi = lambda b: objective(b) + evaluate(reg, b)
    oracle = ExactOracle(lambda b: exact_gradient(data, b), p)

    sreg = smoothed(reg, N=N)  # mu = ||A|| / (N + 2)
    x, _ = run_ssg(oracle, sreg, L, N, RngStream(0), objective, trace_every=0)
    gap = phi(x) - phi(x_star)
    D = float(np.linalg.norm(x_star))
    bound = theorem_bound_smoothed(D, 0.0, L, sreg.base.A_norm, p / 2.0, N)

    elapsed = time.perf_counter() - started
    report(5, "expectation bound, smoothed lasso",
           0.0 <= gap <= bound and elapsed < 5.0,
           f"gap {gap:.5f} <= bound {bound:.5f}, elapsed {elapsed:.1f}s (< 5s)")


def _reach_iteration(trace, rel=0.01):
    final = trace[-1].objective
    for row in trace:
        if row.objective <= final * (1.0 + rel):
            return row.iteration
    return trace[-1].iteration


def test_criterion_6_l1_benchmark_ordering():
    started = time.perf_counter()
    seed, K, p, lam, N, batch = 1, 1000, 20, 0.1, 50_000, 10
    root = RngStream(seed)
    data = gen_linear_dataset(K, p, root.split(1))
    reg = l1(lam, p)
    L = lipschitz_linear(data, "paper")
    oracle = MinibatchLinearOracle(data, batch)
    objective = lambda b: exact_objective_linear(data, b)

    _, tr_sg = run_sg(oracle, reg, L, N, root.split(2), objective, trace_every=500)
    sreg = smoothed(reg, N=N)
    _, tr_ssg = run_ssg(oracle, sreg, L, N, root.split(2), objective, trace_every=500)
    params = resolve_acsa_params(L, N, pilot_sigma_sq(oracle, np.zeros(p), root.split(3)))
    _, tr_acsa = run_acsa(oracle, reg, L, N, params, root.split(2), objective,
                          trace_every=500)

    finals = [tr_sg[-1].objective, tr_ssg[-1].objective, tr_acsa[-1].objective]
    spread = (max(finals) - min(finals)) / min(finals)
    reach_sg = _reach_iteration(tr_sg)
    reach_ssg = _reach_iteration(tr_ssg)
    reach_acsa = _reach_iteration(tr_acsa)

    elapsed = time.perf_counter() - started
    report(6, "l1 benchmark, solver ordering",
           spread <= 0.05 and reach_sg <= reach_acsa and reach_ssg <= reach_acsa
           and elapsed < 180.0,
           f"final spread {spread:.3%} (<= 5%), reach iters sg/ssg/acsa "
           f"{reach_sg}/{reach_ssg}/{reach_acsa}, elapsed {elapsed:.0f}s (< 180s)")


def test_criterion_7_hierarchical_benchmark_timing():
    started = time.perf_counter()
    seed, K, n, lam, N, batch = 3, 1000, 5, 0.1, 10_000, 10
    root = RngStream(seed)
    structure = build_hierarchical(n)
    data = gen_linear_dataset(K, structure.p, root.split(1))
    reg = group_norm(lam, structure)
    L = lipschitz_linear(data, "paper")
    oracle = MinibatchLinearOracle(data, batch)
    objective = lambda b: exact_objective_linear(data, b)

    t0 = time.perf_counter()
    _, tr_sg = run_sg(oracle, reg, L, N, root.split(2), objective, trace_every=200)
    sg_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, tr_ssg = run_ssg(oracle, smoothed(reg, N=N), L, N, root.split(2), objective,
                        trace_every=200)
    ssg_wall = time.perf_counter() - t0

    f_sg, f_ssg = tr_sg[-1].objective, tr_ssg[-1].objective
    spread = abs(f_sg - f_ssg) / min(f_sg, f_ssg)

    elapsed = time.perf_counter() - started
    report(7, "hierarchical benchmark, smoothed speedup",
           ssg_wall < sg_wall and spread <= 0.05 and elapsed < 180.0,
           f"wall ssg {ssg_wall:.2f}s < sg {sg_wall:.2f}s, final spread {spread:.3%}, "
           f"elapsed {elapsed:.0f}s (< 180s)")


def _mean_and_se(chunks_mean_sq):
    total, total_sq, count = chunks_mean_sq
    mean = total / count
    var = (total_sq - count * mean**2) / (count - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / count)


def _check_oracle_unbiased(exact_grad, draw_chunk, n_draws, n_points, point_rng,
                           chunk=10_000):
    """Count coordinates where the empirical mean falls outside 4 standard errors."""
    failures = 0
    coords = 0
    for _ in range(n_points):
        beta = point_rng.normal(draw_chunk.dim)
        exact = exact_grad(beta)
        total = np.zeros(beta.size)
        total_sq = np.zeros(beta.size)
        done = 0
        while done < n_draws:
            m = min(chunk, n_draws - done)
            grads = draw_chunk(beta, m)
            total += grads.sum(axis=0)
            total_sq += (grads**2).sum(axis=0)
            done += m
        mean = total / n_draws
        var = (total_sq - n_draws * mean**2) / (n_draws - 1)
        se = np.sqrt(np.maximum(var, 1e-300) / n_draws)
        failures += int(np.sum(np.abs(mean - exact) > 4.0 * se))
        coords += beta.size
    return failures, coords


class _LinearDraws:
    def __init__(self, data, batch, rng):
        self.data, self.batch, self.rng = data, batch, rng
        self.dim = data.p

    def __call__(self, beta, m):
        idx = self.rng.indices(m * self.batch, self.data.K).reshape(m, self.batch)
        XS = self.data.X[idx]
        resid = XS @ beta - self.data.y[idx]
        return np.einsum("mbp,mb->mp", XS, resid) / self.batch


class _LogisticDraws:
    def __init__(self, data, batch, rng):
        self.data, self.batch, self.rng = data, batch, rng
        self.dim = data.p

    def __call__(self, beta, m):
        from composite_sgd.problems import sigmoid

        idx = self.rng.indices(m * self.batch, self.data.K).reshape(m, self.batch)
        XS = self.data.X[idx]
        resid = sigmoid(XS @ beta) - self.data.y[idx]
        return np.einsum("mbp,mb->mp", XS, resid) / self.batch


class _ContinuousDraws:
    def __init__(self, beta_hat, batch, rng):
        self.beta_hat, self.batch, self.rng = beta_hat, batch, rng
        self.dim = beta_hat.size

    def __call__(self, beta, m):
        X = self.rng.normal(m * self.batch * self.dim).reshape(m, self.batch, self.dim)
        eps = self.rng.normal(m * self.batch).reshape(m, self.batch)
        resid = X @ beta - (X @ self.beta_hat + eps)
        return np.einsum("mbp,mb->mp", X, resid) / self.batch


def test_criterion_8_oracle_unbiasedness():
    started = time.perf_counter()
    n_draws, n_points = 100_000, 20
    rng = RngStream(808)

    lin_data = gen_linear_dataset(300, 12, rng.split(1))
    log_data = gen_logistic_dataset(300, 12, rng.split(2))
    beta_hat = ground_truth("linear", 8)

    cases = [
        ("linear", _LinearDraws(lin_data, 10, rng.split(3)),
         MinibatchLinearOracle(lin_data, 10),
         lambda b: exact_gradient(lin_data, b)),
        ("logistic", _LogisticDraws(log_data, 10, rng.split(4)),
         MinibatchLinearOracle(log_data, 10),
         lambda b: exact_gradient(log_data, b)),
        ("continuous", _ContinuousDraws(beta_hat, 5, rng.split(5)),
         ContinuousLinearOracle(beta_hat, 5),
         lambda b: b - beta_hat),
    ]

    # the chunked draws must reproduce the oracle's own sample path (same stream,
    # same indices; summation order may differ at machine precision)
    for _, draws, oracle, _exact in cases:
        beta = RngStream(77).normal(draws.dim)
        probe_a, probe_b = RngStream(99).split(1), RngStream(99).split(1)
        batched = _ContinuousDraws(draws.beta_hat, draws.batch, probe_a) \
            if isinstance(draws, _ContinuousDraws) \
            else type(draws)(draws.data, draws.batch, probe_a)
        assert np.allclose(batched(beta, 1)[0], oracle.sample(beta, probe_b),
                           rtol=1e-12, atol=1e-14)

    failures = 0
    coords = 0
    for _, draws, _oracle, exact in cases:
        f, c = _check_oracle_unbiased(exact, draws, n_draws, n_points, rng.split(6))
        failures += f
        coords += c
    rate = failures / coords
    elapsed = time.perf_counter() - started
    report(8, "oracle unbiasedness",
           rate < 0.01 and elapsed < 60.0,
           f"{failures}/{coords} coordinate failures ({rate:.3%} < 1%), "
           f"elapsed {elapsed:.0f}s (< 60s)")


def test_criterion_9_continuous_closed_form():
    started = time.perf_counter()
    p, n_samples, n_points = 16, 1_000_000, 10
    beta_hat = ground_truth("linear", p)
    rng = RngStream(909)
    all_ok = True
    for _ in range(n_points):
        beta = rng.normal(p)
        expected = continuous_objective(beta, beta_hat)
        total = 0.0
        total_sq = 0.0
        done = 0
        while done < n_samples:
            m = min(100_000, n_samples - done)
            X = rng.normal(m * p).reshape(m, p)
            eps = rng.normal(m)
            losses = 0.5 * (X @ beta - (X @ beta_hat + eps)) ** 2
            total += losses.sum()
            total_sq += (losses**2).sum()
            done += m
        mean = total / n_samples
        var = (total_sq - n_samples * mean**2) / (n_samples - 1)
        se = np.sqrt(var / n_samples)
        all_ok &= bool(abs(mean - expected) <= 3.0 * se)
    elapsed = time.perf_counter() - started
    report(9, "continuous model closed form",
           all_ok and elapsed < 30.0,
           f"all {n_points} points within 3 SE, elapsed {elapsed:.0f}s (< 30s)")


def test_criterion_10_run_determinism(tmp_path):
    started = time.perf_counter()
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "problem = linear-discrete\nregularizer = l1\nsolver = sg,ssg\n"
        "K = 60\np = 6\nlambda = 0.1\nN = 400\nbatch_size = 6\nseed = 5\n"
        "trace_every = 40\n"
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    ok = main(["run", str(cfg), "--out", str(out1)]) == 0
    ok &= main(["run", str(cfg), "--out", str(out2)]) == 0
    for solver in ("sg", "ssg"):
        h1, r1 = read_trace_csv(out1 / f"trace_{solver}_5.csv")
        h2, r2 = read_trace_csv(out2 / f"trace_{solver}_5.csv")
        ok &= h1 == h2 and len(r1) == len(r2)
        for a, b in zip(r1, r2):
            ok &= a[0] == b[0] and a[2] == b[2]  # iteration and objective text
    elapsed = time.perf_counter() - started
    report(10, "run determinism",
           ok and elapsed < 10.0,
           f"traces structurally identical, elapsed {elapsed:.1f}s (< 10s)")
