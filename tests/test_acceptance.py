"""Acceptance suite: one test per criterion, each printed as a summary line.

Exact finite-space checks run against independent oracles (log-sum-exp,
binomial sums, product enumeration, coupling grids); asymptotic statements
are verified by one-sided statistical checks with the slack constants
surfaced by the harness.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (ProductDist, check_integrability, entropic_risk,
                     entropic_type_value, greedy_optimizer_from_trace,
                     numeric_tangent_grad, risk, saa_exact_exceedance,
                     shortfall_risk, tensor_penalty, tensor_penalty_batch)
from sanovdual.cli import main as cli_main
from sanovdual.cramer import deviation_bound, moment_norm
from sanovdual.dp import (SimplexFunction, backward_value_dense,
                          backward_value_symmetric, sanov_limit, superhedge,
                          symmetric_terminal, transport_control_value)
from sanovdual.losses import ExpLoss, PowerLoss
from sanovdual.laws import FiniteSupportLaw, ParetoLaw
from sanovdual.montecarlo import (RademacherIncrements, SAAInstance,
                                  ScriptedIncrements, azuma_experiment,
                                  estimate_tail, mann_kendall_upward_p,
                                  rate_fit, saa_run)
from sanovdual.optim import pgd_max_simplex, simplex_grid
from sanovdual.penalties import (LpEntropy, RelativeEntropy, Robust,
                                 SetIndicator, Shortfall, Transport, penalty)
from sanovdual.spaces import Dist

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
UNIF2 = Dist.uniform(2)


def rand_dist(rng, m):
    w = rng.dirichlet(np.ones(m)) + 5e-3
    return Dist(w / w.sum())


def six_specs():
    g1, g2 = Dist([0.2, 0.8]), Dist([0.7, 0.3])
    return {
        "relative_entropy": RelativeEntropy(UNIF2),
        "lp_entropy": LpEntropy(UNIF2, 2.0),
        "shortfall": Shortfall(UNIF2, PowerLoss(2.0)),
        "robust": Robust((g1, g2)),
        "set_indicator": SetIndicator((g1, g2)),
        "transport": Transport(UNIF2, np.array([[0.0, 1.5], [0.8, 0.0]])),
    }


def test_criterion_01_closed_form_duality(record_criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_rho = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 6))
        mu = rand_dist(rng, m)
        f = rng.normal(size=m) * 1.5
        got = shortfall_risk(f, mu, ExpLoss())
        want = entropic_risk(f, mu)
        worst_rho = max(worst_rho, abs(got - want))
    worst_alpha = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 6))
        q = float(rng.uniform(1.3, 3.5))
        mu, nu = rand_dist(rng, m), rand_dist(rng, m)
        got = penalty(nu, Shortfall(mu, PowerLoss(q)))
        want = penalty(nu, LpEntropy(mu, q / (q - 1.0)))
        worst_alpha = max(worst_alpha, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst_rho <= 1e-9 and worst_alpha <= 1e-6 and elapsed < 1.0
    record_criterion(1, ok, f"shortfall/entropic gap {worst_rho:.2e} "
                            f"(tol 1e-9), power/Lp gap {worst_alpha:.2e} "
                            f"(tol 1e-6), {elapsed:.2f}s (< 1s)")
    assert ok


def test_criterion_02_recursion_vs_brute_force(record_criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_lower = 0.0   # how far a sampled value exceeds the recursion
    worst_upper = 0.0   # how far the recursion exceeds its own optimizer
    for n in (2, 3):
        draws = rng.dirichlet(np.ones(2 ** n), size=10_000)
        for name, spec in six_specs().items():
            f = rng.normal(size=2 ** n)
            value, stages = backward_value_dense(f, spec,
                                                 keep_trace=True)
            alphas = tensor_penalty_batch(draws, n, 2, spec)
            sampled = draws @ f - alphas
            sampled = sampled[np.isfinite(sampled)]
            if sampled.size:
                worst_lower = max(worst_lower, float(sampled.max()) - value)
            nu_star = greedy_optimizer_from_trace(stages, spec)
            achieved = float(np.dot(nu_star.tensor, f)) - \
                tensor_penalty(nu_star, spec)
            worst_upper = max(worst_upper, value - achieved)
    elapsed = time.perf_counter() - t0
    ok = worst_lower <= 1e-6 and worst_upper <= 1e-6 and elapsed < 30.0
    record_criterion(2, ok, f"sampled excess {worst_lower:.2e}, optimizer "
                            f"deficit {worst_upper:.2e} (tol 1e-6), "
                            f"{elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_03_chain_rule(record_criterion):
    rng = np.random.default_rng(103)
    mu = rand_dist(rng, 3)
    spec = RelativeEntropy(mu)
    joint = RelativeEntropy(Dist(ProductDist.iid(mu, 2).tensor))
    worst = 0.0
    for _ in range(100):
        t = rng.dirichlet(np.ones(9))
        lhs = tensor_penalty(ProductDist(2, 3, t), spec)
        rhs = float(penalty(t[None, :], joint)[0])
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10
    record_criterion(3, ok, f"max |alpha_2 - H(.|mu^2)| = {worst:.2e} "
                            f"(tol 1e-10)")
    assert ok


def test_criterion_04_sanov_limit(record_criterion):
    t0 = time.perf_counter()

    def well(m):    # F(nu) = -(nu_0 - 0.7)^2 on the laws of m states
        return SimplexFunction("square_well", m, coordinate=0, center=0.7,
                               scale=-1.0)

    schedule = [25, 50, 100, 200]
    F = well(2)
    run = sanov_limit(F, RelativeEntropy(UNIF2), schedule, grid_step=0.01)
    worst_exact = max(abs(v - entropic_type_value(F, UNIF2.weights, n))
                      for n, v in zip(run.schedule, run.values))
    # Four states: the well lumps them into two groups, and a linear F with
    # distinct coefficients keeps every state its own group, so that its
    # recursion meets C(103, 3) = 176,851 classes.
    mu4 = Dist([0.1, 0.2, 0.3, 0.4])
    linear = SimplexFunction("linear", 4,
                             coeffs=np.array([0.3, -0.2, 0.5, 0.1]))
    for F4 in (well(4), linear):
        run4 = sanov_limit(F4, RelativeEntropy(mu4), [25, 50, 100],
                           grid_step=0.05)
        worst_exact = max([worst_exact] + [
            abs(v - entropic_type_value(F4, mu4.weights, n))
            for n, v in zip(run4.schedule, run4.values)])
    decreasing = all(a > b for a, b in zip(run.gaps, run.gaps[1:]))
    elapsed = time.perf_counter() - t0
    ok = (worst_exact <= 1e-9 and run.gaps[-1] <= 0.05 and decreasing
          and elapsed < 10.0)
    record_criterion(4, ok, f"type-class oracle gap {worst_exact:.2e} "
                            f"(tol 1e-9; m = 2 to n = 200, m = 4 to n = 100), "
                            f"|v_200 - target| = "
                            f"{run.gaps[-1]:.4f} (<= 0.05), gaps decreasing="
                            f"{decreasing}, {elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_05_polynomial_sanov_shadow(record_criterion):
    t0 = time.perf_counter()
    inf_alpha = penalty(Dist([0.8, 0.2]), LpEntropy(UNIF2, 2.0))
    budget = (1.0 / inf_alpha) * 1.1
    worst = -math.inf
    for n in (50, 100, 200):
        k_min = math.ceil(0.8 * n)
        log_half = -n * math.log(2.0)
        prob = sum(math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                            - math.lgamma(n - k + 1) + log_half)
                   for k in range(k_min, n + 1))
        worst = max(worst, math.sqrt(n) * math.sqrt(prob))
    elapsed = time.perf_counter() - t0
    ok = worst <= budget and elapsed < 1.0
    record_criterion(5, ok, f"max sqrt(n) P^(1/2) = {worst:.4f} <= "
                            f"{budget:.4f}, {elapsed:.2f}s (< 1s)")
    assert ok


def test_criterion_06_tensor_norm_bound(record_criterion):
    rng = np.random.default_rng(106)
    spec = LpEntropy(UNIF2, 2.0)
    ref = ProductDist.iid(UNIF2, 2).tensor
    draws = rng.dirichlet(np.ones(4), size=1000)
    alphas = tensor_penalty_batch(draws, 2, 2, spec)
    norms = np.sqrt((draws / ref) ** 2 @ ref)
    violations = int((alphas > math.sqrt(2.0) * norms + 1e-9).sum())
    ok = violations == 0
    record_criterion(6, ok, f"{violations} violations of "
                            f"alpha_2 <= 2^(1/2) ||dnu/dmu^2||_L2 in 1000 "
                            f"draws (slack 1e-9)")
    assert ok


def test_criterion_07_superhedging(record_criterion):
    rng = np.random.default_rng(107)
    worst_resid, worst_slice = 0.0, 0.0
    for spec in (RelativeEntropy(UNIF2), Shortfall(UNIF2, PowerLoss(2.0))):
        for _ in range(20):
            f = rng.normal(size=8)
            cert = superhedge(f, spec)
            worst_resid = max(worst_resid, cert.residual_max)
            worst_slice = max(worst_slice, cert.slice_risk_max)
    ok = worst_resid <= 1e-8 and worst_slice <= 1e-7
    record_criterion(7, ok, f"residual {worst_resid:.2e} (tol 1e-8), slice "
                            f"risk {worst_slice:.2e} (tol 1e-7), n=3, 20 "
                            f"random fields x 2 specs")
    assert ok


def test_criterion_08_transport_duality(record_criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    grid = simplex_grid(3, 0.01)
    worst_gap = 0.0
    for _ in range(20):
        mu = rand_dist(rng, 3)
        cost = rng.uniform(0.0, 2.0, (3, 3))
        np.fill_diagonal(cost, 0.0)
        f = rng.normal(size=3)
        spec = Transport(mu, cost)
        rho = risk(f, spec)
        vals = grid @ f - penalty(grid, spec)
        best = float(vals.max())

        def J(nu):
            # normalized so the finite-difference probes stay on the simplex
            nu = np.maximum(nu, 0.0)
            nu = nu / nu.sum(axis=1, keepdims=True)
            a = penalty(nu, spec)
            return np.where(np.isfinite(a), nu @ f - a, -math.inf)

        x0 = grid[int(np.argmax(vals))]
        _, refined = pgd_max_simplex(
            lambda X: numeric_tangent_grad(J, X), x0, max_iter=120)
        oracle = max(best, refined)
        worst_gap = max(worst_gap, abs(rho - oracle))
    worst_ctl = 0.0
    for _ in range(10):
        mu = rand_dist(rng, 2)
        cost = rng.uniform(0.0, 2.0, (2, 2))
        f = rng.normal(size=4)
        v1, _ = backward_value_dense(f, Transport(mu, cost))
        v2 = transport_control_value(f, mu, cost)
        worst_ctl = max(worst_ctl, abs(v1 - v2))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 2e-3 and worst_ctl <= 1e-10
    record_criterion(8, ok, f"relaxation vs grid oracle {worst_gap:.2e} "
                            f"(tol 2e-3), control vs recursion "
                            f"{worst_ctl:.2e} (tol 1e-10), {elapsed:.1f}s")
    assert ok


def test_criterion_09_robust_product_enumeration(record_criterion):
    rng = np.random.default_rng(109)
    g = (Dist([0.25, 0.75]), Dist([0.65, 0.35]))
    spec = Robust(g)
    worst = 0.0
    for _ in range(20):
        f = rng.normal(size=4).reshape(2, 2)
        v, _ = backward_value_dense(f, spec)
        best = -math.inf
        for first in g:
            for k0 in g:
                for k1 in g:
                    t = np.concatenate([first.weights[0] * k0.weights,
                                        first.weights[1] * k1.weights])
                    peak = f.ravel().max()
                    best = max(best, peak + math.log(float(
                        np.dot(t, np.exp(f.ravel() - peak)))))
        worst = max(worst, abs(v - best))
    ok = worst <= 1e-9
    record_criterion(9, ok, f"recursion vs |M|^(1+m) kernel enumeration gap "
                            f"{worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_10_heavy_tail_bound(record_criterion):
    t0 = time.perf_counter()
    law = ParetoLaw(2.5)
    q = 2.0
    mq = moment_norm(law, q)
    r = mq + 1.0
    const = (mq / (r - mq)) ** q
    ratios = []
    upper_ratios = []   # the same check on the Wilson upper limit
    for n in (1_000, 10_000):
        est = estimate_tail(law, n, r, 100_000, seed=1010)
        ratios.append(est.p_hat * n ** (q - 1.0) / const)
        upper_ratios.append(est.hi * n ** (q - 1.0) / const)
    bound_ok = all(rt <= 1.2 for rt in ratios)
    upper_ok = all(rt <= 1.2 for rt in upper_ratios)
    slope_schedule = [10, 20, 40, 80, 160]
    p_hats = [estimate_tail(law, n, r, 200_000, seed=1011).p_hat
              for n in slope_schedule]
    fit = rate_fit(slope_schedule, p_hats)
    slope_ok = fit.status == "ok" and fit.upper95 <= -0.75
    elapsed = time.perf_counter() - t0
    ok = bound_ok and upper_ok and slope_ok and elapsed < 300.0
    record_criterion(10, ok, f"scaled tail ratios {ratios[0]:.3f}/"
                             f"{ratios[1]:.3f} (<= 1.2), Wilson upper "
                             f"{upper_ratios[0]:.3f}/{upper_ratios[1]:.3f} "
                             f"(<= 1.2), slope "
                             f"{fit.slope:.2f} upper95 {fit.upper95:.2f} "
                             f"(<= -0.75), {elapsed:.0f}s (< 300s)")
    assert ok


def test_criterion_11_stochastic_program_rates(record_criterion):
    t0 = time.perf_counter()
    instance = SAAInstance(
        decisions=np.linspace(0.0, 2.0, 21),
        loss=lambda x, w: (x - 1.0) ** 2 + x * w,
        law=ParetoLaw(2.5),
        epsilon=0.5, q=2.0)
    check_integrability(instance, seed=111)
    run = saa_run(instance, [50, 150, 500, 1500], 20_000, seed=1110)
    mk_ok = run.mann_kendall_p > 0.05
    bounded = max(run.scaled) <= 2.0  # the scaled series stays O(1)

    small = SAAInstance(
        decisions=np.array([0.0, 1.0]),
        loss=lambda x, w: np.abs(w - x),
        law=FiniteSupportLaw(np.array([0.0, 1.0, 2.0]),
                             np.array([0.6, 0.3, 0.1])),
        epsilon=0.2, q=2.0)
    exact = saa_exact_exceedance(small, 3)
    est = saa_run(small, [3], 20_000, seed=1111).estimates[0]
    enum_ok = est.lo <= exact <= est.hi
    elapsed = time.perf_counter() - t0
    ok = mk_ok and bounded and enum_ok
    record_criterion(11, ok, f"Mann-Kendall p {run.mann_kendall_p:.3f} "
                             f"(> 0.05), scaled series max "
                             f"{max(run.scaled):.3f}, n=3 enumeration "
                             f"{exact:.4f} in [{est.lo:.4f}, {est.hi:.4f}], "
                             f"{elapsed:.0f}s")
    assert ok


def test_criterion_12_martingale_bound(record_criterion):
    t0 = time.perf_counter()
    res_iid = azuma_experiment(RademacherIncrements(), 0.5, 400, 50_000,
                               seed=112)
    res_scripted = azuma_experiment(ScriptedIncrements(), 0.5, 400, 50_000,
                                    seed=113)
    exact_ok = (math.log(res_iid.exact_tail) / 400.0) <= res_iid.budget
    elapsed = time.perf_counter() - t0
    ok = res_iid.ok and res_scripted.ok and exact_ok
    record_criterion(12, ok, f"(1/n)log p: fair {res_iid.empirical_exponent}"
                             f", scripted {res_scripted.empirical_exponent}"
                             f" <= {res_iid.budget:.4f}; exact fair exponent "
                             f"{math.log(res_iid.exact_tail) / 400.0:.4f}, "
                             f"{elapsed:.0f}s")
    assert ok


def test_criterion_13_cli_determinism(record_criterion, tmp_path):
    runs = [
        ("rho", CONFIGS / "rho_shortfall_power2.json"),
        ("sanov", CONFIGS / "sanov_set_indicator.json"),
        ("superhedge", CONFIGS / "superhedge_power2.json"),
        ("transport", CONFIGS / "transport_longrun.json"),
        ("tailbound", CONFIGS / "azuma_rademacher.json"),
        ("cramer", CONFIGS / "cramer_small.json"),
        ("saa", CONFIGS / "saa_small.json"),
    ]
    all_ok = True
    details = []
    for command, config in runs:
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            code = cli_main([command, "--config", str(config), "--out",
                             str(out), "--seed", "77"])
            assert code == 0, f"{command} exited {code}"
            h = hashlib.sha256()
            for p in sorted(out.rglob("*")):
                if p.is_file() and p.name != "manifest.json":
                    h.update(p.name.encode())
                    h.update(p.read_bytes())
            digests.append(h.hexdigest())
        same = digests[0] == digests[1]
        all_ok &= same
        details.append(f"{command}={'ok' if same else 'DIFFERS'}")
    record_criterion(13, all_ok, "rerun hash check: " + ", ".join(details))
    assert all_ok
