"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy Monte Carlo batches (the 20-seed T=1e4 runs) are shared through the
session fixtures in conftest.py.
"""

import math
import time

import numpy as np
from alqr.estimation import min_eig_prediction
from alqr.linalg import psd_sqrt, spectral_radius
from alqr.loops import run_fixed_policy
from alqr.lqr import SystemModel, solve_dare, stability_certificate
from alqr.regret import decompose, realized_regret, slope
from alqr.schedules import adaptive_beta, p_bar
from alqr.sdp import build_relaxed_primal, extract_policy, solve_relaxed_primal
from alqr.synthesis import perturbation_check, sequential_gap

GOLDEN = (1 + np.sqrt(5)) / 2


def check(name: str, ok: bool, detail: str = ""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def random_plant(rng, n, m, allow_unstable=False):
    A = rng.standard_normal((n, n))
    r = spectral_radius(A)
    if allow_unstable:
        A *= rng.uniform(0.8, 1.2) / max(r, 1e-9)
        B = np.eye(n)[:, :m] + 0.1 * rng.standard_normal((n, m))
    else:
        A *= 0.9 / max(r, 1e-9)
        B = rng.standard_normal((n, m))
    return SystemModel(A=A, B=B, Q=np.eye(n), R=np.eye(m), sigma_w=1.0)


def test_p1_dare_oracle():
    m = SystemModel(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], sigma_w=1.0,
                    theta_bound=1.5)
    sol = solve_dare(m)
    golden_err = abs(sol.P_star[0, 0] - GOLDEN)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(100):
        plant = random_plant(rng, 3, 3, allow_unstable=(i % 2 == 0))
        s = solve_dare(plant)
        worst = max(worst, s.residual)
        assert spectral_radius(plant.A + plant.B @ s.K_star) < 1.0
    check("P1 DARE oracle", golden_err <= 1e-9 and worst <= 1e-8,
          f"golden err {golden_err:.2e}, max residual {worst:.2e} over 100 plants")


def test_p2_sdp_dare_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.time()
    worst_obj, worst_K = 0.0, 0.0
    for i in range(20):
        n, m = [(2, 2), (3, 2), (2, 1)][i % 3]
        plant = random_plant(rng, n, m)
        sol = solve_dare(plant)
        prob = build_relaxed_primal(plant.theta_star, plant, 0.0,
                                    np.eye(n + m))
        Sigma = solve_relaxed_primal(prob)
        obj = float(np.trace(Sigma[:n, :n] @ plant.Q)
                    + np.trace(Sigma[n:, n:] @ plant.R))
        K = extract_policy(Sigma, n)
        worst_obj = max(worst_obj, abs(obj - sol.J_star))
        worst_K = max(worst_K, float(np.max(np.abs(K - sol.K_star))))
    elapsed = time.time() - t0
    check("P2 SDP-DARE equivalence",
          worst_obj <= 1e-4 and worst_K <= 1e-4 and elapsed < 60,
          f"max obj err {worst_obj:.2e}, max K err {worst_K:.2e}, {elapsed:.1f}s")


def test_p3_ellipsoid_coverage(bench2x2, bench2x2_params, bench2x2_gain,
                               bench2x2_anchor):
    theta0, eps = bench2x2_anchor
    checkpoints = (500, 1000, 2000)
    flags = []
    for seed in range(500):
        _, _, contained = run_fixed_policy(
            bench2x2, bench2x2_gain, 2000, seed=seed, params=bench2x2_params,
            anchor=(theta0, eps), checkpoints=checkpoints)
        flags.extend(ok for _, ok in contained)
    freq = float(np.mean(flags))
    n_pairs = len(flags)
    sigma_bin = math.sqrt(0.9 * 0.1 / n_pairs)
    thr = 0.9 - 3 * sigma_bin
    check("P3 ellipsoid coverage", freq >= thr,
          f"containment {freq:.4f} over {n_pairs} pairs (threshold {thr:.4f})")


def test_p4_estimation_rate(p5_runs):
    pts = [(p.tau, p.est_error) for _, hist, _ in p5_runs for p in hist
           if 100 <= p.tau <= 10_000 and p.est_error > 0]
    taus = np.array([p[0] for p in pts], dtype=float)
    errs = np.array([p[1] for p in pts])
    A = np.vstack([np.log(taus), np.ones(len(pts))]).T
    coef, *_ = np.linalg.lstsq(A, np.log(errs), rcond=None)
    got = float(coef[0])
    check("P4 estimation rate", -0.6 <= got <= -0.15,
          f"epoch-start error slope {got:.3f} from {len(pts)} points "
          "(theory: -0.25 with log factors)")


def test_p5_regret_rate(bench2x2, p5_runs):
    J = solve_dare(bench2x2).J_star
    curves = [realized_regret(rec, J) for rec, _, _ in p5_runs]
    mean_curve = np.mean(curves, axis=0)
    got = slope(mean_curve, (1000, 10_000))
    check("P5 regret rate", 0.4 <= got <= 0.7,
          f"mean cumulative-regret slope {got:.3f} over t in [1e3, 1e4], "
          f"final mean regret {mean_curve[-1]:.0f} (theory: 0.5 with log factors)")


def test_p6_stability(bench2x2, bench2x2_params, p5_runs):
    gap_limit = 1.0 + bench2x2_params.gamma / 2.0
    max_norm = 0.0
    rho_ok = True
    gap_violations = 0
    gaps_seen = 0
    guarded_gaps = 0
    guarded_violations = 0
    for rec, hist, _ in p5_runs:
        max_norm = max(max_norm, rec.max_state_norm())
        rho_ok &= all(spectral_radius(bench2x2.A + bench2x2.B @ p.K) < 1.0
                      for p in hist)
        anynum = rec.diagnostics["anynum_condition"]
        # first step from which the mu-smallness condition holds onward
        t0 = next((i + 1 for i in range(len(anynum))
                   if all(anynum[i:])), None)
        for i in range(1, len(hist)):
            g = sequential_gap(hist[i - 1].P_dual, hist[i].P_dual)
            gaps_seen += 1
            guarded = t0 is not None and hist[i].tau >= t0 and hist[i - 1].tau >= t0
            guarded_gaps += guarded
            if g > gap_limit:
                gap_violations += 1
                guarded_violations += guarded
    p = bench2x2_params
    guard = 1.0 / (16.0 * p.kappa**10)  # mu |V^-1| under the mu-smallness condition
    cap = p.alpha0 * p.sigma_w**2 / (4.0 * p.nu)  # mu |V^-1| under the practical cap
    check("P6 stability", rho_ok and max_norm <= 1e3 and guarded_violations == 0,
          f"all epoch gains stabilizing={rho_ok}, max|x|={max_norm:.2f}, "
          f"sequential-gap violations {gap_violations}/{gaps_seen} recorded "
          f"({guarded_violations} of {guarded_gaps} gaps under the mu-smallness "
          f"condition, limit {gap_limit:.6f}; its guard mu|V^-1| <= {guard:.1e} "
          f"against the practical cap {cap:.1e})")


def test_p7_adaptive_beta_shape(bench2x2_params):
    p = bench2x2_params
    taus = np.unique(np.logspace(3, 6, 60).astype(int))
    r_model = [2 * p.n * math.log(t / p.delta) for t in taus]  # r = O(log tau)
    betas = np.array([adaptive_beta(int(t), r, p) for t, r in zip(taus, r_model)])
    positive = bool(np.all(betas > 0))
    monotone = bool(np.all(np.diff(betas) < 0))
    got = float(np.polyfit(np.log(taus), np.log(betas), 1)[0])
    check("P7 adaptive beta shape",
          positive and monotone and -0.35 <= got <= -0.15,
          f"positive={positive}, decreasing={monotone}, log-log slope {got:.3f}")


def test_p8_perturbation_lemma():
    rng = np.random.default_rng(99)
    all_hold = True
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        X = rng.standard_normal((d, d)) * rng.uniform(0.2, 3.0)
        Gp = rng.standard_normal((d, d))
        P = Gp @ Gp.T
        Gv = rng.standard_normal((d, d))
        V = Gv @ Gv.T + rng.uniform(0.1, 2.0) * np.eye(d)
        r = float(rng.uniform(1e-3, 10.0))
        M = r * np.linalg.inv(V)
        Gd = rng.standard_normal((d, d))
        Gd *= rng.uniform(0, 1) / max(np.linalg.norm(Gd, 2), 1e-12)
        Delta = Gd @ psd_sqrt(M)
        if not perturbation_check(X, Delta, P, V, r, slack=1e-10):
            all_hold = False
            break
    check("P8 perturbation lemma", all_hold,
          "1000 precondition-satisfying samples at dims <= 5")


def test_p9_min_eigenvalue_bound(bench2x2, bench2x2_gain, bench2x2_params):
    from dataclasses import replace
    cert = stability_certificate(bench2x2, bench2x2_gain)
    # perturbation scaled by the fixed policy's own strong-stability constant
    params = replace(bench2x2_params, kappa=cert.kappa, noise_scale=1.0)
    t_target = 2000
    assert t_target >= 200 * math.log(1 / params.delta)
    pred = min_eig_prediction(t_target, params.sigma_w,
                              p_bar(t_target, params.delta, params.phi))
    hits = 0
    for seed in range(200):
        _, est, _ = run_fixed_policy(bench2x2, bench2x2_gain, t_target,
                                     seed=seed, params=params)
        if float(np.linalg.eigvalsh(est.gram)[0]) >= pred:
            hits += 1
    check("P9 min-eigenvalue bound", hits >= 0.95 * 200,
          f"lambda_min(S_t) >= {pred:.3f} in {hits}/200 runs at t={t_target}")


def test_p10_epoch_count_bound(p5_runs, adaptive_runs, bench2x2):
    ok = True
    detail = []
    for rec, hist, ledger in p5_runs:
        Z2 = float(np.max(np.sum(np.hstack([rec.x[:-1], rec.u])**2, axis=1)))
        lam_T, lam_1 = float(rec.lambda_t[-1]), float(rec.lambda_t[0])
        bound = (bench2x2.n + bench2x2.m) * math.log2((lam_T + Z2 * rec.T) / lam_1)
        n_upd = ledger.n_updates()
        ok &= n_upd <= bound
        detail.append((n_upd, bound))
    worst = max(d[0] / d[1] for d in detail)
    J = solve_dare(bench2x2).J_star
    report = []
    for (rec_a, hist_a, led_a), (rec_d, _, led_d) in zip(adaptive_runs, p5_runs):
        Ta = rec_a.T
        reg_a = float(realized_regret(rec_a, J)[-1])
        reg_d = float(realized_regret(rec_d, J)[Ta - 1])
        report.append(f"seed {rec_a.seed}: adaptive N={led_a.n_updates()} "
                      f"regret@T={Ta} {reg_a:.0f} vs det2 {reg_d:.0f}")
    check("P10 epoch-count bound", ok,
          f"N(T) <= (n+m) log2((lam_T + Z T)/lam_1) on all runs "
          f"(tightest ratio {worst:.2f}); adaptive-beta comparison "
          f"[{'; '.join(report)}] (reported, not asserted)")


def test_p11_decomposition_consistency(p5_runs, bench2x2, bench2x2_params):
    worst = 0.0
    ratios = []
    for rec, hist, ledger in p5_runs:
        R = decompose(rec, hist, bench2x2_params, bench2x2)
        scale = np.maximum(1.0, np.abs(ledger.R))
        worst = max(worst, float(np.max(np.abs(R - ledger.R) / scale)))
        realized = float(realized_regret(rec, solve_dare(bench2x2).J_star)[-1])
        ratios.append(realized / float(np.sum(R)))
    check("P11 decomposition consistency", worst <= 1e-8,
          f"max replay mismatch {worst:.2e}; realized / sum(R) per seed: "
          f"mean {np.mean(ratios):.2f}, range [{min(ratios):.2f}, {max(ratios):.2f}] "
          "(reported)")
