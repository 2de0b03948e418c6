"""The benchmark's workloads: inputs, one repeat of work, and its checks.

A workload is a fixed amount of work (its step count is pinned by its size)
that the runner repeats for the measured interval.  Inputs derive only from
the seed base given on the command line; the package receives nothing but
the generated seed lists and configs, and is driven through its public
functions.  A repeat's outputs are hashed so repeats in one invocation, and
a change against its parent, can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
from dataclasses import dataclass, field

import numpy as np

from alqr import benchmarks, harness, loops, lqr, schedules
from alqr.exceptions import AlqrError

OUT_DIR = "out"  # relative, so emitted configs do not depend on the checkout path

# P3's checkpoints and nominal coverage: containment below 0.9 - 3 sigma fails.
COVERAGE_CHECKPOINTS = (500, 1000, 2000)
COVERAGE_NOMINAL = 0.9

# Each repeat is sized to take 1-3 s on a 2-core desk machine, so a 25 s run
# holds several; full-3x2 takes about 9 s (see there).  "tiny" is for the
# benchmark's self-tests.
WORKLOADS = {
    "aslo-2x2": {
        "config": {"benchmark": "bench-2x2", "mode": "aslo", "criterion": "det2"},
        "sizes": {"full": {"T": 10_000, "seeds": 1}, "tiny": {"T": 50, "seeds": 2}},
    },
    "adaptive-2x2": {
        "config": {"benchmark": "bench-2x2", "mode": "aslo", "criterion": "adaptive"},
        "sizes": {"full": {"T": 50, "seeds": 1}, "tiny": {"T": 12, "seeds": 1}},
        # Synthesizing at every step from a handful of samples, about 1 seed in
        # 30 gets one early gain (t <= 8) that does not stabilize the true
        # plant.  Like the acceptance gate, which asserts stability on det2
        # runs only, this workload reports such epochs instead of failing.
        "stability_gate": False,
    },
    "coverage-2x2": {
        "config": {"benchmark": "bench-2x2", "mode": "aslo"},
        "sizes": {"full": {"T": 2000, "seeds": 25}, "tiny": {"T": 2000, "seeds": 2}},
    },
    "full-3x2": {
        # T0 is pinned to the 120646 that warmup_duration derives today (the
        # derived value is reported as a fact).  Each epoch costs about 50 ms,
        # and after a full warm-up the epoch count spread less between seeds
        # (12-29 over 26 seeds, sd 4) than after half of one (11-37 over ten,
        # sd 9).  T is cut so that two repeats fit in the run.
        "config": {"benchmark": "bench-3x2", "mode": "full", "criterion": "det2"},
        "sizes": {"full": {"T0": 120_646, "T": 3_000, "seeds": 1},
                  "tiny": {"T0": 2000, "T": 200, "seeds": 1}},
    },
}
SIZES = ("full", "tiny")


@dataclass
class Setup:
    """Validated inputs of one workload, ready to run."""

    name: str
    seeds: list
    config: harness.ExperimentConfig
    model: lqr.SystemModel
    K0: np.ndarray
    params: schedules.ScheduleParams
    anchor: tuple
    facts: dict


@dataclass
class Repeat:
    """Outcome of one repeat, checked outside the timed region."""

    steps: int
    attempted: int
    failed: int
    digest: str
    problems: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def seed_list(name: str, seed: int, count: int) -> list:
    """The trajectory seeds of a workload, drawn from the seed base alone."""
    rng = random.Random(f"{name}:{seed}")
    return sorted(rng.sample(range(1, 2**31), count))


def setup(name: str, seed: int, size: str = "full") -> Setup:
    """Validate the config and build the model, gain and schedule."""
    spec = WORKLOADS[name]
    dims = spec["sizes"][size]
    seeds = seed_list(name, seed, dims["seeds"])
    T = dims["T"]
    config = harness.ExperimentConfig(
        **spec["config"], constants="practical", T=T, T0=dims.get("T0"),
        seeds=seeds, checkpoints=[T // 10, T], out_dir=OUT_DIR)
    model = config.build_model()
    K0 = benchmarks.perturbed_gain(model, config.k0_rel_error, seed=config.k0_seed)
    cert0 = lqr.stability_certificate(model, K0)
    params = schedules.build_schedule(
        model, cert0=cert0, delta=config.delta, phi=config.phi,
        criterion=config.criterion, constants_mode=config.constants,
        lambda_scale=config.lambda_scale, noise_scale=config.noise_scale,
        beta=config.beta, chi=config.chi, mu_mode=config.mu_mode,
        radius_variant=config.radius_variant, mu_clamp=config.mu_clamp,
        tau_star_form=config.tau_star_form)
    theta0 = benchmarks.perturbed_theta(model, config.anchor_rel_error,
                                        seed=config.anchor_seed)
    eps = float(np.linalg.norm(theta0 - model.theta_star)) * 1.05
    facts = {"seeds": seeds, "kappa0": cert0.kappa}
    if config.mode == "full":
        facts["derived_T0"] = schedules.warmup_duration(
            0.5, params, kappa0=cert0.kappa, gamma0=cert0.gamma)
        facts["T0"] = config.T0
    return Setup(name=name, seeds=seeds, config=config, model=model, K0=K0,
                 params=params, anchor=(theta0, eps), facts=facts)


def run_repeat(s: Setup):
    """One repeat of the workload's work: the timed region."""
    if s.name == "coverage-2x2":
        out = []
        for seed in s.seeds:
            try:
                out.append(loops.run_fixed_policy(
                    s.model, s.K0, s.config.T, seed=seed, params=s.params,
                    anchor=s.anchor, checkpoints=COVERAGE_CHECKPOINTS))
            except AlqrError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out
    try:
        return harness.run_experiment(s.config)
    except AlqrError as exc:
        return f"{type(exc).__name__}: {exc}"


def clear_outputs():
    shutil.rmtree(OUT_DIR, ignore_errors=True)


def check_repeat(s: Setup, result) -> Repeat:
    if s.name == "coverage-2x2":
        return _check_coverage(s, result)
    return _check_harness(s, result)


def _check_coverage(s: Setup, results) -> Repeat:
    h = hashlib.sha256()
    problems, flags = [], []
    for seed, res in zip(s.seeds, results):
        if isinstance(res, str):
            problems.append(f"seed {seed} failed: {res}")
            continue
        cost, est, contained = res
        h.update(np.ascontiguousarray(cost).tobytes())
        h.update(np.ascontiguousarray(est.gram).tobytes())
        h.update(np.ascontiguousarray(est.cross).tobytes())
        held = [bool(ok) for _, ok in contained]
        h.update(bytes(held))
        flags.extend(held)
    coverage = float(np.mean(flags)) if flags else math.nan
    sigma = math.sqrt(COVERAGE_NOMINAL * (1 - COVERAGE_NOMINAL) / max(len(flags), 1))
    threshold = COVERAGE_NOMINAL - 3 * sigma
    if not coverage >= threshold:
        problems.append(f"coverage {coverage:.4f} below {threshold:.4f}")
    failed = sum(isinstance(r, str) for r in results)
    return Repeat(
        steps=(len(results) - failed) * s.config.T, attempted=len(results),
        failed=failed, digest=h.hexdigest(), problems=problems,
        facts={"coverage": coverage, "coverage_threshold": threshold,
               "pairs": len(flags)})


def _check_harness(s: Setup, report) -> Repeat:
    if isinstance(report, str):
        return Repeat(steps=0, attempted=len(s.seeds), failed=len(s.seeds),
                      digest="", problems=[f"experiment failed: {report}"])
    problems = [f"seed {e['seed']} failed: {e['error']}" for e in report.errors]
    gate = WORKLOADS[s.name].get("stability_gate", True)
    steps = attempted = failed = unstable = 0
    for ps in report.per_seed:
        steps += ps.get("T0", 0) + s.config.T
        attempted += ps["epochs"] + ps["synthesis_failures"]
        failed += ps["synthesis_failures"]
        unstable += sum(not rho < 1.0 for rho in ps["epoch_rho"])
        rho = max(ps["epoch_rho"], default=0.0)
        if gate and not rho < 1.0:
            problems.append(f"seed {ps['seed']} has an epoch with rho {rho:.6g} >= 1")
    agg = report.aggregate
    facts = {
        "epochs": [ps["epochs"] for ps in report.per_seed],
        "synthesis_failures": sum(ps["synthesis_failures"] for ps in report.per_seed),
        "max_epoch_rho": max((max(ps["epoch_rho"], default=0.0)
                              for ps in report.per_seed), default=math.nan),
        "unstable_epochs": unstable,
    }
    for key in ("final_regret_mean", "regret_slope", "est_error_slope",
                "coverage_frequency"):
        if key in agg:
            facts[key] = agg[key]
    if s.config.mode == "full":
        facts["theta0_error"] = [ps["theta0_error"] for ps in report.per_seed]
    return Repeat(
        steps=steps, attempted=len(s.seeds) + attempted,
        failed=len(report.errors) + failed, digest=_digest_dir(OUT_DIR),
        problems=problems, facts=facts)


def _digest_dir(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)) if os.path.isdir(path) else ():
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def output_facts(s: Setup) -> dict:
    """Facts read back from the last repeat's emitted files."""
    if s.config.mode != "full" or not os.path.isdir(OUT_DIR):
        return {}
    costs = []
    for seed in s.seeds:
        path = os.path.join(OUT_DIR, f"seed_{seed:04d}.csv")
        if os.path.exists(path):
            costs.append(harness.read_trajectory_csv(path)["cost"][: s.config.T0])
    if not costs:
        return {}
    return {"warmup_cost_per_step": float(np.mean(np.concatenate(costs)))}
