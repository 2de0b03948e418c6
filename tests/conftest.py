from dataclasses import replace

import numpy as np
import pytest

from alqr.benchmarks import bench_2x2, perturbed_gain, perturbed_theta, scalar_golden
from alqr.loops import run_aslo
from alqr.lqr import stability_certificate
from alqr.schedules import build_schedule


@pytest.fixture(scope="session")
def bench2x2():
    return bench_2x2()


@pytest.fixture(scope="session")
def golden():
    return scalar_golden()


@pytest.fixture(scope="session")
def bench2x2_gain(bench2x2):
    return perturbed_gain(bench2x2, 0.2, seed=0)


@pytest.fixture(scope="session")
def bench2x2_params(bench2x2, bench2x2_gain):
    cert0 = stability_certificate(bench2x2, bench2x2_gain)
    return build_schedule(bench2x2, cert0=cert0, delta=0.1,
                          constants_mode="practical")


@pytest.fixture(scope="session")
def bench2x2_anchor(bench2x2):
    theta0 = perturbed_theta(bench2x2, 0.1, seed=3)
    eps = float(np.linalg.norm(theta0 - bench2x2.theta_star)) * 1.05
    return theta0, eps


def _run_batch(model, params, anchor, seeds, T):
    theta0, eps = anchor
    out = []
    for seed in seeds:
        rec, hist, ledger = run_aslo(model, theta0, eps, T=T, params=params,
                                     seed=seed, checkpoints=[T // 10, T])
        out.append((rec, hist, ledger))
    return out


@pytest.fixture(scope="session")
def p5_runs(bench2x2, bench2x2_params, bench2x2_anchor):
    """The Monte Carlo batch behind the regret/stability acceptance criteria:
    20 seeds of ASLO on bench-2x2, T = 1e4, det-doubling criterion."""
    return _run_batch(bench2x2, bench2x2_params, bench2x2_anchor,
                      seeds=range(20), T=10_000)


@pytest.fixture(scope="session")
def adaptive_runs(bench2x2, bench2x2_params, bench2x2_anchor):
    """Matched-seed runs under the adaptive-beta criterion (for comparison).

    With practical-scale constants the formula beta is ~1e-11, so the
    criterion fires every step and each step costs one policy synthesis;
    the comparison is therefore sized small (reported, never asserted).
    """
    params = replace(bench2x2_params, criterion="adaptive_beta")
    return _run_batch(bench2x2, params, bench2x2_anchor, seeds=range(2), T=400)
