"""Calibration of timings against the host's CPU speed.

The host's CPU speed swings by up to 1.6x for seconds to minutes at a time,
so raw timings of identical work spread by 20-30% from run to run.  A fixed
loop of small-matrix work, shaped like a rollout step plus a barrier-solver
Newton step, tracks those swings.  ``run.py`` times the loop in its own
process, which never imports the package, while the worker waits: right
before and right after each measured region and, in plain repeats, for a
short slice every ``TICK_S`` inside it.  ``rescale`` turns the region's time
into the time it would take at the speed at which the loop takes ``REF_S``.
"""

import time

import numpy as np

REF_S = 0.025
LOOP_STEPS = 300
TICK_S = 0.25
TICK_STEPS = 60
_A = np.array([[1.05, 0.1], [0.0, 0.95]])
_K = -0.5 * np.eye(2)
_V = 3.0 * np.eye(4)
_COEFFS = np.stack([np.eye(5) * (i + 1) / 15 for i in range(15)])


def loop_seconds(steps: int = LOOP_STEPS) -> float:
    """Wall time of ``steps`` steps of the calibration loop, scaled to
    ``LOOP_STEPS`` steps."""
    t0 = time.perf_counter()
    x, G = np.zeros(2), np.zeros((4, 4))
    y = np.full(15, 0.1)
    for _ in range(steps):
        u = _K @ x + 0.1
        z = np.concatenate([x, u])
        G += np.outer(z, z)
        float(z @ np.linalg.solve(_V + G, z)) + np.linalg.slogdet(_V + G)[1]
        x = _A @ x + u + 0.01
        F = np.eye(5) + np.einsum("i,ijk->jk", y, _COEFFS)
        L = np.linalg.cholesky(F)
        np.linalg.eigvalsh(F)[0] + float(np.sum(np.linalg.solve(L, _COEFFS[0])))
    return (time.perf_counter() - t0) * LOOP_STEPS / steps


def rescale(seconds: float, loop_s: float) -> float:
    """``seconds`` of a region at the reference speed, given the loop's mean
    time around and inside it."""
    return seconds * REF_S / loop_s
