"""Named reference plants anchoring tests and experiments.

scalar-golden: A = B = Q = R = 1, whose DARE value is the golden ratio.
bench-2x2:     marginally unstable n = m = 2 plant with rho(A) = 1.05.
bench-3x2:     n = 3, m = 2 stabilizable plant with cross coupling.
"""

from __future__ import annotations

import numpy as np

from .exceptions import AlqrError, ConfigurationError
from .linalg import spectral_radius
from .lqr import SystemModel, _split_theta, solve_dare


def scalar_golden() -> SystemModel:
    return SystemModel(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       sigma_w=1.0, theta_bound=1.5, name="scalar-golden")


def bench_2x2() -> SystemModel:
    A = np.array([[1.05, 0.10], [0.00, 0.95]])
    B = np.eye(2)
    return SystemModel(A=A, B=B, Q=np.eye(2), R=np.eye(2), sigma_w=1.0,
                       theta_bound=1.60, name="bench-2x2")


def bench_3x2() -> SystemModel:
    A = np.array([[0.98, 0.05, 0.00],
                  [0.00, 1.01, 0.08],
                  [0.02, 0.00, 0.90]])
    B = np.array([[1.0, 0.0],
                  [0.0, 1.0],
                  [0.3, 0.3]])
    return SystemModel(A=A, B=B, Q=np.eye(3), R=np.eye(2), sigma_w=1.0,
                       theta_bound=1.65, name="bench-3x2")


BENCHMARKS = {
    "scalar-golden": scalar_golden,
    "bench-2x2": bench_2x2,
    "bench-3x2": bench_3x2,
}


def get_benchmark(name: str) -> SystemModel:
    try:
        return BENCHMARKS[name]()
    except KeyError:
        raise ConfigurationError(f"unknown benchmark {name!r}", field="benchmark") from None


def perturbed_theta(model: SystemModel, rel_error: float = 0.2, seed: int = 0):
    """Theta* plus a deterministic offset of the given relative spectral size."""
    rng = np.random.default_rng(seed)
    theta = model.theta_star
    D = rng.standard_normal(theta.shape)
    D *= rel_error * np.linalg.norm(theta, 2) / np.linalg.norm(D, 2)
    return theta + D


def perturbed_gain(model: SystemModel, rel_error: float = 0.2, seed: int = 0):
    """Stabilizing-but-suboptimal gain: the DARE gain of a perturbed model.

    The offset direction is redrawn (deterministically) until the perturbed
    model is stabilizable and its gain stabilizes the true plant.
    """
    for k in range(32):
        theta = perturbed_theta(model, rel_error, seed=seed + 1000 * k)
        A, B = _split_theta(theta, model.n)
        try:
            nominal = SystemModel(A=A, B=B, Q=model.Q, R=model.R,
                                  sigma_w=max(model.sigma_w, 1.0))
            K = solve_dare(nominal).K_star
        except (AlqrError, np.linalg.LinAlgError):
            continue
        if spectral_radius(model.A + model.B @ K) < 1.0:
            return K
    raise ConfigurationError("could not build a stabilizing perturbed gain",
                             field="rel_error")
