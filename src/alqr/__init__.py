"""Adaptive SDP-based LQ control with regret instrumentation."""

from .benchmarks import bench_2x2, bench_3x2, get_benchmark, scalar_golden
from .estimation import (
    ConfidenceEllipsoid,
    EstimatorState,
    confidence_radius,
    ellipsoid_contains,
    estimate,
    ingest,
)
from .harness import ExperimentConfig, load_config, run_experiment
from .loops import TrajectoryRecord, run_aslo, run_doubling, run_warmup
from .lqr import (
    OptimalSolution,
    StabilityCert,
    SystemModel,
    kappa_gamma,
    nu_bound,
    solve_dare,
    stability_certificate,
    step,
)
from .regret import RegretLedger, decompose, realized_regret, slope, term_bounds
from .schedules import (
    ScheduleParams,
    adaptive_beta,
    beta_floor,
    build_schedule,
    eps_targets,
    g_of_phi,
    lambda_t,
    p_bar,
    phi_bar,
    should_update,
    warmup_duration,
)
from .sdp import (
    RelaxedPrimalProblem,
    build_relaxed_primal,
    exact_sdp,
    extract_policy,
    solve_relaxed_dual,
    solve_relaxed_primal,
)
from .synthesis import (
    mu,
    perturbation_check,
    sequential_gap,
)

__version__ = "0.1.0"
