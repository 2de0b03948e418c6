"""Experiment orchestration: config loading, per-seed dispatch, Monte Carlo
aggregation, and CSV/JSON emission.

Per-seed runs are isolated (failures are recorded, never abort the batch) and
merged in seed order, so a config maps to byte-identical output files.  All
floats are written with 17 significant digits.
"""

from __future__ import annotations

import json
import logging
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import loops, regret, schedules
from .benchmarks import get_benchmark, perturbed_gain, perturbed_theta
from .exceptions import AlqrError, ConfigurationError
from .linalg import row_blocks, spectral_radius
from .lqr import StabilityCert, SystemModel, solve_dare, stability_certificate
from .synthesis import sequential_gap

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

MODES = ("warmup", "aslo", "doubling", "full")

CRITERION_ALIASES = {
    "det2": "det_double",
    "det_double": "det_double",
    "fixed-beta": "fixed_beta",
    "fixed_beta": "fixed_beta",
    "adaptive": "adaptive_beta",
    "adaptive_beta": "adaptive_beta",
    "relaxed-seq": "relaxed_sequential",
    "relaxed_sequential": "relaxed_sequential",
}

CSV_COLUMNS = ("t", "x_norm", "cost", "cum_regret", "lambda_t", "logdet_V",
               "epoch", "policy_id", "beta", "r_t", "est_error")
# One CSV row.  '%.17g' spells a float as format(v, ".17g") does (nan, inf,
# -inf and -0 included) and an integer value below 1e17 as str(int) does.
CSV_ROW_FORMAT = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"


@dataclass
class ExperimentConfig:
    """Validated experiment description; defaults are desk-scale."""

    benchmark: str | None = "bench-2x2"
    model: dict | None = None
    mode: str = "aslo"
    criterion: str = "det_double"
    constants: str = "practical"
    delta: float = 0.1
    phi: float | None = None  # None: phi_bar(delta)
    lambda_scale: float = 1.0
    noise_scale: float | None = None
    beta: float = 1.0
    chi: float = 0.0
    mu_mode: str = "lemma"
    radius_variant: str = "anchored"
    mu_clamp: bool = True
    tau_star_form: str = "proof"
    T: int = 1000
    T0: int | None = None
    eps_target: float | None = None
    seeds: list = field(default_factory=lambda: [0])
    checkpoints: list = field(default_factory=list)
    out_dir: str | None = None
    workers: int = 1
    x0: list | None = None
    base_horizon: int = 64
    anchor_rel_error: float = 0.1
    anchor_seed: int = 3
    k0_rel_error: float = 0.2
    k0_seed: int = 0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported schema_version {self.schema_version}", field="schema_version")
        if self.mode == "full-pipeline":
            self.mode = "full"
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}", field="mode")
        if self.criterion not in CRITERION_ALIASES:
            raise ConfigurationError(
                f"unknown criterion {self.criterion!r}", field="criterion")
        self.criterion = CRITERION_ALIASES[self.criterion]
        if self.constants not in ("theory", "practical"):
            raise ConfigurationError(
                f"constants must be theory|practical, got {self.constants!r}",
                field="constants")
        if not 0 < self.delta < 1:
            raise ConfigurationError("delta must lie in (0, 1)", field="delta")
        if self.T < 1:
            raise ConfigurationError("T must be >= 1", field="T")
        if self.T0 is not None and self.T0 < 1:
            raise ConfigurationError("T0 must be >= 1 when given", field="T0")
        if isinstance(self.seeds, str):
            self.seeds = parse_seed_range(self.seeds)
        self.seeds = [int(s) for s in self.seeds]
        if not self.seeds:
            raise ConfigurationError("at least one seed is required", field="seeds")
        self.checkpoints = sorted(int(c) for c in self.checkpoints)
        if self.checkpoints and self.checkpoints[0] < 1:
            raise ConfigurationError("checkpoints must be >= 1", field="checkpoints")
        if self.benchmark is None and self.model is None:
            raise ConfigurationError("need a benchmark name or model matrices",
                                     field="benchmark")
        self.build_model()  # validates dimensions eagerly

    def build_model(self) -> SystemModel:
        if self.model is not None:
            spec = dict(self.model)
            return SystemModel(
                A=np.asarray(spec["A"], dtype=float),
                B=np.asarray(spec["B"], dtype=float),
                Q=np.asarray(spec["Q"], dtype=float),
                R=np.asarray(spec["R"], dtype=float),
                sigma_w=float(spec.get("sigma_w", 1.0)),
                theta_bound=spec.get("theta_bound"),
                name=spec.get("name", "custom"),
            )
        return get_benchmark(self.benchmark)

    def to_dict(self) -> dict:
        out = asdict(self)
        return out


def parse_seed_range(text: str) -> list:
    """Parse "a..b" (inclusive) or a comma list into seed integers."""
    text = text.strip()
    if ".." in text:
        a, b = text.split("..", maxsplit=1)
        return list(range(int(a), int(b) + 1))
    return [int(p) for p in text.split(",") if p.strip()]


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}", field="path") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config parse error: {exc}", field="path") from exc
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigurationError(f"unknown config fields {sorted(unknown)}",
                                 field=sorted(unknown)[0])
    try:
        return ExperimentConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid config: {exc}") from exc


def json_dumps(obj, indent=0) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {json_dumps(obj[k], indent + 2)}' for k in sorted(obj)
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(json_dumps(v, indent) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return format(v, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return json_dumps(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def trajectory_columns(record: loops.TrajectoryRecord, J_star: float) -> dict:
    """The 11 CSV columns of a record, as arrays of length T."""
    return {
        "t": np.arange(1, record.T + 1),
        "x_norm": np.linalg.norm(record.x[:-1], axis=1),
        "cost": record.cost,
        "cum_regret": regret.realized_regret(record, J_star),
        "lambda_t": record.lambda_t,
        "logdet_V": record.logdet_V,
        "epoch": record.epoch,
        "policy_id": record.policy_id,
        "beta": record.beta_used,
        "r_t": record.r_t,
        "est_error": record.est_error,
    }


def emit(obj, format: str, path, J_star: float | None = None):
    """Write a trajectory as CSV or a report dict as JSON.

    A CSV trajectory is a record (``J_star`` required), a dict of the
    ``CSV_COLUMNS`` arrays or a sequence of rows; it is written one block of
    rows at a time.  A record emitted as JSON becomes its column names and
    row lists.
    """
    is_record = isinstance(obj, loops.TrajectoryRecord)
    if is_record:
        if J_star is None:  # the cum_regret column would silently be the cost
            raise ConfigurationError("emitting a record needs J_star", field="J_star")
        obj = trajectory_columns(obj, J_star)
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if format == "csv":
        if isinstance(obj, dict):
            cols = [obj[name] for name in CSV_COLUMNS]
        else:
            cols = list(zip(*obj)) or [()] * len(CSV_COLUMNS)
        cols = [np.asarray(c, dtype=float) for c in cols]
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for lo, hi in row_blocks(len(cols[0])):
                block = np.column_stack([c[lo:hi] for c in cols])
                fh.write((CSV_ROW_FORMAT * (hi - lo)) % tuple(block.ravel().tolist()))
    elif format == "json":
        if is_record:
            obj = {
                "schema_version": SCHEMA_VERSION,
                "columns": list(CSV_COLUMNS),
                "rows": [list(r) for r in zip(*(obj[name].tolist()
                                                 for name in CSV_COLUMNS))],
            }
        with open(path, "w") as fh:
            fh.write(json_dumps(obj) + "\n")
    else:
        raise ConfigurationError(f"unknown format {format!r}", field="format")
    return path


def read_trajectory_csv(path) -> dict:
    """Parse an emitted CSV back into column arrays (floats round-trip exactly)."""
    with open(path) as fh:
        if fh.readline().strip().split(",") != list(CSV_COLUMNS):
            raise ConfigurationError("unexpected CSV header", field="path")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a header-only file holds no rows
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = np.empty((0, len(CSV_COLUMNS)))
    return dict(zip(CSV_COLUMNS, data.T))


def coverage_check(reports, delta: float) -> float:
    """Fraction of (seed, checkpoint) pairs whose ellipsoid held the truth."""
    flags = []
    for rep in reports:
        for _, ok in rep.get("containment", []):
            flags.append(bool(ok))
    if not flags:
        return float("nan")
    return float(np.mean(flags))


@dataclass
class SharedSetup:
    """What every seed of an experiment shares, built once per experiment."""

    model: SystemModel
    K0: np.ndarray
    cert0: StabilityCert
    params: schedules.ScheduleParams
    J_star: float


def _build_shared(config: ExperimentConfig) -> SharedSetup:
    """The model, initial gain K0 and its certificate, schedule and J*."""
    model = config.build_model()
    K0 = perturbed_gain(model, config.k0_rel_error, seed=config.k0_seed)
    cert0 = stability_certificate(model, K0)
    params = schedules.build_schedule(
        model, cert0=cert0, delta=config.delta, phi=config.phi,
        criterion=config.criterion, constants_mode=config.constants,
        lambda_scale=config.lambda_scale, noise_scale=config.noise_scale,
        beta=config.beta, chi=config.chi, mu_mode=config.mu_mode,
        radius_variant=config.radius_variant, mu_clamp=config.mu_clamp,
        tau_star_form=config.tau_star_form,
    )
    return SharedSetup(model=model, K0=K0, cert0=cert0, params=params,
                       J_star=solve_dare(model).J_star)


def _epoch_diagnostics(model, params, history):
    rhos = [float(spectral_radius(model.A + model.B @ p.K)) for p in history]
    gaps = [float(sequential_gap(history[i - 1].P_dual, history[i].P_dual))
            for i in range(1, len(history))]
    gap_limit = 1.0 + params.gamma / 2.0
    return {
        "epoch_rho": rhos,
        "sequential_gaps": gaps,
        "gap_limit": gap_limit,
        "gap_violations": int(sum(g > gap_limit for g in gaps)),
    }


def run_seed(config: ExperimentConfig, shared: SharedSetup, seed: int) -> dict:
    """One isolated per-seed run; returns the summary plus its CSV columns."""
    model, K0, cert0, params = shared.model, shared.K0, shared.cert0, shared.params
    J_star = shared.J_star
    summary = {"seed": seed, "mode": config.mode, "J_star": J_star}
    columns = []

    if config.mode in ("warmup", "full"):
        eps_target = config.eps_target if config.eps_target is not None else 0.5
        T0 = config.T0 if config.T0 is not None else schedules.warmup_duration(
            eps_target, params, kappa0=cert0.kappa, gamma0=cert0.gamma)
        Theta_0, wrec = loops.run_warmup(model, K0, T0, seed=seed, x0=config.x0)
        summary["T0"] = int(T0)
        summary["theta0_error"] = wrec.diagnostics["theta0_error"]
        columns.append(trajectory_columns(wrec, J_star))
        anchor_eps = eps_target
        x_start = wrec.x[-1]
    else:
        Theta_0 = perturbed_theta(model, config.anchor_rel_error,
                                  seed=config.anchor_seed)
        anchor_eps = float(np.linalg.norm(Theta_0 - model.theta_star)) * 1.05
        x_start = config.x0

    if config.mode in ("aslo", "full"):
        rec, history, ledger = loops.run_aslo(
            model, Theta_0, anchor_eps, config.T, params, seed=seed,
            x0=x_start, checkpoints=config.checkpoints)
        columns.append(trajectory_columns(rec, J_star))
        rr = columns[-1]["cum_regret"]
        stats = {
            "X_T": rec.max_state_norm(),
            "Z_T": float(np.max(np.sum(np.hstack([rec.x[:-1], rec.u]) ** 2, axis=1))),
            "r_T": float(rec.r_t[-1]),
            "lambda_T": float(rec.lambda_t[-1]),
            "lambda_1": float(rec.lambda_t[0]),
            "beta": float(rec.beta_used[-1]),
        }
        bounds = regret.term_bounds(config.T, params, stats)
        terms = ledger.terms()
        summary.update({
            "final_cum_regret": float(rr[-1]),
            "checkpoint_regret": {str(c): float(rr[c - 1])
                                  for c in config.checkpoints if c <= config.T},
            "max_x_norm": rec.max_state_norm(),
            "epochs": len(history),
            "n_updates": ledger.n_updates(),
            "synthesis_failures": rec.diagnostics["synthesis_failures"],
            "containment": [[int(t), bool(ok)]
                            for t, ok in rec.diagnostics["containment"]],
            "epoch_starts": [[int(p.tau), float(p.est_error)] for p in history],
            "R_terms": terms,
            "R_bounds": bounds,
            "bound_violations": int(sum(terms[k] > bounds[k] for k in regret.R_NAMES)),
            "realized_vs_sum": {"realized": float(rr[-1]),
                                "sum_R": float(sum(terms.values()))},
            "anynum_holds_ever": bool(any(rec.diagnostics["anynum_condition"])),
        })
        summary.update(_epoch_diagnostics(model, params, history))
    elif config.mode == "doubling":
        rec = loops.run_doubling(model, K0, config.base_horizon, config.T,
                                 params, seed=seed)
        columns.append(trajectory_columns(rec, J_star))
        rr = columns[-1]["cum_regret"]
        summary.update({
            "final_cum_regret": float(rr[-1]),
            "max_x_norm": rec.max_state_norm(),
            "segment_bounds": rec.diagnostics["segment_bounds"],
        })

    summary["columns"] = {name: np.concatenate([c[name] for c in columns])
                          for name in CSV_COLUMNS}
    return summary


def _worker(args):
    config, shared, seed = args
    try:
        return seed, run_seed(config, shared, seed), None
    except AlqrError as exc:
        return seed, None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # per-seed isolation: never kill the batch
        return seed, None, f"{type(exc).__name__}: {exc}"


@dataclass
class AggregateReport:
    config: dict
    constants: dict
    per_seed: list
    errors: list
    aggregate: dict
    schema_version: int = SCHEMA_VERSION

    def to_dict(self):
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "constants": self.constants,
            "per_seed": self.per_seed,
            "errors": self.errors,
            "aggregate": self.aggregate,
        }


def _aggregate(config: ExperimentConfig, summaries: list) -> dict:
    agg = {"seed_count": len(summaries)}
    regrets = [s["final_cum_regret"] for s in summaries if "final_cum_regret" in s]
    if regrets:
        agg["final_regret_mean"] = float(np.mean(regrets))
        agg["final_regret_std"] = float(np.std(regrets))
    for c in config.checkpoints:
        vals = [s["checkpoint_regret"][str(c)] for s in summaries
                if str(c) in s.get("checkpoint_regret", {})]
        if vals:
            agg[f"regret_mean_t{c}"] = float(np.mean(vals))
            agg[f"regret_std_t{c}"] = float(np.std(vals))
    cov = coverage_check(summaries, config.delta)
    if not math.isnan(cov):
        agg["coverage_frequency"] = cov
    epochs = [s["epochs"] for s in summaries if "epochs" in s]
    if epochs:
        agg["epochs_mean"] = float(np.mean(epochs))
        agg["epochs_max"] = int(np.max(epochs))
    viol = [s["bound_violations"] for s in summaries if "bound_violations" in s]
    if viol:
        agg["bound_violations_total"] = int(np.sum(viol))
    # pooled slopes from the emitted columns
    if summaries and "columns" in summaries[0] and config.mode in ("aslo", "full"):
        T = config.T
        series = [s["columns"]["cum_regret"][-T:] for s in summaries]
        mean_curve = np.mean(series, axis=0)
        lo = max(10, T // 10)
        if lo < T and np.all(mean_curve[lo - 1: T] > 0):
            agg["regret_slope"] = regret.slope(mean_curve, (lo, T))
        pts = [(tau, err) for s in summaries
               for tau, err in s.get("epoch_starts", [])
               if tau >= max(10, T // 100) and err > 0]
        if len(pts) >= 4:
            taus = np.array([p[0] for p in pts], dtype=float)
            errs = np.array([p[1] for p in pts])
            A = np.vstack([np.log(taus), np.ones(len(pts))]).T
            coef, *_ = np.linalg.lstsq(A, np.log(errs), rcond=None)
            agg["est_error_slope"] = float(coef[0])
    return agg


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Execute the configured mode for every seed and aggregate the results.

    Per-seed trajectory CSVs and the aggregate JSON land in ``out_dir`` when
    set.  Identical configs produce byte-identical outputs.
    """
    shared = _build_shared(config)
    tasks = [(config, shared, seed) for seed in sorted(config.seeds)]
    results = {}
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for seed, summary, err in pool.map(_worker, tasks):
                results[seed] = (summary, err)
    else:
        for task in tasks:
            seed, summary, err = _worker(task)
            results[seed] = (summary, err)

    summaries, errors = [], []
    for seed in sorted(results):
        summary, err = results[seed]
        if err is not None:
            errors.append({"seed": seed, "error": err})
        else:
            summaries.append(summary)

    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        for s in summaries:
            emit(s["columns"], "csv",
                 os.path.join(config.out_dir, f"seed_{s['seed']:04d}.csv"))

    agg = _aggregate(config, summaries)
    per_seed = []
    for s in summaries:
        slim = {k: v for k, v in s.items() if k != "columns"}
        per_seed.append(slim)
    report = AggregateReport(
        config=config.to_dict(),
        constants=schedules.constants_report(shared.params),
        per_seed=per_seed,
        errors=errors,
        aggregate=agg,
    )
    if config.out_dir:
        emit(report.to_dict(), "json", os.path.join(config.out_dir, "aggregate.json"))
    return report
