"""Experiment orchestration: config loading, per-seed dispatch, Monte Carlo
aggregation, and CSV/JSON emission.

Per-seed runs are isolated (failures are recorded, never abort the batch) and
merged in seed order, so a config maps to byte-identical output files.  All
floats are written with 17 significant digits: a CSV's cells as '%.17g'
spells them, by a vectorised kernel that certifies each cell's digits in
numpy and leaves the cells it cannot certify to '%.17g' itself.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import warnings
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import loops, regret, schedules
from .benchmarks import BENCHMARKS, get_benchmark, perturbed_gain, perturbed_theta
from .exceptions import AlqrError, ConfigurationError
from .linalg import eigvals
from .lqr import SystemModel, solve_dare, stability_certificate
from .synthesis import sequential_gaps

SCHEMA_VERSION = 1

MODES = ("warmup", "aslo", "doubling", "full")

# Each criterion's name, and its short spelling, to the name it stands for.
CRITERION_ALIASES = {**{c: c for c in schedules.DOMAINS["criterion"]}, "det2": "det_double",
                     "fixed-beta": "fixed_beta", "adaptive": "adaptive_beta",
                     "relaxed-seq": "relaxed_sequential"}

CSV_COLUMNS = ("t", "x_norm", "cost", "cum_regret", "lambda_t", "logdet_V",
               "epoch", "policy_id", "beta", "r_t", "est_error")
# One CSV row: the bytes ``emit`` writes, and the field its fallback spells
# with.  '%.17g' spells a float as format(v, ".17g") does (nan, inf, -inf and
# -0 included) and an integer value below 1e17 as str(int) does.
CSV_ROW_FORMAT = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"


# A field's kind checks a value against the field's domain, when it has one,
# and returns the value the config keeps; it raises, saying what is wrong, on
# any other value.
def _kind(types, what):
    """A kind that keeps a value of ``types`` (a bool only as a flag)."""
    def check(value, domain):
        if not (isinstance(value, types) and (types is bool or not isinstance(value, bool))
                and (domain is None or value in domain)):
            raise ValueError(f"{value!r} is not {what}" + (f" in {domain}" if domain else ""))
        return value
    return check


_REAL, _INTEGER = _kind(numbers.Real, "a real number"), _kind(numbers.Integral, "an integer")
_STRING, _FLAG, _LIST = _kind(str, "a string"), _kind(bool, "true or false"), _kind(list, "a list")


def _integers(values, domain):
    """A list of integers as ints: an integral float such as 2.0 passes."""
    return [int(_INTEGER(int(v) if isinstance(v, float) and v.is_integer() else v, domain))
            for v in _LIST(values, None)]


def _seeds(values, domain):
    seeds = _integers(parse_seed_range(values) if isinstance(values, str) else values, domain)
    if not seeds or len(set(seeds)) < len(seeds):
        raise ValueError(f"{values!r} is not a non-empty list of distinct seeds")
    return seeds


def _model(spec, _):
    _plant(spec)  # refuses what SystemModel refuses: a missing or unknown key, a bad value
    return spec


def _x0(x0, _):
    loops.start_state(_LIST(x0, None))  # its length is shared_setup's to check
    return x0


def _optional(kind):
    return lambda value, domain: None if value is None else kind(value, domain)


# a field's kind and its domain: a tuple of values, a schedules.Interval or none
Field = namedtuple("Field", "kind domain", defaults=[None])

_AT_LEAST_0 = schedules.Interval(0, closed=True)
_AT_LEAST_1 = schedules.Interval(1, closed=True)


def _declare(default, kind, domain=None):
    """A config field with its default, and its ``Field``: the kind and the
    domain its values are checked against, kept in the field's metadata."""
    metadata = {"field": Field(kind, domain)}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ExperimentConfig:
    """Validated experiment description; defaults are desk-scale.  Each field
    is declared once, with its default, kind and domain; the schedule
    options' domains are read from schedules.DOMAINS."""

    benchmark: str | None = _declare("bench-2x2", _optional(_STRING), tuple(BENCHMARKS))
    model: dict | None = _declare(None, _optional(_model))
    mode: str = _declare("aslo", _STRING, MODES)
    criterion: str = _declare("det_double", _STRING, tuple(CRITERION_ALIASES))
    constants: str = _declare("practical", _STRING, schedules.DOMAINS["constants_mode"])
    delta: float = _declare(0.1, _REAL, schedules.DOMAINS["delta"])
    # None: phi_bar(delta); build_schedule bounds it
    phi: float | None = _declare(None, _optional(_REAL), schedules.Interval())
    lambda_scale: float = _declare(1.0, _REAL, schedules.DOMAINS["lambda_scale"])
    noise_scale: float | None = _declare(None, _optional(_REAL), schedules.DOMAINS["noise_scale"])
    beta: float = _declare(1.0, _REAL, schedules.DOMAINS["beta"])
    chi: float = _declare(0.0, _REAL, schedules.DOMAINS["chi"])
    mu_mode: str = _declare("lemma", _STRING, schedules.DOMAINS["mu_mode"])
    radius_variant: str = _declare("anchored", _STRING, schedules.DOMAINS["radius_variant"])
    mu_clamp: bool = _declare(True, _FLAG)
    tau_star_form: str = _declare("proof", _STRING, schedules.DOMAINS["tau_star_form"])
    T: int = _declare(1000, _INTEGER, _AT_LEAST_1)
    T0: int | None = _declare(None, _optional(_INTEGER), _AT_LEAST_1)
    eps_target: float | None = _declare(None, _optional(_REAL), schedules.DOMAINS["eps_target"])
    seeds: list = _declare([0], _seeds, _AT_LEAST_0)
    checkpoints: list = _declare([], lambda v, domain: sorted(_integers(v, domain)), _AT_LEAST_1)
    out_dir: str | None = _declare(None, _optional(_STRING))
    workers: int = _declare(1, _INTEGER, _AT_LEAST_1)
    x0: list | None = _declare(None, _optional(_x0))
    base_horizon: int = _declare(64, _INTEGER, _AT_LEAST_1)
    anchor_rel_error: float = _declare(0.1, _REAL, _AT_LEAST_0)
    anchor_seed: int = _declare(3, _INTEGER, _AT_LEAST_0)
    k0_rel_error: float = _declare(0.2, _REAL, _AT_LEAST_0)
    k0_seed: int = _declare(0, _INTEGER, _AT_LEAST_0)
    schema_version: int = _declare(SCHEMA_VERSION, _INTEGER, (SCHEMA_VERSION,))

    def __post_init__(self):
        for f in fields(self):
            kind, domain = f.metadata["field"]
            try:
                setattr(self, f.name, kind(getattr(self, f.name), domain))
            except (AlqrError, TypeError, ValueError) as exc:
                raise ConfigurationError(f"{f.name}: {exc}", field=f.name) from None
        self.criterion = CRITERION_ALIASES[self.criterion]
        if self.benchmark is None and self.model is None:
            raise ConfigurationError("need a benchmark name or model matrices",
                                     field="benchmark")

    def build_model(self) -> SystemModel:
        return get_benchmark(self.benchmark) if self.model is None else _plant(self.model)

    def to_dict(self) -> dict:
        return asdict(self)


# Every config field's kind and domain, from its declaration; the CLI and the
# scripts take their flags' choices from here.
FIELDS = {f.name: f.metadata["field"] for f in fields(ExperimentConfig)}


def _plant(spec: dict) -> SystemModel:
    """The plant of a config's model dict: its keys are SystemModel's fields,
    and its name is "custom" unless it gives one."""
    return SystemModel(**{"name": "custom", **spec})


def parse_seed_range(text: str) -> list:
    """Parse "a..b" (inclusive) or a comma list into seed integers."""
    text = text.strip()
    try:
        if ".." in text:
            a, b = text.split("..", maxsplit=1)
            return list(range(int(a), int(b) + 1))
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigurationError(f"bad seed range {text!r}", field="seeds") from None


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config: one object of config fields."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}", field="path") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config parse error: {exc}", field="path") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"a config must be a JSON object, got {raw!r}", field="path")
    unknown = sorted(set(raw) - set(FIELDS))
    if unknown:
        raise ConfigurationError(f"unknown config fields {unknown}", field=unknown[0])
    return ExperimentConfig(**raw)


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
        "epoch": record.policy_id,
        "policy_id": record.policy_id,
        "beta": record.beta_used,
        "r_t": record.r_t,
        "est_error": record.est_error,
    }


def _runs(col, field: str):
    """A column's runs of equal bits as (first rows, cells), each run's value
    spelled once with ``field``; None when it holds more than T/4 runs.

    Bits, not values: 0.0 == -0.0 but they are spelled "0" and "-0".
    """
    bits = col.view(np.int64)
    changed = bits[1:] != bits[:-1]
    if 4 * (1 + np.count_nonzero(changed)) > len(col):
        return None  # before listing the changes, which would take 8 bytes a row
    starts = [0] + (np.flatnonzero(changed) + 1).tolist()
    return starts, [field % v for v in col[starts].tolist()]


# A cell's slot: a sign, "0.000", then 17 digit slots, each followed by a
# point slot.  Any '%.17g' spelling (at most 24 bytes) also fits, zero-padded.
_SLOT = 40
_EMIT_ROWS = 512  # rows per CSV block: a block's temporaries stay below about 1 MB


@functools.cache
def _slot_tables():
    """The kernel's tables, built on first use:
    - rows: the 8 slot bytes of each 4-digit group 0000..9999 ("d.d.d.d."),
      then those of each lead digit 0..9 (slot bytes 0-7), 0xFF in the
      sign, prefix and point bytes;
    - zeros: each row's count of trailing zeros (4 for 0000);
    - masks: for each (E + 4, sign, trailing zeros of the 17 digits), the
      sign, "0.000" prefix and point bytes the cell spells, 0xFF on the
      digit bytes it spells and 0 elsewhere;
    - 10^(16 - E) for E = -4..16, exact doubles, and their Veltkamp halves."""
    g = np.arange(10000, dtype=np.int16)
    rows = np.full((10010, 8), 0xFF, np.uint8)
    for i in range(4):
        rows[:10000, 2 * i] = 48 + g // 10 ** (3 - i) % 10
    rows[10000:, 6] = 48 + np.arange(10)
    zeros = np.zeros(10010, np.uint8)
    zeros[:10000] = (g % 10 == 0).astype(np.uint8) + (g % 100 == 0) + (g % 1000 == 0)
    zeros[0] = 4
    masks = np.zeros((21, 2, 17, _SLOT), np.uint8)
    for E in range(-4, 17):
        for tz in range(17):
            mask, k = masks[E + 4, :, tz], 17 - tz
            mask[1, 0] = ord("-")
            if E < 0:  # "0." and -E - 1 zeros
                mask[:, 1:2 - E] = np.frombuffer(b"0.000", np.uint8)[:1 - E]
            mask[:, 6:6 + 2 * max(k, E + 1):2] = 0xFF
            if 0 <= E < k - 1:
                mask[:, 7 + 2 * E] = ord(".")
    scale = np.array([float(10 ** (16 - E)) for E in range(-4, 17)])
    hi = scale * 134217729.0 - (scale * 134217729.0 - scale)
    return rows, zeros, masks.reshape(-1, _SLOT), scale, hi, scale - hi


def _exact_product(a, e):
    """(ph, err) with ph + err = a 10^(16 - E) exactly, e = E + 4: ph the
    rounded product and err Dekker's error term (10^(16 - E) is an exact
    double, split like a into halves of at most 26 bits)."""
    _, _, _, scale, scale_hi, scale_lo = _slot_tables()
    ph = a * np.take(scale, e)
    c = a * 134217729.0  # Veltkamp's split
    a_hi = c - (c - a)
    a_lo = a - a_hi
    s_hi, s_lo = np.take(scale_hi, e), np.take(scale_lo, e)
    return ph, ((a_hi * s_hi - ph) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo


def _digit_groups(x):
    """(certified, E + 4, groups) of float array x: its cells' 17 significant
    digits as a lead digit and four groups of four, rows of the slot table.

    With E = floor(log10 |x|) clamped to the fixed-notation [-4, 16],
    |x| 10^(16 - E) = ph + err exactly, so the digits are ph + round(err).
    A cell is certified when 1e16 + 64 <= ph <= 1e17 - 64 (E is then exact
    and rounding does not carry into an 18th digit) and err lies more than
    1e-6 from a half-integer (no tie).  Others (0, -0, nan, inf, scientific
    notation, ties, values next to a power of ten) get arbitrary groups."""
    with np.errstate(all="ignore"):  # the uncertified cells may be nan or inf
        a = np.abs(x)
        E = np.floor(np.log10(a))
        e = np.fmin(np.fmax(E, -4.0, out=E), 16.0, out=E).astype(np.intp)
        e += 4
        ph, err = _exact_product(a, e)
        whole = np.floor(err)
        err -= whole
        ok = (ph >= 1e16 + 64) & (ph <= 1e17 - 64) & (np.abs(err - 0.5) > 1e-6)
        whole += err > 0.5
        # exact float steps: the quotients are integers or floor correctly
        upper = np.floor(ph / 1e8)
        lower = ph - upper * 1e8 + whole  # in [-1e8, 1e8 + 9]: the quotient may round up
        carry = np.floor(lower / 1e8)
        upper += carry
        lower -= carry * 1e8
        lead = np.floor(upper / 1e8)
        upper -= lead * 1e8
        groups = np.empty(x.shape + (5,), np.intp)
        groups[..., 0] = lead + 10000
        for i, half in ((1, upper), (3, lower)):
            groups[..., i] = np.floor(half / 1e4)
            groups[..., i + 1] = half - groups[..., i] * 1e4
    return ok, e, groups


def _fixed_notation(x):
    """(certified, slots): the '%.17g' bytes of each cell of float array x
    that ``_digit_groups`` certifies, in zero-padded ``_SLOT``-byte slots."""
    rows, zeros, masks = _slot_tables()[:3]
    ok, e, groups = _digit_groups(x)
    slots = np.take(rows, groups, axis=0, mode="clip").reshape(x.shape + (_SLOT,))
    t = np.take(zeros, groups, mode="clip")
    tz = t[..., 4] + (t[..., 4] == 4) * (t[..., 3] + (t[..., 3] == 4) * (
        t[..., 2] + (t[..., 2] == 4) * t[..., 1]))  # trailing zeros of the 17 digits
    slots &= np.take(masks, (2 * e + np.signbit(x)) * 17 + tz, axis=0, mode="clip")
    return ok, slots


def _column(values):
    """A CSV column as int64 when it holds integers or bools, else as
    float64, each without a copy where it already is one; every cell is
    spelled through its float value, one block at a time."""
    col = np.asarray(values)
    return col.astype(np.int64 if col.dtype.kind in "ib" else float, copy=False)


def _as_slots(cells, width=_SLOT):
    """Spelled cells as rows of ``width`` zero-padded bytes."""
    return np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


def _spelled(x, field: str):
    """Each cell of float array x as ``field % v`` spells it, in a
    zero-padded ``_SLOT``-byte slot: the kernel's cells where it certifies
    them, the others spelled with ``field`` once per distinct bit pattern."""
    ok, slots = _fixed_notation(x)
    rest = ~ok
    if rest.any():
        bits = x[rest].view(np.int64).tolist()
        values = dict(zip(bits, x[rest].tolist()))  # one value per bit pattern
        spelled = {b: field % v for b, v in values.items()}
        slots[rest] = _as_slots([spelled[b] for b in bits])
    return slots


def _csv_blocks(cols, field: str):
    """The CSV rows of one part's columns, a block of ``_EMIT_ROWS`` at a time.

    A block's rows are laid out in one byte matrix, each cell in a fixed
    slot followed by its separator; zero bytes mark what a cell does not
    use, and deleting them gives the rows.  A column with few runs of equal
    bits (the warm-up's lambda_t, runs of nan, the epoch columns) is spelled
    once per run, in slots as wide as its longest cell, and copied down each
    run; the other columns go through ``_spelled`` together."""
    T = len(cols[0])
    coded = [_runs(c, field) for c in cols]
    free = [j for j, runs in enumerate(coded) if runs is None]
    widths = [_SLOT if runs is None else max(map(len, runs[1])) for runs in coded]
    ends = np.cumsum(widths) + np.arange(1, len(cols) + 1)  # one past each separator
    spans = [slice(end - 1 - w, end - 1) for w, end in zip(widths, ends)]
    runs = {j: (c[0], _as_slots(c[1], widths[j])) for j, c in enumerate(coded) if c}
    buf = bytearray(min(T, _EMIT_ROWS) * int(ends[-1]))
    rows = np.frombuffer(buf, np.uint8).reshape(-1, ends[-1])
    rows[:, ends - 1] = ord(",")
    rows[:, -1] = ord("\n")
    for lo in range(0, T, _EMIT_ROWS):
        hi = min(lo + _EMIT_ROWS, T)
        if free:
            block = np.stack([cols[j][lo:hi] for j in free], axis=1).astype(float, copy=False)
            slots = _spelled(block, field)
            for i, j in enumerate(free):
                rows[:hi - lo, spans[j]] = slots[:, i]
        for j, (starts, cells) in runs.items():
            run = np.searchsorted(starts, np.arange(lo, hi), "right") - 1
            rows[:hi - lo, spans[j]] = cells[run[0]] if run[0] == run[-1] else cells[run]
        yield buf[:(hi - lo) * rows.shape[1]].translate(None, b"\0")


def emit(obj, format: str, path):
    """Write a trajectory as CSV, one block of rows at a time, or a report
    dict as JSON; returns the path.  A trajectory is a list of parts, each a
    dict of the ``CSV_COLUMNS`` arrays, written one after another.

    Every cell is written as ``CSV_ROW_FORMAT`` spells its value as a float
    ('%.17g', which spells an integer of magnitude at most 2^53 as "%d"
    does): the kernel (``_fixed_notation``) spells the cells it certifies,
    and the format the rest (see ``_csv_blocks``)."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if format == "csv":
        field = CSV_ROW_FORMAT.split(",", 1)[0]
        with open(path, "wb") as fh:
            fh.write((",".join(CSV_COLUMNS) + "\n").encode())
            for part in obj:
                fh.writelines(_csv_blocks([_column(part[name]) for name in CSV_COLUMNS], field))
    elif format == "json":
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


def coverage_check(reports) -> float:
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
    params: schedules.ScheduleParams
    J_star: float


def shared_setup(config: ExperimentConfig) -> SharedSetup:
    """How a config becomes a run: the model, the initial gain K0, the
    schedule built on K0's certificate, and J*.  The one set-up of a run.

    A ConfigurationError that names no config field is the plant's, so it is
    reported against ``model``, or ``benchmark`` for a named plant; but when
    no perturbed gain stabilizes a plant whose own DARE gain does, the offset
    is at fault, and it names ``k0_rel_error``."""
    try:
        model = config.build_model()
        if config.x0 is not None:  # before any seed runs: --benchmark may swap the plant
            loops.start_state(config.x0, model.n)
        try:
            K0 = perturbed_gain(model, config.k0_rel_error, seed=config.k0_seed)
        except ConfigurationError as exc:
            try:
                solve_dare(model)  # its gain stabilizes the plant, or it raises
            except (AlqrError, np.linalg.LinAlgError):
                raise exc from None
            raise ConfigurationError(str(exc), field="k0_rel_error") from exc
        cert0 = stability_certificate(model, K0)
        params = schedules.build_schedule(
            model, cert0=cert0, delta=config.delta, phi=config.phi,
            criterion=config.criterion, constants_mode=config.constants,
            lambda_scale=config.lambda_scale, noise_scale=config.noise_scale,
            beta=config.beta, chi=config.chi, mu_mode=config.mu_mode,
            radius_variant=config.radius_variant, mu_clamp=config.mu_clamp,
            tau_star_form=config.tau_star_form,
        )
        return SharedSetup(model=model, K0=K0, params=params,
                           J_star=solve_dare(model).J_star)
    except ConfigurationError as exc:
        if exc.field in FIELDS:
            raise
        plant = "benchmark" if config.model is None else "model"
        raise ConfigurationError(f"the plant's set-up failed: {exc}", field=plant) from exc


def _epoch_diagnostics(params, history):
    """The sequential gaps of the epochs' value matrices, against their limit."""
    gaps = sequential_gaps([p.P_dual for p in history])
    gap_limit = 1.0 + params.gamma / 2.0
    return {
        "sequential_gaps": gaps,
        "gap_limit": gap_limit,
        "gap_violations": int(sum(g > gap_limit for g in gaps)),
    }


def _segment_plan(config: ExperimentConfig, shared: SharedSetup, seed: int):
    """The mode's (kind, T, seed, options) segments for ``loops.run_segments``
    and whether they make up one horizon.  warmup and aslo draw from the seed;
    full's ASLO does too, sharing aslo's noise at one seed, and its warm-up
    from child 0 of SeedSequence(seed), so as not to replay it.  doubling is
    one horizon of segments T_i = base 2^i: ceil(sqrt(T_i)) warm-up steps on
    child 2i, then ASLO on child 2i + 1, lambda frozen at lambda_t(max(T_i, 2))."""
    model, params = shared.model, shared.params
    children = np.random.SeedSequence(seed)
    if config.mode == "doubling":
        plan, done, i = [], 0, 0
        while done < config.T:
            Ti = min(config.base_horizon * 2**i, config.T - done)
            w_i = min(Ti, max(1, math.ceil(math.sqrt(Ti))))
            warm_seed, aslo_seed = children.spawn(2)  # children 2i and 2i + 1
            plan.append(("warmup", w_i, warm_seed, {}))
            if Ti > w_i:
                plan.append(("aslo", Ti - w_i, aslo_seed, {
                    "anchor_eps": 2.0 * model.theta_bound,
                    "lambda_override": schedules.lambda_t(max(Ti, 2), params)}))
            done, i = done + Ti, i + 1
        return plan, True
    eps_target = config.eps_target if config.eps_target is not None else 0.5
    if config.mode == "aslo":
        Theta_0 = perturbed_theta(model, config.anchor_rel_error, seed=config.anchor_seed)
        eps = float(np.linalg.norm(Theta_0 - model.theta_star)) * 1.05
        return [("aslo", config.T, seed, {"Theta_0": Theta_0, "anchor_eps": eps,
                                          "checkpoints": config.checkpoints})], False
    T0 = config.T0 if config.T0 is not None else schedules.warmup_duration(eps_target, params)
    if config.mode == "warmup":
        return [("warmup", int(T0), seed, {})], False
    return [("warmup", int(T0), children.spawn(1)[0], {}),
            ("aslo", config.T, seed, {"anchor_eps": eps_target,
                                      "checkpoints": config.checkpoints})], False


def run_seed(config: ExperimentConfig, shared: SharedSetup, seed: int) -> dict:
    """One isolated per-seed run: the mode's plan through ``loops.run_segments``,
    one CSV part per segment and one summary; returns the summary plus the
    parts' columns.  The parts of one horizon (doubling) carry t, cum_regret
    (with the bits of one cumsum over the run) and the epoch ids on, and its
    checkpoints read that cum_regret.  Else a first warm-up is the run's own
    and a last ASLO segment is the horizon T."""
    model, params, J_star = shared.model, shared.params, shared.J_star
    plan, carry = _segment_plan(config, shared, seed)
    records, aslos, columns = [], [], []
    # build each part's columns as its segment ends: no segment's arrays wait for the last
    for kind, rec, out in loops.run_segments(model, shared.K0, plan, params, config.x0):
        records.append(rec)
        if kind == "aslo":
            aslos.append(out)
        cols = trajectory_columns(rec, J_star)
        if carry and columns:
            last = columns[-1]
            cols["t"] = cols["t"] + int(last["t"][-1])
            cols["cum_regret"] = np.cumsum(np.r_[last["cum_regret"][-1], rec.cost - J_star])[1:]
            cols["epoch"] = cols["policy_id"] = rec.policy_id + int(last["epoch"][-1]) + 1
        columns.append(cols)

    summary = {"seed": seed, "mode": config.mode, "J_star": J_star, "columns": columns}
    if not carry and plan[0][0] == "warmup":
        summary.update(T0=records[0].T, theta0_error=records[0].diagnostics["theta0_error"])
    if carry or aslos:
        history = [p for _, h, _ in aslos for p in h]
        Ms = model.A + model.B @ np.array([p.K for p in history]).reshape(-1, model.m, model.n)
        summary.update({
            "final_cum_regret": float(columns[-1]["cum_regret"][-1]),
            "max_x_norm": max(rec.max_state_norm() for rec in records[0 if carry else -1:]),
            "epochs": len(history),
            "synthesis_failures": sum(rec.diagnostics["synthesis_failures"]
                                      for rec, _, _ in aslos),
            "epoch_rho": np.abs(eigvals(Ms)).max(axis=-1).tolist(),
        })
    # one horizon reads its checkpoints, when it has any, from the cum_regret
    # carried over its parts; a run with an ASLO segment from the last part
    if config.checkpoints if carry else aslos:
        rr = (np.concatenate([cols["cum_regret"] for cols in columns]) if carry
              else columns[-1]["cum_regret"])
        summary["checkpoint_regret"] = {str(c): float(rr[c - 1])
                                        for c in config.checkpoints if c <= config.T}
    if carry:
        summary["segment_bounds"] = np.cumsum([rec.T for rec in records]).tolist()
    elif aslos:
        (rec, _, ledger), = aslos
        stats = {
            "X_T": summary["max_x_norm"],  # rec is records[-1]
            "Z_T": float(np.max(np.sum(np.hstack([rec.x[:-1], rec.u]) ** 2, axis=1))),
            "r_T": float(rec.r_t[-1]),
            "lambda_T": float(rec.lambda_t[-1]),
            "lambda_1": float(rec.lambda_t[0]),
            "beta": float(rec.beta_used[-1]),
        }
        bounds = regret.term_bounds(config.T, params, stats)
        terms = ledger.terms()
        summary.update({
            "n_updates": ledger.n_updates(),
            "containment": [[int(t), bool(ok)]
                            for t, ok in rec.diagnostics["containment"]],
            "epoch_starts": [[int(p.tau), float(p.est_error)] for p in history],
            "R_terms": terms,
            "R_bounds": bounds,
            "bound_violations": int(sum(terms[k] > bounds[k] for k in regret.R_NAMES)),
            "realized_vs_sum": {"realized": summary["final_cum_regret"],
                                "sum_R": float(sum(terms.values()))},
            "anynum_holds_ever": bool(any(rec.diagnostics["anynum_condition"])),
        })
        summary.update(_epoch_diagnostics(params, history))
    return summary


def _worker(args):
    config, shared, seed = args
    try:
        return seed, run_seed(config, shared, seed), None
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
        return asdict(self)


def _aggregate(config: ExperimentConfig, summaries: list, tails: list) -> dict:
    """Monte Carlo statistics of the seeds' summaries; ``tails`` holds each
    seed's last T cumulative regrets, for the pooled regret slope."""
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
    cov = coverage_check(summaries)
    if not math.isnan(cov):
        agg["coverage_frequency"] = cov
    epochs = [s["epochs"] for s in summaries if "epochs" in s]
    if epochs:
        agg["epochs_mean"] = float(np.mean(epochs))
        agg["epochs_max"] = int(np.max(epochs))
    viol = [s["bound_violations"] for s in summaries if "bound_violations" in s]
    if viol:
        agg["bound_violations_total"] = int(np.sum(viol))
    if tails and config.mode in ("aslo", "full"):
        T = config.T
        mean_curve = np.mean(tails, axis=0)
        lo = max(10, T // 10)
        if lo < T and np.all(mean_curve[lo - 1: T] > 0):
            agg["regret_slope"] = regret.slope(mean_curve, (lo, T))
        pts = [(tau, err) for s in summaries
               for tau, err in s.get("epoch_starts", [])
               if tau >= max(10, T // 100) and err > 0]
        if len(pts) >= 4:
            taus = np.array([p[0] for p in pts], dtype=float)
            errs = np.array([p[1] for p in pts])
            agg["est_error_slope"] = regret._loglog_slope(taus, errs)
    return agg


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Execute the configured mode for every seed and aggregate the results.

    One pass in seed order: a failed seed is recorded as an error; a
    successful seed's CSV is written to ``out_dir`` (when set) as soon as it
    ends, and only its summary and its last T cumulative regrets are kept.
    The aggregate JSON follows.  Identical configs produce byte-identical
    outputs.
    """
    shared = shared_setup(config)
    tasks = [(config, shared, seed) for seed in sorted(config.seeds)]
    summaries, errors, tails = [], [], []
    if config.workers > 1:  # its import costs every one-process run about 10 ms
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(config.workers) if config.workers > 1 else nullcontext() as pool:
        for seed, summary, err in (pool.map if pool else map)(_worker, tasks):
            if err is not None:
                errors.append({"seed": seed, "error": err})
                continue
            parts = summary.pop("columns")
            if config.out_dir:
                emit(parts, "csv", os.path.join(config.out_dir, f"seed_{seed:04d}.csv"))
            summaries.append(summary)
            tails.append(parts[-1]["cum_regret"][-config.T:])
    report = AggregateReport(
        config=config.to_dict(),
        constants=schedules.constants_report(shared.params),
        per_seed=summaries,
        errors=errors,
        aggregate=_aggregate(config, summaries, tails),
    )
    if config.out_dir:
        emit(report.to_dict(), "json", os.path.join(config.out_dir, "aggregate.json"))
    return report
