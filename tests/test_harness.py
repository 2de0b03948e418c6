import dataclasses
import json
import logging
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from alqr import harness, loops, schedules, synthesis
from alqr.benchmarks import bench_2x2
from alqr.cli import build_parser, config_from_args
from alqr.cli import main as cli_main
from alqr.exceptions import ConfigurationError, SynthesisError
from alqr.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    coverage_check,
    emit,
    json_dumps,
    load_config,
    parse_seed_range,
    read_trajectory_csv,
    run_experiment,
    trajectory_columns,
)
from alqr.linalg import _BLOCK
from alqr.loops import TrajectoryRecord
from alqr.regret import slope
from test_loops import join_records


def smoke_config(tmp_path, **overrides):
    base = dict(benchmark="scalar-golden", mode="aslo", T=10, seeds=[0],
                checkpoints=[5], out_dir=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


def oracle_fmt(x) -> str:
    """The per-value CSV spelling that emission must reproduce byte for byte."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def oracle_rows(rec, J_star) -> list:
    """The 11 CSV values of each step, built one row at a time."""
    cum = np.cumsum(rec.cost - J_star)
    xn = np.linalg.norm(rec.x[:-1], axis=1)
    return [(s + 1, xn[s], rec.cost[s], cum[s], rec.lambda_t[s],
             rec.logdet_V[s], int(rec.policy_id[s]), int(rec.policy_id[s]),
             rec.beta_used[s], rec.r_t[s], rec.est_error[s])
            for s in range(rec.T)]


def oracle_csv(rows) -> bytes:
    lines = [",".join(CSV_COLUMNS)] + [",".join(oracle_fmt(v) for v in row)
                                       for row in rows]
    return ("\n".join(lines) + "\n").encode()


def empty_record():
    return TrajectoryRecord(
        seed=0, x=np.zeros((1, 2)), u=np.zeros((0, 2)),
        eta=np.zeros((0, 2)), omega=np.zeros((0, 2)), cost=np.zeros(0),
        policy_id=np.zeros(0, dtype=int),
        lambda_t=np.zeros(0), r_t=np.zeros(0), logdet_V=np.zeros(0),
        beta_used=np.zeros(0), est_error=np.zeros(0))


SCALAR_MODEL = {"A": [[1.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}


class TestLoadConfig:
    def test_minimal_benchmark_config(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"benchmark": "scalar-golden"}')
        cfg = load_config(p)
        assert cfg.benchmark == "scalar-golden"
        assert cfg.mode == "aslo" and cfg.delta == 0.1 and cfg.seeds == [0]

    def test_invalid_delta_names_field(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"benchmark": "scalar-golden", "delta": 1.5}')
        with pytest.raises(ConfigurationError) as exc:
            load_config(p)
        assert exc.value.field == "delta"

    @pytest.mark.parametrize("checkpoints", [[0, -3, 10], [0], [-1]])
    def test_checkpoints_below_one_rejected(self, checkpoints):
        # c < 1 would index the regret column from its end
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(benchmark="scalar-golden", T=20,
                             checkpoints=checkpoints)
        assert exc.value.field == "checkpoints"

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"benchmark": "scalar-golden", "bogus": 1}')
        with pytest.raises(ConfigurationError):
            load_config(p)

    def test_round_trip(self, tmp_path):
        cfg = smoke_config(tmp_path, seeds=[3, 1, 2], criterion="adaptive")
        p = tmp_path / "c.json"
        p.write_text(json_dumps(cfg.to_dict()))
        cfg2 = load_config(p)
        assert cfg2.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")),
        ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        assert isinstance(load_config(path), ExperimentConfig)

    def test_seed_range_parsing(self):
        assert parse_seed_range("0..3") == [0, 1, 2, 3]
        assert parse_seed_range("4,7") == [4, 7]


class TestConfigValidation:
    @pytest.mark.parametrize("overrides, field", [
        (dict(schema_version=2), "schema_version"),
        (dict(mode="bogus"), "mode"),
        (dict(criterion="bogus"), "criterion"),
        (dict(constants="bogus"), "constants"),
        (dict(T=0), "T"),
        (dict(T0=0), "T0"),
        (dict(seeds=[]), "seeds"),
        (dict(benchmark=None), "benchmark"),
        (dict(base_horizon=0), "base_horizon"),
        (dict(base_horizon=2.5), "base_horizon"),
        (dict(base_horizon="16"), "base_horizon"),
        (dict(eps_target=0.0), "eps_target"),
        (dict(eps_target=float("nan")), "eps_target"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_invalid_config_names_field(self, overrides, field):
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(**overrides)
        assert exc.value.field == field

    def test_every_field_has_a_domain(self):
        # a field declared without its Field would fail every config with a KeyError
        for f in dataclasses.fields(ExperimentConfig):
            assert isinstance(f.metadata.get("field"), harness.Field), f.name
            assert harness.FIELDS[f.name] is f.metadata["field"]

    def test_model_keys_are_the_plant_fields(self):
        spec = dict(SCALAR_MODEL, sigma_w=0.5, alpha0=0.5, alpha1=2.0)
        model = ExperimentConfig(benchmark=None, model=spec).build_model()
        assert (model.name, model.sigma_w, model.alpha0, model.alpha1) == ("custom", 0.5, 0.5, 2.0)
        assert ExperimentConfig(model=dict(spec, name="mine")).build_model().name == "mine"

    @pytest.mark.parametrize("seeds", [[0, 0], [2, 1, 2], "1,1", "0..2,2"])
    def test_duplicate_seeds_rejected(self, seeds):
        # each seed runs once: a repeat would run twice and keep one summary
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(seeds=seeds)
        assert exc.value.field == "seeds"

    @pytest.mark.parametrize("seeds", [[1.7, 2.2], [1.0, 1.9], [0, 0.5], [float("nan")],
                                       ["1.5"], [None]])
    def test_fractional_seeds_rejected(self, seeds):
        # a truncated seed would run and record another seed than it names
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(seeds=seeds)
        assert exc.value.field == "seeds"
        assert "not an integer" in str(exc.value)

    def test_integral_float_seeds_kept(self):
        cfg = ExperimentConfig(seeds=[2.0, np.float64(5.0), np.int64(3), 7])
        assert cfg.seeds == [2, 5, 3, 7]
        assert all(type(s) is int for s in cfg.seeds)

    @pytest.mark.parametrize("x0", [[[1.0, 2.0]], ["a", "b"], [float("nan"), 0.0],
                                    [float("inf"), 0.0], [1.0, [2.0]], [None, 1.0]])
    def test_malformed_x0_refused(self, x0):
        # each of these was broadcast into the start state or failed every seed
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(benchmark="bench-2x2", x0=x0)
        assert exc.value.field == "x0"

    @pytest.mark.parametrize("x0", [[1.0], [1.0, 2.0, 3.0]])
    def test_x0_of_another_length_refused_before_any_seed(self, tmp_path, x0, monkeypatch):
        cfg = smoke_config(tmp_path, benchmark="bench-2x2", x0=x0)
        monkeypatch.setattr(harness, "run_seed", None)  # no seed may start
        with pytest.raises(ConfigurationError) as exc:
            run_experiment(cfg)
        assert exc.value.field == "x0"
        assert not (tmp_path / "out").exists()

    def test_large_finite_x0_kept(self):
        assert ExperimentConfig(benchmark="bench-2x2", x0=[5e6, 0]).x0 == [5e6, 0]

    @pytest.mark.parametrize("text", ["abc", "1..x", "0,1.5"])
    def test_malformed_seed_range_names_field(self, text):
        with pytest.raises(ConfigurationError) as exc:
            parse_seed_range(text)
        assert exc.value.field == "seeds"

    @pytest.mark.parametrize("text, field", [
        (None, "path"),
        ("{", "path"),
        ('{"T": "ten"}', "T"),
        # a file that holds no JSON object
        ("5", "path"), ("null", "path"), ('"abc"', "path"), ("[1, 2]", "path"),
    ], ids=["unreadable", "invalid-json", "wrong-type", "number", "null", "string", "list"])
    def test_unloadable_config(self, tmp_path, text, field):
        p = tmp_path / "c.json"
        if text is not None:
            p.write_text(text)
        with pytest.raises(ConfigurationError) as exc:
            load_config(p)
        assert exc.value.field == field

    def test_emit_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ConfigurationError) as exc:
            emit({}, "xml", tmp_path / "out.xml")
        assert exc.value.field == "format"

    def test_reading_a_csv_checks_its_header(self, tmp_path):
        p = tmp_path / "seed_0000.csv"
        p.write_text("t,cost\n1,2\n")
        with pytest.raises(ConfigurationError) as exc:
            read_trajectory_csv(p)
        assert exc.value.field == "path"


class TestEmit:
    def test_header_only_for_empty_trajectory(self, tmp_path):
        path = emit([trajectory_columns(empty_record(), 1.0)], "csv", tmp_path / "t.csv")
        lines = Path(path).read_text().strip().split("\n")
        assert lines == [",".join(CSV_COLUMNS)]

    def test_round_trip_exact(self, bench2x2, bench2x2_params, bench2x2_anchor,
                              tmp_path):
        from alqr.loops import run_aslo
        theta0, eps = bench2x2_anchor
        rec, _, _ = run_aslo(bench2x2, theta0, eps, T=50,
                             params=bench2x2_params, seed=0)
        rows = list(zip(*trajectory_columns(rec, 3.0).values()))
        path = emit([trajectory_columns(rec, 3.0)], "csv", tmp_path / "t.csv")
        cols = read_trajectory_csv(path)
        assert len(cols["t"]) == 50
        for j, name in enumerate(CSV_COLUMNS):
            orig = np.array([row[j] for row in rows], dtype=float)
            assert np.array_equal(
                cols[name][~np.isnan(cols[name])], orig[~np.isnan(orig)])

    def test_header_only_reads_empty_columns(self, tmp_path):
        path = emit([trajectory_columns(empty_record(), 1.0)], "csv", tmp_path / "t.csv")
        cols = read_trajectory_csv(path)
        assert list(cols) == list(CSV_COLUMNS)
        assert all(c.shape == (0,) for c in cols.values())

    def test_full_mode_csv_round_trips_exactly(self, tmp_path):
        cfg = smoke_config(tmp_path, benchmark="bench-2x2", mode="full",
                           T=30, T0=25)
        run_experiment(cfg)
        path = tmp_path / "out" / "seed_0000.csv"
        cols = read_trajectory_csv(path)
        assert np.all(np.isnan(cols["r_t"][:25])) and len(cols["t"]) == 55
        again = emit([cols], "csv", tmp_path / "again.csv")
        assert Path(again).read_bytes() == path.read_bytes()

    def test_column_count(self, tmp_path):
        row = (1, 0.5, 1.0, -0.5, 2.3, 1.0, 0, 0, 1.0, 4.0, 0.1)
        path = emit([{name: [v] for name, v in zip(CSV_COLUMNS, row)}], "csv",
                    tmp_path / "t.csv")
        for line in Path(path).read_text().splitlines():
            assert len(line.strip().split(",")) == 11


class TestEmitOracle:
    """Columnar emission writes the bytes of the per-value row writer."""

    @pytest.fixture(scope="class")
    def records(self, bench2x2, bench2x2_gain, bench2x2_params, bench2x2_anchor):
        _, wrec = loops.run_warmup(bench2x2, bench2x2_gain, 40, seed=3)
        theta0, eps = bench2x2_anchor
        arec, _, _ = loops.run_aslo(bench2x2, theta0, eps, T=60,
                                    params=bench2x2_params, seed=3, x0=wrec.x[-1])
        return wrec, arec

    @staticmethod
    def special_columns():
        odd = [np.inf, -np.inf, -0.0, 5e-324, 1e300, np.nan, 0.1, -1e-300,
               2.0**53, 123456.789]
        k = len(odd)
        cols = {name: np.roll(odd, j) for j, name in enumerate(CSV_COLUMNS)}
        cols["t"] = np.arange(1, k + 1)
        cols["epoch"] = np.array([0, 7, -3, 10**15, 2**53, 1, 2, 3, 4, 5])
        cols["policy_id"] = np.arange(k) * 1000
        return cols

    @staticmethod
    def special_rows(cols):
        ints = ("t", "epoch", "policy_id")
        return [tuple(int(cols[n][s]) if n in ints else cols[n][s]
                      for n in CSV_COLUMNS) for s in range(len(cols["t"]))]

    def test_full_mode_file_matches_oracle(self, tmp_path, monkeypatch):
        seen = []
        for name, at in (("run_warmup", 1), ("run_aslo", 0)):  # the record's slot

            def capture(*args, _runner=getattr(loops, name), _at=at, **kwargs):
                out = _runner(*args, **kwargs)
                seen.append(out[_at])
                return out
            monkeypatch.setattr(loops, name, capture)
        report = run_experiment(smoke_config(tmp_path, benchmark="bench-2x2",
                                             mode="full", T=30, T0=25))
        J = report.per_seed[0]["J_star"]
        wrec, arec = seen
        assert np.all(np.isnan(wrec.r_t))
        expected = oracle_csv(oracle_rows(wrec, J) + oracle_rows(arec, J))
        assert (tmp_path / "out" / "seed_0000.csv").read_bytes() == expected

    def test_records_match_oracle(self, records, tmp_path):
        for i, rec in enumerate(records):
            path = emit([trajectory_columns(rec, 2.5)], "csv", tmp_path / f"r{i}.csv")
            assert Path(path).read_bytes() == oracle_csv(oracle_rows(rec, 2.5))

    def test_special_values_and_int_columns_match_oracle(self, tmp_path):
        cols = self.special_columns()
        path = emit([cols], "csv", tmp_path / "odd.csv")
        assert Path(path).read_bytes() == oracle_csv(self.special_rows(cols))

    def test_int_columns_spelled_as_floats(self, tmp_path):
        # "%d" spells an integer as "%.17g" does up to 2^53; a column past it
        # goes through the float field, as every column once did
        cols = self.special_columns()
        for big in ([0, -2**53], [0, 2**53 + 1], [0, 10**17 - 1], [-10**18, 3]):
            cols["epoch"] = np.resize(big, len(cols["t"]))
            ints = emit([cols], "csv", tmp_path / "ints.csv")
            floats = emit([{k: np.asarray(v, dtype=float) for k, v in cols.items()}],
                          "csv", tmp_path / "floats.csv")
            assert Path(ints).read_bytes() == Path(floats).read_bytes()

    def test_record_columns_and_rows_write_one_file(self, records, tmp_path):
        # the record's columns and the columns read back from their file
        _, arec = records
        first = emit([trajectory_columns(arec, 2.5)], "csv", tmp_path / "cols.csv")
        again = emit([read_trajectory_csv(first)], "csv", tmp_path / "again.csv")
        assert Path(again).read_bytes() == Path(first).read_bytes()

    @staticmethod
    def run_columns():
        # T = 16 rows, so a column of 4 runs is spelled a run at a time and
        # one of 5 runs a value at a time
        T = 16
        other_nan = np.array([0x7FF8000000000001, -0x0008000000000000]).view(np.float64)
        quarter = lambda *v: np.repeat(v, T // 4)
        cols = {name: np.full(T, 0.1 * j) for j, name in enumerate(CSV_COLUMNS)}
        cols["t"] = np.arange(1, T + 1)
        cols["lambda_t"] = quarter(0.0, -0.0, 0.0, -0.0)    # equal values, other bits
        cols["beta"] = quarter(np.nan, other_nan[0], other_nan[1], np.nan)
        cols["r_t"] = quarter(np.inf, -np.inf, np.inf, 1e300)
        cols["epoch"] = quarter(0, 1, 2, 3)
        cols["policy_id"] = np.r_[quarter(0, 1, 2, 3)[:-1], 4]  # one run more
        cols["est_error"] = np.r_[np.full(T - 1, -0.0), 0.0]
        return cols

    def test_runs_are_runs_of_bits(self):
        cols = self.run_columns()
        runs = {name: harness._runs(np.asarray(c, dtype=float), "%.17g")
                for name, c in cols.items()}
        assert runs["lambda_t"] == ([0, 4, 8, 12], ["0", "-0", "0", "-0"])
        assert runs["beta"] == ([0, 4, 8, 12], ["nan"] * 4)
        assert runs["r_t"][1] == ["inf", "-inf", "inf", "1.0000000000000001e+300"]
        assert runs["epoch"][0] == [0, 4, 8, 12] and runs["est_error"][0] == [0, 15]
        assert runs["policy_id"] is None and runs["t"] is None

    @pytest.mark.parametrize("T", [0, 1, 5, 16])
    def test_run_coded_columns_match_oracle(self, tmp_path, T):
        cols = {name: c[:T] for name, c in self.run_columns().items()}
        path = emit([cols], "csv", tmp_path / "runs.csv")
        assert Path(path).read_bytes() == oracle_csv(self.special_rows(cols))

    def test_runs_cross_row_blocks(self, tmp_path):
        # a run-coded column whose runs start and end inside and across blocks
        T = 3 * _BLOCK + 7
        lam = np.zeros(T)
        lam[[_BLOCK - 1, _BLOCK + 3, 2 * _BLOCK]] = -0.0
        lam[2 * _BLOCK + 1:] = np.nan
        cols = {name: np.arange(T) * 0.5 for name in CSV_COLUMNS}
        cols.update(t=np.arange(1, T + 1), lambda_t=lam, epoch=np.arange(T) // 300,
                    policy_id=np.arange(T) // 300)
        path = emit([cols], "csv", tmp_path / "blocks.csv")
        assert Path(path).read_bytes() == oracle_csv(self.special_rows(cols))

    def test_oracle_tells_repr_from_the_row_format(self, tmp_path, monkeypatch):
        # the inputs above discriminate: a repr-spelled row fails them.  With
        # the kernel certifying no cell, every cell is spelled by the
        # fallback, with the row format's field
        cols = self.special_columns()
        monkeypatch.setattr(harness, "_fixed_notation", lambda x: (
            np.zeros(x.shape, bool), np.zeros(x.shape + (harness._SLOT,), np.uint8)))
        path = emit([cols], "csv", tmp_path / "fallback.csv")
        assert Path(path).read_bytes() == oracle_csv(self.special_rows(cols))
        monkeypatch.setattr(harness, "CSV_ROW_FORMAT",
                            ",".join(["%r"] * len(CSV_COLUMNS)) + "\n")
        path = emit([cols], "csv", tmp_path / "repr.csv")
        assert Path(path).read_bytes() != oracle_csv(self.special_rows(cols))


class TestSpellingKernel:
    """The vectorised kernel spells each cell as format(v, ".17g") does, and
    leaves to the fallback only the cells it cannot certify."""

    @staticmethod
    def assert_exact(values):
        x = np.asarray(values, dtype=float)
        slots = harness._spelled(x, "%.17g")
        assert [bytes(s).replace(b"\0", b"").decode() for s in slots] == \
            [format(v, ".17g") for v in x.tolist()]

    @staticmethod
    def certified(values):
        return harness._fixed_notation(np.asarray(values, dtype=float))[0]

    def test_random_bits_over_every_exponent(self):
        rng = np.random.default_rng(27)
        exponent = np.repeat(np.arange(2048, dtype=np.uint64), 16)
        mantissa = rng.integers(0, 2**52, exponent.size, dtype=np.uint64)
        sign = rng.integers(0, 2, exponent.size, dtype=np.uint64)
        self.assert_exact((sign << 63 | exponent << 52 | mantissa).view(np.float64))

    def test_fixed_notation_range_is_certified(self):
        # E in [-4, 16]; below 1e11 a double has too many fraction bits for
        # an exact tie at 17 digits to be likely, so nearly every cell there
        # goes through the kernel
        rng = np.random.default_rng(5)
        x = rng.choice([-1.0, 1.0], 20000) * 10 ** rng.uniform(-4, 17, 20000)
        self.assert_exact(x)
        assert self.certified(x[np.abs(x) < 1e11]).mean() > 0.999

    def test_powers_of_ten_and_their_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-300, 301)])
        near = [p]
        for direction in (0.0, np.inf):
            q = p
            for _ in range(2):
                q = np.nextafter(q, direction)
                near.append(q)
        self.assert_exact(np.concatenate(near))
        self.assert_exact(-np.concatenate(near))

    def test_digits_that_carry_across_groups(self):
        # 17 digits whose last 8 are near 00000000 or 99999999, and the doubles
        # around them: rounding carries into the upper half or borrows from it
        rng = np.random.default_rng(8)
        upper = rng.integers(10**8, 10**9, 3000)
        lower = rng.choice([0, 1, 5, 50000000, 99999994, 99999995, 99999999], 3000)
        x = np.array([float(f"{u}{lo:08d}e{e}") for u, lo, e in
                      zip(upper, lower, rng.integers(-20, 1, 3000))])
        near = [x]
        for direction in (0.0, np.inf):
            q = x
            for _ in range(3):
                q = np.nextafter(q, direction)
                near.append(q)
        self.assert_exact(np.concatenate(near))

    def test_exact_ties_go_to_the_fallback(self):
        # a/4 for odd a in [4e15, 2^53): 17 digits and a half, as in
        # 1000000000000000.25 -> "1000000000000000.2"
        rng = np.random.default_rng(3)
        x = (rng.integers(4 * 10**15, 2**53, 20000) | 1) / 4
        self.assert_exact(x)
        assert not self.certified(x).any()

    def test_special_values(self):
        payloads = np.array([0x7FF8000000000001, -0x0008000000000000, 0x7FF0000000000001,
                             -0x000FFFFFFFFFFFFF], dtype=np.int64).view(np.float64)
        self.assert_exact([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                           2.2250738585072014e-308, 2.225073858507201e-308, *payloads])

    @pytest.mark.parametrize("E", [-5, -4, 16, 17])
    def test_notation_edges(self, E):
        rng = np.random.default_rng(E + 10)
        self.assert_exact(rng.uniform(1, 10, 2000) * float(f"1e{E}"))

    def test_integer_values(self):
        ints = [0, 1, -1, 2**53, -2**53] + [s * (10**k - 1) for k in range(1, 16) for s in (1, -1)]
        x = np.asarray(ints, dtype=float)
        assert [bytes(s).replace(b"\0", b"").decode() for s in harness._spelled(x, "%.17g")] == \
            [str(i) for i in ints]

    def test_few_cells_of_a_run_take_the_fallback(self, tmp_path, monkeypatch):
        # a kernel that certified nothing would still write the right bytes
        seen, kernel = [], harness._fixed_notation

        def spy(x):
            ok, slots = kernel(x)
            seen.append(ok)
            return ok, slots
        monkeypatch.setattr(harness, "_fixed_notation", spy)
        report = run_experiment(smoke_config(tmp_path, benchmark="bench-3x2", mode="full",
                                             criterion="det2", T0=2000, T=200, seeds=[1]))
        assert not report.errors
        cells = np.concatenate([ok.ravel() for ok in seen])
        assert cells.size > 5 * 2200 and 1 - cells.mean() < 0.01

    def test_a_long_part_is_written_in_bounded_memory(self, tmp_path):
        T = 100_000
        rng = np.random.default_rng(0)
        cols = {name: rng.standard_normal(T) * 10.0 ** j for j, name in enumerate(CSV_COLUMNS)}
        cols.update(t=np.arange(1, T + 1), epoch=np.arange(T) // 1000,
                    policy_id=np.arange(T) // 1000, r_t=np.full(T, np.nan))
        tracemalloc.start()
        try:
            emit([cols], "csv", tmp_path / "long.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6  # bytes: a block's temporaries, not the part's


class TestCoverageCheck:
    def test_all_contained(self):
        reports = [{"containment": [[500, True], [1000, True]]}] * 3
        assert coverage_check(reports) == 1.0

    def test_none_contained(self):
        reports = [{"containment": [[500, False]]}] * 2
        assert coverage_check(reports) == 0.0


class TestRunExperiment:
    def test_smoke_files_present(self, tmp_path):
        cfg = smoke_config(tmp_path)
        report = run_experiment(cfg)
        assert not report.errors
        out = tmp_path / "out"
        assert (out / "seed_0000.csv").exists()
        assert (out / "aggregate.json").exists()
        parsed = json.loads((out / "aggregate.json").read_text())
        assert parsed["schema_version"] == 1
        assert parsed["aggregate"]["seed_count"] == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = smoke_config(tmp_path, seeds=[0, 1], T=30)
        run_experiment(cfg)
        first = (tmp_path / "out" / "aggregate.json").read_bytes()
        csv_first = (tmp_path / "out" / "seed_0001.csv").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "out" / "aggregate.json").read_bytes() == first
        assert (tmp_path / "out" / "seed_0001.csv").read_bytes() == csv_first

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg1 = smoke_config(tmp_path, seeds=[0, 1], T=40,
                            out_dir=str(tmp_path / "serial"))
        cfg2 = smoke_config(tmp_path, seeds=[0, 1], T=40, workers=2,
                            out_dir=str(tmp_path / "pool"))
        run_experiment(cfg1)
        run_experiment(cfg2)
        a = json.loads((tmp_path / "serial" / "aggregate.json").read_text())
        b = json.loads((tmp_path / "pool" / "aggregate.json").read_text())
        a["config"].pop("out_dir"), a["config"].pop("workers")
        b["config"].pop("out_dir"), b["config"].pop("workers")
        assert a == b
        assert (tmp_path / "serial" / "seed_0001.csv").read_bytes() == \
            (tmp_path / "pool" / "seed_0001.csv").read_bytes()

    def test_per_seed_failure_isolation(self, tmp_path):
        cfg = smoke_config(tmp_path, seeds=[0, 1], x0=[5e6, 0.0],
                           benchmark="bench-2x2", T=20)
        report = run_experiment(cfg)
        assert len(report.errors) == 2
        assert all("BlowUp" in e["error"] for e in report.errors)

    def test_decline_at_first_firing_fails_each_seed(self, monkeypatch):
        def decline(*args, **kwargs):
            raise SynthesisError("injected failure")

        monkeypatch.setattr(synthesis, "synthesize_policy", decline)
        cfg = ExperimentConfig(benchmark="bench-2x2", T=20, seeds=[0, 1], workers=1)
        report = run_experiment(cfg)
        assert [e["seed"] for e in report.errors] == [0, 1]
        assert all("SynthesisError: injected failure" in e["error"]
                   for e in report.errors)
        assert report.per_seed == []

    def test_model_matrices_match_named_benchmark(self, tmp_path):
        m = bench_2x2()
        model = {"A": m.A.tolist(), "B": m.B.tolist(), "Q": m.Q.tolist(),
                 "R": m.R.tolist(), "theta_bound": 1.6}
        named = smoke_config(tmp_path, benchmark="bench-2x2", T=300, seeds=[0, 1],
                             checkpoints=[30, 300], out_dir=str(tmp_path / "named"))
        given = smoke_config(tmp_path, benchmark=None, model=model, T=300,
                             seeds=[0, 1], checkpoints=[30, 300],
                             out_dir=str(tmp_path / "given"))
        run_experiment(named)
        run_experiment(given)
        for seed in (0, 1):
            name = f"seed_{seed:04d}.csv"
            assert (tmp_path / "given" / name).read_bytes() == \
                (tmp_path / "named" / name).read_bytes()

    def test_unclamped_mu_declines_keep_previous_policy(self):
        # unclamped mu makes the Riccati path decline at some firings (its
        # certificate fails or the doubling iteration does not converge);
        # each decline is a synthesis failure and the run keeps its old policy
        cfg = ExperimentConfig(benchmark="bench-2x2", mu_clamp=False, T=30,
                               seeds=[0, 1])
        report = run_experiment(cfg)
        assert not report.errors
        assert all(ps["synthesis_failures"] >= 1 for ps in report.per_seed)

    def test_aggregate_recomputable_from_csv(self, tmp_path):
        cfg = smoke_config(tmp_path, benchmark="bench-2x2", T=400,
                           seeds=[0, 1, 2], checkpoints=[100])
        report = run_experiment(cfg)
        out = tmp_path / "out"
        curves = []
        for s in (0, 1, 2):
            cols = read_trajectory_csv(out / f"seed_{s:04d}.csv")
            curves.append(cols["cum_regret"])
        mean_curve = np.mean(curves, axis=0)
        recomputed = slope(mean_curve, (max(10, 400 // 10), 400))
        assert recomputed == pytest.approx(report.aggregate["regret_slope"],
                                           rel=1e-12)
        cov = np.mean([c for rep in report.per_seed
                       for _, c in rep["containment"]])
        assert cov == pytest.approx(report.aggregate["coverage_frequency"])

    def test_default_run_does_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING):
            report = run_experiment(ExperimentConfig())
        assert [r.getMessage() for r in caplog.records] == []
        assert report.per_seed[0]["synthesis_failures"] == 0
        assert report.constants["phi"] == report.constants["phi_bar"]

    def test_horizon_below_slope_window_omits_regret_slope(self, tmp_path):
        # the slope window starts at t = 10; T = 5 leaves it empty
        cfg = smoke_config(tmp_path, benchmark="bench-2x2", T=5, seeds=[0, 1])
        report = run_experiment(cfg)
        assert not report.errors
        assert "regret_slope" not in report.aggregate
        with open(tmp_path / "out" / "aggregate.json") as fh:
            assert "regret_slope" not in json.load(fh)["aggregate"]

    @pytest.mark.parametrize("mode", ["aslo", "full", "warmup", "doubling"])
    def test_every_mode_starts_at_x0(self, tmp_path, mode):
        cfg = smoke_config(tmp_path, benchmark="bench-2x2", mode=mode, T=40, T0=25,
                           seeds=[0, 1], base_horizon=16, x0=[5e6, 0.0])
        report = run_experiment(cfg)
        assert [e["seed"] for e in report.errors] == [0, 1]
        assert all("BlowUp" in e["error"] for e in report.errors)

    def test_one_pass_writes_each_seed_before_the_next(self, tmp_path, monkeypatch):
        order, real_run, real_emit = [], harness.run_seed, harness.emit
        monkeypatch.setattr(harness, "run_seed", lambda c, sh, seed: (
            order.append(("run", seed)), real_run(c, sh, seed))[1])
        monkeypatch.setattr(harness, "emit", lambda obj, fmt, path: (
            order.append(("emit", os.path.basename(path))), real_emit(obj, fmt, path))[1])
        report = run_experiment(smoke_config(tmp_path, seeds=[2, 0, 1]))
        assert order == [("run", 0), ("emit", "seed_0000.csv"), ("run", 1),
                         ("emit", "seed_0001.csv"), ("run", 2),
                         ("emit", "seed_0002.csv"), ("emit", "aggregate.json")]
        assert [s["seed"] for s in report.per_seed] == [0, 1, 2]
        assert all("columns" not in s for s in report.per_seed)

    def test_doubling_mode_smoke(self, tmp_path):
        cfg = smoke_config(tmp_path, benchmark="bench-2x2", mode="doubling",
                           T=60, base_horizon=16)
        report = run_experiment(cfg)
        assert not report.errors
        assert "segment_bounds" in report.per_seed[0]

    def test_warmup_mode_smoke(self, tmp_path):
        cfg = smoke_config(tmp_path, benchmark="bench-2x2", mode="warmup",
                           T0=25)
        report = run_experiment(cfg)
        assert not report.errors
        assert report.per_seed[0]["T0"] == 25
        assert "theta0_error" in report.per_seed[0]

    def test_full_mode_smoke(self, tmp_path):
        cfg = smoke_config(tmp_path, benchmark="bench-2x2", mode="full",
                           T=30, T0=25)
        report = run_experiment(cfg)
        assert not report.errors
        assert report.per_seed[0]["T0"] == 25
        assert "final_cum_regret" in report.per_seed[0]

    def test_bench_3x2_and_relaxed_criterion(self, tmp_path):
        cfg = smoke_config(tmp_path, benchmark="bench-3x2", T=60,
                           criterion="relaxed-seq", beta=3.0, chi=0.02,
                           checkpoints=[])
        report = run_experiment(cfg)
        assert not report.errors
        assert report.per_seed[0]["epochs"] >= 1



def doubling_oracle(model, K0, base, total_T, params, seed):
    """The doubling baseline as first written: segment i's warm-up and ASLO
    on children 2i and 2i+1 of ``SeedSequence(seed).spawn(64)``, their
    records joined into one."""
    seeds = np.random.SeedSequence(seed).spawn(64)
    parts, done, i, x = [], 0, 0, None
    while done < total_T:
        Ti = min(base * 2**i, total_T - done)
        w = min(Ti, max(1, math.ceil(math.sqrt(Ti))))
        theta, rec = loops.run_warmup(model, K0, w, seed=seeds[2 * i], x0=x)
        parts.append(rec)
        if Ti > w:
            rec, _, _ = loops.run_aslo(
                model, theta, anchor_eps=2.0 * model.theta_bound, T=Ti - w, params=params,
                seed=seeds[2 * i + 1], x0=rec.x[-1],
                lambda_override=schedules.lambda_t(max(Ti, 2), params))
            parts.append(rec)
        x, done, i = rec.x[-1], done + Ti, i + 1
    return join_records(parts)


class TestSegmentPlans:
    """Every mode runs through ``loops.run_segments`` on the plan that
    ``_segment_plan`` builds, which names each segment's seed, and has one
    summary."""

    @staticmethod
    def capture(monkeypatch):
        seen = []
        for name, at in (("run_warmup", 1), ("run_aslo", 0)):  # the record's slot

            def spy(*args, _runner=getattr(loops, name), _at=at, **kwargs):
                out = _runner(*args, **kwargs)
                seen.append(out[_at])
                return out
            monkeypatch.setattr(loops, name, spy)
        return seen

    def test_full_mode_aslo_does_not_replay_warmup_noise(self, tmp_path, monkeypatch):
        # the ASLO segment once drew the warm-up's process noise again
        seen = self.capture(monkeypatch)
        report = run_experiment(smoke_config(tmp_path, mode="full", T0=40, T=50, seeds=[0]))
        assert not report.errors
        wrec, arec = seen
        assert not np.any(arec.omega[:40] == wrec.omega)
        # the ASLO keeps the seed itself, and so aslo mode's noise; the warm-up takes child 0
        assert wrec.seed.spawn_key == np.random.SeedSequence(0).spawn(1)[0].spawn_key
        assert arec.seed == 0
        run_experiment(smoke_config(tmp_path, mode="aslo", T=50, seeds=[0]))
        assert np.array_equal(seen[-1].omega, arec.omega)

    @pytest.mark.parametrize("mode", ["aslo", "warmup"])
    def test_one_segment_modes_draw_from_the_seed_itself(self, tmp_path, monkeypatch, mode):
        seen = self.capture(monkeypatch)
        run_experiment(smoke_config(tmp_path, mode=mode, T0=30, T=30, seeds=[4]))
        assert [r.seed for r in seen] == [4]

    @pytest.mark.parametrize("base", [1, 2, 16])
    def test_doubling_draws_children_2i_and_2i_plus_1(self, tmp_path, bench2x2, base):
        cfg = smoke_config(tmp_path, benchmark="bench-2x2", mode="doubling", T=100,
                           base_horizon=base, seeds=[3], checkpoints=[])
        shared = harness.shared_setup(cfg)
        plan, carry = harness._segment_plan(cfg, shared, 3)
        done = list(loops.run_segments(bench2x2, shared.K0, plan, shared.params))
        # epoch i's warm-up takes child 2i; its ASLO, when steps are left, 2i + 1
        keys, left, i = [], 100, 0
        while left > 0:
            Ti = min(base * 2**i, left)
            keys += [(2 * i,)] + ([(2 * i + 1,)] if Ti > math.ceil(math.sqrt(Ti)) else [])
            left, i = left - Ti, i + 1
        assert carry and [rec.seed.spawn_key for _, rec, _ in done] == keys
        assert [kind for kind, _, _ in done] == [("warmup", "aslo")[k % 2] for k, in keys]
        if base < 3:
            assert len(keys) < 2 * i  # an epoch too short for ASLO steps
        children = np.random.SeedSequence(3).spawn(2 * i)
        for (k,), (_, rec, _) in zip(keys, done):
            omega_rng, _, _ = loops._streams(children[k])
            assert np.array_equal(rec.omega, bench2x2.sigma_w
                                  * omega_rng.standard_normal((rec.T, bench2x2.n)))

    @pytest.mark.parametrize("base", [1, 2, 16])
    def test_doubling_csv_keeps_its_bytes(self, tmp_path, bench2x2, base):
        cfg = smoke_config(tmp_path, benchmark="bench-2x2", mode="doubling", T=100,
                           base_horizon=base, seeds=[2], checkpoints=[])
        report = run_experiment(cfg)
        shared = harness.shared_setup(cfg)
        rec = doubling_oracle(bench2x2, shared.K0, base, 100, shared.params, 2)
        expected = oracle_csv(oracle_rows(rec, shared.J_star))
        assert (tmp_path / "out" / "seed_0002.csv").read_bytes() == expected
        summary = report.per_seed[0]
        assert summary["final_cum_regret"] == float(np.cumsum(rec.cost - shared.J_star)[-1])
        assert summary["max_x_norm"] == float(np.max(np.linalg.norm(rec.x, axis=1)))
        assert summary["segment_bounds"] == rec.segment_bounds

    def test_doubling_summary_counts_its_aslo_segments(self, tmp_path, monkeypatch):
        histories = []
        aslo = loops.run_aslo

        def spy(*args, **kwargs):
            out = aslo(*args, **kwargs)
            histories.append(out[1])
            return out
        monkeypatch.setattr(loops, "run_aslo", spy)
        report = run_experiment(smoke_config(tmp_path, benchmark="bench-2x2", mode="doubling",
                                             T=200, base_horizon=16, seeds=[1]))
        summary = report.per_seed[0]
        epochs = [p for h in histories for p in h]
        assert len(histories) == 4 and summary["epochs"] == len(epochs)
        assert summary["synthesis_failures"] == 0
        model = bench_2x2()
        assert summary["epoch_rho"] == [
            float(np.max(np.abs(np.linalg.eigvals(model.A + model.B @ p.K)))) for p in epochs]
        assert report.aggregate["epochs_max"] == len(epochs)
        # ledger and bound keys belong to a run whose one ASLO segment is its horizon
        assert "R_terms" not in summary and "T0" not in summary

    def test_doubling_of_warm_ups_alone_still_reports_its_regret(self, tmp_path):
        # base 1 and T = 3: epochs of 1 and 2 steps, each all warm-up
        report = run_experiment(smoke_config(tmp_path, benchmark="bench-2x2", mode="doubling",
                                             T=3, base_horizon=1, seeds=[0], checkpoints=[]))
        summary = report.per_seed[0]
        assert summary["segment_bounds"] == [1, 3] and summary["epochs"] == 0
        assert summary["epoch_rho"] == [] and math.isfinite(summary["final_cum_regret"])
        assert "T0" not in summary

    def test_doubling_reads_its_checkpoints_from_the_carried_regret(self, tmp_path):
        # doubling summaries once had no checkpoint_regret, so the aggregate
        # had no regret_mean_t{c} to set beside aslo's and full's
        report = run_experiment(smoke_config(tmp_path, benchmark="bench-2x2", mode="doubling",
                                             T=200, seeds=[0, 1], checkpoints=[100, 200],
                                             base_horizon=16))
        assert not report.errors
        for s in report.per_seed:
            rr = read_trajectory_csv(tmp_path / "out" / f"seed_{s['seed']:04d}.csv")["cum_regret"]
            assert s["checkpoint_regret"] == {"100": rr[99], "200": rr[199]}
            assert s["checkpoint_regret"]["200"] == s["final_cum_regret"]
        for c in (100, 200):
            vals = [s["checkpoint_regret"][str(c)] for s in report.per_seed]
            assert report.aggregate[f"regret_mean_t{c}"] == float(np.mean(vals))
        # containment and the regret slope stay with a single-estimator horizon
        assert "containment" not in report.per_seed[0]
        assert "coverage_frequency" not in report.aggregate
        assert "regret_slope" not in report.aggregate
        # a config that names no checkpoints writes no key
        report = run_experiment(smoke_config(tmp_path, benchmark="bench-2x2", mode="doubling",
                                             T=40, base_horizon=16, checkpoints=[]))
        assert "checkpoint_regret" not in report.per_seed[0]


class TestCli:
    def test_success_exit_code(self, tmp_path):
        rc = cli_main(["--benchmark", "scalar-golden", "--mode", "aslo",
                       "--T", "10", "--seeds", "0..1",
                       "--out", str(tmp_path / "cli_out")])
        assert rc == 0
        assert (tmp_path / "cli_out" / "aggregate.json").exists()

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"benchmark": "scalar-golden", "delta": 2.0}')
        assert cli_main(["--config", str(p)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("phi", 1.0), ("chi", 1.0), ("lambda_scale", 0.0), ("mu_mode", "Lemma"),
        ("noise_scale", -1.0), ("tau_star_form", "stmt"),
        ("base_horizon", 0), ("base_horizon", 2.5), ("eps_target", -1.0),
        # a value of the wrong type, or an integer below its floor
        ("workers", "2"), ("workers", 2.5), ("workers", 0), ("workers", -3),
        ("lambda_scale", "1"), ("noise_scale", "1"), ("phi", "2"), ("k0_seed", -1),
        ("out_dir", 5), ("T", 20.5), ("beta", "x"), ("anchor_seed", 1.5),
        ("mu_clamp", "no"), ("checkpoints", [10.5]), ("T0", 10.5),
        # a negative or bool seed, a bare number for a list, a model SystemModel
        # refuses, an unhashable choice, a real that is out of range or not finite
        ("seeds", [-1]), ("seeds", [True]), ("seeds", 5), ("checkpoints", 5), ("model", 5),
        ("model", {"A": [[1.0]]}), ("model", dict(SCALAR_MODEL, foo=1)),
        ("model", dict(SCALAR_MODEL, A=[["a"]])), ("criterion", ["det2"]), ("beta", -1),
        ("beta", math.nan), ("lambda_scale", math.inf), ("noise_scale", math.inf),
        ("eps_target", math.inf), ("anchor_rel_error", -1), ("k0_rel_error", math.nan),
        ("model", dict(SCALAR_MODEL, A=[[math.inf]])),
        # plants SystemModel accepts but the set-up cannot use: alpha0 below 0, and Q = 0
        ("model", dict(SCALAR_MODEL, alpha0=-1)), ("model", dict(SCALAR_MODEL, Q=[[0]])),
        # no perturbed gain stabilizes the plant, though its own DARE gain does
        ("k0_rel_error", 1e6),
    ])
    def test_schedule_config_error_exit_code(self, tmp_path, capsys, field, value):
        # values the set-up judges before any seed runs: exit 2 naming the field
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"benchmark": "bench-2x2", "T": 5, field: value}))
        assert cli_main(["--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error ({field}): ")
        assert "Traceback" not in err

    def test_schedule_error_exit_code(self, tmp_path, capsys):
        # the statement-form tau_* of bench-3x2's theory constants leaves no G(phi)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"benchmark": "bench-3x2", "constants": "theory",
                                 "tau_star_form": "statement"}))
        assert cli_main(["--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "(None)" not in err
        assert "config error: G(phi) bracketing failed" in err

    @pytest.mark.parametrize("x0", [[1.0], [1.0, "2"]], ids=["short", "string"])
    def test_malformed_x0_exit_code(self, tmp_path, capsys, x0):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"benchmark": "bench-2x2", "T": 20, "seeds": [0],
                                 "x0": x0, "out_dir": str(tmp_path / "out")}))
        assert cli_main(["--config", str(p)]) == 2
        assert "config error (x0)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runner_failure_exit_code(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "benchmark": "bench-2x2", "mode": "aslo", "T": 20,
            "seeds": [0], "x0": [5e6, 0.0]}))
        assert cli_main(["--config", str(p)]) == 3

    FILE = {"benchmark": "bench-2x2", "mode": "aslo", "criterion": "det2",
            "constants": "practical", "T": 50, "seeds": [0, 1], "out_dir": "file_out",
            "beta": 1.5, "delta": 0.05, "workers": 1, "x0": [1.0, 0.0]}

    @pytest.mark.parametrize("argv, field, value", [
        (["--mode", "doubling"], "mode", "doubling"),
        (["--criterion", "relaxed-seq"], "criterion", "relaxed_sequential"),
        (["--constants", "theory"], "constants", "theory"),
        (["--T", "7"], "T", 7),
        (["--seeds", "3..5"], "seeds", [3, 4, 5]),
        (["--out", "flag_out"], "out_dir", "flag_out"),
        (["--benchmark", "bench-3x2"], "benchmark", "bench-3x2"),
        (["--beta", "2.5"], "beta", 2.5),
        (["--delta", "0.2"], "delta", 0.2),
        (["--workers", "2"], "workers", 2),
    ], ids=lambda v: v if isinstance(v, str) and not v.startswith("-") else None)
    def test_flag_overrides_config_file(self, tmp_path, argv, field, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(self.FILE))
        config = config_from_args(build_parser().parse_args(["--config", str(p)] + argv))
        expected = load_config(p).to_dict()
        expected[field] = value
        assert config.to_dict() == expected

    def test_no_flag_keeps_config_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(self.FILE))
        config = config_from_args(build_parser().parse_args(["--config", str(p)]))
        assert config.to_dict() == load_config(p).to_dict()

    def test_benchmark_flag_clears_model(self, tmp_path):
        m = bench_2x2()
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"benchmark": None, "model": {
            "A": m.A.tolist(), "B": m.B.tolist(), "Q": m.Q.tolist(), "R": m.R.tolist()}}))
        config = config_from_args(build_parser().parse_args(
            ["--config", str(p), "--benchmark", "scalar-golden"]))
        assert config.model is None and config.build_model().name == "scalar-golden"

    @pytest.mark.parametrize("flag_value, file_value", [
        ("abc", "abc"), ("1,1", [0, 0]),
    ], ids=["malformed", "duplicate"])
    def test_bad_seeds_exit_code(self, tmp_path, capsys, flag_value, file_value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"benchmark": "scalar-golden", "seeds": file_value}))
        for argv in (["--seeds", flag_value], ["--config", str(p)]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error (seeds): ") and "Traceback" not in err

    def test_criterion_flag(self, tmp_path):
        rc = cli_main(["--benchmark", "scalar-golden", "--T", "15",
                       "--criterion", "fixed-beta", "--beta", "2.0",
                       "--seeds", "0"])
        assert rc == 0
