import json
import logging
import math
import os
from pathlib import Path

import numpy as np
import pytest

from alqr import harness, loops
from alqr.cli import main as cli_main
from alqr.exceptions import ConfigurationError
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
from alqr.loops import TrajectoryRecord
from alqr.regret import slope


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
             rec.logdet_V[s], int(rec.epoch[s]), int(rec.policy_id[s]),
             rec.beta_used[s], rec.r_t[s], rec.est_error[s])
            for s in range(rec.T)]


def oracle_csv(rows) -> bytes:
    lines = [",".join(CSV_COLUMNS)] + [",".join(oracle_fmt(v) for v in row)
                                       for row in rows]
    return ("\n".join(lines) + "\n").encode()


def empty_record():
    return TrajectoryRecord(
        mode="aslo", seed=0, x=np.zeros((1, 2)), u=np.zeros((0, 2)),
        eta=np.zeros((0, 2)), omega=np.zeros((0, 2)), cost=np.zeros(0),
        policy_id=np.zeros(0, dtype=int), epoch=np.zeros(0, dtype=int),
        lambda_t=np.zeros(0), r_t=np.zeros(0), logdet_V=np.zeros(0),
        beta_used=np.zeros(0), est_error=np.zeros(0))


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

    def test_seed_range_parsing(self):
        assert parse_seed_range("0..3") == [0, 1, 2, 3]
        assert parse_seed_range("4,7") == [4, 7]


class TestEmit:
    def test_header_only_for_empty_trajectory(self, tmp_path):
        path = emit(empty_record(), "csv", tmp_path / "t.csv", J_star=1.0)
        lines = Path(path).read_text().strip().split("\n")
        assert lines == [",".join(CSV_COLUMNS)]

    def test_round_trip_exact(self, bench2x2, bench2x2_params, bench2x2_anchor,
                              tmp_path):
        from alqr.loops import run_aslo
        theta0, eps = bench2x2_anchor
        rec, _, _ = run_aslo(bench2x2, theta0, eps, T=50,
                             params=bench2x2_params, seed=0)
        rows = list(zip(*trajectory_columns(rec, 3.0).values()))
        path = emit(rec, "csv", tmp_path / "t.csv", J_star=3.0)
        cols = read_trajectory_csv(path)
        assert len(cols["t"]) == 50
        for j, name in enumerate(CSV_COLUMNS):
            orig = np.array([row[j] for row in rows], dtype=float)
            assert np.array_equal(
                cols[name][~np.isnan(cols[name])], orig[~np.isnan(orig)])

    def test_header_only_reads_empty_columns(self, tmp_path):
        path = emit(empty_record(), "csv", tmp_path / "t.csv", J_star=1.0)
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
        again = emit(list(zip(*cols.values())), "csv", tmp_path / "again.csv")
        assert Path(again).read_bytes() == path.read_bytes()

    def test_column_count(self, tmp_path):
        rows = [(1, 0.5, 1.0, -0.5, 2.3, 1.0, 0, 0, 1.0, 4.0, 0.1)]
        path = emit(rows, "csv", tmp_path / "t.csv")
        for line in Path(path).read_text().splitlines():
            assert len(line.strip().split(",")) == 11

    def test_trajectory_as_json(self, tmp_path):
        path = emit(empty_record(), "json", tmp_path / "t.json", J_star=1.0)
        parsed = json.loads(Path(path).read_text())
        assert parsed["columns"] == list(CSV_COLUMNS)
        assert parsed["schema_version"] == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_record_without_J_star_is_rejected(self, tmp_path, fmt):
        # without J* the cum_regret column would hold the cumulative cost
        with pytest.raises(ConfigurationError) as exc:
            emit(empty_record(), fmt, tmp_path / f"t.{fmt}")
        assert exc.value.field == "J_star"
        assert not (tmp_path / f"t.{fmt}").exists()


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
            path = emit(rec, "csv", tmp_path / f"r{i}.csv", J_star=2.5)
            assert Path(path).read_bytes() == oracle_csv(oracle_rows(rec, 2.5))

    def test_special_values_and_int_columns_match_oracle(self, tmp_path):
        cols = self.special_columns()
        path = emit(cols, "csv", tmp_path / "odd.csv")
        assert Path(path).read_bytes() == oracle_csv(self.special_rows(cols))

    def test_record_columns_and_rows_write_one_file(self, records, tmp_path):
        _, arec = records
        cols = trajectory_columns(arec, 2.5)
        paths = [emit(arec, "csv", tmp_path / "rec.csv", J_star=2.5),
                 emit(cols, "csv", tmp_path / "cols.csv"),
                 emit(oracle_rows(arec, 2.5), "csv", tmp_path / "rows.csv")]
        first, *rest = [Path(p).read_bytes() for p in paths]
        assert all(b == first for b in rest)

    def test_json_trajectory_matches_oracle(self, records, tmp_path):
        for i, rec in enumerate(records):
            path = emit(rec, "json", tmp_path / f"r{i}.json", J_star=2.5)
            expected = json_dumps({
                "schema_version": 1, "columns": list(CSV_COLUMNS),
                "rows": [list(r) for r in oracle_rows(rec, 2.5)]}) + "\n"
            assert Path(path).read_text() == expected

    def test_oracle_tells_repr_from_the_row_format(self, tmp_path, monkeypatch):
        # the inputs above discriminate: a repr-spelled row fails them
        cols = self.special_columns()
        monkeypatch.setattr(harness, "CSV_ROW_FORMAT",
                            ",".join(["%r"] * len(CSV_COLUMNS)) + "\n")
        path = emit(cols, "csv", tmp_path / "repr.csv")
        assert Path(path).read_bytes() != oracle_csv(self.special_rows(cols))


class TestCoverageCheck:
    def test_all_contained(self):
        reports = [{"containment": [[500, True], [1000, True]]}] * 3
        assert coverage_check(reports, 0.1) == 1.0

    def test_none_contained(self):
        reports = [{"containment": [[500, False]]}] * 2
        assert coverage_check(reports, 0.1) == 0.0


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

    def test_degenerate_barrier_solution_keeps_previous_policy(self):
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

    def test_runner_failure_exit_code(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "benchmark": "bench-2x2", "mode": "aslo", "T": 20,
            "seeds": [0], "x0": [5e6, 0.0]}))
        assert cli_main(["--config", str(p)]) == 3

    def test_criterion_flag(self, tmp_path):
        rc = cli_main(["--benchmark", "scalar-golden", "--T", "15",
                       "--criterion", "fixed-beta", "--beta", "2.0",
                       "--seeds", "0"])
        assert rc == 0
