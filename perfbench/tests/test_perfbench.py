"""Self-tests of the benchmark: every workload at its tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import calibrate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from alqr import loops  # noqa: E402
from alqr.exceptions import BlowUpError  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_spec_names_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_its_unit(name, trace):
    proc = _cli("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_forced_seed_failure_fails_the_run(name, monkeypatch, tmp_path):
    runner = "run_fixed_policy" if name == "coverage-2x2" else "run_aslo"
    original = getattr(loops, runner)
    doomed = workloads.setup(name, 3, "tiny").seeds[0]

    def failing(*args, seed, **kwargs):
        if seed == doomed:
            raise BlowUpError("forced failure")
        return original(*args, seed=seed, **kwargs)

    monkeypatch.setattr(loops, runner, failing)
    monkeypatch.chdir(tmp_path)
    out = worker.measure(name, 3, 0.01, False, "tiny")
    out["peak_rss_kb"] = 1.0
    result, info = run.summarize(out, 0.1, 0)
    assert info["fail_ratio"] > 0
    assert result["failed"] > 0
    assert result["correct"] is False
    assert any("forced failure" in p for p in info["problems"])


@pytest.mark.parametrize("name, gated", [("aslo-2x2", True), ("adaptive-2x2", False)])
def test_unstable_epoch_fails_det2_workloads_and_is_always_reported(name, gated, tmp_path,
                                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    s = workloads.setup(name, 3, "tiny")
    report = workloads.run_repeat(s)
    report.per_seed[0]["epoch_rho"][-1] = 1.5
    rep = workloads.check_repeat(s, report)
    assert rep.facts["unstable_epochs"] == 1
    assert bool(rep.problems) is gated


def test_ticks_sample_the_loop_inside_a_repeat_and_are_taken_out(monkeypatch):
    calls = []

    def reference(steps=calibrate.LOOP_STEPS):
        calls.append(steps)
        time.sleep(0.05)
        return 0.05

    monkeypatch.setattr(workloads, "run_repeat", lambda s: time.sleep(0.6) or "done")
    result, dt, calibrated = worker.timed_repeat(None, reference, ticks=True)
    assert result == "done"
    assert calls == [calibrate.LOOP_STEPS] + [calibrate.TICK_STEPS] * 2 + [calibrate.LOOP_STEPS]
    # the sleep ends 0.6 s after it began, so the two ticks' 0.1 s lies inside it
    assert dt == pytest.approx(0.5, abs=0.04)
    assert calibrated == pytest.approx(dt * calibrate.REF_S / 0.05)


def test_traced_outputs_match_plain_and_tracing_is_removed(tmp_path, monkeypatch):
    before = loops.run_aslo
    monkeypatch.chdir(tmp_path)
    out = worker.measure("aslo-2x2", 3, 0.01, True, "tiny")
    assert loops.run_aslo is before
    assert {r["phase"] for r in out["repeats"]} == {"plain", "traced"}
    assert len({r["digest"] for r in out["repeats"]}) == 1
    assert out["layers"]["sdp.solve_sdp.calls"] > 0
    assert out["layers"]["loops.run_warmup.self_us_per_step"] == 0


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
