"""Fresh-interpreter runs: the command-line scripts with tiny arguments, what
they print against what the harness runs, and the modules a run imports."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from alqr.cli import build_parser, config_from_args
from alqr.harness import FIELDS, ExperimentConfig, json_dumps, run_experiment

ROOT = Path(__file__).resolve().parents[1]

SCRIPT_CASES = [
    ("compare_criteria.py", ["--T", "60", "--seeds", "1"]),
    ("run_benchmark.py", ["--T", "200", "--seeds", "2", "--out", "{out}"]),
    ("constants_report.py", []),
]
# output_digests.py runs the reference configs once, in `reference_run`
REFERENCE_SCRIPT = "output_digests.py"


def run_script(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(ROOT / "scripts" / script)]
    cmd += [a.format(out=tmp_path / "out") for a in args]
    return subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("script, args", SCRIPT_CASES)
def test_script_exits_cleanly(tmp_path, script, args):
    proc = run_script(tmp_path, script, args)
    assert proc.returncode == 0, proc.stderr


def test_every_script_has_a_clean_exit_case():
    assert {p.name for p in (ROOT / "scripts").glob("*.py")} == \
        {script for script, _ in SCRIPT_CASES} | {REFERENCE_SCRIPT}


@pytest.mark.parametrize("constants", ["practical", "theory"])
def test_constants_report_prints_what_the_harness_runs(tmp_path, constants):
    proc = run_script(tmp_path, "constants_report.py", ["--constants", constants])
    assert proc.returncode == 0, proc.stderr
    report = run_experiment(ExperimentConfig(benchmark="bench-2x2", T=5, seeds=[0],
                                             constants=constants))
    assert not report.errors
    assert proc.stdout == json_dumps(report.constants) + "\n"


def load_script(script):
    spec = importlib.util.spec_from_file_location(
        Path(script).stem, ROOT / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the scripts that offer a config field's flag, each with the harness call
# its main hands the config to
SCRIPT_FLAGS = {"criterion": [("run_benchmark.py", "run_experiment")],
                "constants": [("constants_report.py", "shared_setup")]}


class Handed(Exception):
    """Raised in place of the harness call a script's main makes, with its config."""


def hand_over(config):
    raise Handed(config)


@pytest.mark.parametrize("field, value", [
    (name, value) for name in ("mode", "criterion", "constants") for value in FIELDS[name].domain])
def test_every_accepted_value_parses_as_a_flag(monkeypatch, field, value):
    # a flag takes each spelling a config file takes, and means the same by it
    expected = getattr(ExperimentConfig(**{field: value}), field)
    argv = [f"--{field}", value]
    assert getattr(config_from_args(build_parser().parse_args(argv)), field) == expected
    for script, call in SCRIPT_FLAGS.get(field, []):
        module = load_script(script)
        monkeypatch.setattr(module, call, hand_over)
        monkeypatch.setattr(sys, "argv", [script, *argv])
        with pytest.raises(Handed) as exc:
            module.main()
        assert getattr(exc.value.args[0], field) == expected


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """One run of the reference configs: digests, the committed SCIENCE.json
    checked, and the number table written outside the working directory."""
    cwd = tmp_path_factory.mktemp("cwd")
    table = tmp_path_factory.mktemp("table") / "SCIENCE.json"
    proc = run_script(cwd, REFERENCE_SCRIPT,
                      ["--check", str(ROOT / "SCIENCE.json"), "--out", str(table)])
    return proc, cwd, table


def test_output_digests_prints_one_sha256_per_config(reference_run):
    proc, cwd, _ = reference_run
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    assert [name for name, _ in lines] == list(load_script(REFERENCE_SCRIPT).CONFIGS)
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)
    assert not list(cwd.iterdir())  # it writes into a temporary directory


def test_science_matches_its_reference(reference_run):
    # the committed SCIENCE.json: integers exactly, floats to REL_TOL
    proc, _, _ = reference_run
    assert proc.returncode == 0, proc.stderr


def test_output_digests_writes_its_science_table(reference_run):
    _, _, table = reference_run
    with open(table) as fh:
        assert list(json.load(fh)) == sorted(load_script(REFERENCE_SCRIPT).CONFIGS)


def test_science_check_tolerances():
    script = load_script(REFERENCE_SCRIPT)
    ref = {"a": {"epochs": 19, "regret": 100.0, "rho": [0.5, float("nan")], "ok": True}}
    same = {"a": {"epochs": 19, "regret": 100.0 * (1 + 0.9e-6), "rho": [0.5, float("nan")],
                  "ok": True}}
    assert script.mismatches(ref, same) == []
    for key, value in [("epochs", 20), ("epochs", 19.0), ("regret", 100.0 * (1 + 1.1e-6)),
                       ("rho", [0.5]), ("rho", [0.5, 0.5]), ("ok", 1)]:
        moved = {"a": dict(ref["a"], **{key: value})}
        assert script.mismatches(ref, moved), (key, value)
    assert script.mismatches(ref, {"a": dict(ref["a"], extra=1)}) == [
        "/a/extra: not in the reference"]


def test_run_path_does_not_import_barrier_oracle():
    # alqr.sdp is a test oracle and scipy a test-only dependency (its DARE and
    # Lyapunov solvers would also change bits); the harness and the CLI load neither
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, alqr.harness, alqr.cli; "
            "loaded = [m for m in ('alqr.sdp', 'scipy') if m in sys.modules]; "
            "assert not loaded, f'imported: {loaded}'")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_one_process_run_does_not_import_the_pool():
    # a process pool's modules cost about 10 ms to import; a workers=1 run
    # (every benchmark worker's) needs none of them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, alqr.harness as h, alqr.cli; "
            "report = h.run_experiment(h.ExperimentConfig(benchmark='bench-2x2', "
            "T=20, seeds=[0, 1], workers=1)); "
            "assert not report.errors, report.errors; "
            "loaded = [m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules]; "
            "assert not loaded, f'imported: {loaded}'")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
