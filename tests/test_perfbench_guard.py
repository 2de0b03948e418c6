"""The benchmark's hold on the package.

``perfbench/`` reads ``alqr`` through its tracer's targets, its workloads'
set-up, repeat and check, and the runners' return shapes, but its own tests
lie outside the suite's test paths.  These tests load ``perfbench/tracer.py``
and ``perfbench/workloads.py`` as they are, without changing them, and run
every workload at its tiny size, plainly and traced.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("aslo-2x2", "adaptive-2x2", "coverage-2x2", "full-3x2")


def load(name):
    """A perfbench module under a name of its own, registered before it runs
    (the dataclasses of ``workloads`` look their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_guard_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[spec.name]
        raise
    return module


@pytest.fixture(scope="module")
def bench():
    modules = {name: load(name) for name in ("tracer", "workloads")}
    yield modules
    for module in modules.values():
        sys.modules.pop(module.__name__, None)


def test_tracer_targets_resolve(bench):
    found = {name: (owner, attr, fn) for name, owner, attr, fn in bench["tracer"].targets()}
    assert {"regret.RegretLedger.accumulate", "linalg.logdet_pd"} <= set(found)
    for layer in bench["tracer"].LAYERS:
        assert layer == "linalg" or any(n.startswith(layer + ".") for n in found), layer
    for owner, attr, fn in found.values():
        assert getattr(owner, attr) is fn


def test_every_workload_is_run_here(bench):
    assert sorted(bench["workloads"].WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_and_traces_to_the_same_digest(bench, name, tmp_path, monkeypatch):
    workloads, tracer = bench["workloads"], bench["tracer"]
    monkeypatch.chdir(tmp_path)
    s = workloads.setup(name, 1, "tiny")
    plain = workloads.check_repeat(s, workloads.run_repeat(s))
    assert plain.failed == 0 and plain.problems == []
    assert plain.steps > 0 and plain.digest
    workloads.clear_outputs()
    with tracer.Tracer().installed():
        traced = workloads.check_repeat(s, workloads.run_repeat(s))
    assert traced.digest == plain.digest
