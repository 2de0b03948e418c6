"""One workload in a fresh interpreter; started by ``run.py``, not by hand.

``--mode setup`` builds the workload's inputs and reports the monotonic
clock once they are ready, so the parent can time interpreter start,
imports, config validation and the model, gain and schedule.  ``--mode run``
also repeats the workload's work until the interval ends and reports the
repeats, checks, facts and (with ``--trace 1``) the per-layer metrics.
To have the calibration loop timed (see ``calibrate.py``) it prints
``ref <steps>`` and waits for the parent to answer with the loop's time.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time

import numpy as np

import calibrate
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# A repeat is started only while it is expected to end within the interval,
# but a plain run always makes two so their outputs can be compared.
MIN_PLAIN_REPEATS = 2


def parent_reference(steps: int = calibrate.LOOP_STEPS) -> float:
    """Have the parent time ``steps`` steps of the calibration loop while
    this process waits.  Safe inside a signal handler: the package never
    writes to standard output."""
    os.write(sys.stdout.fileno(), f"ref {steps}\n".encode())
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = os.read(sys.stdin.fileno(), 64)
        if not chunk:
            raise EOFError("the parent closed the calibration pipe")
        reply += chunk
    return float(reply)


def timed_repeat(s: workloads.Setup, reference, ticks: bool):
    """Run one repeat; return (result, raw seconds, calibrated seconds).

    The calibration loop is timed right before and right after the repeat
    and, with ``ticks``, for a short slice every ``TICK_S`` inside it; the
    slices' time is taken out of the repeat's."""
    before = reference()
    # The ticks keep no Python object alive: one left in a memory arena can
    # keep the arena from being freed, which made the peak RSS vary by 7%.
    ticked = array.array("d", [0.0, 0.0, 0.0])  # loop seconds, count, spent

    def tick(signum, frame):
        t0 = time.perf_counter()
        ticked[0] += reference(calibrate.TICK_STEPS)
        ticked[1] += 1
        ticked[2] += time.perf_counter() - t0

    if ticks:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, calibrate.TICK_S, calibrate.TICK_S)
    t0 = time.perf_counter()
    try:
        result = workloads.run_repeat(s)
    finally:
        # stop the ticks before reading the clock, so every slice taken out
        # of the repeat's time lies inside it
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        dt = time.perf_counter() - t0
    loop_s = (before + reference() + ticked[0]) / (2 + ticked[1])
    dt -= ticked[2]
    return result, dt, calibrate.rescale(dt, loop_s)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            reference=calibrate.loop_seconds) -> dict:
    """Repeat the workload for ``seconds``; with ``trace`` the first half
    runs plain and the second half traced.  ``reference`` times the
    calibration loop.  Runs in the current directory."""
    s = workloads.setup(name, seed, size)
    start = time.perf_counter()
    if trace:
        phases = [("plain", start + seconds / 2, 1), ("traced", start + seconds, 1)]
    else:
        phases = [("plain", start + seconds, MIN_PLAIN_REPEATS)]
    repeats = []
    tracer = setup_tracer = None
    for phase, deadline, at_least in phases:
        if phase == "traced":
            setup_tracer = tracing.Tracer()
            with setup_tracer.installed():
                workloads.setup(name, seed, size)
            tracer = tracing.Tracer()
        done = 0
        while True:
            workloads.clear_outputs()
            # no ticks while tracing, or their time would be charged to
            # whichever traced function they interrupt
            with tracer.installed() if tracer else contextlib.nullcontext():
                result, dt, calibrated = timed_repeat(s, reference, ticks=tracer is None)
            rep = workloads.check_repeat(s, result)
            repeats.append({"phase": phase, "seconds": dt, "calibrated_seconds": calibrated,
                            "steps": rep.steps, "attempted": rep.attempted,
                            "failed": rep.failed, "digest": rep.digest,
                            "problems": rep.problems, "facts": rep.facts})
            done += 1
            if tracer:
                tracer.repeat = done
            if done >= at_least and time.perf_counter() + dt > deadline:
                break
    facts = dict(s.facts)
    facts.update(repeats[-1]["facts"])
    facts.update(workloads.output_facts(s))
    facts["steps_per_repeat"] = repeats[-1]["steps"]
    out = {"repeats": repeats, "facts": facts}
    if tracer is not None:
        traced = [r for r in repeats if r["phase"] == "traced"]
        out["layers"] = tracing.layer_metrics(
            tracer, len(traced), sum(r["seconds"] for r in traced), setup_tracer)
        out["top_self"] = tracing.top_self(tracer)
        out["spans"] = [sp for sp in tracer.spans if sp is not None]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    args = ap.parse_args(argv)

    src = os.path.realpath(SRC)
    if not os.path.realpath(workloads.harness.__file__).startswith(src + os.sep):
        print(f"alqr imported from {workloads.harness.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        workloads.setup(args.workload, args.seed, args.size)
        ready = time.monotonic()
        print(json.dumps({"ready": ready}))
        return 0

    scratch = os.path.join(os.path.dirname(src), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                      parent_reference)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    spans = out.pop("spans", None)
    if spans is not None:
        with open(os.path.join(scratch, f"spans-{args.workload}.json"), "w") as fh:
            json.dump({"fields": ["id", "parent", "repeat", "name", "start", "end"],
                       "spans": spans}, fh)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["env"] = {"python": platform.python_version(), "numpy": np.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
