#!/usr/bin/env python3
"""The alqr benchmark.

    python3 perfbench/run.py --workload aslo-2x2 --seed 1 --seconds 20 --trace 0

Each workload runs in fresh interpreters, on the same CPU as this process,
with BLAS and OpenMP pinned to one thread: several that only set up (their
median is ``setup_s``) and one that repeats the workload's work for
``--seconds`` (``steps_per_s`` is the median over repeats, ``peak_rss_mb``
that process's peak).  Times are calibrated against the host's CPU speed
(see ``calibrate.py``).  ``--trace 1`` runs half the interval plain and half
with every layer's public functions wrapped, and reports the per-layer
metrics instead.  ``--workload all`` runs every workload in turn.

Outputs are checked: a failed seed, an epoch whose gain does not stabilize
the true plant (rho >= 1; det2 workloads only, see ``workloads.py``),
coverage below P3's threshold, or two repeats whose emitted files differ
each make ``correct`` false and the exit code 1.
The last line of standard output is the result as one JSON object.  Before
it, each workload prints a JSON line with the environment, the outputs'
sha256, deterministic facts, raw timings and problems, then a summary line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_SAMPLES = 11
BUDGET_S = 170  # per workload, so a hung worker cannot hold the run past 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def spawn(args, deadline):
    """Run the worker, timing the calibration loop whenever it asks; return
    (start monotonic, last stdout line as JSON)."""
    start = time.monotonic()
    timeout = max(1.0, deadline - start)
    last, stderr = "", []
    with subprocess.Popen([sys.executable, WORKER] + args, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT) as proc:
        killer = threading.Timer(timeout, proc.kill)
        reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
        killer.start()
        reader.start()
        try:
            for line in proc.stdout:
                if not line.startswith("ref "):
                    last = line
                    continue
                seconds = calibrate.loop_seconds(int(line.split()[1]))
                try:
                    os.write(proc.stdin.fileno(), f"{seconds!r}\n".encode())
                except BrokenPipeError:  # killed at the deadline
                    break
            proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            killer.cancel()
            reader.join()
    if time.monotonic() - start >= timeout:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0 or not last.strip():
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}\n"
                         + "".join(stderr)[-2000:])
    return start, json.loads(last)


def setup_seconds(workload, seed, size, deadline):
    """Median calibrated time from spawning an interpreter to ready inputs,
    and the raw samples.  One discarded spawn first fills the bytecode caches."""
    common = ["--mode", "setup", "--workload", workload, "--seed", str(seed),
              "--size", size]
    spawn(common, deadline)
    samples, calibrated = [], []
    for _ in range(SETUP_SAMPLES):
        before = calibrate.loop_seconds()
        start, out = spawn(common, deadline)
        samples.append(out["ready"] - start)
        calibrated.append(calibrate.rescale(samples[-1], (before + calibrate.loop_seconds()) / 2))
    return statistics.median(calibrated), samples


def load_spec():
    """BENCHMARK.json: the workloads and each metric's unit."""
    with open(SPEC) as fh:
        return json.load(fh)


def bench(workload, seed, seconds, trace, size):
    """Run one workload in fresh interpreters; return (result, info)."""
    deadline = time.monotonic() + BUDGET_S
    setup_s, samples = setup_seconds(workload, seed, size, deadline)
    load_before = os.getloadavg()
    _, out = spawn(["--mode", "run", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace), "--size", size],
                   deadline)
    result, info = summarize(out, setup_s, trace)
    info.update(workload=workload, seed=seed, size=size, setup_samples_s=samples)
    info["env"] = dict(out["env"], nproc=os.cpu_count(),
                       affinity=len(os.sched_getaffinity(0)), machine=platform.machine(),
                       loadavg_before=load_before, loadavg_after=os.getloadavg())
    return result, info


def summarize(out, setup_s, trace):
    """The result object and the info object of one worker's report."""
    repeats = out["repeats"]
    problems = sorted({p for r in repeats for p in r["problems"]})
    digests = sorted({r["digest"] for r in repeats})
    if len(digests) > 1:
        problems.append(f"repeats emitted different outputs: {digests}")
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    fail_ratio = failed / attempted

    def rate(phase, clock="calibrated_seconds"):
        vals = [r["steps"] / r[clock] for r in repeats if r["phase"] == phase]
        return statistics.median(vals) if vals else 0.0

    spec = load_spec()
    if trace:
        values = dict(out["layers"])
        traced = rate("traced")
        values["trace.overhead_ratio"] = rate("plain") / traced if traced else 0.0
        values["fail_ratio"] = fail_ratio
    else:
        values = {"steps_per_s": rate("plain"), "setup_s": setup_s,
                  "peak_rss_mb": out["peak_rss_kb"] / 1024.0}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    info = {
        "problems": problems, "fail_ratio": fail_ratio, "trace": trace,
        "digest": digests[0] if len(digests) == 1 else digests,
        "facts": out["facts"],
        "raw_steps_per_s": rate("plain", "seconds"),
        "repeats": [[r["phase"], r["seconds"], r["calibrated_seconds"], r["steps"]]
                    for r in repeats],
    }
    if trace:
        info["top_self_s"] = out["top_self"]
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    workloads = [w["name"] for w in load_spec()["workloads"]]
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, required=True, help="seed base of the inputs")
    ap.add_argument("--seconds", type=int, required=True, help="measured interval")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the self-tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "alqr", "__init__.py")):
        print(f"no alqr package under {SRC}", file=sys.stderr)
        return 2

    # the worker and the calibration loop must run on the same CPU: a shared
    # host's CPUs can run at different speeds at the same moment
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, info = bench(name, args.seed, args.seconds, args.trace, args.size)
            print(json.dumps(info))
            print(f"{name}: correct={result['correct']} fail_ratio={info['fail_ratio']:.6g} "
                  + " ".join(f"{k}={m['value']:.6g} {m['unit']}"
                             for k, m in result["metrics"].items()
                             if not args.trace or k == "trace.overhead_ratio"))
            results[name] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
