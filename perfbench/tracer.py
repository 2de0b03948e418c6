"""Per-layer tracing by wrapping the package's public functions.

Nothing inside the package changes: ``Tracer.installed()`` swaps each public
function of the layer modules for a timing wrapper wherever an ``alqr``
module holds a reference to it, and restores the originals on exit.

Every wrapped call adds to a per-(name, parent) counter of calls, total and
self time, where the parent is the innermost wrapped caller.  Only the
functions in ``SPANS`` (seed, epoch, solve and emit boundaries) also keep a
span record; per-step functions would pay too much for one each.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("lqr", "sdp", "synthesis", "estimation", "schedules", "linalg",
          "loops", "regret", "harness")

SPANS = frozenset({
    "harness.run_experiment", "harness.run_seed", "harness.emit",
    "loops.run_aslo", "loops.run_warmup", "loops.run_fixed_policy",
    "synthesis.synthesize_policy", "sdp.solve_sdp",
})

# linalg's helpers run inside the SDP solver's inner loops; only logdet_pd is
# traced, and only where the runners in loops call it.
LINALG_AS_LOOPS_CALLS = ("logdet_pd",)

RUNNERS = ("loops.run_aslo", "loops.run_warmup", "loops.run_fixed_policy")


def _observe_solution(tracer, sol):
    tracer.counts["sdp.solve_sdp.newton_steps"] += sol.newton_steps
    tracer.counts["sdp.solve_sdp.not_optimal"] += not sol.ok


def _observe_update(tracer, fired):
    tracer.counts["schedules.should_update.fired"] += bool(fired)


def _observe_emit(tracer, path):
    tracer.counts["harness.emit.bytes"] += os.path.getsize(path)


def _runner_steps(name, pick):
    def observe(tracer, result):
        tracer.counts[f"{name}.steps"] += pick(result)
    return observe


OBSERVERS = {
    "sdp.solve_sdp": _observe_solution,
    "schedules.should_update": _observe_update,
    "harness.emit": _observe_emit,
    "loops.run_aslo": _runner_steps("loops.run_aslo", lambda r: r[0].T),
    "loops.run_warmup": _runner_steps("loops.run_warmup", lambda r: r[1].T),
    "loops.run_fixed_policy": _runner_steps("loops.run_fixed_policy", lambda r: len(r[0])),
}


def targets():
    """(name, owner, attribute, function) for every traced function."""
    out = []
    for layer in LAYERS:
        if layer == "linalg":
            continue
        mod = importlib.import_module(f"alqr.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    regret = importlib.import_module("alqr.regret")
    out.append(("regret.RegretLedger.accumulate", regret.RegretLedger, "accumulate",
                regret.RegretLedger.accumulate))
    loops = importlib.import_module("alqr.loops")
    for attr in LINALG_AS_LOOPS_CALLS:
        out.append((f"linalg.{attr}", loops, attr, getattr(loops, attr)))
    return out


class Tracer:
    """Counters and spans of wrapped calls, kept in memory."""

    def __init__(self):
        self.stats = {}                   # (name, parent) -> [calls, total, self, raised]
        self.spans = []                   # (id, parent id, repeat, name, start, end)
        self.counts = defaultdict(float)  # facts read from returned values
        self.repeat = 0
        self._stack = []                  # [name, child seconds, span id]

    def wrap(self, name, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        observe = OBSERVERS.get(name)
        span = name in SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(self.spans) if span else (parent[2] if parent else None)
            if span:
                self.spans.append(None)   # reserve the id in call order
            frame = [name, 0.0, span_id]
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent else None)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                st[3] += raised
                if span:
                    self.spans[span_id] = (span_id, parent[2] if parent else None,
                                           self.repeat, name, t0, t1)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every ``alqr`` module that references it."""
        saved = []
        try:
            for name, owner, attr, fn in targets():
                wrapped = self.wrap(name, fn)
                if inspect.isclass(owner) or name.startswith("linalg."):
                    holders = [(owner, attr)]
                else:
                    holders = [(mod, key) for mod in _alqr_modules()
                               for key, val in vars(mod).items() if val is fn]
                for holder, key in holders:
                    saved.append((holder, key, getattr(holder, key)))
                    setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, original in reversed(saved):
                setattr(holder, key, original)

    def totals(self):
        """name -> {calls, total, self, raised}, summed over parents."""
        out = {}
        for (name, _), (calls, total, own, raised) in self.stats.items():
            t = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "raised": 0})
            t["calls"] += calls
            t["total"] += total
            t["self"] += own
            t["raised"] += raised
        return out

    def span_seconds(self, name):
        return [s[5] - s[4] for s in self.spans if s is not None and s[3] == name]


def _alqr_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "alqr" or key.startswith("alqr."))]


def layer_metrics(tracer: Tracer, repeats: int, wall: float, setup: Tracer) -> dict:
    """The per-layer metrics of a traced run of ``repeats`` repeats taking
    ``wall`` seconds; ``setup`` traced one set-up of the workload.

    Counts are per repeat, times are means per call, shares are of ``wall``,
    and a function that was never called reads 0.
    """
    tot, counts = tracer.totals(), tracer.counts
    zero = {"calls": 0, "total": 0.0, "self": 0.0, "raised": 0}

    def calls(name):
        return tot.get(name, zero)["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name, scale, totals=tot):
        t = totals.get(name, zero)
        return ratio(t["total"] * scale, t["calls"])

    seed_s = tracer.span_seconds("harness.run_seed")
    m = {
        "sdp.solve_sdp.calls": calls("sdp.solve_sdp") / repeats,
        "sdp.solve_sdp.ms_per_call": per_call("sdp.solve_sdp", 1e3),
        "sdp.solve_sdp.newton_steps_per_call":
            ratio(counts["sdp.solve_sdp.newton_steps"], calls("sdp.solve_sdp")),
        "sdp.solve_sdp.not_optimal": counts["sdp.solve_sdp.not_optimal"] / repeats,
        "sdp.solve_sdp.self_share": tot.get("sdp.solve_sdp", zero)["self"] / wall,
        "synthesis.synthesize_policy.calls": calls("synthesis.synthesize_policy") / repeats,
        "synthesis.synthesize_policy.ms_per_call": per_call("synthesis.synthesize_policy", 1e3),
        "synthesis.synthesize_policy.failed":
            tot.get("synthesis.synthesize_policy", zero)["raised"] / repeats,
        "synthesis.solve_relaxed_primal.ms_per_call":
            per_call("synthesis.solve_relaxed_primal", 1e3),
        "synthesis.solve_relaxed_dual.ms_per_call":
            per_call("synthesis.solve_relaxed_dual", 1e3),
        "lqr.solve_dare.calls": calls("lqr.solve_dare") / repeats,
        "lqr.solve_dare.us_per_call": per_call("lqr.solve_dare", 1e6),
        "lqr.step.us_per_call": per_call("lqr.step", 1e6),
        "estimation.ingest.calls": calls("estimation.ingest") / repeats,
        "estimation.ingest.us_per_call": per_call("estimation.ingest", 1e6),
        "estimation.ellipsoid.us_per_call": per_call("estimation.ellipsoid", 1e6),
        "schedules.should_update.calls": calls("schedules.should_update") / repeats,
        "schedules.should_update.fired_ratio":
            ratio(counts["schedules.should_update.fired"], calls("schedules.should_update")),
        "schedules.anynum_condition.us_per_call": per_call("schedules.anynum_condition", 1e6),
        "schedules.build_schedule.ms":
            per_call("schedules.build_schedule", 1e3, setup.totals()),
        "linalg.logdet_pd.us_per_call": per_call("linalg.logdet_pd", 1e6),
        "loops.sample_perturbation.us_per_call": per_call("loops.sample_perturbation", 1e6),
        "regret.RegretLedger.accumulate.us_per_call":
            per_call("regret.RegretLedger.accumulate", 1e6),
        "harness.run_seed.s_p50": statistics.median(seed_s) if seed_s else 0.0,
        "harness.run_seed.s_max": max(seed_s, default=0.0),
        "harness.emit.ms_per_call": per_call("harness.emit", 1e3),
        "harness.emit.bytes": counts["harness.emit.bytes"] / repeats,
        "harness.trajectory_rows.ms_per_call": per_call("harness.trajectory_rows", 1e3),
    }
    for runner in RUNNERS:
        m[f"{runner}.self_us_per_step"] = ratio(
            tot.get(runner, zero)["self"] * 1e6, counts[f"{runner}.steps"])
    for layer in LAYERS:
        m[f"{layer}.self_share"] = sum(
            t["self"] for name, t in tot.items() if name.startswith(layer + ".")) / wall
    return m


def top_self(tracer: Tracer) -> list:
    """The five traced functions with the most self time, with seconds."""
    tot = tracer.totals()
    ranked = sorted(tot, key=lambda n: tot[n]["self"], reverse=True)[:5]
    return [[name, tot[name]["self"]] for name in ranked]
