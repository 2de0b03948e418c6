#!/usr/bin/env python3
"""The numbers a run reports, per small config, against a committed reference.

    python3 scripts/science_check.py                      # print the table
    python3 scripts/science_check.py --out SCIENCE.json   # write it
    python3 scripts/science_check.py --check SCIENCE.json # exit 1 if it moved

Byte digests (``output_digests.py``) cannot tell a last-bit change from a
change in what a run finds.  This table holds, for each of their configs,
the aggregate and, per seed, final regret, epochs, synthesis failures,
max |x|, gap violations, T0 and the warm-up's theta0 error.  ``--check``
compares integers exactly and floats to a relative ``REL_TOL``, so a
declared last-bits change keeps the reference and a change that means to
move the science rewrites it.  A few seconds on a 2-vCPU host.
"""

import argparse
import json
import math
import sys

from output_digests import CONFIGS

from alqr.harness import ExperimentConfig, run_experiment

REL_TOL = 1e-6
PER_SEED = ("final_cum_regret", "epochs", "synthesis_failures", "max_x_norm",
            "gap_violations", "T0", "theta0_error")


def table() -> dict:
    """Each config's aggregate and per-seed summary numbers; no files written."""
    out = {}
    for name, kw in CONFIGS.items():
        report = run_experiment(ExperimentConfig(**kw))
        if report.errors:
            raise SystemExit(f"{name}: {report.errors}")
        out[name] = {
            "aggregate": report.aggregate,
            "per_seed": {str(s["seed"]): {k: s[k] for k in PER_SEED if k in s}
                         for s in report.per_seed},
        }
    return out


def mismatches(ref, got, path="") -> list:
    """Where ``got`` departs from ``ref``: keys and lengths must match,
    integers exactly and floats within ``REL_TOL`` (nan equals nan)."""
    if isinstance(ref, dict) and isinstance(got, dict):
        out = [f"{path}/{k}: only in the reference" for k in sorted(set(ref) - set(got))]
        out += [f"{path}/{k}: not in the reference" for k in sorted(set(got) - set(ref))]
        for k in sorted(set(ref) & set(got)):
            out += mismatches(ref[k], got[k], f"{path}/{k}")
        return out
    if isinstance(ref, list) and isinstance(got, list) and len(ref) == len(got):
        return [m for i, (a, b) in enumerate(zip(ref, got))
                for m in mismatches(a, b, f"{path}/{i}")]
    numbers = all(isinstance(v, (int, float)) for v in (ref, got))
    if numbers and not any(isinstance(v, (bool, int)) for v in (ref, got)):
        same = math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=0.0) or (
            math.isnan(ref) and math.isnan(got))
    else:  # integers, flags, strings and shapes: exactly
        same = type(ref) is type(got) and ref == got
    return [] if same else [f"{path}: {ref!r} -> {got!r}"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the table to this file")
    ap.add_argument("--check", help="compare the table with this reference")
    args = ap.parse_args()
    text = json.dumps(table(), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.check:
        with open(args.check) as fh:
            moved = mismatches(json.load(fh), json.loads(text))
        for line in moved:
            print(line, file=sys.stderr)
        sys.exit(1 if moved else 0)
    if not args.out:
        print(text, end="")


if __name__ == "__main__":
    main()
