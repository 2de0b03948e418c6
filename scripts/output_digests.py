#!/usr/bin/env python3
"""One run of each small reference config: a sha256 of its output bytes,
and the numbers it reports against a committed reference.

    python3 scripts/output_digests.py                       # one digest per config
    python3 scripts/output_digests.py --check SCIENCE.json  # and exit 1 if a number moved
    python3 scripts/output_digests.py --out SCIENCE.json    # and write the number table

Each line is a config's name and one sha256 over its emitted CSVs and
aggregate.json.  Run it before and after a change that must keep every
output byte: equal lines mean equal bytes for that config.  Each config
writes into a fresh temporary directory under the same relative path, so
the digests do not depend on where the checkout lives (aggregate.json
records ``out_dir``).

Byte digests cannot tell a last-bit change from a change in what a run
finds.  The same runs' reports also give, for each config, the aggregate
and, per seed, final regret, epochs, synthesis failures, max |x|, gap
violations, T0 and the warm-up's theta0 error.  ``--check`` compares that
table with a reference, integers exactly and floats to a relative
``REL_TOL``, and names each moved key on stderr; so a declared last-bits
change keeps the reference and a change that means to move the science
rewrites it with ``--out``.  About 1.5 s on a 2-vCPU host.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from alqr.harness import ExperimentConfig, run_experiment

ASLO = dict(benchmark="bench-2x2", mode="aslo", T=1500, seeds=[0, 1],
            checkpoints=[300, 1500])
DOUBLING = dict(benchmark="bench-2x2", mode="doubling", T=1500, seeds=[0, 1])
# a stable chain of four states driven through the last by one input: the
# largest state dimension (n + m <= 5) and the one-input shape
CHAIN_4X1 = dict(A=[[0.5, 0.3, 0.0, 0.0], [0.0, 0.5, 0.3, 0.0],
                    [0.0, 0.0, 0.5, 0.3], [0.0, 0.0, 0.0, 0.5]],
                 B=[[0.0], [0.0], [0.0], [1.0]],
                 Q=[[float(i == j) for j in range(4)] for i in range(4)], R=[[1.0]])
CONFIGS = {
    "aslo-det2": dict(ASLO, criterion="det2"),
    "aslo-adaptive": dict(ASLO, criterion="adaptive", T=120, checkpoints=[60, 120]),
    "aslo-relaxed-seq": dict(ASLO, criterion="relaxed-seq", chi=0.1),
    "doubling-det2": dict(DOUBLING, criterion="det2"),
    "doubling-relaxed-seq": dict(DOUBLING, criterion="relaxed-seq", chi=0.1),
    "full-3x2": dict(benchmark="bench-3x2", mode="full", T0=2000, T=1000, seeds=[0, 1],
                     checkpoints=[1000]),
    "warmup-scalar": dict(benchmark="scalar-golden", mode="warmup", T0=800, seeds=[0, 1]),
    "aslo-unanchored-paper-mu": dict(ASLO, radius_variant="unanchored", mu_mode="paper"),
    "aslo-no-mu-clamp": dict(ASLO, criterion="det2", T=300, seeds=[0, 1], checkpoints=[300],
                             mu_clamp=False),
    "aslo-det2-pool": dict(ASLO, criterion="det2", workers=2),
    "aslo-4x1": dict(ASLO, benchmark=None, model=CHAIN_4X1, criterion="det2"),
}
REL_TOL = 1e-6
PER_SEED = ("final_cum_regret", "epochs", "synthesis_failures", "max_x_norm",
            "gap_violations", "T0", "theta0_error")


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def science(report) -> dict:
    """A run's aggregate and per-seed summary numbers."""
    return {
        "aggregate": report.aggregate,
        "per_seed": {str(s["seed"]): {k: s[k] for k in PER_SEED if k in s}
                     for s in report.per_seed},
    }


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
    # absolute paths, taken before the chdir below
    ap.add_argument("--out", type=os.path.abspath, help="write the number table to this file")
    ap.add_argument("--check", type=os.path.abspath,
                    help="compare the number table with this reference")
    args = ap.parse_args()
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, kw in CONFIGS.items():
            out_dir = Path("out", name)
            report = run_experiment(ExperimentConfig(out_dir=str(out_dir), **kw))
            if report.errors:
                raise SystemExit(f"{name}: {report.errors}")
            print(f"{name} {digest(out_dir)}")
            table[name] = science(report)
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.check:
        with open(args.check) as fh:
            moved = mismatches(json.load(fh), json.loads(text))
        for line in moved:
            print(line, file=sys.stderr)
        sys.exit(1 if moved else 0)


if __name__ == "__main__":
    main()
