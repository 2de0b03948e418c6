#!/usr/bin/env python3
"""Update-criterion comparison on matched seeds (common random numbers).

Runs det-doubling, a fixed beta, and the adaptive beta rule side by side
through the harness and prints per-seed update counts and cumulative regret.
Adaptive beta is below 1e-16 on bench-2x2 (tau from 2 to 1e5), so it updates
every step: keep T small unless you have time to burn.
"""

import argparse
import sys

from alqr.harness import ExperimentConfig, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--benchmark", default="bench-2x2")
    ap.add_argument("--T", type=int, default=500)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--beta", type=float, default=3.0)
    args = ap.parse_args()

    variants = {
        "det2": {"criterion": "det2"},
        f"fixed-beta({args.beta})": {"criterion": "fixed-beta", "beta": args.beta},
        "adaptive": {"criterion": "adaptive"},
    }
    reports = {name: run_experiment(ExperimentConfig(
        benchmark=args.benchmark, T=args.T, seeds=list(range(args.seeds)), **kw))
        for name, kw in variants.items()}
    errors = [f"{name} seed {e['seed']} failed: {e['error']}"
              for name, report in reports.items() for e in report.errors]
    if errors:
        sys.exit("\n".join(errors))
    print(f"{'seed':>4}  {'criterion':>18}  {'updates':>7}  {'regret':>10}")
    for seed in range(args.seeds):
        for name, report in reports.items():
            s = report.per_seed[seed]
            print(f"{seed:>4}  {name:>18}  {s['n_updates']:>7}  "
                  f"{s['final_cum_regret']:>10.1f}")


if __name__ == "__main__":
    main()
