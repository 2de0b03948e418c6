#!/usr/bin/env python3
"""Flagship regret experiment: ASLO on bench-2x2, 20 seeds, T = 1e4.

Writes per-seed CSVs plus aggregate.json and prints the headline numbers
(regret slope, estimation-error slope, coverage).  About 8 s on a 2-vCPU host.
"""

import argparse

from alqr.harness import ExperimentConfig, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/bench2x2_regret")
    ap.add_argument("--T", type=int, default=10_000)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--criterion", default="det2",
                    choices=["det2", "fixed-beta", "adaptive", "relaxed-seq"])
    args = ap.parse_args()

    config = ExperimentConfig(
        benchmark="bench-2x2",
        mode="aslo",
        criterion=args.criterion,
        T=args.T,
        seeds=list(range(args.seeds)),
        checkpoints=[args.T // 10, args.T],
        out_dir=args.out,
    )
    report = run_experiment(config)
    agg = report.aggregate
    print(f"seeds: {agg['seed_count']}  failures: {len(report.errors)}")
    for key in ("final_regret_mean", "final_regret_std", "regret_slope",
                "est_error_slope", "coverage_frequency", "epochs_mean",
                "bound_violations_total"):
        if key in agg:
            print(f"{key}: {agg[key]:.6g}")
    print(f"outputs in {args.out}")


if __name__ == "__main__":
    main()
