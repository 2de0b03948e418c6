#!/usr/bin/env python3
"""Flagship regret experiment: configs/bench2x2_regret.json (ASLO on
bench-2x2 with det2, 20 seeds, T = 1e4).

Runs the config file, with --T, --seeds, --criterion and --out on top of its
values and checkpoints at T/10 and T.  Writes per-seed CSVs plus
aggregate.json and prints the headline numbers (regret slope,
estimation-error slope, coverage).  About 2-3 s on a 2-vCPU host (2.1-2.7 s
over three runs).
"""

import argparse
from pathlib import Path

from alqr.harness import FIELDS, ExperimentConfig, load_config, run_experiment

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "bench2x2_regret.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="output directory (default: the file's out_dir)")
    ap.add_argument("--T", type=int)
    ap.add_argument("--seeds", type=int, help="run seeds 0..N-1")
    ap.add_argument("--criterion", choices=FIELDS["criterion"].domain)
    args = ap.parse_args()

    given = {"out_dir": args.out, "T": args.T, "criterion": args.criterion,
             "seeds": None if args.seeds is None else list(range(args.seeds))}
    fields = load_config(CONFIG).to_dict()
    fields.update((k, v) for k, v in given.items() if v is not None)
    fields["checkpoints"] = [fields["T"] // 10, fields["T"]]
    config = ExperimentConfig(**fields)
    report = run_experiment(config)
    agg = report.aggregate
    print(f"seeds: {agg['seed_count']}  failures: {len(report.errors)}")
    for key in ("final_regret_mean", "final_regret_std", "regret_slope",
                "est_error_slope", "coverage_frequency", "epochs_mean",
                "bound_violations_total"):
        if key in agg:
            print(f"{key}: {agg[key]:.6g}")
    print(f"outputs in {config.out_dir}")


if __name__ == "__main__":
    main()
