"""Command-line entry point for the experiment harness.

Exit codes: 0 success, 2 configuration error (a value outside its field's
domain in ``harness.FIELDS``, or one the schedule set-up finds), 3 any
per-seed runner failure.
The ALQR_LOG environment variable sets the log level (DEBUG/INFO/WARNING).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .exceptions import ConfigurationError, ScheduleError
from .harness import FIELDS, ExperimentConfig, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="alqr",
        description="Adaptive SDP-based LQ control experiment harness.",
    )
    p.add_argument("--config", metavar="PATH", help="JSON experiment config")
    for name in ("mode", "criterion", "constants"):
        p.add_argument(f"--{name}", choices=FIELDS[name].domain)
    p.add_argument("--T", type=int, metavar="N")
    p.add_argument("--seeds", metavar="a..b", help="seed range a..b or comma list")
    p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    p.add_argument("--benchmark", metavar="NAME",
                   help=f"named plant ({', '.join(FIELDS['benchmark'].domain)})")
    p.add_argument("--beta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--workers", type=int)
    return p


def config_from_args(args) -> ExperimentConfig:
    """The config file's fields (or the defaults) with each given flag on top;
    every flag but --config has its config field as its destination, and a
    flag given as an empty string counts as not given."""
    config = load_config(args.config) if args.config else ExperimentConfig()
    given = {k: v for k, v in vars(args).items()
             if k != "config" and v is not None and v != ""}
    if "benchmark" in given:
        given["model"] = None  # a named plant replaces the file's matrices
    return ExperimentConfig(**{**config.to_dict(), **given})


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("ALQR_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        report = run_experiment(config)
    except (ConfigurationError, ScheduleError) as exc:
        # per-seed errors never escape run_experiment: these are set-up errors
        field = getattr(exc, "field", None)
        where = f" ({field})" if field else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 2
    agg = report.aggregate
    print(f"seeds ok: {agg.get('seed_count', 0)}  failed: {len(report.errors)}")
    for key in ("final_regret_mean", "regret_slope", "est_error_slope",
                "coverage_frequency", "epochs_mean"):
        if key in agg:
            print(f"{key}: {agg[key]:.6g}")
    for err in report.errors:
        print(f"seed {err['seed']} failed: {err['error']}", file=sys.stderr)
    if config.out_dir:
        print(f"outputs in {config.out_dir}")
    return 3 if report.errors else 0


if __name__ == "__main__":
    sys.exit(main())
