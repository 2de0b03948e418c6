#!/usr/bin/env python3
"""Print the schedule-constants report for a benchmark plant.

Theory mode carries the conservative constants in log10 (they overflow
doubles); practical mode shows the desk-scale values actually used in
simulation.  The schedule is the one the harness builds for the same config.
"""

import argparse

from alqr.harness import FIELDS, ExperimentConfig, json_dumps, shared_setup
from alqr.schedules import constants_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--benchmark", default="bench-2x2")
    ap.add_argument("--constants", default="theory", choices=FIELDS["constants"].domain)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--phi", type=float, default=None,
                    help="perturbation-growth exponent (default: phi_bar(delta))")
    ap.add_argument("--tau-star-form", default="proof", choices=FIELDS["tau_star_form"].domain)
    args = ap.parse_args()

    config = ExperimentConfig(benchmark=args.benchmark, constants=args.constants,
                              delta=args.delta, phi=args.phi,
                              tau_star_form=args.tau_star_form)
    print(json_dumps(constants_report(shared_setup(config).params)))


if __name__ == "__main__":
    main()
