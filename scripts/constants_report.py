#!/usr/bin/env python3
"""Print the schedule-constants report for a benchmark plant.

Theory mode carries the conservative constants in log10 (they overflow
doubles); practical mode shows the desk-scale values actually used in
simulation.
"""

import argparse

from alqr.benchmarks import get_benchmark, perturbed_gain
from alqr.harness import json_dumps
from alqr.lqr import stability_certificate
from alqr.schedules import build_schedule, constants_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--benchmark", default="bench-2x2")
    ap.add_argument("--constants", default="theory",
                    choices=["theory", "practical"])
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--phi", type=float, default=None,
                    help="perturbation-growth exponent (default: phi_bar(delta))")
    ap.add_argument("--tau-star-form", default="proof",
                    choices=["proof", "statement"])
    args = ap.parse_args()

    model = get_benchmark(args.benchmark)
    cert0 = stability_certificate(model, perturbed_gain(model, 0.2, seed=0))
    params = build_schedule(model, cert0=cert0, delta=args.delta, phi=args.phi,
                            constants_mode=args.constants,
                            tau_star_form=args.tau_star_form)
    print(json_dumps(constants_report(params)))


if __name__ == "__main__":
    main()
