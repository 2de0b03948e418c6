#!/usr/bin/env python3
"""One sha256 per small config over its emitted CSVs and aggregate.json.

Run it before and after a change that must keep every output byte: equal
lines mean equal bytes for that config.  Each config writes into a fresh
temporary directory under the same relative path, so the digests do not
depend on where the checkout lives (aggregate.json records ``out_dir``).
A few seconds on a 2-vCPU host.
"""

import hashlib
import os
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


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, kw in CONFIGS.items():
            out_dir = Path("out", name)
            report = run_experiment(ExperimentConfig(out_dir=str(out_dir), **kw))
            if report.errors:
                raise SystemExit(f"{name}: {report.errors}")
            print(f"{name} {digest(out_dir)}")


if __name__ == "__main__":
    main()
