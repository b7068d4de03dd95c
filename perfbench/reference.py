"""Reference sampler cost: ms per sweep at p = 10, 20, 40 and 80.

    python3 perfbench/reference.py [--seed 1]

For each p, generates a two-class model with p edges (two thirds
conserved) and n = 80 + 80 rows with the benchmark's generator, and
times ``run_chain`` under the default chain settings for a fixed number
of sweeps. These are reference figures for README.md, not a workload:
at p = 80 a sweep costs seconds.
"""

import argparse
import sys
import time

import run  # sets the BLAS thread count before numpy is imported

SWEEPS = {10: 400, 20: 100, 40: 20, 80: 4}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        run.import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import bggm from {run.SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import inputs
    from bggm.model import Dataset, center_mean_prior, default_hyperparameters
    from bggm.sampler import ChainConfig, run_chain

    for p, sweeps in SWEEPS.items():
        rng = np.random.default_rng([args.seed, p])
        truth = inputs.two_class_model(rng, p, 2 * p // 3, p - 2 * p // 3, (0.4, 0.7), 0.5)
        y, labels = inputs.sample_rows(rng, truth, (80, 80))
        d = Dataset(y, np.array([1 if lab == inputs.CLASS_NAMES[0] else 2 for lab in labels]),
                    truth.names)
        h = center_mean_prior(default_hyperparameters(p), d)
        cfg = ChainConfig(iterations=sweeps, burn_in=sweeps // 2, seed=args.seed)
        t0 = time.perf_counter()
        samples = run_chain(d, h, cfg)
        ms = 1e3 * (time.perf_counter() - t0) / sweeps
        print(f"p={p:3d}  {ms:9.2f} ms/sweep  ({sweeps} sweeps, "
              f"edge acceptance {samples.acceptance['edge']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
