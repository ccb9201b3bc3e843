"""Solve the balance system for random strength vectors and tabulate the
conserved-identity residuals.

Example:
    python scripts/identity_sweep.py --count 20 --seed 3
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vortexdiagrams import numeric  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    header = f"{'strengths':<44} {'lam':>4} {'residual':>10} {'moments':>10} {'angular':>10}"
    print(header)
    print("-" * len(header))
    done = tries = 0
    while done < args.count and tries < 10 * args.count:
        tries += 1
        gamma = rng.uniform(-3, 3, args.n)
        if np.any(np.abs(gamma) < 0.2):
            continue
        config = None
        for lam in (1.0, -1.0):
            try:
                config = numeric.solve(gamma, lam, seed=tries, attempts=10)
                break
            except numeric.NoConvergenceError:
                continue
        if config is None:
            continue
        done += 1
        report = numeric.check_identities(config)
        gtxt = ",".join(f"{g:+.2f}" for g in gamma)
        print(
            f"{gtxt:<44} {config.lam.real:+.0f} {numeric.residual(config):10.2e} "
            f"{max(report.moment_z, report.moment_w):10.2e} {report.angular:10.2e}"
        )
    print(f"{done} solves out of {tries} strength draws")
    return 0 if done == args.count else 1


if __name__ == "__main__":
    sys.exit(main())
