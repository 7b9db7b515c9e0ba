"""Sweep the sigma-zero frontier and verify the example conditions hold
strictly inside it.

For each gamma below gamma* the frontier reports the largest sigma the
example construction supports, with the bias level alpha that attains it.
At gamma* the admissible alpha interval collapses and sigma0 hits zero.
"""

import numpy as np

from trimac import gamma_star, sigma0_frontier_points
from trimac.regions import example_conditions

DELTA = 0.25


def main() -> None:
    gstar = gamma_star(DELTA)
    print(f"delta = {DELTA}, gamma* = {gstar:.8f}\n")
    print(f"{'gamma':>10} {'sigma0':>10} {'alpha':>10}  interior check")
    for point in sigma0_frontier_points(np.linspace(0.0, gstar, 12).tolist(), DELTA):
        if point.sigma0 > 0.0:
            ok = example_conditions(point.sigma0 / 2, point.gamma, DELTA, point.alpha).satisfied
            note = "satisfied at sigma0/2" if ok else "VIOLATED"
        else:
            note = "boundary: sigma0 = 0"
        print(f"{point.gamma:10.6f} {point.sigma0:10.6f} {point.alpha:10.6f}  {note}")


if __name__ == "__main__":
    main()
