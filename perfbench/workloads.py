"""The three benchmark workloads: seeded `trimac` command lists.

Every input the program sees (biases, `--seed` values, hybrid points,
rates) is drawn here from the benchmark's own seed; block lengths, trial
counts and grid sizes are fixed so that a run's cost does not depend on
the seed.  Each step carries the role it plays in the end-to-end metrics:

* ``head``  - the workload's main commands, the ones its ROADMAP item aims at;
* ``sweep`` - the repeated unit of work, reported as units per second;
* ``rest``  - every other command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Step:
    name: str  # unique within the workload; names the output directory
    argv: tuple[str, ...]
    role: str  # "head", "sweep" or "rest"
    units: int = 0  # sweep units this step completes


def _f(x: float) -> str:
    return f"{x:.6f}"


def _single_letter(rng: random.Random, workers: int) -> list[Step]:
    steps = [Step("region-macfb", ("region", "--family", "macfb",
                                   "--seed", str(rng.randrange(10**6))), "head")]
    for i in range(20):
        sigma, gamma, alpha = rng.uniform(0, 0.5), rng.uniform(0, 0.5), rng.uniform(0, 1)
        steps.append(Step(f"region-hybrid-{i:02d}", (
            "region", "--family", "hybrid", "--sigma", _f(sigma), "--gamma", _f(gamma),
            "--alpha", _f(alpha)), "sweep", units=1))
    p1, p2 = rng.uniform(0.02, 0.48), rng.uniform(0.02, 0.48)
    sigma, gamma = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
    r1, r2 = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
    steps += [
        Step("region-ces2", ("region", "--family", "ces2", "--seed", str(rng.randrange(10**6))),
             "rest"),
        Step("region-cl2", ("region", "--family", "cl2", "--r1", _f(r1), "--r2", _f(r2)), "rest"),
        Step("common-parts-additive", ("common-parts", "--source", "additive",
                                       "--p1", _f(p1), "--p2", _f(p2)), "rest"),
        Step("common-parts-sigma-gamma", ("common-parts", "--source", "sigma-gamma",
                                          "--sigma", _f(sigma), "--gamma", _f(gamma)), "rest"),
        Step("verify-lemmas", ("verify-lemmas", "--q", "2", "--k", "4", "--n", "4"), "rest"),
    ]
    return steps


def _product_search(rng: random.Random, workers: int) -> list[Step]:
    sigma, gamma = rng.uniform(0.01, 0.49), rng.uniform(0.01, 0.49)
    return [
        Step("region-ces3-full", ("region", "--family", "ces3", "--search", "full",
                                  "--sigma", _f(sigma), "--gamma", _f(gamma)), "head"),
        Step("frontier", ("frontier", "--delta", "0.25", "--gamma-steps", "50"), "sweep",
             units=50),
        Step("structure-input-law", ("structure-measure", "--target", "input-law",
                                     "--count", "200", "--seed", str(rng.randrange(10**6))),
             "rest"),
    ]


def _blocklength_sim(rng: random.Random, workers: int) -> list[Step]:
    # The additive source: the default sigma-gamma source is not a product
    # law on (S1, S2), which the default additive-pair decoder requires.
    p = _f(rng.uniform(0.02, 0.2))
    mac = ("simulate-mac", "--source", "additive", "--p1", p, "--p2", p,
           "--workers", str(workers))
    blocks = 6001
    return [
        Step("mac-linear", mac + ("--n-list", "12,16", "--trials", "60",
                                  "--seed", str(rng.randrange(10**6))), "head"),
        Step("mac-generic", mac + ("--channel", "quaternary", "--n-list", "8", "--trials", "40",
                                   "--seed", str(rng.randrange(10**6))), "rest"),
        Step("mac-unstructured", mac + ("--scheme", "unstructured", "--n-list", "6",
                                        "--trials", "40", "--seed", str(rng.randrange(10**6))),
             "rest"),
        # units: feedback blocks plus the matched ptp trials (blocks - 1)
        Step("macfb", ("simulate-macfb", "--k", "10", "--n", "24", "--blocks", str(blocks),
                       "--delta", "0.1", "--with-ptp", "--seed", str(rng.randrange(10**6))),
             "sweep", units=2 * blocks - 1),
        Step("codebook-probe", ("structure-measure", "--target", "codebooks", "--k", "10",
                                "--n", "20", "--trials", "1000",
                                "--seed", str(rng.randrange(10**6))), "head"),
    ]


WORKLOADS = {
    "single-letter": _single_letter,
    "product-search": _product_search,
    "blocklength-sim": _blocklength_sim,
}


def build(workload: str, seed: int, workers: int) -> list[Step]:
    """The workload's commands for this seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workers)
