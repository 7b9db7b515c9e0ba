"""Test fixtures and oracles for the region evaluators that the program itself does not use."""

import numpy as np

from trimac.probcore import ConditionalPMF, JointPMF, chain, deterministic_conditional
from trimac.regions import PAIRS, USER_PAIRS, W_SUBSETS, CESDist, HybridDist, _subset_tag


def _shared_rows() -> tuple[tuple[str, str], ...]:
    pairs = [(f"solo-{i}", f"solo-{i}") for i in (1, 2, 3)]
    pairs += [(f"pair-{b}-wgroup-none", f"pair-{b}") for b in PAIRS]
    pairs += [(f"pair-{b}-wgroup-{b}", f"pair-{b}-wpair") for b in PAIRS]
    pairs.append(("sum-lin-00-unconditioned", "sum"))
    pairs += [
        (f"joint-wgroup-{_subset_tag(s)}-lin-00-unconditioned", f"joint-wgroup-{_subset_tag(s)}")
        for s in W_SUBSETS
    ]
    return tuple(pairs)


# (hybrid id, layered id) rows that coincide whenever X_i is independent of V_i
HYBRID_CES3_SHARED = _shared_rows()


def lift_ces_to_hybrid(dist: CESDist, q: int = 2) -> HybridDist:
    """Embed a layered spec by giving every input a vacuous V axis."""
    x_conds = []
    for i in (1, 2, 3):
        t = dist.x_conds[i - 1].table
        lifted = np.broadcast_to(t[:, :, :, :, None, :], t.shape[:4] + (q, t.shape[-1])).copy()
        ba, bb = USER_PAIRS[i]
        x_conds.append(ConditionalPMF(
            [(f"S{i}", t.shape[0]), ("U123", t.shape[1]), ("U" + ba, t.shape[2]),
             ("U" + bb, t.shape[3]), (f"V{i}", q)],
            [(f"X{i}", t.shape[-1])],
            lifted,
        ))
    return HybridDist(q, dist.u123, dist.pair_conds, tuple(x_conds))


def structured_pair_joint(p00: float, p01: float) -> JointPMF:
    """Member of the structured family: X3 = X1 xor X2 a.s. with X3 uniform."""
    for v in (p00, p01):
        if not 0.0 <= v <= 0.5:
            raise ValueError("cell masses must lie in [0, 1/2]")
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = p00
    probs[1, 1, 0] = 0.5 - p00
    probs[0, 1, 1] = p01
    probs[1, 0, 1] = 0.5 - p01
    return JointPMF([("X1", 2), ("X2", 2), ("X3", 2)], probs)


def add_derived_axis(p: JointPMF, name: str, size: int, fn) -> JointPMF:
    """p with the axis (name, size) = fn(p's axes) appended (fn as in push_forward)."""
    return chain(p, deterministic_conditional(p.axes, [(name, size)], fn))
