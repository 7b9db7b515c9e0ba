"""Three-component correlated source models.

A source is a joint law over axes S1, S2, S3.  The two parametric families
used throughout are binary zero-sum triples: the additive triple, where the
third component is the mod-2 sum of two independent Bernoulli components,
and the sigma-gamma triple, where S2 = S1 xor S3 with S1 ~ Ber(sigma)
independent of S3 ~ Ber(gamma).
"""

from __future__ import annotations

import numpy as np

from .probcore import JointPMF, marginalize, sample_cells
from .rng import stream

__all__ = [
    "SourceModel",
    "make_additive_triple",
    "make_sigma_gamma_triple",
    "sample_iid",
    "source_to_json",
]

AXIS_NAMES = ("S1", "S2", "S3")


class SourceModel:
    """Joint law of (S1, S2, S3) plus sampling support."""

    def __init__(self, joint: JointPMF, family: str = "generic", params: dict | None = None):
        if joint.names != AXIS_NAMES:
            raise ValueError(f"source axes must be {AXIS_NAMES}, got {joint.names}")
        self.joint = joint
        self.family = family
        self.params = dict(params or {})

    @property
    def sizes(self) -> tuple[int, int, int]:
        return self.joint.shape

    def support(self) -> np.ndarray:
        """Array of shape (m, 3) listing the positive-probability triples."""
        return np.argwhere(self.joint.probs > 0.0)

    def support_probs(self) -> np.ndarray:
        return self.joint.probs[self.joint.probs > 0.0]

    def marginal(self, name: str) -> np.ndarray:
        return marginalize(self.joint, name).probs


def make_additive_triple(p1: float, p2: float) -> SourceModel:
    """S1 ~ Ber(p1) independent of S2 ~ Ber(p2), and S3 = S1 xor S2."""
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValueError("p1, p2 must lie in [0, 1]")
    probs = np.zeros((2, 2, 2))
    for s1 in (0, 1):
        for s2 in (0, 1):
            w1 = p1 if s1 else 1.0 - p1
            w2 = p2 if s2 else 1.0 - p2
            probs[s1, s2, s1 ^ s2] = w1 * w2
    joint = JointPMF(list(zip(AXIS_NAMES, (2, 2, 2))), probs)
    return SourceModel(joint, "additive", {"p1": p1, "p2": p2})


def make_sigma_gamma_triple(sigma: float, gamma: float) -> SourceModel:
    """S1 ~ Ber(sigma) independent of S3 ~ Ber(gamma), and S2 = S1 xor S3.

    sigma and gamma are restricted to [0, 1/2].
    """
    if not (0.0 <= sigma <= 0.5 and 0.0 <= gamma <= 0.5):
        raise ValueError("sigma, gamma must lie in [0, 1/2]")
    probs = np.zeros((2, 2, 2))
    for s1 in (0, 1):
        for s3 in (0, 1):
            w1 = sigma if s1 else 1.0 - sigma
            w3 = gamma if s3 else 1.0 - gamma
            probs[s1, s1 ^ s3, s3] = w1 * w3
    joint = JointPMF(list(zip(AXIS_NAMES, (2, 2, 2))), probs)
    return SourceModel(joint, "sigma_gamma", {"sigma": sigma, "gamma": gamma})


def sample_iid(model: SourceModel, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n iid triples, drawn by sample_cells from stream(seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sample_cells(model.joint, n, stream(seed))


def source_to_json(model: SourceModel) -> dict:
    if model.family == "additive":
        return {"family": "additive", "p1": model.params["p1"], "p2": model.params["p2"]}
    if model.family == "sigma_gamma":
        return {
            "family": "sigma_gamma",
            "sigma": model.params["sigma"],
            "gamma": model.params["gamma"],
        }
    return {"family": "generic", "joint": model.joint.to_json()}
