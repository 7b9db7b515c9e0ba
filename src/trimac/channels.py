"""Three-user discrete memoryless channels used throughout the package.

Outputs with several coordinates are carried as a single axis with a fixed
binary encoding, most significant coordinate first: the additive-pair output
(y1, y2) is 2*y1 + y2, the parallel feedback output (y1, y21, y22) is
4*y1 + 2*y21 + y22.  Likewise the per-user input of the parallel feedback
channel is the pair (x_first, x_second) encoded as 2*x_first + x_second.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .probcore import ConditionalPMF, sample_given
from .rng import stream

__all__ = [
    "DMChannel",
    "build_additive_pair_channel",
    "build_quaternary_channel",
    "build_fb_parallel_channel",
    "quaternary_noise_law",
    "transmit",
]

INPUT_NAMES = ("X1", "X2", "X3")


@dataclass(frozen=True)
class DMChannel:
    """Memoryless transition law P(Y | X1, X2, X3) with named input axes."""

    kind: str
    transition: ConditionalPMF
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.transition.given_names != INPUT_NAMES:
            raise ValueError(f"channel inputs must be {INPUT_NAMES}")
        if self.transition.target_names != ("Y",):
            raise ValueError("channel output must be the single axis Y")

    @property
    def input_sizes(self) -> tuple[int, int, int]:
        return tuple(size for _, size in self.transition.given_axes)

    @property
    def output_size(self) -> int:
        return self.transition.target_axes[0][1]


def _bsc(delta: float) -> np.ndarray:
    """BSC(delta) transition table, indexed [input, output]."""
    return np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])


def _additive_pair_table(delta: float) -> np.ndarray:
    """The additive-pair table, indexed [x1, x2, x3, 2*y1 + y2]."""
    bsc = _bsc(delta)
    clean = (bsc[:, None, :, None] * bsc[None, :, None, :]).reshape(2, 2, 4)
    x1, x2, x3 = np.indices((2, 2, 2))
    return np.where((x3 == x1 ^ x2)[..., None], clean[x1, x2], 0.25)


def build_additive_pair_channel(delta: float) -> DMChannel:
    """Binary inputs; clean state only when x3 = x1 xor x2.

    In the clean state the output pair is (x1 + noise, x2 + noise') with two
    independent BSC(delta) noises; otherwise the pair is uniform on {0,1}^2.
    """
    if not 0.0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0, 1/2]")
    table = _additive_pair_table(delta)
    cond = ConditionalPMF(list(zip(INPUT_NAMES, (2, 2, 2))), [("Y", 4)], table)
    return DMChannel("additive-pair", cond, {"delta": delta})


def quaternary_noise_law(delta: float) -> np.ndarray:
    """The Z_4 noise law (1/2 - delta, 1/2, delta, 0)."""
    if not 0.0 < delta <= 0.25:
        raise ValueError("delta must lie in (0, 1/4]")
    return np.array([0.5 - delta, 0.5, delta, 0.0])


def build_quaternary_channel(delta: float) -> DMChannel:
    """Binary inputs, Z_4 output: Y = (x1 xor x2) + x3 + N mod 4."""
    noise = quaternary_noise_law(delta)
    x1, x2, x3, y = np.indices((2, 2, 2, 4))
    table = noise[(y - (x1 ^ x2) - x3) % 4]
    cond = ConditionalPMF(list(zip(INPUT_NAMES, (2, 2, 2))), [("Y", 4)], table)
    return DMChannel("quaternary", cond, {"delta": delta})


def build_fb_parallel_channel(delta: float) -> DMChannel:
    """Two parallel components; per-user input is the encoded pair 2*a + b.

    First component: y1 = x11 + x21 + x31 + noise mod 2.  Second component
    is the additive-pair channel on the second coordinates.  The three
    noises are independent BSC(delta) flips; delta = 0 gives the noiseless
    limit, handy for sanity runs.
    """
    if not 0.0 <= delta < 0.5:
        raise ValueError("delta must lie in [0, 1/2)")
    (x11, x21, x31), (x12, x22, x32) = np.divmod(np.indices((4, 4, 4)), 2)
    first = _bsc(delta)[x11 ^ x21 ^ x31]
    second = _additive_pair_table(delta)[x12, x22, x32]
    table = (first[..., :, None] * second[..., None, :]).reshape(4, 4, 4, 8)
    cond = ConditionalPMF(list(zip(INPUT_NAMES, (4, 4, 4))), [("Y", 8)], table)
    return DMChannel("fb-parallel", cond, {"delta": delta})


def transmit(channel: DMChannel, blocks, seed: int) -> np.ndarray:
    """Pass the three input blocks through n independent channel uses."""
    x1, x2, x3 = (np.asarray(b, dtype=np.int64) for b in blocks)
    if not (x1.shape == x2.shape == x3.shape) or x1.ndim != 1:
        raise ValueError("blocks must be three equal-length 1-D arrays")
    sizes = channel.input_sizes
    for x, m in zip((x1, x2, x3), sizes):
        if x.size and (x.min() < 0 or x.max() >= m):
            raise ValueError("input symbol out of range")
    return sample_given(channel.transition.table, (x1, x2, x3), stream(seed).random(x1.shape))
