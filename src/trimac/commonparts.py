"""Common-part extraction and the unstructuredness measure of coding strategies.

Pairwise and mutual common parts are connected components of the support
graph: two symbols are tied when some positive-probability cell contains
both, and the common part is the (a.s. agreed) component label.  The
additive common part asks for more: per-source relabelings into Z_q whose
sum vanishes on the support, with maximal joint entropy; it exists whenever
some qualifying relabeling is non-constant.

The unstructuredness measure of a random coding strategy is the worst-case
probability, over all non-constant symbolwise maps to {0, 1}, that the map
vanishes on the whole transmitted block.  Strategies that keep this
probability below 1 - delta for every map are delta-unstructured; identical
affine codes on a zero-sum source are not, for any delta >= 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .probcore import JointPMF, entropy, marginalize, mixed_radix, sample_cells, sample_given
from .rng import stream
from .sources import SourceModel

__all__ = [
    "CommonPartResult",
    "AdditiveCommonResult",
    "UnstructurednessReport",
    "StrategySampler",
    "gkw_pairwise",
    "gkw_mutual",
    "gkw_pairs",
    "additive_common_search",
    "unstructuredness_estimate",
    "identical_affine_sampler",
    "memoryless_conditional_sampler",
]

MAX_FUNCTION_TRIPLES = 10**8
MAX_MAP_INPUT = 20


@dataclass(frozen=True)
class CommonPartResult:
    """Component labelings (one tuple per source), the label law, its entropy."""

    labelings: tuple[tuple[int, ...], ...]
    pmf: JointPMF
    entropy: float

    @property
    def component_count(self) -> int:
        return self.pmf.shape[0]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _components_to_result(joint: JointPMF, uf: _UnionFind, offsets: list[int]) -> CommonPartResult:
    """Shared tail of the pairwise/mutual extractors.

    offsets[i] is the node id of symbol 0 of axis i.  Symbols whose marginal
    mass is zero keep label 0; they never occur, so the labeling is a.s.
    unaffected.
    """
    sizes = joint.shape
    probs = joint.probs
    # mass per root, accumulated over support cells (all of a cell's nodes
    # share one root by construction)
    root_mass: dict[int, float] = {}
    for cell in np.argwhere(probs > 0.0):
        root = uf.find(offsets[0] + int(cell[0]))
        root_mass[root] = root_mass.get(root, 0.0) + float(probs[tuple(cell)])
    roots = sorted(root_mass)
    root_label = {r: i for i, r in enumerate(roots)}
    labelings = []
    for axis in range(len(sizes)):
        marg = probs.sum(axis=tuple(a for a in range(len(sizes)) if a != axis))
        lab = []
        for sym in range(sizes[axis]):
            if marg[sym] > 0.0:
                lab.append(root_label[uf.find(offsets[axis] + sym)])
            else:
                lab.append(0)
        labelings.append(tuple(lab))
    masses = np.array([root_mass[r] for r in roots])
    pmf = JointPMF([("W", len(roots))], masses / masses.sum())
    return CommonPartResult(tuple(labelings), pmf, entropy(pmf))


def gkw_pairwise(joint: JointPMF) -> CommonPartResult:
    """Common part of a two-axis joint law."""
    if len(joint.shape) != 2:
        raise ValueError("gkw_pairwise needs a 2-axis joint")
    n1, n2 = joint.shape
    uf = _UnionFind(n1 + n2)
    for a, b in np.argwhere(joint.probs > 0.0):
        uf.union(int(a), n1 + int(b))
    return _components_to_result(joint, uf, [0, n1])


def gkw_mutual(model: SourceModel) -> CommonPartResult:
    """Mutual common part of the three sources (tripartite support components)."""
    n1, n2, n3 = model.sizes
    uf = _UnionFind(n1 + n2 + n3)
    for a, b, c in model.support():
        uf.union(int(a), n1 + int(b))
        uf.union(int(a), n1 + n2 + int(c))
    return _components_to_result(model.joint, uf, [0, n1, n1 + n2])


def gkw_pairs(model: SourceModel) -> dict[str, CommonPartResult]:
    """Pairwise common parts of the three sources, keyed "12", "13", "23"."""
    return {
        f"{i}{j}": gkw_pairwise(marginalize(model.joint, (f"S{i}", f"S{j}")))
        for i, j in ((1, 2), (1, 3), (2, 3))
    }


@dataclass(frozen=True)
class AdditiveCommonResult:
    found: bool
    q: int
    functions: tuple[tuple[int, ...], ...] | None
    pmf: JointPMF | None
    entropy: float


def additive_common_search(model: SourceModel, q: int) -> AdditiveCommonResult:
    """Exhaustive search for a maximal-entropy zero-sum relabeling triple.

    Enumerates (f1, f2) in lexicographic order; f3 is forced on the support
    of S3 (with consistency checked cell by cell) and set to 0 off support,
    which is the lexicographically smallest completion.  Constant triples
    always qualify, so found is False exactly when no qualifying triple has
    positive joint entropy.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    n1, n2, n3 = model.sizes
    if q ** (n1 + n2 + n3) > MAX_FUNCTION_TRIPLES:
        raise ValueError("function space exceeds the enumeration guard")
    support = model.support()
    sprobs = model.joint.probs

    # every map {0..m-1} -> Z_q, in lexicographic order
    maps1, maps2 = (
        [tuple(f) for f in mixed_radix(np.arange(q**m), q, m).tolist()] for m in (n1, n2)
    )
    best = None  # (entropy, functions, pmf)
    for f1 in maps1:
        for f2 in maps2:
            f3 = [None] * n3
            ok = True
            for s1, s2, s3 in support:
                forced = (-f1[s1] - f2[s2]) % q
                if f3[s3] is None:
                    f3[s3] = forced
                elif f3[s3] != forced:
                    ok = False
                    break
            if not ok:
                continue
            f3 = tuple(0 if v is None else v for v in f3)
            law = np.zeros((q, q, q))
            for s1, s2, s3 in support:
                law[f1[s1], f2[s2], f3[s3]] += sprobs[s1, s2, s3]
            pmf = JointPMF([("T1", q), ("T2", q), ("T3", q)], law)
            h = entropy(pmf)
            if best is None or h > best[0] + 1e-12:
                best = (h, (f1, f2, f3), pmf)

    if best is None or best[0] <= 1e-12:
        return AdditiveCommonResult(False, q, None, None, 0.0)
    return AdditiveCommonResult(True, q, best[1], best[2], best[0])


@dataclass(frozen=True)
class StrategySampler:
    """A family of random symbolwise encoder triples.

    apply_blocks(rng, s1, s2, s3) maps (trials, n) source blocks to
    (trials, n) channel-input blocks, drawing one fresh encoder triple
    per row.
    """

    label: str
    input_sizes: tuple[int, int, int]
    apply_blocks: Callable

    def joint_input_size(self) -> int:
        return int(np.prod(self.input_sizes))


def identical_affine_sampler(q: int, source_sizes: tuple[int, int, int] = (2, 2, 2)) -> StrategySampler:
    """One shared uniform square matrix plus zero-sum offsets, per trial."""
    if any(s > q for s in source_sizes):
        raise ValueError("source symbols must embed into Z_q")

    def apply_blocks(rng: np.random.Generator, s1, s2, s3):
        trials, n = s1.shape
        g = rng.integers(0, q, size=(trials, n, n))
        b1 = rng.integers(0, q, size=(trials, n))
        b2 = rng.integers(0, q, size=(trials, n))
        b3 = (-(b1 + b2)) % q
        out = []
        for s, b in ((s1, b1), (s2, b2), (s3, b3)):
            out.append((np.einsum("tn,tnm->tm", s, g) + b) % q)
        return tuple(out)

    return StrategySampler("identical-affine", (q, q, q), apply_blocks)


def memoryless_conditional_sampler(conditionals) -> StrategySampler:
    """Independent symbolwise draws X_i ~ P(. | s_i); fresh randomness per row."""
    tables = [np.asarray(c, dtype=np.float64) for c in conditionals]
    if len(tables) != 3 or any(t.ndim != 2 for t in tables):
        raise ValueError("need three (|S_i|, |X_i|) conditional tables")
    for t in tables:
        if np.abs(t.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("conditional rows must sum to 1")
    sizes = tuple(t.shape[1] for t in tables)

    def apply_blocks(rng: np.random.Generator, s1, s2, s3):
        return tuple(sample_given(t, (s,), rng.random(s.shape))
                     for t, s in zip(tables, (s1, s2, s3)))

    return StrategySampler("memoryless-conditional", sizes, apply_blocks)


@dataclass(frozen=True)
class UnstructurednessReport:
    """Worst map's vanishing probability; the JSON keys are the fields but estimates."""

    n: int
    trials: int
    map_count: int
    delta_hat: float
    best_mask: int
    best_estimate: float
    best_se: float
    estimates: np.ndarray

    def to_json(self) -> dict:
        out = asdict(self)
        del out["estimates"]
        return out


def unstructuredness_estimate(
    strategy_sampler: StrategySampler,
    source: SourceModel,
    n: int,
    trials: int,
    seed: int,
) -> UnstructurednessReport:
    """Estimate how far the strategy is from delta-unstructured.

    For every non-constant map from the joint input alphabet to {0, 1}
    (there are 2^m - 2 of them, m = product of input sizes, guarded at
    m <= 20), Monte Carlo estimate the probability that the map is zero on
    all n positions of the transmitted block, with a fresh encoder triple
    and source block per trial and a derived seed per map.  delta_hat is
    1 - (best estimate + 3 standard errors), clipped at 0 from below only
    by the structural cases themselves (an always-vanishing map gives an
    exact 0).
    """
    m = strategy_sampler.joint_input_size()
    if m > MAX_MAP_INPUT:
        raise ValueError(f"joint input alphabet {m} exceeds the {MAX_MAP_INPUT} guard")
    if trials < 1 or n < 1:
        raise ValueError("n and trials must be positive")

    map_count = 2**m - 2
    estimates = np.empty(map_count)
    for idx in range(map_count):
        mask = idx + 1  # masks 1 .. 2^m - 2, bit x set means the map is 1 at x
        rng = stream(seed, idx)
        s1, s2, s3 = sample_cells(source.joint, (trials, n), rng)
        x1, x2, x3 = strategy_sampler.apply_blocks(rng, s1, s2, s3)
        sym = np.ravel_multi_index((x1, x2, x3), strategy_sampler.input_sizes)
        used = np.bitwise_or.reduce(1 << sym.astype(np.int64), axis=1)
        estimates[idx] = float(((used & mask) == 0).mean())

    best_idx = int(np.argmax(estimates))
    best = float(estimates[best_idx])
    se = float(np.sqrt(best * (1.0 - best) / trials))
    return UnstructurednessReport(
        n=n,
        trials=trials,
        map_count=map_count,
        delta_hat=1.0 - (best + 3.0 * se),
        best_mask=best_idx + 1,
        best_estimate=best,
        best_se=se,
        estimates=estimates,
    )
