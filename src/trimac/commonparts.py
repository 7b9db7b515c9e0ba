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
probability below 1 - delta for every map are delta-unstructured.  The
measure of each coding scheme is exact, in closed form over the map's zero
set Z: P_X(Z)^n for memoryless conditional tables, and a two-term form over
the zero-sum plane and the whole cube for identical affine codes, which on a
zero-sum source are delta-unstructured for no delta > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import check_conditionals
from .gfcore import check_prime_field
from .probcore import JointPMF, entropy, marginalize, mixed_radix
from .sources import SourceModel

__all__ = [
    "CommonPartResult",
    "AdditiveCommonResult",
    "UnstructurednessReport",
    "gkw_pairwise",
    "gkw_mutual",
    "gkw_pairs",
    "additive_common_search",
    "affine_unstructuredness",
    "memoryless_unstructuredness",
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
class UnstructurednessReport:
    """probabilities[mask - 1]: the chance that the map with value bit x of mask at
    joint input symbol x vanishes on the block; delta = 1 - their maximum."""

    n: int
    map_count: int
    probabilities: np.ndarray
    best_mask: int
    delta: float


def _check_map_input(m: int, n: int) -> None:
    if m > MAX_MAP_INPUT:
        raise ValueError(f"joint input alphabet {m} exceeds the {MAX_MAP_INPUT} guard")
    if n < 1:
        raise ValueError("n must be positive")


def _zero_set_sums(weights: np.ndarray) -> np.ndarray:
    """The weights summed over each map's zero set {x : bit x of mask is 0}, for every mask."""
    sums = np.zeros(1, dtype=weights.dtype)
    for w in weights:
        sums = np.concatenate((sums + w, sums))
    return sums


def _report(n: int, vanishing: np.ndarray) -> UnstructurednessReport:
    """Report the vanishing probabilities of every mask but the constant maps 0 and 2^m - 1."""
    probabilities = vanishing[1:-1]
    best = int(np.argmax(probabilities))
    return UnstructurednessReport(n, len(probabilities), probabilities, best + 1,
                                  1.0 - float(probabilities[best]))


def affine_unstructuredness(source: SourceModel, q: int, n: int) -> UnstructurednessReport:
    """Exact measure of the identical affine strategy of build_linear_jscc.

    One uniform n x n matrix G over prime Z_q is shared, x_i = s_i G + b_i
    with b1, b2 uniform and b3 = -(b1 + b2).  With Z the map's zero set,
    plane = {x : x1 + x2 + x3 = 0} and pi0 = P(S1 + S2 + S3 = 0 mod q),
        P(map vanishes) = pi0^n (|Z & plane| / q^2)^n + (1 - pi0^n) (|Z| / q^3)^n.
    The offsets make (X1, X2) uniform and independent of G.  X1 + X2 + X3 = uG,
    u = S1 + S2 + S3 blockwise.  uG is uniform for u != 0 and zero for u = 0.
    """
    check_prime_field(q)
    if any(s > q for s in source.sizes):
        raise ValueError("source symbols must embed into Z_q")
    _check_map_input(q**3, n)
    on_plane = np.indices((q, q, q)).sum(axis=0).ravel() % q == 0
    in_plane = _zero_set_sums(on_plane.astype(np.int64)) / q**2
    in_cube = _zero_set_sums(np.ones(q**3, dtype=np.int64)) / q**3
    # 1 - pi0 as the mass off the zero-sum cells: a zero-sum source gets pi0 = 1.0 exactly
    probs = source.joint.probs
    pi0 = 1.0 - float(probs[np.indices(probs.shape).sum(axis=0) % q != 0].sum())
    return _report(n, pi0**n * in_plane**n + (1.0 - pi0**n) * in_cube**n)


def memoryless_unstructuredness(source: SourceModel, conditionals, n: int) -> UnstructurednessReport:
    """Exact measure of the memoryless strategy of build_unstructured_jscc.

    Each letter X_i is drawn from row s_i of user i's table on its own, so the
    block's letters are iid with law P_X(x) = sum_s P(s) t1[s1, x1] t2[s2, x2] t3[s3, x3],
    and a map vanishes on the block with probability P_X(Z)^n, Z its zero set.
    """
    t1, t2, t3 = check_conditionals(source, conditionals)
    _check_map_input(t1.shape[1] * t2.shape[1] * t3.shape[1], n)
    law = np.einsum("abc,ax,by,cz->xyz", source.joint.probs, t1, t2, t3).ravel()
    return _report(n, _zero_set_sums(law) ** n)
