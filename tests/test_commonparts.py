"""Common-part and unstructuredness tests.

Component structure is cross-checked against a from-scratch BFS oracle on
the support graph, and the additive search against hand-derived solutions
of the zero-sum constraints for binary zero-sum triples.
"""

import numpy as np
import pytest

from trimac.probcore import JointPMF, binary_entropy
from trimac.commonparts import (
    additive_common_search,
    gkw_mutual,
    gkw_pairwise,
    identical_affine_sampler,
    memoryless_conditional_sampler,
    unstructuredness_estimate,
)
from trimac.rng import stream
from trimac.sources import SourceModel, make_additive_triple, make_sigma_gamma_triple


def bfs_partition(edges, nodes):
    """Connected components via BFS; returns frozenset of frozensets."""
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, comps = set(), []
    for v in nodes:
        if v in seen:
            continue
        comp, queue = set(), [v]
        while queue:
            u = queue.pop()
            if u in comp:
                continue
            comp.add(u)
            queue.extend(adj[u] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return frozenset(comps)


def test_pairwise_block_diagonal():
    # support {(0,0), (0,1), (1,2)}: one component holds S1=0, another S1=1
    w = 0.35
    probs = np.array([[0.4, 1 - 0.4 - w, 0.0], [0.0, 0.0, w]])
    joint = JointPMF([("A", 2), ("B", 3)], probs)
    res = gkw_pairwise(joint)
    assert res.component_count == 2
    assert res.labelings[0] == (0, 1)
    assert res.labelings[1] == (0, 0, 1)
    assert res.entropy == pytest.approx(binary_entropy(w), abs=1e-12)


def test_pairwise_full_support_is_trivial():
    rng = np.random.default_rng(0)
    w = rng.random((3, 4)) + 0.05
    joint = JointPMF([("A", 3), ("B", 4)], w / w.sum())
    res = gkw_pairwise(joint)
    assert res.component_count == 1
    assert res.entropy == 0.0


def test_pairwise_matches_bfs_oracle():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n1, n2 = rng.integers(2, 5), rng.integers(2, 5)
        mask = rng.random((n1, n2)) < 0.4
        if not mask.any():
            continue
        w = np.where(mask, rng.random((n1, n2)) + 0.01, 0.0)
        joint = JointPMF([("A", int(n1)), ("B", int(n2))], w / w.sum())
        res = gkw_pairwise(joint)
        edges = [(("a", i), ("b", j)) for i, j in np.argwhere(w > 0)]
        nodes = [("a", i) for i in range(n1) if w[i].sum() > 0] + [
            ("b", j) for j in range(n2) if w[:, j].sum() > 0
        ]
        want = bfs_partition(edges, nodes)
        got = {}
        for i in range(n1):
            if w[i].sum() > 0:
                got.setdefault(res.labelings[0][i], set()).add(("a", i))
        for j in range(n2):
            if w[:, j].sum() > 0:
                got.setdefault(res.labelings[1][j], set()).add(("b", j))
        assert frozenset(frozenset(v) for v in got.values()) == want


def test_mutual_common_part_of_zero_sum_triples_is_trivial():
    res = gkw_mutual(make_sigma_gamma_triple(0.2, 0.3))
    assert res.component_count == 1
    assert res.entropy == 0.0
    res = gkw_mutual(make_additive_triple(0.25, 0.4))
    assert res.component_count == 1


def test_mutual_common_part_of_shared_component():
    # S1 = S2 = S3 = common bit: support is a diagonal, two components
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = 0.7
    probs[1, 1, 1] = 0.3
    model = SourceModel(JointPMF([("S1", 2), ("S2", 2), ("S3", 2)], probs))
    res = gkw_mutual(model)
    assert res.component_count == 2
    assert res.entropy == pytest.approx(binary_entropy(0.3), abs=1e-12)
    assert res.labelings[0] == res.labelings[1] == res.labelings[2] == (0, 1)


def test_additive_search_finds_identity_on_sigma_gamma():
    # hand analysis: qualifying triples over Z_2 are f_i(s) = a_i + s with
    # a1 + a2 + a3 = 0; the lexicographically smallest is the identity triple
    model = make_sigma_gamma_triple(0.2, 0.35)
    res = additive_common_search(model, 2)
    assert res.found
    assert res.functions == ((0, 1), (0, 1), (0, 1))
    want_h = binary_entropy(0.2) + binary_entropy(0.35)
    assert res.entropy == pytest.approx(want_h, abs=1e-12)


def test_additive_search_respects_modulus():
    # over Z_3 the support equations force degenerate labels: 2d = 0 mod 3
    model = make_additive_triple(0.3, 0.3)
    assert additive_common_search(model, 2).found
    assert not additive_common_search(model, 3).found


def test_additive_search_independent_sources_fail():
    probs = np.full((2, 2, 2), 0.125)
    model = SourceModel(JointPMF([("S1", 2), ("S2", 2), ("S3", 2)], probs))
    res = additive_common_search(model, 2)
    assert not res.found
    assert res.entropy == 0.0


def test_identical_affine_strategy_is_structured():
    source = make_additive_triple(0.3, 0.3)
    sampler = identical_affine_sampler(2, source.sizes)
    rep = unstructuredness_estimate(sampler, source, n=5, trials=300, seed=11)
    # the parity-violation map never fires: estimate exactly 1, zero SE
    assert rep.best_estimate == 1.0
    assert rep.best_se == 0.0
    assert rep.delta_hat == 0.0
    parity_mask = sum(1 << ((x1 * 2 + x2) * 2 + x3)
                      for x1 in range(2) for x2 in range(2) for x3 in range(2)
                      if x1 ^ x2 ^ x3)
    assert rep.estimates[parity_mask - 1] == 1.0
    assert set(rep.to_json()) == {
        "n", "trials", "map_count", "delta_hat", "best_mask", "best_estimate", "best_se",
    }


def test_memoryless_strategy_is_unstructured():
    eps = 0.1
    a = eps ** (1 / 3)  # smallest conditional entry; joint minimum is exactly eps
    table = np.array([[1 - a, a], [a, 1 - a]])
    source = make_additive_triple(0.3, 0.3)
    sampler = memoryless_conditional_sampler([table] * 3)
    n, trials = 5, 400
    rep = unstructuredness_estimate(sampler, source, n=n, trials=trials, seed=3)
    bound = (1 - eps) ** n
    # allow generous sampling slack on top of the analytic bound
    assert rep.best_estimate <= bound + 5 * np.sqrt(bound * (1 - bound) / trials)
    assert rep.delta_hat > 0.0
    assert rep.map_count == 2**8 - 2


def test_unstructuredness_guard():
    source = make_additive_triple(0.5, 0.5)
    sampler = identical_affine_sampler(3, source.sizes)
    with pytest.raises(ValueError):
        unstructuredness_estimate(sampler, source, n=2, trials=10, seed=0)


def test_memoryless_sampler_pinned_draws():
    # recorded before sampling moved into probcore.sample_given
    tables = [np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([[0.5, 0.25, 0.25], [0.1, 0.6, 0.3]]),
              np.array([[0.9, 0.1], [0.4, 0.6]])]
    s = stream(11).integers(0, 2, size=(3, 4, 6))
    out = memoryless_conditional_sampler(tables).apply_blocks(stream(12), s[0], s[1], s[2])
    assert [x.tolist() for x in out] == [
        [[0, 1, 1, 1, 1, 1], [1, 1, 0, 1, 1, 0], [0, 1, 1, 0, 1, 1], [1, 0, 0, 0, 1, 0]],
        [[1, 1, 1, 1, 2, 1], [2, 0, 2, 1, 0, 2], [0, 2, 0, 2, 2, 2], [1, 2, 1, 2, 2, 0]],
        [[1, 0, 1, 0, 0, 1], [0, 1, 1, 0, 1, 0], [0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1]],
    ]
