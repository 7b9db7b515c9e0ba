"""Common-part and unstructuredness tests.

Component structure is cross-checked against a from-scratch BFS oracle on
the support graph, and the additive search against hand-derived solutions
of the zero-sum constraints for binary zero-sum triples.
"""

import numpy as np
import pytest

from trimac.coding import build_linear_jscc, build_unstructured_jscc
from trimac.commonparts import (
    additive_common_search,
    affine_unstructuredness,
    gkw_mutual,
    gkw_pairwise,
    memoryless_unstructuredness,
)
from trimac.probcore import JointPMF, binary_entropy, mixed_radix
from trimac.rng import sub_seeds
from trimac.sources import SourceModel, make_additive_triple, make_sigma_gamma_triple, sample_iid


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


PARITY_MASK = sum(1 << ((x1 * 2 + x2) * 2 + x3)
                  for x1 in range(2) for x2 in range(2) for x3 in range(2) if x1 ^ x2 ^ x3)
# three distinct tables, one of them ternary, so a swapped axis shows
TABLES = [np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([[0.5, 0.25, 0.25], [0.1, 0.6, 0.3]]),
          np.array([[0.9, 0.1], [0.4, 0.6]])]
# the two zero-sum sources, and a full-support one whose sum is nonzero w.p. > 0
FULL_SUPPORT = np.random.default_rng(5).dirichlet(np.ones(8)).reshape(2, 2, 2)
SOURCES = {
    "additive": make_additive_triple(0.3, 0.3),
    "sigma-gamma": make_sigma_gamma_triple(0.1, 0.2),
    "full-support": SourceModel(JointPMF([("S1", 2), ("S2", 2), ("S3", 2)], FULL_SUPPORT)),
}


def test_identical_affine_strategy_is_structured():
    rep = affine_unstructuredness(make_additive_triple(0.3, 0.3), 2, n=5)
    # the parity-violation map never fires on a zero-sum source
    assert rep.probabilities[PARITY_MASK - 1] == 1.0
    assert rep.delta == 0.0
    assert rep.map_count == 2**8 - 2
    assert set(vars(rep)) == {"n", "map_count", "probabilities", "best_mask", "delta"}


def test_memoryless_strategy_is_unstructured():
    eps = 0.1
    a = eps ** (1 / 3)  # smallest conditional entry; joint minimum is exactly eps
    table = np.array([[1 - a, a], [a, 1 - a]])
    n = 5
    rep = memoryless_unstructuredness(make_additive_triple(0.3, 0.3), [table] * 3, n=n)
    assert rep.probabilities.max() <= (1 - eps) ** n
    assert rep.delta > 0.0
    assert rep.map_count == 2**8 - 2
    assert rep.delta == 1.0 - rep.probabilities[rep.best_mask - 1] == 1.0 - rep.probabilities.max()


def test_unstructuredness_guard():
    source = make_additive_triple(0.5, 0.5)
    with pytest.raises(ValueError, match="guard"):
        affine_unstructuredness(source, 3, n=2)
    wide = [np.full((2, k), 1 / k) for k in (3, 7, 1)]  # joint input alphabet 21
    with pytest.raises(ValueError, match="guard"):
        memoryless_unstructuredness(source, wide, n=2)
    with pytest.raises(ValueError):
        affine_unstructuredness(source, 2, n=0)
    with pytest.raises(ValueError):
        affine_unstructuredness(source, 4, n=2)  # not a prime field


def test_conditional_tables_must_match_the_source_alphabet():
    source = make_additive_triple(0.3, 0.3)
    three_rows = [np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])] + TABLES[1:]
    for call in (memoryless_unstructuredness, lambda s, t, n: build_unstructured_jscc(s, t, n, 0)):
        with pytest.raises(ValueError, match="source alphabet"):
            call(source, three_rows, 2)
        with pytest.raises(ValueError, match="sum to 1"):
            call(source, [TABLES[0] * 1.01] + TABLES[1:], 2)


def _source_blocks(source, n):
    """Every source block of length n: one (B, n) array per user and the blocks' probabilities."""
    cells = np.argwhere(np.ones(source.sizes, dtype=bool))
    picks = mixed_radix(np.arange(len(cells) ** n), len(cells), n)
    prob = source.joint.probs[tuple(cells.T)][picks].prod(axis=1)
    return tuple(cells[:, i][picks] for i in range(3)), prob


def _vanishing_by_used_set(used, weights, m):
    """P(map vanishes) for masks 1 .. 2^m - 2, from each case's used-symbol bitmask and weight."""
    mass = np.bincount(used.ravel(), weights.ravel(), minlength=2**m)
    masks = np.arange(1, 2**m - 1)
    return ((np.arange(2**m)[:, None] & masks) == 0).T @ mass


@pytest.mark.parametrize("name", SOURCES)
@pytest.mark.parametrize("n", [1, 2])
def test_affine_closed_form_matches_every_encoder_and_block(name, n):
    source, q = SOURCES[name], 2
    (s1, s2, s3), prob = _source_blocks(source, n)
    g = mixed_radix(np.arange(q ** (n * n)), q, n * n).reshape(-1, 1, 1, n, n)
    b1 = mixed_radix(np.arange(q**n), q, n)[None, :, None, None, :]
    b2 = mixed_radix(np.arange(q**n), q, n)[None, None, :, None, :]
    offsets = (b1, b2, -(b1 + b2))
    x = [(np.einsum("bn,...nm->...bm", s, g) + b) % q for s, b in zip((s1, s2, s3), offsets)]
    used = np.bitwise_or.reduce(1 << ((x[0] * q + x[1]) * q + x[2]), axis=-1)
    encoders = q ** (n * n + 2 * n)  # 256 (G, b1, b2) triples at n = 2
    weights = np.broadcast_to(prob / encoders, used.shape)
    oracle = _vanishing_by_used_set(used, weights, q**3)
    exact = affine_unstructuredness(source, q, n).probabilities
    assert np.abs(exact - oracle).max() <= 1e-12


@pytest.mark.parametrize("name", SOURCES)
@pytest.mark.parametrize("n", [1, 2])
def test_memoryless_closed_form_matches_every_input_block(name, n):
    source = SOURCES[name]
    sizes = [t.shape[1] for t in TABLES]
    s, prob = _source_blocks(source, n)
    # per user, every input block x and its probability given each source block: (B, |X_i|^n)
    x = [mixed_radix(np.arange(k**n), k, n) for k in sizes]
    w = [t[si[:, None, :], xi[None, :, :]].prod(axis=-1) for t, si, xi in zip(TABLES, s, x)]
    weights = np.einsum("b,bi,bj,bk->bijk", prob, *w)
    sym = (x[0][:, None, None] * sizes[1] + x[1][None, :, None]) * sizes[2] + x[2][None, None, :]
    used = np.broadcast_to(np.bitwise_or.reduce(1 << sym, axis=-1), weights.shape)
    oracle = _vanishing_by_used_set(used, weights, int(np.prod(sizes)))
    exact = memoryless_unstructuredness(source, TABLES, n).probabilities
    assert np.abs(exact - oracle).max() <= 1e-12


def _monte_carlo_vanishing(scheme_for, source, n, sizes, trials):
    """Each mask's vanishing frequency over `trials` encoders drawn by the scheme builder and
    source blocks drawn by sample_iid, on sub-seeds of paths (t, 0) and (t, 1)."""
    seeds = sub_seeds(0, np.stack(np.divmod(np.arange(2 * trials), 2), axis=1)).tolist()
    used = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        x = scheme_for(seeds[2 * t]).encode(*sample_iid(source, n, seeds[2 * t + 1]))
        used[t] = np.bitwise_or.reduce(1 << np.ravel_multi_index(x, sizes))
    masks = np.arange(1, 2 ** int(np.prod(sizes)) - 1)
    return ((used[:, None] & masks) == 0).mean(axis=0)


@pytest.mark.parametrize("name", SOURCES)
@pytest.mark.parametrize("kind", ["linear", "unstructured"])
def test_closed_forms_match_monte_carlo_over_the_scheme_builders(name, kind):
    source, n, trials = SOURCES[name], 6, 2000
    if kind == "linear":
        freq = _monte_carlo_vanishing(lambda t: build_linear_jscc(source, 2, n, t),
                                      source, n, (2, 2, 2), trials)
        exact = affine_unstructuredness(source, 2, n).probabilities
    else:
        freq = _monte_carlo_vanishing(lambda t: build_unstructured_jscc(source, TABLES, n, t),
                                      source, n, tuple(t.shape[1] for t in TABLES), trials)
        exact = memoryless_unstructuredness(source, TABLES, n).probabilities
    # z-scores mislead at p near 1 / trials, hence the 5 / trials floor
    se = np.sqrt(np.clip(exact * (1 - exact), 0.0, None) / trials)
    assert np.all(np.abs(freq - exact) <= 5 * se + 5 / trials)
