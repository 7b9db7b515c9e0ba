"""Region evaluator tests.

The heavy checks rebuild each evaluator's joint law with dict-based direct
summation (no probcore involved on the oracle side) and compare every
report row.  Frontier helpers are checked against closed forms and an
independent grid+ternary maximizer; golden values were recorded from that
oracle on first computation.
"""

import functools
import itertools
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from trimac.channels import (
    DMChannel,
    build_additive_pair_channel,
    build_quaternary_channel,
    quaternary_noise_law,
)
from trimac import regions
from trimac.cli import run
from trimac.commonparts import additive_common_search, gkw_mutual, gkw_pairwise
from trimac.probcore import (
    ConditionalPMF,
    JointPMF,
    chain,
    chain_all,
    deterministic_conditional,
    entropy,
    marginalize,
    mutual_information,
)
from trimac.regions import (
    CES2Dist,
    CESDist,
    FactorizationError,
    HybridDist,
    InequalityRecord,
    MacFBDist,
    ProductSearchConfig,
    W_SUBSETS,
    eta1,
    eta2,
    eval_ces2,
    eval_ces3,
    eval_cl2,
    eval_hybrid,
    eval_macfb,
    example_conditions,
    gamma_star,
    hybrid_example_dist,
    max_product_mi,
    min_tv_to_structured,
    product_ces_dist,
    product_conditionals,
    sigma0_frontier,
    tv_bound_check,
)
from trimac.rng import stream
from trimac.sources import SourceModel, make_sigma_gamma_triple

from region_fixtures import (
    HYBRID_CES3_SHARED,
    add_derived_axis,
    lift_ces_to_hybrid,
    structured_pair_joint,
)

PAIRS = ("12", "13", "23")
PAIR_USERS = {"12": (1, 2), "13": (1, 3), "23": (2, 3)}
PAIR_COMPLEMENT = {"12": 3, "13": 2, "23": 1}
USER_PAIRS = {1: ("12", "13"), 2: ("12", "23"), 3: ("13", "23")}


def tag_of(subset):
    return "+".join(str(b) for b in subset) if subset else "none"


def pname(i, k):
    return f"{min(i, k)}{max(i, k)}"


def hb(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def hb_inv(y):
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hb(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rows_normalized(rng, shape):
    t = rng.random(shape) + 0.05
    return t / t.sum(axis=-1, keepdims=True)


class Hist:
    """Dict-backed joint law over named coordinates; pure-python entropies."""

    def __init__(self, names):
        self.names = tuple(names)
        self.cells = {}
        self._cache = {}

    def add(self, coords, w):
        if w <= 0.0:
            return
        key = tuple(coords)
        self.cells[key] = self.cells.get(key, 0.0) + w

    def entropy(self, group):
        key = frozenset(group)
        if key not in self._cache:
            idx = tuple(self.names.index(n) for n in sorted(key))
            marg = {}
            for cell, w in self.cells.items():
                sub = tuple(cell[i] for i in idx)
                marg[sub] = marg.get(sub, 0.0) + w
            self._cache[key] = -sum(w * math.log2(w) for w in marg.values() if w > 0.0)
        return self._cache[key]

    def cond_ent(self, target, given=()):
        return self.entropy(tuple(target) + tuple(given)) - self.entropy(given)

    def mi(self, a, b, given=()):
        a, b, g = tuple(a), tuple(b), tuple(given)
        val = self.entropy(a + g) + self.entropy(b + g) - self.entropy(a + b + g) - self.entropy(g)
        return max(val, 0.0)

    def extended(self, extra):
        """Copy with derived coordinates appended; extra is [(name, fn(env))]."""
        out = Hist(self.names + tuple(n for n, _ in extra))
        for cell, w in self.cells.items():
            env = dict(zip(self.names, cell))
            out.add(cell + tuple(fn(env) for _, fn in extra), w)
        return out


def component_labels(tuples):
    """Label support tuples by connected component, linking shared coordinate values."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in tuples:
        nodes = [(pos, v) for pos, v in enumerate(t)]
        for a, b in zip(nodes, nodes[1:]):
            parent[find(a)] = find(b)
    roots, labels = {}, {}
    for t in tuples:
        r = find((0, t[0]))
        labels[t] = roots.setdefault(r, len(roots))
    return labels


# ---------------------------------------------------------------------------
# oracle eta curves (direct law enumeration, no package imports)


def ent4(law):
    return -sum(p * math.log2(p) for p in law if p > 0.0)


def noise4(delta):
    return (0.5 - delta, 0.5, delta, 0.0)


def eta1_oracle(alpha, delta):
    noise = noise4(delta)
    law = [0.0] * 4
    for e in (0, 1):
        we = alpha if e else 1.0 - alpha
        for n in range(4):
            law[(e + n) % 4] += we * noise[n]
    return ent4(law) - ent4(noise)


def eta2_oracle(alpha, delta):
    noise = noise4(delta)
    law = [0.0] * 4
    for v, e in itertools.product((0, 1), repeat=2):
        we = 0.5 * (alpha if e else 1.0 - alpha)
        for n in range(4):
            law[((v ^ e) + v + n) % 4] += we * noise[n]
    return 2.0 - ent4(law)


# ---------------------------------------------------------------------------
# two-user families


def test_ces2_rows_match_direct_summation():
    rng = np.random.default_rng(11)
    support = [(0, 0), (1, 0), (2, 1)]
    pj = np.zeros((3, 2))
    masses = rng.random(3) + 0.2
    masses /= masses.sum()
    for cell, m in zip(support, masses):
        pj[cell] = m
    u12 = rows_normalized(rng, (2,))
    t1 = rows_normalized(rng, (3, 2, 2))
    t2 = rows_normalized(rng, (2, 2, 3))
    ct = rows_normalized(rng, (2, 3, 4))

    labels = component_labels(support)
    assert len(set(labels.values())) == 2
    h = Hist(("S1", "S2", "W12", "U12", "X1", "X2", "Y"))
    for (s1, s2), w12 in labels.items():
        for u, x1, x2, y in itertools.product(range(2), range(2), range(3), range(4)):
            h.add((s1, s2, w12, u, x1, x2, y),
                  pj[s1, s2] * u12[u] * t1[s1, u, x1] * t2[s2, u, x2] * ct[x1, x2, y])

    dist = CES2Dist(
        JointPMF([("U12", 2)], u12),
        ConditionalPMF([("S1", 3), ("U12", 2)], [("X1", 2)], t1),
        ConditionalPMF([("S2", 2), ("U12", 2)], [("X2", 3)], t2),
    )
    rep = eval_ces2(JointPMF([("S1", 3), ("S2", 2)], pj),
                    ConditionalPMF([("X1", 2), ("X2", 3)], [("Y", 4)], ct), dist)
    want = {
        "solo-1": (h.cond_ent(("S1",), ("S2",)), h.mi(("X1",), ("Y",), ("X2", "S2", "U12"))),
        "solo-2": (h.cond_ent(("S2",), ("S1",)), h.mi(("X2",), ("Y",), ("X1", "S1", "U12"))),
        "pair-w": (h.cond_ent(("S1", "S2"), ("W12",)), h.mi(("X1", "X2"), ("Y",), ("W12", "U12"))),
        "sum": (h.entropy(("S1", "S2")), h.mi(("X1", "X2"), ("Y",))),
    }
    assert {r.ineq_id for r in rep.records} == set(want)
    for rid, (lhs, rhs) in want.items():
        assert rep.record(rid).lhs == pytest.approx(lhs, abs=1e-10)
        assert rep.record(rid).rhs == pytest.approx(rhs, abs=1e-10)


def test_cl2_rows_match_direct_summation():
    rng = np.random.default_rng(12)
    pu = rows_normalized(rng, (3,))
    t1 = rows_normalized(rng, (3, 2))
    t2 = rows_normalized(rng, (3, 2))
    ct = rows_normalized(rng, (2, 2, 3))
    h = Hist(("U", "X1", "X2", "Y"))
    for u, x1, x2, y in itertools.product(range(3), range(2), range(2), range(3)):
        h.add((u, x1, x2, y), pu[u] * t1[u, x1] * t2[u, x2] * ct[x1, x2, y])
    chan = ConditionalPMF([("X1", 2), ("X2", 2)], [("Y", 3)], ct)
    rep = eval_cl2((0.1, 0.2), chan, JointPMF([("U", 3)], pu),
                   ConditionalPMF([("U", 3)], [("X1", 2)], t1),
                   ConditionalPMF([("U", 3)], [("X2", 2)], t2))
    assert rep.record("rate-1").rhs == pytest.approx(h.mi(("X1",), ("Y",), ("X2", "U")), abs=1e-10)
    assert rep.record("rate-2").rhs == pytest.approx(h.mi(("X2",), ("Y",), ("X1", "U")), abs=1e-10)
    assert rep.record("rate-sum").rhs == pytest.approx(h.mi(("X1", "X2"), ("Y",)), abs=1e-10)
    with pytest.raises(ValueError):
        eval_cl2((-0.1, 0.2), chan, JointPMF([("U", 3)], pu),
                 ConditionalPMF([("U", 3)], [("X1", 2)], t1),
                 ConditionalPMF([("U", 3)], [("X2", 2)], t2))


def test_cl2_adder_channel_values():
    table = np.zeros((2, 2, 3))
    for x1, x2 in itertools.product(range(2), repeat=2):
        table[x1, x2, x1 + x2] = 1.0
    chan = ConditionalPMF([("X1", 2), ("X2", 2)], [("Y", 3)], table)
    p_u = JointPMF([("U", 1)], [1.0])
    half = ConditionalPMF([("U", 1)], [("X1", 2)], np.array([[0.5, 0.5]]))
    rep = eval_cl2((0.74, 0.74), chan, p_u, half, half)
    assert rep.record("rate-1").rhs == pytest.approx(1.0, abs=1e-12)
    assert rep.record("rate-2").rhs == pytest.approx(1.0, abs=1e-12)
    assert rep.record("rate-sum").rhs == pytest.approx(1.5, abs=1e-12)
    assert rep.satisfied

    worse = eval_cl2((0.76, 0.76), chan, p_u, half, half)
    assert not worse.satisfied
    assert worse.worst.ineq_id == "rate-sum"
    assert worse.record("rate-1").satisfied


# ---------------------------------------------------------------------------
# three-user layered family


def three_user_test_source():
    probs = np.zeros((2, 3, 3))
    probs[0, 0, 0] = 0.2
    probs[0, 1, 1] = 0.3
    probs[1, 2, 2] = 0.5
    return SourceModel(JointPMF([("S1", 2), ("S2", 3), ("S3", 3)], probs))


def test_ces3_rows_match_direct_summation():
    rng = np.random.default_rng(13)
    source = three_user_test_source()
    support = [tuple(int(v) for v in c) for c in source.support()]
    trip = component_labels(support)
    pair_lab = {b: component_labels(sorted({(t[i - 1], t[j - 1]) for t in support}))
                for b, (i, j) in PAIR_USERS.items()}
    w_count = {b: len(set(lab.values())) for b, lab in pair_lab.items()}
    assert (w_count["12"], w_count["13"], w_count["23"]) == (2, 2, 3)

    u123 = rows_normalized(rng, (2,))
    u_sizes = {"12": 2, "13": 1, "23": 2}
    pc = {b: rows_normalized(rng, (w_count[b], 2, u_sizes[b])) for b in PAIRS}
    x_sizes = (2, 2, 3)
    xt = {}
    for i in (1, 2, 3):
        ba, bb = USER_PAIRS[i]
        xt[i] = rows_normalized(rng, (source.sizes[i - 1], 2, u_sizes[ba], u_sizes[bb], x_sizes[i - 1]))
    ct = rows_normalized(rng, (2, 2, 3, 4))
    chan = DMChannel("generic", ConditionalPMF(
        [("X1", 2), ("X2", 2), ("X3", 3)], [("Y", 4)], ct))

    h = Hist(("S1", "S2", "S3", "W123", "W12", "W13", "W23",
              "U123", "U12", "U13", "U23", "X1", "X2", "X3", "Y"))
    for s in support:
        p = source.joint.probs[s]
        w = (trip[s], pair_lab["12"][(s[0], s[1])], pair_lab["13"][(s[0], s[2])],
             pair_lab["23"][(s[1], s[2])])
        for a, b12, b13, b23 in itertools.product(range(2), range(2), range(1), range(2)):
            lay = (u123[a] * pc["12"][w[1], a, b12] * pc["13"][w[2], a, b13]
                   * pc["23"][w[3], a, b23])
            for x1, x2, x3, y in itertools.product(range(2), range(2), range(3), range(4)):
                h.add(s + w + (a, b12, b13, b23, x1, x2, x3, y),
                      p * lay * xt[1][s[0], a, b12, b13, x1] * xt[2][s[1], a, b12, b23, x2]
                      * xt[3][s[2], a, b13, b23, x3] * ct[x1, x2, x3, y])

    all_u = ("U123", "U12", "U13", "U23")
    want = {}
    for i in (1, 2, 3):
        j, k = sorted({1, 2, 3} - {i})
        want[f"solo-{i}"] = (
            h.cond_ent((f"S{i}",), (f"S{j}", f"S{k}")),
            h.mi((f"X{i}",), ("Y",), (f"S{j}", f"S{k}", f"X{j}", f"X{k}") + all_u),
        )
    for b in PAIRS:
        i, j = PAIR_USERS[b]
        k = PAIR_COMPLEMENT[b]
        want[f"pair-{b}"] = (
            h.cond_ent((f"S{i}", f"S{j}"), (f"S{k}",)),
            h.mi((f"X{i}", f"X{j}"), ("Y",),
                 (f"S{k}", "U123", "U" + pname(i, k), "U" + pname(j, k), f"X{k}")),
        )
        want[f"pair-{b}-wpair"] = (
            h.cond_ent((f"S{i}", f"S{j}"), (f"S{k}", f"W{b}")),
            h.mi((f"X{i}", f"X{j}"), ("Y",), (f"S{k}", f"W{b}") + all_u + (f"X{k}",)),
        )
    for subset in W_SUBSETS:
        w_axes = tuple("W" + b for b in subset)
        u_axes = tuple("U" + b for b in subset)
        want[f"joint-wgroup-{tag_of(subset)}"] = (
            h.cond_ent(("S1", "S2", "S3"), ("W123",) + w_axes),
            h.mi(("X1", "X2", "X3"), ("Y",), ("W123",) + w_axes + ("U123",) + u_axes),
        )
    want["sum"] = (h.entropy(("S1", "S2", "S3")), h.mi(("X1", "X2", "X3"), ("Y",)))

    dist = CESDist(
        JointPMF([("U123", 2)], u123),
        {b: ConditionalPMF([(f"W{b}", w_count[b]), ("U123", 2)], [(f"U{b}", u_sizes[b])], pc[b])
         for b in PAIRS},
        tuple(ConditionalPMF([(f"S{i}", source.sizes[i - 1]), ("U123", 2),
                              ("A", xt[i].shape[2]), ("B", xt[i].shape[3])],
                             [(f"X{i}", x_sizes[i - 1])], xt[i]) for i in (1, 2, 3)),
    )
    rep = eval_ces3(source, chan, dist)
    assert len(rep.records) == 18
    assert {r.ineq_id for r in rep.records} == set(want)
    for rid, (lhs, rhs) in want.items():
        assert rep.record(rid).lhs == pytest.approx(lhs, abs=1e-10), rid
        assert rep.record(rid).rhs == pytest.approx(rhs, abs=1e-10), rid


def test_layered_conditioning_collapses_on_full_support_product_dist():
    # full support makes every common part a single component, so the W and
    # the trivial U conditionings are vacuous
    source = make_sigma_gamma_triple(0.1, 0.15)
    dist = product_ces_dist(source, product_conditionals((0.1, 0.9, 0.3, 0.2, 0.25, 0.8)))
    rep = eval_ces3(source, build_quaternary_channel(0.25), dist)
    sum_row = rep.record("sum")
    for subset in W_SUBSETS:
        r = rep.record(f"joint-wgroup-{tag_of(subset)}")
        assert r.lhs == pytest.approx(sum_row.lhs, abs=1e-12)
        assert r.rhs == pytest.approx(sum_row.rhs, abs=1e-12)
    for b in PAIRS:
        plain, withw = rep.record(f"pair-{b}"), rep.record(f"pair-{b}-wpair")
        assert plain.lhs == pytest.approx(withw.lhs, abs=1e-12)
        assert plain.rhs == pytest.approx(withw.rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# hybrid family


def test_hybrid_rows_match_direct_summation():
    rng = np.random.default_rng(14)
    source = make_sigma_gamma_triple(0.0, 0.3)
    additive = additive_common_search(source, 2)
    assert additive.found
    fns = additive.functions

    support = [tuple(int(v) for v in c) for c in source.support()]
    trip = component_labels(support)
    pair_lab = {b: component_labels(sorted({(t[i - 1], t[j - 1]) for t in support}))
                for b, (i, j) in PAIR_USERS.items()}
    w_count = {b: len(set(lab.values())) for b, lab in pair_lab.items()}
    assert (w_count["12"], w_count["13"], w_count["23"]) == (1, 1, 2)

    u123 = rows_normalized(rng, (2,))
    u_sizes = {"12": 2, "13": 1, "23": 2}
    pc = {b: rows_normalized(rng, (w_count[b], 2, u_sizes[b])) for b in PAIRS}
    xt = {}
    for i in (1, 2, 3):
        ba, bb = USER_PAIRS[i]
        xt[i] = rows_normalized(rng, (2, 2, u_sizes[ba], u_sizes[bb], 2, 2))
    chan = build_quaternary_channel(0.25)
    ct = chan.transition.table

    h = Hist(("S1", "S2", "S3", "W123", "W12", "W13", "W23", "T1", "T2", "T3",
              "U123", "U12", "U13", "U23", "V1", "V2", "V3", "X1", "X2", "X3", "Y"))
    for s in support:
        p = source.joint.probs[s]
        w = (trip[s], pair_lab["12"][(s[0], s[1])], pair_lab["13"][(s[0], s[2])],
             pair_lab["23"][(s[1], s[2])])
        t = tuple(fns[i][s[i]] for i in range(3))
        for a, b12, b13, b23 in itertools.product(range(2), range(2), range(1), range(2)):
            lay = (u123[a] * pc["12"][w[1], a, b12] * pc["13"][w[2], a, b13]
                   * pc["23"][w[3], a, b23])
            for v1, v2 in itertools.product(range(2), repeat=2):
                v3 = (v1 + v2) % 2
                for x1, x2, x3, y in itertools.product(range(2), range(2), range(2), range(4)):
                    h.add(s + w + t + (a, b12, b13, b23, v1, v2, v3, x1, x2, x3, y),
                          p * lay * 0.25 * xt[1][s[0], a, b12, b13, v1, x1]
                          * xt[2][s[1], a, b12, b23, v2, x2]
                          * xt[3][s[2], a, b13, b23, v3, x3] * ct[x1, x2, x3, y])

    S, X, T, V = (("S1", "S2", "S3"), ("X1", "X2", "X3"),
                  ("T1", "T2", "T3"), ("V1", "V2", "V3"))
    all_u = ("U123", "U12", "U13", "U23")
    want = {}
    for i in (1, 2, 3):
        j, k = sorted({1, 2, 3} - {i})
        want[f"solo-{i}"] = (
            h.cond_ent((f"S{i}",), (f"S{j}", f"S{k}")),
            h.mi((f"X{i}",), ("Y",), (f"S{j}", f"S{k}") + all_u + V + (f"X{j}", f"X{k}")),
        )
    for b, subset in itertools.product(PAIRS, W_SUBSETS):
        tag = tag_of(subset)
        i, j = PAIR_USERS[b]
        k = PAIR_COMPLEMENT[b]
        w_axes = tuple("W" + s for s in subset)
        u_axes = tuple(dict.fromkeys(
            ("U123", "U" + pname(i, k), "U" + pname(j, k)) + tuple("U" + s for s in subset)))
        want[f"pair-{b}-wgroup-{tag}"] = (
            h.cond_ent((f"S{i}", f"S{j}"), (f"S{k}",) + w_axes),
            h.mi((f"X{i}", f"X{j}"), ("Y",), (f"S{k}",) + w_axes + u_axes + (f"V{k}", f"X{k}")),
        )
        want[f"pair-{b}-wgroup-{tag}-t"] = (
            h.cond_ent((f"S{i}", f"S{j}"), (f"S{k}",) + w_axes + T),
            h.mi((f"X{i}", f"X{j}"), ("Y",), (f"S{k}",) + w_axes + u_axes + T + V + (f"X{k}",)),
        )
    for subset in W_SUBSETS:
        tag = tag_of(subset)
        w_axes = ("W123",) + tuple("W" + s for s in subset)
        u_axes = ("U123",) + tuple("U" + s for s in subset)
        want[f"joint-wgroup-{tag}-t"] = (
            h.cond_ent(S, w_axes + T),
            h.mi(X, ("Y",), w_axes + u_axes + T + V),
        )
    want["sum-t"] = (h.cond_ent(S, T), h.mi(X, ("Y",), T + V))
    for a, b2 in itertools.product(range(2), repeat=2):
        if (a, b2) == (0, 0):
            want["sum-lin-00-unconditioned"] = (h.entropy(S), h.mi(X, ("Y",)))
            for subset in W_SUBSETS:
                tag = tag_of(subset)
                w_axes = ("W123",) + tuple("W" + s for s in subset)
                u_axes = ("U123",) + tuple("U" + s for s in subset)
                want[f"joint-wgroup-{tag}-lin-00-unconditioned"] = (
                    h.cond_ent(S, w_axes), h.mi(X, ("Y",), w_axes + u_axes))
            continue
        hx = h.extended([
            ("TL", lambda e, a=a, b2=b2: (a * e["T1"] + b2 * e["T2"]) % 2),
            ("VL", lambda e, a=a, b2=b2: (a * e["V1"] + b2 * e["V2"]) % 2),
        ])
        want[f"sum-lin-{a}{b2}"] = (hx.cond_ent(S, ("TL",)), hx.mi(X, ("Y",), ("TL", "VL")))
        for subset in W_SUBSETS:
            tag = tag_of(subset)
            w_axes = ("W123",) + tuple("W" + s for s in subset)
            u_axes = ("U123",) + tuple("U" + s for s in subset)
            want[f"joint-wgroup-{tag}-lin-{a}{b2}"] = (
                hx.cond_ent(S, w_axes + ("TL",)),
                hx.mi(X, ("Y",), w_axes + u_axes + ("TL", "VL")),
            )

    dist = HybridDist(
        2,
        JointPMF([("U123", 2)], u123),
        {b: ConditionalPMF([(f"W{b}", w_count[b]), ("U123", 2)], [(f"U{b}", u_sizes[b])], pc[b])
         for b in PAIRS},
        tuple(ConditionalPMF([(f"S{i}", 2), ("U123", 2), ("A", xt[i].shape[2]),
                              ("B", xt[i].shape[3]), (f"V{i}", 2)],
                             [(f"X{i}", 2)], xt[i]) for i in (1, 2, 3)),
    )
    rep = eval_hybrid(source, chan, dist)
    assert len(rep.records) == 96
    assert {r.ineq_id for r in rep.records} == set(want)
    for rid, (lhs, rhs) in want.items():
        assert rep.record(rid).lhs == pytest.approx(lhs, abs=1e-10), rid
        assert rep.record(rid).rhs == pytest.approx(rhs, abs=1e-10), rid


def test_hybrid_with_vacuous_v_matches_layered_rows():
    rng = np.random.default_rng(15)
    source = make_sigma_gamma_triple(0.0, 0.15)
    chan = build_quaternary_channel(0.25)
    u_sizes = {"12": 2, "13": 1, "23": 2}
    w_count = {"12": 1, "13": 1, "23": 2}
    pair_conds = {b: ConditionalPMF([(f"W{b}", w_count[b]), ("U123", 2)],
                                    [(f"U{b}", u_sizes[b])],
                                    rows_normalized(rng, (w_count[b], 2, u_sizes[b])))
                  for b in PAIRS}
    x_conds = []
    for i in (1, 2, 3):
        ba, bb = USER_PAIRS[i]
        x_conds.append(ConditionalPMF(
            [(f"S{i}", 2), ("U123", 2), ("A", u_sizes[ba]), ("B", u_sizes[bb])],
            [(f"X{i}", 2)], rows_normalized(rng, (2, 2, u_sizes[ba], u_sizes[bb], 2))))
    layered = CESDist(JointPMF([("U123", 2)], rows_normalized(rng, (2,))),
                      pair_conds, tuple(x_conds))

    assert len(HYBRID_CES3_SHARED) == 18
    for dist in (layered, product_ces_dist(source, product_conditionals((0.2, 0.8, 0.4, 0.1, 0.35, 0.9)))):
        base = eval_ces3(source, chan, dist)
        lifted = eval_hybrid(source, chan, lift_ces_to_hybrid(dist, 2))
        for hid, cid in HYBRID_CES3_SHARED:
            assert lifted.record(hid).lhs == pytest.approx(base.record(cid).lhs, abs=1e-10), hid
            assert lifted.record(hid).rhs == pytest.approx(base.record(cid).rhs, abs=1e-10), hid


# ---------------------------------------------------------------------------
# the three-user factor list, chained out


def diag_source():
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = 0.4
    probs[1, 1, 1] = 0.6
    return SourceModel(JointPMF([("S1", 2), ("S2", 2), ("S3", 2)], probs))


def factor_law(source, channel, dist):
    """The chained three_user_factors law: the hybrid one, on the source's additive
    relabelings, when dist is a HybridDist, else the layered one."""
    t_functions = None
    if isinstance(dist, HybridDist):
        t_functions = additive_common_search(source, dist.q).functions
    return chain_all(regions.three_user_factors(source, channel, dist, t_functions))


def xor_layered_dist():
    """Uniform U123, identity pair layers U_b = W_b on the diag source's common parts,
    and X_i = S_i xor U123."""
    pair = np.zeros((2, 2, 2))
    for w in range(2):
        pair[w, :, w] = 1.0
    pair_conds = {b: ConditionalPMF([(f"W{b}", 2), ("U123", 2)], [(f"U{b}", 2)], pair) for b in PAIRS}
    x = np.zeros((2, 2, 2, 2, 2))
    for s, u in itertools.product(range(2), repeat=2):
        x[s, u, :, :, s ^ u] = 1.0
    x_conds = tuple(
        ConditionalPMF([(f"S{i}", 2), ("U123", 2), (f"U{ba}", 2), (f"U{bb}", 2)], [(f"X{i}", 2)], x)
        for i, (ba, bb) in USER_PAIRS.items())
    return CESDist(JointPMF([("U123", 2)], np.array([0.5, 0.5])), pair_conds, x_conds)


def passthrough_hybrid_dist():
    """Trivial layers and X_i = V_i over Z_2."""
    pair_conds = {b: ConditionalPMF([(f"W{b}", 1), ("U123", 1)], [(f"U{b}", 1)], np.ones((1, 1, 1)))
                  for b in PAIRS}
    table = np.zeros((2, 1, 1, 1, 2, 2))
    for v in range(2):
        table[:, 0, 0, 0, v, v] = 1.0
    x_conds = tuple(
        ConditionalPMF([(f"S{i}", 2), ("U123", 1), (f"U{ba}", 1), (f"U{bb}", 1), (f"V{i}", 2)],
                       [(f"X{i}", 2)], table)
        for i, (ba, bb) in USER_PAIRS.items())
    return HybridDist(2, JointPMF([("U123", 1)], np.array([1.0])), pair_conds, x_conds)


def random_layered_dist(hybrid):
    """Diag-source layered spec with random tables; hybrid adds the V_i axis (q = 2)."""
    rng = stream(21)

    def rows(shape):
        t = rng.random(shape) + 0.05
        return t / t.sum(axis=-1, keepdims=True)

    u123 = JointPMF([("U123", 2)], rows((2,)))
    pair_conds = {b: ConditionalPMF([(f"W{b}", 2), ("U123", 2)], [(f"U{b}", 2)], rows((2, 2, 2)))
                  for b in PAIRS}
    x_conds = []
    for i, (ba, bb) in USER_PAIRS.items():
        given = [(f"S{i}", 2), ("U123", 2), (f"U{ba}", 2), (f"U{bb}", 2)]
        given += [(f"V{i}", 2)] if hybrid else []
        x_conds.append(ConditionalPMF(given, [(f"X{i}", 2)], rows((2,) * len(given) + (2,))))
    if hybrid:
        return HybridDist(2, u123, pair_conds, tuple(x_conds))
    return CESDist(u123, pair_conds, tuple(x_conds))


# Recorded from the block schemes' design laws, which chained this factor list.
@pytest.mark.parametrize("hybrid, pinned", [
    (False, {
        ("S1", "U123", "X1"): 2.8897625796068227,
        ("W12", "U12", "X2"): 2.910188344850158,
        ("X1", "X2", "X3", "Y"): 4.450052709897166,
        ("U13", "U23", "Y"): 3.9161026423557805,
        None: 8.33481363149822,
    }),
    (True, {
        ("S1", "U123", "X1"): 2.8992688040502266,
        ("W12", "U12", "X2"): 2.939344814923205,
        ("X1", "X2", "X3", "Y"): 4.427854157218658,
        ("U13", "U23", "Y"): 3.9065627352184413,
        ("T1", "V1", "X1"): 1.999628441649064,
        ("V1", "V2", "Y"): 3.9946701287949944,
        None: 10.23382092059831,
    }),
], ids=["layered", "hybrid"])
def test_three_user_factor_entropies_pinned(hybrid, pinned):
    law = factor_law(diag_source(), build_additive_pair_channel(0.1), random_layered_dist(hybrid))
    for group, bits in pinned.items():
        assert entropy(law, group) == pytest.approx(bits, abs=1e-12)


def test_layered_factors_draw_u123_apart_from_the_sources():
    law = factor_law(diag_source(), build_additive_pair_channel(0.1), xor_layered_dist())
    assert mutual_information(law, "U123", ("W123", "S1", "S2", "S3")) == pytest.approx(0.0, abs=1e-10)
    assert np.abs(marginalize(law, "U123").probs - 0.5).max() < 1e-12
    sx = marginalize(law, ("S1", "U123", "X1")).probs
    for s, u in itertools.product(range(2), repeat=2):
        if sx[s, u].sum() > 0:
            assert sx[s, u, s ^ u] == pytest.approx(sx[s, u].sum(), abs=1e-12)
    assert {"W123", "W12", "W13", "W23", "U123", "U12", "U13", "U23"} <= set(law.names)


def test_hybrid_factors_draw_v_apart_from_the_sources():
    law = factor_law(make_sigma_gamma_triple(0.1, 0.15), build_additive_pair_channel(0.1),
                     passthrough_hybrid_dist())
    assert mutual_information(law, ("V1", "V2"), ("S1", "S2", "S3")) == pytest.approx(0.0, abs=1e-10)
    # X_i = V_i: the inputs are uniform on the zero-sum plane
    x = marginalize(law, ("X1", "X2", "X3")).probs
    for t in np.argwhere(x > 0):
        assert t.sum() % 2 == 0
        assert x[tuple(t)] == pytest.approx(0.25, abs=1e-15)
    assert "T1" in law.names and "V3" in law.names


def test_hybrid_example_tight_at_the_threshold_bias():
    delta = 0.25
    gs = gamma_star(delta)
    source = make_sigma_gamma_triple(0.0, gs)
    rep = eval_hybrid(source, build_quaternary_channel(delta), hybrid_example_dist(source, 0.0))
    assert len(rep.records) == 96
    assert rep.satisfied
    tight = rep.record("pair-23-wgroup-none")
    assert tight.lhs == pytest.approx(hb(gs), abs=1e-12)
    assert abs(tight.slack) <= 1e-9


def test_hybrid_example_fails_beyond_the_threshold():
    delta = 0.25
    source = make_sigma_gamma_triple(0.0, gamma_star(delta) + 0.02)
    rep = eval_hybrid(source, build_quaternary_channel(delta), hybrid_example_dist(source, 0.0))
    assert not rep.satisfied
    assert rep.worst.ineq_id == "pair-23-wgroup-none"
    assert rep.worst.slack < -0.01


def test_hybrid_example_holds_at_and_inside_the_frontier():
    delta = 0.25
    gs = gamma_star(delta)
    chan = build_quaternary_channel(delta)
    for gamma, halve in ((0.5 * gs, True), (gs - 0.01, False)):
        fp = sigma0_frontier(gamma, delta)
        assert fp.sigma0 > 0.0
        sigma = fp.sigma0 / 2 if halve else fp.sigma0
        source = make_sigma_gamma_triple(sigma, gamma)
        rep = eval_hybrid(source, chan, hybrid_example_dist(source, fp.alpha))
        assert rep.satisfied
        assert example_conditions(sigma, gamma, delta, fp.alpha).satisfied


# ---------------------------------------------------------------------------
# quaternary channel, product search, separation


def test_structured_input_laws_saturate_the_quaternary_channel():
    for delta in (0.1, 0.25):
        chan = build_quaternary_channel(delta)
        noise = quaternary_noise_law(delta)
        cap = 2.0 - entropy(JointPMF([("N", 4)], noise))
        assert entropy(JointPMF([("N", 4)], noise)) == pytest.approx(1.0 + 0.5 * hb(2 * delta), abs=1e-12)
        for p00, p01 in ((0.3, 0.2), (0.1, 0.45), (0.5, 0.0)):
            joint = chain(structured_pair_joint(p00, p01), chan.transition)
            got = mutual_information(joint, ("X1", "X2", "X3"), ("Y",))
            assert got == pytest.approx(cap, abs=1e-10)


def test_product_search_stays_below_cap_and_matches_the_evaluator():
    chan = build_quaternary_channel(0.25)
    source = make_sigma_gamma_triple(0.05, gamma_star(0.25))
    res = max_product_mi(chan, source)
    cap = 0.5
    assert res.value <= cap + 1e-9
    assert res.value < cap - 1e-3
    assert all(0.0 <= x <= 1.0 for x in res.params)
    vals = [v for v, _ in res.candidates]
    assert vals == sorted(vals, reverse=True)
    assert res.value == vals[0]

    dist = product_ces_dist(source, product_conditionals(res.params))
    rep = eval_ces3(source, chan, dist)
    assert rep.record("sum").rhs == pytest.approx(res.value, abs=1e-10)
    # the sum condition needs more than any product strategy provides here
    assert not rep.record("sum").satisfied


def test_product_search_deterministic_and_zero_on_dead_channel():
    cfg = ProductSearchConfig(coarse_step=0.25, top_k=4, sweeps=2, golden_iters=24)
    chan = build_quaternary_channel(0.25)
    source = make_sigma_gamma_triple(0.1, 0.1)
    first = max_product_mi(chan, source, cfg)
    second = max_product_mi(chan, source, cfg)
    assert first.value == second.value
    assert first.params == second.params

    table = np.zeros((2, 2, 2, 2))
    table[..., 0] = 1.0
    dead = DMChannel("dead", ConditionalPMF(
        [("X1", 2), ("X2", 2), ("X3", 2)], [("Y", 2)], table))
    assert max_product_mi(dead, source, cfg).value <= 1e-12

    with pytest.raises(ValueError):
        max_product_mi(chan, three_user_test_source(), cfg)
    with pytest.raises(ValueError):
        ProductSearchConfig(coarse_step=0.0)


def closed_form_tv(probs):
    a00, a11 = probs[0, 0, 0], probs[1, 1, 0]
    a01, a10 = probs[0, 1, 1], probs[1, 0, 1]
    off = 1.0 - (a00 + a11 + a01 + a10)
    return 0.5 * (off + abs(a00 + a11 - 0.5) + abs(a01 + a10 - 0.5))


def test_min_tv_matches_closed_form_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        w = rng.random((2, 2, 2))
        w /= w.sum()
        law = JointPMF([("X1", 2), ("X2", 2), ("X3", 2)], w)
        got, (g1, g2) = min_tv_to_structured(law)
        want = closed_form_tv(w)
        assert got >= want - 1e-12
        assert got <= want + 1.0 / 400.0 + 1e-12
        assert 0.0 <= g1 <= 0.5 and 0.0 <= g2 <= 0.5
        finer, _ = min_tv_to_structured(law, grid_step=1.0 / 800.0)
        assert finer <= got + 1e-15


def test_members_have_zero_distance_and_bound_check_passes():
    g = np.linspace(0.0, 0.5, 201)
    got, args = min_tv_to_structured(structured_pair_joint(float(g[120]), float(g[80])))
    assert got == 0.0
    assert args[0] == pytest.approx(float(g[120]), abs=1e-15)
    assert args[1] == pytest.approx(float(g[80]), abs=1e-15)

    rep = tv_bound_check(0.25, 25, seed=7)
    assert len(rep.samples) == 25
    assert rep.bound == pytest.approx(1.0 / 6.0 - gamma_star(0.25) / 3.0, abs=1e-12)
    assert rep.min_tv == min(s.tv for s in rep.samples)
    assert rep.satisfied
    assert tv_bound_check(0.25, 25, seed=7).min_tv == rep.min_tv

    with pytest.raises(ValueError):
        tv_bound_check(0.25, 0, seed=7)
    with pytest.raises(ValueError):
        structured_pair_joint(0.6, 0.1)
    with pytest.raises(ValueError):
        min_tv_to_structured(JointPMF([("X1", 2), ("X2", 2)], np.full((2, 2), 0.25)))


def test_grid_steps_outside_the_half_open_half_unit_are_refused():
    law = structured_pair_joint(0.5, 0.0)
    for bad in (0.0, -1e-3, 0.75, 2.0, float("nan")):
        with pytest.raises(ValueError):
            min_tv_to_structured(law, bad)
        with pytest.raises(ValueError):
            tv_bound_check(0.25, 2, seed=0, grid_step=bad)
    assert min_tv_to_structured(law, 0.5)[0] == 0.0
    assert tv_bound_check(0.25, 2, seed=0, grid_step=0.5).min_tv > 0.0


@given(st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_grid_aligned_members_have_zero_grid_distance(i, j):
    g = np.linspace(0.0, 0.5, 201)
    got, _ = min_tv_to_structured(structured_pair_joint(float(g[i]), float(g[j])))
    assert got == 0.0


# ---------------------------------------------------------------------------
# frontier helpers


def test_eta_closed_form_and_oracle_agreement():
    for delta in (0.05, 0.15, 0.25):
        assert eta1(0.0, delta) <= 1e-12
        assert eta2(0.0, delta) <= 1e-12
        for alpha in np.linspace(0.0, 1.0, 21):
            a = float(alpha)
            closed = 0.5 * (hb(2 * a * delta) + hb(2 * (1 - a) * delta + a) - hb(2 * delta))
            assert eta1(a, delta) == pytest.approx(closed, abs=1e-12)
            assert eta1(a, delta) == pytest.approx(eta1_oracle(a, delta), abs=1e-12)
            assert eta2(a, delta) == pytest.approx(eta2_oracle(a, delta), abs=1e-12)


def test_eta_curves_positive_on_the_acceptance_grid():
    for delta in (0.1, 0.25):
        for alpha in np.linspace(0.025, 0.5, 20):
            assert eta1(float(alpha), delta) > 0.0
            assert eta2(float(alpha), delta) > 0.0


@given(st.floats(0.0, 1.0), st.floats(0.01, 0.25))
@settings(max_examples=40, deadline=None)
def test_eta_curves_are_nonnegative(alpha, delta):
    assert eta1(alpha, delta) >= -1e-12
    assert eta2(alpha, delta) >= -1e-12


def test_gamma_star_matches_bisection_oracle():
    for delta in (0.05, 0.1, 0.25):
        cap = 2.0 - ent4(noise4(delta))
        assert gamma_star(delta) == pytest.approx(hb_inv(cap), abs=1e-10)
        assert hb(gamma_star(delta)) == pytest.approx(cap, abs=1e-10)
    assert gamma_star(0.25) == pytest.approx(0.11002786443805235, abs=1e-9)


def test_frontier_is_monotone_near_threshold_and_zero_at_it():
    gs = gamma_star(0.25)
    vals = [sigma0_frontier(f * gs, 0.25).sigma0 for f in (0.9, 0.95, 0.99, 1.0)]
    assert vals[-1] == 0.0
    assert all(v > 0.0 for v in vals[:-1])
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        sigma0_frontier(gs + 0.01, 0.25)
    with pytest.raises(ValueError):
        sigma0_frontier(-0.1, 0.25)


def test_frontier_golden_value_and_independent_oracle():
    fp = sigma0_frontier(0.08, 0.25)
    assert fp.sigma0 == pytest.approx(0.012429498585227405, abs=1e-9)
    assert sigma0_frontier(0.5 * gamma_star(0.25), 0.25).sigma0 == pytest.approx(
        0.028040152494213544, abs=1e-9)

    hg = hb(0.08)
    amax = 1.0 - hg / 0.5

    def objective(a):
        return min(eta1_oracle(a, 0.25), 0.5 - eta2_oracle(a, 0.25) - hg)

    grid = np.linspace(0.0, amax, 20001)
    best = int(np.argmax([objective(float(a)) for a in grid]))
    lo, hi = float(grid[max(0, best - 1)]), float(grid[min(len(grid) - 1, best + 1)])
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if objective(m1) < objective(m2):
            lo = m1
        else:
            hi = m2
    assert fp.sigma0 == pytest.approx(hb_inv(objective(0.5 * (lo + hi))), abs=1e-8)


def test_reduced_conditions_corner_and_matched_alpha():
    delta = 0.25
    gs = gamma_star(delta)
    corner = example_conditions(0.0, gs, delta, 0.0)
    assert corner.satisfied
    assert abs(corner.record("gamma-line").slack) <= 1e-9

    gamma = 0.5 * gs
    alpha = 1.0 - hb(gamma) / hb(gs)
    rep = example_conditions(0.0, gamma, delta, alpha)
    assert abs(rep.record("gamma-line").slack) <= 1e-11

    for frac in (0.3, 0.6, 0.9):
        fp = sigma0_frontier(frac * gs, delta)
        assert example_conditions(fp.sigma0 / 2, frac * gs, delta, fp.alpha).satisfied


# ---------------------------------------------------------------------------
# feedback block family


def xor_bsc_channel(flip=0.1):
    table = np.empty((2, 2, 2, 2))
    for x1, x2, x3 in itertools.product(range(2), repeat=3):
        s = x1 ^ x2 ^ x3
        table[x1, x2, x3, s] = 1.0 - flip
        table[x1, x2, x3, s ^ 1] = flip
    return DMChannel("xor-bsc", ConditionalPMF(
        [("X1", 2), ("X2", 2), ("X3", 2)], [("Y", 2)], table))


@functools.lru_cache(maxsize=1)
def shared_fb_setup():
    rng = np.random.default_rng(33)
    pu = rows_normalized(rng, (2,))
    x_conds = tuple(
        ConditionalPMF([("U", 2), ("T", 2), ("V", 2)], [(f"X{i}", 2)],
                       rows_normalized(rng, (2, 2, 2, 2)))
        for i in (1, 2, 3))
    dist = MacFBDist(2, JointPMF([("U", 2)], pu), x_conds)
    alpha = 0.4
    w_laws = (np.array([0.7, 0.3]), np.array([0.6, 0.4]), np.array([0.9, 0.1]))
    rates = tuple(alpha * hb(float(w[1])) for w in w_laws)
    rep = eval_macfb(rates, alpha, dist, xor_bsc_channel(), w_laws=w_laws)
    return rep, dist, w_laws, alpha


def test_macfb_rate_rows_and_w_side_closed_forms():
    rep, dist, w_laws, alpha = shared_fb_setup()
    assert len(rep.records) == 17
    for i in (1, 2, 3):
        r = rep.record(f"rate-match-{i}")
        assert r.equality
        assert abs(r.slack) <= 1e-12
    # default coupling reuses W1 and W2 directly, so those residuals vanish
    assert rep.record("sum-decode-1").lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.record("sum-decode-2").lhs == pytest.approx(0.0, abs=1e-12)
    conv = 0.7 * 0.4 + 0.3 * 0.6
    assert rep.record("sum-decode-3").lhs == pytest.approx(alpha * hb(conv), abs=1e-12)
    total = sum(hb(float(w[1])) for w in w_laws)
    assert rep.record("list-1+2+3").lhs == pytest.approx(alpha * total, abs=1e-12)
    assert rep.record("list-none").lhs == 0.0


def test_macfb_two_copy_joint_is_stationary():
    rep, dist, *_ = shared_fb_setup()
    cur = marginalize(rep.joint, ("U", "V1", "V2", "V3", "T1", "T2", "T3",
                                  "X1", "X2", "X3", "Y"))
    prior = marginalize(rep.joint, ("Ut", "V1t", "V2t", "V3t", "T1t", "T2t", "T3t",
                                    "X1t", "X2t", "X3t", "Yt"))
    assert np.abs(cur.probs - prior.probs).max() <= 1e-12

    plane = np.where(np.indices((2, 2, 2)).sum(axis=0) % 2 == 0, 0.25, 0.0)
    assert np.abs(marginalize(rep.joint, ("V1", "V2", "V3")).probs - plane).max() <= 1e-12
    assert np.abs(marginalize(rep.joint, ("T1", "T2", "T3")).probs - 0.125).max() <= 1e-12
    assert np.abs(marginalize(rep.joint, ("U",)).probs - dist.p_u.probs).max() <= 1e-12


def test_macfb_prior_block_matches_direct_composition():
    rep, dist, *_ = shared_fb_setup()
    ct = xor_bsc_channel().transition.table
    pu = dist.p_u.probs
    ts = [c.table for c in dist.x_conds]
    want = np.zeros((2,) * 11)  # u v1 v2 v3 t1 t2 t3 x1 x2 x3 y
    for u, v1, v2, v3 in itertools.product(range(2), repeat=4):
        if (v1 + v2 + v3) % 2:
            continue
        base = pu[u] * 0.25 * 0.125
        for t1, t2, t3, x1, x2, x3, y in itertools.product(range(2), repeat=7):
            want[u, v1, v2, v3, t1, t2, t3, x1, x2, x3, y] = (
                base * ts[0][u, t1, v1, x1] * ts[1][u, t2, v2, x2]
                * ts[2][u, t3, v3, x3] * ct[x1, x2, x3, y])
    got = marginalize(rep.joint, ("Ut", "V1t", "V2t", "V3t", "T1t", "T2t", "T3t",
                                  "X1t", "X2t", "X3t", "Yt"))
    assert np.abs(got.probs - want).max() <= 1e-12


def test_macfb_entropy_terms_match_scipy_recomputation():
    rep, *_ = shared_fb_setup()
    m = marginalize(rep.joint, ("U", "Y"))
    assert rep.entropy_terms[frozenset({"U", "Y"})] == pytest.approx(
        scipy.stats.entropy(m.probs.ravel(), base=2), abs=1e-10)

    m = marginalize(rep.joint, ("T1", "T2", "U", "T3", "V3", "X3"))
    acc = np.zeros((2, 2, 2, 2, 2))
    for t1, t2 in itertools.product(range(2), repeat=2):
        acc[(t1 + t2) % 2] += m.probs[t1, t2]
    assert rep.entropy_terms[frozenset({"TA3", "U", "T3", "V3", "X3"})] == pytest.approx(
        scipy.stats.entropy(acc.ravel(), base=2), abs=1e-10)
    assert rep.derived_axes["TA3"]["coeffs"] == (1, 1, 0)


def test_macfb_rows_match_their_group_decompositions():
    rep, *_ = shared_fb_setup()
    for r in rep.records:
        lhs = rep.alpha * sum(s * rep.w_entropy_terms[g] for s, g in rep.w_groups[r.ineq_id])
        assert r.lhs == pytest.approx(lhs, abs=1e-12), r.ineq_id
        if not r.equality:
            rhs = sum(s * rep.entropy_terms[g] for s, g in rep.mi_groups[r.ineq_id])
            assert r.rhs == pytest.approx(rhs, abs=1e-11), r.ineq_id


def test_macfb_degenerate_w_and_zero_rates_is_satisfied():
    rng = np.random.default_rng(35)
    dist = MacFBDist(2, JointPMF([("U", 2)], rows_normalized(rng, (2,))),
                     tuple(ConditionalPMF([("U", 2), ("T", 2), ("V", 2)], [(f"X{i}", 2)],
                                          rows_normalized(rng, (2, 2, 2, 2)))
                           for i in (1, 2, 3)))
    point = np.array([1.0, 0.0])
    rep = eval_macfb((0.0, 0.0, 0.0), 0.3, dist, xor_bsc_channel(),
                     w_laws=(point, point, point))
    assert rep.satisfied
    for r in rep.records:
        assert r.lhs == pytest.approx(0.0, abs=1e-12)


def test_macfb_dead_channel_kills_every_mi_row():
    rng = np.random.default_rng(36)
    table = np.ones((2, 2, 2, 1))
    dead = DMChannel("dead", ConditionalPMF(
        [("X1", 2), ("X2", 2), ("X3", 2)], [("Y", 1)], table))
    dist = MacFBDist(2, JointPMF([("U", 2)], rows_normalized(rng, (2,))),
                     tuple(ConditionalPMF([("U", 2), ("T", 2), ("V", 2)], [(f"X{i}", 2)],
                                          rows_normalized(rng, (2, 2, 2, 2)))
                           for i in (1, 2, 3)))
    alpha = 0.4
    rep = eval_macfb((alpha, alpha, alpha), alpha, dist, dead)
    for r in rep.records:
        if not r.equality:
            assert r.rhs <= 1e-12, r.ineq_id
    for i in (1, 2, 3):
        assert rep.record(f"rate-match-{i}").satisfied
    assert not rep.record("sum-decode-3").satisfied
    assert not rep.satisfied


def test_non_finite_rates_and_alpha_are_refused():
    table = np.zeros((2, 2, 3))
    for x1, x2 in itertools.product(range(2), repeat=2):
        table[x1, x2, x1 + x2] = 1.0
    adder = ConditionalPMF([("X1", 2), ("X2", 2)], [("Y", 3)], table)
    p_u = JointPMF([("U", 1)], [1.0])
    half = ConditionalPMF([("U", 1)], [("X1", 2)], [[0.5, 0.5]])
    rng = np.random.default_rng(37)
    dist = MacFBDist(2, JointPMF([("U", 2)], rows_normalized(rng, (2,))),
                     tuple(ConditionalPMF([("U", 2), ("T", 2), ("V", 2)], [(f"X{i}", 2)],
                                          rows_normalized(rng, (2, 2, 2, 2)))
                           for i in (1, 2, 3)))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            eval_cl2((bad, 0.2), adder, p_u, half, half)
        with pytest.raises(ValueError):
            eval_macfb((0.1, bad, 0.1), 0.2, dist, xor_bsc_channel())
        with pytest.raises(ValueError):
            eval_macfb((0.1, 0.1, 0.1), bad, dist, xor_bsc_channel())


def test_macfb_refuses_bad_rates_alpha_and_w_laws():
    rng = np.random.default_rng(37)
    dist = MacFBDist(2, JointPMF([("U", 2)], rows_normalized(rng, (2,))),
                     tuple(ConditionalPMF([("U", 2), ("T", 2), ("V", 2)], [(f"X{i}", 2)],
                                          rows_normalized(rng, (2, 2, 2, 2)))
                           for i in (1, 2, 3)))
    chan = xor_bsc_channel()
    with pytest.raises(ValueError):
        eval_macfb((0.1, -0.1, 0.1), 0.2, dist, chan)
    with pytest.raises(ValueError):
        eval_macfb((0.1, 0.1, 0.1), -0.2, dist, chan)
    with pytest.raises(ValueError):
        eval_macfb((0.1, 0.1, 0.1), 0.2, dist, chan,
                   w_laws=(np.array([0.5, 0.5]), np.array([0.5, 0.5])))


def zero_sum_coupling(q):
    """The feedback coupling V = T_prior @ A as a matrix: column c holds V_c's coefficients."""
    return np.array(((1, 0, q - 1), (0, 1, q - 1), (0, 0, 0)))


def test_default_coupling_preserves_the_plane_for_q3():
    a = zero_sum_coupling(3)
    counts = {}
    for t in itertools.product(range(3), repeat=3):
        v = tuple(int(np.dot(t, a[:, c])) % 3 for c in range(3))
        counts[v] = counts.get(v, 0) + 1
    assert all(sum(v) % 3 == 0 for v in counts)
    assert len(counts) == 9
    assert set(counts.values()) == {3}


@pytest.mark.parametrize("q", [2, 3])
def test_macfb_evaluator_couples_the_uniform_cube_onto_the_plane(q):
    rng = np.random.default_rng(39)
    dist = MacFBDist(q, JointPMF([("U", 1)], [1.0]), tuple(
        ConditionalPMF([("U", 1), ("T", q), ("V", q)], [(f"X{i}", 2)], rows_normalized(rng, (1, q, q, 2)))
        for i in (1, 2, 3)))
    rep = eval_macfb((0.0, 0.0, 0.0), 0.0, dist, xor_bsc_channel())
    t_prior = tuple((f"T{i}t", q) for i in (1, 2, 3))
    v_axes = tuple((f"V{i}", q) for i in (1, 2, 3))
    [factor] = [f for f in rep.factors if tuple(f.target_axes) == v_axes]
    assert tuple(factor.given_axes) == t_prior
    v = chain(JointPMF(t_prior, np.full((q,) * 3, 1.0 / q**3)), factor)
    plane = np.where(np.indices((q,) * 3).sum(axis=0) % q == 0, 1.0 / q**2, 0.0)
    assert np.abs(marginalize(v, tuple(n for n, _ in v_axes)).probs - plane).max() <= 1e-15
    rows = ((1, 0, 0), (0, 1, 0), (q - 1, q - 1, 0))
    for ax, base in (("TA", "T"), ("WA", "W")):
        for i in (1, 2, 3):
            assert rep.derived_axes[f"{ax}{i}"] == {
                "base": (f"{base}1", f"{base}2", f"{base}3"), "coeffs": rows[i - 1], "q": q}


# ---------------------------------------------------------------------------
# factored ledger against the dense joint


def dense_entropy(joint, derived, group):
    """H(group) on a dense joint, derived linear axes materialized on a marginal."""
    lifted = sorted(n for n in group if n in derived)
    if not lifted:
        return entropy(joint, tuple(group))
    base = sorted({n for n in group if n not in derived} | {b for n in lifted for b in derived[n][0]})
    m = marginalize(joint, tuple(base))
    for name in lifted:
        bases, coeffs, q = derived[name]
        idx = [m.axis_index(b) for b in bases]
        m = add_derived_axis(
            m, name, q,
            lambda *g, idx=idx, coeffs=coeffs, q=q: sum(c * g[i] for i, c in zip(idx, coeffs)) % q)
    return entropy(m, tuple(group))


def spy_ledgers(monkeypatch):
    made = []

    class Spy(regions._EntropyLedger):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(regions, "_EntropyLedger", Spy)
    return made


def fb_block(joint, dist, channel, sfx):
    q, nu = dist.q, dist.p_u.shape[0]
    for i, cond in enumerate(dist.x_conds, start=1):
        joint = chain(joint, ConditionalPMF([(f"U{sfx}", nu), (f"T{i}{sfx}", q), (f"V{i}{sfx}", q)],
                                            [(f"X{i}{sfx}", 2)], cond.table))
    return chain(joint, ConditionalPMF([(f"X{i}{sfx}", 2) for i in (1, 2, 3)],
                                       [(f"Y{sfx}", 4)], channel.transition.table))


def fb_prior_block(dist, channel, sfx):
    """One block of the feedback law, chained factor by factor."""
    q, nu = dist.q, dist.p_u.shape[0]
    plane = np.where(np.indices((q,) * 3).sum(axis=0) % q == 0, 1.0 / q**2, 0.0)
    joint = JointPMF([(f"U{sfx}", nu)], dist.p_u.probs)
    joint = chain(joint, ConditionalPMF((), [(f"V{i}{sfx}", q) for i in (1, 2, 3)], plane))
    joint = chain(joint, ConditionalPMF((), [(f"T{i}{sfx}", q) for i in (1, 2, 3)],
                                        np.full((q,) * 3, 1.0 / q**3)))
    return fb_block(joint, dist, channel, sfx)


def dense_fb_joint(dist, channel):
    """The two-copy joint chained the old way: prior block, then V = T_prior @ A."""
    q, nu = dist.q, dist.p_u.shape[0]
    a = zero_sum_coupling(q)
    joint = fb_prior_block(dist, channel, "t")
    joint = chain(joint, ConditionalPMF((), [("U", nu)], dist.p_u.probs))
    joint = chain(joint, deterministic_conditional(
        [(f"T{i}t", q) for i in (1, 2, 3)], [(f"V{i}", q) for i in (1, 2, 3)],
        lambda *t: tuple(sum(t[r] * a[r, c] for r in range(3)) % q for c in range(3))))
    joint = chain(joint, ConditionalPMF((), [("T1", q), ("T2", q), ("T3", q)],
                                        np.full((q,) * 3, 1.0 / q**3)))
    return fb_block(joint, dist, channel, "")


def dense_hybrid_joint(source, channel, dist):
    """The hybrid law chained the old way: labels on the source, then the layers."""
    q = dist.q

    def label(joint, name, size, labels, pos):
        lab = np.asarray(labels)
        return add_derived_axis(joint, name, size, lambda *g: lab[g[pos]])

    mutual = gkw_mutual(source)
    joint = label(source.joint, "W123", mutual.component_count, mutual.labelings[0], 0)
    for b in PAIRS:
        i, j = PAIR_USERS[b]
        res = gkw_pairwise(marginalize(source.joint, (f"S{i}", f"S{j}")))
        joint = label(joint, f"W{b}", res.component_count, res.labelings[0], i - 1)
    for i, fn in enumerate(additive_common_search(source, q).functions, start=1):
        joint = label(joint, f"T{i}", q, fn, i - 1)
    joint = chain(joint, ConditionalPMF((), [("U123", dist.u123.shape[0])], dist.u123.probs))
    for b in PAIRS:
        t = dist.pair_conds[b].table
        joint = chain(joint, ConditionalPMF([(f"W{b}", t.shape[0]), ("U123", t.shape[1])],
                                            [(f"U{b}", t.shape[2])], t))
    plane = np.where(np.indices((q,) * 3).sum(axis=0) % q == 0, 1.0 / q**2, 0.0)
    joint = chain(joint, ConditionalPMF((), [("V1", q), ("V2", q), ("V3", q)], plane))
    for i in (1, 2, 3):
        t = dist.x_conds[i - 1].table
        ba, bb = USER_PAIRS[i]
        joint = chain(joint, ConditionalPMF(
            [(f"S{i}", t.shape[0]), ("U123", t.shape[1]), ("U" + ba, t.shape[2]),
             ("U" + bb, t.shape[3]), (f"V{i}", q)], [(f"X{i}", t.shape[-1])], t))
    return chain(joint, channel.transition)


def macfb_preset(seed):
    """The `region --family macfb` input law for this seed."""
    r = stream(seed, 9)
    p_u = JointPMF([("U", 2)], rows_normalized(r, (2,)))
    return MacFBDist(2, p_u, tuple(
        ConditionalPMF([("U", 2), ("T", 2), ("V", 2)], [(f"X{i}", 2)], rows_normalized(r, (2, 2, 2, 2)))
        for i in (1, 2, 3)))


def test_macfb_ledger_groups_match_the_dense_joint(monkeypatch):
    ledgers = spy_ledgers(monkeypatch)
    dist, chan = macfb_preset(0), build_quaternary_channel(0.25)
    rep = eval_macfb((0.0, 0.0, 0.0), 0.0, dist, chan)
    ledger = next(led for led in ledgers if "Y" in led.sizes)
    assert ledger.contractions > 0  # the two-copy law stays factored
    assert ledger.terms == rep.entropy_terms
    joint = dense_fb_joint(dist, chan)
    for group, bits in ledger.terms.items():
        assert abs(dense_entropy(joint, ledger.derived, group) - bits) <= 1e-12, sorted(group)


@pytest.mark.parametrize("sigma, gamma, alpha", [(0.0, None, 0.0), (0.2, 0.1, 0.4)])
def test_hybrid_ledger_groups_match_the_dense_joint(monkeypatch, sigma, gamma, alpha):
    ledgers = spy_ledgers(monkeypatch)
    source = make_sigma_gamma_triple(sigma, gamma_star(0.25) if gamma is None else gamma)
    chan = build_quaternary_channel(0.25)
    dist = hybrid_example_dist(source, alpha)
    eval_hybrid(source, chan, dist)
    (ledger,) = ledgers
    joint = dense_hybrid_joint(source, chan, dist)
    assert len(ledger.terms) > 400
    for group, bits in ledger.terms.items():
        assert abs(dense_entropy(joint, ledger.derived, group) - bits) <= 1e-12, sorted(group)


def spy_covers(monkeypatch):
    """Ledgers that record, for each computed group, the held law its plan sums it from."""
    made = []

    class Spy(regions._EntropyLedger):
        def __init__(self, *args, **kwargs):
            self.covers, self.laws = {}, {}
            super().__init__(*args, **kwargs)
            made.append(self)

        def _compute(self):
            self.covers.update(self._jobs)
            super()._compute()

        def _release(self, held):
            # a planned law is dropped after its batch: keep its tensor for the test
            self.laws.setdefault(held, JointPMF._wrap(tuple(zip(held.names, held.shape)), held.dense()))
            super()._release(held)

        def law(self, group):
            held = self.covers[group]
            return self.laws.get(held) or JointPMF._wrap(tuple(zip(held.names, held.shape)), held.dense())

    monkeypatch.setattr(regions, "_EntropyLedger", Spy)
    return made


@pytest.mark.parametrize("family, sigma, gamma, alpha", [
    ("hybrid", 0.0, None, 0.0), ("hybrid", 0.2, 0.1, 0.4), ("ces3", 0.2, 0.1, None)])
def test_ledger_terms_are_the_dense_entropy_of_their_held_law(monkeypatch, family, sigma, gamma, alpha):
    ledgers = spy_covers(monkeypatch)
    source = make_sigma_gamma_triple(sigma, gamma_star(0.25) if gamma is None else gamma)
    chan = build_quaternary_channel(0.25)
    if family == "hybrid":
        eval_hybrid(source, chan, hybrid_example_dist(source, alpha))
    else:
        eval_ces3(source, chan, product_ces_dist(
            source, product_conditionals((0.1, 0.9, 0.3, 0.2, 0.25, 0.8))))
    (ledger,) = ledgers
    assert ledger.cell_sums > 0 and set(ledger.covers) == set(ledger.terms)
    for group, bits in ledger.terms.items():
        assert bits == entropy(ledger.law(group), tuple(group)), sorted(group)


def test_a_held_law_out_of_c_order_takes_numpys_sum():
    rng = np.random.default_rng(5)
    probs = rng.random((3, 2, 4, 2)) ** 4
    probs[probs < 0.05] = 0.0
    law = JointPMF([("A", 3), ("B", 2), ("C", 4), ("D", 2)], probs / probs.sum())
    ledger = regions._EntropyLedger([ConditionalPMF.from_joint(law)])
    assert ledger._held[0].cells is not None
    view = JointPMF._wrap(law.axes[::-1], law.probs.transpose())  # a Fortran-order view
    ledger._held = []
    ledger._hold(view)
    assert ledger._held[0].cells is None
    for size in (1, 2, 3):
        for group in itertools.combinations("ABCD", size):
            assert ledger.entropy_of(group) == entropy(view, group), group
    assert ledger.cell_sums == 0 and ledger.dense_sums == 14


def test_a_row_builder_that_branches_on_a_term_is_refused():
    law = JointPMF([("A", 2), ("B", 2)], [[0.1, 0.2], [0.3, 0.4]])
    ledger = regions._EntropyLedger([ConditionalPMF.from_joint(law)])

    def reads_more():  # asks for H(B) only when H(A) is large
        if ledger.entropy_of(("A",)) > 0.5:
            ledger.entropy_of(("B",))
        return []

    def reads_less():  # asks for H(B) only when H(A) is zero
        if ledger.entropy_of(("A",)) == 0.0:
            ledger.entropy_of(("B",))
        return []

    # a builder sees expressions, which have no ordering, float equality or truth value
    for build in (reads_more, reads_less):
        with pytest.raises(TypeError):
            regions._evaluate("test", build, ledger)
    with pytest.raises(TypeError):
        regions._evaluate("test", lambda: [("a", 0.0, ledger.mi(("A",), ("B",)) or 0.0)], ledger)
    # a refused evaluation leaves the ledger usable: a bare call is an evaluation of one
    assert ledger.entropy_of(("B",)) == entropy(law, "B")


def test_a_mutual_information_below_the_clamp_names_its_family_and_row(monkeypatch, tmp_path, capsys):
    law = JointPMF([("A", 2), ("B", 2)], [[0.1, 0.2], [0.3, 0.4]])
    ledger = regions._EntropyLedger([ConditionalPMF.from_joint(law)])

    def build():
        # H(A) - H(A, B) = -H(B | A), far below MI_CLAMP, read as a mutual information
        forced = regions._Expr("clamp", regions._Expr("-", ledger.entropy_of(("A",)),
                                                      ledger.entropy_of(("A", "B"))))
        return [("fine", 0.0, ledger.mi(("A",), ("B",))), ("forced", 0.0, forced)]

    with pytest.raises(ValueError, match="^test row forced: mutual information"):
        regions._evaluate("test", build, ledger)

    class Skewed(regions._EntropyLedger):
        def _compute(self):
            super()._compute()
            self.terms[frozenset({"X1", "X2", "Y", "U"})] += 10.0  # I(X1; Y | X2, U) falls by 10 bits

    monkeypatch.setattr(regions, "_EntropyLedger", Skewed)
    assert run(["region", "--family", "cl2", "--out-dir", str(tmp_path)]) == 2
    assert "error: cl2 row rate-1: mutual information" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["ces2", "cl2", "ces3", "hybrid", "macfb"])
def test_every_family_reads_exactly_the_groups_it_planned(monkeypatch, tmp_path, family):
    ledgers, built = spy_ledgers(monkeypatch), []
    evaluate = regions._evaluate

    def spy(name, build, *args):
        calls = len(built)
        records = evaluate(name, lambda: built.append(build()) or built[-1], *args)
        assert len(built) == calls + 1  # one builder call per evaluation
        return records

    monkeypatch.setattr(regions, "_evaluate", spy)
    assert run(["region", "--family", family, "--out-dir", str(tmp_path)]) == 0
    (rows,) = built
    assert len(ledgers) == (2 if family == "macfb" else 1)  # macfb plans its W ledger alongside
    for ledger in ledgers:
        read = {group for row in rows for side in row[1:3]
                for _, led, group in regions._leaves(side) if led is ledger}
        assert read and set(ledger.terms) == read


def test_macfb_term_maps_keep_their_counts(monkeypatch, tmp_path):
    reports = []

    def spy(*args, **kwargs):
        reports.append(eval_macfb(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr("trimac.cli.eval_macfb", spy)
    assert run(["region", "--family", "macfb", "--out-dir", str(tmp_path)]) == 0
    (rep,) = reports
    assert len(rep.records) == 17
    assert len(rep.entropy_terms) == 57 and len(rep.w_entropy_terms) == 13
    assert sum(map(len, rep.mi_groups.values())) == 80
    assert sum(map(len, rep.w_groups.values())) == 22
    # every group a row reads is a computed term, and every computed term is read
    assert {g for groups in rep.mi_groups.values() for _, g in groups} == set(rep.entropy_terms)
    assert {g for groups in rep.w_groups.values() for _, g in groups} == set(rep.w_entropy_terms)


def test_each_evaluation_logs_one_ledger_line(caplog):
    chan = ConditionalPMF([("X1", 2), ("X2", 2)], [("Y", 2)], np.full((2, 2, 2), 0.5))
    half = ConditionalPMF([("U", 1)], [("X1", 2)], np.array([[0.5, 0.5]]))
    source = make_sigma_gamma_triple(0.2, 0.1)
    with caplog.at_level(logging.DEBUG, logger="trimac"):
        eval_cl2((0.1, 0.1), chan, JointPMF([("U", 1)], [1.0]), half, half)
        eval_macfb((0.0, 0.0, 0.0), 0.0, macfb_preset(0), build_quaternary_channel(0.25))
        eval_hybrid(source, build_quaternary_channel(0.25), hybrid_example_dist(source, 0.4))
    lines = [r.getMessage() for r in caplog.records if r.name == "trimac"]
    assert len(lines) == 3
    counts = [ledger_counts(line) for line in lines]
    assert lines[0].startswith("cl2: ") and counts[0]["einsum contractions"] == 0
    assert lines[1].startswith("macfb: ") and counts[1]["einsum contractions"] > 0
    # the large macfb law stays factored: no sum comes from a nonzero-cell list
    assert counts[1]["sums from nonzero cells"] == 0
    # each contraction is released after its batch: one is held at a time
    assert counts[1]["most cells held at once"] == counts[1]["largest marginal cells"]
    assert lines[2].startswith("hybrid: ") and counts[2]["sums from nonzero cells"] > 0
    # the chained law and one derived marginal's nonzero cells at a time
    assert 16384 < counts[2]["most cells held at once"] < 2 * 16384
    for c in counts:
        assert c["computed"] <= c["groups planned"] <= c["entropy groups requested"] + c["computed"]
        # one kernel call per held law and one entropy call per batch, not one per group
        assert c["batched kernel calls"] < c["computed"]


def ledger_counts(line: str) -> dict:
    """The counters of a ledger DEBUG line, by the words after each number."""
    fields = [f.strip() for f in line.split(": ", 1)[1].split(", ")]
    out = {}
    for field in fields:
        words = field.split()
        number = next(w for w in words if w.isdigit())
        out[" ".join(w for w in words if w != number)] = int(number)
    return out


def test_macfb_at_q3_evaluates_without_the_dense_joint():
    rng = np.random.default_rng(38)
    dist = MacFBDist(3, JointPMF([("U", 2)], rows_normalized(rng, (2,))), tuple(
        ConditionalPMF([("U", 2), ("T", 3), ("V", 3)], [(f"X{i}", 2)], rows_normalized(rng, (2, 3, 3, 2)))
        for i in (1, 2, 3)))
    chan = build_quaternary_channel(0.25)
    alpha = 0.3
    tracemalloc.start()
    try:
        rep = eval_macfb((alpha * math.log2(3),) * 3, alpha, dist, chan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 14 contractions, the largest 6.7M cells; holding every one to the end peaked at 266 MiB
    assert peak < 200 * 2**20
    assert len(rep.records) == 17
    for i in (1, 2, 3):
        r = rep.record(f"rate-match-{i}")
        assert r.lhs == pytest.approx(alpha * rep.w_entropy_terms[frozenset({f"W{i}"})], abs=1e-12)
        assert r.lhs == pytest.approx(alpha * math.log2(3), abs=1e-12)
        assert r.satisfied

    # the current block alone is a 46,656-cell law with the prior block's shape
    block = fb_prior_block(dist, chan, "")
    assert block.probs.size == 2 * 27 * 27 * 8 * 4
    derived = {n: (d["base"], d["coeffs"], d["q"]) for n, d in rep.derived_axes.items()}
    current = {"U", "Y"} | {f"{ax}{i}" for ax in ("T", "V", "X", "TA") for i in (1, 2, 3)}
    checked = 0
    for group, bits in rep.entropy_terms.items():
        if group <= current:
            assert abs(dense_entropy(block, derived, group) - bits) <= 1e-12, sorted(group)
            checked += 1
    assert checked >= 10

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            rep.joint  # 46,656**2 cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6



# ---------------------------------------------------------------------------
# cross-family invariants, validation, reports


def test_constant_output_channel_zeroes_every_mi_bound():
    pair = JointPMF([("S1", 2), ("S2", 2)], np.full((2, 2), 0.25))
    const2 = np.zeros((2, 2, 2))
    const2[..., 0] = 1.0
    dist2 = CES2Dist(JointPMF([("U12", 1)], [1.0]),
                     ConditionalPMF([("S1", 2), ("U12", 1)], [("X1", 2)],
                                    np.full((2, 1, 2), 0.5)),
                     ConditionalPMF([("S2", 2), ("U12", 1)], [("X2", 2)],
                                    np.full((2, 1, 2), 0.5)))
    rep2 = eval_ces2(pair, ConditionalPMF([("X1", 2), ("X2", 2)], [("Y", 2)], const2), dist2)
    assert all(r.rhs <= 1e-12 for r in rep2.records)
    assert not rep2.satisfied

    const3 = np.zeros((2, 2, 2, 2))
    const3[..., 0] = 1.0
    chan = DMChannel("const", ConditionalPMF(
        [("X1", 2), ("X2", 2), ("X3", 2)], [("Y", 2)], const3))
    source = make_sigma_gamma_triple(0.2, 0.3)
    dist = product_ces_dist(source, product_conditionals((0.1, 0.8, 0.3, 0.6, 0.2, 0.9)))
    rep3 = eval_ces3(source, chan, dist)
    assert all(r.rhs <= 1e-12 for r in rep3.records)
    reph = eval_hybrid(source, chan, lift_ces_to_hybrid(dist, 2))
    assert all(r.rhs <= 1e-12 for r in reph.records)

    cl = eval_cl2((0.0, 0.0), ConditionalPMF([("X1", 2), ("X2", 2)], [("Y", 2)], const2),
                  JointPMF([("U", 1)], [1.0]),
                  ConditionalPMF([("U", 1)], [("X1", 2)], np.array([[0.5, 0.5]])),
                  ConditionalPMF([("U", 1)], [("X2", 2)], np.array([[0.5, 0.5]])))
    assert cl.satisfied
    assert all(r.rhs <= 1e-12 for r in cl.records)


def test_shape_and_structure_validation():
    with pytest.raises(FactorizationError):
        CES2Dist(JointPMF([("A", 2), ("B", 2)], np.full((2, 2), 0.25)),
                 ConditionalPMF([("S1", 2), ("U12", 2)], [("X1", 2)], np.full((2, 2, 2), 0.5)),
                 ConditionalPMF([("S2", 2), ("U12", 2)], [("X2", 2)], np.full((2, 2, 2), 0.5)))
    trivial = ConditionalPMF([("W", 1), ("U123", 1)], [("U", 1)], np.ones((1, 1, 1)))
    with pytest.raises(FactorizationError):
        CESDist(JointPMF([("U123", 1)], [1.0]), {"12": trivial, "13": trivial},
                (trivial, trivial, trivial))
    with pytest.raises(ValueError):
        HybridDist(4, JointPMF([("U123", 1)], [1.0]),
                   {b: trivial for b in PAIRS}, (trivial, trivial, trivial))
    with pytest.raises(FactorizationError):
        MacFBDist(2, JointPMF([("U", 2)], [0.5, 0.5]),
                  tuple(ConditionalPMF([("U", 2), ("T", 2)], [("X", 2)], np.full((2, 2, 2), 0.5))
                        for _ in range(3)))

    # pair layer sized for the wrong source
    structured = make_sigma_gamma_triple(0.0, 0.3)
    dist = product_ces_dist(structured, product_conditionals((0.1, 0.9, 0.2, 0.8, 0.3, 0.7)))
    with pytest.raises(FactorizationError):
        eval_ces3(make_sigma_gamma_triple(0.1, 0.3), build_quaternary_channel(0.25), dist)

    # an input conditional over the wrong source alphabet, or into the wrong channel alphabet
    layered = xor_layered_dist()
    for shape, match in (((3, 2, 2, 2, 2), "conditional covers"), ((2, 2, 2, 2, 3), "conditional feeds")):
        x1 = ConditionalPMF([("S1", shape[0]), ("U123", 2), ("U12", 2), ("U13", 2)],
                            [("X1", shape[-1])], np.full(shape, 1.0 / shape[-1]))
        bad = CESDist(layered.u123, layered.pair_conds, (x1, *layered.x_conds[1:]))
        with pytest.raises(FactorizationError, match=match):
            regions.three_user_factors(diag_source(), build_additive_pair_channel(0.1), bad)

    # no zero-sum relabeling exists for independent uniform bits
    iid = SourceModel(JointPMF([("S1", 2), ("S2", 2), ("S3", 2)], np.full((2, 2, 2), 0.125)))
    lifted = lift_ces_to_hybrid(
        product_ces_dist(iid, product_conditionals((0.1, 0.9, 0.2, 0.8, 0.3, 0.7))), 2)
    with pytest.raises(ValueError):
        eval_hybrid(iid, build_quaternary_channel(0.25), lifted)

    with pytest.raises(ValueError):
        hybrid_example_dist(make_sigma_gamma_triple(0.0, 0.3), 1.5)


def test_inequality_record_and_report_conventions():
    r = InequalityRecord("a", 1.0, 1.5)
    assert r.slack == 0.5
    assert r.satisfied
    assert InequalityRecord("b", 1.0, 1.0 - 5e-10).satisfied
    assert not InequalityRecord("c", 1.0, 0.9).satisfied
    eq = InequalityRecord("d", 1.0, 1.2, equality=True)
    assert eq.slack == pytest.approx(-0.2)
    assert not eq.satisfied
    assert InequalityRecord("e", 1.0, 1.0, equality=True).satisfied

    table = np.zeros((2, 2, 3))
    for x1, x2 in itertools.product(range(2), repeat=2):
        table[x1, x2, x1 + x2] = 1.0
    rep = eval_cl2((0.5, 0.5), ConditionalPMF([("X1", 2), ("X2", 2)], [("Y", 3)], table),
                   JointPMF([("U", 1)], [1.0]),
                   ConditionalPMF([("U", 1)], [("X1", 2)], np.array([[0.5, 0.5]])),
                   ConditionalPMF([("U", 1)], [("X2", 2)], np.array([[0.5, 0.5]])))
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["family"] == "cl2"
    assert blob["satisfied"] is True
    assert len(blob["records"]) == 3
    with pytest.raises(KeyError):
        rep.record("missing")
