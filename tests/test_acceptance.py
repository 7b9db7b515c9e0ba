"""Top-level acceptance checks, one per headline property.

Each test pins the deliverable behavior at its stated tolerance: exact
combinatorial identities, closed-form entropy values, single-letter region
evaluations, and the finite-blocklength Monte Carlo trends that the
asymptotic claims imply.  Seeds are fixed; every run reproduces the same
numbers.  Expensive searches and simulations sit here rather than in the
module tests, so this file is the slow lane (a few minutes end to end).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import bisect

from trimac.channels import (
    build_additive_pair_channel,
    build_quaternary_channel,
    quaternary_noise_law,
)
from trimac.coding import build_linear_jscc, ml_decode_additive_pair, monte_carlo_error
from trimac.commonparts import affine_unstructuredness, memoryless_unstructuredness
from trimac.gfcore import verify_image_probability
from trimac.macfb import FBConfig, linear_codebook, ptp_simulation, run_fb_simulation, sumset
from trimac.probcore import (
    ConditionalPMF,
    JointPMF,
    binary_entropy,
    binary_entropy_inverse,
    chain,
    entropy,
    mutual_information,
    sample_cells,
)
from trimac.regions import (
    MacFBDist,
    ProductSearchConfig,
    eta1,
    eta2,
    eval_ces3,
    eval_hybrid,
    eval_macfb,
    example_conditions,
    gamma_star,
    hybrid_example_dist,
    max_product_mi,
    product_ces_dist,
    product_conditionals,
    sigma0_frontier,
    tv_bound_check,
)
from trimac.rng import stream
from trimac.sources import make_additive_triple, make_sigma_gamma_triple

from region_fixtures import HYBRID_CES3_SHARED, lift_ces_to_hybrid

DELTA = 0.25


def quaternary_capacity(delta: float) -> float:
    return 2.0 - entropy(JointPMF([("N", 4)], quaternary_noise_law(delta)))


def test_image_probability_identity_is_exact():
    for q, k, n in ((2, 1, 1), (2, 2, 2), (2, 3, 2), (3, 1, 2), (3, 2, 2)):
        report = verify_image_probability(q, k, n)
        assert report.ok
        assert report.max_abs_deviation == 0.0, (q, k, n)


def test_noise_entropy_closed_form():
    for delta in np.linspace(0.25 / 25, 0.25, 25):
        h = entropy(JointPMF([("N", 4)], quaternary_noise_law(float(delta))))
        assert h == pytest.approx(1.0 + 0.5 * binary_entropy(2.0 * float(delta)), abs=1e-12)


def test_structured_law_attains_capacity_and_product_search_falls_short():
    cap = quaternary_capacity(DELTA)
    chan = build_quaternary_channel(DELTA)

    probs = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            probs[a, b, a ^ b] = 0.25
    law = JointPMF([("X1", 2), ("X2", 2), ("X3", 2)], probs)
    joint = chain(law, chan.transition)
    mi = mutual_information(joint, ("X1", "X2", "X3"), ("Y",))
    assert mi == pytest.approx(cap, abs=1e-10)

    gstar = gamma_star(DELTA)
    margins = {}
    for sigma in (0.02, 0.05, 0.1):
        result = max_product_mi(chan, make_sigma_gamma_triple(sigma, gstar))
        margins[sigma] = cap - result.value
        assert margins[sigma] >= 1e-3, sigma
    worst = min(margins, key=margins.get)
    refined = max_product_mi(
        chan, make_sigma_gamma_triple(worst, gstar), ProductSearchConfig(coarse_step=0.05)
    )
    assert cap - refined.value >= 1e-3
    assert abs((cap - refined.value) - margins[worst]) <= 1e-3


def test_identical_linear_error_decreases_with_blocklength():
    chan = build_additive_pair_channel(0.1)

    def sweep(p):
        src = make_additive_triple(p, p)
        return [
            monte_carlo_error(
                chan, lambda s, n=n: build_linear_jscc(src, 2, n, s), ml_decode_additive_pair, 2000, 0
            )
            for n in (8, 12, 16)
        ]

    sparse = sweep(binary_entropy_inverse(0.3))
    assert sparse[0].p_hat > sparse[1].p_hat > sparse[2].p_hat
    assert sparse[2].ci_hi < sparse[0].ci_lo  # 95% intervals do not touch

    dense = sweep(binary_entropy_inverse(0.8))
    assert all(rep.p_hat >= 0.2 for rep in dense)


def test_structure_measure_separates_linear_from_memoryless():
    source = make_additive_triple(0.3, 0.3)

    linear = affine_unstructuredness(source, 2, n=6)
    parity_mask = sum(
        1 << ((x1 * 2 + x2) * 2 + x3)
        for x1 in range(2) for x2 in range(2) for x3 in range(2) if x1 ^ x2 ^ x3
    )
    assert linear.probabilities[parity_mask - 1] == 1.0
    assert linear.delta == 0.0

    eps = 0.1
    a = eps ** (1 / 3)  # per-user entry; joint conditional minimum is exactly eps
    table = np.array([[1 - a, a], [a, 1 - a]])
    ces = memoryless_unstructuredness(source, [table] * 3, n=6)
    assert ces.probabilities.max() <= (1 - eps) ** 6
    assert ces.delta > 0.0


def test_threshold_frontier_machinery():
    cap = quaternary_capacity(DELTA)
    gstar = gamma_star(DELTA)
    oracle = bisect(lambda x: binary_entropy(x) - cap, 1e-12, 0.5, xtol=1e-14)
    assert abs(gstar - oracle) <= 1e-6

    assert eta1(0.0, DELTA) == pytest.approx(0.0, abs=1e-12)
    assert eta2(0.0, DELTA) == pytest.approx(0.0, abs=1e-12)
    for alpha in np.linspace(0.025, 0.5, 20):
        assert eta1(float(alpha), DELTA) > 0.0
        assert eta2(float(alpha), DELTA) > 0.0

    gammas = np.linspace(0.0, gstar, 22)[1:21]
    points = [sigma0_frontier(float(g), DELTA) for g in gammas]
    assert all(p.sigma0 > 0.0 for p in points)
    assert sigma0_frontier(gstar, DELTA).sigma0 == 0.0
    for p in points:
        report = example_conditions(p.sigma0 / 2, p.gamma, DELTA, p.alpha)
        assert report.satisfied, p.gamma


def test_wedge_point_separates_hybrid_from_layered():
    chan = build_quaternary_channel(DELTA)
    gstar = gamma_star(DELTA)
    gamma = gstar - 0.01
    point = sigma0_frontier(gamma, DELTA)
    assert point.sigma0 > 0.0
    source = make_sigma_gamma_triple(point.sigma0, gamma)

    hybrid = eval_hybrid(source, chan, hybrid_example_dist(source, point.alpha))
    assert hybrid.satisfied

    search = max_product_mi(chan, source)
    for _, params in search.candidates:
        dist = product_ces_dist(source, product_conditionals(params))
        record = eval_ces3(source, chan, dist).record("sum")
        assert record.slack < 0.0, params


def test_sampled_product_laws_stay_tv_far_from_structured_family():
    report = tv_bound_check(DELTA, 200, 0)
    assert len(report.samples) == 200
    assert report.satisfied
    assert report.min_tv >= 1.0 / 6.0 - gamma_star(DELTA) / 3.0 - 0.01


def test_feedback_example_trends_and_structure_metrics():
    short = run_fb_simulation(FBConfig(3, 8, 2001, 0.1, 0))
    long = run_fb_simulation(FBConfig(5, 16, 2001, 0.1, 0))
    for kind in ("sum", "message"):
        assert long.error_rate(kind) < short.error_rate(kind)
        assert long.error_ci(kind)[1] < short.error_ci(kind)[0], kind

    for fb in (short, long):
        ptp = ptp_simulation(fb.config)
        lo, hi = fb.error_ci("sum")
        assert max(lo, ptp.ci_lo) <= min(hi, ptp.ci_hi)  # intervals overlap

    for seed in range(20):
        g = stream(seed, 21).integers(0, 2, (8, 16))
        code = linear_codebook(g)
        assert sumset(code, code).gap == 0.0
        books = stream(seed, 22).integers(0, 2, (2, 256, 16))
        assert sumset(books[0], books[1]).gap >= 0.3 * (8 / 16)


def _plug_in_entropy(codes: np.ndarray, count: int) -> float:
    """Miller-Madow corrected plug-in; raw bias would eat the tolerance."""
    _, counts = np.unique(codes, return_counts=True)
    p = counts / count
    return float(-(p * np.log2(p)).sum()) + (counts.size - 1) / (2 * count * math.log(2))


def test_feedback_evaluator_cross_checks():
    count = 10**6

    # estimator sanity on known-entropy laws before trusting it below
    flat = JointPMF([("Z", 4096)], np.full(4096, 1.0 / 4096))
    (z,) = sample_cells(flat, count, stream(0, 13))
    assert abs(_plug_in_entropy(z, count) - 12.0) < 0.01
    bern = np.array([0.7, 0.3])
    prod = JointPMF([(f"B{i}", 2) for i in range(10)],
                    np.einsum("a,b,c,d,e,f,g,h,i,j->abcdefghij", *([bern] * 10)))
    cols = sample_cells(prod, count, stream(0, 14))
    code = np.zeros(count, dtype=np.int64)
    for col in cols:
        code = code * 2 + col
    assert abs(_plug_in_entropy(code, count) - 10 * binary_entropy(0.3)) < 0.01

    r = stream(0, 10)

    def norm(rows):
        return rows / rows.sum(axis=-1, keepdims=True)

    p_u = JointPMF([("U", 2)], norm(r.random(2) + 0.05))
    x_conds = tuple(
        ConditionalPMF([("U", 2), ("T", 2), ("V", 2)], [(f"X{i}", 2)],
                       norm(r.random((2, 2, 2, 2)) + 0.05))
        for i in (1, 2, 3)
    )
    w_laws = (np.array([0.7, 0.3]), np.array([0.6, 0.4]), np.array([0.9, 0.1]))
    alpha = 0.25
    rates = tuple(alpha * binary_entropy(float(w[1])) for w in w_laws)
    report = eval_macfb(rates, alpha, MacFBDist(2, p_u, x_conds),
                        build_quaternary_channel(DELTA), w_laws=w_laws)

    sizes = dict(report.joint.axes)
    cells = dict(zip(sizes, sample_cells(report.joint, count, stream(0, 11))))
    w_sizes = dict(report.w_joint.axes)
    w_cells = dict(zip(w_sizes, sample_cells(report.w_joint, count, stream(0, 12))))
    for name, info in report.derived_axes.items():
        if name in cells or name in w_cells:  # WA axes ride along with w_joint
            continue
        acc = np.zeros(count, dtype=np.int64)
        for base, coeff in zip(info["base"], info["coeffs"]):
            acc += coeff * cells[base]
        cells[name] = acc % info["q"]
        sizes[name] = info["q"]

    checked = 0
    for terms, pool, dims in ((report.entropy_terms, cells, sizes),
                              (report.w_entropy_terms, w_cells, w_sizes)):
        for group, exact in terms.items():
            code = np.zeros(count, dtype=np.int64)
            for name in sorted(group):
                code = code * dims[name] + pool[name]
            assert abs(_plug_in_entropy(code, count) - exact) < 0.01, sorted(group)
            checked += 1
    assert checked == len(report.entropy_terms) + len(report.w_entropy_terms)

    # vacuous side randomness collapses the hybrid rows onto the layered ones
    source = make_sigma_gamma_triple(0.0, 0.15)
    chan = build_quaternary_channel(DELTA)
    dist = product_ces_dist(source, product_conditionals((0.2, 0.8, 0.4, 0.1, 0.35, 0.9)))
    base = eval_ces3(source, chan, dist)
    lifted = eval_hybrid(source, chan, lift_ces_to_hybrid(dist, 2))
    assert len(HYBRID_CES3_SHARED) == 18
    for hybrid_id, layered_id in HYBRID_CES3_SHARED:
        assert lifted.record(hybrid_id).lhs == pytest.approx(
            base.record(layered_id).lhs, abs=1e-10)
        assert lifted.record(hybrid_id).rhs == pytest.approx(
            base.record(layered_id).rhs, abs=1e-10)
