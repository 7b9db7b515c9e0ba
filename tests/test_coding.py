import itertools
import sys
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import binomtest

from trimac import coding
from trimac.channels import (
    DMChannel,
    build_additive_pair_channel,
    build_quaternary_channel,
    transmit,
)
from trimac.coding import (
    MAX_CANDIDATES,
    DecodeResult,
    SimReport,
    build_hybrid_scheme,
    build_layered_ces,
    build_linear_jscc,
    build_unstructured_jscc,
    ml_decode,
    ml_decode_additive_pair,
    monte_carlo_error,
    typicality_decode,
    wilson_interval,
)
from trimac.probcore import (
    ConditionalPMF,
    JointPMF,
    binary_entropy_inverse,
    entropy,
    marginalize,
    mixed_radix,
    mutual_information,
    radix_ids,
)
from trimac.rng import stream
from trimac.sources import (
    SourceModel,
    make_additive_triple,
    make_sigma_gamma_triple,
    sample_iid,
)


def diag_source():
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = 0.4
    probs[1, 1, 1] = 0.6
    return SourceModel(JointPMF([("S1", 2), ("S2", 2), ("S3", 2)], probs))


def identity_pair_cond(b, w, u):
    table = np.zeros((w, u, w))
    for wv in range(w):
        table[wv, :, wv] = 1.0
    return ConditionalPMF([(f"W{b}", w), ("U123", u)], [(f"U{b}", w)], table)


def trivial_pair_cond(b, u):
    return ConditionalPMF([(f"W{b}", 1), ("U123", u)], [(f"U{b}", 1)], np.ones((1, u, 1)))


# ---------------------------------------------------------------- linear


def test_linear_blocks_are_zero_sum():
    src = make_sigma_gamma_triple(0.1, 0.2)
    for seed in range(5):
        scheme = build_linear_jscc(src, 2, 9, seed)
        s = sample_iid(src, 9, seed + 100)
        x1, x2, x3 = scheme.encode(*s)
        assert np.array_equal((x1 + x2 + x3) % 2, np.zeros(9, dtype=np.int64))


def test_linear_is_affine_with_shared_matrix():
    src = make_additive_triple(0.2, 0.3)
    scheme = build_linear_jscc(src, 2, 6, seed=7)
    g = scheme.meta["matrix"]
    b1, b2, b3 = scheme.meta["offsets"]
    assert np.array_equal((b1 + b2 + b3) % 2, np.zeros(6, dtype=np.int64))
    s = np.array([1, 0, 1, 1, 0, 0])
    assert np.array_equal(scheme.expand(1, s[None])["X1"][0], (s @ g + b1) % 2)
    assert np.array_equal(scheme.expand(3, s[None])["X3"][0], (s @ g + b3) % 2)
    # a stacked expansion agrees with row-by-row expansions
    batch = np.stack([s, 1 - s])
    out = scheme.expand(2, batch)["X2"]
    assert np.array_equal(out[1], scheme.expand(2, (1 - s)[None])["X2"][0])


def test_linear_design_joint_input_marginal():
    src = make_sigma_gamma_triple(0.15, 0.25)
    ch = build_additive_pair_channel(0.1)
    design = build_linear_jscc(src, 2, 4, seed=0).design_joint(ch)
    x = marginalize(design, ("X1", "X2", "X3")).probs
    for t in np.argwhere(x > 0):
        assert (t[0] + t[1] + t[2]) % 2 == 0
        assert x[tuple(t)] == pytest.approx(0.25, abs=1e-15)
    assert mutual_information(design, ("X1", "X2"), ("S1", "S2", "S3")) == pytest.approx(
        0.0, abs=1e-12
    )


def test_linear_rejects_oversized_symbols():
    src = diag_source()
    with pytest.raises(ValueError):
        build_linear_jscc(src, 1, 4, seed=0)


# ---------------------------------------------------------------- unstructured


def test_unstructured_codewords_deterministic_and_block_keyed():
    src = make_sigma_gamma_triple(0.2, 0.2)
    cond = [np.array([[0.9, 0.1], [0.3, 0.7]])] * 3
    a = build_unstructured_jscc(src, cond, 8, seed=3)
    b = build_unstructured_jscc(src, cond, 8, seed=3)
    blk = np.array([0, 1, 1, 0, 0, 1, 0, 1])

    def x1(scheme, block):
        return scheme.expand(1, block[None])["X1"][0]

    assert np.array_equal(x1(a, blk), x1(b, blk))
    assert np.array_equal(x1(a, blk), x1(a, blk))
    other = build_unstructured_jscc(src, cond, 8, seed=4)
    diffs = [not np.array_equal(x1(other, np.roll(blk, k)), x1(a, np.roll(blk, k))) for k in range(4)]
    assert any(diffs)


def test_unstructured_design_matches_conditionals():
    src = make_additive_triple(0.3, 0.4)
    tables = [
        np.array([[0.8, 0.2], [0.1, 0.9]]),
        np.array([[0.6, 0.4], [0.5, 0.5]]),
        np.array([[0.7, 0.3], [0.2, 0.8]]),
    ]
    ch = build_additive_pair_channel(0.1)
    design = build_unstructured_jscc(src, tables, 4, seed=0).design_joint(ch)
    sx = marginalize(design, ("S2", "X2")).probs
    got = sx / sx.sum(axis=1, keepdims=True)
    assert np.abs(got - tables[1]).max() < 1e-12
    # codewords drawn independently across users given own source
    assert mutual_information(design, "X1", ("S2", "S3", "X2", "X3"), given="S1") == pytest.approx(
        0.0, abs=1e-10
    )


def test_unstructured_rejects_bad_tables():
    src = make_additive_triple(0.3, 0.4)
    bad = [np.array([[0.8, 0.3], [0.1, 0.9]])] * 3
    with pytest.raises(ValueError):
        build_unstructured_jscc(src, bad, 4, seed=0)


# ---------------------------------------------------------------- layered


def layered_dist_diag():
    u123 = JointPMF([("U123", 2)], np.array([0.5, 0.5]))
    pair_conds = {b: identity_pair_cond(b, 2, 2) for b in ("12", "13", "23")}
    x_conds = []
    for i, (bj, bk) in ((1, ("12", "13")), (2, ("12", "23")), (3, ("13", "23"))):
        table = np.zeros((2, 2, 2, 2, 2))
        for s in range(2):
            for u in range(2):
                table[s, u, :, :, s ^ u] = 1.0
        x_conds.append(
            ConditionalPMF(
                [(f"S{i}", 2), ("U123", 2), (f"U{bj}", 2), (f"U{bk}", 2)],
                [(f"X{i}", 2)],
                table,
            )
        )
    return SimpleNamespace(u123=u123, pair_conds=pair_conds, x_conds=x_conds)


def test_layered_cloud_codewords_shared_across_users():
    src = diag_source()
    dist = layered_dist_diag()
    scheme = build_layered_ces(src, dist, 10, seed=11)
    s1, s2, s3 = sample_iid(src, 10, seed=5)
    assert np.array_equal(s1, s2) and np.array_equal(s1, s3)
    x1, x2, x3 = scheme.encode(s1, s2, s3)
    # x_i = s_i xor u123 with one shared cloud codeword
    assert np.array_equal(x1 ^ s1, x2 ^ s2)
    assert np.array_equal(x1 ^ s1, x3 ^ s3)
    layers = scheme.layer_blocks(s1, s2, s3)
    assert np.array_equal(layers["U123"], x1 ^ s1)
    assert np.array_equal(layers["W123"], s1)
    assert np.array_equal(layers["U12"], layers["W12"])


def test_layered_design_independence_and_factorization():
    src = diag_source()
    dist = layered_dist_diag()
    ch = build_additive_pair_channel(0.1)
    design = build_layered_ces(src, dist, 6, seed=0).design_joint(ch)
    assert mutual_information(design, "U123", ("W123", "S1", "S2", "S3")) == pytest.approx(
        0.0, abs=1e-10
    )
    u = marginalize(design, "U123").probs
    assert np.abs(u - np.array([0.5, 0.5])).max() < 1e-12
    sx = marginalize(design, ("S1", "U123", "X1")).probs
    for s in range(2):
        for uu in range(2):
            row = sx[s, uu]
            if row.sum() > 0:
                assert row[s ^ uu] == pytest.approx(row.sum(), abs=1e-12)
    names = set(design.names)
    assert {"W123", "W12", "W13", "W23", "U123", "U12", "U13", "U23"} <= names


def test_layered_rejects_mismatched_pair_table():
    src = diag_source()
    dist = layered_dist_diag()
    dist.pair_conds["12"] = trivial_pair_cond("12", 2)
    with pytest.raises(ValueError):
        build_layered_ces(src, dist, 6, seed=0)


# ---------------------------------------------------------------- hybrid


def hybrid_dist_passthrough():
    u123 = JointPMF([("U123", 1)], np.array([1.0]))
    pair_conds = {b: trivial_pair_cond(b, 1) for b in ("12", "13", "23")}
    x_conds = []
    for i, (bj, bk) in ((1, ("12", "13")), (2, ("12", "23")), (3, ("13", "23"))):
        table = np.zeros((2, 1, 1, 1, 2, 2))
        for v in range(2):
            table[:, 0, 0, 0, v, v] = 1.0
        x_conds.append(
            ConditionalPMF(
                [(f"S{i}", 2), ("U123", 1), (f"U{bj}", 1), (f"U{bk}", 1), (f"V{i}", 2)],
                [(f"X{i}", 2)],
                table,
            )
        )
    return SimpleNamespace(q=2, u123=u123, pair_conds=pair_conds, x_conds=x_conds)


def test_hybrid_affine_layer_structure():
    src = make_sigma_gamma_triple(0.1, 0.15)
    scheme = build_hybrid_scheme(src, hybrid_dist_passthrough(), 8, seed=2)
    s = sample_iid(src, 8, seed=9)
    x1, x2, x3 = scheme.encode(*s)
    assert np.array_equal((x1 + x2 + x3) % 2, np.zeros(8, dtype=np.int64))
    layers = scheme.layer_blocks(*s)
    g = scheme.meta["matrix"]
    b1 = scheme.meta["offsets"][0]
    # additive part of this source is the identity triple
    assert np.array_equal(layers["T1"], s[0])
    assert np.array_equal(layers["V1"], (s[0] @ g + b1) % 2)
    assert np.array_equal(layers["V1"], x1)


def test_hybrid_design_v_independent_of_sources():
    src = make_sigma_gamma_triple(0.1, 0.15)
    ch = build_additive_pair_channel(0.1)
    design = build_hybrid_scheme(src, hybrid_dist_passthrough(), 4, seed=0).design_joint(ch)
    assert mutual_information(design, ("V1", "V2"), ("S1", "S2", "S3")) == pytest.approx(
        0.0, abs=1e-10
    )
    x = marginalize(design, ("X1", "X2", "X3")).probs
    for t in np.argwhere(x > 0):
        assert (t[0] + t[1] + t[2]) % 2 == 0
        assert x[tuple(t)] == pytest.approx(0.25, abs=1e-15)
    assert "T1" in design.names and "V3" in design.names


def test_hybrid_requires_additive_part():
    probs = np.full((2, 2, 2), 1 / 8)
    src = SourceModel(JointPMF([("S1", 2), ("S2", 2), ("S3", 2)], probs))
    with pytest.raises(ValueError):
        build_hybrid_scheme(src, hybrid_dist_passthrough(), 4, seed=0)


# ---------------------------------------------------------------- ML decoding


def oracle_map_decode(channel, scheme, y):
    """Posterior maximization in the probability domain, one product per
    candidate, written independently of the log-domain implementation."""
    src = scheme.source
    support = [tuple(t) for t in src.support()]
    probs = src.joint.probs
    table = channel.transition.table
    n = len(y)
    best_p, best, ties = -1.0, None, 0
    for cand in itertools.product(support, repeat=n):
        s1 = np.array([c[0] for c in cand])
        s2 = np.array([c[1] for c in cand])
        s3 = np.array([c[2] for c in cand])
        x1, x2, x3 = scheme.encode(s1, s2, s3)
        p = 1.0
        for j in range(n):
            p *= probs[s1[j], s2[j], s3[j]] * table[x1[j], x2[j], x3[j], y[j]]
        if p > best_p:
            best_p, best, ties = p, (s1, s2, s3), 1
        elif p == best_p:
            ties += 1
    if best_p <= 0.0 or ties > 1:
        return None
    return best


def test_ml_decode_matches_probability_domain_oracle():
    src = make_additive_triple(0.15, 0.25)
    ch = build_additive_pair_channel(0.12)
    for seed in range(6):
        scheme = build_linear_jscc(src, 2, 4, seed)
        s = sample_iid(src, 4, seed + 50)
        x = scheme.encode(*s)
        y = transmit(ch, x, seed + 90)
        got = ml_decode(ch, scheme, y)
        want = oracle_map_decode(ch, scheme, y)
        if want is None:
            assert not got.ok
        else:
            assert got.ok
            for a, b in zip(got.blocks, want):
                assert np.array_equal(a, b)


def test_ml_decode_candidate_guard():
    src = make_additive_triple(0.2, 0.2)
    ch = build_additive_pair_channel(0.1)
    scheme = build_linear_jscc(src, 2, 16, seed=0)
    with pytest.raises(ValueError):
        ml_decode(ch, scheme, np.zeros(16, dtype=np.int64))


def test_factored_decoder_agrees_with_full_ml():
    p = binary_entropy_inverse(0.3)
    src = make_additive_triple(p, p)
    ch = build_additive_pair_channel(0.1)
    checked_ok = 0
    for seed in range(20):
        scheme = build_linear_jscc(src, 2, 8, seed)
        s = sample_iid(src, 8, seed + 500)
        y = transmit(ch, scheme.encode(*s), seed + 900)
        full = ml_decode(ch, scheme, y)
        fast = ml_decode_additive_pair(ch, scheme, y)
        assert full.ok == fast.ok
        if full.ok:
            checked_ok += 1
            for a, b in zip(full.blocks, fast.blocks):
                assert np.array_equal(a, b)
    assert checked_ok >= 15


def test_factored_decoder_rejects_dependent_pair():
    src = make_sigma_gamma_triple(0.1, 0.2)
    ch = build_additive_pair_channel(0.1)
    scheme = build_linear_jscc(src, 2, 6, seed=0)
    with pytest.raises(ValueError):
        ml_decode_additive_pair(ch, scheme, np.zeros(6, dtype=np.int64))


# ---------------------------------------------------------------- candidate space


def old_candidates(scheme, n):
    """The per-call enumerator the candidate space replaced: digit rows and ids per chunk."""
    support = scheme.source.support()
    m = support.shape[0]
    total = coding.check_decode_cost(m, n, 1)
    symbols, codes = zip(*(np.unique(support[:, i], return_inverse=True) for i in range(3)))
    tables = []
    for user, sym in enumerate(symbols, start=1):
        blocks = sym[mixed_radix(np.arange(len(sym)**n), len(sym), n)]
        tables.append({f"S{user}": blocks, **scheme.expand(user, blocks)})

    def chunks():
        for start in range(0, total, coding._CHUNK):
            digits = mixed_radix(np.arange(start, min(start + coding._CHUNK, total)), m, n)
            yield digits, [radix_ids(code[digits], len(sym)) for code, sym in zip(codes, symbols)]

    return support, tables, chunks()


def old_ml_decode(channel, scheme, y_block):
    """The generic ML decoder as it was before the candidate space, kept as an oracle."""
    y = np.asarray(y_block, dtype=np.int64)
    n = y.shape[0]
    support, tables, chunks = old_candidates(scheme, n)
    with np.errstate(divide="ignore"):
        log_t = np.log(channel.transition.table)
        log_prior = np.log(scheme.source.support_probs())
    best_score, best_digits, tie = -np.inf, None, False
    for digits, ids in chunks:
        x1, x2, x3 = (tab[f"X{u}"][i] for u, (tab, i) in enumerate(zip(tables, ids), start=1))
        scores = log_t[x1, x2, x3, y].sum(axis=1) + log_prior[digits].sum(axis=1)
        top = int(np.argmax(scores))
        top_score = float(scores[top])
        count = int((scores == top_score).sum())
        if top_score > best_score:
            best_score, best_digits, tie = top_score, digits[top], count > 1
        elif top_score == best_score:
            tie = True
    if best_score == -np.inf:
        return DecodeResult(None, "zero-likelihood")
    if tie:
        return DecodeResult(None, "tie")
    return DecodeResult(tuple(support[:, i][best_digits] for i in range(3)))


def same_result(a, b):
    return a.failure == b.failure and (a.blocks is None) == (b.blocks is None) and (
        a.blocks is None or all(np.array_equal(u, v) for u, v in zip(a.blocks, b.blocks)))


def flat_channel(rows):
    """A channel whose every input triple has the output row `rows`."""
    table = np.broadcast_to(np.asarray(rows, dtype=float), (2, 2, 2, len(rows))).copy()
    cond = ConditionalPMF([("X1", 2), ("X2", 2), ("X3", 2)], [("Y", len(rows))], table)
    return DMChannel("flat", cond, {})


def scheme_for(kind, src, n, seed):
    if kind == "linear":
        return build_linear_jscc(src, 2, n, seed)
    return build_unstructured_jscc(src, [np.array([[0.8, 0.2], [0.3, 0.7]])] * 3, n, seed)


@pytest.mark.parametrize("kind", ["linear", "unstructured"])
def test_ml_decode_equals_the_per_call_enumerator(kind):
    sources = (make_additive_triple(0.2, 0.35), make_sigma_gamma_triple(0.1, 0.2))
    channels = (build_additive_pair_channel(0.1), build_quaternary_channel(0.15))
    outcomes = set()
    for n in range(1, 10):
        for case in range(6 if n <= 6 else 2):
            src, ch = sources[case % 2], channels[case // 2 % 2]
            scheme = scheme_for(kind, src, n, seed=10 * n + case)
            s = sample_iid(src, n, case)
            y = transmit(ch, scheme.encode(*s), case + 7)
            want = old_ml_decode(ch, scheme, y)
            got = ml_decode(ch, scheme, y)
            assert same_result(got, want), (n, case)
            assert got.candidates == len(src.support())**n
            outcomes.add(got.failure)
    assert None in outcomes and "tie" in outcomes


@pytest.mark.parametrize("kind", ["linear", "unstructured"])
def test_ml_decode_over_several_chunks_keeps_ties_and_zero_likelihood(kind, monkeypatch):
    monkeypatch.setattr(coding, "_CHUNK", 2**6)
    uniform = make_additive_triple(0.5, 0.5)
    cases = [
        # a flat channel and a uniform source: every candidate scores the same
        (flat_channel([0.5, 0.5]), uniform, [0, 1, 1, 0, 1]),
        # output 2 has no mass under any input
        (flat_channel([0.6, 0.4, 0.0]), make_additive_triple(0.2, 0.3), [0, 2, 1, 0, 1, 0]),
        (pair_identity_channel(), uniform, None),
        (build_quaternary_channel(0.1), make_additive_triple(0.1, 0.25), None),
        (build_additive_pair_channel(0.2), make_sigma_gamma_triple(0.05, 0.3), None),
    ]
    outcomes = []
    for ch, src, fixed in cases:
        for n in (4, 5, 7, 8):
            for seed in range(2):
                scheme = scheme_for(kind, src, n, seed)
                if fixed is None:
                    y = transmit(ch, scheme.encode(*sample_iid(src, n, seed)), seed + 3)
                else:
                    y = np.resize(fixed, n)
                space = coding.candidate_space(src, n)
                assert len(list(space.chunks())) > 1
                got = ml_decode(ch, scheme, y, space=space)
                assert same_result(got, old_ml_decode(ch, scheme, y))
                assert same_result(got, ml_decode(ch, scheme, y))
                outcomes.append(got.failure)
    assert {None, "tie", "zero-likelihood"} <= set(outcomes)
    assert outcomes[:8] == ["tie"] * 8 and outcomes[8:16] == ["zero-likelihood"] * 8


def test_monte_carlo_error_with_a_shared_space_is_worker_invariant():
    src = make_sigma_gamma_triple(0.1, 0.2)
    ch = build_quaternary_channel(0.1)
    interval = sys.getswitchinterval()
    # more workers than cores, switching threads often, all reading one space
    sys.setswitchinterval(1e-5)
    try:
        for kind in ("linear", "unstructured"):
            def factory(seed, kind=kind):
                return scheme_for(kind, src, 5, seed)

            shared = partial(ml_decode, space=coding.candidate_space(src, 5))
            reports = [monte_carlo_error(ch, factory, decoder, 16, seed=4, workers=workers)
                       for decoder in (shared, ml_decode, old_ml_decode) for workers in (1, 2)]
            reports.append(monte_carlo_error(ch, factory, shared, 16, seed=4, workers=6))
            assert all(r == reports[0] for r in reports)
    finally:
        sys.setswitchinterval(interval)


def test_a_space_for_another_source_or_block_length_is_refused_before_scoring():
    src = make_additive_triple(0.2, 0.3)
    ch = build_quaternary_channel(0.1)
    scheme = build_linear_jscc(src, 2, 6, seed=1)
    expand = scheme.expand
    expanded = []
    scheme.expand = lambda user, blocks: expanded.append(user) or expand(user, blocks)
    y = np.zeros(6, dtype=np.int64)
    for other in (coding.candidate_space(make_sigma_gamma_triple(0.1, 0.2), 6),
                  coding.candidate_space(make_additive_triple(0.2, 0.35), 6),
                  coding.candidate_space(src, 5)):
        with pytest.raises(ValueError, match="another source law or block length"):
            ml_decode(ch, scheme, y, space=other)
    assert expanded == []
    # an equal law built apart is accepted
    ok = ml_decode(ch, scheme, y, space=coding.candidate_space(make_additive_triple(0.2, 0.3), 6))
    assert expanded == [1, 2, 3]
    assert same_result(ok, old_ml_decode(ch, scheme, y))


def test_ml_decode_refuses_symbols_outside_the_channel_alphabets():
    src = make_additive_triple(0.2, 0.3)
    ch = build_quaternary_channel(0.1)
    # ternary codewords on binary channel inputs would alias other flat offsets
    with pytest.raises(ValueError, match="X1 symbols outside"):
        ml_decode(ch, build_linear_jscc(src, 3, 4, seed=2), np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="Y symbols outside"):
        ml_decode(ch, build_linear_jscc(src, 2, 4, seed=2), np.array([0, 1, 4, 0]))


# ---------------------------------------------------------------- typicality


def pair_identity_channel():
    """Noiseless Y = (x1, x2); x3 does not affect the output."""
    table = np.zeros((2, 2, 2, 4))
    for x1 in range(2):
        for x2 in range(2):
            table[x1, x2, :, 2 * x1 + x2] = 1.0
    cond = ConditionalPMF([("X1", 2), ("X2", 2), ("X3", 2)], [("Y", 4)], table)
    return DMChannel("pair-identity", cond, {})


def test_typicality_decode_recovers_block_through_invertible_map():
    src = make_additive_triple(0.5, 0.5)
    ch = pair_identity_channel()
    successes = 0
    for seed in range(10):
        scheme = build_linear_jscc(src, 2, 8, seed)
        s = sample_iid(src, 8, seed + 30)
        y = transmit(ch, scheme.encode(*s), seed + 60)
        res = typicality_decode(ch, scheme, y, eps=16.0)
        if res.ok:
            successes += 1
            for a, b in zip(res.blocks, s):
                assert np.array_equal(a, b)
        else:
            # singular matrix: several blocks share the transmitted pair
            assert res.failure in ("ambiguous", "none-typical")
    assert successes >= 1


def oracle_typical_set(channel, scheme, y, eps):
    design = scheme.design_joint(channel)
    probs = design.probs
    thr = eps / float((probs > 0).sum())
    src = scheme.source
    support = [tuple(t) for t in src.support()]
    n = len(y)
    hits = []
    for cand in itertools.product(support, repeat=n):
        s1 = np.array([c[0] for c in cand])
        s2 = np.array([c[1] for c in cand])
        s3 = np.array([c[2] for c in cand])
        x1, x2, x3 = scheme.encode(s1, s2, s3)
        layers = scheme.layer_blocks(s1, s2, s3)
        pools = {"S1": s1, "S2": s2, "S3": s3, "X1": x1, "X2": x2, "X3": x3, "Y": y}
        pools.update(layers)
        counts = {}
        for j in range(n):
            cell = tuple(int(pools[name][j]) for name in design.names)
            counts[cell] = counts.get(cell, 0) + 1
        ok = True
        for cell, c in counts.items():
            if probs[cell] == 0.0 or abs(c / n - probs[cell]) > thr:
                ok = False
                break
        if ok:
            for cell in np.argwhere(probs > thr):
                if tuple(cell) not in counts:
                    ok = False
                    break
        if ok:
            hits.append((s1, s2, s3))
    return hits


def scheme_of(kind, n, seed):
    """(source, scheme) of each scheme kind on a small source."""
    if kind == "linear":
        src = make_additive_triple(0.3, 0.4)
        return src, build_linear_jscc(src, 2, n, seed)
    if kind == "unstructured":
        src = make_sigma_gamma_triple(0.1, 0.2)
        return src, build_unstructured_jscc(src, [np.array([[0.8, 0.2], [0.25, 0.75]])] * 3, n, seed)
    builder = build_layered_ces if kind == "layered" else build_hybrid_scheme
    return diag_source(), builder(diag_source(), random_layered_dist(kind == "hybrid"), n, seed)


@pytest.mark.parametrize("kind", ["linear", "unstructured", "layered", "hybrid"])
def test_typicality_decode_matches_set_oracle(kind):
    # thresholds scale with the design support, which grows with the layers; at
    # n = 5 some unstructured verdicts hang on a cell that recurs at non-adjacent positions
    n, eps_list = {"linear": (3, (0.5, 2.0, 8.0, 32.0)), "unstructured": (5, (6.0, 8.0)),
                   "layered": (3, (32.0, 128.0, 512.0)), "hybrid": (3, (128.0, 512.0, 2048.0))}[kind]
    outcomes = set()
    for ch in (build_additive_pair_channel(0.1), pair_identity_channel()):
        for seed in range(4):
            src, scheme = scheme_of(kind, n, seed)
            s = sample_iid(src, n, seed + 11)
            y = transmit(ch, scheme.encode(*s), seed + 22)
            for eps in eps_list:
                res = typicality_decode(ch, scheme, y, eps=eps)
                hits = oracle_typical_set(ch, scheme, y, eps)
                if len(hits) == 1:
                    assert res.ok
                    for a, b in zip(res.blocks, hits[0]):
                        assert np.array_equal(a, b)
                elif len(hits) == 0:
                    assert res.failure == "none-typical"
                else:
                    assert res.failure == "ambiguous"
                outcomes.add(res.failure)
    # the cases reach a unique typical candidate and at least one failure
    assert None in outcomes and len(outcomes) >= 2


@pytest.mark.parametrize("kind", ["linear", "unstructured", "layered", "hybrid"])
def test_stacked_blocks_expand_row_by_row(kind):
    src, scheme = scheme_of(kind, 5, seed=3)
    blocks = [sample_iid(src, 5, seed) for seed in range(4)]
    rows = [0, 1, 0, 2, 3, 3, 1]
    stacked = [np.stack([blocks[r][i] for r in rows]) for i in range(3)]
    xs = scheme.encode(*stacked)
    layers = scheme.layer_blocks(*stacked)
    for k, r in enumerate(rows):
        for a, b in zip(xs, scheme.encode(*blocks[r])):
            assert np.array_equal(a[k], b)
        single = scheme.layer_blocks(*blocks[r])
        assert layers.keys() == single.keys()
        for name, arr in single.items():
            assert np.array_equal(layers[name][k], arr)


def test_hybrid_typicality_decode_memory_is_bounded():
    n = 9
    src = make_sigma_gamma_triple(0.1, 0.15)
    ch = build_additive_pair_channel(0.1)
    scheme = build_hybrid_scheme(src, hybrid_dist_passthrough(), n, seed=2)
    y = transmit(ch, scheme.encode(*sample_iid(src, n, seed=9)), seed=4)
    tracemalloc.start()
    try:
        # 4^9 candidates, each through all 21 design axes
        res = typicality_decode(ch, scheme, y, eps=64.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.failure == "ambiguous"
    assert peak < 256 * 2**20


# ---------------------------------------------------------------- monte carlo


def test_wilson_interval_against_scipy():
    for errors, trials in ((0, 50), (3, 100), (17, 40), (40, 40)):
        lo, hi = wilson_interval(errors, trials)
        ref = binomtest(errors, trials).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-9)
        assert hi == pytest.approx(ref.high, abs=1e-9)


def test_monte_carlo_deterministic_and_worker_invariant():
    p = binary_entropy_inverse(0.3)
    src = make_additive_triple(p, p)
    ch = build_additive_pair_channel(0.1)

    def factory(seed):
        return build_linear_jscc(src, 2, 6, seed)

    a = monte_carlo_error(ch, factory, ml_decode_additive_pair, 60, seed=5)
    b = monte_carlo_error(ch, factory, ml_decode_additive_pair, 60, seed=5)
    c = monte_carlo_error(ch, factory, ml_decode_additive_pair, 60, seed=5, workers=3)
    assert a == b == c
    assert a.ci_lo <= a.p_hat <= a.ci_hi
    assert a.scheme_kind == "linear-jscc" and a.channel_kind == "additive-pair"


def test_monte_carlo_error_builds_one_scheme_per_trial():
    src = make_additive_triple(0.1, 0.2)
    ch = build_additive_pair_channel(0.1)
    table = np.array([[0.9, 0.1], [0.1, 0.9]])
    cases = (
        (lambda s: build_linear_jscc(src, 2, 6, s), ml_decode_additive_pair,
         SimReport(6, 12, 7, 0.5833333333333334, 0.31951131254954973, 0.8067396863412435, 3,
                   "linear-jscc", "additive-pair")),
        (lambda s: build_unstructured_jscc(make_sigma_gamma_triple(0.1, 0.2), [table] * 3, 4, s),
         ml_decode,
         SimReport(4, 12, 9, 0.75, 0.46769466506643426, 0.9110583316059453, 3,
                   "unstructured-jscc", "additive-pair")),
    )
    for build, decoder, pinned in cases:
        seeds = []

        def factory(seed):
            seeds.append(seed)
            return build(seed)

        assert monte_carlo_error(ch, factory, decoder, 12, seed=3) == pinned
        assert seeds == [int(stream(3, t, 0).integers(0, 2**62)) for t in range(12)]


def test_typicality_decode_takes_the_design_law_once_per_run(monkeypatch):
    src = diag_source()
    ch = pair_identity_channel()
    dist = random_layered_dist(True)

    def factory(seed):
        return build_hybrid_scheme(src, dist, 4, seed)

    chained = []
    real_chain_all = coding.chain_all
    monkeypatch.setattr(coding, "chain_all", lambda f: chained.append(1) or real_chain_all(f))
    law = factory(0).design_joint(ch)
    assert len(chained) == 1
    reports = [
        monte_carlo_error(ch, factory,
                          lambda c, sc, y: typicality_decode(c, sc, y, 512.0, design=law), 6, 1),
        monte_carlo_error(ch, factory, lambda c, sc, y: typicality_decode(c, sc, y, 512.0), 6, 1),
    ]
    # the law passed in is built once; left to the decoder, once per trial
    assert len(chained) == 1 + 6
    assert reports[0] == reports[1]
    assert 0 < reports[0].errors < 6


def test_monte_carlo_error_orders_by_noise_and_source_entropy():
    p_low = binary_entropy_inverse(0.3)
    p_high = binary_entropy_inverse(0.8)

    def run(p, delta):
        src = make_additive_triple(p, p)
        ch = build_additive_pair_channel(delta)
        factory = lambda seed: build_linear_jscc(src, 2, 8, seed)
        return monte_carlo_error(ch, factory, ml_decode_additive_pair, 400, seed=2)

    quiet = run(p_low, 0.01)
    noisy = run(p_low, 0.1)
    heavy = run(p_high, 0.1)
    assert quiet.p_hat < noisy.p_hat < heavy.p_hat
    assert heavy.p_hat > 0.5


def test_sim_report_to_json():
    rep = SimReport(8, 100, 7, 0.07, 0.03, 0.14, 42, "linear-jscc", "additive-pair")
    assert rep.to_json()["p_hat"] == 0.07


def test_candidate_guard_constant():
    assert MAX_CANDIDATES == 2**26


# ---------------------------------------------------------------- pinned outputs
# Recorded from the scheme builders before the layered and hybrid design laws
# moved to regions.three_user_factors and the codeword draws to probcore.


def random_layered_dist(with_v):
    """Diag-source layered spec with random tables; with_v adds the hybrid V_i axis (q = 2)."""
    rng = stream(21)

    def rows(shape):
        t = rng.random(shape) + 0.05
        return t / t.sum(axis=-1, keepdims=True)

    u123 = JointPMF([("U123", 2)], rows((2,)))
    pair_conds = {b: ConditionalPMF([(f"W{b}", 2), ("U123", 2)], [(f"U{b}", 2)], rows((2, 2, 2)))
                  for b in ("12", "13", "23")}
    x_conds = []
    for i, (bj, bk) in ((1, ("12", "13")), (2, ("12", "23")), (3, ("13", "23"))):
        given = [(f"S{i}", 2), ("U123", 2), (f"U{bj}", 2), (f"U{bk}", 2)]
        given += [(f"V{i}", 2)] if with_v else []
        x_conds.append(ConditionalPMF(given, [(f"X{i}", 2)], rows((2,) * len(given) + (2,))))
    return SimpleNamespace(q=2, u123=u123, pair_conds=pair_conds, x_conds=x_conds)


def test_unstructured_codewords_pinned():
    src = make_sigma_gamma_triple(0.2, 0.3)
    table = np.array([[0.7, 0.3], [0.2, 0.8]])
    scheme = build_unstructured_jscc(src, [table] * 3, 7, 31)
    s = sample_iid(src, 7, 2)
    assert [b.tolist() for b in s] == [
        [0, 1, 0, 1, 0, 0, 0],
        [1, 0, 1, 0, 0, 1, 0],
        [1, 1, 1, 1, 0, 1, 0],
    ]
    assert [x.tolist() for x in scheme.encode(*s)] == [
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 1, 0, 1, 1],
        [1, 1, 1, 0, 0, 1, 0],
    ]


def test_layered_and_hybrid_blocks_pinned():
    src = diag_source()
    s = sample_iid(src, 7, 8)
    assert [b.tolist() for b in s] == [
        [1, 0, 1, 1, 1, 0, 0],
        [1, 0, 1, 1, 1, 0, 0],
        [1, 0, 1, 1, 1, 0, 0],
    ]
    layered = build_layered_ces(src, random_layered_dist(False), 7, 33)
    assert [x.tolist() for x in layered.encode(*s)] == [
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 0, 1, 1, 1, 1],
        [1, 1, 1, 0, 0, 1, 0],
    ]
    assert {k: v.tolist() for k, v in layered.layer_blocks(*s).items()} == {
        "U12": [0, 1, 0, 0, 1, 1, 1],
        "U123": [0, 0, 0, 1, 1, 1, 1],
        "U13": [1, 0, 0, 1, 1, 0, 1],
        "U23": [0, 1, 0, 1, 1, 1, 1],
        "W12": [1, 0, 1, 1, 1, 0, 0],
        "W123": [1, 0, 1, 1, 1, 0, 0],
        "W13": [1, 0, 1, 1, 1, 0, 0],
        "W23": [1, 0, 1, 1, 1, 0, 0],
    }
    hybrid = build_hybrid_scheme(src, random_layered_dist(True), 7, 33)
    assert [x.tolist() for x in hybrid.encode(*s)] == [
        [0, 1, 0, 0, 1, 0, 1],
        [0, 1, 0, 0, 1, 1, 1],
        [1, 1, 1, 1, 1, 0, 0],
    ]
    assert {k: v.tolist() for k, v in hybrid.layer_blocks(*s).items()} == {
        "T1": [0, 0, 0, 0, 0, 0, 0],
        "T2": [1, 0, 1, 1, 1, 0, 0],
        "T3": [1, 0, 1, 1, 1, 0, 0],
        "U12": [0, 1, 0, 0, 1, 1, 1],
        "U123": [0, 0, 0, 1, 1, 1, 1],
        "U13": [1, 0, 0, 1, 1, 0, 1],
        "U23": [0, 1, 0, 1, 1, 1, 1],
        "V1": [1, 0, 0, 1, 1, 0, 1],
        "V2": [1, 1, 1, 0, 0, 0, 0],
        "V3": [0, 1, 1, 1, 1, 0, 1],
        "W12": [1, 0, 1, 1, 1, 0, 0],
        "W123": [1, 0, 1, 1, 1, 0, 0],
        "W13": [1, 0, 1, 1, 1, 0, 0],
        "W23": [1, 0, 1, 1, 1, 0, 0],
    }


@pytest.mark.parametrize("builder, with_v, pinned", [
    (build_layered_ces, False, {
        ("S1", "U123", "X1"): 2.8897625796068227,
        ("W12", "U12", "X2"): 2.910188344850158,
        ("X1", "X2", "X3", "Y"): 4.450052709897166,
        ("U13", "U23", "Y"): 3.9161026423557805,
        None: 8.33481363149822,
    }),
    (build_hybrid_scheme, True, {
        ("S1", "U123", "X1"): 2.8992688040502266,
        ("W12", "U12", "X2"): 2.939344814923205,
        ("X1", "X2", "X3", "Y"): 4.427854157218658,
        ("U13", "U23", "Y"): 3.9065627352184413,
        ("T1", "V1", "X1"): 1.999628441649064,
        ("V1", "V2", "Y"): 3.9946701287949944,
        None: 10.23382092059831,
    }),
])
def test_design_joint_entropies_pinned(builder, with_v, pinned):
    design = builder(diag_source(), random_layered_dist(with_v), 7, 33).design_joint(
        build_additive_pair_channel(0.1))
    for group, bits in pinned.items():
        assert entropy(design, group) == pytest.approx(bits, abs=1e-12)


def test_additive_pair_decoder_refuses_huge_blocks_before_allocating():
    n = 27
    src = make_additive_triple(0.1, 0.2)
    scheme = build_linear_jscc(src, 2, n, seed=0)
    y = np.zeros(n, dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            ml_decode_additive_pair(build_additive_pair_channel(0.1), scheme, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2^27 candidate words alone would take 1 GiB as one int64 column
    assert peak < 2**20
