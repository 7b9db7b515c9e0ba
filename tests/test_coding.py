import itertools
import sys
import tracemalloc
from functools import partial

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
    build_linear_jscc,
    build_unstructured_jscc,
    ml_decode,
    ml_decode_additive_pair,
    monte_carlo_error,
    wilson_interval,
)
from trimac.probcore import (
    ConditionalPMF,
    JointPMF,
    binary_entropy_inverse,
    mixed_radix,
    radix_ids,
    sample_given,
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
    x1, x2, x3 = scheme.expand((s[None], np.stack([s, 1 - s]), s[None]))
    assert np.array_equal(x1[0], (s @ g + b1) % 2)
    assert np.array_equal(x3[0], (s @ g + b3) % 2)
    # a stacked expansion agrees with row-by-row expansions, and a stack may be empty
    empty = np.zeros((0, 6), dtype=np.int64)
    alone = scheme.expand((empty, (1 - s)[None], empty))
    assert np.array_equal(x2[1], alone[1][0])
    assert alone[0].shape == alone[2].shape == (0, 6)


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
        empty = np.zeros((0, len(block)), dtype=np.int64)
        return scheme.expand((block[None], empty, empty))[0][0]

    assert np.array_equal(x1(a, blk), x1(b, blk))
    assert np.array_equal(x1(a, blk), x1(a, blk))
    other = build_unstructured_jscc(src, cond, 8, seed=4)
    diffs = [not np.array_equal(x1(other, np.roll(blk, k)), x1(a, np.roll(blk, k))) for k in range(4)]
    assert any(diffs)


def test_unstructured_rejects_bad_tables():
    src = make_additive_triple(0.3, 0.4)
    bad = [np.array([[0.8, 0.3], [0.1, 0.9]])] * 3
    with pytest.raises(ValueError):
        build_unstructured_jscc(src, bad, 4, seed=0)


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
    tables = scheme.expand(tuple(sym[mixed_radix(np.arange(len(sym)**n), len(sym), n)]
                                 for sym in symbols))

    def chunks():
        for start in range(0, total, 2**12):
            digits = mixed_radix(np.arange(start, min(start + 2**12, total)), m, n)
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
        x1, x2, x3 = (tab[i] for tab, i in zip(tables, ids))
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


def pair_identity_channel():
    """Noiseless Y = (x1, x2); x3 does not affect the output."""
    table = np.zeros((2, 2, 2, 4))
    for x1 in range(2):
        for x2 in range(2):
            table[x1, x2, :, 2 * x1 + x2] = 1.0
    cond = ConditionalPMF([("X1", 2), ("X2", 2), ("X3", 2)], [("Y", 4)], table)
    return DMChannel("pair-identity", cond, {})


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


def scored_decode(monkeypatch, channel, scheme, y, space):
    """ml_decode's result and every candidate's score, in candidate order."""
    seen = []
    argmax = np.argmax
    with monkeypatch.context() as m:
        m.setattr(np, "argmax", lambda scores: seen.append(scores.copy()) or argmax(scores))
        res = ml_decode(channel, scheme, y, space=space)
    return res, np.concatenate(seen), len(seen)


@pytest.mark.parametrize("kind", ["linear", "unstructured"])
def test_default_chunks_score_like_one_chunk(kind, monkeypatch):
    n = 8
    for case, ch in enumerate((build_quaternary_channel(0.15), build_additive_pair_channel(0.1))):
        src = make_additive_triple(0.2, 0.35) if case else make_sigma_gamma_triple(0.1, 0.2)
        space = coding.candidate_space(src, n)
        for seed in range(3):
            scheme = scheme_for(kind, src, n, seed)
            y = transmit(ch, scheme.encode(*sample_iid(src, n, seed)), seed + 11)
            got, scores, chunks = scored_decode(monkeypatch, ch, scheme, y, space)
            assert chunks > 1 and len(scores) == len(src.support())**n
            with monkeypatch.context() as m:
                m.setattr(coding, "_CHUNK", 2**40)
                want, one_scores, one = scored_decode(monkeypatch, ch, scheme, y, space)
            assert one == 1
            assert same_result(got, want)
            assert np.array_equal(scores, one_scores)


def test_a_decode_holds_one_chunk_of_buffers():
    src = make_additive_triple(0.2, 0.35)
    ch = build_quaternary_channel(0.15)
    n = 9
    scheme = scheme_for("linear", src, n, seed=1)
    y = transmit(ch, scheme.encode(*sample_iid(src, n, 1)), 2)
    space = coding.candidate_space(src, n)
    tracemalloc.start()
    try:
        ml_decode(ch, scheme, y, space=space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 4^9 candidates: their log terms alone would take 18 MiB
    assert len(list(space.chunks())) > 1
    assert peak < 3 * 2**20


def test_unstructured_expand_draws_each_row_from_its_own_stream():
    src = make_sigma_gamma_triple(0.1, 0.2)
    tables = [np.array([[0.8, 0.2], [0.25, 0.75]]), np.array([[0.5, 0.5], [0.1, 0.9]]),
              np.array([[0.3, 0.7], [0.6, 0.4]])]
    n, seed = 5, 17
    scheme = build_unstructured_jscc(src, tables, n, seed)
    blocks = mixed_radix(np.arange(2**n), 2, n)
    # unequal stacks with an empty one, past and below the batched kernel's key count
    for rows in ((9, 0, 5), (1, 0, 2), (0, 32, 3), (0, 0, 0)):
        stacks = tuple(blocks[(7 * tag + np.arange(r)) % 2**n] for tag, r in enumerate(rows))
        books = scheme.expand(stacks)
        for tag, (s, book) in enumerate(zip(stacks, books)):
            assert book.shape == s.shape
            for block, x in zip(s, book):
                u = stream(seed, tag, *block).random(n)
                assert np.array_equal(x, sample_given(tables[tag], (block,), u))


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
    scheme.expand = lambda stacks: expanded.append(len(stacks)) or expand(stacks)
    y = np.zeros(6, dtype=np.int64)
    for other in (coding.candidate_space(make_sigma_gamma_triple(0.1, 0.2), 6),
                  coding.candidate_space(make_additive_triple(0.2, 0.35), 6),
                  coding.candidate_space(src, 5)):
        with pytest.raises(ValueError, match="another source law or block length"):
            ml_decode(ch, scheme, y, space=other)
    assert expanded == []
    # an equal law built apart is accepted, and all three users expand in one call
    ok = ml_decode(ch, scheme, y, space=coding.candidate_space(make_additive_triple(0.2, 0.3), 6))
    assert expanded == [3]
    assert same_result(ok, old_ml_decode(ch, scheme, y))


def test_ml_decode_refuses_symbols_outside_the_channel_alphabets():
    src = make_additive_triple(0.2, 0.3)
    ch = build_quaternary_channel(0.1)
    # ternary codewords on binary channel inputs would alias other flat offsets
    with pytest.raises(ValueError, match="X1 symbols outside"):
        ml_decode(ch, build_linear_jscc(src, 3, 4, seed=2), np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="Y symbols outside"):
        ml_decode(ch, build_linear_jscc(src, 2, 4, seed=2), np.array([0, 1, 4, 0]))


def scheme_of(kind, n, seed):
    """(source, scheme) of each scheme kind on a small source."""
    if kind == "linear":
        src = make_additive_triple(0.3, 0.4)
        return src, build_linear_jscc(src, 2, n, seed)
    src = make_sigma_gamma_triple(0.1, 0.2)
    return src, build_unstructured_jscc(src, [np.array([[0.8, 0.2], [0.25, 0.75]])] * 3, n, seed)


@pytest.mark.parametrize("kind", ["linear", "unstructured"])
def test_stacked_blocks_expand_row_by_row(kind):
    src, scheme = scheme_of(kind, 5, seed=3)
    blocks = [sample_iid(src, 5, seed) for seed in range(4)]
    rows = [0, 1, 0, 2, 3, 3, 1]
    stacked = [np.stack([blocks[r][i] for r in rows]) for i in range(3)]
    xs = scheme.encode(*stacked)
    for k, r in enumerate(rows):
        for a, b in zip(xs, scheme.encode(*blocks[r])):
            assert np.array_equal(a[k], b)


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
# Recorded from the scheme builders before the codeword draws moved to probcore.


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
