"""The packed binary-code kernel against the code paths it replaced.

Each fast path is checked against the old implementation, kept here as an
oracle: bit-row enumeration times the generator, `count_nonzero` scans of
bit rows, the per-block receiver loop, the per-block `transmit` loop of the
feedback run, the float32 matmul additive-pair decoder, the per-trial ptp
noise draws and the full popcount scan of the codebook probe.  The
coset-leader table is checked against the popcount scan it stands in for.
"""

from __future__ import annotations

import logging
import math
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimac import channels, gfcore, macfb
from trimac.channels import (
    DMChannel,
    build_additive_pair_channel,
    build_fb_parallel_channel,
    transmit,
)
from trimac.cli import run
from trimac.coding import (
    DecodeResult,
    build_linear_jscc,
    build_unstructured_jscc,
    candidate_space,
    ml_decode,
    ml_decode_additive_pair,
    monte_carlo_error,
)
from trimac.gfcore import (
    CosetDecoder,
    distinct_keys,
    nearest_codeword,
    nearest_in_set,
    pack_bits,
    unpack_bits,
    xor_closure,
    xor_codebook,
)
from trimac.macfb import FBConfig, ptp_simulation, run_fb_simulation, structure_necessity_probe
from trimac.probcore import ConditionalPMF, marginalize, mixed_radix
from trimac.rng import stream
from trimac.sources import make_additive_triple, make_sigma_gamma_triple, sample_iid


# ---------------------------------------------------------------- old code


def sub_seed(seed, *path):
    """One generator per sub-seed, the rule rng.sub_seeds draws in one batched kernel."""
    return int(stream(seed, *path).integers(0, 2**62))


def old_codebook(g):
    g = np.asarray(g, dtype=np.int64)
    return (mixed_radix(np.arange(2 ** g.shape[0]), 2, g.shape[0]) @ g) % 2


def old_nearest(codebook, word):
    dists = np.count_nonzero(codebook != word, axis=1)
    idx = int(np.argmin(dists))
    tie = int(np.count_nonzero(dists == dists[idx])) > 1
    return idx, tie


def old_sum_decode(codebook, z, mode, threshold):
    dists = np.count_nonzero(codebook != z, axis=1)
    idx = int(np.argmin(dists))
    if mode == "ml":
        return idx, int(np.count_nonzero(dists == dists[idx])) > 1
    hits = np.flatnonzero(dists <= threshold)
    if hits.size == 1:
        return int(hits[0]), False
    return idx, True


def old_additive_pair(channel, scheme, y):
    p12 = marginalize(scheme.source.joint, ("S1", "S2")).probs
    m1, m2 = p12.sum(axis=1), p12.sum(axis=0)
    n = y.shape[0]
    delta = channel.params["delta"]
    noise_llr = float(np.log(delta) - np.log(1.0 - delta))
    cands = mixed_radix(np.arange(2**n), 2, n)
    cands_f = cands.astype(np.float32)
    g_f = scheme.meta["matrix"].astype(np.float32)
    w = cands.sum(axis=1)
    decoded = []
    for marg, b, y_obs in ((m1, scheme.meta["offsets"][0], y >> 1),
                           (m2, scheme.meta["offsets"][1], y & 1)):
        x = (cands_f @ g_f + b.astype(np.float32)) % 2.0
        wx = x.sum(axis=1)
        d = (wx + y_obs.sum() - 2.0 * (x @ y_obs.astype(np.float32))).astype(np.int64)
        prior_llr = float(np.log(marg[1]) - np.log(marg[0]))
        scores = d * noise_llr + w * prior_llr
        top = int(np.argmax(scores))
        if int((scores == scores[top]).sum()) > 1:
            return DecodeResult(None, "tie")
        decoded.append(cands[top])
    s1, s2 = decoded
    return DecodeResult((s1, s2, s1 ^ s2))


def old_receiver(codebook, y_first, y_pair, msgs):
    words = mixed_radix(np.arange(codebook.shape[0]), 2, msgs.shape[-1])
    pair_errors, third_errors = [], []
    for block in range(y_first.shape[0] - 1):
        i1, t1 = old_nearest(codebook, y_pair[block + 1, 0])
        i2, t2 = old_nearest(codebook, y_pair[block + 1, 1])
        bad = (t1 or t2 or not np.array_equal(words[i1], msgs[block, 0])
               or not np.array_equal(words[i2], msgs[block, 1]))
        pair_errors.append(int(bad))
        cleaned = y_first[block] ^ codebook[i1] ^ codebook[i2]
        i3, t3 = old_nearest(codebook, cleaned)
        third_errors.append(int(t3 or not np.array_equal(words[i3], msgs[block, 2])))
    return pair_errors, third_errors


def old_fb_run(config, sum_decoder):
    """run_fb_simulation's forward pass with one sub_seed and one transmit per block."""
    k, n, blocks = config.k, config.n, config.blocks
    g = gfcore.sample_uniform_matrix(2, k, n, sub_seed(config.seed, 60))
    book = xor_codebook(g)
    channel = build_fb_parallel_channel(config.delta)
    msgs = pack_bits(stream(config.seed, 61).integers(0, 2, size=(blocks, 3, k)))
    first = unpack_bits(book[msgs], n)
    radius = None if sum_decoder == "ml" else n * (config.delta + 0.08)
    y = np.empty((blocks, n), dtype=np.int64)
    sums = []
    second = np.zeros((3, n), dtype=np.int64)
    for block in range(blocks):
        if block:
            second = np.vstack((first[block - 1, :2], unpack_bits(hat, n)))
        y[block] = transmit(channel, 2 * first[block] + second,
                            sub_seed(config.seed, 62, block))
        if block < blocks - 1:
            z = pack_bits(y[block] >> 2) ^ book[msgs[block, 2]]
            (idx,), (failed,) = nearest_codeword(book, [z], radius)
            hat = book[idx]
            sums.append(int(failed or idx != msgs[block, 0] ^ msgs[block, 1]))
    y_pair = np.stack((pack_bits((y >> 1) & 1), pack_bits(y & 1)), axis=1)
    pair, third = macfb._receive(book, pack_bits(y >> 2), y_pair, msgs,
                                 partial(nearest_codeword, book))
    return sums, pair.astype(int).tolist(), third.astype(int).tolist()


def old_ptp_errors(config):
    g = gfcore.sample_uniform_matrix(2, config.k, config.n,
                                     sub_seed(config.seed, 60))
    codebook = old_codebook(g)
    words = mixed_radix(np.arange(2**config.k), 2, config.k)
    trials = config.blocks - 1
    sent = stream(config.seed, 63).integers(0, 2, size=(trials, config.k))
    noise_rng = stream(config.seed, 64)
    errors = 0
    for t in range(trials):
        x = (sent[t] @ g) % 2
        y = x ^ (noise_rng.random(config.n) < config.delta).astype(np.int64)
        idx, tie = old_nearest(codebook, y)
        errors += int(tie or not np.array_equal(words[idx], sent[t]))
    return errors


def scan_in_set(members, received):
    """Full popcount scan: smallest nearest member and whether it tied."""
    dists = np.bitwise_count(received[:, None] ^ members)
    idx = np.argmin(dists, axis=1)
    best = dists[np.arange(received.size), idx]
    return members[idx], (dists == best[:, None]).sum(axis=1) > 1


def old_probe_errors(k, n, delta, trials, seed):
    """The probe's error counts by a full popcount scan over bit-row books."""
    g = gfcore.sample_uniform_matrix(2, k, n, sub_seed(seed, 60))
    linear = old_codebook(g)
    random_books = stream(seed, 65).integers(0, 2, size=(2, 2**k, n))
    out = []
    for arm, (book_a, book_b) in enumerate(((linear, linear), tuple(random_books))):
        cands = np.unique(np.bitwise_xor.outer(
            np.unique(pack_bits(book_a)), np.unique(pack_bits(book_b))))
        rng = stream(seed, 66, arm)
        chunk = max(1, (1 << 22) // cands.size)
        errors = done = 0
        while done < trials:
            m = min(chunk, trials - done)
            ia = rng.integers(0, book_a.shape[0], size=m)
            ib = rng.integers(0, book_b.shape[0], size=m)
            sums = book_a[ia] ^ book_b[ib]
            noise = (rng.random((m, n)) < delta).astype(np.int64)
            decoded, tie = scan_in_set(cands, pack_bits(sums ^ noise))
            errors += int(np.count_nonzero(tie | (decoded != pack_bits(sums))))
            done += m
        out.append(errors)
    return out


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the kernel's chunk bound so every chunked loop runs several passes."""
    monkeypatch.setattr(gfcore, "_KEY_CHUNK_CELLS", 64)


# ---------------------------------------------------------------- kernel


def test_pack_and_unpack_are_inverse_and_msb_first():
    rows = stream(3, 1).integers(0, 2, size=(50, 17))
    keys = pack_bits(rows)
    assert keys.tolist() == [int("".join(map(str, r)), 2) for r in rows.tolist()]
    assert np.array_equal(unpack_bits(keys, 17), rows)
    assert unpack_bits(5, 4).tolist() == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        pack_bits(np.zeros((2, 63), dtype=np.int64))


@pytest.mark.parametrize("k,n", [(1, 1), (1, 5), (3, 3), (6, 9), (10, 20), (12, 40)])
def test_xor_codebook_matches_matmul_enumeration(k, n):
    for seed in range(3):
        g = stream(seed, k, n).integers(0, 2, size=(k, n))
        assert np.array_equal(xor_codebook(g), pack_bits(old_codebook(g)))
    # rank deficient: a repeated row and a zero row repeat words in message order
    g = stream(9, k, n).integers(0, 2, size=(k, n))
    g[-1] = g[0]
    if k > 2:
        g[1] = 0
    book = xor_codebook(g)
    assert np.array_equal(book, pack_bits(old_codebook(g)))
    if k > 1:
        assert distinct_keys(book).size < book.size


def test_xor_codebook_validates_and_checks_the_cap_first():
    for bad in ([[0, 2]], np.zeros((0, 3)), np.zeros(4)):
        with pytest.raises(ValueError):
            xor_codebook(bad)
    # 2^23 x 23 cells is past the cap; 2^22 x 22 (the largest admitted decode) is not
    with pytest.raises(ValueError, match="cap"):
        xor_codebook(np.full((23, 23), 7))
    gfcore.check_cells((2**22, 22))


def test_distinct_keys_matches_unique():
    keys = stream(4, 0).integers(-50, 50, size=500)
    assert np.array_equal(distinct_keys(keys), np.unique(keys))
    assert np.array_equal(distinct_keys(keys.reshape(20, 25)), np.unique(keys))
    assert distinct_keys(np.zeros(0, dtype=np.int64)).size == 0


def test_xor_closure_matches_outer_unique(small_chunks):
    rng = stream(5, 0)
    # (300, 300, 8) marks a 2^8 presence table, in two chunks of keys_a
    for size_a, size_b, n in ((1, 1, 4), (30, 7, 10), (100, 100, 9), (9, 200, 30), (300, 300, 8)):
        a = rng.integers(0, 2**n, size=size_a)
        b = rng.integers(0, 2**n, size=size_b)
        want = np.unique(np.bitwise_xor.outer(a, b))
        assert np.array_equal(xor_closure(a, b), want)
        assert np.array_equal(xor_closure(distinct_keys(a), distinct_keys(b)), want)


def test_nearest_codeword_matches_count_nonzero_scan(small_chunks):
    cases = 0
    for seed in range(6):
        rng = stream(6, seed)
        k, n = int(rng.integers(2, 8)), int(rng.integers(8, 20))
        g = rng.integers(0, 2, size=(k, n))
        if seed % 2:
            g[-1] = g[0]  # duplicate codewords tie
        rows = old_codebook(g)
        book = pack_bits(rows)
        received = rng.integers(0, 2, size=(40, n))
        received[:10] = rows[rng.integers(0, rows.shape[0], size=10)]
        idx, ambiguous = nearest_codeword(book, pack_bits(received))
        assert [old_nearest(rows, r) for r in received] == list(
            zip(idx.tolist(), ambiguous.tolist()))
        for threshold in (0.0, 1.0, 2.5, n * 0.3):
            idx, failed = nearest_codeword(book, pack_bits(received), threshold)
            want = [old_sum_decode(rows, r, "typicality", threshold) for r in received]
            assert want == list(zip(idx.tolist(), failed.tolist()))
        cases += int(ambiguous.sum())
    assert cases > 0


def _check_in_set(members, received, n):
    got, tie, scanned = nearest_in_set(members, received, n)
    want, want_tie = scan_in_set(members, received)
    assert np.array_equal(got, want)
    assert np.array_equal(tie, want_tie)
    return scanned


def test_ball_search_matches_full_scan(small_chunks):
    rng = stream(7, 0)
    # a linear closure: budget 1024 / 10 reaches radius 1, the rest is scanned
    g = rng.integers(0, 2, size=(10, 20))
    book = xor_codebook(g)
    members = xor_closure(distinct_keys(book), distinct_keys(book))
    noise = pack_bits(rng.random((300, 20)) < 0.1)
    received = book[rng.integers(0, book.size, size=300)] ^ noise
    scanned = _check_in_set(members, received, 20)
    assert 0 < scanned.sum() < scanned.size
    # a dense random closure: nearly every word is resolved by the ball
    books = pack_bits(rng.integers(0, 2, size=(2, 64, 12)))
    members = xor_closure(distinct_keys(books[0]), distinct_keys(books[1]))
    received = rng.integers(0, 2**12, size=300)
    scanned = _check_in_set(members, received, 12)
    assert scanned.sum() < 30
    # tiny codes: one and two members
    for members in (np.array([5]), np.array([0, 2**9 - 1])):
        _check_in_set(members, rng.integers(0, 2**9, size=50), 9)
    # n = 30: ties included, since received words sit between members
    members = distinct_keys(rng.integers(0, 2**30, size=3000))
    received = members[rng.integers(0, members.size, size=200)] ^ pack_bits(
        rng.random((200, 30)) < 0.05)
    received[:20] = members[:20] ^ members[20:40]
    scanned = _check_in_set(members, received, 30)
    assert 0 < scanned.sum() < scanned.size


def _check_table(book, n, received, radius=None, words=10**9):
    """Decode by a CosetDecoder and by the scan; return the decoder."""
    decoder = CosetDecoder(book, n, words, radius)
    got = decoder(received, radius)
    want = nearest_codeword(book, received, radius)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    return decoder


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_coset_table_matches_the_scan(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 13))
    n = int(rng.integers(k, min(30, k + 16) + 1))
    g = rng.integers(0, 2, size=(k, n))
    if k > 1 and seed % 3 == 0:
        g[-1] = g[0]  # duplicate rows: every codeword at 2^(k - r) indices
    if k > 2 and seed % 4 == 0:
        g[1] = g[0] ^ g[2]  # rank deficient without a repeated row
    book = xor_codebook(g)
    sent = book[rng.integers(0, book.size, size=300)]
    flips = np.concatenate([rng.random((100, n)) < delta for delta in (0.02, 0.1, 0.3)])
    received = sent ^ pack_bits(flips)
    # exact ties: half of the bits where two codewords differ
    other = book[rng.integers(0, book.size, size=60)]
    diff = unpack_bits(sent[:60] ^ other, n)
    half = np.cumsum(diff, axis=1) <= diff.sum(axis=1, keepdims=True) // 2
    received[:60] = sent[:60] ^ pack_bits(diff & half)
    for radius in (None, 0.0, float(rng.uniform(0.5, 4.0))):
        decoder = _check_table(book, n, received, radius)
        assert decoder.by_table + decoder.scanned == received.size
        if n - k <= 12 and radius is None:
            assert decoder.by_table == received.size
            assert decoder.syndromes >= 2 ** (n - k) and decoder.leaders >= decoder.syndromes


def test_coset_table_reports_ties_of_repeated_and_equidistant_words():
    # rank 2 of 3 rows: each codeword at two indices, so every decode is ambiguous
    g = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0]])
    book = xor_codebook(g)
    received = np.arange(64)
    decoder = _check_table(book, 6, received)
    assert decoder.syndromes == 16 and decoder.by_table == 64
    assert CosetDecoder(book, 6, 10**9)(received)[1].all()
    for radius in (1.0, 2.5):
        assert CosetDecoder(book, 6, 10**9, radius)(received, radius)[1].all()
        _check_table(book, 6, received, radius)
    # full rank: a word at distance 1 from two codewords ties, and lists both
    g = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1]])
    book = xor_codebook(g)
    decoder = _check_table(book, 6, received)
    index, ambiguous = decoder(pack_bits([[1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0]]))
    assert index.tolist() == [0, 1] and ambiguous.tolist() == [True, False]
    for radius in (0.0, 1.0, 1.5, 2.0, 3.0):
        _check_table(book, 6, received, radius)


def test_coset_table_is_built_only_where_it_is_cheaper():
    rng = stream(11, 0)
    book = xor_codebook(rng.integers(0, 2, size=(5, 12)))
    received = rng.integers(0, 2**12, size=500)
    # a radius above the covering radius counts every pattern of weight <= 6
    decoder = _check_table(book, 12, received, 6.0, words=2000)
    assert decoder.syndromes == 2**7 and decoder.by_table == 500
    # 2^7 * 12 table cells against 10 words * 2^5 scanned: the scan is kept
    decoder = _check_table(book, 12, received, words=10)
    assert decoder.syndromes == 0 and decoder.scanned == 500
    # the table serves its own radius and ML; another radius is scanned
    decoder = CosetDecoder(book, 12, 2000, 2.0)
    decoder(received[:7], 3.0)
    decoder(received[:9])
    assert (decoder.scanned, decoder.by_table) == (7, 9)
    # a (10, 24) book: 2^14 syndromes, but sum C(24, w <= 12) patterns within radius 12
    book = xor_codebook(rng.integers(0, 2, size=(10, 24)))
    received = rng.integers(0, 2**24, size=200)
    assert _check_table(book, 24, received, 12.0).syndromes == 0
    assert _check_table(book, 24, received, 4.0).syndromes == 2**14
    assert math.comb(24, 12) * 24 > gfcore._TABLE_CELLS
    # a book that is not the span of its rows is scanned
    book = pack_bits(np.array([[0] * 6, [0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 0]]))
    assert _check_table(book, 6, np.arange(64)).syndromes == 0
    assert _check_table(book[:3], 6, np.arange(64)).syndromes == 0


@pytest.mark.parametrize("k,blocks,bound_mib", [(1, 200, 8), (20, 3, 48)])
def test_fb_run_at_n_62_keeps_the_scan(caplog, k, blocks, bound_mib):
    # 2^(62 - r) syndromes are far past any table: every decode is scanned
    cfg = FBConfig(k, 62, blocks, 0.1, 0)
    for decoder in ("ml", "typicality"):
        caplog.clear()
        tracemalloc.start()
        try:
            with caplog.at_level(logging.DEBUG, logger="trimac"):
                rep = run_fb_simulation(cfg, sum_decoder=decoder)
                ptp_simulation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20
        (line,) = [r.getMessage() for r in caplog.records if r.name == "trimac"]
        decodes = 4 * (blocks - 1)
        assert line.startswith(f"fb run: 0 words decoded by table, {decodes} scanned, "
                               "0 syndromes, 0 leader patterns, ")
        assert rep.delivered == blocks - 1


# ---------------------------------------------------------------- callers


def test_batched_receiver_matches_per_block_loop():
    for seed in range(3):
        rng = stream(8, seed)
        k, n, blocks = 4 + seed, 12, 300
        g = rng.integers(0, 2, size=(k, n))
        if seed == 2:
            g[1] = g[0]
        rows = old_codebook(g)
        msgs = rng.integers(0, 2, size=(blocks, 3, k))
        idx = pack_bits(msgs)
        flips = lambda shape: (rng.random(shape) < 0.12).astype(np.int64)
        y_first = rows[idx[:, 0]] ^ rows[idx[:, 1]] ^ rows[idx[:, 2]] ^ flips((blocks, n))
        y_pair = rows[np.roll(idx[:, :2], 1, axis=0)] ^ flips((blocks, 2, n))
        want = old_receiver(rows, y_first, y_pair, msgs)
        book = pack_bits(rows)
        pair, third = macfb._receive(book, pack_bits(y_first), pack_bits(y_pair), idx,
                                     partial(nearest_codeword, book))
        assert (pair.astype(int).tolist(), third.astype(int).tolist()) == want
        if distinct_keys(pack_bits(rows)).size < rows.shape[0]:
            assert sum(want[0]) == blocks - 1  # every word repeats, so every decode ties
        else:
            assert 0 < sum(want[0]) < blocks - 1


@pytest.mark.parametrize("noise_chunk", [macfb._NOISE_CHUNK, 100])
def test_fb_run_matches_the_per_block_transmit_loop(monkeypatch, noise_chunk):
    # a 100-double chunk draws the uniforms of 7 to 12 blocks per kernel call
    monkeypatch.setattr(macfb, "_NOISE_CHUNK", noise_chunk)
    for cfg in (FBConfig(3, 8, 301, 0.1, 0), FBConfig(6, 14, 201, 0.0, 4),
                FBConfig(5, 12, 150, 0.2, 2**40 + 3)):
        for decoder in ("ml", "typicality"):
            rep = run_fb_simulation(cfg, sum_decoder=decoder)
            got = (list(rep.sum_errors), list(rep.pair_errors), list(rep.third_errors))
            assert got == old_fb_run(cfg, decoder)
            if cfg.delta > 0:
                assert 0 < sum(got[0]) < len(got[0]) and 0 < sum(got[2]) < len(got[2])


def leaky_fb_channel(delta):
    """The parallel feedback channel, but where user 3's second input bit is 1
    the first component's output law is mixed 6:4 with its flip."""
    channel = channels.build_fb_parallel_channel(delta)
    table = channel.transition.table.copy()
    leaky = table[:, :, 1::2]
    table[:, :, 1::2] = 0.6 * leaky + 0.4 * np.roll(leaky, 4, axis=-1)
    law = ConditionalPMF(channel.transition.given_axes, channel.transition.target_axes, table)
    return DMChannel(channel.kind, law, channel.params)


@pytest.mark.parametrize("noise_chunk", [macfb._NOISE_CHUNK, 100, "n"])
def test_fb_verify_pass_matches_the_block_loop_when_channel_1_reads_channel_2(
        monkeypatch, caplog, noise_chunk):
    # the first-component output now depends on user 3's fed-back word, so the
    # speculated clean state is often wrong and chunks need more verify rounds;
    # at n doubles per chunk every block is its own chunk, carried state only
    monkeypatch.setattr(macfb, "build_fb_parallel_channel", leaky_fb_channel)
    monkeypatch.setattr(sys.modules[__name__], "build_fb_parallel_channel", leaky_fb_channel)
    for cfg in (FBConfig(3, 8, 301, 0.1, 0), FBConfig(5, 12, 150, 0.2, 2**40 + 3)):
        per_chunk = cfg.n if noise_chunk == "n" else noise_chunk
        monkeypatch.setattr(macfb, "_NOISE_CHUNK", per_chunk)
        chunks = -(-cfg.blocks // max(1, per_chunk // cfg.n))
        for decoder in ("ml", "typicality"):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="trimac"):
                rep = run_fb_simulation(cfg, sum_decoder=decoder)
            got = (list(rep.sum_errors), list(rep.pair_errors), list(rep.third_errors))
            assert got == old_fb_run(cfg, decoder)
            (line,) = [r.getMessage() for r in caplog.records if r.name == "trimac"]
            rounds = int(line.rsplit(", ", 1)[1].split()[0])
            if noise_chunk == "n":
                assert rounds == chunks == cfg.blocks
            else:
                assert rounds > chunks


def test_packed_pair_decoder_matches_float32_matmul_and_generic_ml():
    channel = build_additive_pair_channel(0.1)
    generic = 0
    for case in range(40):
        rng = stream(10, case)
        n = (4, 6, 8, 12)[case % 4]
        src = make_additive_triple(float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.5)))
        scheme = build_linear_jscc(src, 2, n, seed=case)
        s = sample_iid(src, n, case)
        y = transmit(channel, scheme.encode(*s), case + 1)
        if case % 5 == 0:
            y = np.zeros(n, dtype=np.int64)
        got = ml_decode_additive_pair(channel, scheme, y)
        want = old_additive_pair(channel, scheme, y)
        assert got.failure == want.failure
        assert got.popcount_cells in ((2 * 2**n,) if got.ok else (2**n, 2 * 2**n))
        if n <= 8:
            # the generic joint score sums logs in another order, so round-off
            # may break a tie of the factored score; a decoded block must agree
            full = ml_decode(channel, scheme, y)
            generic += 1
            assert full.ok or not got.ok
            if got.ok:
                assert all(np.array_equal(a, b) for a, b in zip(got.blocks, full.blocks))
        if want.ok:
            assert all(np.array_equal(a, b) for a, b in zip(got.blocks, want.blocks))
    assert generic == 30


def test_ptp_noise_as_one_array_matches_per_trial_draws():
    for cfg in (FBConfig(3, 8, 301, 0.1, 0), FBConfig(6, 14, 201, 0.15, 4)):
        assert ptp_simulation(cfg).errors == old_ptp_errors(cfg)


def test_probe_error_counts_match_the_full_scan():
    for args in ((6, 12, 0.1, 300, 0), (7, 16, 0.1, 200, 3), (5, 20, 0.05, 100, 1)):
        rep = structure_necessity_probe(*args)
        assert [row.errors for row in rep.rows] == old_probe_errors(*args)


def test_sumset_bracket_and_clean_state_are_real_checks(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(macfb, "xor_closure", lambda a, b: a[:1])
        with pytest.raises(RuntimeError, match="outside"):
            macfb.sumset([[0, 1], [1, 0]], [[0, 0], [1, 1]])
    # one corrupted word breaks linearity: decoding message 3 off its true sum
    # is judged correct, and the word user 3 then sends is not that sum
    book = pack_bits(np.array([[0] * 6, [0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 0]]))
    monkeypatch.setattr(macfb, "xor_codebook", lambda g: book)
    with pytest.raises(RuntimeError, match="unclean"):
        run_fb_simulation(FBConfig(2, 6, 40, 0.0, 0))


# ---------------------------------------------------------------- logging


def test_each_simulation_logs_one_kernel_line(caplog):
    src = make_additive_triple(0.1, 0.2)
    channel = build_additive_pair_channel(0.1)
    with caplog.at_level(logging.DEBUG, logger="trimac"):
        monte_carlo_error(channel, lambda s: build_linear_jscc(src, 2, 6, s),
                          ml_decode_additive_pair, 10, seed=1, workers=2)
        run_fb_simulation(FBConfig(3, 8, 21, 0.1, 0))
        structure_necessity_probe(6, 12, 0.1, 50, 0)
    lines = [r.getMessage() for r in caplog.records if r.name == "trimac"]
    assert len(lines) == 3
    assert lines[0].startswith("monte_carlo_error n=6: 10 decodes, ")
    assert int(lines[0].split(", ")[1].split()[0]) > 0
    # 30 sub-seeds in one kernel call; per trial the matrix, the offsets, the
    # source block and the noise each open one stream (counted on the workers)
    assert lines[0].endswith(", 70 keyed streams drawn, 1 kernel calls")
    # 20 sum and 60 receiver decodes, by a table of 2^(8 - 3) syndromes (cheaper
    # than 80 scans of 2^3 words); seeds 60 and 61 and the uniform matrix, then
    # 21 sub-seeds and 21 noise rows, all 21 blocks' uniforms in one chunk, whose
    # first lookup needs no second round
    assert lines[1] == ("fb run: 80 words decoded by table, 0 scanned, 32 syndromes, "
                        "40 leader patterns, 45 keyed streams drawn, 2 kernel calls, "
                        "1 verify rounds")
    assert lines[2].startswith("codebook probe: 100 decodes, ")
    resolved, scanned = (int(lines[2].split(", ")[i].split()[0]) for i in (2, 3))
    assert resolved + scanned == 100


def test_stream_counts_do_not_depend_on_the_worker_count(caplog):
    src = make_sigma_gamma_triple(0.1, 0.2)
    channel = build_additive_pair_channel(0.1)
    table = np.array([[0.9, 0.1], [0.1, 0.9]])
    decoder = partial(ml_decode, space=candidate_space(src, 4))
    lines = []
    for workers in (1, 3):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="trimac"):
            monte_carlo_error(channel, lambda s: build_unstructured_jscc(src, [table] * 3, 4, s),
                              decoder, 7, seed=2, workers=workers)
        lines += [r.getMessage() for r in caplog.records if r.name == "trimac"]
    # per trial: three one-row encodes (too few rows for the kernel) and three
    # 2^4-row decode tables (one kernel call for all three), plus the source and
    # noise streams; each decode scores the 4^4 support candidates
    streams = 3 * 7 + 7 * (3 + 3 * 16 + 2)
    assert lines == [f"monte_carlo_error n=4: 7 decodes, 0 popcount cells scored, "
                     f"{7 * 4**4} generic candidates scored, {streams} keyed streams drawn, "
                     f"{1 + 7} kernel calls"] * 2


def test_debug_logging_leaves_csv_and_json_bytes_unchanged(tmp_path, caplog):
    commands = (
        ["simulate-mac", "--n-list", "6", "--trials", "8", "--workers", "1"],
        ["simulate-macfb", "--k", "3", "--n", "8", "--blocks", "41", "--with-ptp"],
        ["structure-measure", "--target", "codebooks", "--k", "5", "--n", "10",
         "--trials", "40"],
    )
    # the generic decoder, one candidate space per block length
    generic = ["simulate-mac", "--channel", "quaternary", "--n-list", "3,5", "--trials", "6",
               "--workers", "2", "--out-dir"]
    outputs = []
    for level in (logging.WARNING, logging.DEBUG):
        out = tmp_path / logging.getLevelName(level)
        out.mkdir()
        with caplog.at_level(level, logger="trimac"):
            for argv in commands:
                assert run(argv + ["--out-dir", str(out)]) == 0
            assert run(generic + [str(out / "generic")]) == 0
        outputs.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.*"))})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 6 + 2
    lines = [r.getMessage() for r in caplog.records if r.name == "trimac"]
    assert [line.split()[0] for line in lines] == [
        "monte_carlo_error", "fb", "codebook", "candidate", "monte_carlo_error", "candidate",
        "monte_carlo_error"]
    for n, (space, sim) in zip((3, 5), (lines[3:5], lines[5:7])):
        # the additive source has 4 support triples; 4^n rows of 8-byte log priors
        assert space.startswith(f"candidate space n={n}: {4**n} candidates, ")
        assert int(space.split(", ")[1].split()[0]) > 8 * 4**n
        assert f", {6 * 4**n} generic candidates scored, " in sim
