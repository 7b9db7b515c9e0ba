"""Feedback-scheme simulation tests.

Sumset sizes are cross-checked against plain python-set enumeration.
The Monte Carlo thresholds were calibrated against independent probes
before being frozen: two random 4-word books in {0,1}^10 give a full
16-element sumset with probability ~0.95 (4000 fresh draws; a union
bound over the 120 cell pairs already guarantees 0.88), and every trend
or separation assertion below was observed with wide margin first.
"""

from __future__ import annotations

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimac.cli import run
from trimac.coding import wilson_interval
from trimac.macfb import (
    FBConfig,
    linear_codebook,
    ptp_simulation,
    run_fb_simulation,
    _closure,
    _seeded_linear_book,
    structure_necessity_probe,
    sumset,
)
from trimac.rng import stream


def xor_words(wa, wb):
    return tuple(x ^ y for x, y in zip(wa, wb))


def sumset_oracle(book_a, book_b):
    """Distinct-size triple by set comprehension, no bit packing."""
    set_a = {tuple(int(x) for x in row) for row in np.asarray(book_a)}
    set_b = {tuple(int(x) for x in row) for row in np.asarray(book_b)}
    sums = {xor_words(wa, wb) for wa in set_a for wb in set_b}
    return len(set_a), len(set_b), len(sums)


def ci_overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


@functools.lru_cache(maxsize=None)
def fb_run(k, n, blocks=2001, delta=0.1, seed=0):
    return run_fb_simulation(FBConfig(k, n, blocks, delta, seed))


def test_linear_codebook_lists_codewords_in_message_order():
    book = linear_codebook([[1, 0, 1], [0, 1, 1]])
    assert book.tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    # rank-deficient generators repeat words but keep message order
    folded = linear_codebook([[1, 1], [1, 1]])
    assert folded.tolist() == [[0, 0], [1, 1], [1, 1], [0, 0]]
    with pytest.raises(ValueError):
        linear_codebook([[0, 2]])
    with pytest.raises(ValueError):
        linear_codebook(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        linear_codebook(np.zeros((21, 4), dtype=int))


def test_sumset_matches_set_enumeration():
    rng = np.random.default_rng(17)
    for shape_a, shape_b in (((4, 10), (4, 10)), ((8, 6), (5, 6)), ((3, 3), (7, 3))):
        book_a = rng.integers(0, 2, size=shape_a)
        book_b = rng.integers(0, 2, size=shape_b)
        rep = sumset(book_a, book_b)
        size_a, size_b, size_sum = sumset_oracle(book_a, book_b)
        assert (rep.size_a, rep.size_b, rep.size_sum) == (size_a, size_b, size_sum)
        assert rep.n == shape_a[1]
        assert rep.gap == abs(math.log2(size_sum) - math.log2(size_a)) / rep.n


def test_sumset_of_a_shared_linear_code_is_the_code_itself():
    for seed in range(5):
        g = stream(seed, 1).integers(0, 2, size=(5, 10))
        book = linear_codebook(g)
        distinct = len({tuple(row) for row in book.tolist()})
        rep = sumset(book, book)
        assert rep.size_a == rep.size_sum == distinct
        assert rep.gap == 0.0
        # affine cosets of one code close the same way
        shift_a = stream(seed, 2).integers(0, 2, size=10)
        shift_b = stream(seed, 3).integers(0, 2, size=10)
        coset = sumset(book ^ shift_a, book ^ shift_b)
        assert coset.size_sum == distinct
        assert coset.gap == 0.0


def test_sumset_with_a_singleton_book_keeps_the_sizes():
    rng = np.random.default_rng(5)
    book = rng.integers(0, 2, size=(9, 7))
    distinct = len({tuple(row) for row in book.tolist()})
    zero = sumset(book, np.zeros((1, 7), dtype=int))
    assert zero.size_sum == zero.size_a == distinct
    offset = sumset(book, rng.integers(0, 2, size=(1, 7)))
    assert offset.size_sum == distinct


def test_full_sumset_probability_over_seeds():
    full = 0
    for seed in range(200):
        words = stream(seed, 7).integers(0, 2, size=(2, 4, 10))
        if sumset(words[0], words[1]).size_sum == 16:
            full += 1
    assert full / 200 >= 0.9


def test_sumset_validation_and_pair_guard():
    with pytest.raises(ValueError):
        sumset(np.zeros((2, 4), dtype=int), np.zeros((2, 5), dtype=int))
    with pytest.raises(ValueError):
        sumset(np.zeros((2, 63), dtype=int), np.zeros((2, 63), dtype=int))
    with pytest.raises(ValueError):
        sumset([[0, 3]], [[0, 1]])
    with pytest.raises(ValueError):
        sumset(np.zeros((0, 4), dtype=int), np.zeros((1, 4), dtype=int))
    with pytest.raises(ValueError):
        sumset(np.zeros(4, dtype=int), np.zeros((1, 4), dtype=int))
    wide = (np.arange(1 << 17)[:, None] >> np.arange(16, -1, -1)) & 1
    with pytest.raises(ValueError):
        sumset(wide, wide[:1024])


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 8),
    data=st.data(),
)
def test_sumset_bounds_hold_on_random_books(width, data):
    make = st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=6)
    ints_a = data.draw(make)
    ints_b = data.draw(make)
    unpack = lambda vals: [[(v >> j) & 1 for j in range(width - 1, -1, -1)] for v in vals]
    book_a, book_b = unpack(ints_a), unpack(ints_b)
    rep = sumset(book_a, book_b)
    size_a, size_b, size_sum = sumset_oracle(book_a, book_b)
    assert (rep.size_a, rep.size_b, rep.size_sum) == (size_a, size_b, size_sum)
    assert max(size_a, size_b) <= size_sum <= size_a * size_b


def test_fb_zero_noise_runs_clean():
    rep = run_fb_simulation(FBConfig(3, 8, 12, 0.0, 5))
    assert rep.delivered == 11
    assert set(rep.sum_errors) == {0}
    assert set(rep.pair_errors) == {0}
    assert set(rep.third_errors) == {0}
    assert rep.error_rate("message") == 0.0
    assert rep.code_sumset is not None and rep.code_sumset.gap == 0.0
    blob = json.dumps(rep.to_json())
    assert '"delivered_blocks": 11' in blob
    with pytest.raises(ValueError):
        rep.events("sideways")


def test_fb_run_is_deterministic():
    cfg = FBConfig(3, 8, 41, 0.15, 9)
    first = run_fb_simulation(cfg)
    second = run_fb_simulation(cfg)
    assert first.sum_errors == second.sum_errors
    assert first.pair_errors == second.pair_errors
    assert first.third_errors == second.third_errors
    assert first.code_sumset == second.code_sumset
    assert ptp_simulation(cfg) == ptp_simulation(cfg)


def test_fb_sum_decoding_matches_ptp_reference_within_ci():
    for k, n in ((3, 8), (5, 16)):
        rep = fb_run(k, n)
        ptp = ptp_simulation(FBConfig(k, n, 2001, 0.1, 0))
        assert ci_overlap(rep.error_ci("sum"), (ptp.ci_lo, ptp.ci_hi))


def test_fb_error_rates_fall_with_block_length():
    short, long = fb_run(3, 8), fb_run(5, 16)
    for kind in ("sum", "message"):
        assert long.error_ci(kind)[1] < short.error_ci(kind)[0]


def test_fb_per_block_error_rates_are_stationary():
    rep = fb_run(5, 16)
    half = rep.delivered // 2
    for kind in ("sum", "message"):
        events = rep.events(kind)
        lead = wilson_interval(sum(events[:half]), half)
        tail = wilson_interval(sum(events[half:]), len(events) - half)
        assert ci_overlap(lead, tail)


def test_fb_typicality_flag_changes_bookkeeping_not_the_state():
    cfg = FBConfig(5, 16, 601, 0.1, 0)
    ml = run_fb_simulation(cfg)
    typ = run_fb_simulation(cfg, sum_decoder="typicality")
    # user 3 always transmits the nearest codeword, so the channel state
    # and everything receiver-side are identical; only the declared
    # failures differ, and strictly one way
    assert typ.pair_errors == ml.pair_errors
    assert typ.third_errors == ml.third_errors
    assert all(m <= t for m, t in zip(ml.sum_errors, typ.sum_errors))
    assert typ.error_rate("sum") >= ml.error_rate("sum")
    with pytest.raises(ValueError):
        run_fb_simulation(cfg, sum_decoder="guesswork")
    with pytest.raises(ValueError):
        run_fb_simulation(cfg, typicality_margin=0.0)


def test_fb_code_sumset_is_the_closure_of_its_book():
    # a span is closed under XOR, so the run counts the book's distinct words
    full_rank = set()
    for seed in range(12):
        for k, n in ((3, 3), (4, 6), (6, 8)):
            rep = run_fb_simulation(FBConfig(k, n, 2, 0.1, seed))
            book = _seeded_linear_book(k, n, seed)
            assert rep.code_sumset == _closure(book, book, n)[0]
            full_rank.add(rep.code_sumset.size_sum == 2**k)
    assert full_rank == {True, False}


def test_fb_config_validation():
    assert FBConfig(4, 16, 5, 0.1, 0).rate == 0.25
    for bad in (
        dict(k=0),
        dict(k=9, n=8),
        dict(k=21, n=32),
        dict(blocks=1),
        dict(delta=0.5),
        dict(delta=-0.01),
        dict(seed=-1),
    ):
        kwargs = dict(k=4, n=8, blocks=5, delta=0.1, seed=0) | bad
        with pytest.raises(ValueError):
            FBConfig(**kwargs)


def test_fb_config_refuses_blocks_past_the_cell_cap_before_allocating():
    # 10^9 blocks of 3 x 24 codeword bits would be 576 GB of int64
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            FBConfig(10, 24, 10**9, 0.1, 0)
        assert run(["simulate-macfb", "--k", "10", "--n", "24", "--blocks", str(10**9)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert FBConfig(10, 24, 10**8 // 72 - 1, 0.1, 0).blocks == 1388887


def test_fb_run_memory_stays_bounded():
    # the receiver's popcount chunks (2^22 cells of int64) set the peak
    cfg = FBConfig(10, 24, 6001, 0.1, 0)
    tracemalloc.start()
    try:
        run_fb_simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 44 * 2**20


def test_probe_separates_linear_from_random_books():
    rep = structure_necessity_probe(7, 16, 0.1, 400, 0)
    linear = rep.row("identical-linear")
    random = rep.row("independent-random")
    assert linear.sumset.gap == 0.0
    assert 0.40 < random.sumset.gap < 0.45
    assert random.ci_lo > linear.ci_hi
    with pytest.raises(KeyError):
        rep.row("hybrid")


def test_probe_gap_tracks_the_rate_at_half():
    # k/n = 1/2: pairwise XORs nearly fill {0,1}^16, so the gap sits at
    # k/n shaved by the birthday-collision factor 1 - e^-1
    for seed in range(3):
        rep = structure_necessity_probe(8, 16, 0.1, 4, seed)
        gap = rep.row("independent-random").sumset.gap
        assert 0.45 <= gap <= 0.55


def test_probe_serialization_and_validation():
    rep = structure_necessity_probe(3, 6, 0.05, 25, 2)
    blob = json.loads(json.dumps(rep.to_json()))
    assert [row["scheme"] for row in blob["rows"]] == [
        "identical-linear",
        "independent-random",
    ]
    for args in ((7, 6, 0.1, 10, 0), (4, 63, 0.1, 10, 0), (4, 8, 0.6, 10, 0),
                 (4, 8, 0.1, 0, 0), (4, 8, 0.1, 10, -3)):
        with pytest.raises(ValueError):
            structure_necessity_probe(*args)


def test_probe_pair_guard_fires_before_any_book_is_drawn():
    # 4^16 pairs pass MAX_SUMSET_PAIRS; the two 2^16 x 60 random books alone are 62 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="guard"):
            structure_necessity_probe(16, 60, 0.1, 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("sum_decoder", ["ml", "typicality"])
def test_ptp_simulation_on_the_runs_decoder_equals_the_standalone_run(sum_decoder):
    for cfg in (FBConfig(3, 8, 41, 0.1, 2), FBConfig(10, 24, 301, 0.1, 7),
                FBConfig(5, 16, 201, 0.15, 1)):
        run = run_fb_simulation(cfg, sum_decoder=sum_decoder)
        assert (run.decoder.radius is None) == (sum_decoder == "ml")
        assert ptp_simulation(cfg, run.decoder) == ptp_simulation(cfg)
    with pytest.raises(ValueError, match="2\\^4 codewords"):
        ptp_simulation(FBConfig(4, 8, 11, 0.1, 4), run.decoder)


def test_ptp_simulation_defaults_and_fields():
    cfg = FBConfig(3, 8, 11, 0.1, 4)
    rep = ptp_simulation(cfg)
    assert rep.trials == 10
    assert rep.n == 8
    assert rep.p_hat == rep.errors / rep.trials
    assert rep.scheme_kind == "identical-linear-ptp"
    assert rep.channel_kind == "bsc"
    assert 0.0 <= rep.ci_lo <= rep.p_hat <= rep.ci_hi <= 1.0
