"""The batched keyed-stream kernel against `rng.stream`, the generator it reproduces."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimac import rng
from trimac.rng import keyed_words, stream, sub_seeds, tally, uniforms

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7)
# 4-word Philox blocks: counts below, at and across block boundaries
COUNTS = (1, 3, 4, 5, 8, 24, 37)
PATHS = [(), (0,), (7, 2**32 - 1), (2**32,), (5, 2**40 + 3, 0, 1), tuple(range(12)),
         (2**64 - 1,) * 3, (2**70, 2), tuple(range(2**32 - 6, 2**32 + 6))]


@pytest.fixture(autouse=True)
def kernel_for_every_key_count(monkeypatch):
    """Run the batched kernel on small key counts too, which it would hand to stream."""
    monkeypatch.setattr(rng, "_KERNEL_MIN_KEYS", 0)


def check(seeds, paths, count):
    """keyed_words, uniforms and sub_seeds equal stream(seed, *path) key by key."""
    per_key = seeds if isinstance(seeds, list) else [seeds] * len(paths)
    words = keyed_words(seeds, paths, count)
    assert words.dtype == np.uint64 and words.shape == (len(paths), count)
    doubles = uniforms(seeds, paths, count)
    subs = sub_seeds(seeds, paths)
    assert subs.dtype == np.int64
    for r, (seed, path) in enumerate(zip(per_key, paths)):
        path = [int(p) for p in path]
        assert np.array_equal(words[r], stream(seed, *path).bit_generator.random_raw(count))
        assert np.array_equal(doubles[r], stream(seed, *path).random(count))
        assert int(subs[r]) == int(stream(seed, *path).integers(0, 2**62))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", COUNTS)
def test_fixed_seeds_paths_and_counts(seed, count):
    check(seed, PATHS, count)


def test_per_key_seeds_and_mixed_layouts_in_one_call():
    seeds = [0, 2**32, 3, 2**64 + 1, 2**62 - 1, 2**129, 17, 1, 2**63]
    paths = [(), (1,), (2**33, 4), tuple(range(12)), (), (2**32 - 1,) * 5, (9, 9), (2**100,),
             (0,) * 12]
    check(seeds, paths, 9)


def test_path_arrays_match_the_sequence_form():
    content = stream(3, 1).integers(0, 4, size=(40, 8))
    paths = np.column_stack((np.full(40, 11), content))
    want = keyed_words(2**40 + 3, paths.tolist(), 8)
    assert np.array_equal(keyed_words(2**40 + 3, paths, 8), want)
    check(2**40 + 3, paths[:6], 8)
    # per-key seeds with empty paths: the feedback run's channel noise
    seeds = sub_seeds(5, np.stack((np.full(30, 62), np.arange(30)), axis=1))
    empty = np.empty((30, 0), dtype=np.int64)
    assert np.array_equal(uniforms(seeds, empty, 24), uniforms(seeds.tolist(), [()] * 30, 24))
    check(seeds.tolist(), [()] * 30, 24)


_ints = st.one_of(st.integers(0, 2**34), st.integers(0, 2**72), st.integers(0, 2**140))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_ints, st.lists(_ints, max_size=12)), min_size=1, max_size=6),
       st.integers(1, 40))
def test_any_keys_match_stream(keys, count):
    seeds, paths = zip(*keys)
    check(list(seeds), [tuple(p) for p in paths], count)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_sub_seed_is_the_bounded_draw_for_any_word(head, tail):
    # A sub-seed below 2**32 needs a raw word below 2**34, which no search of
    # Philox keys finds; MT19937 yields chosen words instead.  Its 64-bit word
    # is tempered(key[0]) << 32 | tempered(key[1]), the two 32-bit raw words,
    # and tempering maps 0 to 0.
    for first in (head, 0):
        state = np.random.MT19937(0).state
        state["state"]["key"][:2] = (first, tail)
        state["state"]["pos"] = 0
        words, draws = np.random.MT19937(), np.random.MT19937()
        words.state = draws.state = state
        high, low = (int(w) for w in words.random_raw(2))
        word = high << 32 | low
        want = int(np.random.Generator(draws).integers(0, 2**62))
        original = rng.keyed_words
        rng.keyed_words = lambda seeds, paths, count: np.array([[word]], dtype=np.uint64)
        try:
            got = int(sub_seeds(0, [()])[0])
        finally:
            rng.keyed_words = original
        assert got == want == word >> 2
        if first == 0:
            assert got < 2**32


def test_few_keys_go_to_stream_with_the_same_words(monkeypatch):
    monkeypatch.setattr(rng, "_KERNEL_MIN_KEYS", 12)
    paths = np.column_stack((np.full(20, 4), stream(2, 9).integers(0, 2**40, size=(20, 3))))
    for keys in (1, 11, 12, 20):
        before = tally()
        words = keyed_words(2**33 + 1, paths[:keys], 6)
        assert np.subtract(tally(), before).tolist() == [keys, int(keys >= 12)]
        monkeypatch.setattr(rng, "_KERNEL_MIN_KEYS", 0)
        assert np.array_equal(words, keyed_words(2**33 + 1, paths[:keys], 6))
        monkeypatch.setattr(rng, "_KERNEL_MIN_KEYS", 12)


def test_validation():
    with pytest.raises(ValueError, match="seed"):
        keyed_words(-1, [()], 1)
    with pytest.raises(ValueError, match="path"):
        keyed_words(1, [(2, -3)], 1)
    with pytest.raises(ValueError, match="path"):
        keyed_words(1, np.array([[2, -3]]), 1)
    with pytest.raises(ValueError, match="count"):
        keyed_words(1, [()], 0)
    with pytest.raises(ValueError, match="one seed"):
        keyed_words([1, 2], [(), (), ()], 1)
    with pytest.raises(TypeError):
        keyed_words(1, [(1.5,)], 1)


def test_tally_counts_streams_and_kernel_calls_per_thread():
    before = tally()
    stream(1, 2)
    keyed_words(1, [(1,), (2,), (3, 4)], 5)
    sub_seeds(7, np.zeros((10, 2), dtype=np.int64))
    assert np.subtract(tally(), before).tolist() == [14, 2]
    seen = []
    worker = threading.Thread(target=lambda: (uniforms(1, [()] * 4, 2), seen.append(tally())))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert seen == [(4, 1)]
    assert np.subtract(tally(), before).tolist() == [14, 2]


def test_available_cores_reads_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert rng.available_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert rng.available_cores() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rng.available_cores() == 1
