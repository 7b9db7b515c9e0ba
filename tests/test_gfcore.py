"""Field core tests.

The joint image law is checked against a brute-force enumeration oracle
written here from scratch (dict counting over itertools products, exact
rationals), independent of the library's own vectorized verifier.
"""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from trimac import gfcore
from trimac.cli import run
from trimac.gfcore import (
    check_prime_field,
    image_probability_case,
    joint_image_probability,
    sample_uniform_matrix,
    sample_zero_sum_offsets,
    verify_image_probability,
)
from trimac.probcore import MAX_CELLS
from trimac.rng import stream


def oracle_joint_counts(q, k, n):
    """counts[(s1, s2, v1, v2)] over every matrix, pure Python."""
    counts = {}
    vecs = list(itertools.product(range(q), repeat=k))
    for flat in itertools.product(range(q), repeat=k * n):
        g = [flat[r * n : (r + 1) * n] for r in range(k)]
        for s1 in vecs:
            v1 = tuple(sum(s1[r] * g[r][c] for r in range(k)) % q for c in range(n))
            for s2 in vecs:
                v2 = tuple(sum(s2[r] * g[r][c] for r in range(k)) % q for c in range(n))
                key = (s1, s2, v1, v2)
                counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("q,k,n", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 1)])
def test_joint_image_probability_matches_bruteforce(q, k, n):
    counts = oracle_joint_counts(q, k, n)
    total = q ** (k * n)
    for s1 in itertools.product(range(q), repeat=k):
        for s2 in itertools.product(range(q), repeat=k):
            for v1 in itertools.product(range(q), repeat=n):
                for v2 in itertools.product(range(q), repeat=n):
                    got = joint_image_probability(s1, s2, v1, v2, q)
                    want = Fraction(counts.get((s1, s2, v1, v2), 0), total)
                    assert Fraction(got).limit_denominator(total * 4) == want


def test_lookup_needs_no_mask_past_the_cell_cap():
    # q^{2n} = 2^80 and 251^14 cells: far past MAX_CELLS, looked up in O(n)
    rng = stream(3)
    for q, n in ((2, 40), (251, 7)):
        assert q ** (2 * n) > MAX_CELLS
        v = rng.integers(0, q, size=n)
        w = (v + 1) % q
        zero = np.zeros(n, dtype=np.int64)
        assert joint_image_probability((1, 0), (0, 1), v, w, q) == q ** (-2.0 * n)
        a = q - 1  # s1 = a s2, so the image pair must satisfy v1 = a v2
        assert joint_image_probability((a, a), (1, 1), a * v, v, q) == q ** (-1.0 * n)
        assert joint_image_probability((a, a), (1, 1), a * v + 1, v, q) == 0.0
        assert joint_image_probability((0, 0), (1, 0), zero, w, q) == q ** (-1.0 * n)
        assert joint_image_probability((0, 0), (1, 0), w, w, q) == 0.0
        assert joint_image_probability((1, 0), (0, 0), w, zero, q) == q ** (-1.0 * n)
        assert joint_image_probability((0, 0), (0, 0), zero, zero, q) == 1.0
        assert joint_image_probability((0, 0), (0, 0), zero, w, q) == 0.0
    # ids of 2^63 vectors still fit int64; past that the lookup refuses
    assert joint_image_probability((1,), (1,), [1] * 63, [1] * 63, 2) == 2.0**-63
    with pytest.raises(ValueError, match="int64"):
        joint_image_probability((1,), (1,), [1] * 64, [1] * 64, 2)


@pytest.mark.parametrize("q,k,n", [(2, 1, 1), (2, 2, 2), (2, 3, 2), (3, 1, 2), (3, 2, 2)])
def test_verify_image_probability_exact(q, k, n):
    report = verify_image_probability(q, k, n)
    assert report.ok
    assert report.max_abs_deviation == 0.0
    assert report.matrices == q ** (k * n)
    assert sum(report.case_counts.values()) == q ** (2 * k)


_SUPPORT_SIZE, _IN_SUPPORT = gfcore._support_size, gfcore._in_support


def _support_size_times_q(case, q, n):
    return _SUPPORT_SIZE(case, q, n) * q


def _slice_of_minus_a(case, a, v1, v2, q):
    # v1 = -a v2 in place of v1 = a v2: a different slice whenever 2a != 0 mod q
    return _IN_SUPPORT(case, None if a is None else -a % q, v1, v2, q)


@pytest.mark.parametrize("name,wrong,q", [("_support_size", _support_size_times_q, 2),
                                          ("_support_size", _support_size_times_q, 3),
                                          ("_in_support", _slice_of_minus_a, 3)])
def test_a_wrong_closed_form_fails_the_verifier(monkeypatch, tmp_path, name, wrong, q):
    monkeypatch.setattr(gfcore, name, wrong)
    report = verify_image_probability(q, 2, 2)
    assert report.ok is False and report.max_abs_deviation > 0
    argv = ["verify-lemmas", "--q", str(q), "--k", "2", "--n", "2", "--out-dir", str(tmp_path)]
    assert run(argv) == 1


# recorded from the object-layer verifier, before the array rewrite
PINNED_REPORTS = {
    (2, 4, 4): (65536, {"zero-zero": 1, "left-zero": 15, "right-zero": 15,
                        "proportional": 15, "independent": 210}),
    (3, 2, 2): (81, {"zero-zero": 1, "left-zero": 8, "right-zero": 8,
                     "proportional": 16, "independent": 48}),
    (5, 1, 2): (25, {"zero-zero": 1, "left-zero": 4, "right-zero": 4, "proportional": 16}),
    (2, 2, 6): (4096, {"zero-zero": 1, "left-zero": 3, "right-zero": 3,
                       "proportional": 3, "independent": 6}),
}


@pytest.mark.parametrize("q,k,n", sorted(PINNED_REPORTS))
def test_verify_image_probability_report_is_pinned(q, k, n):
    matrices, case_counts = PINNED_REPORTS[(q, k, n)]
    report = verify_image_probability(q, k, n)
    assert report.matrices == matrices
    assert report.case_counts == case_counts
    assert report.max_abs_deviation == 0.0
    assert report.ok is True


@pytest.mark.parametrize("budget", [1, 3 * 16, 4 * 16, 10**9])
def test_verify_tally_does_not_depend_on_the_chunk_size(monkeypatch, budget):
    # per tally call at (2, 2, 2), 4 index vectors and 4 column values: one
    # matrix (below the 64 ids of one column's values), the 4 values of the
    # last column, and every matrix
    monkeypatch.setattr(gfcore, "_TALLY_CELLS", budget)
    add, calls = np.add, []

    class SpyAdd:
        def __getattr__(self, name):
            return getattr(add, name)

        def at(self, counts, ids, value):
            calls.append(ids.size)
            add.at(counts, ids, value)

    monkeypatch.setattr(np, "add", SpyAdd())
    report = verify_image_probability(2, 2, 2)
    monkeypatch.undo()
    assert report.ok and report.matrices == 16
    # every matrix's 4 x 4 index pairs are tallied once
    assert calls == {1: [16] * 16, 3 * 16: [16] * 16, 4 * 16: [64] * 4, 10**9: [256]}[budget]


def test_verify_memory_stays_small():
    tracemalloc.start()
    try:
        verify_image_probability(2, 4, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_verify_guard_rejects_huge_enumeration():
    with pytest.raises(ValueError):
        verify_image_probability(2, 5, 6)


def test_case_classification():
    z, a, b = (0, 0), (1, 2), (1, 1)  # b is independent of a mod 5
    assert image_probability_case(z, z, 5) == ("zero-zero", None)
    assert image_probability_case(z, a, 5) == ("left-zero", None)
    assert image_probability_case(a, z, 5) == ("right-zero", None)
    assert image_probability_case((3, 1), a, 5) == ("proportional", 3)
    assert image_probability_case(a, b, 5) == ("independent", None)
    # entries are read as residues: (8, 1) is (3, 1) mod 5
    assert image_probability_case((8, 1), a, 5) == ("proportional", 3)
    assert joint_image_probability((8, 1), a, (5, 6), (10, 2), 5) == 0.04
    with pytest.raises(ValueError):
        image_probability_case((0, 1), (1, 1, 0), 5)


@given(st.integers(min_value=2, max_value=60))
def test_field_spec_primality_matches_sympy(q):
    if sympy.isprime(q):
        check_prime_field(q)
    else:
        with pytest.raises(ValueError):
            check_prime_field(q)


@pytest.mark.parametrize("q,t", [(2, 2), (2, 3), (3, 3), (7, 4)])
def test_zero_sum_offsets_sum_to_zero(q, t):
    offsets = sample_zero_sum_offsets(q, 12, t, 99)
    assert offsets.shape == (t, 12) and offsets.dtype == np.int64
    assert not (offsets.sum(axis=0) % q).any()
    # the head rows are the keyed stream's draws
    assert np.array_equal(offsets[:-1], stream(99).integers(0, q, (t - 1, 12)))


def test_zero_sum_offsets_head_is_uniform():
    # chi-square on the first offset's symbol frequencies
    import scipy.stats

    q, n, reps = 3, 8, 2000
    tallies = np.zeros(q)
    for s in range(reps):
        first = sample_zero_sum_offsets(q, n, 3, s)[0]
        for sym in range(q):
            tallies[sym] += (first == sym).sum()
    expected = np.full(q, reps * n / q)
    stat = ((tallies - expected) ** 2 / expected).sum()
    assert stat < scipy.stats.chi2.ppf(0.9999, df=q - 1)


def test_sampling_is_deterministic_per_seed():
    a = sample_uniform_matrix(5, 3, 4, 7)
    b = sample_uniform_matrix(5, 3, 4, 7)
    c = sample_uniform_matrix(5, 3, 4, 8)
    assert a.dtype == np.int64 and a.shape == (3, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # keyed as rng.stream keys its substreams
    assert np.array_equal(sample_uniform_matrix(5, 3, 4, 7, 2, 9),
                          stream(7, 2, 9).integers(0, 5, (3, 4)))
    assert np.array_equal(sample_zero_sum_offsets(5, 4, 3, 7, 2, 9)[:2],
                          stream(7, 2, 9).integers(0, 5, (2, 4)))
