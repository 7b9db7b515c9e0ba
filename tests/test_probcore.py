"""Probability core tests, with scipy as the independent entropy oracle."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from trimac import macfb
from trimac.channels import DMChannel
from trimac.gfcore import pack_bits
from trimac.probcore import (
    MI_CLAMP,
    ConditionalPMF,
    JointPMF,
    array_entropy,
    binary_entropy,
    binary_entropy_inverse,
    chain,
    cells_marginal,
    chain_all,
    clamp_mi,
    conditional_entropy,
    deterministic_conditional,
    entropy,
    marginalize,
    mixed_radix,
    mutual_information,
    push_forward,
    radix_ids,
    row_sums,
    sample_cells,
    sample_given,
    segment_entropies,
    support_cells,
    _pinned_cdf,
)
from trimac.rng import stream

from region_fixtures import add_derived_axis


def random_joint(rng, shape, names=None):
    w = rng.random(shape) + 1e-3
    names = names or [f"A{i}" for i in range(len(shape))]
    return JointPMF(list(zip(names, shape)), w / w.sum())


def test_entropy_matches_scipy():
    rng = np.random.default_rng(0)
    for shape in [(4,), (2, 3), (2, 3, 4)]:
        p = random_joint(rng, shape)
        want = scipy.stats.entropy(p.probs.ravel(), base=2)
        assert entropy(p) == pytest.approx(want, abs=1e-12)


def test_entropy_of_uniform_and_point_mass():
    u = JointPMF([("X", 8)], np.full(8, 0.125))
    assert entropy(u) == pytest.approx(3.0, abs=1e-13)
    d = JointPMF([("X", 5)], [0, 0, 1.0, 0, 0])
    assert entropy(d) == 0.0


def test_conditional_entropy_chain_rule():
    rng = np.random.default_rng(1)
    p = random_joint(rng, (3, 4, 2), names=["A", "B", "C"])
    lhs = entropy(p)
    rhs = entropy(p, "A") + conditional_entropy(p, "B", "A") + conditional_entropy(p, "C", ("A", "B"))
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_mutual_information_symmetry_and_independence():
    rng = np.random.default_rng(2)
    p = random_joint(rng, (3, 5), names=["A", "B"])
    assert mutual_information(p, "A", "B") == pytest.approx(
        mutual_information(p, "B", "A"), abs=1e-11
    )
    pa = marginalize(p, "A").probs
    pb = marginalize(p, "B").probs
    indep = JointPMF([("A", 3), ("B", 5)], np.outer(pa, pb))
    assert abs(mutual_information(indep, "A", "B")) <= 1e-12


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=5))
def test_mutual_information_nonnegative(seed, m):
    rng = np.random.default_rng(seed)
    p = random_joint(rng, (m, m, 2), names=["A", "B", "G"])
    assert mutual_information(p, "A", "B", "G") >= 0.0


def test_binary_entropy_inverse_roundtrip():
    for h in np.linspace(0.0, 1.0, 41):
        p = binary_entropy_inverse(h)
        assert 0.0 <= p <= 0.5
        assert abs(binary_entropy(p) - h) <= 1e-12
    for p in np.linspace(0.0, 0.5, 17):
        assert binary_entropy_inverse(binary_entropy(p)) == pytest.approx(p, abs=1e-9)


def test_binary_entropy_known_point():
    # h_b(1/4) computed by hand: 2 - (3/4) log2 3
    assert binary_entropy(0.25) == pytest.approx(2 - 0.75 * math.log2(3), abs=1e-14)


def test_chain_preserves_mass_and_factorizes():
    rng = np.random.default_rng(3)
    base = random_joint(rng, (2, 3), names=["A", "B"])
    tab = rng.random((3, 4))
    tab /= tab.sum(axis=1, keepdims=True)
    cond = ConditionalPMF([("B", 3)], [("C", 4)], tab)
    out = chain(base, cond)
    assert out.names == ("A", "B", "C")
    assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # P(a, b, c) = P(a, b) P(c | b)
    for a in range(2):
        for b in range(3):
            for c in range(4):
                assert out.probs[a, b, c] == pytest.approx(
                    base.probs[a, b] * tab[b, c], abs=1e-15
                )


def test_chain_given_axis_order_mismatch():
    rng = np.random.default_rng(4)
    base = random_joint(rng, (2, 3), names=["A", "B"])
    tab = rng.random((3, 2, 2))
    tab /= tab.sum(axis=2, keepdims=True)
    # given axes deliberately listed in the order (B, A), opposite to base
    cond = ConditionalPMF([("B", 3), ("A", 2)], [("C", 2)], tab)
    out = chain(base, cond)
    for a in range(2):
        for b in range(3):
            for c in range(2):
                assert out.probs[a, b, c] == pytest.approx(
                    base.probs[a, b] * tab[b, a, c], abs=1e-15
                )


def test_chain_all_matches_stepwise_chaining():
    rng = np.random.default_rng(5)
    p = random_joint(rng, (2, 3), ["A", "B"])
    cond = ConditionalPMF([("B", 3)], [("C", 2)], rng.dirichlet(np.ones(2), size=3))
    got = chain_all([ConditionalPMF.from_joint(p), cond])
    want = chain(p, cond)
    assert got.names == ("A", "B", "C")
    assert np.array_equal(got.probs, want.probs)


def test_cell_cap_fires_before_the_product_is_allocated():
    # 20000 x 10000 cells would take 1.6 GB; every factor here is under 200 kB
    base = JointPMF([("A", 20000)], np.full(20000, 1.0 / 20000))
    wide = ConditionalPMF((), [("B", 10000)], np.full(10000, 1e-4))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            chain(base, wide)
        with pytest.raises(ValueError, match="cap"):
            add_derived_axis(base, "D", 10000, lambda a: a % 10000)
        with pytest.raises(ValueError, match="cap"):
            chain_all([ConditionalPMF.from_joint(base), wide])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_push_forward_identity_and_xor():
    rng = np.random.default_rng(5)
    p = random_joint(rng, (2, 2), names=["A", "B"])
    same = push_forward(p, lambda a, b: (a, b), [("A", 2), ("B", 2)])
    assert np.allclose(same.probs, p.probs, atol=1e-15)
    p1, p2 = 0.3, 0.45
    indep = JointPMF(
        [("A", 2), ("B", 2)],
        np.outer([1 - p1, p1], [1 - p2, p2]),
    )
    x = push_forward(indep, lambda a, b: a ^ b, [("X", 2)])
    mix = p1 * (1 - p2) + p2 * (1 - p1)
    assert x.probs[1] == pytest.approx(mix, abs=1e-14)


def test_marginalize_orders_axes_as_requested():
    rng = np.random.default_rng(6)
    p = random_joint(rng, (2, 3, 4), names=["A", "B", "C"])
    m = marginalize(p, ("C", "A"))
    assert m.names == ("C", "A")
    assert m.probs.shape == (4, 2)
    direct = p.probs.sum(axis=1).T
    assert np.allclose(m.probs, direct, atol=1e-15)


def test_add_derived_axis_mod_sum():
    rng = np.random.default_rng(7)
    p = random_joint(rng, (3, 3), names=["A", "B"])
    out = add_derived_axis(p, "S", 3, lambda a, b: (a + b) % 3)
    assert out.names == ("A", "B", "S")
    for a in range(3):
        for b in range(3):
            assert out.probs[a, b, (a + b) % 3] == pytest.approx(p.probs[a, b], abs=1e-15)
            assert out.probs[a, b].sum() == pytest.approx(p.probs[a, b], abs=1e-15)


def test_deterministic_conditional_routes_all_mass():
    cond = deterministic_conditional([("A", 2), ("B", 2)], [("X", 2)], lambda a, b: a ^ b)
    assert cond.table[0, 1, 1] == 1.0
    assert cond.table[1, 1, 0] == 1.0


def test_cell_maps_refuse_destinations_outside_their_axes():
    # s - 1 sends A = 0 to -1, which numpy would read as the last symbol
    law = JointPMF([("A", 3)], [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="values escape"):
        deterministic_conditional([("A", 3)], [("X", 2)], lambda s: s - 1)
    with pytest.raises(ValueError, match="values escape"):
        push_forward(law, lambda s: s - 1, [("X", 2)])
    with pytest.raises(ValueError, match="values escape"):
        add_derived_axis(law, "X", 2, lambda s: s - 1)
    with pytest.raises(ValueError, match="values escape"):
        push_forward(law, lambda s: (s % 2, s), [("X", 2), ("Y", 2)])
    with pytest.raises(ValueError, match="2 index arrays for 1 axes"):
        deterministic_conditional([("A", 3)], [("X", 2)], lambda s: (s % 2, s % 2))


def test_cell_maps_broadcast_a_constant_destination():
    law = JointPMF([("A", 3), ("B", 2)], [[0.125, 0.125], [0.25, 0.25], [0.125, 0.125]])
    image = push_forward(law, lambda a, b: 1, [("X", 2)])
    assert np.array_equal(image.probs, [0.0, 1.0])
    pair = push_forward(law, lambda a, b: (a, 0), [("A", 3), ("X", 2)])
    assert np.array_equal(pair.probs, law.probs.sum(axis=1)[:, None] * [1.0, 0.0])
    derived = add_derived_axis(law, "X", 2, lambda a, b: 0)
    assert np.array_equal(derived.probs[..., 0], law.probs)
    cond = deterministic_conditional([("A", 3)], [("X", 2)], lambda a: 1)
    assert np.array_equal(cond.table, np.tile([0.0, 1.0], (3, 1)))
    with pytest.raises(ValueError, match="values escape"):
        push_forward(law, lambda a, b: 2, [("X", 2)])


def test_cell_maps_check_the_cap_before_calling_fn(monkeypatch):
    monkeypatch.setattr("trimac.probcore.MAX_CELLS", 100)
    calls = []

    def label(*grids):
        calls.append(len(grids))
        return grids[0] % 10

    law = JointPMF([("A", 20)], np.full(20, 0.05))
    with pytest.raises(ValueError, match="cap"):
        deterministic_conditional([("A", 20)], [("X", 10)], label)
    with pytest.raises(ValueError, match="cap"):
        push_forward(law, label, [("X", 101)])
    with pytest.raises(ValueError, match="cap"):
        add_derived_axis(law, "X", 10, label)
    assert not calls


def test_mass_validation_rejects_bad_tensors():
    with pytest.raises(ValueError):
        JointPMF([("X", 2)], [0.6, 0.6])
    with pytest.raises(ValueError):
        JointPMF([("X", 2)], [-0.1, 1.1])
    with pytest.raises(ValueError):
        JointPMF([("X", 2), ("X", 3)], np.full((2, 3), 1 / 6))


def test_mass_validation_rejects_non_finite_masses():
    # NaN fails every comparison, so a bare `< 0` or `> tol` test lets it through
    for bad in ([np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan], [np.inf, 0.0], [-np.inf, np.inf]):
        with pytest.raises(ValueError):
            JointPMF([("X", 2)], bad)
        with pytest.raises(ValueError):
            ConditionalPMF([("U", 1)], [("X", 2)], [bad])


def test_sample_cells_frequencies():
    rng = np.random.default_rng(9)
    p = JointPMF([("X", 2), ("Y", 2)], [[0.1, 0.2], [0.3, 0.4]])
    xs, ys = sample_cells(p, 200_000, rng)
    emp = np.zeros((2, 2))
    np.add.at(emp, (xs, ys), 1.0)
    emp /= emp.sum()
    assert np.abs(emp - p.probs).max() < 0.01


def test_alphabet_validation():
    # an axis alphabet size is an integer of at least 1
    for bad in (0, -1, 2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="size"):
            JointPMF([("A", bad)], [1.0])
        with pytest.raises(ValueError, match="size"):
            ConditionalPMF([("A", 1)], [("B", bad)], [1.0])
    with pytest.raises(ValueError, match="size"):
        add_derived_axis(JointPMF([("A", 1)], [1.0]), "D", 0, lambda a: a)


def test_numpy_integer_axis_sizes_build_their_own_shape():
    cond = ConditionalPMF([("A", np.int64(2))], [("B", 2)], [[0.5, 0.5], [0.25, 0.75]])
    assert cond.table.shape == (2, 2)
    assert cond.given_axes == (("A", 2),)
    law = JointPMF([("A", np.int32(3))], [0.2, 0.3, 0.5])
    assert law.shape == (3,)
    assert json.loads(json.dumps(law.to_json()))["axes"] == [{"name": "A", "size": 3}]
    assert chain(law, ConditionalPMF([("A", 3)], [("B", np.uint8(2))],
                                     np.full((3, 2), 0.5))).shape == (3, 2)


def test_mixed_radix_runs_in_product_order():
    for base, width in ((2, 3), (3, 4), (5, 1), (4, 2)):
        want = np.array(list(itertools.product(range(base), repeat=width)), dtype=np.int64)
        assert np.array_equal(mixed_radix(np.arange(base**width), base, width), want)
        # a chunk starting mid-range gives the matching rows
        assert np.array_equal(mixed_radix(np.arange(3, base**width), base, width), want[3:])
        # radix_ids inverts it along the last axis, for any leading shape
        assert np.array_equal(radix_ids(want, base), np.arange(base**width))
        assert np.array_equal(radix_ids(want.reshape(-1, 1, width), base).ravel(),
                              np.arange(base**width))
    # 62 base-2 digits, the widest word the packed binary kernel takes
    assert radix_ids(np.ones(62, dtype=bool), 2) == 2**62 - 1


class _TopDraw:
    """Stub generator whose uniforms are all the largest double below 1."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


class _Fixed:
    """Stub generator that hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        return self.u.reshape(size)


def test_conditional_draw_stays_inside_a_short_row():
    # rows may miss mass 1 by up to MASS_TOL; a draw above the total must not land past the row
    cond = ConditionalPMF([("S", 1)], [("X", 2)], [[0.3, 0.7 - 5e-13]])
    drawn = sample_given(cond.table, (np.zeros(4, dtype=np.int64),), np.full(4, 1.0 - 2.0**-53))
    assert drawn.tolist() == [1, 1, 1, 1]


def test_conditional_draw_takes_an_array_of_uniforms():
    table = np.array([[0.2, 0.5, 0.3], [0.6, 0.0, 0.4]])
    given = (np.array([[0, 1, 1, 0], [1, 0, 0, 1]]),)
    # recorded when sample_given still drew from a generator, default_rng(4)
    want = [[2, 0, 2, 0], [2, 1, 2, 0]]
    u = np.random.default_rng(4).random((2, 4))
    assert sample_given(table, given, u).tolist() == want
    with pytest.raises(ValueError, match="shape"):
        sample_given(table, given, u.ravel())


def test_joint_draw_skips_trailing_zero_mass_cells():
    p = JointPMF([("A", 3)], [0.5, 0.5 - 5e-13, 0.0])
    (cells,) = sample_cells(p, (2, 3), _TopDraw())
    assert cells.tolist() == [[1, 1, 1], [1, 1, 1]]


def test_clamp_mi_zeroes_round_off_and_refuses_real_negatives():
    assert clamp_mi(0.25) == 0.25
    assert clamp_mi(-1e-12) == 0.0
    assert clamp_mi(MI_CLAMP) == 0.0
    with pytest.raises(ValueError, match="below round-off clamp"):
        clamp_mi(2 * MI_CLAMP)


def test_draw_at_zero_skips_leading_zero_mass_cells():
    table = np.array([[0.0, 0.0, 0.4, 0.6], [0.5, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, 0.0]])
    rows = (np.array([0, 1, 2]),)
    assert sample_given(table, rows, np.zeros(3)).tolist() == [2, 0, 1]
    # a uniform on a CDF entry takes the next cell with mass
    assert sample_given(table, rows, np.array([0.4, 0.5, 0.5])).tolist() == [3, 3, 1]
    # a single row, which is bisected, and the joint draw follow the same rule
    assert sample_given(table[:1], (np.zeros(2, dtype=np.int64),), np.zeros(2)).tolist() == [2, 2]
    (cells,) = sample_cells(JointPMF([("A", 4)], table[0]), 3, _Fixed(np.zeros(3)))
    assert cells.tolist() == [2, 2, 2]


def zero_mass_rows(rng, rows, width, total):
    """Conditional rows of integer weights summing to `total`, over `total`.

    Row r's zero-mass cells lead (r % 4 == 0), sit in the middle (1), trail
    (2) or fall anywhere (3); every row keeps at least one cell with mass.
    """
    cols = np.arange(width)
    out = np.zeros((rows, width))
    for r in range(rows):
        cut = rng.integers(1, width)
        zero = (cols < cut, (cols > 0) & (cols < width - 1), cols >= cut,
                rng.random(width) < 0.5)[r % 4]
        live = np.flatnonzero(~zero) if (~zero).any() else cols[-1:]
        out[r, live] = 1 + rng.multinomial(total - live.size, np.full(live.size, 1 / live.size))
    return out / total


def on_cdf_entries(rng, cdf, shape):
    """Uniforms drawn from 0 and the CDF's own entries below 1: where u = 0 or
    u equals an entry, count(cdf < u) and count(cdf <= u) differ."""
    return rng.choice(np.unique(np.append(cdf[cdf < 1.0], 0.0)), size=shape)


def searchsorted_oracle(cdf_rows, cells, u):
    return np.array([np.searchsorted(cdf_rows[c], v, side="right")
                     for c, v in zip(np.ravel(cells), u.ravel())]).reshape(u.shape)


def fb_run_draws(table, rng, seed):
    """Run the feedback simulation on a (64, 8) output table, with uniforms on
    its CDF entries; return the drawn (cells, u, y) and the words of the last
    chunk's last sum decode."""
    law = ConditionalPMF([("X1", 4), ("X2", 4), ("X3", 4)], [("Y", 8)], table.reshape(4, 4, 4, 8))
    cdf = _pinned_cdf(table)
    draws, words = [], []
    real_draw = macfb.sample_given

    def draw(tab, cells, u):
        draws.append((cells[0], u, real_draw(tab, cells, u)))
        return draws[-1][2]

    class Decoder(macfb.CosetDecoder):
        def __call__(self, received, radius=None):
            words.append(np.asarray(received))
            return super().__call__(received, radius)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(macfb, "build_fb_parallel_channel",
                   lambda delta: DMChannel("fb-parallel", law, {"delta": delta}))
        mp.setattr(macfb, "uniforms",
                   lambda seeds, paths, count: on_cdf_entries(rng, cdf, (len(seeds), count)))
        mp.setattr(macfb, "sample_given", draw)
        mp.setattr(macfb, "CosetDecoder", Decoder)
        macfb.run_fb_simulation(macfb.FBConfig(3, 8, 30, 0.1, seed))
    (drawn,) = draws  # 30 blocks of 8 uses are one chunk
    return drawn, words[-4]  # the receiver pass makes the last three decodes


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_draw_is_the_searchsorted_rule_and_skips_zero_mass(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    width = int(rng.integers(3, 9))
    rows = zero_mass_rows(rng, shape[0] * shape[1], width, 1000)
    cdf = _pinned_cdf(rows)

    # sample_given, on one or more rows, read at the flat given cell
    cells_in = tuple(rng.integers(0, size, (5, 7)) for size in shape)
    cells = np.ravel_multi_index(cells_in, shape)
    u = on_cdf_entries(rng, cdf, (5, 7))
    drawn = sample_given(rows.reshape(*shape, width), cells_in, u)
    assert np.array_equal(drawn, searchsorted_oracle(cdf, cells, u))
    assert (rows[cells, drawn] > 0).all()

    # sample_cells, over the flattened joint
    joint = JointPMF([("A", rows.shape[0]), ("B", width)], rows / rows.shape[0])
    flat = _pinned_cdf(joint.probs.ravel())
    u = on_cdf_entries(rng, flat, 40)
    a, b = sample_cells(joint, 40, _Fixed(u))
    assert np.array_equal(a * width + b, np.searchsorted(flat, u, side="right"))
    assert (joint.probs[a, b] > 0).all()

    # the feedback run: its outputs, and the first-component bits y >> 2 its
    # speculation read hands the sum decoder (eighths keep every CDF entry exact)
    table = zero_mass_rows(rng, 64, 8, 8)
    (cells, u, y), last_words = fb_run_draws(table, rng, seed)
    assert np.array_equal(y, searchsorted_oracle(_pinned_cdf(table), cells, u))
    assert (table[cells, y] > 0).all()
    book = macfb._seeded_linear_book(3, 8, seed)
    msgs = pack_bits(stream(seed, 61).integers(0, 2, size=(30, 3, 3)))
    assert np.array_equal(last_words, pack_bits(y[:-1] >> 2) ^ book[msgs[:-1, 2]])


# ---------------------------------------------------------------------------
# marginals summed from the nonzero cells, against numpy's own sums


def trailing_summed_run(shape, keep) -> int:
    """Cells in the run of summed axes after the last kept axis of size > 1."""
    run = 1
    for ax in reversed(range(len(shape))):
        if ax in keep and shape[ax] > 1:
            break
        run *= shape[ax]
    return run


@st.composite
def laws_and_keeps(draw):
    """A C-contiguous law of 1-12 axes of size 1-4, its support one cell to full, and 1-12 keep sets."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    while math.prod(sizes) > 2**14:
        sizes[sizes.index(max(sizes))] -= 1
    cells = math.prod(sizes)
    nonzero = draw(st.integers(1, cells))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = np.zeros(cells)
    # masses over several binades, so a change of association moves the last bits
    flat[rng.choice(cells, nonzero, replace=False)] = rng.random(nonzero) ** 4 + 1e-3
    probs = (flat / flat.sum()).reshape(sizes)
    keeps = draw(st.lists(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)),
                          min_size=1, max_size=12))
    return probs, [[ax for ax, k in enumerate(kept) if k] for kept in keeps]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def batched_marginals(probs, keeps, cells):
    """cells_marginal over every keep list at once, each marginal shaped, or None when left to numpy."""
    mask = np.zeros((len(keeps), probs.ndim), dtype=bool)
    for row, keep in zip(mask, keeps):
        row[keep] = True
    flat, bounds, left = cells_marginal(probs.shape, cells, mask)
    assert bounds[0] == 0 and np.all(np.diff(bounds) == [math.prod(probs.shape[a] for a in k) for k in keeps])
    return [None if left[g] else flat[bounds[g]:bounds[g + 1]].reshape([probs.shape[a] for a in keep])
            for g, keep in enumerate(keeps)]


@settings(max_examples=300, deadline=None)
@given(laws_and_keeps())
def test_cells_marginal_is_numpys_sum_bit_for_bit(case):
    probs, keeps = case
    law = JointPMF([(f"A{ax}", size) for ax, size in enumerate(probs.shape)], probs)
    assert all(m is None for m in batched_marginals(probs, keeps, None))  # no cells: all to numpy
    for keep, m in zip(keeps, batched_marginals(probs, keeps, support_cells(probs))):
        if trailing_summed_run(probs.shape, keep) >= 8:
            assert m is None  # numpy sums this run pairwise
            continue
        drop = tuple(ax for ax in range(probs.ndim) if ax not in keep)
        assert same_bits(m, probs.sum(axis=drop) if drop else probs)
        assert same_bits(array_entropy(m), entropy(law, tuple(f"A{ax}" for ax in keep)))


@pytest.mark.parametrize("shape, keep, run", [
    ((3, 4, 2), (1, 2), 1),   # trailing kept axis: runs of one cell, in memory order
    ((3, 4, 2), (0, 2), 1),
    ((4, 3, 2), (0,), 6),     # trailing run of 6 cells, added in order, then run by run
    ((4, 1, 3, 2, 1), (0,), 6),  # size-1 axes neither break nor lengthen the run
    ((2, 4, 2, 4), (0, 2), 4),
    ((3, 2, 4), (0,), 8),     # numpy sums 8 cells pairwise: left to numpy
    ((2, 3, 3), (), 18),
])
def test_cells_marginal_takes_both_branches(shape, keep, run):
    rng = np.random.default_rng(11)
    probs = rng.random(shape) ** 4
    probs[rng.random(shape) < 0.3] = 0.0
    probs /= probs.sum()
    assert trailing_summed_run(shape, keep) == run
    # alone and in one batch with marginals of other run lengths
    others = [list(range(len(shape))), [0]]
    for keeps in ([list(keep)], [*others, list(keep)]):
        m = batched_marginals(probs, keeps, support_cells(probs))[-1]
        drop = tuple(ax for ax in range(len(shape)) if ax not in keep)
        if run >= 8:
            assert m is None
        else:
            assert same_bits(m, probs.sum(axis=drop))


@st.composite
def mass_segments(draw):
    """1-4 flat parts of segments of 0-600 cells, zeros mixed in, masses over many binades.

    Lengths around numpy's 8- and 128-cell pairwise cuts recur, so that
    segments with equal positive counts are summed as rows of one matrix.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = st.one_of(st.integers(0, 600), st.sampled_from([0, 1, 7, 8, 9, 127, 128, 129, 300]))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        lengths = draw(st.lists(length, min_size=1, max_size=12))
        flat = rng.random(sum(lengths)) ** 8
        flat[rng.random(flat.size) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
        parts.append((flat, np.concatenate(([0], np.cumsum(lengths)))))
    return parts


def plain_entropy(m) -> float:
    pos = m[m > 0.0]
    return float(-(pos * np.log2(pos)).sum()) + 0.0


@settings(max_examples=200, deadline=None)
@given(mass_segments())
def test_segment_entropies_are_each_segments_own_sum_bit_for_bit(parts):
    segments = [flat[lo:hi] for flat, bounds in parts for lo, hi in zip(bounds[:-1], bounds[1:])]
    batched = segment_entropies(parts)
    assert len(batched) == len(segments)
    for segment, bits in zip(segments, batched):
        # a copy: the oracle must not share the batch's memory or alignment
        alone = segment.copy()
        assert same_bits(bits, plain_entropy(alone))
        assert same_bits(bits, array_entropy(alone))


def row_sum_cases(rng, k):
    """40 rows of k cells: magnitudes 1e-300 to 1e300 of both signs, +-0.0, subnormals, -inf."""
    rows = rng.choice([-1.0, 1.0], (40, k)) * 10.0 ** rng.uniform(-300.0, 300.0, (40, k))
    rows[rng.random(rows.shape) < 0.1] = 0.0
    rows[rng.random(rows.shape) < 0.1] = -0.0
    tiny = rng.random(rows.shape) < 0.1
    rows[tiny] = rng.integers(-1000, 1000, tiny.sum()) * 5e-324
    rows[:8] = rng.choice([-1.0, 1.0], (8, k)) * rng.random((8, k))  # a sum that does round
    rows[8] = -0.0
    rows[9] = 0.0
    rows[10] = rng.choice([-1.0, 0.0, 1.0], k) * 5e-324
    rows[11, rng.integers(k)] = -np.inf
    return rows


def test_row_sums_are_numpys_row_sums_bit_for_bit():
    rng = np.random.default_rng(17)
    for k in range(1, 301):
        rows = row_sum_cases(rng, k)
        want = rows.sum(axis=-1)  # C-contiguous rows: numpy's pairwise_sum, one call per row
        wide = np.zeros((2 * k, 40))
        wide[::2] = rows.T
        for cols in (np.ascontiguousarray(rows.T), rows.T, wide[::2]):
            assert same_bits(row_sums(cols), want), (
                f"{k} cells, column strides {cols.strides}, numpy {np.__version__}")
            assert not np.shares_memory(row_sums(cols), cols)


def test_support_cells_lists_the_nonzero_cells_of_a_c_order_law_only():
    probs = np.zeros((3, 2, 4))
    probs[0, 1, 3] = probs[2, 0, 1] = 0.25
    probs[1, 1, 0] = 0.5
    ids, digits, mass = support_cells(probs)
    assert ids.tolist() == [7, 12, 17]
    assert digits.tolist() == [[0, 1, 2], [1, 1, 0], [3, 0, 1]]
    assert mass.tolist() == [0.25, 0.5, 0.25]
    assert support_cells(np.transpose(probs)) is None
    assert support_cells(probs[:, :, ::2]) is None
