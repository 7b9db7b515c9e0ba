"""Channel law tests, including the noise-entropy identity used by the
region evaluators: H(N) = 1 + h_b(2 delta)/2 for the quaternary noise."""

import numpy as np
import pytest
import scipy.stats

from trimac import channels
from trimac.channels import (
    build_additive_pair_channel,
    build_fb_parallel_channel,
    build_quaternary_channel,
    quaternary_noise_law,
    transmit,
)
from trimac.probcore import JointPMF, binary_entropy, chain, mutual_information


def test_additive_pair_states():
    delta = 0.1
    ch = build_additive_pair_channel(delta)
    t = ch.transition.table
    # clean state x3 = x1 xor x2: independent BSC pair
    assert t[1, 0, 1, 2 * 1 + 0] == pytest.approx((1 - delta) ** 2)
    assert t[1, 0, 1, 2 * 0 + 1] == pytest.approx(delta**2)
    # corrupted state: uniform on four outputs
    assert np.allclose(t[1, 0, 0], 0.25)


def test_quaternary_noise_entropy_identity():
    for delta in np.linspace(0.01, 0.25, 25):
        law = quaternary_noise_law(delta)
        h = scipy.stats.entropy(law[law > 0], base=2)
        assert h == pytest.approx(1 + 0.5 * binary_entropy(2 * delta), abs=1e-12)


def test_quaternary_structured_input_hits_noise_bound():
    delta = 0.17
    ch = build_quaternary_channel(delta)
    probs = np.zeros((2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            probs[x1, x2, x1 ^ x2] = 0.25
    joint = JointPMF([("X1", 2), ("X2", 2), ("X3", 2)], probs)
    out = chain(joint, ch.transition)
    want = 2 - (1 + 0.5 * binary_entropy(2 * delta))
    got = mutual_information(out, ("X1", "X2", "X3"), "Y")
    assert got == pytest.approx(want, abs=1e-12)
    # output itself is uniform in that case
    assert np.allclose(out.marginal_array("Y"), 0.25, atol=1e-12)


def test_quaternary_rejects_out_of_range_delta():
    with pytest.raises(ValueError):
        build_quaternary_channel(0.3)
    with pytest.raises(ValueError):
        build_quaternary_channel(0.0)


def test_fb_parallel_component_laws():
    delta = 0.2
    ch = build_fb_parallel_channel(delta)
    t = ch.transition.table
    # inputs: user pairs (x11,x12)=(1,0) -> 2, (x21,x22)=(0,1) -> 1, (x31,x32)=(1,1) -> 3
    row = t[2, 1, 3]
    # first coordinate: x11^x21^x31 = 0, so y1=1 with prob delta
    p_y1 = sum(row[4 * 1 + 2 * a + b] for a in range(2) for b in range(2))
    assert p_y1 == pytest.approx(delta)
    # second component state: x32=1 == x12^x22=1, clean pair around (0, 1)
    p_clean = row[4 * 0 + 2 * 0 + 1] + row[4 * 1 + 2 * 0 + 1]
    assert p_clean == pytest.approx((1 - delta) ** 2)


def test_fb_parallel_corrupted_second_component():
    delta = 0.2
    ch = build_fb_parallel_channel(delta)
    row = ch.transition.table[2, 1, 2]  # x32=0 != x12^x22=1
    pair = np.zeros((2, 2))
    for y1 in range(2):
        for a in range(2):
            for b in range(2):
                pair[a, b] += row[4 * y1 + 2 * a + b]
    assert np.allclose(pair, 0.25)


def _loop_additive_pair(delta):
    table = np.zeros((2, 2, 2, 4))
    for x1, x2, x3, y1, y2 in np.ndindex(2, 2, 2, 2, 2):
        if x3 == x1 ^ x2:
            p1 = delta if y1 != x1 else 1.0 - delta
            p2 = delta if y2 != x2 else 1.0 - delta
            table[x1, x2, x3, 2 * y1 + y2] = p1 * p2
        else:
            table[x1, x2, x3, 2 * y1 + y2] = 0.25
    return table


def _loop_quaternary(delta):
    noise = quaternary_noise_law(delta)
    table = np.zeros((2, 2, 2, 4))
    for x1, x2, x3, nv in np.ndindex(2, 2, 2, 4):
        table[x1, x2, x3, ((x1 ^ x2) + x3 + nv) % 4] += noise[nv]
    return table


def _loop_fb_parallel(delta):
    table = np.zeros((4, 4, 4, 8))
    for c1, c2, c3, y1, y21, y22 in np.ndindex(4, 4, 4, 2, 2, 2):
        (x11, x12), (x21, x22), (x31, x32) = divmod(c1, 2), divmod(c2, 2), divmod(c3, 2)
        p_first = delta if y1 != x11 ^ x21 ^ x31 else 1.0 - delta
        if x32 == x12 ^ x22:
            p1 = delta if y21 != x12 else 1.0 - delta
            p2 = delta if y22 != x22 else 1.0 - delta
            p_second = p1 * p2
        else:
            p_second = 0.25
        table[c1, c2, c3, 4 * y1 + 2 * y21 + y22] = p_first * p_second
    return table


def test_channel_tables_equal_their_loop_forms_bit_for_bit():
    rng = np.random.default_rng(21)
    grid = np.concatenate((np.linspace(0.0, 0.5, 51), rng.uniform(0.0, 0.5, 50)))
    for delta in map(float, grid):
        pair = build_additive_pair_channel(delta).transition.table
        assert np.array_equal(pair, _loop_additive_pair(delta)), delta
        if delta < 0.5:
            fb = build_fb_parallel_channel(delta).transition.table
            assert np.array_equal(fb, _loop_fb_parallel(delta)), delta
        if 0.0 < delta <= 0.25:
            quaternary = build_quaternary_channel(delta).transition.table
            assert np.array_equal(quaternary, _loop_quaternary(delta)), delta


def test_transmit_frequencies_and_determinism():
    ch = build_quaternary_channel(0.25)
    n = 60_000
    x1 = np.zeros(n, dtype=int)
    x2 = np.ones(n, dtype=int)
    x3 = np.zeros(n, dtype=int)
    y = transmit(ch, (x1, x2, x3), seed=4)
    emp = np.bincount(y, minlength=4) / n
    want = ch.transition.table[0, 1, 0]
    stat = n * ((emp[want > 0] - want[want > 0]) ** 2 / want[want > 0]).sum()
    assert stat < scipy.stats.chi2.ppf(0.9999, df=(want > 0).sum() - 1)
    assert np.array_equal(y, transmit(ch, (x1, x2, x3), seed=4))
    assert not np.array_equal(y, transmit(ch, (x1, x2, x3), seed=5))


def test_transmit_pinned_draws():
    # recorded before sampling moved into probcore.sample_given
    x = [np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0]), np.array([1, 1, 0, 0, 1, 0, 1, 0, 1, 1]),
         np.array([1, 0, 1, 0, 0, 0, 1, 1, 0, 1])]
    y = transmit(build_additive_pair_channel(0.2), x, 3)
    assert y.tolist() == [0, 1, 2, 3, 3, 1, 3, 2, 3, 3]
    y = transmit(build_quaternary_channel(0.2), x, 4)
    assert y.tolist() == [2, 1, 3, 1, 1, 1, 2, 3, 0, 3]
    pairs = [2 * a + b for a, b in zip(x, x[1:] + x[:1])]
    y = transmit(build_fb_parallel_channel(0.15), pairs, 5)
    assert y.tolist() == [5, 6, 1, 0, 2, 0, 3, 3, 6, 5]


class _ZeroDraw:
    """Stub generator whose uniforms are all 0.0, the smallest double a generator returns."""

    def random(self, size):
        return np.zeros(size)


def test_transmit_at_u_zero_outputs_the_first_symbol_with_mass(monkeypatch):
    channel = build_quaternary_channel(0.2)
    table = channel.transition.table
    # Y = 1 + N at x = (0, 0, 1), and the noise law puts no mass on N = 3
    assert table[0, 0, 1, 0] == 0.0
    monkeypatch.setattr(channels, "stream", lambda seed: _ZeroDraw())
    x = np.indices((2, 2, 2)).reshape(3, -1)
    y = transmit(channel, x, 0)
    assert y[1] == 1  # the cell x = (0, 0, 1)
    assert np.array_equal(y, (table[x[0], x[1], x[2]] > 0).argmax(axis=1))
