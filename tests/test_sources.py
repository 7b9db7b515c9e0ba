"""Source model tests."""

import numpy as np
import pytest
import scipy.stats

from trimac.probcore import JointPMF, entropy
from trimac.sources import (
    SourceModel,
    make_additive_triple,
    make_sigma_gamma_triple,
    sample_iid,
)


def test_additive_triple_marginals_and_support():
    p1, p2 = 0.3, 0.2
    m = make_additive_triple(p1, p2)
    assert m.marginal("S1")[1] == pytest.approx(p1)
    assert m.marginal("S2")[1] == pytest.approx(p2)
    mix = p1 * (1 - p2) + p2 * (1 - p1)
    assert m.marginal("S3")[1] == pytest.approx(mix)
    for s1, s2, s3 in m.support():
        assert s1 ^ s2 ^ s3 == 0


def test_sigma_gamma_marginals_and_support():
    sigma, gamma = 0.2, 0.35
    m = make_sigma_gamma_triple(sigma, gamma)
    assert m.marginal("S1")[1] == pytest.approx(sigma)
    assert m.marginal("S3")[1] == pytest.approx(gamma)
    mix = sigma * (1 - gamma) + gamma * (1 - sigma)
    assert m.marginal("S2")[1] == pytest.approx(mix)
    for s1, s2, s3 in m.support():
        assert s1 ^ s2 ^ s3 == 0
    # S1 and S3 independent
    joint13 = m.joint.probs.sum(axis=1)
    outer = np.outer(m.marginal("S1"), m.marginal("S3"))
    assert np.allclose(joint13, outer, atol=1e-15)


def test_sigma_gamma_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_sigma_gamma_triple(0.6, 0.1)
    with pytest.raises(ValueError):
        make_sigma_gamma_triple(0.1, -0.01)


def test_entropy_of_sigma_gamma_joint():
    # H(S1, S2, S3) = H(S1) + H(S3) since S2 is a function of the pair
    sigma, gamma = 0.15, 0.3
    m = make_sigma_gamma_triple(sigma, gamma)
    want = scipy.stats.entropy([sigma, 1 - sigma], base=2) + scipy.stats.entropy(
        [gamma, 1 - gamma], base=2
    )
    assert entropy(m.joint) == pytest.approx(want, abs=1e-12)


def test_sample_iid_matches_joint_frequencies():
    m = make_sigma_gamma_triple(0.25, 0.4)
    s1, s2, s3 = sample_iid(m, 100_000, seed=42)
    assert np.array_equal(s1 ^ s3, s2)
    emp = np.zeros((2, 2, 2))
    np.add.at(emp, (s1, s2, s3), 1.0)
    emp /= emp.sum()
    # chi-square against the design joint on the support
    mask = m.joint.probs > 0
    stat = ((emp[mask] - m.joint.probs[mask]) ** 2 / m.joint.probs[mask]).sum() * 100_000
    assert stat < scipy.stats.chi2.ppf(0.9999, df=mask.sum() - 1)


def test_sample_iid_deterministic():
    m = make_additive_triple(0.3, 0.3)
    a = sample_iid(m, 50, seed=5)
    b = sample_iid(m, 50, seed=5)
    c = sample_iid(m, 50, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_generic_source_requires_named_axes():
    with pytest.raises(ValueError):
        SourceModel(JointPMF([("A", 2), ("B", 2), ("C", 2)], np.full((2, 2, 2), 0.125)))



def test_sample_iid_pinned_draws():
    # recorded before sampling moved into probcore.sample_cells
    draws = sample_iid(make_additive_triple(0.2, 0.35), 12, 5)
    assert [a.tolist() for a in draws] == [
        [1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0],
        [1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0],
    ]
    draws = sample_iid(make_sigma_gamma_triple(0.1, 0.3), 12, 9)
    assert [a.tolist() for a in draws] == [
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0],
    ]
