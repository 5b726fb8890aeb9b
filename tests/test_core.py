"""Value-type contracts: feature maps, action distributions, epoch schedules, rng streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hte_bandit.core import (
    ActionDistribution,
    EpochSchedule,
    arm_block_map,
    custom_map,
    rng_stream,
    shared_intercept_map,
)


# -- feature maps -------------------------------------------------------------

def test_arm_block_featurize_zero_context():
    fm = arm_block_map(2, 2)
    np.testing.assert_array_equal(fm.featurize(np.zeros(2), 1),
                                  [0.0, 0.0, 1.0, 0.0, 0.0, 0.0])


def test_arm_block_featurize_second_block():
    fm = arm_block_map(2, 2)
    np.testing.assert_array_equal(fm.featurize(np.array([0.5, -0.5]), 2),
                                  [0.0, 0.0, 0.0, 0.5, -0.5, 1.0])


def test_arm_block_featurize_three_actions():
    fm = arm_block_map(1, 3)
    np.testing.assert_array_equal(fm.featurize(np.array([2.0]), 2),
                                  [0.0, 0.0, 2.0, 1.0, 0.0, 0.0])


def test_featurize_rejects_bad_action_and_dimension():
    fm = arm_block_map(2, 2)
    with pytest.raises(ValueError):
        fm.featurize(np.zeros(2), 0)
    with pytest.raises(ValueError):
        fm.featurize(np.zeros(2), 3)
    with pytest.raises(ValueError):
        fm.featurize(np.zeros(3), 1)


def test_feature_dims():
    assert arm_block_map(2, 2).feature_dim == 6
    assert arm_block_map(20, 2).feature_dim == 42
    assert shared_intercept_map(2, 2).feature_dim == 5
    assert shared_intercept_map(20, 2).feature_dim == 41


def test_feature_map_equality_hash_and_repr_see_only_the_fields():
    fm = arm_block_map(2, 2)
    assert fm == arm_block_map(2, 2) and hash(fm) == hash(arm_block_map(2, 2))
    assert fm != shared_intercept_map(2, 2) and fm != arm_block_map(2, 3)
    assert repr(fm) == ("FeatureMap(kind='arm_block_with_intercept', raw_dim=2, "
                        "num_actions=2, feature_dim=6, fn=None, custom_dim=0, "
                        "custom_intercepts=())")


def test_shared_intercept_layout():
    fm = shared_intercept_map(2, 3)
    v = fm.featurize(np.array([0.25, -1.0]), 2)
    np.testing.assert_array_equal(v, [0.0, 0.0, 0.25, -1.0, 0.0, 0.0, 1.0])
    # the trailing intercept is on for every action
    assert all(fm.featurize(np.ones(2), a)[-1] == 1.0 for a in (1, 2, 3))


def test_shared_intercept_cancels_in_score_gaps():
    """With one shared intercept, score differences between actions cannot
    carry a constant: shifting the intercept coordinate moves all K scores
    together."""
    fm = shared_intercept_map(3, 2)
    rng = rng_stream(7, 0)
    theta = rng.standard_normal(fm.feature_dim)
    shifted = theta.copy()
    shifted[-1] += 5.0
    x = rng.standard_normal(3)
    gaps = np.diff(fm.scores(theta, x))
    gaps_shifted = np.diff(fm.scores(shifted, x))
    np.testing.assert_allclose(gaps, gaps_shifted, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(-4.0, 4.0), st.integers(1, 3))
def test_arm_block_scaling(alpha, action):
    """phi(alpha x, a) scales the context sub-block and keeps intercept 1."""
    fm = arm_block_map(3, 3)
    x = np.array([0.3, -1.2, 0.8])
    v, vs = fm.featurize(x, action), fm.featurize(alpha * x, action)
    w = fm.raw_dim + 1
    b = (action - 1) * w
    np.testing.assert_allclose(vs[b:b + 3], alpha * v[b:b + 3], atol=1e-12)
    assert vs[b + 3] == 1.0
    assert not vs[:b].any() and not vs[b + w:].any()


def explicit_phi(fm, x, a):
    """phi(x, a) of a built-in map written out: block a-1 of an arm-block
    vector holds [x; 1]; block a-1 of a shared vector holds x, and its last
    entry is the intercept every action shares."""
    d, K = fm.raw_dim, fm.num_actions
    if fm.kind == "arm_block_with_intercept":
        v = np.zeros(K * (d + 1))
        v[(a - 1) * (d + 1):a * (d + 1)] = np.append(x, 1.0)
    else:
        v = np.zeros(K * d + 1)
        v[(a - 1) * d:a * d] = x
        v[-1] = 1.0
    return v


def test_scores_match_explicit_featurization():
    """scores equal the inner products with phi from all_actions and with
    the layout written out, one context or stacked, K >= 8 included."""
    rng = rng_stream(3, 0)
    for fm in (arm_block_map(4, 3), shared_intercept_map(4, 3)):
        for _ in range(20):
            theta = rng.standard_normal(fm.feature_dim)
            x = rng.standard_normal(4)
            np.testing.assert_allclose(fm.scores(theta, x),
                                       fm.all_actions(x) @ theta, atol=1e-12)
    for d, K in ((4, 3), (1, 2), (3, 8), (5, 11)):
        for fm in (arm_block_map(d, K), shared_intercept_map(d, K)):
            theta = rng.standard_normal(fm.feature_dim)
            X = rng.standard_normal((6, d))
            want = np.array([[explicit_phi(fm, x, a) @ theta for a in range(1, K + 1)]
                             for x in X])
            np.testing.assert_allclose(fm.scores(theta, X), want, atol=1e-12)
            for x, row in zip(X, want):
                np.testing.assert_allclose(fm.scores(theta, x), row, atol=1e-12)
                for a in range(1, K + 1):
                    np.testing.assert_array_equal(fm.featurize(x, a),
                                                  explicit_phi(fm, x, a))


def test_intercept_indices_and_context_count():
    fm = arm_block_map(2, 2)
    assert fm.intercept_indices() == (2, 5)
    assert shared_intercept_map(2, 2).intercept_indices() == (4,)
    for d, K in ((1, 2), (3, 8), (5, 11)):
        assert arm_block_map(d, K).intercept_indices() == tuple(
            a * (d + 1) + d for a in range(K))
        assert shared_intercept_map(d, K).intercept_indices() == (K * d,)
    theta = np.array([0.0, 3.0, 7.0, 0.0, 0.0, -2.0])
    assert fm.context_coefficients(theta) == 1   # intercepts at 2, 5 excluded
    custom = custom_map(lambda x, a: np.zeros(4), feature_dim=4, num_actions=2,
                        intercepts=(0, 3))
    for m in (fm, shared_intercept_map(2, 2), custom):
        mask = m.penalized()
        assert mask.dtype == bool and mask.shape == (m.feature_dim,)
        assert tuple(np.flatnonzero(~mask)) == tuple(sorted(m.intercept_indices()))


def test_custom_map_contract():
    fn = lambda x, a: np.concatenate([x, [float(a)]])
    fm = custom_map(fn, feature_dim=3, num_actions=2, raw_dim=2, intercepts=(2,))
    np.testing.assert_array_equal(fm.featurize(np.array([1.0, 2.0]), 2),
                                  [1.0, 2.0, 2.0])
    assert fm.intercept_indices() == (2,)
    bad = custom_map(lambda x, a: np.zeros(4), feature_dim=3, num_actions=2)
    with pytest.raises(ValueError):
        bad.featurize(np.zeros(2), 1)


@pytest.mark.parametrize("intercepts", [(5,), (-1,), (1, 1), (1.0,)])
def test_custom_map_rejects_bad_intercept_indices(intercepts):
    fn = lambda x, a: np.concatenate([x, [float(a)]])
    with pytest.raises(ValueError, match="intercepts"):
        custom_map(fn, feature_dim=3, num_actions=2, raw_dim=2, intercepts=intercepts)


# -- action distributions ------------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ValueError):
        ActionDistribution([0.5, 0.4])          # does not sum to 1
    with pytest.raises(ValueError):
        ActionDistribution([1.5, -0.5])         # outside [0, 1]
    for probs in ([np.nan, np.nan], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            ActionDistribution(probs)
    d = ActionDistribution([0.25, 0.75])
    assert d.prob(1) == 0.25 and d.prob(2) == 0.75
    assert d.num_actions == 2


def test_distribution_sampling_frequencies():
    d = ActionDistribution([0.2, 0.5, 0.3])
    rng = rng_stream(11, 0)
    draws = np.array([d.sample(rng) for _ in range(20000)])
    assert set(np.unique(draws)) <= {1, 2, 3}
    freq = np.bincount(draws, minlength=4)[1:] / draws.size
    np.testing.assert_allclose(freq, d.probs, atol=0.02)


def test_point_mass_sampling():
    d = ActionDistribution([0.0, 1.0])
    rng = rng_stream(0, 0)
    assert all(d.sample(rng) == 2 for _ in range(100))


# -- epoch schedules ------------------------------------------------------------

def test_doubling_epoch_of():
    s = EpochSchedule("doubling", base=1)   # boundaries 2, 4, 8, ...
    assert s.epoch_of(1) == 1
    assert s.epoch_of(2) == 1
    assert s.epoch_of(3) == 2
    assert s.epoch_of(4) == 2
    assert s.epoch_of(5) == 3
    assert s.boundary(0) == 0 and s.boundary(1) == 2 and s.boundary(3) == 8
    assert s.epoch_length(3) == 4


def test_doubling_with_base():
    s = EpochSchedule("doubling", base=128)
    assert s.boundary(1) == 256
    assert s.epoch_of(256) == 1 and s.epoch_of(257) == 2
    assert s.epoch_length(6) == 4096


def test_fixed_length_epochs():
    s = EpochSchedule("fixed_length", base=100)
    assert s.epoch_of(1) == 1 and s.epoch_of(100) == 1 and s.epoch_of(101) == 2
    assert s.epoch_length(5) == 100


def test_explicit_schedule():
    s = EpochSchedule("explicit_list", boundaries=(3, 10, 50))
    assert s.epoch_of(10) == 2
    assert s.epoch_of(3) == 1 and s.epoch_of(4) == 2 and s.epoch_of(11) == 3
    with pytest.raises(ValueError):
        s.epoch_of(51)
    with pytest.raises(ValueError):
        s.epoch_of(0)
    with pytest.raises(ValueError):
        EpochSchedule("explicit_list", boundaries=(5, 5, 9))
    with pytest.raises(ValueError):
        EpochSchedule("doubling", base=0)
    with pytest.raises(ValueError):
        EpochSchedule("hourly")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 100_000), st.sampled_from(["doubling", "fixed_length"]),
       st.integers(1, 64))
def test_epoch_brackets_round(t, kind, base):
    """tau_{m-1} < t <= tau_m for the epoch m containing round t."""
    s = EpochSchedule(kind, base=base)
    m = s.epoch_of(t)
    assert s.boundary(m - 1) < t <= s.boundary(m)


# -- rng streams -----------------------------------------------------------------

def test_stream_reproducibility_and_separation():
    a = rng_stream(42, 0).random(8)
    b = rng_stream(42, 0).random(8)
    c = rng_stream(42, 1).random(8)
    d = rng_stream(43, 0).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
