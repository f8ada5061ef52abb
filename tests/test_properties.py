"""Property tests: the whole-array code against its loop references and
the quadratic oracle, and the symmetries of the influence profile.

Models are drawn at random, including transition matrices within 1e-12 of
the identity, where posterior marginals sit next to 0 and 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmkld import (
    DiscreteEmission,
    GaussianEmission,
    HmmModel,
    ObservationSequence,
    empirical_auc,
    forward_backward,
    kld_influence,
    kld_influence_naive,
    reorder_states,
    windowed_influence,
)
from hmmkld.training import _expected_transition_counts

from loop_reference import bootstrap_auc_loop, transition_counts_loop, windowed_influence_loop

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def problems(draw, max_n=300):
    """(model, observations) with m in 1..4 states and n in 1..max_n."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_n))
    stickiness = draw(st.sampled_from([0.0, 0.9, 1.0 - 1e-6, 1.0 - 1e-12]))
    discrete = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    initial = rng.random(m) + 0.05
    initial /= initial.sum()
    transition = rng.random((m, m)) + 0.05
    transition /= transition.sum(axis=1, keepdims=True)
    transition = stickiness * np.eye(m) + (1.0 - stickiness) * transition
    if discrete:
        table = rng.random((m, 3)) + 0.05
        table /= table.sum(axis=1, keepdims=True)
        model = HmmModel(initial, transition, DiscreteEmission(table))
        values = rng.integers(0, 3, n)
    else:
        emission = GaussianEmission(rng.normal(0, 2, m), rng.uniform(0.1, 1.5, m))
        model = HmmModel(initial, transition, emission)
        values = rng.normal(0, 2.5, n)
    return model, ObservationSequence(values)


def assert_close_or_equal_inf(actual, expected, tol):
    """|actual - expected| <= tol * max(1, |expected|), with equal infinities."""
    np.testing.assert_array_equal(np.isinf(actual), np.isinf(expected))
    finite = np.isfinite(expected)
    err = np.abs(actual[finite] - expected[finite])
    assert np.all(err <= tol * np.maximum(1.0, np.abs(expected[finite])))


@PROPERTY_SETTINGS
@given(problems(), st.integers(1, 6))
def test_windowed_matches_loop_and_is_nonnegative(problem, h):
    model, obs = problem
    h = min(h, len(obs))
    fast = windowed_influence(model, obs, h).k
    assert_close_or_equal_inf(fast, windowed_influence_loop(model, obs, h), 1e-12)
    assert not np.any(np.isnan(fast))
    assert np.all(fast >= 0.0)


@PROPERTY_SETTINGS
@given(problems())
def test_pointwise_nonnegative_never_nan(problem):
    model, obs = problem
    k = kld_influence(model, obs).k
    assert not np.any(np.isnan(k))
    assert np.all(k >= 0.0)


@PROPERTY_SETTINGS
@given(problems())
def test_pointwise_matches_naive(problem):
    model, obs = problem
    assert_close_or_equal_inf(
        kld_influence(model, obs).k, kld_influence_naive(model, obs).k, 1e-9
    )


@PROPERTY_SETTINGS
@given(problems(), st.data())
def test_state_permutation_equivariance(problem, data):
    model, obs = problem
    order = np.array(data.draw(st.permutations(range(model.num_states))))
    base = kld_influence(model, obs)
    permuted = kld_influence(reorder_states(model, order), obs)
    assert_close_or_equal_inf(permuted.k, base.k, 1e-9)
    np.testing.assert_allclose(permuted.marginals, base.marginals[:, order], atol=1e-12)
    np.testing.assert_allclose(
        permuted.loo_marginals, base.loo_marginals[:, order], atol=1e-12
    )


@PROPERTY_SETTINGS
@given(problems())
def test_window_of_one_matches_pointwise(problem):
    model, obs = problem
    assert_close_or_equal_inf(
        windowed_influence(model, obs, 1).k, kld_influence(model, obs).k, 1e-12
    )


@PROPERTY_SETTINGS
@given(problems())
def test_transition_counts_match_loop(problem):
    model, obs = problem
    fb = forward_backward(model, obs)
    np.testing.assert_allclose(
        _expected_transition_counts(model, fb),
        transition_counts_loop(model, fb),
        rtol=1e-12,
        atol=0.0,
    )


scores = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, np.inf]), st.floats(-3.0, 3.0)),
    min_size=1,
    max_size=40,
)


@PROPERTY_SETTINGS
@given(scores, scores, st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_auc_and_ci_equal_loop_exactly(h1, h0, num_bootstrap, seed):
    roc = empirical_auc(h1, h0, num_bootstrap=num_bootstrap, seed=seed)
    assert (roc.auc, roc.ci_lower, roc.ci_upper) == bootstrap_auc_loop(
        h1, h0, num_bootstrap, 0.95, seed
    )
