"""Property tests: the whole-array code against its loop references and
the quadratic oracle, sampling against one ``rng.choice`` per draw, lane
inference, stacked series, lock-step EM and batched simulation against
one-at-a-time runs, and the symmetries of the influence profile.

Models are drawn at random, including transition matrices within 1e-12 of
the identity, where posterior marginals sit next to 0 and 1.
"""

import dataclasses
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmkld import (
    DegenerateFitError,
    DiscreteEmission,
    EmConfig,
    EmResult,
    EvidenceImpossibleError,
    GaussianEmission,
    HmmModel,
    LeaveOneOutImpossibleError,
    ObservationSequence,
    SimulationConfig,
    em_fit,
    empirical_auc,
    forward_backward,
    forward_star,
    kl_divergence,
    kld_influence,
    kld_influence_naive,
    loo_marginal,
    posterior_marginals,
    reorder_states,
    sample,
    windowed_influence,
)
from hmmkld import inference, outliers
from hmmkld.outliers import scored_replicates
from hmmkld.reference import (
    enumerate_log_joint,
    enumeration_influence,
    enumeration_log_evidence,
    kld_influence_log_space,
    windowed_influence_log_space,
)
from hmmkld.training import _expected_transition_counts, _fit_stack, _m_step, _m_step_data

from loop_reference import (
    bootstrap_auc_loop,
    em_fit_loop,
    forward_backward_loop,
    kl_divergence_select,
    sample_loop,
    simulate_loop,
    transition_counts_loop,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def problems(draw, max_n=300, lanes=None, sizes=None, states=None):
    """(model, observations) with m in 1..4 states, or drawn from
    ``states``, and n in 1..max_n, or drawn from ``sizes``; with ``lanes``
    set, a lane model of that many random lanes."""
    m = draw(st.integers(1, 4) if states is None else states)
    n = draw(st.integers(1, max_n) if sizes is None else sizes)
    stickiness = draw(st.sampled_from([0.0, 0.9, 1.0 - 1e-6, 1.0 - 1e-12]))
    discrete = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = () if lanes is None else (lanes,)
    initial = rng.random(shape + (m,)) + 0.05
    initial /= initial.sum(axis=-1, keepdims=True)
    transition = rng.random(shape + (m, m)) + 0.05
    transition /= transition.sum(axis=-1, keepdims=True)
    transition = stickiness * np.eye(m) + (1.0 - stickiness) * transition
    if discrete:
        table = rng.random(shape + (m, 3)) + 0.05
        table /= table.sum(axis=-1, keepdims=True)
        model = HmmModel(initial, transition, DiscreteEmission(table))
        values = rng.integers(0, 3, n)
    else:
        emission = GaussianEmission(
            rng.normal(0, 2, shape + (m,)), rng.uniform(0.1, 1.5, shape + (m,))
        )
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
def test_windowed_matches_log_space_reference_and_is_nonnegative(problem, h):
    model, obs = problem
    h = min(h, len(obs))
    fast = windowed_influence(model, obs, h).k
    assert_close_or_equal_inf(fast, windowed_influence_log_space(model, obs, h), 1e-12)
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
        windowed_influence(model, obs, 1).k, kld_influence_log_space(model, obs), 1e-12
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


@st.composite
def sparse_problems(draw, levels=None):
    """(model, symbols): a discrete model with m, k <= 3 whose entries are 0
    or, before each row is normalised, in [0.01, 1] (with ``levels`` set,
    drawn from those values), and n <= 6 symbols."""
    m, k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_frac = draw(st.sampled_from([0.2, 0.4, 0.6]))

    def rows(shape):
        if levels is None:
            a = rng.uniform(0.01, 1.0, shape) * (rng.random(shape) >= zero_frac)
        else:
            a = rng.choice(levels, shape)
        a[..., 0] += a.sum(axis=-1) == 0.0
        return a / a.sum(axis=-1, keepdims=True)

    model = HmmModel(rows((m,)), rows((m, m)), DiscreteEmission(rows((m, k))))
    return model, ObservationSequence(rng.integers(0, k, n))


@settings(max_examples=300, deadline=None)
@given(sparse_problems())
def test_impossible_evidence_decided_as_by_enumeration(problem):
    """forward_backward raises exactly where the enumeration finds the
    evidence impossible, never from the backward pass (nothing here comes
    near underflow), and otherwise agrees on the log evidence."""
    model, obs = problem
    try:
        expected = enumeration_log_evidence(model, obs)
    except EvidenceImpossibleError:
        with pytest.raises(EvidenceImpossibleError) as caught:
            forward_backward(model, obs)
        assert "backward" not in str(caught.value)
        return
    assert forward_backward(model, obs).log_evidence == pytest.approx(expected, abs=1e-10)


@settings(max_examples=300, deadline=None)
@given(sparse_problems(), st.integers(1, 6))
def test_windowed_matches_enumeration_on_sparse_models(problem, h):
    """Zero entries leave some states with no way on. Their kernel rows stay
    zero, so K is the enumeration's value, +inf included, never NaN, and
    no numpy warning escapes."""
    model, obs = problem
    h = min(h, len(obs))
    try:
        expected = enumeration_influence(model, obs, window=h)
    except EvidenceImpossibleError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = windowed_influence(model, obs, h).k
    assert_close_or_equal_inf(k, expected, 1e-9)


@settings(max_examples=1000, deadline=None)
@given(sparse_problems(levels=[0.0, 1e-200, 1.0]), st.integers(1, 4))
def test_no_influence_entry_point_returns_nan(problem, h):
    """Entries of 0 and 1e-200 put the evidence far below the double range,
    where rows can underflow. Each entry point then refuses, with one of
    its two documented errors, or returns no NaN, and no numpy warning
    escapes."""
    model, obs = problem
    h = min(h, len(obs))
    entry_points = [
        lambda: [posterior_marginals(forward_backward(model, obs))],
        lambda: dataclasses.astuple(kld_influence(model, obs)),
        lambda: [windowed_influence(model, obs, h).k],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for run in entry_points:
            try:
                arrays = run()
            except (EvidenceImpossibleError, LeaveOneOutImpossibleError):
                continue
            assert not any(np.isnan(a).any() for a in arrays)


def normal_posteriors(model, obs, window=1) -> bool:
    """Whether every hidden sequence's posterior probability, under full
    evidence and with any window of ``window`` observations left out, is 0
    or at least the smallest normal double, so that the enumeration holds
    no denormal."""
    _, chain, emit = enumerate_log_joint(model, obs)
    keep = np.ones(len(obs), dtype=bool)
    for drop in [None, *range(len(obs) - window + 1)]:
        keep[:] = True
        if drop is not None:
            keep[drop : drop + window] = False
        logp = chain + emit[keep].sum(axis=0)
        logp = logp[np.isfinite(logp)]
        if np.any(logp - np.logaddexp.reduce(logp) < np.log(np.finfo(float).tiny)):
            return False
    return True


@PROPERTY_SETTINGS
@given(problems(sizes=st.integers(1, 6)))
def test_log_space_reference_matches_enumeration(problem):
    """Where the enumeration holds no denormal, the log-space K is its value."""
    model, obs = problem
    if not normal_posteriors(model, obs):
        return
    assert_close_or_equal_inf(
        kld_influence_log_space(model, obs), enumeration_influence(model, obs), 1e-10
    )


@settings(max_examples=300, deadline=None)
@given(sparse_problems())
def test_log_space_reference_is_infinite_where_enumeration_is(problem):
    """Zero entries give a state true zero probability under full evidence.
    The log-space K is +inf exactly where the enumeration's is, and raises
    exactly where the enumeration finds the evidence impossible."""
    model, obs = problem
    try:
        expected = enumeration_influence(model, obs)
    except EvidenceImpossibleError:
        with pytest.raises(EvidenceImpossibleError):
            kld_influence_log_space(model, obs)
        return
    assert_close_or_equal_inf(kld_influence_log_space(model, obs), expected, 1e-10)


@PROPERTY_SETTINGS
@given(problems())
def test_windowed_log_space_reference_of_one_is_pointwise(problem):
    model, obs = problem
    assert_close_or_equal_inf(
        windowed_influence_log_space(model, obs, 1), kld_influence_log_space(model, obs), 1e-13
    )


@PROPERTY_SETTINGS
@given(problems(sizes=st.integers(1, 6)), st.integers(1, 6))
def test_windowed_log_space_reference_matches_enumeration(problem, h):
    """Where the enumeration holds no denormal, the log-space window K is
    its value."""
    model, obs = problem
    h = min(h, len(obs))
    if not normal_posteriors(model, obs, window=h):
        return
    assert_close_or_equal_inf(
        windowed_influence_log_space(model, obs, h),
        enumeration_influence(model, obs, window=h),
        1e-10,
    )


@settings(max_examples=300, deadline=None)
@given(sparse_problems(), st.integers(1, 6))
def test_windowed_log_space_reference_is_infinite_where_enumeration_is(problem, h):
    """The log-space window K is +inf exactly where the enumeration's is,
    and raises exactly where the enumeration finds the evidence impossible."""
    model, obs = problem
    h = min(h, len(obs))
    try:
        expected = enumeration_influence(model, obs, window=h)
    except EvidenceImpossibleError:
        with pytest.raises(EvidenceImpossibleError):
            windowed_influence_log_space(model, obs, h)
        return
    assert_close_or_equal_inf(windowed_influence_log_space(model, obs, h), expected, 1e-10)


KL_PLANTED = [0.0, -0.0, 5e-324, np.nan, np.inf]


@st.composite
def kl_rows(draw):
    """(p, q): distributions over m = 1..17 states (numpy sums 8 ways at a
    time from m = 8 on) in rows of shape (m,), (k, m) or (a, b, m), a p of
    shape (k, m) against a q of shape (m,), or two 0-d entries, with up to
    four entries of each set to 0.0, -0.0, 5e-324, NaN or +inf."""
    m = draw(st.integers(1, 17))
    lead = draw(st.sampled_from([(), (3,), (2, 3), "broadcast", "0-d"]))
    p_shape = (4, m) if lead == "broadcast" else (m,) if lead == "0-d" else (*lead, m)
    q_shape = (m,) if lead == "broadcast" else p_shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, q = (rng.dirichlet(np.ones(m), size=shape[:-1]) for shape in (p_shape, q_shape))
    if lead == "0-d":
        p, q = np.array(p[0]), np.array(q[0])
    for a in (p, q):
        for _ in range(draw(st.integers(0, 4))):
            flat = draw(st.integers(0, a.size - 1))
            a.flat[flat] = draw(st.sampled_from(KL_PLANTED))
    return p, q


def kl_with_warnings(kl, p, q):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = kl(p, q)
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same_bits(actual, expected):
    """Same type and shape, NaN at the same places, otherwise equal with
    the same sign bit (so 0.0 and -0.0 differ)."""
    assert type(actual) is type(expected)
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected))
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))
    keep = ~np.isnan(expected)
    np.testing.assert_array_equal(actual[keep], expected[keep])


@settings(max_examples=300, deadline=None)
@given(kl_rows())
def test_kl_divergence_equals_the_select_formula(rows):
    p, q = rows
    actual, actual_warnings = kl_with_warnings(kl_divergence, p, q)
    expected, expected_warnings = kl_with_warnings(kl_divergence_select, p, q)
    assert_same_bits(actual, expected)
    assert actual_warnings == expected_warnings


def test_kl_divergence_warns_as_the_select_formula_on_inf_minus_inf():
    """A row of +inf and -inf terms sums to NaN, with numpy's invalid-value
    warning from the reduction on both sides."""
    p, q = np.array([0.5, 0.5]), np.array([np.inf, 0.0])
    actual, actual_warnings = kl_with_warnings(kl_divergence, p, q)
    expected, expected_warnings = kl_with_warnings(kl_divergence_select, p, q)
    assert_same_bits(actual, expected)
    assert np.isnan(actual)
    assert [category for category, _ in actual_warnings] == [RuntimeWarning]
    assert actual_warnings == expected_warnings


@st.composite
def sampling_problems(draw):
    """(model, n, seed_form, entropy): probability rows that may hold zeros,
    n from 1, and ``seed_form(entropy)`` an int, ``SeedSequence`` or
    ``Generator`` seed (a fresh one per call)."""
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_frac = draw(st.sampled_from([0.0, 0.5, 0.9]))

    def rows(shape):
        a = rng.random(shape) * (rng.random(shape) >= zero_frac)
        a[..., 0] += a.sum(axis=-1) == 0.0
        return a / a.sum(axis=-1, keepdims=True)

    if draw(st.booleans()):
        emission = DiscreteEmission(rows((m, draw(st.integers(1, 5)))))
    else:
        emission = GaussianEmission(rng.normal(0, 2, m), rng.uniform(0.1, 1.5, m))
    model = HmmModel(rows((m,)), rows((m, m)), emission)
    n = draw(st.one_of(st.just(1), st.integers(1, 400)))
    seed_form = draw(st.sampled_from([int, np.random.SeedSequence, np.random.default_rng]))
    return model, n, seed_form, draw(st.integers(0, 2**64 - 1))


@PROPERTY_SETTINGS
@given(sampling_problems())
def test_sample_equals_choice_loop_exactly(problem):
    model, n, seed_form, entropy = problem
    states, obs = sample(model, n, seed_form(entropy))
    loop_states, loop_obs = sample_loop(model, n, seed_form(entropy))
    np.testing.assert_array_equal(states, loop_states)
    np.testing.assert_array_equal(obs.values, loop_obs.values)
    assert states.dtype == loop_states.dtype
    assert obs.values.dtype == loop_obs.values.dtype


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


def lane(model, r):
    """Lane r of a lane model, as a plain model."""
    emission = model.emission
    if isinstance(emission, DiscreteEmission):
        emission = DiscreteEmission(emission.table[r])
    else:
        emission = GaussianEmission(emission.means[r], emission.sigmas[r])
    return HmmModel(model.initial[r], model.transition[r], emission)


# Up to the 8 states of the benchmark's discrete model.
STATES = st.integers(1, 8)


@PROPERTY_SETTINGS
@given(st.integers(1, 5).flatmap(lambda lanes: problems(max_n=120, lanes=lanes, states=STATES)))
def test_lane_forward_backward_equals_separate_calls(problem):
    model, obs = problem
    fb = forward_backward(model, obs)
    assert len(fb) == len(obs)
    assert fb.fwd.shape == (model.lanes, len(obs), model.num_states)
    for r in range(model.lanes):
        one = forward_backward(lane(model, r), obs)
        for name in ("fwd", "bwd", "log_weights"):
            np.testing.assert_array_equal(getattr(fb, name)[r], getattr(one, name))
        assert fb.log_evidence[r] == pytest.approx(one.log_evidence, rel=1e-12, abs=0.0)


@st.composite
def stacks(draw):
    """(lane model, stack): a lane model of R lanes from ``problems`` and an
    (R, n) stack of series, n >= 2, each drawn as ``problems`` draws one."""
    lanes = draw(st.integers(1, 5))
    model, obs = draw(problems(lanes=lanes, sizes=st.integers(2, 120)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (lanes - 1, len(obs))
    if isinstance(model.emission, DiscreteEmission):
        more = rng.integers(0, 3, shape)
    else:
        more = rng.normal(0, 2.5, shape)
    return model, np.concatenate([obs.values[None], more])


def em_step(model, values, cfg):
    """One EM iteration's forward-backward, posterior marginals, transition
    counts and M-step: a lane model's lanes each on their own row of the
    (R, n) ``values``, or a plain model on the series ``values`` as one lane."""
    fb = forward_backward(model, values if model.lanes else ObservationSequence(values))
    weights = posterior_marginals(fb)
    counts = _expected_transition_counts(model, fb)
    if model.lanes is None:
        weights, counts = weights[None], counts[None]
    data = _m_step_data(model, values)
    return fb, weights, counts, _m_step(model, data, cfg, counts, weights, weights.sum(axis=-2))


@PROPERTY_SETTINGS
@given(stacks(), st.booleans(), st.booleans())
def test_stack_of_series_equals_separate_calls(problem, tied, shared_sigma):
    model, stack = problem
    cfg = EmConfig(num_states=model.num_states, tie_transitions=tied, homoscedastic=shared_sigma)
    separate, failed = [], []
    for r in range(model.lanes):
        try:
            separate.append(em_step(lane(model, r), stack[r], cfg))
        except (ArithmeticError, ValueError, RuntimeWarning) as exc:
            failed.append(type(exc))
    if failed:
        # A lane that fails alone fails the stack as one of them fails.
        with pytest.raises(tuple(failed)):
            em_step(model, stack, cfg)
        return
    fb, weights, counts, fitted = em_step(model, stack, cfg)
    for r, (one, weights_r, counts_r, fitted_r) in enumerate(separate):
        for name in ("fwd", "bwd", "log_weights"):
            np.testing.assert_array_equal(getattr(fb, name)[r], getattr(one, name))
        assert fb.log_evidence[r] == one.log_evidence
        np.testing.assert_array_equal(weights[r], weights_r[0])
        np.testing.assert_array_equal(counts[r], counts_r[0])
        for got, want in zip(
            (fitted.initial, fitted.transition, *vars(fitted.emission).values()),
            (fitted_r.initial, fitted_r.transition, *vars(fitted_r.emission).values()),
        ):
            np.testing.assert_array_equal(got[r], want[0])


@PROPERTY_SETTINGS
@given(stacks())
def test_lane_influence_equals_separate_calls(problem):
    model, stack = problem
    separate, failed = [], []
    for r in range(model.lanes):
        try:
            separate.append(kld_influence(lane(model, r), ObservationSequence(stack[r])))
        except (ArithmeticError, ValueError, RuntimeWarning) as exc:
            failed.append(type(exc))
    if failed:
        # A lane that fails alone fails the stack as one of them fails.
        with pytest.raises(tuple(failed)):
            kld_influence(model, stack)
        return
    profile = kld_influence(model, stack)
    fb = forward_backward(model, stack)
    star = forward_star(model, fb)
    for r, one in enumerate(separate):
        assert len(profile) == len(one)
        for name in ("k", "loo_marginals", "marginals"):
            assert_same_bits(getattr(profile, name)[r], getattr(one, name))
        fb_r = forward_backward(lane(model, r), ObservationSequence(stack[r]))
        star_r = forward_star(lane(model, r), fb_r)
        for j in range(len(fb)):
            assert_same_bits(loo_marginal(star, fb, j)[r], loo_marginal(star_r, fb_r, j))


def chunk_edges(s):
    """Lengths on both sides of n = 4 s^2 + 2, where the chunk length of
    forward_backward, isqrt((n - 2) // 4) + 1 for its n - 1 steps, becomes
    s + 1; and around the first length after that whose last chunk is full."""
    first = 4 * s * s + 2
    full = -(-(first - 1) // (s + 1)) * (s + 1) + 1
    return [first - 1, first, full - 1, full, full + 1]


# Lengths around the chunk boundaries of forward_backward, as well as any
# length up to 400: those of the chunk length isqrt((n - 2) // 4) + 1, and
# those of the earlier length ceil(sqrt(n - 1)), n = s^2 - 1 ... s^2 + 2.
CHUNK_EDGES = st.one_of(
    st.integers(0, 10).flatmap(lambda s: st.sampled_from(chunk_edges(s))),
    st.integers(1, 20).flatmap(
        lambda size: st.sampled_from(
            [size * size - 1, size * size, size * size + 1, size * size + 2]
        )
    ),
).filter(lambda n: n >= 1)


def assert_same_pass(fb, loop, tol):
    for name in ("fwd", "bwd", "log_evidence"):
        assert_close_or_equal_inf(
            np.asarray(getattr(fb, name)), np.asarray(getattr(loop, name)), tol
        )


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        problems(max_n=400, sizes=st.one_of(st.integers(1, 400), CHUNK_EDGES), states=STATES),
        st.integers(1, 5).flatmap(
            lambda lanes: problems(
                max_n=400,
                lanes=lanes,
                sizes=st.one_of(st.integers(1, 400), CHUNK_EDGES),
                states=STATES,
            )
        ),
        sparse_problems(),
    )
)
def test_chunked_forward_backward_matches_loop(problem):
    """The chunked pass equals the one-index-per-step loop within 1e-12, and
    raises exactly where the loop raises, with the same message."""
    model, obs = problem
    try:
        loop = forward_backward_loop(model, obs)
    except EvidenceImpossibleError as exc:
        with pytest.raises(EvidenceImpossibleError, match=f"^{re.escape(str(exc))}$"):
            forward_backward(model, obs)
        return
    assert_same_pass(forward_backward(model, obs), loop, 1e-12)


def test_chunked_forward_backward_matches_loop_on_a_long_series():
    model = HmmModel(
        [0.5, 0.3, 0.2],
        [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]],
        GaussianEmission([-1.0, 0.5, 2.0], [0.7, 0.5, 1.0]),
    )
    _, obs = sample(model, 100_000, seed=7)
    assert_same_pass(forward_backward(model, obs), forward_backward_loop(model, obs), 1e-9)


def test_carry_joins_the_transfer_rows_in_log_space():
    # State 0 keeps to itself and weighs e^-50 a step beside state 1, so
    # within one chunk the rows of a transfer matrix drift more than 1e308
    # apart in scale. Each row keeps its own scale and the carry joins them
    # in log space, so no lane needs the log-space pass; one scale per
    # matrix would underflow state 0's row and fall back to it.
    model = HmmModel(
        [1.0, 0.0], [[1.0, 0.0], [0.5, 0.5]], GaussianEmission([0.0, 10.0], [1.0, 1.0])
    )
    obs = ObservationSequence(np.full(2000, 10.0))
    with mock.patch.object(
        inference, "_log_space_pass", wraps=inference._log_space_pass
    ) as log_space_pass:
        fb = forward_backward(model, obs)
    log_space_pass.assert_not_called()
    assert_same_pass(fb, forward_backward_loop(model, obs), 1e-12)


def test_transfer_row_that_goes_all_zero_stays_zero():
    # State 0 keeps to itself and cannot emit symbol 1, which turns up in
    # every chunk (chunks of 6 steps at n = 128), so row 0 of each chunk's
    # transfer matrix goes all-zero part way through the chunk. Divided by
    # the least double it stays zero, with a log scale of -inf, and no lane
    # needs the log-space pass; 0 / 0 would make the row NaN and fall back.
    model = HmmModel(
        [0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], DiscreteEmission([[1.0, 0.0], [0.5, 0.5]])
    )
    obs = ObservationSequence((np.arange(128) % 4 == 3).astype(int))
    with mock.patch.object(
        inference, "_log_space_pass", wraps=inference._log_space_pass
    ) as log_space_pass:
        fb = forward_backward(model, obs)
    log_space_pass.assert_not_called()
    assert_same_pass(fb, forward_backward_loop(model, obs), 1e-12)


@st.composite
def em_problems(draw):
    """(stack, EmConfig, seeds): 1 to 3 series of one length over discrete
    and Gaussian emissions, tied and untied transitions, shared and
    per-state sigmas, with one fit seed per series, ``cfg.seed`` first.
    Discrete series share their largest symbol, as a stack must."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, 80))
    count = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        top = draw(st.integers(1, 3))
        stack = rng.integers(0, top + 1, (count, n))
        stack[np.arange(count), rng.integers(0, n, count)] = top
    else:
        centers = rng.normal(0.0, draw(st.sampled_from([0.5, 2.0, 8.0])), m)
        stack = centers[rng.integers(0, m, (count, n))] + rng.normal(0.0, 1.0, (count, n))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=count, max_size=count))
    cfg = EmConfig(
        num_states=m,
        max_iters=draw(st.integers(1, 80)),
        num_restarts=draw(st.integers(1, 6)),
        seed=seeds[0],
        tie_transitions=draw(st.booleans()),
        homoscedastic=draw(st.booleans()),
    )
    return stack, cfg, seeds


def model_arrays(model):
    """Every parameter array of ``model``, the emission's fields last."""
    return [model.initial, model.transition] + [
        getattr(model.emission, f.name) for f in dataclasses.fields(model.emission)
    ]


@PROPERTY_SETTINGS
@given(em_problems())
def test_lock_step_em_matches_sequential_restarts(problem):
    """``em_fit`` of the first series matches the restarts run one after
    another, winning model included, and ``_fit_stack`` of the whole stack
    gives each series its own ``em_fit`` bit for bit."""
    stack, cfg, seeds = problem
    fits = []  # per series: its EmResult, None if degenerate, or the error raised
    for row, seed in zip(stack, seeds):
        try:
            fits.append(em_fit(ObservationSequence(row), dataclasses.replace(cfg, seed=seed)))
        except DegenerateFitError:
            fits.append(None)
        except (ArithmeticError, ValueError) as exc:
            fits.append(exc)

    obs = ObservationSequence(stack[0])
    try:
        expected = em_fit_loop(obs, cfg)
    except (ArithmeticError, ValueError) as exc:
        # Degenerate fits and invalid re-estimates fail the same way.
        with pytest.raises(type(exc)):
            em_fit(obs, cfg)
    else:
        result = fits[0]
        assert isinstance(result, EmResult)
        assert result.restart_index == expected.restart_index
        assert result.restart_iterations == expected.restart_iterations
        assert result.restart_converged == expected.restart_converged
        assert result.degenerate_restarts == expected.degenerate_restarts
        np.testing.assert_allclose(
            result.restart_final_lls, expected.restart_final_lls, rtol=1e-9, atol=0.0
        )
        np.testing.assert_allclose(
            result.log_likelihoods, expected.log_likelihoods, rtol=1e-9, atol=0.0
        )
        for got, want in zip(model_arrays(result.model), model_arrays(expected.model)):
            np.testing.assert_allclose(got, want, rtol=1e-7)

    if any(isinstance(fit, Exception) for fit in fits):
        with pytest.raises((ArithmeticError, ValueError)):
            _fit_stack(stack, cfg, seeds)
        return
    for got, want in zip(_fit_stack(stack, cfg, seeds), fits):
        if want is None:
            assert got is None
            continue
        for f in dataclasses.fields(EmResult):
            if f.name != "model":
                np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))
        for a, b in zip(model_arrays(got.model), model_arrays(want.model)):
            np.testing.assert_array_equal(a, b)


# The source series of the simulation tests: 106 points of a 3-state chain.
SIMULATION_SOURCE = sample(
    HmmModel(
        [0.4, 0.3, 0.3],
        [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
        GaussianEmission.homoscedastic([-0.4, 0.1, 0.5], 0.15),
    ),
    106,
    seed=11,
)[1].values


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=2, unique=True),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(11, 40),
    st.sampled_from([None, 1, 2, 3, 4]),
    st.data(),
)
def test_scored_replicates_equal_the_per_replicate_loop(
    seed, deltas, replicates, restarts, size, per_batch, data
):
    # per_batch: series per lock-step batch, None for the default bound.
    cfg = SimulationConfig(
        source=SIMULATION_SOURCE,
        subsample_size=size,
        contamination=0.2,
        replicates=replicates,
        seed=seed,
        em_restarts=restarts,
    )
    keys = [
        ("H0" if delta is None else "H1", delta, q)
        for delta in [None, *deltas]
        for q in range(replicates)
    ]
    skip = data.draw(st.sets(st.sampled_from(keys)))
    expected = [(key, simulate_loop(cfg, key[1], key[2])) for key in keys if key not in skip]
    lanes = outliers.FIT_LANES if per_batch is None else per_batch * restarts
    with mock.patch.object(outliers, "FIT_LANES", lanes):
        assert list(scored_replicates(cfg, deltas, skip=skip)) == expected
