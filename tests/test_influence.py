import dataclasses

import numpy as np
import pytest

from hmmkld import (
    DiscreteEmission,
    EvidenceImpossibleError,
    GaussianEmission,
    HmmModel,
    LeaveOneOutImpossibleError,
    ModelError,
    ObservationSequence,
    forward_backward,
    forward_star,
    kl_divergence,
    kld_influence,
    kld_influence_naive,
    loo_marginal,
    posterior_marginals,
    windowed_influence,
)
from hmmkld.reference import (
    chain_marginals,
    enumeration_influence,
    enumeration_marginals,
)

from conftest import (
    BELOW_DOUBLE_RANGE,
    LEAVE_OUT_UNDERFLOW,
    POSTERIOR_ROW_UNDERFLOW,
    WINDOW_START_UNDERFLOW,
    random_discrete_model,
    random_gaussian_model,
)


class TestForwardStar:
    def test_single_state_is_trivial(self):
        model = HmmModel(
            [1.0], [[1.0]], GaussianEmission.homoscedastic([0.0], 1.0)
        )
        obs = ObservationSequence(np.array([0.5, -1.0, 2.0]))
        fb = forward_backward(model, obs)
        star = forward_star(model, fb)
        np.testing.assert_allclose(star.fstar, 1.0)

    def test_reconstructs_forward_rows(self, rng):
        # Multiplying the star row by the emission weights recovers the
        # (normalized) forward row at every index.
        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 1, 15))
        fb = forward_backward(model, obs)
        star = forward_star(model, fb)
        w = fb.scaled_weights()
        for i in range(len(fb)):
            prod = star.fstar[i] * w[i]
            np.testing.assert_allclose(
                prod / prod.sum(), fb.fwd[i], atol=1e-12
            )

    def test_loo_marginal_matches_enumeration(self, rng):
        model = random_discrete_model(rng, 3, 3)
        obs = ObservationSequence(rng.integers(0, 3, 6))
        fb = forward_backward(model, obs)
        star = forward_star(model, fb)
        for j in range(6):
            expected = enumeration_marginals(model, obs, drop=[j])[j]
            np.testing.assert_allclose(
                loo_marginal(star, fb, j), expected, atol=1e-10
            )


class TestLooMarginal:
    def test_is_the_profile_row_exactly(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 9))
            model = random_discrete_model(rng, m, 4)
            obs = ObservationSequence(rng.integers(0, 4, 30))
            fb = forward_backward(model, obs)
            star = forward_star(model, fb)
            loo = kld_influence(model, obs).loo_marginals
            for j in range(len(obs)):
                np.testing.assert_array_equal(loo_marginal(star, fb, j), loo[j])

    def test_single_observation_returns_initial(self, rng):
        model = random_discrete_model(rng, 3, 2)
        obs = ObservationSequence(np.array([1]))
        fb = forward_backward(model, obs)
        star = forward_star(model, fb)
        np.testing.assert_allclose(
            loo_marginal(star, fb, 0), model.initial, atol=1e-12
        )

    def test_uninformative_emissions_give_chain_marginal(self, rng):
        model = random_discrete_model(rng, 3, 2)
        flat = HmmModel(
            model.initial, model.transition, DiscreteEmission(np.full((3, 2), 0.5))
        )
        n = 8
        obs = ObservationSequence(rng.integers(0, 2, n))
        fb = forward_backward(flat, obs)
        star = forward_star(flat, fb)
        chain = chain_marginals(flat.initial, flat.transition, n)
        for j in range(n):
            np.testing.assert_allclose(
                loo_marginal(star, fb, j), chain[j], atol=1e-12
            )

    def test_matches_naive_rerun(self, rng):
        for _ in range(10):
            model = random_gaussian_model(rng, 4)
            obs = ObservationSequence(rng.normal(0, 2, 40))
            fb = forward_backward(model, obs)
            star = forward_star(model, fb)
            naive = kld_influence_naive(model, obs)
            for j in range(40):
                np.testing.assert_allclose(
                    loo_marginal(star, fb, j),
                    naive.loo_marginals[j],
                    atol=1e-12,
                )


class TestKldInfluence:
    def test_uninformative_emissions_give_zero(self, rng):
        model = random_discrete_model(rng, 3, 2)
        flat = HmmModel(
            model.initial, model.transition, DiscreteEmission(np.full((3, 2), 0.5))
        )
        obs = ObservationSequence(rng.integers(0, 2, 12))
        profile = kld_influence(flat, obs)
        np.testing.assert_allclose(profile.k, 0.0, atol=1e-12)

    def test_full_chain_collapse(self, rng):
        # The divergence over complete hidden sequences equals the
        # single-position marginal divergence.
        for _ in range(20):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 9))
            model = random_discrete_model(rng, m, 3)
            obs = ObservationSequence(rng.integers(0, 3, n))
            np.testing.assert_allclose(
                kld_influence(model, obs).k,
                enumeration_influence(model, obs),
                atol=1e-10,
            )

    def test_nonnegative(self, rng):
        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 3, 200))
        assert np.all(kld_influence(model, obs).k >= -1e-12)

    def test_marginal_rows_sum_to_one(self, rng):
        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 1, 30))
        profile = kld_influence(model, obs)
        np.testing.assert_allclose(profile.loo_marginals.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(profile.marginals.sum(axis=1), 1.0, atol=1e-12)

    def test_rescaling_invariance(self, rng):
        # Per-index positive rescaling of forward, star-forward and
        # backward rows cancels out of the influence values.
        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 1, 20))
        fb = forward_backward(model, obs)
        star = forward_star(model, fb)
        base_marg = posterior_marginals(fb)
        base_k = np.array(
            [kl_divergence(loo_marginal(star, fb, j), base_marg[j]) for j in range(20)]
        )
        cf = rng.uniform(0.25, 4.0, 20)
        cb = rng.uniform(0.25, 4.0, 20)
        cs = rng.uniform(0.25, 4.0, 20)
        fb2 = dataclasses.replace(
            fb,
            fwd=fb.fwd * cf[:, None],
            log_scale_fwd=fb.log_scale_fwd - np.log(cf),
            bwd=fb.bwd * cb[:, None],
            log_scale_bwd=fb.log_scale_bwd - np.log(cb),
        )
        star2 = dataclasses.replace(
            star, fstar=star.fstar * cs[:, None], log_scale=star.log_scale - np.log(cs)
        )
        marg2 = posterior_marginals(fb2)
        k2 = np.array(
            [kl_divergence(loo_marginal(star2, fb2, j), marg2[j]) for j in range(20)]
        )
        np.testing.assert_allclose(k2, base_k, atol=1e-10)

    def test_zero_ratio_conventions(self):
        assert kl_divergence(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == (
            pytest.approx(np.log(2.0))
        )
        assert kl_divergence(np.array([0.5, 0.5]), np.array([0.0, 1.0])) == np.inf

    def test_nan_entry_propagates(self):
        assert np.isnan(kl_divergence(np.array([np.nan, 1.0]), np.array([0.5, 0.5])))
        assert np.isnan(kl_divergence(np.array([0.0, 1.0]), np.array([np.nan, 0.5])))
        assert np.isnan(kl_divergence(np.array([0.5, 0.5]), np.array([0.5, np.nan])))

    def test_rows_match_one_row_at_a_time(self, rng):
        p = rng.dirichlet(np.ones(4), size=(5, 6))
        q = rng.dirichlet(np.ones(4), size=(5, 6))
        p[0, 0, 1] = 0.0
        q[1, 2, 3] = 0.0
        rows = kl_divergence(p, q)
        assert rows.shape == (5, 6)
        for a in range(5):
            for b in range(6):
                assert rows[a, b] == kl_divergence(p[a, b], q[a, b])
        assert isinstance(kl_divergence(p[0, 0], q[0, 0]), float)


class TestNaiveEngine:
    def test_single_observation_closed_form(self, rng):
        model = random_discrete_model(rng, 3, 2)
        obs = ObservationSequence(np.array([1]))
        profile = kld_influence_naive(model, obs)
        p1 = posterior_marginals(forward_backward(model, obs))[0]
        expected = float(np.sum(model.initial * np.log(model.initial / p1)))
        assert profile.k[0] == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_fast_engine(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 200))
            if rng.random() < 0.5:
                model = random_discrete_model(rng, m, 4)
                obs = ObservationSequence(rng.integers(0, 4, n))
            else:
                model = random_gaussian_model(rng, m)
                obs = ObservationSequence(rng.normal(0, 2, n))
            fast = kld_influence(model, obs)
            naive = kld_influence_naive(model, obs)
            np.testing.assert_allclose(naive.k, fast.k, atol=1e-10)
            np.testing.assert_allclose(
                naive.loo_marginals, fast.loo_marginals, atol=1e-10
            )

    def test_agrees_below_the_double_range(self):
        # Both backward passes rescale each weighted row before the matmul,
        # so neither underflows on evidence of 1e-400.
        model, obs = BELOW_DOUBLE_RANGE, ObservationSequence(np.array([0, 1, 0]))
        fast = kld_influence(model, obs)
        naive = kld_influence_naive(model, obs)
        np.testing.assert_allclose(naive.k, fast.k, atol=1e-9)
        np.testing.assert_allclose(naive.loo_marginals, fast.loo_marginals, atol=1e-9)
        np.testing.assert_allclose(fast.k, enumeration_influence(model, obs), atol=1e-9)


class TestWindowedInfluence:
    def test_h1_equals_pointwise_profile(self, rng):
        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 1, 25))
        pointwise = kld_influence(model, obs)
        windowed = windowed_influence(model, obs, 1)
        np.testing.assert_allclose(windowed.k, pointwise.k, atol=1e-12)

    def test_full_window_is_prior_vs_posterior(self, rng):
        for _ in range(5):
            model = random_discrete_model(rng, 3, 3)
            n = int(rng.integers(2, 7))
            obs = ObservationSequence(rng.integers(0, 3, n))
            windowed = windowed_influence(model, obs, n)
            expected = enumeration_influence(model, obs, window=n)
            assert windowed.k.size == 1
            assert windowed.k[0] == pytest.approx(expected[0], abs=1e-10)

    def test_matches_enumeration(self, rng):
        for _ in range(10):
            model = random_discrete_model(rng, 3, 3)
            obs = ObservationSequence(rng.integers(0, 3, 7))
            for h in (2, 3):
                np.testing.assert_allclose(
                    windowed_influence(model, obs, h).k,
                    enumeration_influence(model, obs, window=h),
                    atol=1e-10,
                )

    def test_gaussian_matches_enumeration(self, rng):
        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 2, 6))
        for h in (2, 4):
            np.testing.assert_allclose(
                windowed_influence(model, obs, h).k,
                enumeration_influence(model, obs, window=h),
                atol=1e-10,
            )

    def test_window_out_of_range(self, rng):
        model = random_gaussian_model(rng, 2)
        obs = ObservationSequence(rng.normal(0, 1, 5))
        with pytest.raises(ModelError):
            windowed_influence(model, obs, 0)
        with pytest.raises(ModelError):
            windowed_influence(model, obs, 6)


@pytest.mark.parametrize(
    "model, symbols, h, error, message",
    [
        (POSTERIOR_ROW_UNDERFLOW, [1, 1, 1], 1, EvidenceImpossibleError,
         "the backward pass underflowed at index 0"),
        (POSTERIOR_ROW_UNDERFLOW, [1, 1, 1], 2, EvidenceImpossibleError,
         "the backward pass underflowed at index 0"),
        (LEAVE_OUT_UNDERFLOW, [2, 1], 1, LeaveOneOutImpossibleError,
         "impossible leave-out evidence at index 0"),
        (WINDOW_START_UNDERFLOW, [0, 2, 2, 1], 2, LeaveOneOutImpossibleError,
         "impossible leave-out evidence at index 1"),
    ],
    ids=["posterior-row", "posterior-row-windowed", "leave-out", "window-start"],
)
def test_underflowing_row_is_refused(model, symbols, h, error, message):
    # The enumeration's K is 0 at the named index, so each refusal stands
    # for a value that a log-space product could give, and is never NaN.
    obs = ObservationSequence(np.array(symbols))
    index = int(message.rsplit(" ", 1)[1])
    assert enumeration_influence(model, obs, window=h)[index] == 0.0
    with pytest.raises(error, match=message):
        if h == 1:
            kld_influence(model, obs)
        else:
            windowed_influence(model, obs, h)
    if error is LeaveOneOutImpossibleError and h == 1:
        fb = forward_backward(model, obs)
        with pytest.raises(error, match=message):
            loo_marginal(forward_star(model, fb), fb, index)


def test_enumeration_leaves_out_a_zero_emission_term():
    # Observations 1 and 4 (symbol 2) are impossible in state 0, so their
    # emission terms are -inf for every path through state 0 there.
    model = HmmModel(
        [0.6, 0.4],
        [[0.7, 0.3], [0.2, 0.8]],
        DiscreteEmission([[0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]),
    )
    obs = ObservationSequence(np.array([0, 2, 1, 0, 2]))
    loo = kld_influence(model, obs).loo_marginals
    for j in range(len(obs)):
        marg = enumeration_marginals(model, obs, drop=[j])[j]
        assert not np.isnan(marg).any()
        np.testing.assert_allclose(marg, loo[j], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "engine",
    [kld_influence, lambda model, obs: windowed_influence(model, obs, 2), kld_influence_naive],
    ids=["kld_influence", "windowed_influence", "kld_influence_naive"],
)
def test_lane_model_rejected(engine):
    table = [[0.9, 0.1], [0.2, 0.8]]
    lanes = HmmModel(
        [[0.5, 0.5]] * 3, [[[0.9, 0.1], [0.2, 0.8]]] * 3, DiscreteEmission([table] * 3)
    )
    obs = ObservationSequence(np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0]))
    with pytest.raises(ModelError, match="takes a plain model, not a lane model"):
        engine(lanes, obs)
