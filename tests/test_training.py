import warnings

import numpy as np
import pytest

from hmmkld import (
    DegenerateFitError,
    DiscreteEmission,
    EmConfig,
    GaussianEmission,
    HmmModel,
    ModelError,
    ObservationSequence,
    canonical_state_order,
    em_fit,
    forward_backward,
    kmeans_1d,
    reorder_states,
    sample,
)

from hmmkld.training import _fit_stack

from loop_reference import em_fit_loop


class TestKmeans1d:
    def test_separated_pairs(self):
        assign, means = kmeans_1d([0.0, 0.0, 10.0, 10.0], 2, seed=0)
        np.testing.assert_allclose(means, [0.0, 10.0])
        assert assign.tolist() == [0, 0, 1, 1]
        # The squared gap underflows to 0, so the seeding puts the second
        # centre on the value not yet used.
        assign, means = kmeans_1d([0.0, 1e-170], 2, seed=0)
        np.testing.assert_array_equal(means, [0.0, 1e-170])
        assert assign.tolist() == [0, 1]

    def test_single_cluster_is_mean(self):
        values = [1.0, 2.0, 4.0]
        _, means = kmeans_1d(values, 1, seed=0)
        assert means[0] == pytest.approx(np.mean(values))

    def test_means_sorted_ascending(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(c, 0.1, 20) for c in (3.0, -2.0, 0.5)])
        _, means = kmeans_1d(values, 3, seed=1)
        assert np.all(np.diff(means) > 0)

    def test_equal_values_share_a_cluster(self):
        # The mean of three 0.1s rounds up onto the next value, which empties
        # a cluster. The reseed moves every point equal to the one it picks,
        # so equal values stay together and every cluster keeps a point. The
        # means tie: the three 0.1s average to the next value up.
        values = 0.1 + np.spacing(0.1) * np.array([0, 0, 0, 1, 2, 2, 2])
        assign, means = kmeans_1d(values, 3, seed=0)
        for value in np.unique(values):
            assert np.unique(assign[values == value]).size == 1
        assert np.bincount(assign, minlength=3).all()
        assert np.all(np.diff(means) >= 0)

    def test_recovers_separated_gaussians(self):
        rng = np.random.default_rng(42)
        centers = [-5.0, 0.0, 5.0]
        sigma = 0.5
        per_cluster = 100
        values = np.concatenate(
            [rng.normal(c, sigma, per_cluster) for c in centers]
        )
        _, means = kmeans_1d(values, 3, seed=7)
        tol = 3 * sigma / np.sqrt(per_cluster)
        np.testing.assert_allclose(means, centers, atol=tol)

    def test_too_many_clusters(self):
        with pytest.raises(ModelError):
            kmeans_1d([1.0, 1.0, 2.0], 3, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ModelError, match="seed must be >= 0, got -1"):
            kmeans_1d([0.0, 1.0, 2.0], 2, seed=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        # Either used to reach rng.choice as a NaN seeding probability.
        values = np.linspace(0.0, 1.0, 40)
        values[[17, 30]] = bad
        with pytest.raises(ModelError, match=f"^value 17 is not finite: {bad}$"):
            kmeans_1d(values, 3, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, 50)
        a1, m1 = kmeans_1d(values, 4, seed=9)
        a2, m2 = kmeans_1d(values, 4, seed=9)
        assert np.array_equal(a1, a2)
        np.testing.assert_array_equal(m1, m2)


class TestEmFit:
    def test_single_state_closed_form(self):
        rng = np.random.default_rng(0)
        values = rng.normal(1.5, 0.4, 100)
        obs = ObservationSequence(values)
        cfg = EmConfig(num_states=1, num_restarts=1, seed=0)
        result = em_fit(obs, cfg)
        em = result.model.emission
        assert em.means[0] == pytest.approx(values.mean(), abs=1e-9)
        assert em.sigmas[0] == pytest.approx(values.std(), abs=1e-9)
        assert result.converged

    def test_two_state_parameter_recovery(self):
        true = HmmModel(
            [0.5, 0.5],
            [[0.9, 0.1], [0.1, 0.9]],
            GaussianEmission.homoscedastic([-1.0, 1.0], 0.5),
        )
        _, obs = sample(true, 2000, seed=17)
        cfg = EmConfig(
            num_states=2,
            tie_transitions=True,
            homoscedastic=True,
            num_restarts=5,
            seed=4,
        )
        result = em_fit(obs, cfg)
        model = reorder_states(result.model, canonical_state_order(result.model))
        np.testing.assert_allclose(model.emission.means, [-1.0, 1.0], atol=0.05)
        assert model.emission.sigmas[0] == pytest.approx(0.5, abs=0.02)
        eta = 1.0 - model.transition[0, 0]
        assert eta == pytest.approx(0.1, abs=0.03)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            values = np.concatenate(
                [rng.normal(-1, 0.5, 40), rng.normal(1, 0.5, 40)]
            )
            rng.shuffle(values)
            cfg = EmConfig(
                num_states=2,
                tie_transitions=bool(trial % 2),
                homoscedastic=bool(trial % 3),
                num_restarts=2,
                seed=trial,
            )
            result = em_fit(ObservationSequence(values), cfg)
            diffs = np.diff(result.log_likelihoods)
            assert np.all(diffs >= -1e-9)

    def test_tied_transition_structure(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, 120)
        cfg = EmConfig(num_states=3, tie_transitions=True, num_restarts=2, seed=1)
        model = em_fit(ObservationSequence(values), cfg).model
        t = model.transition
        assert t[0, 0] == pytest.approx(t[1, 1], abs=1e-12)
        assert t[0, 1] == pytest.approx(t[0, 2], abs=1e-12)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_discrete_emissions_fit(self):
        rng = np.random.default_rng(6)
        obs = ObservationSequence(rng.integers(0, 3, 200))
        cfg = EmConfig(num_states=2, num_restarts=2, seed=3)
        result = em_fit(obs, cfg)
        table = result.model.emission.table
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
        diffs = np.diff(result.log_likelihoods)
        assert np.all(diffs >= -1e-9)
        # The tables of a stack's lanes span one symbol range.
        stack = np.array([[0, 1, 2, 1], [0, 1, 1, 0]])
        with pytest.raises(ModelError, match="must share their largest symbol"):
            _fit_stack(stack, cfg, [3, 4])

    def test_restart_records(self):
        rng = np.random.default_rng(8)
        obs = ObservationSequence(rng.normal(0, 1, 70))
        result = em_fit(obs, EmConfig(num_states=2, num_restarts=4, max_iters=6, seed=1))
        assert len(result.restart_iterations) == 4
        assert all(1 <= n <= 6 for n in result.restart_iterations)
        # Only convergence stops a restart before max_iters.
        for n, done in zip(result.restart_iterations, result.restart_converged):
            assert done or n == 6
        best = result.restart_index
        assert len(result.log_likelihoods) == result.restart_iterations[best]
        assert result.converged == result.restart_converged[best]
        assert result.restart_final_lls[best] == result.log_likelihoods[-1]

    def test_max_iters_must_be_positive(self):
        with pytest.raises(ModelError, match="max_iters"):
            EmConfig(num_states=2, max_iters=0)

    @pytest.mark.parametrize("restarts", [0, -4])
    def test_restarts_must_be_positive(self, restarts):
        with pytest.raises(ModelError, match="num_restarts must be >= 1"):
            EmConfig(num_states=2, num_restarts=restarts)

    def test_needs_more_observations_than_states(self):
        with pytest.raises(ModelError):
            em_fit(
                ObservationSequence(np.array([0.1, 0.2])),
                EmConfig(num_states=2),
            )

    def test_reordered_model_keeps_likelihood(self):
        rng = np.random.default_rng(9)
        obs = ObservationSequence(rng.normal(0, 1, 80))
        cfg = EmConfig(num_states=3, num_restarts=2, seed=2)
        model = em_fit(obs, cfg).model
        reordered = reorder_states(model, canonical_state_order(model))
        assert np.all(np.diff(reordered.emission.means) >= 0)
        assert forward_backward(reordered, obs).log_evidence == pytest.approx(
            forward_backward(model, obs).log_evidence, abs=1e-9
        )


    def test_constant_series_single_state(self):
        # Zero spread: the start falls back to a spread of 1e-3 times the mean.
        result = em_fit(ObservationSequence(np.full(12, 2.5)), EmConfig(num_states=1, seed=0))
        assert result.model.emission.means[0] == pytest.approx(2.5)
        assert np.all(np.isfinite(result.log_likelihoods))

    def test_canonical_order_of_discrete_model_is_identity(self):
        model = HmmModel(
            [0.5, 0.3, 0.2], np.full((3, 3), 1 / 3), DiscreteEmission(np.full((3, 2), 0.5))
        )
        np.testing.assert_array_equal(canonical_state_order(model), [0, 1, 2])


class TestDegenerateRestarts:
    @pytest.fixture
    def obs(self):
        return ObservationSequence(np.random.default_rng(4).normal(0, 1, 60))

    def test_collapsed_try_is_retried(self, obs, collapse_tries):
        cfg = EmConfig(num_states=2, num_restarts=2, seed=5)
        collapse_tries({(0, 0), (0, 1)})
        result = em_fit(obs, cfg)
        # Restart 0 succeeds on its third and last try.
        assert result.degenerate_restarts == 2
        assert np.all(np.isfinite(result.restart_final_lls))

    def test_restart_degenerate_after_three_tries(self, obs, collapse_tries):
        cfg = EmConfig(num_states=2, num_restarts=3, seed=5)
        collapse_tries({(0, 0), (0, 1), (0, 2)})
        result = em_fit(obs, cfg)
        assert result.degenerate_restarts == 3
        finals = result.restart_final_lls
        assert len(finals) == 3
        assert np.isnan(finals[0])
        assert np.all(np.isfinite(finals[1:]))
        assert result.restart_index in (1, 2)
        assert result.log_likelihoods[-1] == max(finals[1:])

    def test_every_restart_degenerate_raises(self, obs, collapse_tries):
        collapse_tries()
        with pytest.raises(DegenerateFitError, match="all EM restarts were degenerate"):
            em_fit(obs, EmConfig(num_states=2, num_restarts=2, seed=5))

    def test_degenerate_restart_records(self, obs, collapse_tries):
        collapse_tries({(0, 0), (0, 1), (0, 2)})
        result = em_fit(obs, EmConfig(num_states=2, num_restarts=2, seed=5))
        # Each try collapses at the M-step after its first E-step.
        assert result.restart_iterations[0] == 1
        assert result.restart_converged[0] is False
        assert result.restart_index == 1

    def test_collapsed_tries_match_sequential_restarts(self):
        # The shifted last point draws a state of its own in some tries; they
        # collapse and run again in the next round, and restart 5 collapses
        # in all three rounds.
        x = np.random.default_rng(3).normal(0, 1, 20)
        x[-1] += 10.0
        obs = ObservationSequence(x)
        cfg = EmConfig(num_states=3, num_restarts=6, seed=3)
        expected = em_fit_loop(obs, cfg)
        result = em_fit(obs, cfg)
        assert result.degenerate_restarts > 0
        assert np.isnan(result.restart_final_lls[5])
        assert result.restart_index == expected.restart_index
        assert result.restart_iterations == expected.restart_iterations
        assert result.restart_converged == expected.restart_converged
        assert result.degenerate_restarts == expected.degenerate_restarts
        np.testing.assert_array_equal(result.restart_final_lls, expected.restart_final_lls)
        np.testing.assert_allclose(
            result.log_likelihoods, expected.log_likelihoods, rtol=1e-9, atol=0.0
        )
        for got, want in (
            (result.model.initial, expected.model.initial),
            (result.model.transition, expected.model.transition),
            (result.model.emission.means, expected.model.emission.means),
            (result.model.emission.sigmas, expected.model.emission.sigmas),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_untied_state_held_only_at_last_index_is_degenerate(self):
        # The shifted last point gets a state of its own that has no
        # outgoing transitions; its untied transition row would be 0/0.
        x = np.random.default_rng(0).normal(0, 1, 30)
        x[-1] += 10.0
        cfg = EmConfig(num_states=3, num_restarts=5, homoscedastic=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateFitError):
                em_fit(ObservationSequence(x), cfg)
