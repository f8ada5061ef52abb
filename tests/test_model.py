import numpy as np
import pytest

from hmmkld import (
    DiscreteEmission,
    EmConfig,
    GaussianEmission,
    HmmModel,
    ModelError,
    ObservationSequence,
    SimulationConfig,
    empirical_auc,
    forward_backward,
    forward_star,
    kmeans_1d,
    lof_scores,
    loo_marginal,
    sample,
    simulate,
    windowed_influence,
)
from hmmkld.reference import windowed_influence_log_space


def two_state_discrete():
    return HmmModel(
        [0.5, 0.5],
        [[0.9, 0.1], [0.2, 0.8]],
        DiscreteEmission([[0.9, 0.1], [0.2, 0.8]]),
    )


class TestEmissionDensity:
    def test_discrete_lookup(self):
        model = two_state_discrete()
        logw = model.log_emission_matrix([1, 0])
        assert np.exp(logw[0, 0]) == pytest.approx(0.1)
        assert np.exp(logw[1, 1]) == pytest.approx(0.2)

    def test_standard_normal_at_zero(self):
        model = HmmModel(
            [1.0], [[1.0]], GaussianEmission.homoscedastic([0.0], 1.0)
        )
        assert np.exp(model.log_emission_matrix([0.0])[0, 0]) == pytest.approx(
            0.3989422804014327, abs=1e-12
        )

    def test_narrow_gaussian_density_above_one(self):
        # Density at the mean is 1/(sigma sqrt(2 pi)).
        sigma = 0.114
        model = HmmModel(
            [1.0], [[1.0]], GaussianEmission.homoscedastic([-0.372], sigma)
        )
        expected = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
        density = np.exp(model.log_emission_matrix([-0.372])[0, 0])
        assert density == pytest.approx(expected, rel=1e-12)

    def test_symbol_out_of_range(self):
        with pytest.raises(ModelError):
            two_state_discrete().log_emission_matrix([5])


class TestInvariants:
    def test_transition_rows_must_be_stochastic(self):
        with pytest.raises(ModelError):
            HmmModel(
                [0.5, 0.5],
                [[0.9, 0.2], [0.2, 0.8]],
                DiscreteEmission([[0.5, 0.5], [0.5, 0.5]]),
            )

    def test_initial_must_sum_to_one(self):
        with pytest.raises(ModelError):
            HmmModel(
                [0.6, 0.5],
                [[1.0, 0.0], [0.0, 1.0]],
                DiscreteEmission([[0.5, 0.5], [0.5, 0.5]]),
            )

    def test_negative_probability_rejected(self):
        with pytest.raises(ModelError):
            DiscreteEmission([[1.2, -0.2]])

    def test_sigma_must_be_positive(self):
        with pytest.raises(ModelError):
            GaussianEmission([0.0], [0.0])

    def test_empty_observations_rejected(self):
        with pytest.raises(ModelError):
            ObservationSequence(np.array([]))

    def test_label_length_mismatch(self):
        with pytest.raises(ModelError):
            ObservationSequence(np.array([1.0, 2.0]), labels=["a"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ModelError, match="observation 1 is not finite"):
            ObservationSequence(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: HmmModel(
                    [np.nan, np.nan],
                    [[0.9, 0.1], [0.2, 0.8]],
                    DiscreteEmission([[0.5, 0.5], [0.5, 0.5]]),
                ),
                "initial distribution has non-finite",
            ),
            (
                lambda: HmmModel(
                    [0.5, 0.5],
                    [[0.9, 0.1], [np.nan, 0.8]],
                    DiscreteEmission([[0.5, 0.5], [0.5, 0.5]]),
                ),
                "transition row 1 has non-finite",
            ),
            (
                lambda: DiscreteEmission([[0.5, 0.5], [np.nan, np.nan]]),
                "emission row 1 has non-finite",
            ),
            (lambda: GaussianEmission([0.0, np.nan], [1.0, 1.0]), "must be finite"),
            (lambda: GaussianEmission([0.0, 1.0], [1.0, np.nan]), "must be finite"),
        ],
        ids=["initial", "transition-row", "discrete-row", "mean", "sigma"],
    )
    def test_nan_parameters_rejected(self, build, message):
        with pytest.raises(ModelError, match=message):
            build()


class TestLaneModel:
    def lane_model(self):
        return HmmModel(
            [[0.5, 0.5], [0.2, 0.8], [1.0, 0.0]],
            [[[0.9, 0.1], [0.2, 0.8]]] * 3,
            GaussianEmission([[0.0, 1.0], [-1.0, 2.0], [0.5, 0.5]], 1.0),
        )

    def test_lane_count_and_log_emission_shape(self):
        model = self.lane_model()
        assert model.lanes == 3
        assert model.num_states == 2
        assert two_state_discrete().lanes is None
        logw = model.log_emission_matrix(np.array([0.0, 1.0, 4.0, 2.0]))
        assert logw.shape == (3, 4, 2)
        lane = HmmModel(
            model.initial[1], model.transition[1], GaussianEmission([-1.0, 2.0], 1.0)
        )
        np.testing.assert_array_equal(
            logw[1], lane.log_emission_matrix(np.array([0.0, 1.0, 4.0, 2.0]))
        )

    def test_discrete_lanes(self):
        table = np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.3, 0.7]]])
        emission = DiscreteEmission(table)
        assert emission.lanes == 2
        logw = emission.log_density_matrix(np.array([1, 0, 1]))
        assert logw.shape == (2, 3, 2)
        np.testing.assert_array_equal(logw[1, 2], np.log(table[1, :, 1]))

    def test_stack_needs_one_lane_per_series(self):
        model = self.lane_model()
        stack = np.array([[0.0, 1.0], [4.0, 2.0], [1.0, 1.0]])
        logw = model.log_emission_matrix(stack)
        for r in range(3):
            lane = HmmModel(
                model.initial[r],
                model.transition[r],
                GaussianEmission(model.emission.means[r], model.emission.sigmas[r]),
            )
            np.testing.assert_array_equal(logw[r], lane.log_emission_matrix(stack[r]))
        for bad, owner in ((stack[:2], model), (stack[:1], two_state_discrete())):
            with pytest.raises(ModelError, match="needs one model lane per series"):
                owner.log_emission_matrix(bad)

    def test_bad_row_names_its_lane(self):
        transition = np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.9, 0.1], [0.3, 0.8]]])
        with pytest.raises(ModelError, match="lane 1: transition row 1 does not sum to 1"):
            HmmModel(
                [[0.5, 0.5], [0.5, 0.5]],
                transition,
                GaussianEmission([[0.0, 1.0], [0.0, 1.0]], 1.0),
            )

    def test_lane_counts_must_match(self):
        with pytest.raises(ModelError, match="different number of lanes"):
            HmmModel(
                [[0.5, 0.5], [0.5, 0.5]],
                [[[0.9, 0.1], [0.2, 0.8]]] * 2,
                GaussianEmission([0.0, 1.0], 1.0),
            )
        with pytest.raises(ModelError, match="per lane"):
            HmmModel([[0.5, 0.5]] * 2, [[0.9, 0.1], [0.2, 0.8]], GaussianEmission([0.0, 1.0], 1.0))


class TestSample:
    def test_absorbing_chain_constant_path(self):
        model = HmmModel(
            [0.0, 1.0],
            [[1.0, 0.0], [0.0, 1.0]],
            DiscreteEmission([[0.5, 0.5], [0.5, 0.5]]),
        )
        states, _ = sample(model, 50, seed=1)
        assert np.all(states == 1)

    def test_deterministic_given_seed(self):
        model = two_state_discrete()
        s1, o1 = sample(model, 40, seed=77)
        s2, o2 = sample(model, 40, seed=77)
        assert np.array_equal(s1, s2)
        assert np.array_equal(o1.values, o2.values)

    def test_lane_model_rejected(self):
        model = two_state_discrete()
        lanes = HmmModel(
            [model.initial] * 2,
            [model.transition] * 2,
            DiscreteEmission([model.emission.table] * 2),
        )
        with pytest.raises(ModelError, match="not a lane model"):
            sample(lanes, 10, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ModelError, match="seed must be >= 0, got -1"):
            sample(two_state_discrete(), 10, seed=-1)

    def test_transition_frequencies_match(self):
        model = two_state_discrete()
        n = 100_000
        states, _ = sample(model, n, seed=3)
        for r in range(2):
            from_r = states[:-1] == r
            count = from_r.sum()
            for s in range(2):
                p = model.transition[r, s]
                freq = (states[1:][from_r] == s).mean()
                se = np.sqrt(p * (1 - p) / count)
                assert abs(freq - p) < 3 * se

    def test_gaussian_sample_values(self):
        model = HmmModel(
            [1.0], [[1.0]], GaussianEmission.homoscedastic([5.0], 0.5)
        )
        _, obs = sample(model, 10_000, seed=11)
        assert obs.values.mean() == pytest.approx(5.0, abs=0.02)
        assert obs.values.std() == pytest.approx(0.5, abs=0.02)


SOURCE = np.linspace(-1.0, 1.0, 60)


def loo_at(j):
    """``loo_marginal`` at j on three observations."""
    model = two_state_discrete()
    fb = forward_backward(model, ObservationSequence([0, 1, 0]))
    return loo_marginal(forward_star(model, fb), fb, j)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: EmConfig(num_states=2, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: EmConfig(num_states=2, seed=True), "seed must be an integer, got True"),
        (lambda: EmConfig(num_states=2, seed=np.random.default_rng(0)),
         "seed must be an integer"),
        (lambda: SimulationConfig(source=SOURCE, seed=np.random.SeedSequence(1)),
         "seed must be an integer"),
        (lambda: empirical_auc([1.0, 2.0], [0.0], seed=2.5), "seed must be an integer, got 2.5"),
        (lambda: sample(two_state_discrete(), 5, 1.5), "seed must be an integer, got 1.5"),
        (lambda: sample(two_state_discrete(), 5, np.True_), "seed must be an integer"),
        (lambda: kmeans_1d(SOURCE, 2, 2.5), "seed must be an integer, got 2.5"),
        (lambda: sample(two_state_discrete(), 2.5, 0), "n must be an integer, got 2.5"),
        (lambda: sample(two_state_discrete(), 0, 0), "n must be >= 1, got 0"),
        (lambda: windowed_influence(two_state_discrete(), ObservationSequence([0, 1, 0]), 2.5),
         "h must be an integer, got 2.5"),
        (lambda: windowed_influence(two_state_discrete(), ObservationSequence([0, 1, 0]), 4),
         "^h must be <= 3, got 4$"),
        (lambda: windowed_influence_log_space(
            two_state_discrete(), ObservationSequence([0, 1, 0]), 4
        ), "^h must be <= 3, got 4$"),
        (lambda: loo_at(-1), "j must be >= 0, got -1"),
        (lambda: loo_at(3), "j must be <= 2, got 3"),
        (lambda: loo_at(2.5), "j must be an integer, got 2.5"),
        (lambda: lof_scores(np.zeros((5, 2)), 2.5), "r must be an integer, got 2.5"),
        (lambda: lof_scores(np.zeros((5, 2)), True), "r must be an integer, got True"),
        (lambda: lof_scores(np.zeros((5, 2)), 5), "^r must be <= 4, got 5$"),
        (lambda: SimulationConfig(source=SOURCE, subsample_size=len(SOURCE) + 1),
         "^subsample_size must be <= 60, got 61$"),
        (lambda: simulate(SimulationConfig(source=SOURCE), None, -1),
         "replicate must be >= 0, got -1"),
    ],
    ids=["em-float-seed", "em-bool-seed", "em-generator-seed", "simulation-seedsequence",
         "auc-float-seed", "sample-float-seed", "sample-numpy-bool-seed", "kmeans-float-seed",
         "sample-float-n", "sample-zero-n", "window-float-h", "window-h-past-the-end",
         "log-space-window-h-past-the-end", "loo-negative-j", "loo-j-past-the-end",
         "loo-float-j", "lof-float-r", "lof-bool-r", "lof-r-past-the-end",
         "simulation-subsample-past-the-source", "simulate-negative-replicate"],
)
def test_bad_integer_argument_is_model_error(call, message):
    with pytest.raises(ModelError, match=message):
        call()


@pytest.mark.parametrize(
    "seed", [None, 0, np.int64(3), np.random.SeedSequence(3), np.random.default_rng(3)]
)
def test_sample_takes_any_numpy_seed(seed):
    states, obs = sample(two_state_discrete(), 5, seed)
    assert states.shape == obs.values.shape == (5,)
