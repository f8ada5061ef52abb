import dataclasses

import numpy as np
import pytest

from hmmkld import (
    DiscreteEmission,
    EvidenceImpossibleError,
    GaussianEmission,
    HmmModel,
    ObservationSequence,
    forward_backward,
    kld_influence,
    posterior_marginals,
    windowed_influence,
)
from hmmkld.reference import (
    chain_marginals,
    enumeration_influence,
    enumeration_log_evidence,
    enumeration_marginals,
)

from conftest import (
    BELOW_DOUBLE_RANGE,
    FORWARD_BELOW_DOUBLE_RANGE,
    POSTERIOR_ROW_UNDERFLOW,
    random_discrete_model,
    random_gaussian_model,
)

class TestForwardBackward:
    def test_single_state_log_evidence(self):
        model = HmmModel(
            [1.0], [[1.0]], GaussianEmission.homoscedastic([0.3], 0.7)
        )
        obs = ObservationSequence(np.array([0.1, -0.4, 0.9]))
        fb = forward_backward(model, obs)
        logw = model.log_emission_matrix(obs.values)
        assert fb.log_evidence == pytest.approx(logw.sum(), abs=1e-12)

    def test_log_evidence_matches_enumeration(self, rng):
        model = random_discrete_model(rng, 2, 3)
        obs = ObservationSequence(rng.integers(0, 3, 4))
        fb = forward_backward(model, obs)
        assert fb.log_evidence == pytest.approx(
            enumeration_log_evidence(model, obs), abs=1e-12
        )

    def test_brute_force_equivalence_small_models(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            model = random_discrete_model(rng, m, 3)
            obs = ObservationSequence(rng.integers(0, 3, n))
            fb = forward_backward(model, obs)
            assert fb.log_evidence == pytest.approx(
                enumeration_log_evidence(model, obs), abs=1e-10
            )
            np.testing.assert_allclose(
                posterior_marginals(fb),
                enumeration_marginals(model, obs),
                atol=1e-10,
            )

    def test_gaussian_matches_enumeration(self, rng):
        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 2, 6))
        fb = forward_backward(model, obs)
        assert fb.log_evidence == pytest.approx(
            enumeration_log_evidence(model, obs), abs=1e-10
        )

    def test_uninformative_emissions_give_chain_marginals(self, rng):
        model = random_discrete_model(rng, 3, 2)
        flat = HmmModel(
            model.initial,
            model.transition,
            DiscreteEmission(np.full((3, 2), 0.5)),
        )
        obs = ObservationSequence(rng.integers(0, 2, 7))
        fb = forward_backward(flat, obs)
        np.testing.assert_allclose(
            posterior_marginals(fb),
            chain_marginals(flat.initial, flat.transition, 7),
            atol=1e-12,
        )

    def test_forward_rows_sum_to_one(self, rng):
        model = random_gaussian_model(rng, 4)
        obs = ObservationSequence(rng.normal(0, 2, 30))
        fb = forward_backward(model, obs)
        np.testing.assert_allclose(fb.fwd.sum(axis=1), 1.0, atol=1e-12)

    def test_evidence_constant_across_indices(self, rng):
        # sum_s F_i(s) B_i(s) reconstructs P(E) at every index.
        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 2, 40))
        fb = forward_backward(model, obs)
        for i in range(len(fb)):
            assert fb.log_evidence_at(i) == pytest.approx(
                fb.log_evidence, abs=1e-9
            )

    def test_no_overflow_with_tiny_sigma(self):
        model = HmmModel(
            [0.5, 0.5],
            [[0.99, 0.01], [0.01, 0.99]],
            GaussianEmission.homoscedastic([0.0, 1.0], 1e-4),
        )
        obs = ObservationSequence(np.tile([0.0, 1.0], 100))
        fb = forward_backward(model, obs)
        assert np.isfinite(fb.log_evidence)

    def test_impossible_evidence_raises(self):
        model = HmmModel(
            [1.0, 0.0],
            [[1.0, 0.0], [0.0, 1.0]],
            DiscreteEmission([[1.0, 0.0], [0.0, 1.0]]),
        )
        obs = ObservationSequence(np.array([0, 1]))
        with pytest.raises(EvidenceImpossibleError):
            forward_backward(model, obs)

    @pytest.mark.parametrize(
        "initial, transition, table, symbols, message",
        [
            ([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]],
             [0, 2], "observation 1 has zero probability in every state"),
        ],
        ids=["every-state"],
    )
    def test_impossible_evidence_names_the_index(
        self, initial, transition, table, symbols, message
    ):
        model = HmmModel(initial, transition, DiscreteEmission(table))
        with pytest.raises(EvidenceImpossibleError, match=message):
            forward_backward(model, ObservationSequence(np.array(symbols)))

    def test_evidence_below_the_double_range_is_finite(self):
        # The plain backward step at index 0 multiplies two factors of
        # 1e-200 in every state; the log-space pass recovers the evidence.
        model, obs = BELOW_DOUBLE_RANGE, ObservationSequence(np.array([0, 1, 0]))
        fb = forward_backward(model, obs)
        assert fb.log_evidence == pytest.approx(2 * np.log(1e-200), abs=1e-9)
        assert fb.log_evidence == pytest.approx(
            enumeration_log_evidence(model, obs), abs=1e-9
        )
        for i in range(len(fb)):
            assert fb.log_evidence_at(i) == pytest.approx(fb.log_evidence, abs=1e-9)
        np.testing.assert_allclose(
            posterior_marginals(fb), enumeration_marginals(model, obs), atol=1e-12
        )

    def test_forward_product_below_the_double_range_is_finite(self):
        model, obs = FORWARD_BELOW_DOUBLE_RANGE, ObservationSequence(np.array([0, 1, 0]))
        assert enumeration_log_evidence(model, obs) == pytest.approx(2 * np.log(1e-200))
        assert forward_backward(model, obs).log_evidence == pytest.approx(
            enumeration_log_evidence(model, obs), abs=1e-9
        )

    def test_forward_underflow_reruns_both_directions(self):
        # The forward step at index 1 underflows, so the lane takes its
        # backward rows from the log-space pass too: the chunked backward
        # row at index 0 has state 0's entry underflowed, and the product
        # with the forward row [1, 0, 0] would sum to 0. Every read of the
        # rows then equals the enumeration.
        model, obs = FORWARD_BELOW_DOUBLE_RANGE, ObservationSequence(np.array([0, 1, 0]))
        fb = forward_backward(model, obs)
        expected = enumeration_log_evidence(model, obs)
        for i in range(len(fb)):
            assert fb.log_evidence_at(i) == pytest.approx(expected, abs=1e-9)
        np.testing.assert_allclose(
            posterior_marginals(fb), enumeration_marginals(model, obs), atol=1e-9
        )
        for h, k in ((1, [0.0, np.inf, 0.0]), (2, [np.inf, np.inf]), (3, [np.inf])):
            np.testing.assert_array_equal(enumeration_influence(model, obs, window=h), k)
            fast = kld_influence(model, obs) if h == 1 else windowed_influence(model, obs, h)
            np.testing.assert_allclose(fast.k, k, atol=1e-9)

    def test_rescaled_lane_leaves_the_other_lanes_alone(self, rng):
        # Only the lanes whose backward or forward pass underflows run both
        # passes again in log space; every lane's rows, and so its
        # marginals, equal a call on it alone, bit for bit.
        tiny = (BELOW_DOUBLE_RANGE, FORWARD_BELOW_DOUBLE_RANGE)
        plain = random_discrete_model(rng, 3, 3)
        models = (plain,) + tiny
        lanes = HmmModel(
            np.stack([model.initial for model in models]),
            np.stack([model.transition for model in models]),
            DiscreteEmission(np.stack([model.emission.table for model in models])),
        )
        obs = ObservationSequence(np.array([0, 1, 0]))
        both = forward_backward(lanes, obs)
        marg = posterior_marginals(both)
        for r, model in enumerate(models):
            alone = forward_backward(model, obs)
            for field in ("fwd", "bwd", "log_scale_fwd", "log_scale_bwd"):
                np.testing.assert_array_equal(getattr(both, field)[r], getattr(alone, field))
            assert both.log_evidence[r] == alone.log_evidence
            np.testing.assert_array_equal(marg[r], posterior_marginals(alone))

    def test_backward_product_below_the_double_range_is_finite(self):
        # The evidence is 0.25e-400 > 0, along states 2, 1, 1. At index 1,
        # state 1's weight (1e-200) times its backward entry (2e-200)
        # underflows, and the only other state there with weight, 2, has
        # no way in: the step is 0 in every state unless it is formed in
        # log space.
        model = HmmModel(
            [0.5, 0.0, 0.5],
            [[1.0, 0.0, 0.0], [1.0, 1e-200, 0.0], [0.5, 0.5, 0.0]],
            DiscreteEmission([[0.0, 0.0, 1.0], [1.0, 1e-200, 0.0], [0.0, 1.0, 0.0]]),
        )
        obs = ObservationSequence(np.array([1, 1, 0]))
        expected = np.log(0.25) + 2 * np.log(1e-200)
        assert enumeration_log_evidence(model, obs) == pytest.approx(expected)
        fb = forward_backward(model, obs)
        assert fb.log_evidence == pytest.approx(expected, abs=1e-9)
        for i in range(len(fb)):
            assert fb.log_evidence_at(i) == pytest.approx(expected, abs=1e-9)
        np.testing.assert_allclose(
            posterior_marginals(fb), enumeration_marginals(model, obs), atol=1e-12
        )


class TestPosteriorMarginals:
    def test_single_node_bayes(self):
        model = HmmModel(
            [0.5, 0.5],
            [[0.5, 0.5], [0.5, 0.5]],
            DiscreteEmission([[0.9, 0.1], [0.1, 0.9]]),
        )
        obs = ObservationSequence(np.array([0]))
        marg = posterior_marginals(forward_backward(model, obs))
        np.testing.assert_allclose(marg[0], [0.9, 0.1], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        model = random_discrete_model(rng, 3, 4)
        obs = ObservationSequence(rng.integers(0, 4, 25))
        marg = posterior_marginals(forward_backward(model, obs))
        np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-12)

    def test_invariant_under_row_rescaling(self, rng):
        # Scaling a forward row and compensating the accumulator leaves
        # the normalized marginals untouched.
        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 1, 12))
        fb = forward_backward(model, obs)
        base = posterior_marginals(fb)
        scales = rng.uniform(0.5, 2.0, 12)
        scaled = dataclasses.replace(
            fb,
            fwd=fb.fwd * scales[:, None],
            log_scale_fwd=fb.log_scale_fwd - np.log(scales),
        )
        np.testing.assert_allclose(posterior_marginals(scaled), base, atol=1e-12)

    def test_zero_row_is_backward_underflow(self, rng):
        # The forward row [1, 0] meets the backward row [0, 1] at index 0.
        # A zero row is refused, not turned into NaN, and in a lane model
        # the index is named whichever lane holds the row.
        tiny = POSTERIOR_ROW_UNDERFLOW
        plain = random_discrete_model(rng, 2, 2)
        lanes = HmmModel(
            np.stack([plain.initial, tiny.initial]),
            np.stack([plain.transition, tiny.transition]),
            DiscreteEmission(np.stack([plain.emission.table, tiny.emission.table])),
        )
        obs = ObservationSequence(np.array([1, 1, 1]))
        for model in (tiny, lanes):
            fb = forward_backward(model, obs)
            with pytest.raises(
                EvidenceImpossibleError, match="the backward pass underflowed at index 0"
            ):
                posterior_marginals(fb)
