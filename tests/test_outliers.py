import time
import tracemalloc

import numpy as np
import pytest

from hmmkld import (
    DegenerateFitError,
    EmConfig,
    GaussianEmission,
    HmmModel,
    ModelError,
    ScoredReplicate,
    SimulationConfig,
    empirical_auc,
    lof_scores,
    lof_statistic,
    run_benchmark,
    sample,
    simulate,
    z_value_scores,
)
from hmmkld import outliers
from hmmkld.outliers import auc_table, scored_replicates
from hmmkld.training import _fit_stack

from loop_reference import simulate_loop


def reference_lof(points, r):
    """Direct transcription of the LOF definitions, plain loops only."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)

    def d(a, b):
        return float(np.sqrt(((pts[a] - pts[b]) ** 2).sum()))

    def kdist(a):
        return sorted(d(a, b) for b in range(n) if b != a)[r - 1]

    def neighbors(a):
        return [b for b in range(n) if b != a and d(a, b) <= kdist(a)]

    def lrd(a):
        reach = [max(kdist(b), d(a, b)) for b in neighbors(a)]
        return 1.0 / max(sum(reach) / len(reach), 1e-12)

    return np.array(
        [
            sum(lrd(b) for b in neighbors(a)) / len(neighbors(a)) / lrd(a)
            for a in range(n)
        ]
    )


class TestZValueScores:
    def test_two_symmetric_points(self):
        result = z_value_scores([0.0, 2.0, 100.0, 102.0], k=2, seed=0)
        np.testing.assert_allclose(np.abs(result.scores), 1.0, atol=1e-12)
        assert not result.degenerate

    def test_constant_cluster_flagged(self):
        result = z_value_scores([1.0, 1.0, 1.0, 50.0, 51.0], k=2, seed=0)
        assert result.degenerate
        assert np.all(np.isfinite(result.scores))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        values = np.linspace(0.0, 1.0, 40)
        values[[17, 30]] = bad
        with pytest.raises(ModelError, match=f"^value 17 is not finite: {bad}$"):
            z_value_scores(values, k=3, seed=0)

    def test_injected_outliers_raise_hit_rate(self):
        # A lone extreme point becomes a singleton cluster with zero
        # spread, so z localization only works when outliers share a
        # cluster with regular points; the hit rate is therefore well
        # above chance (~5%) but far from certain.
        rng = np.random.default_rng(1)
        hits = total = 0
        for t in range(120):
            values = rng.normal(0, 0.2, 53)
            mask = rng.random(53) < 0.05
            noise = rng.normal(0, 3.0, 53)
            values[mask] += noise[mask]
            injected = np.flatnonzero(mask)
            if injected.size < 2:
                continue
            total += 1
            result = z_value_scores(values, k=3, seed=t)
            if np.argmax(np.abs(result.scores)) in injected:
                hits += 1
        assert total > 30
        assert hits >= total * 0.3


class TestLofScores:
    def test_uniform_grid_interior_near_one(self):
        xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        scores = lof_scores(pts, r=8)
        interior = [
            i
            for i, (x, y) in enumerate(pts)
            if 2 <= x <= 7 and 2 <= y <= 7
        ]
        assert np.all(scores[interior] > 0.8)
        assert np.all(scores[interior] < 1.2)

    def test_isolated_point_scores_highest(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 0.5, (30, 2)), [[15.0, 15.0]]])
        scores = lof_scores(pts, r=5)
        assert np.argmax(scores) == 30

    def test_matches_definitional_transcription(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(0, 1, (12, 2))
        for r in (2, 3, 5):
            np.testing.assert_allclose(
                lof_scores(pts, r), reference_lof(pts, r), atol=1e-12
            )

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0, 1, (40, 2))
        base = lof_scores(pts, r=6)
        moved = lof_scores(pts * 3.7 + np.array([100.0, -250.0]), r=6)
        np.testing.assert_allclose(moved, base, atol=1e-10)

    def test_duplicate_points_finite(self):
        pts = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
        scores = lof_scores(pts, r=3)
        assert np.all(np.isfinite(scores))

    def test_r_out_of_range(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ModelError):
            lof_scores(pts, r=4)


class TestLofStatistic:
    def test_collinear_series_interior_near_one(self):
        values = 0.7 * np.arange(53.0) - 3.0
        result = lof_statistic(values)
        assert not result.clipped
        assert np.all(result.scores[15:-15] < 1.1)
        # A constant series has no spread to divide by; its points lie on a
        # line too, and score as the line's do.
        np.testing.assert_allclose(lof_statistic(np.ones(53)).scores, result.scores, atol=1e-12)

    def test_paper_length_not_clipped(self):
        rng = np.random.default_rng(4)
        assert not lof_statistic(rng.normal(0, 1, 53)).clipped

    def test_short_series_clipped(self):
        rng = np.random.default_rng(4)
        assert lof_statistic(rng.normal(0, 1, 15)).clipped

    def test_max_over_r_grid_of_lof_scores(self):
        # Integer values on integer times: many tied distances.
        values = np.random.default_rng(5).integers(0, 4, 40).astype(float)
        t = np.arange(40.0)
        pts = np.column_stack(
            [(t - t.mean()) / t.std(), (values - values.mean()) / values.std()]
        )
        expected = np.max([lof_scores(pts, r) for r in range(10, 21)], axis=0)
        assert np.array_equal(lof_statistic(values).scores, expected)

    def test_too_short_series_raises(self):
        with pytest.raises(ModelError):
            lof_statistic(np.arange(8.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        # Either used to give NaN scores behind RuntimeWarnings.
        values = np.linspace(0.0, 1.0, 40)
        values[[17, 30]] = bad
        with pytest.raises(ModelError, match=f"^value 17 is not finite: {bad}$"):
            lof_statistic(values)

    def test_injected_outlier_attains_maximum(self):
        rng = np.random.default_rng(9)
        hits = 0
        trials = 20
        for _ in range(trials):
            values = rng.normal(0, 0.114, 53)
            j = int(rng.integers(53))
            values[j] += 3.0
            result = lof_statistic(values)
            if np.argmax(result.scores) == j:
                hits += 1
        assert hits >= trials * 0.7


class TestEmpiricalAuc:
    def test_perfect_separation(self):
        roc = empirical_auc([3.0, 4.0, 5.0], [0.0, 1.0, 2.0], num_bootstrap=100)
        assert roc.auc == 1.0

    def test_identical_lists_exactly_half(self):
        scores = [0.3, 0.7, 0.7, 1.5]
        roc = empirical_auc(scores, scores, num_bootstrap=100)
        assert roc.auc == 0.5

    def test_exhaustive_pair_counting(self):
        h1 = [1.0, 2.0, 3.0]
        h0 = [0.0, 1.5, 2.5]
        wins = sum(
            1.0 if a > b else (0.5 if a == b else 0.0) for a in h1 for b in h0
        )
        expected = wins / (len(h1) * len(h0))
        assert expected == pytest.approx(6.0 / 9.0)
        roc = empirical_auc(h1, h0, num_bootstrap=100)
        assert roc.auc == pytest.approx(expected, abs=1e-12)

    def test_ties_count_half(self):
        roc = empirical_auc([1.0], [1.0], num_bootstrap=50)
        assert roc.auc == 0.5

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        h1 = rng.normal(1, 1, 60)
        h0 = rng.normal(0, 1, 50)
        a = empirical_auc(h1, h0, num_bootstrap=50).auc
        b = empirical_auc(np.exp(h1), np.exp(h0), num_bootstrap=50).auc
        assert a == pytest.approx(b, abs=1e-12)

    def test_ci_contains_point_estimate(self):
        rng = np.random.default_rng(8)
        roc = empirical_auc(rng.normal(1, 1, 40), rng.normal(0, 1, 40), seed=1)
        assert roc.ci_lower <= roc.auc <= roc.ci_upper
        assert 0.0 <= roc.ci_lower <= roc.ci_upper <= 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ModelError):
            empirical_auc([], [1.0])

    def test_nan_score_rejected(self):
        with pytest.raises(ModelError):
            empirical_auc([1.0, np.nan], [1.0])

    def test_negative_seed_rejected(self):
        with pytest.raises(ModelError, match="seed must be >= 0, got -1"):
            empirical_auc([1.0], [0.0], seed=-1)

    @pytest.mark.parametrize("num_bootstrap", [0, -5])
    def test_no_bootstrap_rows_rejected(self, num_bootstrap):
        with pytest.raises(ModelError, match=f"num_bootstrap must be >= 1, got {num_bootstrap}"):
            empirical_auc([1.0], [0.0], num_bootstrap=num_bootstrap)

    def test_bootstrap_memory_bounded(self):
        # The two index draws take 2 x 2,000 x 1,000 int64 entries (31 MiB).
        # Pair-count tables of all 2,001 rows at once took the call to
        # 122 MiB, and code tables of all rows to 61 MiB.
        rng = np.random.default_rng(2)
        h1, h0 = rng.normal(0.5, 1.0, 1000), rng.normal(0.0, 1.0, 1000)
        tracemalloc.start()
        try:
            empirical_auc(h1, h0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


def synthetic_source(seed=99, n=106):
    true = HmmModel(
        np.full(3, 1.0 / 3.0),
        np.array(
            [
                [0.915, 0.0425, 0.0425],
                [0.0425, 0.915, 0.0425],
                [0.0425, 0.0425, 0.915],
            ]
        ),
        GaussianEmission.homoscedastic([-0.372, 0.069, -0.068], 0.114),
    )
    _, obs = sample(true, n, seed=seed)
    return obs.values


class TestSimulate:
    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(source=synthetic_source(), seed=12)
        a = simulate(cfg, 2.0, 3)
        b = simulate(cfg, 2.0, 3)
        assert (a.t_kld, a.s_z, a.l_lof) == (b.t_kld, b.s_z, b.l_lof)
        assert a.outlier_positions == b.outlier_positions

    def test_replicates_differ(self):
        cfg = SimulationConfig(source=synthetic_source(), seed=12)
        a = simulate(cfg, None, 0)
        b = simulate(cfg, None, 1)
        assert a.t_kld != b.t_kld

    def test_statistics_valid(self):
        cfg = SimulationConfig(source=synthetic_source(), seed=1)
        rep = simulate(cfg, 2.0, 0)
        assert rep.t_kld >= 0
        assert rep.s_z >= 0
        assert rep.l_lof > 0

    def test_h0_has_no_injected_outliers(self):
        cfg = SimulationConfig(source=synthetic_source(), seed=1)
        assert simulate(cfg, None, 0).outlier_positions == []

    def test_expected_contamination_rate(self):
        # 0.05 * 53 = 2.65 injected points per alternative replicate.
        cfg = SimulationConfig(source=synthetic_source(), seed=5)
        counts = [len(simulate(cfg, 2.0, q).outlier_positions) for q in range(40)]
        mean = np.mean(counts)
        se = np.sqrt(2.65 / 40)  # ~binomial(53, 0.05) per replicate
        assert abs(mean - 2.65) < 4 * se

    def test_replicate_under_half_second(self):
        cfg = SimulationConfig(source=synthetic_source(), seed=2)
        start = time.perf_counter()
        simulate(cfg, 3.0, 0)
        assert time.perf_counter() - start < 0.5

    def test_degenerate_fit_is_redrawn(self, collapse_tries):
        # One restart whose three tries all collapse fails the fit, so the
        # replicate is drawn again from its next derived stream.
        cfg = SimulationConfig(source=synthetic_source(), seed=3, em_restarts=1)
        collapse_tries({(0, 0), (0, 1), (0, 2)})
        first = simulate(cfg, 2.0, 0)
        collapse_tries({(0, 0), (0, 1), (0, 2)})
        again = simulate(cfg, 2.0, 0)
        assert first.resampled == 1
        assert again == first
        # With the collapses used up, the first draw is kept.
        assert first != simulate(cfg, 2.0, 0)

    def test_gives_up_after_twenty_redraws(self, collapse_tries, monkeypatch):
        # A cell of one replicate fits each redraw in its own batch.
        cfg = SimulationConfig(source=synthetic_source(), seed=3, em_restarts=1)
        collapse_tries()
        calls = []

        def counted(stack, cfg, seeds):
            calls.append(stack)
            return _fit_stack(stack, cfg, seeds)

        monkeypatch.setattr(outliers, "_fit_stack", counted)
        with pytest.raises(DegenerateFitError):
            simulate(cfg, 2.0, 0)
        assert len(calls) == 21

    def test_bad_delta(self):
        cfg = SimulationConfig(source=synthetic_source(), seed=0)
        for delta in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ModelError, match="delta must be finite and >= 0"):
                simulate(cfg, delta, 0)

    @pytest.mark.parametrize("count", ["replicates", "em_restarts"])
    def test_counts_must_be_positive(self, count):
        with pytest.raises(ModelError, match=f"{count} must be >= 1, got 0"):
            SimulationConfig(source=synthetic_source(), **{count: 0})

    def test_config_validation(self):
        with pytest.raises(ModelError):
            SimulationConfig(source=np.arange(10.0), subsample_size=53)
        with pytest.raises(ModelError):
            SimulationConfig(source=synthetic_source(), contamination=1.5)
        with pytest.raises(ModelError, match="subsample size 3 must exceed the 10 neighbors"):
            SimulationConfig(source=synthetic_source(), subsample_size=3)

    @pytest.mark.parametrize(
        "source, message",
        [
            (np.zeros((53, 2)), "1-D"),
            (np.append(synthetic_source(), np.nan), "observation 106 is not finite"),
        ],
        ids=["2-D", "nan"],
    )
    def test_source_must_be_finite_series(self, source, message):
        with pytest.raises(ModelError, match=message):
            SimulationConfig(source=source)


@pytest.mark.parametrize(
    "make, name, value",
    [
        (EmConfig, "num_states", 2.5),
        (EmConfig, "max_iters", 2.5),
        (EmConfig, "max_iters", True),
        (EmConfig, "num_restarts", 1.5),
        (SimulationConfig, "subsample_size", 20.5),
        (SimulationConfig, "replicates", 1.5),
        (SimulationConfig, "replicates", True),
        (SimulationConfig, "em_restarts", 1.5),
    ],
)
def test_count_must_be_an_integer(make, name, value):
    settings = {"num_states": 2} if make is EmConfig else {"source": synthetic_source()}
    settings[name] = value
    with pytest.raises(ModelError, match=f"{name} must be an integer, got {value!r}"):
        make(**settings)


class TestRunBenchmark:
    def test_smoke(self):
        cfg = SimulationConfig(
            source=synthetic_source(), replicates=6, seed=21, em_restarts=2
        )
        rows = run_benchmark(cfg, deltas=[2.0])
        assert len(rows) == 3
        methods = {row.method for row in rows}
        assert methods == {"kld", "z", "lof"}
        for row in rows:
            assert 0.0 <= row.auc <= 1.0
            assert row.ci_lower <= row.auc <= row.ci_upper
            assert row.replicates == 6

    def test_deterministic(self):
        cfg = SimulationConfig(
            source=synthetic_source(), replicates=4, seed=8, em_restarts=2
        )
        rows1 = run_benchmark(cfg, deltas=[1.0])
        rows2 = run_benchmark(cfg, deltas=[1.0])
        assert [(r.method, r.auc) for r in rows1] == [
            (r.method, r.auc) for r in rows2
        ]


class TestScoredReplicates:
    def test_file_order_and_skip(self):
        cfg = SimulationConfig(
            source=synthetic_source(), replicates=2, seed=3, em_restarts=1
        )
        deltas = [2.0, 1.0]
        every = [("H0", None, 0), ("H0", None, 1), ("H1", 2.0, 0), ("H1", 2.0, 1),
                 ("H1", 1.0, 0), ("H1", 1.0, 1)]
        assert list(scored_replicates(cfg, deltas, skip=every)) == []
        # Only the last key is left to score; it must use its own delta.
        (key, rep), = scored_replicates(cfg, deltas, skip=every[:-1])
        assert key == ("H1", 1.0, 1)
        assert rep == simulate(cfg, 1.0, 1)

    def test_collapsed_replicate_is_redrawn_alone(self, collapse_tries, monkeypatch):
        # The first try of every restart is in the first batch, and only
        # replicate 0's tries collapse: it alone is drawn again, at the head
        # of the next batch, and its cell-mates keep their records, whether
        # the cell fits in one batch or spans batches of one or two series.
        cfg = SimulationConfig(source=synthetic_source(), replicates=3, seed=3, em_restarts=1)
        h1 = [("H1", 2.0, q) for q in range(3)]
        clean = list(scored_replicates(cfg, [2.0], skip=h1))
        for lanes in (outliers.FIT_LANES, 1, 2):
            monkeypatch.setattr(outliers, "FIT_LANES", lanes)
            collapse_tries({(0, 0), (0, 1), (0, 2)})
            redrawn = list(scored_replicates(cfg, [2.0], skip=h1))
            assert [rep.resampled for _, rep in redrawn] == [1, 0, 0]
            assert redrawn[1:] == clean[1:]
        collapse_tries({(0, 0), (0, 1), (0, 2)})
        assert redrawn[0][1] == simulate_loop(cfg, None, 0)

    def test_cell_that_gives_up_yields_no_record(self, monkeypatch):
        # One batch fits all four replicates of the run. H1 replicate 1 is
        # last in every batch, and its fit is always degenerate: the H0 cell
        # is yielded, and then the raise, with no H1 record, after exactly
        # 21 attempts of that replicate.
        cfg = SimulationConfig(source=synthetic_source(), replicates=2, seed=3, em_restarts=1)
        sizes = []

        def last_degenerate(stack, cfg, seeds):
            sizes.append(len(stack))
            return _fit_stack(stack, cfg, seeds)[:-1] + [None]

        monkeypatch.setattr(outliers, "_fit_stack", last_degenerate)
        yielded = []
        with pytest.raises(DegenerateFitError):
            for key, rep in scored_replicates(cfg, [2.0]):
                yielded.append((key, rep))
        assert yielded == [(("H0", None, q), simulate_loop(cfg, None, q)) for q in range(2)]
        assert sizes == [4] + [1] * 20

    def test_memory_does_not_grow_with_replicates(self, monkeypatch):
        # Four series per batch: the run of 12 H0 replicates takes three
        # batches, and must peak no higher than the run of 4 (a cell fitted
        # whole peaked at 1.9 times as high).
        monkeypatch.setattr(outliers, "FIT_LANES", 4)

        def peak(replicates):
            cfg = SimulationConfig(
                source=synthetic_source(), replicates=replicates, seed=7, em_restarts=1
            )
            h1 = [("H1", 2.0, q) for q in range(replicates)]
            tracemalloc.start()
            try:
                for _ in scored_replicates(cfg, [2.0], skip=h1):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # leaves out what only a first run allocates
        assert peak(12) <= 1.2 * peak(4)

    @pytest.mark.parametrize(
        "deltas, message",
        [
            ([1.0, 2.0, 1.0], "deltas repeats a value"),
            ([1.0, -1.0], "deltas must be finite and >= 0"),
            ([1.0, np.nan], "deltas must be finite and >= 0"),
            ([1.0, np.inf], "deltas must be finite and >= 0"),
            ([], "deltas must list at least one value"),
        ],
        ids=["repeated", "negative", "nan", "inf", "empty"],
    )
    def test_bad_delta_rejected_before_any_replicate(self, monkeypatch, deltas, message):
        calls = []
        monkeypatch.setattr(
            outliers, "_fit_stack", lambda stack, cfg, seeds: calls.append(stack)
        )
        cfg = SimulationConfig(source=synthetic_source(), replicates=3, em_restarts=1)
        with pytest.raises(ModelError, match=message):
            scored_replicates(cfg, deltas)
        assert calls == []


class TestAucTable:
    @staticmethod
    def rep(t_kld):
        return ScoredReplicate(t_kld=t_kld, s_z=1.0, l_lof=1.0)

    def test_deltas_ascending_and_h1_counts(self):
        scored = {
            ("H0", None, 0): self.rep(0.1),
            ("H0", None, 1): self.rep(0.3),
            ("H1", 3.0, 0): self.rep(0.5),
            ("H1", 0.5, 0): self.rep(0.2),
            ("H1", 0.5, 1): self.rep(0.05),
        }
        rows = auc_table(scored, seed=4)
        assert [(r.method, r.delta, r.replicates) for r in rows] == [
            (m, d, n) for d, n in ((0.5, 2), (3.0, 1)) for m in ("kld", "z", "lof")
        ]
        kld = {r.delta: r.auc for r in rows if r.method == "kld"}
        assert kld == {0.5: 0.25, 3.0: 1.0}
        assert all(r.seed == 4 and r.ci_lower <= r.auc <= r.ci_upper for r in rows)

    def test_needs_both_hypotheses(self):
        with pytest.raises(ModelError, match="both H0 and H1"):
            auc_table({("H0", None, 0): self.rep(0.1)}, seed=0)

    def test_negative_seed_rejected(self):
        scored = {("H0", None, 0): self.rep(0.1), ("H1", 1.0, 0): self.rep(0.5)}
        with pytest.raises(ModelError, match="seed must be >= 0, got -1"):
            auc_table(scored, seed=-1)
