import numpy as np
import pytest

from hmmkld import (
    DiscreteEmission,
    GaussianEmission,
    HmmModel,
    kld_influence,
    windowed_influence,
    ObservationSequence,
    ScoredReplicate,
)
from hmmkld.serialize import (
    DataFormatError,
    dump_model,
    influence_tsv,
    parse_model,
    parse_observations_csv,
    parse_replicate_records,
    read_model,
    replicate_record,
    window_influence_tsv,
    write_model,
)


def gaussian_model():
    return HmmModel(
        [0.2, 0.3, 0.5],
        [
            [0.8, 0.1, 0.1],
            [0.05, 0.9, 0.05],
            [0.25, 0.25, 0.5],
        ],
        GaussianEmission.homoscedastic([-0.372, 0.069, -0.068], 0.114),
    )


class TestModelDocument:
    def test_gaussian_round_trip(self, tmp_path):
        model = gaussian_model()
        path = tmp_path / "model.txt"
        write_model(model, path)
        loaded = read_model(path)
        np.testing.assert_array_equal(loaded.initial, model.initial)
        np.testing.assert_array_equal(loaded.transition, model.transition)
        np.testing.assert_array_equal(
            loaded.emission.means, model.emission.means
        )
        np.testing.assert_array_equal(
            loaded.emission.sigmas, model.emission.sigmas
        )

    def test_discrete_round_trip(self):
        model = HmmModel(
            [0.5, 0.5],
            [[0.9, 0.1], [0.2, 0.8]],
            DiscreteEmission([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]]),
        )
        loaded = parse_model(dump_model(model))
        np.testing.assert_array_equal(loaded.emission.table, model.emission.table)

    def test_heteroscedastic_round_trip(self):
        model = HmmModel(
            [0.5, 0.5],
            [[0.9, 0.1], [0.2, 0.8]],
            GaussianEmission([-1.0, 1.0], [0.3, 0.6]),
        )
        loaded = parse_model(dump_model(model))
        np.testing.assert_array_equal(loaded.emission.sigmas, model.emission.sigmas)

    def test_dump_is_byte_stable(self):
        model = gaussian_model()
        text = dump_model(model)
        assert dump_model(parse_model(text)) == text

    def test_rejects_wrong_header(self):
        with pytest.raises(DataFormatError):
            parse_model("not-a-model\nstates 2\n")

    def test_rejects_short_row(self):
        text = dump_model(gaussian_model()).replace(
            "initial 0.2 0.3 0.5", "initial 0.2 0.3"
        )
        with pytest.raises(DataFormatError):
            parse_model(text)

    def test_rejects_unknown_emission(self):
        model = gaussian_model()
        text = dump_model(model).replace("gaussian_homoscedastic", "weird")
        with pytest.raises(DataFormatError):
            parse_model(text)


class TestObservationsCsv:
    def test_value_only_no_header(self):
        obs = parse_observations_csv("0.5\n-1.25\n3\n")
        np.testing.assert_allclose(obs.values, [0.5, -1.25, 3.0])
        assert obs.labels is None

    def test_value_only_with_header(self):
        obs = parse_observations_csv("value\n1.0\n2.0\n")
        np.testing.assert_allclose(obs.values, [1.0, 2.0])

    def test_label_value_with_header(self):
        obs = parse_observations_csv("label,value\n1880,-0.1\n1881,0.2\n")
        assert obs.labels == ["1880", "1881"]
        np.testing.assert_allclose(obs.values, [-0.1, 0.2])

    def test_label_value_no_header(self):
        # Numeric labels in the first column still parse as labels.
        obs = parse_observations_csv("1880,-0.1\n1881,0.2\n")
        assert obs.labels == ["1880", "1881"]

    def test_empty_rejected(self):
        with pytest.raises(DataFormatError):
            parse_observations_csv("\n\n")

    def test_header_only_rejected(self):
        with pytest.raises(DataFormatError):
            parse_observations_csv("label,value\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(DataFormatError, match="line 3"):
            parse_observations_csv("1.0\n2.0\nxyz\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, raw):
        with pytest.raises(DataFormatError, match="line 3: not a finite number"):
            parse_observations_csv(f"label,value\n1880,1.0\n1881,{raw}\n")


class TestProfileTsv:
    def test_influence_columns(self, rng):
        from conftest import random_gaussian_model

        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 1, 4), labels=list("abcd"))
        profile = kld_influence(model, obs)
        text = influence_tsv(profile, obs.label_list())
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == [
            "label",
            "K",
            "p_loo_1",
            "p_loo_2",
            "p_loo_3",
            "p_post_1",
            "p_post_2",
            "p_post_3",
        ]
        assert len(lines) == 5
        assert lines[1].startswith("a\t")

    def test_window_tsv(self, rng):
        from conftest import random_gaussian_model

        model = random_gaussian_model(rng, 2)
        obs = ObservationSequence(rng.normal(0, 1, 6))
        profile = windowed_influence(model, obs, 3)
        lines = window_influence_tsv(profile, obs.label_list()).strip().split("\n")
        assert lines[0] == "label\tK"
        assert len(lines) == 5  # header + (6 - 3 + 1) windows


class TestReplicateRecords:
    def test_round_trip_keeps_order(self):
        reps = {
            ("H0", None, 1): ScoredReplicate(0.25, 1.5, 1.1, resampled=2),
            ("H0", None, 0): ScoredReplicate(float("inf"), 2.0, 1.3),
            ("H1", 2.0, 0): ScoredReplicate(
                0.75, 3.5, 2.2, outlier_positions=[4, 17], z_degenerate=True
            ),
        }
        text = "".join(replicate_record(key, rep) for key, rep in reps.items())
        assert text.count("\n") == 3
        parsed = parse_replicate_records(text)
        assert list(parsed) == list(reps)
        assert parsed == reps

    def test_bad_field_type_reports_line(self):
        line = replicate_record(("H0", None, 0), ScoredReplicate(0.1, 1.0, 1.0))
        bad = line.replace('"resampled": 0', '"resampled": "0"')
        with pytest.raises(DataFormatError, match="<scores>: line 2: bad 'resampled'"):
            parse_replicate_records("\n" + bad)
