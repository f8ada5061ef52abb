import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hmmkld
from hmmkld import GaussianEmission, HmmModel, ModelError, cli, outliers, sample
from hmmkld.cli import main
from hmmkld.outliers import SimulationConfig, scored_replicates
from hmmkld.serialize import dump_model, read_model

from conftest import (
    FORWARD_BELOW_DOUBLE_RANGE,
    LEAVE_OUT_UNDERFLOW,
    POSTERIOR_ROW_UNDERFLOW,
    WINDOW_START_UNDERFLOW,
)


def replicate_line(drop=None, **changes):
    """A scores-file line: an H0 record with ``changes`` applied, ``drop`` left out."""
    rec = {"hypothesis": "H0", "delta": None, "replicate": 0, "t_kld": 0.5,
           "s_z": 1.0, "l_lof": 1.2, "outliers": [], "resampled": 0,
           "z_degenerate": False, "lof_clipped": False}
    rec.update(changes)
    rec.pop(drop, None)
    return json.dumps(rec)


H1_LINE = replicate_line(hypothesis="H1", delta=2.0)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def series_csv(tmp_path):
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
    _, obs = sample(true, 106, seed=41)
    path = tmp_path / "series.csv"
    lines = ["label,value"]
    for i, v in enumerate(obs.values):
        lines.append(f"{1880 + i},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def model_file(tmp_path):
    model = HmmModel(
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
    path = tmp_path / "model.txt"
    path.write_text(dump_model(model))
    return path


class TestTrain:
    def test_writes_model_report_manifest(self, tmp_path, series_csv):
        out = tmp_path / "fit.model"
        report = tmp_path / "fit.report.tsv"
        code = main(
            [
                "train",
                str(series_csv),
                "--states",
                "3",
                "--tie-transitions",
                "--restarts",
                "3",
                "--seed",
                "7",
                "--canonical",
                "--out-model",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        model = read_model(out)
        assert model.num_states == 3
        assert np.all(np.diff(model.emission.means) >= 0)
        assert report.read_text().startswith("field\tvalue")
        manifest = json.loads((tmp_path / "fit.model.manifest.json").read_text())
        assert manifest["subcommand"] == "train"
        assert "total" in manifest["timings_s"]
        assert manifest["input_sha256"] == {"data": sha256(series_csv)}
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__

    def test_manifest_records_every_restart(self, tmp_path, series_csv, collapse_tries):
        collapse_tries({(1, 0), (1, 1), (1, 2)})
        out = tmp_path / "fit.model"
        report = tmp_path / "fit.report.tsv"
        args = ["train", str(series_csv), "--restarts", "3", "--seed", "7"]
        assert main(args + ["--out-model", str(out), "--report", str(report)]) == 0
        fit = json.loads((tmp_path / "fit.model.manifest.json").read_text())["fit"]
        assert fit["degenerate_restarts"] == 3
        assert fit["restart_final_lls"][1] is None
        assert all(isinstance(ll, float) for ll in fit["restart_final_lls"][::2])
        assert fit["restart_converged"][1] is False
        assert len(fit["restart_iterations"]) == 3
        rows = dict(line.split("\t") for line in report.read_text().splitlines()[1:])
        assert rows["restart_1_log_likelihood"] == "nan"
        assert int(rows["iterations"]) == fit["restart_iterations"][fit["best_restart"]]

    def test_rerun_is_byte_identical(self, tmp_path, series_csv):
        args = [
            "train",
            str(series_csv),
            "--states",
            "2",
            "--restarts",
            "2",
            "--seed",
            "3",
        ]
        out1 = tmp_path / "a.model"
        out2 = tmp_path / "b.model"
        assert main(args + ["--out-model", str(out1)]) == 0
        assert main(args + ["--out-model", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        code = main(["train", str(bad), "--out-model", str(tmp_path / "m")])
        assert code == 3

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            ["train", str(tmp_path / "nope.csv"), "--out-model", str(tmp_path / "m")]
        )
        assert code == 3

    def test_all_restarts_degenerate_is_numeric_error(
        self, tmp_path, series_csv, collapse_tries, capsys
    ):
        collapse_tries()
        out = tmp_path / "m"
        code = main(["train", str(series_csv), "--restarts", "2", "--out-model", str(out)])
        assert code == 4
        assert "all EM restarts were degenerate" in capsys.readouterr().err
        assert not out.exists()

    def test_untied_state_held_only_at_last_index_is_numeric_error(self, tmp_path):
        x = np.random.default_rng(0).normal(0, 1, 30)
        x[-1] += 10.0
        data = tmp_path / "shifted.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in x))
        out = tmp_path / "m"
        args = ["train", str(data), "--states", "3", "--heteroscedastic", "--restarts", "5"]
        assert main(args + ["--out-model", str(out)]) == 4
        assert not out.exists()


class TestInfluence:
    def test_windowed_output(self, tmp_path, series_csv, model_file):
        out = tmp_path / "win.tsv"
        code = main(
            [
                "influence",
                str(model_file),
                str(series_csv),
                "--window",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label\tK"
        assert len(lines) == 1 + 106 - 3 + 1

    def test_window_too_large_is_usage_error(self, tmp_path, series_csv, model_file):
        code = main(
            [
                "influence",
                str(model_file),
                str(series_csv),
                "--window",
                "500",
                "--out",
                str(tmp_path / "x.tsv"),
            ]
        )
        assert code == 2

    def test_manifest_path_and_input_digests(self, tmp_path, series_csv, model_file):
        out = tmp_path / "inf.tsv"
        manifest = tmp_path / "run.json"
        args = ["influence", str(model_file), str(series_csv), "--out", str(out)]
        assert main(args + ["--manifest", str(manifest)]) == 0
        assert not Path(str(out) + ".manifest.json").exists()
        digests = json.loads(manifest.read_text())["input_sha256"]
        assert digests == {"data": sha256(series_csv), "model": sha256(model_file)}

    def test_rerun_is_byte_identical(self, tmp_path, series_csv, model_file):
        out1 = tmp_path / "r1.tsv"
        out2 = tmp_path / "r2.tsv"
        for out in (out1, out2):
            assert (
                main(
                    ["influence", str(model_file), str(series_csv), "--out", str(out)]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()


class TestDetect:
    def test_kld_flags_injected_outliers(self, tmp_path, series_csv):
        # Push two points far outside the emission range, as in a manual
        # contamination experiment, and expect them among the top scores.
        # Neighbors of a gross outlier also gain influence (their
        # posterior shifts too), so top-2 exactly is not guaranteed.
        lines = series_csv.read_text().splitlines()
        header, rows = lines[0], lines[1:]

        def shift(row, amount):
            label, value = row.split(",")
            return f"{label},{float(value) + amount!r}"

        rows[4] = shift(rows[4], 0.8)
        rows[59] = shift(rows[59], -1.0)
        poisoned = tmp_path / "poisoned.csv"
        poisoned.write_text("\n".join([header] + rows) + "\n")
        out = tmp_path / "flags.tsv"
        code = main(
            [
                "detect",
                str(poisoned),
                "--method",
                "kld",
                "--top-k",
                "5",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        flagged = {
            line.split("\t")[0]
            for line in out.read_text().splitlines()[1:]
            if line.split("\t")[2] == "1"
        }
        assert {"1884", "1939"} <= flagged
        assert len(flagged) == 5

    def test_top_k_equal_n_flags_everything(self, tmp_path, series_csv):
        out = tmp_path / "all.tsv"
        code = main(
            [
                "detect",
                str(series_csv),
                "--method",
                "z",
                "--top-k",
                "106",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        flags = [line.split("\t")[2] for line in out.read_text().splitlines()[1:]]
        assert all(flag == "1" for flag in flags)

    def test_lof_short_series_warns(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        short = tmp_path / "short.csv"
        short.write_text("\n".join(repr(float(v)) for v in rng.normal(0, 1, 15)) + "\n")
        out = tmp_path / "short.tsv"
        code = main(
            ["detect", str(short), "--method", "lof", "--top-k", "1", "--out", str(out)]
        )
        assert code == 0
        assert "clipped" in capsys.readouterr().err

    @pytest.mark.parametrize("top_k", ["0", "-3"])
    def test_top_k_below_one_is_usage_error(self, tmp_path, series_csv, top_k):
        out = tmp_path / "flags.tsv"
        out.write_text("kept\n")
        args = ["detect", str(series_csv), "--method", "z", "--top-k", top_k]
        assert main(args + ["--out", str(out)]) == 2
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error(self, tmp_path, series_csv, threshold, capsys):
        out = tmp_path / "flags.tsv"
        out.write_text("kept\n")
        args = ["detect", str(series_csv), "--method", "z", f"--threshold={threshold}"]
        assert main(args + ["--out", str(out)]) == 2
        assert "--threshold must be finite" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_kld_manifest_records_restarts(self, tmp_path, series_csv):
        out = tmp_path / "flags.tsv"
        args = ["detect", str(series_csv), "--method", "kld", "--restarts", "4"]
        assert main(args + ["--out", str(out)]) == 0
        fit = json.loads(Path(str(out) + ".manifest.json").read_text())["fit"]
        assert fit["degenerate_restarts"] == 0
        assert len(fit["restart_final_lls"]) == 4
        assert all(n >= 1 for n in fit["restart_iterations"])
        assert len(fit["restart_converged"]) == 4

    def test_kld_fit_stops_at_the_detector_cap(self, tmp_path, series_csv, monkeypatch):
        monkeypatch.setattr(outliers, "EM_MAX_ITERS", 2)
        out = tmp_path / "flags.tsv"
        assert main(["detect", str(series_csv), "--method", "kld", "--out", str(out)]) == 0
        fit = json.loads(Path(str(out) + ".manifest.json").read_text())["fit"]
        assert all(n <= 2 for n in fit["restart_iterations"])

    def test_threshold_mode(self, tmp_path, series_csv):
        out = tmp_path / "thr.tsv"
        code = main(
            [
                "detect",
                str(series_csv),
                "--method",
                "lof",
                "--threshold",
                "1.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0


class TestSimulateEvaluate:
    def test_pipeline_and_determinism(self, tmp_path, series_csv):
        scores1 = tmp_path / "scores1.jsonl"
        scores2 = tmp_path / "scores2.jsonl"
        args = [
            "simulate",
            str(series_csv),
            "--deltas",
            "2.0",
            "--replicates",
            "3",
            "--em-restarts",
            "2",
            "--seed",
            "11",
        ]
        assert main(args + ["--out", str(scores1)]) == 0
        assert main(args + ["--out", str(scores2)]) == 0
        assert scores1.read_bytes() == scores2.read_bytes()
        records = [json.loads(line) for line in scores1.read_text().splitlines()]
        assert sum(rec["hypothesis"] == "H0" for rec in records) == 3
        assert sum(rec["hypothesis"] == "H1" for rec in records) == 3
        assert all(isinstance(rec["z_degenerate"], bool) for rec in records)
        assert not any(rec["lof_clipped"] for rec in records)

        table = tmp_path / "table.tsv"
        code = main(
            ["evaluate", "--scores", str(scores1), "--out", str(table), "--seed", "1"]
        )
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "method\tdelta\tauc\tci_lo\tci_hi\treplicates\tseed"
        assert len(lines) == 4  # three methods at one delta

    def test_resume_skips_done_replicates(self, tmp_path, series_csv):
        scores = tmp_path / "scores.jsonl"
        args = [
            "simulate",
            str(series_csv),
            "--deltas",
            "1.0",
            "--replicates",
            "2",
            "--em-restarts",
            "2",
            "--seed",
            "4",
            "--out",
            str(scores),
        ]
        assert main(args) == 0
        before = scores.read_text()
        assert main(args + ["--resume"]) == 0
        assert scores.read_text() == before

    def test_resume_after_cut_mid_line(self, tmp_path, series_csv):
        whole = tmp_path / "whole.jsonl"
        cut = tmp_path / "cut.jsonl"
        args = ["simulate", str(series_csv), "--deltas", "1.0,2.0", "--replicates", "2",
                "--em-restarts", "1", "--seed", "5"]
        assert main(args + ["--out", str(whole)]) == 0
        data = whole.read_bytes()
        second_line_end = data.index(b"\n", data.index(b"\n") + 1)
        cut.write_bytes(data[: second_line_end + 20])
        assert main(args + ["--out", str(cut), "--resume"]) == 0
        assert cut.read_bytes() == data

    def test_manifest_summarizes_each_cell(self, tmp_path, series_csv, collapse_tries):
        # Replicate 0 of H0 is redrawn once; the resumed run finds the H0
        # cell in the file and scores only the two H1 cells.
        scores = tmp_path / "scores.jsonl"
        args = ["simulate", str(series_csv), "--deltas", "1.0,2.0", "--replicates", "3",
                "--em-restarts", "1", "--seed", "6", "--out", str(scores)]
        collapse_tries({(0, 0), (0, 1), (0, 2)})
        assert main(args) == 0
        records = [json.loads(line) for line in scores.read_text().splitlines()]

        def summary(hypothesis, delta, skipped):
            own = [r for r in records if (r["hypothesis"], r["delta"]) == (hypothesis, delta)]
            scored = own[skipped:]
            return {
                "hypothesis": hypothesis,
                "delta": delta,
                "scored": len(scored),
                "skipped": skipped,
                "redraws": sum(r["resampled"] for r in scored),
                "z_degenerate": sum(r["z_degenerate"] for r in scored),
                "lof_clipped": sum(r["lof_clipped"] for r in scored),
                "t_kld_nonfinite": sum(not np.isfinite(r["t_kld"]) for r in scored),
            }

        def cells():
            return json.loads(Path(str(scores) + ".manifest.json").read_text())["cells"]

        assert records[0]["resampled"] == 1
        assert cells() == [summary("H0", None, 0), summary("H1", 1.0, 0), summary("H1", 2.0, 0)]
        assert cells()[0]["redraws"] == 1
        whole = scores.read_bytes()
        scores.write_bytes(b"".join(whole.splitlines(keepends=True)[:3]))
        assert main(args + ["--resume"]) == 0
        assert scores.read_bytes() == whole
        assert cells() == [summary("H0", None, 3), summary("H1", 1.0, 0), summary("H1", 2.0, 0)]

    def test_resume_rejects_corrupt_record(self, tmp_path, series_csv):
        scores = tmp_path / "scores.jsonl"
        scores.write_text("not json\n")
        args = ["simulate", str(series_csv), "--replicates", "1", "--resume",
                "--out", str(scores)]
        assert main(args) == 3

    def test_zero_replicates_is_usage_error(self, tmp_path, series_csv):
        code = main(
            [
                "simulate",
                str(series_csv),
                "--replicates",
                "0",
                "--out",
                str(tmp_path / "s.jsonl"),
            ]
        )
        assert code == 2

    def test_repeated_delta_is_usage_error(self, tmp_path, series_csv):
        out = tmp_path / "s.jsonl"
        args = ["simulate", str(series_csv), "--deltas", "2.0,2.0", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    def test_subsample_not_above_states_is_usage_error(self, tmp_path, series_csv, capsys):
        out = tmp_path / "s.jsonl"
        out.write_bytes(b"kept\n")
        args = ["simulate", str(series_csv), "--subsample", "2", "--replicates", "2"]
        assert main(args + ["--out", str(out)]) == 2
        assert "subsample size 2" in capsys.readouterr().err
        assert out.read_bytes() == b"kept\n"
        assert not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("deltas", ["-1", "nan", "2.0,inf"])
    def test_bad_delta_is_usage_error(self, tmp_path, series_csv, deltas, capsys):
        out = tmp_path / "s.jsonl"
        out.write_text("kept\n")
        args = ["simulate", str(series_csv), f"--deltas={deltas}", "--replicates", "3"]
        assert main(args + ["--out", str(out)]) == 2
        assert "--deltas must be finite and >= 0" in capsys.readouterr().err
        assert out.read_text() == "kept\n"
        assert not Path(str(out) + ".manifest.json").exists()

    def test_simulate_gives_up_on_degenerate_fits(self, tmp_path, series_csv, collapse_tries):
        collapse_tries()
        out = tmp_path / "s.jsonl"
        args = ["simulate", str(series_csv), "--deltas", "2.0", "--replicates", "1",
                "--em-restarts", "1", "--out", str(out)]
        assert main(args) == 4
        assert not Path(str(out) + ".manifest.json").exists()

    def test_evaluate_hand_written_records(self, tmp_path):
        scores = tmp_path / "scores.jsonl"
        h1 = replicate_line(hypothesis="H1", delta=2, t_kld=0.7)
        scores.write_text(replicate_line() + "\n\n" + h1 + "\n")
        table = tmp_path / "t.tsv"
        assert main(["evaluate", "--scores", str(scores), "--out", str(table)]) == 0
        lines = table.read_text().splitlines()
        assert lines[1].split("\t")[:3] == ["kld", "2.0", "1.0"]
        assert [line.split("\t")[5] for line in lines[1:]] == ["1", "1", "1"]

    @pytest.mark.parametrize(
        "tail, message",
        [
            (replicate_line(drop="t_kld", hypothesis="H1", delta=2.0),
             "line 2: missing field 't_kld'"),
            ("[1, 2]", "line 2: not a JSON object"),
            (replicate_line(hypothesis="H1"), "line 2: H1 record with delta None"),
            (H1_LINE + "\n" + replicate_line(), "line 3: repeats replicate ('H0', None, 0)"),
            (H1_LINE + "\n" + H1_LINE[:25], "line 3: invalid JSON"),
            *(
                (H1_LINE + "\n" + replicate_line(hypothesis="H1", delta=delta, replicate=1),
                 f"line 3: delta must be finite and >= 0, got {delta!r}")
                for delta in (float("nan"), -2.0, float("inf"))
            ),
        ],
        ids=["missing-field", "non-object", "null-delta", "duplicate", "cut-line",
             "nan-delta", "negative-delta", "inf-delta"],
    )
    def test_evaluate_rejects_bad_record(self, tmp_path, capsys, tail, message):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(replicate_line() + "\n" + tail)
        table = tmp_path / "t.tsv"
        assert main(["evaluate", "--scores", str(scores), "--out", str(table)]) == 3
        assert message in capsys.readouterr().err
        assert not table.exists()

    def test_evaluate_negative_seed_is_usage_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(replicate_line() + "\n" + H1_LINE + "\n")
        table = tmp_path / "t.tsv"
        table.write_bytes(b"kept\n")
        args = ["evaluate", "--scores", str(scores), "--seed", "-1", "--out", str(table)]
        assert main(args) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert table.read_bytes() == b"kept\n"
        assert not Path(str(table) + ".manifest.json").exists()

    def test_evaluate_missing_scores_is_data_error(self, tmp_path):
        code = main(
            [
                "evaluate",
                "--scores",
                str(tmp_path / "none.jsonl"),
                "--out",
                str(tmp_path / "t.tsv"),
            ]
        )
        assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--restarts", "0"], "num_restarts must be >= 1"),
        (["train", "--restarts", "-4"], "num_restarts must be >= 1"),
        (["train", "--states", "0"], "num_states must be >= 1"),
        (["detect", "--method", "kld", "--restarts", "0"], "num_restarts must be >= 1"),
        (["detect", "--method", "z", "--states", "0"], "num_states must be >= 1"),
        (["simulate", "--em-restarts", "0"], "em_restarts must be >= 1"),
        (["simulate", "--subsample", "8", "--replicates", "2"], "subsample size 8"),
        (["train", "--seed", "-1"], "seed must be >= 0"),
        (["detect", "--method", "z", "--seed", "-1"], "seed must be >= 0"),
        (["simulate", "--seed", "-1"], "seed must be >= 0"),
    ],
    ids=["train-restarts-0", "train-restarts-neg", "train-states", "detect-kld-restarts",
         "detect-z-states", "simulate-em-restarts", "simulate-subsample-lof",
         "train-seed", "detect-z-seed", "simulate-seed"],
)
def test_bad_count_is_usage_error(tmp_path, series_csv, capsys, argv, message):
    out = tmp_path / "out"
    out.write_bytes(b"kept\n")
    out_flag = "--out-model" if argv[0] == "train" else "--out"
    assert main([argv[0], str(series_csv), *argv[1:], out_flag, str(out)]) == 2
    assert message in capsys.readouterr().err
    assert out.read_bytes() == b"kept\n"
    assert not Path(str(out) + ".manifest.json").exists()


DISCRETE_DOCUMENT = [
    "hmmkld-model v1",
    "states 2",
    "initial 0.5 0.5",
    "transition",
    "0.9 0.1",
    "0.2 0.8",
    "emission discrete",
    "symbols 3",
    "0.5 0.25 0.25",
    "0.25 0.25 0.5",
]


def write_document(path, changes):
    """``DISCRETE_DOCUMENT`` with line i (1-based) replaced by
    ``changes[i]``, or left out where that is None."""
    lines = [changes.get(i, line) for i, line in enumerate(DISCRETE_DOCUMENT, 1)]
    path.write_text("\n".join(line for line in lines if line is not None) + "\n")


class TestModelDocument:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({10: None}, "line 10: unexpected end of model document"),
            ({3: "start 0.5 0.5"}, "line 3: expected 'initial' row"),
            ({5: "0.9 x"}, "line 5: transition row: not a number row"),
            ({2: "size 2"}, "line 2: expected 'states <m>'"),
            ({2: "states two"}, "line 2: state count is not an integer"),
            ({4: "transitions"}, "line 4: expected 'transition' section"),
            ({7: "emission"}, "line 7: expected 'emission <type>'"),
            ({8: "alphabet 3"}, "line 8: expected 'symbols <k>'"),
            ({8: "symbols 2.5"}, "line 8: symbol count is not an integer"),
            ({2: "states 0"}, "line 2: state count must be >= 1, got 0"),
            ({2: "states -1"}, "line 2: state count must be >= 1, got -1"),
            ({8: "symbols 0"}, "line 8: symbol count must be >= 1, got 0"),
        ],
        ids=["end", "keyword-row", "number-row", "states-line", "state-count-type",
             "transition-line", "emission-line", "symbols-line", "symbol-count-type",
             "zero-states", "negative-states", "zero-symbols"],
    )
    def test_bad_document_names_the_line(self, tmp_path, capsys, changes, message):
        doc = tmp_path / "model.txt"
        write_document(doc, changes)
        data = tmp_path / "symbols.csv"
        data.write_text("0\n1\n2\n")
        out = tmp_path / "inf.tsv"
        assert main(["influence", str(doc), str(data), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_discrete_model_on_symbol_csv(self, tmp_path, capsys):
        doc = tmp_path / "model.txt"
        write_document(doc, {})
        data = tmp_path / "symbols.csv"
        data.write_text("0\n1\n2\n1\n0\n")
        out = tmp_path / "inf.tsv"
        assert main(["influence", str(doc), str(data), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 5
        data.write_text("0\n1.5\n2\n")
        assert main(["influence", str(doc), str(data), "--out", str(out)]) == 3
        assert "discrete observations must be integer symbols" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "window, symbols, code, message",
        [
            ("0", "0 1 2 1 0", 2, "--window must be >= 1, got 0"),
            ("-1", "0 1 2 1 0", 2, "--window must be >= 1, got -1"),
            ("6", "0 1 2 1 0", 2, "--window must be <= 5, got 6"),
            # The bound is checked before any compute, so it wins over the
            # out-of-range symbol 7; a window in range meets the symbol.
            ("0", "0 1 7 1 0", 2, "--window must be >= 1, got 0"),
            ("9", "0 1 7 1 0", 2, "--window must be <= 5, got 9"),
            ("1", "0 1 7 1 0", 3, "symbol out of range [0, 3): 7"),
            ("2", "0 1 7 1 0", 3, "symbol out of range [0, 3): 7"),
        ],
        ids=["zero", "negative", "above-n", "zero-bad-symbol", "above-n-bad-symbol",
             "pointwise-bad-symbol", "windowed-bad-symbol"],
    )
    def test_window_bound_comes_before_the_data(
        self, tmp_path, capsys, window, symbols, code, message
    ):
        doc = tmp_path / "model.txt"
        write_document(doc, {})
        data = tmp_path / "symbols.csv"
        data.write_text("\n".join(symbols.split()) + "\n")
        out = tmp_path / "inf.tsv"
        argv = ["influence", str(doc), str(data), "--window", window, "--out", str(out)]
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_evidence_below_the_double_range(self, tmp_path):
        # Evidence 1e-400: the backward pass runs again in log space, and
        # both profiles are written.
        doc = tmp_path / "model.txt"
        doc.write_text(
            "hmmkld-model v1\nstates 3\ninitial 1.0 0.0 0.0\ntransition\n"
            "1.0 1e-200 0.0\n1e-200 0.0 1.0\n0.0 1e-200 1.0\n"
            "emission discrete\nsymbols 3\n1 0 0\n0 1 0\n0 0 1\n"
        )
        data = tmp_path / "symbols.csv"
        data.write_text("0\n1\n0\n")
        out = tmp_path / "inf.tsv"
        assert main(["influence", str(doc), str(data), "--out", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        posterior = np.array([[float(v) for v in row[5:]] for row in rows])
        np.testing.assert_array_equal(posterior, np.eye(3)[[0, 1, 0]])
        # Each window's K is +inf, as the enumeration finds, and not NaN.
        argv = ["influence", str(doc), str(data), "--window", "2", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines()[1:] == ["1\tinf", "2\tinf"]

    @pytest.mark.parametrize(
        "window, expected", [("1", ["0.0", "inf", "0.0"]), ("2", ["inf", "inf"])]
    )
    def test_forward_product_below_the_double_range(self, tmp_path, window, expected):
        # Evidence 1e-400 whose forward step underflows: both passes run
        # again in log space, and the enumeration's K is written.
        doc = tmp_path / "model.txt"
        doc.write_text(dump_model(FORWARD_BELOW_DOUBLE_RANGE))
        data = tmp_path / "symbols.csv"
        data.write_text("0\n1\n0\n")
        out = tmp_path / "inf.tsv"
        argv = ["influence", str(doc), str(data), "--window", window, "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == expected

    @pytest.mark.parametrize(
        "model, symbols, window, message",
        [
            (POSTERIOR_ROW_UNDERFLOW, "1 1 1", "1", "the backward pass underflowed at index 0"),
            (POSTERIOR_ROW_UNDERFLOW, "1 1 1", "2", "the backward pass underflowed at index 0"),
            (LEAVE_OUT_UNDERFLOW, "2 1", "1", "impossible leave-out evidence at index 0"),
            (WINDOW_START_UNDERFLOW, "0 2 2 1", "2", "impossible leave-out evidence at index 1"),
        ],
        ids=["posterior-row", "posterior-row-windowed", "leave-out", "window-start"],
    )
    def test_underflowing_row_is_numeric_error(
        self, tmp_path, capsys, model, symbols, window, message
    ):
        # A zero posterior or leave-out row is refused with exit 4, and no
        # profile or manifest is written (the posterior-row model once gave
        # NaN with --window 2).
        doc = tmp_path / "model.txt"
        doc.write_text(dump_model(model))
        data = tmp_path / "symbols.csv"
        data.write_text("\n".join(symbols.split()) + "\n")
        out = tmp_path / "inf.tsv"
        argv = ["influence", str(doc), str(data), "--window", window, "--out", str(out)]
        assert main(argv) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b,c\n1,2,3\n", "line 2: expected 1 or 2 columns, got 3"),
        ("label,value\n1880,0.5\n0.25\n", "line 3: expected 2 columns, got 1"),
    ],
    ids=["three-columns", "ragged"],
)
def test_bad_csv_columns_name_the_line(tmp_path, model_file, capsys, text, message):
    data = tmp_path / "bad.csv"
    data.write_text(text)
    out = tmp_path / "inf.tsv"
    assert main(["influence", str(model_file), str(data), "--out", str(out)]) == 3
    assert f"{data}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "deltas, message",
    [("a", "bad --deltas value"), (",", "--deltas must list at least one value")],
    ids=["not-a-number", "empty"],
)
def test_unparsable_deltas_are_usage_errors(tmp_path, series_csv, capsys, deltas, message):
    out = tmp_path / "s.jsonl"
    args = ["simulate", str(series_csv), f"--deltas={deltas}", "--out", str(out)]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "deltas",
    [[], [2, 2], [-1], [float("nan")], [float("inf")]],
    ids=["empty", "repeated", "negative", "nan", "inf"],
)
def test_library_and_cli_reject_deltas_alike(tmp_path, series_csv, capsys, deltas):
    cfg = SimulationConfig(source=np.arange(60.0), replicates=1, em_restarts=1)
    with pytest.raises(ModelError) as exc:
        scored_replicates(cfg, deltas)
    out = tmp_path / "s.jsonl"
    argv = ["simulate", str(series_csv), "--deltas=" + ",".join(map(str, deltas))]
    assert main(argv + ["--out", str(out)]) == 2
    # The library names the argument "deltas", the CLI "--deltas".
    assert capsys.readouterr().err == f"error: --{exc.value}\n"


def test_library_and_cli_accept_the_same_deltas(tmp_path, series_csv):
    cfg = SimulationConfig(source=np.arange(60.0), replicates=1, em_restarts=1)
    scored_replicates(cfg, [0.5, 2])
    out = tmp_path / "s.jsonl"
    argv = ["simulate", str(series_csv), "--deltas=0.5,2", "--replicates", "1",
            "--em-restarts", "1", "--out", str(out)]
    assert main(argv) == 0


class TestNonFiniteInput:
    @pytest.fixture(params=["nan", "inf"])
    def bad_csv(self, request, tmp_path, series_csv):
        lines = series_csv.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + "," + request.param
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_influence_is_data_error(self, tmp_path, bad_csv, model_file, capsys):
        out = tmp_path / "inf.tsv"
        assert main(["influence", str(model_file), str(bad_csv), "--out", str(out)]) == 3
        assert "line 6: not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_model_parameter_is_data_error(
        self, tmp_path, series_csv, model_file, capsys
    ):
        text = model_file.read_text().splitlines()
        text[2] = "initial nan nan nan"
        bad_model = tmp_path / "nan.model"
        bad_model.write_text("\n".join(text) + "\n")
        out = tmp_path / "inf.tsv"
        assert main(["influence", str(bad_model), str(series_csv), "--out", str(out)]) == 3
        assert "initial distribution has non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["z", "kld", "lof"])
    def test_detect_is_data_error(self, tmp_path, bad_csv, method, capsys):
        out = tmp_path / "flags.tsv"
        assert main(["detect", str(bad_csv), "--method", method, "--out", str(out)]) == 3
        assert "line 6: not a finite number" in capsys.readouterr().err


class TestUnreadablePath:
    def test_directory_as_scores_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "t.tsv"
        assert main(["evaluate", "--scores", str(tmp_path), "--out", str(out)]) == 3
        assert str(tmp_path) in capsys.readouterr().err
        assert not out.exists()

    def test_directory_as_influence_data_is_data_error(self, tmp_path, model_file, capsys):
        out = tmp_path / "inf.tsv"
        assert main(["influence", str(model_file), str(tmp_path), "--out", str(out)]) == 3
        assert str(tmp_path) in capsys.readouterr().err
        assert not out.exists()


class TestParserReuse:
    def test_dispatch_finds_a_replaced_command(self, tmp_path, monkeypatch):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(replicate_line() + "\n" + H1_LINE + "\n")
        argv = ["evaluate", "--scores", str(scores), "--out", str(tmp_path / "t.tsv")]
        assert main(argv) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_evaluate", lambda args, manifest: calls.append(args))
        assert main(argv + ["--seed", "3"]) == 0
        assert [(args.subcommand, args.seed) for args in calls] == [("evaluate", 3)]

    def test_consecutive_calls_match_fresh_processes(
        self, tmp_path, series_csv, monkeypatch, capsys
    ):
        # Different subcommands and flags, a usage error and a help text, each
        # run once in a fresh interpreter and then all in this one process.
        monkeypatch.setenv("COLUMNS", "80")
        data = str(series_csv)
        commands = [
            ["train", data, "--tie-transitions", "--restarts", "2", "--seed", "3",
             "--out-model", str(tmp_path / "tied.model")],
            ["detect", data, "--method", "z", "--threshold", "1.5",
             "--out", str(tmp_path / "z.tsv")],
            ["train", data, "--restarts", "2", "--out-model", str(tmp_path / "plain.model")],
            ["detect", data, "--top-k", "2", "--threshold", "1", "--out", str(tmp_path / "x.tsv")],
            ["simulate", "--help"],
        ]
        outputs = ["tied.model", "tied.model.manifest.json", "z.tsv", "z.tsv.manifest.json",
                   "plain.model", "plain.model.manifest.json"]
        src = str(Path(hmmkld.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}

        def written():
            files = {}
            for name in outputs:
                text = (tmp_path / name).read_text()
                if name.endswith(".json"):
                    manifest = json.loads(text)
                    text = (manifest["parameters"], manifest.get("fit"))
                files[name] = text
                (tmp_path / name).unlink()
            return files

        fresh = []
        for argv in commands:
            run = subprocess.run([sys.executable, "-m", "hmmkld.cli", *argv],
                                 capture_output=True, text=True, env=env)
            fresh.append((run.returncode, run.stdout, run.stderr))
        fresh_files = written()

        reused = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            reused.append((code, out, err))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0]
        assert written() == fresh_files
