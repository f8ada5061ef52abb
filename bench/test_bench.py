"""Tests of the benchmark itself: seeded inputs, the gate, the tracer, the contract."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from hmmkld import influence, training  # noqa: E402
from hmmkld.model import sample  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ANNUAL_CHAIN,
    WORKLOADS,
    check_against_naive,
    check_auc_table,
    digest,
    valid_k,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    def inputs_digest(seed):
        wl = WORKLOADS[name](seed=seed, workdir=tmp_path)
        return digest(wl.input_parts(wl.make_inputs()))

    assert inputs_digest(5) == inputs_digest(5)
    assert inputs_digest(5) != inputs_digest(6)


def test_gate_rejects_perturbed_profile():
    _, obs = sample(ANNUAL_CHAIN, 300, seed=3)
    profile = influence.kld_influence(ANNUAL_CHAIN, obs)
    assert check_against_naive(ANNUAL_CHAIN, obs, profile) == ""
    k = profile.k.copy()
    k[17] += 1e-8
    perturbed = dataclasses.replace(profile, k=k)
    assert "naive" in check_against_naive(ANNUAL_CHAIN, obs, perturbed)
    assert valid_k(profile.k)
    assert not valid_k(np.append(profile.k, np.nan))


def test_spans_nest_and_self_times_add_up():
    _, obs = sample(ANNUAL_CHAIN, 120, seed=4)
    original = influence.kld_influence
    tracer = Tracer()
    with tracer, tracer.root("cycle"):
        influence.kld_influence(ANNUAL_CHAIN, obs)
        cfg = training.EmConfig(num_states=3, num_restarts=1, max_iters=3, seed=0)
        training.em_fit(obs, cfg)
    assert influence.kld_influence is original

    by_name, wall, roots = tracer.tree("cycle")
    assert roots == 1
    assert by_name["inference.forward_backward"]["calls"] == 4
    assert by_name["inference.forward_backward"]["units"] == 4 * 120
    parents = {
        tracer.spans[span[3]][0]
        for span in tracer.spans
        if span[0] == "inference.forward_backward"
    }
    assert parents == {"influence.kld_influence", "training.em_fit"}
    assert sum(row["self_s"] for row in by_name.values()) == pytest.approx(wall, rel=1e-9)
    assert tracer.counts["influence.kl_divergence.calls"] == 120
    assert tracer.counts["training.em_iters"] == 3


def test_gate_rejects_wrong_auc():
    records = [
        {"hypothesis": "H0", "delta": None, "t_kld": 0.5, "s_z": 1.0, "l_lof": 1.0},
        {"hypothesis": "H0", "delta": None, "t_kld": 2.0, "s_z": 1.0, "l_lof": 1.0},
        {"hypothesis": "H1", "delta": 2.0, "t_kld": float("inf"), "s_z": 3.0, "l_lof": 1.0},
        {"hypothesis": "H1", "delta": 2.0, "t_kld": 1.0, "s_z": 0.5, "l_lof": 1.0},
    ]
    # Pair counts: kld 3/4, z 1/2, lof 1/2 (all ties).
    rows = [
        ["kld", "2.0", "0.75", "0.25", "1.0", "2", "0"],
        ["z", "2.0", "0.5", "0.0", "1.0", "2", "0"],
        ["lof", "2.0", "0.5", "0.5", "0.5", "2", "0"],
    ]
    assert check_auc_table(records, rows) == []
    rows[0][2] = "0.5"
    rows[2][5] = "3"
    messages = check_auc_table(records, rows)
    assert len(messages) == 2
    assert messages[0].startswith("kld") and messages[1].startswith("lof")


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "cli-annual", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
