"""Acceptance gate.

Each test checks one numbered acceptance criterion end to end and prints a
single machine-readable verdict line:

    [ACCEPTANCE <k>] <short name>: PASS|FAIL

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they complete.  The benchmark criterion (8) runs 400 replicates per
hypothesis and dominates the runtime (several minutes on one core); all
other criteria finish in well under a minute combined.
"""

import time

import numpy as np

from hmmkld import (
    EmConfig,
    GaussianEmission,
    HmmModel,
    ObservationSequence,
    SimulationConfig,
    canonical_state_order,
    em_fit,
    empirical_auc,
    forward_backward,
    forward_star,
    kl_divergence,
    kld_influence,
    kld_influence_naive,
    lof_scores,
    loo_marginal,
    posterior_marginals,
    reorder_states,
    run_benchmark,
    sample,
    windowed_influence,
)
from hmmkld.cli import main as cli_main
from hmmkld.reference import enumeration_influence

from conftest import random_discrete_model, random_gaussian_model


def _verdict(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number}] {name}: {status} ({detail})")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def _reference_hmm():
    """Three-state homoscedastic Gaussian chain used as synthetic source."""
    return HmmModel(
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


def test_01_enumeration_equivalence():
    # Fast K_j versus the KLD between full hidden-sequence posteriors,
    # computed by summing over all m**n sequences.
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 4))
        model = random_discrete_model(rng, m, k)
        obs = ObservationSequence(rng.integers(0, k, n))
        fast = kld_influence(model, obs).k
        exact = enumeration_influence(model, obs)
        worst = max(worst, float(np.max(np.abs(fast - exact))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(
        1,
        "enumeration equivalence",
        ok,
        f"200 models, max abs err {worst:.2e} <= 1e-10, {elapsed:.2f}s < 10s",
    )


def test_02_naive_vs_fast():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        model = random_gaussian_model(rng, 5)
        obs = ObservationSequence(rng.normal(0, 2, 500))
        fast = kld_influence(model, obs).k
        naive = kld_influence_naive(model, obs).k
        worst = max(worst, float(np.max(np.abs(fast - naive))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _verdict(
        2,
        "naive vs fast equivalence",
        ok,
        f"50 models n=500 m=5, max abs err {worst:.2e} <= 1e-9, {elapsed:.2f}s < 30s",
    )


def test_03_complexity_scaling():
    rng = np.random.default_rng(303)
    model = random_gaussian_model(rng, 3)
    grid = (2000, 4000, 8000)

    def seconds(fn, obs):
        t0 = time.perf_counter()
        fn(model, obs)
        return time.perf_counter() - t0

    # Best of three for both engines, with the sizes interleaved in each
    # repeat, so a drift in host speed hits every size alike.
    series = {n: ObservationSequence(rng.normal(0, 2, n)) for n in grid}
    fast_t = dict.fromkeys(grid, np.inf)
    naive_t = dict.fromkeys(grid, np.inf)
    for _ in range(3):
        for n in grid:
            fast_t[n] = min(fast_t[n], seconds(kld_influence, series[n]))
            naive_t[n] = min(naive_t[n], seconds(kld_influence_naive, series[n]))

    # Linear growth over a 4x span predicts a 4x time ratio.
    fast_ratio = fast_t[8000] / fast_t[2000]
    naive_ratio = naive_t[8000] / naive_t[2000]
    fast_ok = fast_ratio <= 4.0 * 1.5
    naive_ok = naive_ratio >= 3.0 * 4.0
    _verdict(
        3,
        "complexity scaling",
        fast_ok and naive_ok,
        f"fast t(8k)/t(2k) {fast_ratio:.2f} <= 6.0, "
        f"naive {naive_ratio:.2f} >= 12.0",
    )


def test_04_star_forward_symbol_sum_identity():
    # The leave-one-out marginal from the star-forward recursion must equal
    # the renormalized sum, over every possible symbol y at position j, of
    # P(S_j = s, evidence with X_j := y).
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        model = random_discrete_model(rng, m, k)
        values = rng.integers(0, k, n)
        obs = ObservationSequence(values)
        fb = forward_backward(model, obs)
        star = forward_star(model, fb)
        for j in range(n):
            log_ev = np.empty(k)
            margs = np.empty((k, model.num_states))
            for y in range(k):
                mod_values = values.copy()
                mod_values[j] = y
                fb_y = forward_backward(model, ObservationSequence(mod_values))
                log_ev[y] = fb_y.log_evidence
                margs[y] = posterior_marginals(fb_y)[j]
            weights = np.exp(log_ev - log_ev.max())
            summed = weights @ margs
            summed /= summed.sum()
            worst = max(
                worst, float(np.max(np.abs(summed - loo_marginal(star, fb, j))))
            )
    ok = worst <= 1e-12
    _verdict(
        4,
        "star-forward symbol-sum identity",
        ok,
        f"100 models all j, max abs err {worst:.2e} <= 1e-12",
    )


def test_05_windowed_reduction():
    rng = np.random.default_rng(505)
    worst_h1 = 0.0
    for _ in range(20):
        model = random_gaussian_model(rng, 3)
        obs = ObservationSequence(rng.normal(0, 1, 30))
        diff = np.abs(
            windowed_influence(model, obs, 1).k - kld_influence(model, obs).k
        )
        worst_h1 = max(worst_h1, float(diff.max()))
    worst_enum = 0.0
    for _ in range(20):
        model = random_discrete_model(rng, 3, 3)
        n = int(rng.integers(4, 8))
        obs = ObservationSequence(rng.integers(0, 3, n))
        for h in (2, 3):
            diff = np.abs(
                windowed_influence(model, obs, h).k
                - enumeration_influence(model, obs, window=h)
            )
            worst_enum = max(worst_enum, float(diff.max()))
    ok = worst_h1 <= 1e-12 and worst_enum <= 1e-10
    _verdict(
        5,
        "windowed reduction",
        ok,
        f"h=1 err {worst_h1:.2e} <= 1e-12, h in {{2,3}} err {worst_enum:.2e} <= 1e-10",
    )


def test_06_em_monotonicity():
    rng = np.random.default_rng(606)
    worst_drop = 0.0
    for trial in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(20, 80))
        if trial % 2:
            values = rng.normal(0, 1, n) + rng.choice([-1.5, 0.0, 1.5], n)
        else:
            values = rng.integers(0, 3, n)
        cfg = EmConfig(
            num_states=m,
            tie_transitions=bool(trial % 2),
            homoscedastic=bool(trial % 3),
            num_restarts=1,
            seed=trial,
        )
        result = em_fit(ObservationSequence(values), cfg)
        diffs = np.diff(result.log_likelihoods)
        if diffs.size:
            worst_drop = max(worst_drop, float(-diffs.min()))
    ok = worst_drop <= 1e-9
    _verdict(
        6,
        "EM monotonicity",
        ok,
        f"100 datasets, worst per-iteration drop {worst_drop:.2e} <= 1e-9",
    )


def test_07_parameter_recovery_surrogate():
    # The 106-point annual temperature-change series is not bundled, so
    # the surrogate path applies: data sampled from the published fitted
    # model must be recovered by EM within the stated tolerances, and the
    # fast and naive influence engines must agree on it.
    true = _reference_hmm()
    _, obs = sample(true, 5000, seed=12345)
    cfg = EmConfig(
        num_states=3,
        tie_transitions=True,
        homoscedastic=True,
        num_restarts=20,
        seed=7,
    )
    result = em_fit(obs, cfg)
    model = reorder_states(result.model, canonical_state_order(result.model))
    true_sorted = reorder_states(true, canonical_state_order(true))
    mu_err = float(np.max(np.abs(model.emission.means - true_sorted.emission.means)))
    sigma_err = float(abs(model.emission.sigmas[0] - 0.114))
    eta = float(1.0 - model.transition[0, 0])
    eta_err = abs(eta - 0.085)

    fast = kld_influence(model, obs).k
    naive = kld_influence_naive(model, obs).k
    engine_err = float(np.max(np.abs(fast - naive)))

    ok = (
        mu_err <= 0.01
        and sigma_err <= 0.01
        and eta_err <= 0.01
        and engine_err <= 1e-9
    )
    _verdict(
        7,
        "parameter recovery (synthetic surrogate)",
        ok,
        f"mu err {mu_err:.4f}, sigma err {sigma_err:.4f}, eta err {eta_err:.4f} "
        f"all <= 0.01; engine agreement {engine_err:.2e} <= 1e-9",
    )


def test_08_benchmark_property_suite():
    # Surrogate benchmark: 400 replicates per hypothesis on data sampled
    # from the reference chain, checking the distribution-free properties
    # rather than the dataset-conditional AUC intervals.
    _, obs = sample(_reference_hmm(), 106, seed=99)
    cfg = SimulationConfig(
        source=obs.values,
        replicates=400,
        seed=1,
        em_restarts=5,
    )
    rows = run_benchmark(cfg, deltas=[0.0, 0.5, 2.0, 3.0])
    auc = {(row.method, row.delta): row.auc for row in rows}

    null_devs = {m: abs(auc[(m, 0.0)] - 0.5) for m in ("kld", "z", "lof")}
    null_ok = all(dev <= 0.05 for dev in null_devs.values())

    kld_curve = [auc[("kld", d)] for d in (0.0, 0.5, 2.0, 3.0)]
    inversions = [max(0.0, a - b) for a, b in zip(kld_curve, kld_curve[1:])]
    monotone_ok = max(inversions) <= 0.02

    order_ok = auc[("lof", 2.0)] >= auc[("kld", 2.0)] >= auc[("z", 2.0)]

    ok = null_ok and monotone_ok and order_ok
    _verdict(
        8,
        "benchmark property suite (400 replicates)",
        ok,
        f"null AUC devs {[f'{v:.3f}' for v in null_devs.values()]} <= 0.05, "
        f"KLD curve {[f'{v:.3f}' for v in kld_curve]} inversion "
        f"{max(inversions):.3f} <= 0.02, order at delta=2 "
        f"lof {auc[('lof', 2.0)]:.3f} >= kld {auc[('kld', 2.0)]:.3f} "
        f">= z {auc[('z', 2.0)]:.3f}",
    )


def test_09_invariant_suite():
    rng = np.random.default_rng(909)
    failures = []

    # Nonnegativity on random Gaussian problems.
    model = random_gaussian_model(rng, 3)
    obs = ObservationSequence(rng.normal(0, 3, 300))
    if not np.all(kld_influence(model, obs).k >= -1e-12):
        failures.append("nonnegativity")

    # Identically zero influence when emissions ignore the state.
    flat = HmmModel(
        model.initial,
        model.transition,
        GaussianEmission.homoscedastic([0.3, 0.3, 0.3], 0.7),
    )
    if not np.all(np.abs(kld_influence(flat, obs).k) <= 1e-12):
        failures.append("state-independent emissions")

    # Influence is invariant to per-index positive rescaling of the
    # forward, backward, and star-forward rows.
    import dataclasses

    small = ObservationSequence(rng.normal(0, 1, 40))
    fb = forward_backward(model, small)
    star = forward_star(model, fb)
    marg = posterior_marginals(fb)
    base = np.array(
        [kl_divergence(loo_marginal(star, fb, j), marg[j]) for j in range(40)]
    )
    cf, cb, cs = (rng.uniform(0.25, 4.0, 40) for _ in range(3))
    fb2 = dataclasses.replace(fb, fwd=fb.fwd * cf[:, None], bwd=fb.bwd * cb[:, None])
    star2 = star * cs[:, None]
    marg2 = posterior_marginals(fb2)
    rescaled = np.array(
        [kl_divergence(loo_marginal(star2, fb2, j), marg2[j]) for j in range(40)]
    )
    if not np.max(np.abs(rescaled - base)) <= 1e-10:
        failures.append("rescaling invariance")

    # AUC of identical score lists is exactly one half.
    scores = list(rng.normal(0, 1, 25))
    if empirical_auc(scores, scores, num_bootstrap=50).auc != 0.5:
        failures.append("AUC identical lists")

    # LOF is invariant to translating and uniformly scaling the points.
    pts = rng.normal(0, 1, (50, 2))
    base_lof = lof_scores(pts, r=7)
    moved_lof = lof_scores(pts * 11.0 + np.array([-3.0, 40.0]), r=7)
    if not np.max(np.abs(moved_lof - base_lof)) <= 1e-10:
        failures.append("LOF translation/scale invariance")

    ok = not failures
    _verdict(
        9,
        "invariant suite",
        ok,
        "all five invariants hold" if ok else "failed: " + ", ".join(failures),
    )


def test_10_cli_determinism(tmp_path):
    _, obs = sample(_reference_hmm(), 106, seed=41)
    csv = tmp_path / "series.csv"
    csv.write_text(
        "label,value\n"
        + "\n".join(f"{1880 + i},{float(v)!r}" for i, v in enumerate(obs.values))
        + "\n"
    )

    def run_twice(name, args, outputs):
        for suffix in ("a", "b"):
            final = [
                arg.replace("@", suffix) if isinstance(arg, str) else arg
                for arg in args
            ]
            assert cli_main(final) == 0, f"{name} run {suffix} failed"
        return all(
            (tmp_path / out.replace("@", "a")).read_bytes()
            == (tmp_path / out.replace("@", "b")).read_bytes()
            for out in outputs
        )

    model_path = tmp_path / "det_a.model"
    results = {}
    results["train"] = run_twice(
        "train",
        [
            "train",
            str(csv),
            "--states",
            "3",
            "--tie-transitions",
            "--restarts",
            "3",
            "--seed",
            "7",
            "--out-model",
            str(tmp_path / "det_@.model"),
            "--report",
            str(tmp_path / "det_@.report.tsv"),
        ],
        ["det_@.model", "det_@.report.tsv"],
    )
    results["influence"] = run_twice(
        "influence",
        [
            "influence",
            str(model_path),
            str(csv),
            "--out",
            str(tmp_path / "inf_@.tsv"),
        ],
        ["inf_@.tsv"],
    )
    results["detect"] = run_twice(
        "detect",
        [
            "detect",
            str(csv),
            "--method",
            "kld",
            "--restarts",
            "2",
            "--seed",
            "3",
            "--out",
            str(tmp_path / "det_@.tsv"),
        ],
        ["det_@.tsv"],
    )
    results["simulate"] = run_twice(
        "simulate",
        [
            "simulate",
            str(csv),
            "--deltas",
            "2.0",
            "--replicates",
            "2",
            "--em-restarts",
            "2",
            "--seed",
            "11",
            "--out",
            str(tmp_path / "sim_@.jsonl"),
        ],
        ["sim_@.jsonl"],
    )
    results["evaluate"] = run_twice(
        "evaluate",
        [
            "evaluate",
            "--scores",
            str(tmp_path / "sim_a.jsonl"),
            "--seed",
            "1",
            "--out",
            str(tmp_path / "eval_@.tsv"),
        ],
        ["eval_@.tsv"],
    )
    bad = [name for name, same in results.items() if not same]
    ok = not bad
    _verdict(
        10,
        "CLI determinism",
        ok,
        "all five subcommands byte-identical on rerun"
        if ok
        else "differing outputs: " + ", ".join(bad),
    )
