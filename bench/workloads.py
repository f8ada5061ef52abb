"""The benchmark workloads: seeded inputs, timed jobs and correctness gates.

Every library call goes through a module attribute (``influence.kld_influence``
rather than a name imported once), so the tracer's wrappers are seen when they
are installed. Each job returns the outputs whose digest shows that a change
left the results alone; each call's output is checked right after the call,
outside its timed region.
"""

import hashlib
import json
import re
from functools import partial
from pathlib import Path

import numpy as np

from hmmkld import cli, influence, model, reference, serialize, training
from hmmkld.model import DiscreteEmission, GaussianEmission, HmmModel, ObservationSequence

# The 3-state chain fitted in the paper (README library tour).
ANNUAL_CHAIN = HmmModel(
    initial=np.full(3, 1.0 / 3.0),
    transition=np.array(
        [[0.915, 0.0425, 0.0425], [0.0425, 0.915, 0.0425], [0.0425, 0.0425, 0.915]]
    ),
    emission=GaussianEmission.homoscedastic([-0.372, 0.069, -0.068], 0.114),
)
# The 106-point surrogate of the paper's annual series is drawn once, with the
# seed acceptance 8 uses, and stays fixed like the real series would: EM cost
# depends on the series, so a per-seed source would make timings spread by
# tens of percent between seeds. The benchmark seed drives everything else.
ANNUAL_SOURCE_SEED = 99
ANNUAL_LENGTH = 106
FIRST_YEAR = 1880

GATE_PREFIX = 2000
NAIVE_TOL = 1e-9
WINDOW_H1_TOL = 1e-12
MONOTONE_TOL = 1e-9


def discrete_chain_m8() -> HmmModel:
    """Fixed 8-state, 16-symbol model: sticky states, two favoured symbols each."""
    m, k = 8, 16
    transition = np.full((m, m), 0.05)
    np.fill_diagonal(transition, 0.65)
    table = np.full((m, k), 0.4 / (k - 2))
    for s in range(m):
        table[s, 2 * s : 2 * s + 2] = 0.3
    return HmmModel(np.full(m, 1.0 / m), transition, DiscreteEmission(table))


def annual_source() -> np.ndarray:
    _, source = model.sample(ANNUAL_CHAIN, ANNUAL_LENGTH, seed=ANNUAL_SOURCE_SEED)
    return source.values


def stream(seed: int, workload_tag: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, workload_tag])


# -- digests -----------------------------------------------------------------

_POS_INF, _NEG_INF, _NAN = 2**62, -(2**62), -(2**62) + 1
_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+|nan|-?inf")


def quantize(values) -> bytes:
    """Values rounded to 9 significant digits of the largest finite magnitude.

    Rounding relative to the largest value keeps rounding noise in tiny
    entries (a K of 1e-17, say) from changing the digest.
    """
    a = np.asarray(values, dtype=float).ravel()
    finite = np.isfinite(a)
    top = float(np.max(np.abs(a[finite]))) if finite.any() else 0.0
    unit = 10.0 ** (np.floor(np.log10(top)) - 8) if top > 0 else 1.0
    q = np.zeros(a.size, dtype=np.int64)
    q[finite] = np.rint(a[finite] / unit).astype(np.int64)
    q[np.isposinf(a)] = _POS_INF
    q[np.isneginf(a)] = _NEG_INF
    q[np.isnan(a)] = _NAN
    return q.tobytes()


def quantize_text(text: str) -> bytes:
    """Text with its float literals replaced by their ``quantize`` form."""
    values = [float(tok) for tok in _FLOAT.findall(text)]
    return _FLOAT.sub("#", text).encode() + quantize(values)


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else quantize(part))
        h.update(b"|")
    return h.hexdigest()


# -- checks ------------------------------------------------------------------


def valid_k(k) -> bool:
    return bool(np.all(np.isfinite(k)) and np.all(k >= 0.0))


def check_against_naive(chain, obs, profile) -> str:
    """Empty string if ``profile`` matches the quadratic oracle within 1e-9."""
    naive = reference.kld_influence_naive(chain, obs)
    err = float(np.max(np.abs(profile.k - naive.k)))
    return "" if err <= NAIVE_TOL else f"fast vs naive max |dK| {err:.3e} > {NAIVE_TOL}"


def check_window_h1(windows, profile) -> str:
    err = float(np.max(np.abs(windows.k - profile.k)))
    return "" if err <= WINDOW_H1_TOL else f"h=1 windows vs profile {err:.3e} > {WINDOW_H1_TOL}"


def read_jsonl(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def check_replicate(record) -> str:
    """Empty string if a ``simulate`` record's statistics are valid.

    ``t_kld`` may be +inf: kl_divergence defines p log(p/0) = +inf, and a
    state's posterior marginal can underflow to 0 next to a far outlier.
    Every run prints their number as the figure ``t_kld_inf``.
    """
    ok = record["t_kld"] >= 0.0 and np.isfinite(record["s_z"]) and np.isfinite(record["l_lof"])
    return "" if ok else f"replicate statistics {record}"


def pairwise_auc(h1, h0) -> float:
    """AUC by direct pair count: P(h1 > h0) + P(h1 == h0) / 2."""
    a = np.asarray(h1, dtype=float)[:, None]
    b = np.asarray(h0, dtype=float)[None, :]
    return float(np.mean((a > b) + 0.5 * (a == b)))


def check_auc_table(records, rows) -> list:
    """Messages for ``evaluate`` rows that disagree with the ``simulate`` records.

    Each row's AUC is recomputed from the scores by a direct pair count,
    independent of the library's rank formula, and must lie in [0, 1] and
    inside the row's CI; the row must count the delta's H1 replicates.
    """
    field = {"kld": "t_kld", "z": "s_z", "lof": "l_lof"}
    h0 = [r for r in records if r["hypothesis"] == "H0"]
    messages = []
    for method, delta, auc, lo, hi, replicates, _seed in rows:
        auc, lo, hi = float(auc), float(lo), float(hi)
        h1 = [r for r in records if r["hypothesis"] == "H1" and r["delta"] == float(delta)]
        expected = pairwise_auc([r[field[method]] for r in h1], [r[field[method]] for r in h0])
        if not (abs(auc - expected) <= 1e-12 and 0.0 <= auc <= 1.0 and lo <= auc <= hi):
            messages.append(
                f"{method} delta={delta}: AUC {auc} (pair count {expected}), CI [{lo}, {hi}]"
            )
        if int(replicates) != len(h1):
            messages.append(f"{method} delta={delta}: {replicates} replicates, expected {len(h1)}")
    return messages


# -- workloads ---------------------------------------------------------------


class InfluenceWorkload:
    """Pointwise and windowed influence on one long series, optionally an EM fit.

    The series is cut into ``segments`` equal parts and a job covers one
    part, so one cycle covers the whole series and ``window_n`` windows. The
    cost of a job does not depend on the data, and many short jobs give the
    run's median more samples than one long job would.
    """

    def __init__(self, tag, chain, n, segments, window_n, h, fit, seed, workdir: Path):
        self.tag = tag
        self.chain = chain
        self.n = n
        self.segments = segments
        self.window_n = window_n
        self.h = h
        self.fit = fit  # (fit_n per segment, restarts, max_iters) or None
        self.seed = seed

    def make_inputs(self):
        _, obs = model.sample(self.chain, self.n, seed=stream(self.seed, self.tag))
        seg = self.n // self.segments
        parts = [obs.values[k * seg : (k + 1) * seg] for k in range(self.segments)]
        inputs = {
            "obs": obs,
            "segments": [ObservationSequence(v) for v in parts],
            "windows": [ObservationSequence(v[: self.window_n // self.segments]) for v in parts],
        }
        if self.fit:
            fit_n, restarts, max_iters = self.fit
            inputs["fits"] = [ObservationSequence(v[:fit_n]) for v in parts]
            inputs["fit_cfg"] = training.EmConfig(
                num_states=self.chain.num_states,
                num_restarts=restarts,
                max_iters=max_iters,
                seed=self.seed,
            )
        return inputs

    def input_parts(self, inputs):
        return [inputs["obs"].values]

    def warm_up(self, inputs):
        small = ObservationSequence(inputs["obs"].values[:200])
        influence.kld_influence(self.chain, small)
        influence.windowed_influence(self.chain, small, self.h)
        if self.fit:
            cfg = training.EmConfig(
                num_states=self.chain.num_states, num_restarts=1, max_iters=2, seed=self.seed
            )
            training.em_fit(small, cfg)

    def jobs(self, inputs):
        return [partial(self._job, inputs=inputs, k=k) for k in range(self.segments)]

    def _job(self, rec, inputs, k):
        obs, wobs = inputs["segments"][k], inputs["windows"][k]
        profile = rec.call("profile", influence.kld_influence, self.chain, obs, units=len(obs))
        rec.check(valid_k(profile.k), "profile K not finite and >= 0")
        windows = rec.call(
            "window",
            influence.windowed_influence,
            self.chain,
            wobs,
            self.h,
            units=len(wobs) - self.h + 1,
        )
        rec.check(valid_k(windows.k), "window K not finite and >= 0")
        parts = [profile.k, profile.loo_marginals, profile.marginals, windows.k]
        if self.fit:
            result = rec.call("fit", training.em_fit, inputs["fits"][k], inputs["fit_cfg"])
            drop = -float(np.min(np.diff(result.log_likelihoods), initial=0.0))
            rec.check(drop <= MONOTONE_TOL, f"EM log-likelihood dropped by {drop:.3e}")
            fitted = result.model
            parts += [
                result.log_likelihoods,
                fitted.initial,
                fitted.transition,
                fitted.emission.table,
                [result.restart_index, result.degenerate_restarts, result.converged],
            ]
        return parts

    def gate(self, rec, inputs):
        prefix = ObservationSequence(inputs["obs"].values[:GATE_PREFIX])
        with rec.op("gate: fast vs naive on the prefix"):
            profile = influence.kld_influence(self.chain, prefix)
            msg = check_against_naive(self.chain, prefix, profile)
            rec.check(not msg, msg)
        with rec.op("gate: h=1 windows equal the profile"):
            msg = check_window_h1(influence.windowed_influence(self.chain, prefix, 1), profile)
            rec.check(not msg, msg)

    def counts(self, inputs):
        return {}


class CliAnnual:
    """Every ``hmmkld`` subcommand, in process, on a labelled 106-point CSV."""

    tag = 4
    # One job per CLI seed. EM cost depends on the starting point, so a run
    # takes its median over many seeds rather than resting on one.
    SEEDS_PER_CYCLE = 10

    def __init__(self, seed, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def make_inputs(self):
        rows = [f"{FIRST_YEAR + i},{float(v)!r}" for i, v in enumerate(annual_source())]
        csv = self.workdir / "annual.csv"
        csv.write_text("year,value\n" + "\n".join(rows) + "\n")
        seeds = stream(self.seed, self.tag).generate_state(self.SEEDS_PER_CYCLE) >> 1
        return {"csv": csv, "seeds": [int(s) for s in seeds]}

    def input_parts(self, inputs):
        return [inputs["csv"].read_bytes(), inputs["seeds"]]

    def warm_up(self, inputs):
        for method in ("z", "lof"):
            out = self.workdir / f"warm-{method}.tsv"
            cli.main(["detect", str(inputs["csv"]), "--method", method, "--out", str(out)])

    def jobs(self, inputs):
        return [lambda rec, s=s: self._job(rec, inputs["csv"], s) for s in inputs["seeds"]]

    def _paths(self, seed):
        stem = self.workdir / f"s{seed}"
        return {
            key: Path(f"{stem}.{key}")
            for key in ("model", "report", "inf1", "inf5", "kld", "z", "lof", "jsonl", "auc")
        }

    def _job(self, rec, csv, seed):
        p = {key: str(path) for key, path in self._paths(seed).items()}
        data, s = str(csv), str(seed)
        commands = [
            ("cli_train", ["train", data, "--restarts", "20", "--tie-transitions", "--canonical",
                           "--seed", s, "--out-model", p["model"], "--report", p["report"]]),
            ("cli_influence", ["influence", p["model"], data, "--out", p["inf1"]]),
            ("cli_influence", ["influence", p["model"], data, "--window", "5", "--out", p["inf5"]]),
            ("cli_detect", ["detect", data, "--method", "kld", "--seed", s, "--out", p["kld"]]),
            ("cli_detect", ["detect", data, "--method", "z", "--seed", s, "--out", p["z"]]),
            ("cli_detect", ["detect", data, "--method", "lof", "--out", p["lof"]]),
            ("cli_simulate", ["simulate", data, "--deltas", "2.0", "--replicates", "2",
                              "--em-restarts", "1", "--seed", s, "--out", p["jsonl"]]),
            ("cli_evaluate", ["evaluate", "--scores", p["jsonl"], "--seed", s, "--out", p["auc"]]),
        ]
        for kind, argv in commands:
            code = rec.call(kind, cli.main, argv)
            rec.check(code == 0, f"hmmkld {argv[0]} seed {seed} exited {code}")
            if kind == "cli_simulate":
                records = read_jsonl(p["jsonl"])
                for record in records:
                    msg = check_replicate(record)
                    rec.check(not msg, f"seed {seed}: {msg}")
            elif kind == "cli_evaluate":
                rows = [line.split("\t") for line in Path(p["auc"]).read_text().splitlines()[1:]]
                for msg in check_auc_table(records, rows):
                    rec.fail(f"seed {seed}: {msg}")
        return [quantize_text(Path(path).read_text()) for path in p.values()]

    def gate(self, rec, inputs):
        for seed in inputs["seeds"]:
            path = self._paths(seed)["model"]
            if not path.exists():
                continue
            with rec.op(f"gate: {path.name} reads back"):
                fitted = serialize.read_model(path)
                rec.check(fitted.num_states == 3, f"{path.name}: {fitted.num_states} states")

    def counts(self, inputs):
        """Replicates of the cycle whose ``t_kld`` is +inf (see ``check_replicate``)."""
        paths = [self._paths(seed)["jsonl"] for seed in inputs["seeds"]]
        records = [r for path in paths if path.exists() for r in read_jsonl(path)]
        return {"t_kld_inf": sum(r["t_kld"] == float("inf") for r in records)}


# Each entry builds a workload from (seed, workdir).
WORKLOADS = {
    "long-gauss": partial(InfluenceWorkload, 1, ANNUAL_CHAIN, 100_000, 10, 10_000, 5, None),
    "discrete-m8": partial(
        InfluenceWorkload, 2, discrete_chain_m8(), 20_000, 4, 4_000, 3, (500, 2, 30)
    ),
    "cli-annual": CliAnnual,
}
