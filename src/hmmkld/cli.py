"""Command-line entry points: train, influence, detect, simulate, evaluate.

Every successful run writes a JSON manifest (resolved parameters, seed,
file paths, sha256 of each input file, python and numpy versions,
per-phase wall-clock timings) next to its primary output, so a run can be
reproduced exactly from the manifest. Exit codes: 0 success, 2 usage,
3 data or parse failure, 4 numeric failure.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .influence import LeaveOneOutImpossibleError, check_window, kld_influence, windowed_influence
from .model import EvidenceImpossibleError, ModelError, check_count
from .outliers import (
    METHODS,
    NUM_STATES,
    SimulationConfig,
    auc_table,
    check_deltas,
    detector_config,
    lof_statistic,
    scored_replicates,
    z_value_scores,
)
from .serialize import (
    DataFormatError,
    influence_tsv,
    parse_replicate_records,
    read_model,
    read_observations,
    replicate_record,
    tsv,
    window_influence_tsv,
    write_model,
)
from .training import (
    DegenerateFitError,
    EmConfig,
    canonical_state_order,
    em_fit,
    reorder_states,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class _UsageError(Exception):
    pass


class _Manifest:
    def __init__(self, args: argparse.Namespace):
        params = {k: v for k, v in vars(args).items() if k != "func"}
        self.data = {
            "tool": "hmmkld",
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "subcommand": args.subcommand,
            "parameters": params,
            "timings_s": {},
        }
        self._t0 = time.perf_counter()
        self._phase_start = self._t0

    def phase(self, name: str) -> None:
        now = time.perf_counter()
        self.data["timings_s"][name] = round(now - self._phase_start, 6)
        self._phase_start = now

    def write(self, args: argparse.Namespace) -> None:
        """Write to ``--manifest``, or next to the run's primary output,
        with the sha256 of each input file the arguments name."""
        self.data["input_sha256"] = {
            name: hashlib.sha256(Path(getattr(args, name)).read_bytes()).hexdigest()
            for name in ("data", "model", "scores")
            if hasattr(args, name)
        }
        self.data["timings_s"]["total"] = round(time.perf_counter() - self._t0, 6)
        primary = args.out_model if args.subcommand == "train" else args.out
        with open(args.manifest or f"{primary}.manifest.json", "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def _config(check, **settings):
    """``check(**settings)``: a config or a check; a setting it rejects is a
    usage error."""
    try:
        return check(**settings)
    except ModelError as exc:
        raise _UsageError(str(exc))


def cmd_train(args, manifest: _Manifest) -> None:
    cfg = _config(
        EmConfig,
        num_states=args.states,
        num_restarts=args.restarts,
        tie_transitions=args.tie_transitions,
        homoscedastic=not args.heteroscedastic,
        seed=args.seed,
    )
    obs = read_observations(args.data)
    manifest.phase("load")
    result = em_fit(obs, cfg)
    manifest.data["fit"] = _fit_summary(result)
    model = result.model
    if args.canonical:
        model = reorder_states(model, canonical_state_order(model))
    manifest.phase("fit")
    write_model(model, args.out_model)
    if args.report:
        rows = [
            ("iterations", len(result.log_likelihoods)),
            ("log_likelihood", result.log_likelihoods[-1]),
            ("converged", int(result.converged)),
            ("best_restart", result.restart_index),
            ("degenerate_restarts", result.degenerate_restarts),
        ]
        rows += [
            (f"restart_{idx}_log_likelihood", ll)
            for idx, ll in enumerate(result.restart_final_lls)
        ]
        Path(args.report).write_text(tsv(["field", "value"], rows))
    manifest.phase("write")


def cmd_influence(args, manifest: _Manifest) -> None:
    model = read_model(args.model)
    obs = read_observations(args.data)
    _config(check_window, name="--window", h=args.window, n=len(obs))
    manifest.phase("load")
    if args.window == 1:
        text = influence_tsv(kld_influence(model, obs), obs.label_list())
    else:
        profile = windowed_influence(model, obs, args.window)
        text = window_influence_tsv(profile, obs.label_list())
    manifest.phase("compute")
    Path(args.out).write_text(text)
    manifest.phase("write")


def cmd_detect(args, manifest: _Manifest) -> None:
    if args.top_k is not None:
        _config(check_count, name="--top-k", value=args.top_k)
    if args.threshold is not None and not np.isfinite(args.threshold):
        raise _UsageError(f"--threshold must be finite, got {args.threshold}")
    # Every method checks --states and --restarts; z uses --states as its k.
    cfg = _config(
        detector_config, num_states=args.states, restarts=args.restarts, seed=args.seed
    )
    obs = read_observations(args.data)
    manifest.phase("load")
    if args.method == "kld":
        fit = em_fit(obs, cfg)
        manifest.data["fit"] = _fit_summary(fit)
        scores = kld_influence(fit.model, obs).k
    elif args.method == "z":
        scores = np.abs(z_value_scores(obs.values, k=cfg.num_states, seed=args.seed).scores)
    else:
        result = lof_statistic(obs.values)
        if result.clipped:
            print(
                "warning: series too short for the full neighbor grid; "
                "r range clipped",
                file=sys.stderr,
            )
        scores = result.scores
    manifest.phase("score")
    if args.top_k is not None:
        order = np.argsort(-scores, kind="stable")
        flagged = np.zeros(len(obs), dtype=bool)
        flagged[order[: args.top_k]] = True
    else:
        flagged = scores >= args.threshold
    rows = zip(obs.label_list(), scores, flagged.astype(int))
    Path(args.out).write_text(tsv(["label", "score", "flagged"], rows))
    manifest.phase("write")


def cmd_simulate(args, manifest: _Manifest) -> None:
    deltas = _config(check_deltas, name="--deltas", deltas=_parse_deltas(args.deltas))
    source = read_observations(args.data)
    cfg = _config(
        SimulationConfig,
        source=source.values,
        subsample_size=args.subsample,
        contamination=args.contamination,
        replicates=args.replicates,
        seed=args.seed,
        em_restarts=args.em_restarts,
    )
    manifest.phase("load")

    out = Path(args.out)
    done = {}
    mode = "w"
    if args.resume and out.exists():
        # A last line without its newline was cut short by an interrupted
        # run: drop it and score that replicate again.
        data = out.read_bytes()
        kept = data[: data.rfind(b"\n") + 1]
        done = parse_replicate_records(kept.decode(errors="replace"), source=str(out))
        os.truncate(out, len(kept))
        mode = "a"
    # Records come one cell at a time, all of a cell's together once the
    # cell is scored, and are flushed at once: an interrupted run leaves
    # every finished cell for --resume, which scores the cell that was in
    # flight again. A cell that gives up writes none of its records.
    with open(out, mode) as fh:
        for key, rep in scored_replicates(cfg, deltas, skip=done):
            fh.write(replicate_record(key, rep))
            fh.flush()
    manifest.phase("simulate")


def cmd_evaluate(args, manifest: _Manifest) -> None:
    _config(check_count, name="seed", value=args.seed, least=0)
    text = Path(args.scores).read_text()
    scored = parse_replicate_records(text, source=args.scores)
    manifest.phase("load")
    header = ["method", "delta", "auc", "ci_lo", "ci_hi", "replicates", "seed"]
    rows = [dataclasses.astuple(row) for row in auc_table(scored, args.seed)]
    Path(args.out).write_text(tsv(header, rows))
    manifest.phase("write")


def _fit_summary(result) -> dict:
    """What each EM restart did, for the manifest; a degenerate restart's
    final log-likelihood is null."""
    return {
        "best_restart": result.restart_index,
        "degenerate_restarts": result.degenerate_restarts,
        "restart_final_lls": [
            ll if np.isfinite(ll) else None for ll in result.restart_final_lls
        ],
        "restart_iterations": result.restart_iterations,
        "restart_converged": result.restart_converged,
    }


def _parse_deltas(raw: str):
    try:
        return [float(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise _UsageError(f"bad --deltas value: {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmmkld",
        description="KL influence of observations in hidden Markov models",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="fit an HMM with EM and write a model file")
    p.add_argument("data", help="observations CSV (label,value or value)")
    p.add_argument("--states", "-m", type=int, default=3)
    p.add_argument("--tie-transitions", action="store_true")
    p.add_argument("--heteroscedastic", action="store_true")
    p.add_argument("--restarts", type=int, default=EmConfig.num_restarts)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--canonical", action="store_true", help="sort states by mean")
    p.add_argument("--out-model", required=True)
    p.add_argument("--report", help="fit report TSV path")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("influence", help="per-observation KL influence profile")
    p.add_argument("model", help="model document path")
    p.add_argument("data", help="observations CSV")
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("detect", help="flag outlier candidates in a series")
    p.add_argument("data", help="observations CSV")
    p.add_argument("--method", choices=tuple(METHODS), default="kld")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--top-k", type=int)
    group.add_argument("--threshold", type=float)
    p.add_argument("--states", "-m", type=int, default=NUM_STATES)
    p.add_argument("--restarts", type=int, default=SimulationConfig.em_restarts)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="generate scored benchmark replicates")
    p.add_argument("data", help="source series CSV")
    p.add_argument("--deltas", default="0.5,2.0,3.0")
    p.add_argument("--replicates", type=int, default=SimulationConfig.replicates)
    p.add_argument("--subsample", type=int, default=SimulationConfig.subsample_size)
    p.add_argument("--contamination", type=float, default=SimulationConfig.contamination)
    p.add_argument("--em-restarts", type=int, default=SimulationConfig.em_restarts)
    p.add_argument("--seed", type=int, default=SimulationConfig.seed)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", required=True, help="scores JSON-lines path")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="AUC table from simulated scores")
    p.add_argument("--scores", required=True, help="JSON-lines from simulate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="benchmark TSV path")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "detect" and args.top_k is None and args.threshold is None:
        args.top_k = 5
    manifest = _Manifest(args)
    try:
        args.func(args, manifest)
        manifest.write(args)
        return EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        EvidenceImpossibleError,
        LeaveOneOutImpossibleError,
        DegenerateFitError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
