"""Semi-parametric outlier benchmark: simulation, detectors, ROC/AUC.

Replicates are drawn by subsampling a source series (null hypothesis) and
optionally perturbing a random subset of points with Gaussian noise
(alternative hypothesis). Each replicate is scored with three global
statistics: the maximum KL influence after a per-replicate EM fit, the
maximum absolute cluster z-score, and the maximum local outlier factor
over a range of neighborhood sizes on standardized (time, value) axes.
Detection power is summarized by the empirical AUC with bootstrap
confidence intervals.
"""

from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .influence import kld_influence
from .model import ModelError, ObservationSequence, check_count, check_finite
from .training import DegenerateFitError, EmConfig, _fit_stack, _lane_map, kmeans_1d

LOF_R_RANGE = (10, 20)
# The per-replicate EM fit and the z-score clustering both use this many
# states; the fit stops after EM_MAX_ITERS iterations.
NUM_STATES = 3
EM_MAX_ITERS = 300
CI_LEVEL = 0.95
# Bootstrap rows whose pair counts are tabulated together in one block.
PAIR_COUNT_BLOCK = 64
# Lanes, (series, restart) pairs, of one lock-step EM batch of a simulation
# run; its memory grows with this bound, not with the number of replicates.
FIT_LANES = 2000


@dataclass(frozen=True)
class ZScoreResult:
    """Per-point cluster z-scores; degenerate marks a zero-spread cluster."""

    scores: np.ndarray
    degenerate: bool = False

    @property
    def statistic(self) -> float:
        return float(np.max(np.abs(self.scores)))


def z_value_scores(values, k: int, seed) -> ZScoreResult:
    """z-score of each point against the mean/std of its k-means cluster.

    A NaN or infinite value is a ``ModelError`` naming the first one,
    raised by ``kmeans_1d``.
    """
    x = np.asarray(values, dtype=float)
    assign, _ = kmeans_1d(x, k, seed)
    z = np.empty_like(x)
    degenerate = False
    for c in range(k):
        members = x[assign == c]
        sigma = members.std()
        if sigma < 1e-12:
            sigma = 1e-12
            degenerate = True
        z[assign == c] = (members - members.mean()) / sigma
    return ZScoreResult(scores=z, degenerate=degenerate)


def lof_scores(points, r: int) -> np.ndarray:
    """Local outlier factor of every point with neighborhood size r.

    Neighborhoods use standard k-distance semantics: all points within
    the distance of the r-th nearest neighbor belong, so distance ties
    may enlarge a neighborhood beyond r members.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    check_count("r", r, most=n - 1)
    dist, ordered = _distances(pts)
    return _lof(dist, ordered[:, r - 1])


def _distances(pts: np.ndarray) -> tuple:
    """Pairwise distances (inf on the diagonal) and each row of them sorted."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    return dist, np.sort(dist, axis=1)


def _lof(dist: np.ndarray, kdist: np.ndarray) -> np.ndarray:
    """LOF of every point given each point's k-distance."""
    # neighbors[a, b]: b lies within a's k-distance (the diagonal is inf).
    neighbors = dist <= kdist[:, None]
    count = neighbors.sum(axis=1)
    reach = np.where(neighbors, np.maximum(kdist[None, :], dist), 0.0)
    lrd = 1.0 / np.maximum(reach.sum(axis=1) / count, 1e-12)
    return np.where(neighbors, lrd[None, :] / lrd[:, None], 0.0).sum(axis=1) / count


@dataclass(frozen=True)
class LofStatResult:
    """Per-point max LOF over the r grid; clipped marks a shortened grid."""

    scores: np.ndarray
    clipped: bool = False

    @property
    def statistic(self) -> float:
        return float(np.max(self.scores))


def lof_statistic(values) -> LofStatResult:
    """Max-over-r LOF, r over LOF_R_RANGE, on (time, value) points with
    both axes standardized. A NaN or infinite value is a ``ModelError``
    naming the first one."""
    x = np.asarray(values, dtype=float)
    check_finite("value", x)
    n = x.size
    t = np.arange(n, dtype=float)
    pts = np.column_stack([_standardize(t), _standardize(x)])
    lo, hi = LOF_R_RANGE
    clipped = False
    if hi >= n:
        hi = n - 1
        clipped = True
    if lo >= n:
        raise ModelError(f"series too short for LOF neighborhoods (n={n})")
    dist, ordered = _distances(pts)
    scores = np.max([_lof(dist, ordered[:, r - 1]) for r in range(lo, hi + 1)], axis=0)
    return LofStatResult(scores=scores, clipped=clipped)


def _standardize(v: np.ndarray) -> np.ndarray:
    sd = v.std()
    if sd == 0.0:
        return v - v.mean()
    return (v - v.mean()) / sd


@dataclass
class SimulationConfig:
    """Parameters of the semi-parametric contamination benchmark."""

    source: np.ndarray
    subsample_size: int = 53
    contamination: float = 0.05
    replicates: int = 1000
    seed: int = 0
    em_restarts: int = 5

    def __post_init__(self):
        self.source = ObservationSequence(np.asarray(self.source, dtype=float)).values
        check_count("subsample_size", self.subsample_size, most=self.source.size)
        for name in ("replicates", "em_restarts"):
            check_count(name, getattr(self, name))
        # LOF_R_RANGE[0] > NUM_STATES: this also leaves the fit more points than states.
        if self.subsample_size <= LOF_R_RANGE[0]:
            raise ModelError(
                f"subsample size {self.subsample_size} must exceed the "
                f"{LOF_R_RANGE[0]} neighbors of the smallest LOF neighborhood"
            )
        if not 0.0 <= self.contamination <= 1.0:
            raise ModelError("contamination must be in [0, 1]")
        check_count("seed", self.seed, least=0)


@dataclass
class ScoredReplicate:
    """Global detection statistics of one simulated replicate."""

    t_kld: float
    s_z: float
    l_lof: float
    outlier_positions: List[int] = field(default_factory=list)
    resampled: int = 0
    z_degenerate: bool = False
    lof_clipped: bool = False


# A replicate's key: (hypothesis, delta, index), delta None under H0.
ReplicateKey = Tuple[str, Optional[float], int]


def _draw_series(cfg: SimulationConfig, delta: Optional[float], rng):
    idx = np.sort(rng.choice(cfg.source.size, size=cfg.subsample_size, replace=False))
    values = cfg.source[idx].copy()
    positions: List[int] = []
    if delta is not None:
        mask = rng.random(cfg.subsample_size) < cfg.contamination
        noise = rng.normal(0.0, delta, cfg.subsample_size)
        values[mask] += noise[mask]
        positions = np.flatnonzero(mask).tolist()
    return values, positions


def check_deltas(name: str, deltas: Sequence[float]) -> List[float]:
    """``deltas`` as floats; an empty list, a repeated value or a negative or
    non-finite one is a ModelError whose message starts with ``name``."""
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ModelError(f"{name} must list at least one value")
    if len(set(deltas)) != len(deltas):
        raise ModelError(f"{name} repeats a value: {deltas}")
    for delta in deltas:
        if not (np.isfinite(delta) and delta >= 0):
            raise ModelError(f"{name} must be finite and >= 0, got {delta!r}")
    return deltas


def detector_config(num_states: int, restarts: int, seed: int) -> EmConfig:
    """The KLD detector's EM fit: tied transitions, one shared sigma and at
    most EM_MAX_ITERS iterations."""
    return EmConfig(
        num_states=num_states,
        num_restarts=restarts,
        max_iters=EM_MAX_ITERS,
        tie_transitions=True,
        homoscedastic=True,
        seed=seed,
    )


def simulate(cfg: SimulationConfig, delta: Optional[float], replicate: int) -> ScoredReplicate:
    """Score one replicate: under H0 when ``delta`` is None, else under H1
    with contamination noise of standard deviation ``delta``. Its RNG
    stream derives from (seed, hypothesis, index, attempt). It is scored
    as a run of one replicate, as ``scored_replicates`` scores a run."""
    if delta is not None:
        check_deltas("delta", [delta])
    check_count("replicate", replicate, least=0)
    key = ("H0" if delta is None else "H1", delta, replicate)
    ((_, rep),) = _scored_cells(cfg, [[key]])
    return rep


def _scored_cells(
    cfg: SimulationConfig, cells: Sequence[Sequence[ReplicateKey]]
) -> Iterator[Tuple[ReplicateKey, ScoredReplicate]]:
    """Score the replicates named by ``cells``, lists of keys in file order,
    and yield each cell's records together once all of them are scored.

    The pending draws are fitted and scored in batches of at most
    ``FIT_LANES // em_restarts`` series, in file order, so a batch may span
    cells (see ``_score_batch``). A replicate whose fit is degenerate is
    drawn again from its next attempt at the head of the next batch; after
    20 redraws it gives up and raises ``DegenerateFitError``, once every
    cell before its own has been yielded. Only one batch's fits are held at
    a time, so memory is bounded by the batch, not by the run.
    """
    width = max(1, FIT_LANES // cfg.em_restarts)
    # Pending (key, attempt) pairs; each batch takes a prefix and puts its
    # redraws back at the front, so the list stays in file order.
    pending = [(key, 0) for cell in cells for key in cell]
    records = {}
    complete = 0  # cells[:complete] have been yielded
    while pending:
        batch, pending = pending[:width], pending[width:]
        redraws = []
        for (key, attempt), rep in zip(batch, _score_batch(cfg, batch)):
            if rep is None:
                redraws.append((key, attempt + 1))
            else:
                records[key] = rep
        pending = redraws + pending
        while complete < len(cells) and all(key in records for key in cells[complete]):
            for key in cells[complete]:
                yield key, records.pop(key)
            complete += 1
        if any(attempt > 20 for _, attempt in redraws):
            raise DegenerateFitError("all EM restarts were degenerate")


def _score_batch(cfg: SimulationConfig, batch) -> List[Optional[ScoredReplicate]]:
    """The record of each (key, attempt) draw of ``batch``, or None where its
    fit is degenerate (every restart collapsed).

    A draw takes its series and EM seed from the stream of (seed,
    hypothesis, index, attempt). One lock-step EM fits the drawn series and
    one lane ``kld_influence`` gives their K; each z-score continues its
    replicate's stream, so a record equals that of a run of it alone.
    """
    draws = []
    for key, attempt in batch:
        stream = (0 if key[1] is None else 1, key[2], attempt)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=stream))
        values, positions = _draw_series(cfg, key[1], rng)
        draws.append((rng, values, positions, int(rng.integers(2**63))))
    em = detector_config(NUM_STATES, cfg.em_restarts, seed=0)  # the draws hold the seeds
    fits = _fit_stack(np.stack([d[1] for d in draws]), em, [d[3] for d in draws])
    fitted = [s for s, fit in enumerate(fits) if fit is not None]
    records = [None] * len(batch)
    if not fitted:
        return records
    lanes = _lane_map(lambda *a: np.stack(a), *(fits[s].model for s in fitted))
    t_kld = kld_influence(lanes, np.stack([draws[s][1] for s in fitted])).k.max(axis=-1).tolist()
    for s, t in zip(fitted, t_kld):
        (_, attempt), (rng, values, positions, _) = batch[s], draws[s]
        zres = z_value_scores(values, k=NUM_STATES, seed=rng)
        lres = lof_statistic(values)
        records[s] = ScoredReplicate(
            t_kld=t,
            s_z=zres.statistic,
            l_lof=lres.statistic,
            outlier_positions=positions,
            resampled=attempt,
            z_degenerate=zres.degenerate,
            lof_clipped=lres.clipped,
        )
    return records


@dataclass(frozen=True)
class RocResult:
    """Empirical AUC with a CI_LEVEL bootstrap percentile confidence interval."""

    auc: float
    ci_lower: float
    ci_upper: float


def empirical_auc(
    scores_h1,
    scores_h0,
    num_bootstrap: int = 2000,
    seed: int = 0,
) -> RocResult:
    """AUC P(h1 > h0) + P(h1 = h0) / 2 with a bootstrap percentile CI."""
    h1 = np.asarray(scores_h1, dtype=float)
    h0 = np.asarray(scores_h0, dtype=float)
    if h1.size == 0 or h0.size == 0:
        raise ModelError("both score samples must be non-empty")
    if np.isnan(h1).any() or np.isnan(h0).any():
        raise ModelError("scores must not be NaN")
    check_count("num_bootstrap", num_bootstrap)
    check_count("seed", seed, least=0)
    distinct, codes = np.unique(np.concatenate([h1, h0]), return_inverse=True)
    code1, code0 = codes[: h1.size], codes[h1.size :]
    # Each sample's bootstrap resamples are drawn in one call, h1's first.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    idx1 = rng.integers(h1.size, size=(num_bootstrap, h1.size))
    idx0 = rng.integers(h0.size, size=(num_bootstrap, h0.size))
    own1, own0 = np.arange(h1.size)[None], np.arange(h0.size)[None]
    (auc,) = _pair_count_auc(code1, code0, own1, own0, distinct.size)
    boot = _pair_count_auc(code1, code0, idx1, idx0, distinct.size)
    tail = (1.0 - CI_LEVEL) / 2.0
    lower, upper = np.quantile(boot, [tail, 1.0 - tail])
    return RocResult(
        auc=float(auc),
        ci_lower=float(min(lower, auc)),
        ci_upper=float(max(upper, auc)),
    )


def _pair_count_auc(code1, code0, idx1, idx0, size: int) -> np.ndarray:
    """AUC of each row of h1 and h0 indices, by pair counts of the scores'
    codes ``code1[idx1[b]]`` and ``code0[idx0[b]]`` in [0, size).

    From the multiplicities of row b's h0 codes, ``credit[b, c]`` is twice
    the number of h0 scores below score c plus the number equal to it.
    Summed over row b's h1 codes it gives twice the win count, an exact
    integer, so every AUC is one correctly rounded division. Rows are
    mapped to codes and counted PAIR_COUNT_BLOCK at a time, so the code
    rows and count tables never hold more than PAIR_COUNT_BLOCK rows.
    """
    rows = idx0.shape[0]
    wins2 = np.empty(rows, dtype=np.int64)
    for start in range(0, rows, PAIR_COUNT_BLOCK):
        block = slice(start, start + PAIR_COUNT_BLOCK)
        codes0 = code0[idx0[block]]
        height = codes0.shape[0]
        flat = (codes0 + size * np.arange(height)[:, None]).ravel()
        m0 = np.bincount(flat, minlength=height * size).reshape(height, size)
        credit = np.cumsum(m0, axis=1)
        credit *= 2
        credit -= m0
        wins2[block] = np.take_along_axis(credit, code1[idx1[block]], axis=1).sum(axis=1)
    return wins2 / (2.0 * idx1.shape[1] * idx0.shape[1])


@dataclass
class BenchmarkRow:
    method: str
    delta: float
    auc: float
    ci_lower: float
    ci_upper: float
    replicates: int
    seed: int


# Each detection method and the ScoredReplicate statistic it ranks by.
METHODS = {"kld": "t_kld", "z": "s_z", "lof": "l_lof"}

def scored_replicates(
    cfg: SimulationConfig,
    deltas: Sequence[float],
    skip: Collection[ReplicateKey] = (),
) -> Iterator[Tuple[ReplicateKey, ScoredReplicate]]:
    """Score every replicate not in ``skip``, in file order: the H0 cell
    once (null replicates do not depend on delta), then one H1 cell per
    delta, each running indices 0..replicates-1.

    The deltas are checked now. The iterator fits the replicates in
    lock-step batches of at most ``FIT_LANES // em_restarts`` series that
    may span cells (see ``_scored_cells``), and yields a cell's records
    together as soon as all of them are scored; a cell that gives up yields
    none, after every cell before it. A record equals that of ``simulate``
    on its replicate alone.
    """
    deltas = check_deltas("deltas", deltas)
    cells = []
    for delta in [None, *deltas]:
        hypothesis = "H0" if delta is None else "H1"
        keys = [(hypothesis, delta, q) for q in range(cfg.replicates)]
        cells.append([key for key in keys if key not in skip])
    return _scored_cells(cfg, cells)


# What a manifest counts in each cell's records.
_CELL_COUNTS = ("scored", "redraws", "z_degenerate", "lof_clipped", "t_kld_nonfinite")


def cell_counts(
    records: Iterable[Tuple[ReplicateKey, ScoredReplicate]],
    cells: Sequence[Tuple[str, Optional[float]]] = (),
) -> List[dict]:
    """One summary per (hypothesis, delta) cell of ``records``: the records
    ``scored``, their ``redraws`` (the sum of ``resampled``), the
    ``z_degenerate`` and ``lof_clipped`` counts and ``t_kld_nonfinite``, the
    records whose ``t_kld`` is not finite. The cells named in ``cells`` come
    first, even with no record; any other follows in order of its first
    record."""
    counts = {cell: dict.fromkeys(_CELL_COUNTS, 0) for cell in cells}
    for key, rep in records:
        cell = counts.setdefault(key[:2], dict.fromkeys(_CELL_COUNTS, 0))
        cell["scored"] += 1
        cell["redraws"] += rep.resampled
        cell["z_degenerate"] += int(rep.z_degenerate)
        cell["lof_clipped"] += int(rep.lof_clipped)
        cell["t_kld_nonfinite"] += int(not np.isfinite(rep.t_kld))
    return [{"hypothesis": h, "delta": d, **cell} for (h, d), cell in counts.items()]


def auc_table(
    scored: Mapping[ReplicateKey, ScoredReplicate], seed: int
) -> List[BenchmarkRow]:
    """Method-by-delta AUC rows of H1 against H0 scores, deltas ascending.

    Scores enter ``empirical_auc`` in the mapping's order, and a row's
    ``replicates`` counts the H1 replicates at its delta.
    """
    by_delta = {}
    for (_, delta, _), rep in scored.items():
        by_delta.setdefault(delta, []).append(rep)
    h0 = by_delta.pop(None, [])  # H0 keys carry no delta
    if not h0 or not by_delta:
        raise ModelError("need both H0 and H1 replicates")
    rows: List[BenchmarkRow] = []
    for delta in sorted(by_delta):
        for method, attr in METHODS.items():
            roc = empirical_auc(
                [getattr(rep, attr) for rep in by_delta[delta]],
                [getattr(rep, attr) for rep in h0],
                seed=seed,
            )
            rows.append(
                BenchmarkRow(
                    method=method,
                    delta=delta,
                    auc=roc.auc,
                    ci_lower=roc.ci_lower,
                    ci_upper=roc.ci_upper,
                    replicates=len(by_delta[delta]),
                    seed=seed,
                )
            )
    return rows


def run_benchmark(cfg: SimulationConfig, deltas: Sequence[float]) -> List[BenchmarkRow]:
    """Full method-by-delta AUC table, simulated in memory."""
    return auc_table(dict(scored_replicates(cfg, deltas)), cfg.seed)
