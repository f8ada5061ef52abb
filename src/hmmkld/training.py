"""Baum-Welch estimation for Gaussian and discrete emission HMMs.

The Gaussian path supports the tied symmetric transition structure
(stay probability 1-eta, uniform off-diagonal) and a single shared
standard deviation across states. Initial means come from 1-D k-means;
multiple jittered restarts guard against local optima.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .inference import forward_backward, posterior_marginals
from .model import (
    DiscreteEmission,
    GaussianEmission,
    HmmModel,
    ModelError,
    ObservationSequence,
    check_count,
    check_seed,
)

SIGMA_FLOOR = 1e-8
# EM stops when the log-likelihood moves by at most this fraction of its
# magnitude (or absolutely, below magnitude 1).
EM_TOL = 1e-8
_DEGENERATE_WEIGHT = 1e-12


class DegenerateFitError(ArithmeticError):
    """EM collapsed: some state received (almost) no posterior weight."""


def kmeans_1d(values, k: int, seed) -> tuple:
    """Lloyd's algorithm on 1-D data with k-means++ style seeding.

    Returns ``(assignments, means)`` with means sorted ascending and
    assignments relabeled to match. Deterministic given the seed.
    """
    x = np.asarray(values, dtype=float)
    check_count("k", k)
    if k > np.unique(x).size:
        raise ModelError(f"k={k} exceeds number of distinct values")
    rng = np.random.default_rng(check_seed(seed))

    centers = np.empty(k)
    centers[0] = x[rng.integers(x.size)]
    for c in range(1, k):
        d2 = np.min((x[:, None] - centers[None, :c]) ** 2, axis=1)
        total = d2.sum()
        if total == 0.0:
            # All points coincide with chosen centers; place the next
            # center on an unused distinct value.
            unused = np.setdiff1d(np.unique(x), centers[:c])
            centers[c] = unused[0]
            continue
        centers[c] = x[rng.choice(x.size, p=d2 / total)]

    assign = np.zeros(x.size, dtype=int)
    for _ in range(300):
        new_assign = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
        for c in range(k):
            members = x[new_assign == c]
            if members.size == 0:
                # Re-seed an empty cluster at the point farthest from its
                # current center.
                far = np.argmax(np.abs(x - centers[new_assign]))
                centers[c] = x[far]
                new_assign[far] = c
            else:
                centers[c] = members.mean()
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    order = np.argsort(centers, kind="stable")
    relabel = np.empty(k, dtype=int)
    relabel[order] = np.arange(k)
    return relabel[assign], centers[order]


@dataclass
class EmConfig:
    """Settings for one EM estimation run."""

    num_states: int
    max_iters: int = 500
    num_restarts: int = 20
    seed: int = 0
    tie_transitions: bool = False
    homoscedastic: bool = True

    def __post_init__(self):
        for name in ("num_states", "max_iters", "num_restarts"):
            check_count(name, getattr(self, name))
        check_count("seed", self.seed, least=0)


@dataclass
class EmResult:
    """Fitted model plus the log-likelihood trace of the winning restart.

    The ``restart_*`` lists hold one entry per restart. A restart whose
    three tries all collapsed has a NaN final log-likelihood, is not
    converged, and counts the iterations its last try ran.
    """

    model: HmmModel
    log_likelihoods: np.ndarray
    converged: bool
    restart_index: int
    degenerate_restarts: int = 0
    restart_final_lls: list = field(default_factory=list)
    restart_iterations: list = field(default_factory=list)
    restart_converged: list = field(default_factory=list)


def _tied_transition(eta, m: int) -> np.ndarray:
    """Stay probability 1 - eta, eta spread evenly over the other states;
    one (m, m) matrix per entry of ``eta``."""
    eta = np.minimum(np.maximum(eta, 0.0), 1.0)[..., None, None]
    if m == 1:
        return np.ones(eta.shape)
    return np.where(np.eye(m, dtype=bool), 1.0 - eta, eta / (m - 1))


def _initial_model(x, cfg: EmConfig, rng) -> HmmModel:
    """Starting model of one try: k-means means with jitter (Gaussian) or
    a random emission table (discrete), sticky tied transitions."""
    m = cfg.num_states
    if np.issubdtype(x.dtype, np.floating):
        spread = x.std()
        if spread == 0.0:
            spread = max(abs(x.mean()), 1.0) * 1e-3
        _, means = kmeans_1d(x, m, rng)
        means = means + rng.normal(0.0, 0.1 * spread, m)
        emission = GaussianEmission.homoscedastic(means, max(spread, SIGMA_FLOOR))
    else:
        table = rng.random((m, int(np.max(x)) + 1)) + 1.0
        table /= table.sum(axis=1, keepdims=True)
        emission = DiscreteEmission(table)
    return HmmModel(np.full(m, 1.0 / m), _tied_transition(0.1, m), emission)


def _lane_map(fn, *models) -> HmmModel:
    """The model whose every parameter array is ``fn`` of that array of each model."""
    emissions = [model.emission for model in models]
    emission = type(emissions[0])(
        *(fn(*(getattr(e, f.name) for e in emissions)) for f in fields(emissions[0]))
    )
    return HmmModel(
        fn(*(model.initial for model in models)),
        fn(*(model.transition for model in models)),
        emission,
    )


def _expected_transition_counts(model, fb) -> np.ndarray:
    """Sum over i of the posterior transition distributions, shape (m, m)
    (per lane for a lane model).

    The posterior of the transition i -> i+1 is proportional to
    fwd[i, a] alpha[a, b] w[i+1, b] bwd[i+1, b] with normalizer z[i], so
    the sum over i is one matrix product (Rabiner 1989).
    """
    alpha = model.transition
    ahead = (fb.scaled_weights() * fb.bwd)[..., 1:, :]
    before = fb.fwd[..., :-1, :]
    z = ((before @ alpha) * ahead).sum(axis=-1)
    return alpha * ((before / z[..., None]).swapaxes(-1, -2) @ ahead)


def _m_step(model, obs_values, cfg, counts, weights) -> HmmModel:
    """Re-estimated lane model from each lane's expected transition counts
    and posterior state marginals; ``model`` gives only the emission kind.
    ``obs_values`` is one series for every lane, (n,), or one per lane, (R, n)."""
    m = cfg.num_states
    lanes, n = weights.shape[:-1]
    state_weight = weights.sum(axis=-2)

    if cfg.tie_transitions:
        total = counts.reshape(lanes, -1).sum(axis=-1)
        off_diag = total - np.trace(counts, axis1=-2, axis2=-1)
        transition = _tied_transition(off_diag / (n - 1), m)
    else:
        transition = counts / counts.sum(axis=-1, keepdims=True)

    initial = weights[:, 0] / weights[:, 0].sum(axis=-1, keepdims=True)

    if isinstance(model.emission, GaussianEmission):
        x = obs_values
        means = (weights.swapaxes(-1, -2) @ x[..., None])[..., 0] / state_weight
        weighted_sq = weights * (x[..., None] - means[:, None, :]) ** 2
        if cfg.homoscedastic:
            var = weighted_sq.reshape(lanes, -1).sum(axis=-1) / n
            sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
            sigmas = np.repeat(sigma[:, None], m, axis=1)
        else:
            var = weighted_sq.sum(axis=-2) / state_weight
            sigmas = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        emission = GaussianEmission(means, sigmas)
    else:
        k = model.emission.num_symbols
        one_hot = obs_values.astype(int)[..., None] == np.arange(k)
        table = weights.swapaxes(-1, -2) @ one_hot.astype(float)
        table /= table.sum(axis=-1, keepdims=True)
        emission = DiscreteEmission(table)

    return HmmModel(initial, transition, emission)


def _is_gaussian(obs) -> bool:
    return np.issubdtype(np.asarray(obs.values).dtype, np.floating)


def em_fit(obs: ObservationSequence, cfg: EmConfig) -> EmResult:
    """Best-of-restarts Baum-Welch fit; each restart owns a derived RNG stream.

    The fit runs in at most three rounds. Round t starts try t of every
    restart that has no fit yet from that restart's own stream, and runs
    those tries in lock-step as the lanes of one lane model, so one
    forward-backward pass per iteration serves every live try. A lane
    leaves the batch when it converges, reaches ``max_iters`` or collapses
    (some state gets no posterior weight); a collapsed restart waits for
    the next round, and after three collapsed tries it is degenerate. No
    lane joins a running batch. The winner is the first restart with the
    highest final log-likelihood.
    """
    x = obs.values.astype(float) if _is_gaussian(obs) else obs.values
    (result,) = _fit_stack(x[None], [cfg])
    if result is None:
        raise DegenerateFitError("all EM restarts were degenerate")
    return result


def _fit_stack(stack: np.ndarray, cfgs) -> list:
    """``em_fit`` of every series of ``stack`` (S, n) at once: series s
    under ``cfgs[s]``, which differ from each other in their seed alone.

    The lanes of each round are (series, restart) pairs, each series on
    its own row of the stack. Every lane's arithmetic is that of a fit of
    its series alone, so each series gets the ``EmResult`` that ``em_fit``
    gives it, or None when all its restarts are degenerate.
    """
    cfg = cfgs[0]
    num_series, n = stack.shape
    if n <= cfg.num_states:
        raise ModelError("need more observations than states")
    # A discrete try's emission table spans the symbols up to its series' largest.
    if not np.issubdtype(stack.dtype, np.floating) and np.ptp(stack.max(axis=1)) > 0:
        raise ModelError("the discrete series of a stack must share their largest symbol")
    count = cfg.num_restarts
    # Lane t runs restart t % count of series t // count.
    rngs = [
        np.random.default_rng(s)
        for series_cfg in cfgs
        for s in np.random.SeedSequence(series_cfg.seed).spawn(count)
    ]
    total = num_series * count
    traces = [[] for _ in range(total)]  # log-likelihoods of each restart's latest try
    converged = [False] * total
    fitted = [None] * total
    collapses = [0] * num_series
    retry = list(range(total))  # restarts whose next try runs in the next round
    for _ in range(3):
        lanes, retry = retry, []  # lane j of ``model`` runs restart lanes[j]
        if not lanes:
            break
        starts = [_initial_model(stack[t // count], cfg, rngs[t]) for t in lanes]
        model = _lane_map(lambda *a: np.stack(a), *starts)
        values = stack[[t // count for t in lanes]]
        for t in lanes:
            traces[t] = []
        while lanes:
            fb = forward_backward(model, values)
            weights = posterior_marginals(fb)
            counts = _expected_transition_counts(model, fb)
            # The untied M-step divides a state's transition counts by its
            # weight over indices 0..n-2, so that weight must not vanish either.
            held = weights if cfg.tie_transitions else weights[..., :-1, :]
            starved = (held.sum(axis=-2) < _DEGENERATE_WEIGHT).any(axis=-1).tolist()
            step = []
            for j, (t, ll) in enumerate(zip(lanes, fb.log_evidence.tolist())):
                trace = traces[t]
                trace.append(ll)
                if len(trace) > 1 and abs(ll - trace[-2]) <= EM_TOL * max(abs(trace[-2]), 1.0):
                    converged[t] = True
                    fitted[t] = _lane_map(lambda a: a[j], model)
                elif starved[j]:
                    collapses[t // count] += 1
                    retry.append(t)
                else:
                    step.append(j)
            if len(step) < len(lanes):
                lanes = [lanes[j] for j in step]
                values, counts, weights = values[step], counts[step], weights[step]
            if not lanes:
                break
            model = _m_step(model, values, cfg, counts, weights)
            # A lane out of iterations keeps the model of its last M-step.
            keep = []
            for j, t in enumerate(lanes):
                if len(traces[t]) < cfg.max_iters:
                    keep.append(j)
                else:
                    fitted[t] = _lane_map(lambda a: a[j], model)
            if len(keep) < len(lanes):
                lanes = [lanes[j] for j in keep]
                values = values[keep]
                model = _lane_map(lambda a: a[keep], model)

    results = []
    for s in range(num_series):
        own = range(s * count, (s + 1) * count)
        if all(fitted[t] is None for t in own):
            results.append(None)
            continue
        finals = [traces[t][-1] if fitted[t] is not None else np.nan for t in own]
        best = int(np.nanargmax(finals))
        results.append(
            EmResult(
                model=fitted[own[best]],
                log_likelihoods=np.array(traces[own[best]]),
                converged=converged[own[best]],
                restart_index=best,
                degenerate_restarts=collapses[s],
                restart_final_lls=finals,
                restart_iterations=[len(traces[t]) for t in own],
                restart_converged=[converged[t] for t in own],
            )
        )
    return results


def canonical_state_order(model: HmmModel) -> np.ndarray:
    """Permutation sorting states by emission mean (Gaussian models)."""
    if isinstance(model.emission, GaussianEmission):
        return np.argsort(model.emission.means, kind="stable")
    return np.arange(model.num_states)


def reorder_states(model: HmmModel, order: np.ndarray) -> HmmModel:
    """Model with states permuted by ``order``: every parameter array of a
    plain model has the state axis first, and the transition matrix has it
    second too."""
    rows = _lane_map(lambda a: a[order], model)
    return replace(rows, transition=rows.transition[:, order])
