"""Baum-Welch estimation for Gaussian and discrete emission HMMs.

The Gaussian path supports the tied symmetric transition structure
(stay probability 1-eta, uniform off-diagonal) and a single shared
standard deviation across states. Initial means come from 1-D k-means;
multiple jittered restarts guard against local optima.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .inference import forward_backward, posterior_marginals
from .model import (
    DiscreteEmission,
    GaussianEmission,
    HmmModel,
    ModelError,
    ObservationSequence,
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
    if k < 1:
        raise ModelError("k must be >= 1")
    if k > np.unique(x).size:
        raise ModelError(f"k={k} exceeds number of distinct values")
    rng = np.random.default_rng(seed)

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
        if self.num_states < 1:
            raise ModelError("num_states must be >= 1")
        if self.max_iters < 1:
            raise ModelError("max_iters must be >= 1")
        if self.num_restarts < 1:
            raise ModelError(f"num_restarts must be >= 1, got {self.num_restarts}")
        if self.seed < 0:
            raise ModelError(f"seed must be >= 0, got {self.seed}")


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


def _stack(models) -> HmmModel:
    return _lane_map(lambda *a: np.stack(a), *models)


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
    and posterior state marginals."""
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
        means = weights.swapaxes(-1, -2) @ x / state_weight
        weighted_sq = weights * (x[:, None] - means[:, None, :]) ** 2
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
        one_hot = obs_values.astype(int)[:, None] == np.arange(k)
        table = weights.swapaxes(-1, -2) @ one_hot.astype(float)
        table /= table.sum(axis=-1, keepdims=True)
        emission = DiscreteEmission(table)

    return HmmModel(initial, transition, emission)


def _is_gaussian(obs) -> bool:
    return np.issubdtype(np.asarray(obs.values).dtype, np.floating)


def em_fit(obs: ObservationSequence, cfg: EmConfig) -> EmResult:
    """Best-of-restarts Baum-Welch fit; each restart owns a derived RNG stream.

    All restarts run in lock-step as the lanes of one lane model, so one
    forward-backward pass per iteration serves every live restart. A lane
    leaves the batch when it converges or reaches ``max_iters``. A lane
    that collapses (some state gets no posterior weight) starts a new try
    from its own stream; after three collapsed tries the restart is
    degenerate. The winner is the first restart with the highest final
    log-likelihood.
    """
    if len(obs) <= cfg.num_states:
        raise ModelError("need more observations than states")
    x = obs.values.astype(float) if _is_gaussian(obs) else obs.values
    count = cfg.num_restarts
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(count)]
    traces = [[] for _ in range(count)]  # log-likelihoods of each restart's current try
    converged = [False] * count
    tries = [0] * count  # collapsed tries per restart
    fitted = [None] * count

    # Lane j of ``model`` runs restart lanes[j]; prev[j] is its last
    # log-likelihood, NaN before the first iteration of a try, which makes
    # the convergence test false.
    lanes = np.arange(count)
    prev = np.full(count, np.nan)
    model = _stack([_initial_model(x, cfg, rng) for rng in rngs])
    while lanes.size:
        fb = forward_backward(model, obs)
        ll = fb.log_evidence
        for r, value in zip(lanes.tolist(), ll.tolist()):
            traces[r].append(value)
        done = np.abs(ll - prev) <= EM_TOL * np.maximum(np.abs(prev), 1.0)
        weights = posterior_marginals(fb)
        counts = _expected_transition_counts(model, fb)
        # The untied M-step divides a state's transition counts by its
        # weight over indices 0..n-2, so that weight must not vanish either.
        held = weights if cfg.tie_transitions else weights[..., :-1, :]
        collapsed = (held.sum(axis=-2) < _DEGENERATE_WEIGHT).any(axis=-1) & ~done
        prev = ll
        retried = []
        if done.any() or collapsed.any():
            for j in np.flatnonzero(done):
                converged[lanes[j]] = True
                fitted[lanes[j]] = _lane_map(lambda a: a[j], model)
            for r in lanes[collapsed].tolist():
                tries[r] += 1
                if tries[r] < 3:
                    traces[r] = []
                    retried.append(r)
            step = ~(done | collapsed)
            lanes, prev = lanes[step], prev[step]
            if lanes.size:
                model = _lane_map(lambda a: a[step], model)
                counts, weights = counts[step], weights[step]
        if lanes.size:
            model = _m_step(model, x, cfg, counts, weights)
            # A lane out of iterations keeps the model of its last M-step.
            spent = np.array([len(traces[r]) == cfg.max_iters for r in lanes.tolist()])
            if spent.any():
                for j in np.flatnonzero(spent):
                    fitted[lanes[j]] = _lane_map(lambda a: a[j], model)
                lanes, prev = lanes[~spent], prev[~spent]
                if lanes.size:
                    model = _lane_map(lambda a: a[~spent], model)
        if retried:
            fresh = _stack([_initial_model(x, cfg, rngs[r]) for r in retried])
            model = _lane_map(lambda *a: np.concatenate(a), model, fresh) if lanes.size else fresh
            lanes = np.concatenate([lanes, retried])
            prev = np.concatenate([prev, np.full(len(retried), np.nan)])

    if fitted.count(None) == count:
        raise DegenerateFitError("all EM restarts were degenerate")
    finals = [trace[-1] if fit is not None else np.nan for trace, fit in zip(traces, fitted)]
    best = int(np.nanargmax(finals))
    return EmResult(
        model=fitted[best],
        log_likelihoods=np.array(traces[best]),
        converged=converged[best],
        restart_index=best,
        degenerate_restarts=sum(tries),
        restart_final_lls=finals,
        restart_iterations=[len(trace) for trace in traces],
        restart_converged=converged,
    )


def canonical_state_order(model: HmmModel) -> np.ndarray:
    """Permutation sorting states by emission mean (Gaussian models)."""
    if isinstance(model.emission, GaussianEmission):
        return np.argsort(model.emission.means, kind="stable")
    return np.arange(model.num_states)


def reorder_states(model: HmmModel, order: np.ndarray) -> HmmModel:
    """Model with states permuted by ``order``."""
    if isinstance(model.emission, GaussianEmission):
        emission = GaussianEmission(
            model.emission.means[order], model.emission.sigmas[order]
        )
    else:
        emission = DiscreteEmission(model.emission.table[order])
    return HmmModel(
        model.initial[order],
        model.transition[np.ix_(order, order)],
        emission,
    )
