"""Baum-Welch estimation for Gaussian and discrete emission HMMs.

The Gaussian path supports the tied symmetric transition structure
(stay probability 1-eta, uniform off-diagonal) and a single shared
standard deviation across states. Initial means come from 1-D k-means;
multiple jittered restarts guard against local optima.
"""

from dataclasses import dataclass, field
from typing import Optional

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


@dataclass
class EmResult:
    """Fitted model plus the log-likelihood trace of the winning restart."""

    model: HmmModel
    log_likelihoods: np.ndarray
    converged: bool
    restart_index: int
    degenerate_restarts: int = 0
    restart_final_lls: list = field(default_factory=list)


def _tied_transition(eta: float, m: int) -> np.ndarray:
    eta = float(np.clip(eta, 0.0, 1.0))
    if m == 1:
        return np.ones((1, 1))
    mat = np.full((m, m), eta / (m - 1))
    np.fill_diagonal(mat, 1.0 - eta)
    return mat


def _initial_gaussian_model(x, cfg: EmConfig, rng) -> HmmModel:
    m = cfg.num_states
    spread = x.std()
    if spread == 0.0:
        spread = max(abs(x.mean()), 1.0) * 1e-3
    _, means = kmeans_1d(x, m, rng)
    means = means + rng.normal(0.0, 0.1 * spread, m)
    sigma = max(spread, SIGMA_FLOOR)
    emission = GaussianEmission.homoscedastic(means, sigma)
    transition = _tied_transition(0.1, m)
    initial = np.full(m, 1.0 / m)
    return HmmModel(initial, transition, emission)


def _initial_discrete_model(x, cfg: EmConfig, rng) -> HmmModel:
    m = cfg.num_states
    k = int(np.max(x)) + 1
    table = rng.random((m, k)) + 1.0
    table /= table.sum(axis=1, keepdims=True)
    transition = _tied_transition(0.1, m)
    initial = np.full(m, 1.0 / m)
    return HmmModel(initial, transition, DiscreteEmission(table))


def _expected_transition_counts(model, fb) -> np.ndarray:
    """Sum over i of the posterior transition distributions, shape (m, m).

    The posterior of the transition i -> i+1 is proportional to
    fwd[i, a] alpha[a, b] w[i+1, b] bwd[i+1, b] with normalizer z[i], so
    the sum over i is one matrix product (Rabiner 1989).
    """
    alpha = model.transition
    ahead = (fb.scaled_weights() * fb.bwd)[1:]
    z = ((fb.fwd[:-1] @ alpha) * ahead).sum(axis=1)
    return alpha * ((fb.fwd[:-1] / z[:, None]).T @ ahead)


def _m_step(model, obs_values, cfg, fb, weights) -> HmmModel:
    m = cfg.num_states
    state_weight = weights.sum(axis=0)
    if np.any(state_weight < _DEGENERATE_WEIGHT):
        raise DegenerateFitError("a state received no posterior weight")

    counts = _expected_transition_counts(model, fb) if m > 1 else None
    if m == 1:
        transition = np.ones((1, 1))
    elif cfg.tie_transitions:
        n = weights.shape[0]
        off_diag = counts.sum() - np.trace(counts)
        transition = _tied_transition(off_diag / (n - 1), m)
    else:
        transition = counts / counts.sum(axis=1, keepdims=True)

    initial = weights[0] / weights[0].sum()

    if isinstance(model.emission, GaussianEmission):
        x = obs_values
        means = weights.T @ x / state_weight
        sq = (x[:, None] - means[None, :]) ** 2
        if cfg.homoscedastic:
            var = float((weights * sq).sum() / weights.shape[0])
            sigmas = np.full(m, max(np.sqrt(var), SIGMA_FLOOR))
        else:
            var = (weights * sq).sum(axis=0) / state_weight
            sigmas = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        emission = GaussianEmission(means, sigmas)
    else:
        k = model.emission.num_symbols
        symbols = obs_values.astype(int)
        table = np.zeros((m, k))
        for y in range(k):
            table[:, y] = weights[symbols == y].sum(axis=0)
        table /= table.sum(axis=1, keepdims=True)
        emission = DiscreteEmission(table)

    return HmmModel(initial, transition, emission)


def _single_em_run(obs, cfg: EmConfig, rng) -> EmResult:
    x = obs.values.astype(float) if _is_gaussian(obs) else obs.values
    if _is_gaussian(obs):
        model = _initial_gaussian_model(x, cfg, rng)
    else:
        model = _initial_discrete_model(x, cfg, rng)
    trace = []
    converged = False
    for _ in range(cfg.max_iters):
        fb = forward_backward(model, obs)
        trace.append(fb.log_evidence)
        if len(trace) > 1:
            prev, cur = trace[-2], trace[-1]
            if abs(cur - prev) <= EM_TOL * max(abs(prev), 1.0):
                converged = True
                break
        weights = posterior_marginals(fb)
        model = _m_step(model, x, cfg, fb, weights)
    return EmResult(
        model=model,
        log_likelihoods=np.array(trace),
        converged=converged,
        restart_index=0,
    )


def _is_gaussian(obs) -> bool:
    return np.issubdtype(np.asarray(obs.values).dtype, np.floating)


def em_fit(obs: ObservationSequence, cfg: EmConfig) -> EmResult:
    """Best-of-restarts Baum-Welch fit; each restart owns a derived RNG stream."""
    if len(obs) <= cfg.num_states:
        raise ModelError("need more observations than states")
    streams = np.random.SeedSequence(cfg.seed).spawn(max(cfg.num_restarts, 1))
    best: Optional[EmResult] = None
    best_index = -1
    degenerate = 0
    finals = []
    for idx, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        # A degenerate collapse gets a fresh derived seed before giving up.
        for _ in range(3):
            try:
                result = _single_em_run(obs, cfg, rng)
                break
            except DegenerateFitError:
                degenerate += 1
                result = None
        if result is None:
            finals.append(float("nan"))
            continue
        finals.append(float(result.log_likelihoods[-1]))
        if best is None or result.log_likelihoods[-1] > best.log_likelihoods[-1]:
            best = result
            best_index = idx
    if best is None:
        raise DegenerateFitError("all EM restarts were degenerate")
    best.restart_index = best_index
    best.degenerate_restarts = degenerate
    best.restart_final_lls = finals
    return best


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
