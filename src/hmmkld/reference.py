"""Reference implementations used as oracles and benchmark baselines.

Two independent routes to the influence vector live here:

* an exhaustive enumeration over all m^n hidden sequences (exact, tiny
  inputs only), which validates the collapse of the full-sequence
  relative entropy to a single-position marginal divergence;
* a quadratic "naive" engine that re-runs a modified forward-backward
  pass per observation with that observation marginalized out. It is
  vectorized across positions but still does O(n^2 m^2) work, so it also
  serves as the super-linear baseline for complexity comparisons.
"""

import itertools

import numpy as np

from .inference import forward_backward, posterior_marginals
from .influence import InfluenceProfile, kl_divergence
from .model import EvidenceImpossibleError, HmmModel, ObservationSequence


def enumerate_log_joint(model: HmmModel, obs: ObservationSequence):
    """All hidden sequences with their joint log probability (density).

    Returns ``(seqs, logp)`` where ``seqs`` has shape (m^n, n). Intended
    for n and m small enough that m^n is tiny.
    """
    logw = model.log_emission_matrix(obs.values)
    n, m = logw.shape
    seqs = np.array(list(itertools.product(range(m), repeat=n)), dtype=int)
    with np.errstate(divide="ignore"):
        log_gamma = np.log(model.initial)
        log_alpha = np.log(model.transition)
    logp = log_gamma[seqs[:, 0]].copy()
    for i in range(1, n):
        logp += log_alpha[seqs[:, i - 1], seqs[:, i]]
    for i in range(n):
        logp += logw[i, seqs[:, i]]
    return seqs, logp


def _normalize_log(logp: np.ndarray) -> np.ndarray:
    top = logp.max()
    if np.isneginf(top):
        raise EvidenceImpossibleError("evidence has probability zero")
    p = np.exp(logp - top)
    return p / p.sum()


def enumeration_posterior(model, obs, drop=()):
    """Posterior over full hidden sequences, with the emission factors at
    the indices in ``drop`` removed from the evidence."""
    logw = model.log_emission_matrix(obs.values)
    seqs, logp = enumerate_log_joint(model, obs)
    for j in drop:
        logp = logp - logw[j, seqs[:, j]]
    return seqs, _normalize_log(logp)


def enumeration_log_evidence(model: HmmModel, obs: ObservationSequence) -> float:
    _, logp = enumerate_log_joint(model, obs)
    top = logp.max()
    return float(top + np.log(np.exp(logp - top).sum()))


def enumeration_marginals(model, obs, drop=()) -> np.ndarray:
    """Posterior state marginals by brute-force summation, shape (n, m)."""
    seqs, post = enumeration_posterior(model, obs, drop=drop)
    n = seqs.shape[1]
    m = model.num_states
    marg = np.zeros((n, m))
    for i in range(n):
        for s in range(m):
            marg[i, s] = post[seqs[:, i] == s].sum()
    return marg


def enumeration_influence(model, obs, window: int = 1) -> np.ndarray:
    """Full-sequence relative entropy per (window of) removed observation(s).

    Entry j is the divergence between the posterior over all hidden
    sequences with observations j..j+window-1 removed and the posterior
    with complete evidence, computed by exhaustive enumeration.
    """
    n = len(obs)
    logw = model.log_emission_matrix(obs.values)
    seqs, logp = enumerate_log_joint(model, obs)
    post_full = _normalize_log(logp)
    emit_terms = np.stack([logw[j, seqs[:, j]] for j in range(n)])
    with np.errstate(divide="ignore"):
        chain_logp = np.log(model.initial)[seqs[:, 0]].copy()
        log_alpha = np.log(model.transition)
    for i in range(1, n):
        chain_logp += log_alpha[seqs[:, i - 1], seqs[:, i]]
    # Summing kept emission terms (rather than subtracting dropped ones)
    # keeps -inf terms from producing NaN.
    k = np.empty(n - window + 1)
    keep = np.ones(n, dtype=bool)
    for j in range(n - window + 1):
        keep[:] = True
        keep[j : j + window] = False
        post_drop = _normalize_log(chain_logp + emit_terms[keep].sum(axis=0))
        k[j] = kl_divergence(post_drop, post_full)
    return k


def kld_influence_naive(model: HmmModel, obs: ObservationSequence) -> InfluenceProfile:
    """Quadratic baseline: one modified forward-backward re-run per index.

    For each j the emission factor at j is marginalized out and the
    resulting leave-one-out marginal at j is taken from the re-run pass.
    The per-j re-runs are batched into (n, m) array updates; total work
    is O(n^2 m^2).
    """
    fb = forward_backward(model, obs)
    marg = posterior_marginals(fb)
    n, m = marg.shape
    w = fb.scaled_weights()
    alpha = model.transition

    # Forward re-runs: row j holds the scaled forward vector of the pass
    # that skips the emission factor at j.
    state = np.tile(model.initial * w[0], (n, 1))
    state[0] = model.initial
    sums = state.sum(axis=1)
    if np.any(sums == 0.0):
        raise EvidenceImpossibleError("impossible evidence at index 0")
    state /= sums[:, None]
    rec_fwd = np.empty((n, m))
    rec_fwd[0] = state[0]
    for i in range(1, n):
        propagated = state @ alpha
        state = propagated * w[i]
        state[i] = propagated[i]
        sums = state.sum(axis=1)
        if np.any(sums == 0.0):
            raise EvidenceImpossibleError(f"impossible evidence at index {i}")
        state /= sums[:, None]
        rec_fwd[i] = state[i]

    # Backward re-runs, mirrored.
    state = np.ones((n, m))
    rec_bwd = np.empty((n, m))
    rec_bwd[n - 1] = state[n - 1]
    for i in range(n - 2, -1, -1):
        weighted = state * w[i + 1]
        weighted[i + 1] = state[i + 1]
        state = weighted @ alpha.T
        tops = state.max(axis=1)
        if np.any(tops == 0.0):
            raise EvidenceImpossibleError(f"impossible evidence after index {i}")
        state /= tops[:, None]
        rec_bwd[i] = state[i]

    loo = rec_fwd * rec_bwd
    loo /= loo.sum(axis=1, keepdims=True)
    k = np.array([kl_divergence(loo[j], marg[j]) for j in range(n)])
    return InfluenceProfile(k=k, loo_marginals=loo, marginals=marg)


def chain_marginals(initial: np.ndarray, transition: np.ndarray, n: int) -> np.ndarray:
    """Marginals of a plain Markov chain at indices 0..n-1 by matrix powers."""
    marg = np.empty((n, initial.size))
    marg[0] = initial
    for i in range(1, n):
        marg[i] = marg[i - 1] @ transition
    return marg
