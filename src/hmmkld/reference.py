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
from .model import EvidenceImpossibleError, HmmModel, ObservationSequence, check_plain


def enumerate_log_joint(model: HmmModel, obs: ObservationSequence):
    """All hidden sequences with the two parts of their joint log
    probability (density).

    Returns ``(seqs, chain, emit)``: ``seqs`` has shape (m^n, n), ``chain``
    holds each sequence's log probability under the Markov chain and
    ``emit[i]`` each sequence's log emission term at index i. Intended for
    n and m small enough that m^n is tiny.
    """
    logw = model.log_emission_matrix(obs.values)
    n, m = logw.shape
    seqs = np.array(list(itertools.product(range(m), repeat=n)), dtype=int)
    with np.errstate(divide="ignore"):
        chain = np.log(model.initial)[seqs[:, 0]]
        log_alpha = np.log(model.transition)
    for i in range(1, n):
        chain += log_alpha[seqs[:, i - 1], seqs[:, i]]
    emit = logw[np.arange(n), seqs].T
    return seqs, chain, emit


def _posterior(chain, emit, drop=()):
    """Posterior over the enumerated sequences and the log evidence, with the
    emission terms at the indices in ``drop`` left out. Summing the kept
    terms (rather than subtracting the dropped ones) keeps -inf terms from
    producing NaN. Evidence of probability zero raises."""
    keep = np.ones(emit.shape[0], dtype=bool)
    keep[list(drop)] = False
    logp = chain + emit[keep].sum(axis=0)
    top = logp.max()
    if np.isneginf(top):
        raise EvidenceImpossibleError("evidence has probability zero")
    p = np.exp(logp - top)
    total = p.sum()
    return p / total, float(top + np.log(total))


def enumeration_log_evidence(model: HmmModel, obs: ObservationSequence) -> float:
    _, chain, emit = enumerate_log_joint(model, obs)
    return _posterior(chain, emit)[1]


def enumeration_marginals(model, obs, drop=()) -> np.ndarray:
    """Posterior state marginals by brute-force summation, shape (n, m),
    with the emission factors at the indices in ``drop`` removed from the
    evidence."""
    seqs, chain, emit = enumerate_log_joint(model, obs)
    post, _ = _posterior(chain, emit, drop)
    return np.array([np.bincount(states, post, model.num_states) for states in seqs.T])


def enumeration_influence(model, obs, window: int = 1) -> np.ndarray:
    """Full-sequence relative entropy per (window of) removed observation(s).

    Entry j is the divergence between the posterior over all hidden
    sequences with observations j..j+window-1 removed and the posterior
    with complete evidence, computed by exhaustive enumeration.
    """
    _, chain, emit = enumerate_log_joint(model, obs)
    post_full, _ = _posterior(chain, emit)
    return np.array([
        kl_divergence(_posterior(chain, emit, range(j, j + window))[0], post_full)
        for j in range(len(obs) - window + 1)
    ])


def kld_influence_naive(model: HmmModel, obs: ObservationSequence) -> InfluenceProfile:
    """Quadratic baseline: one modified forward-backward re-run per index.

    For each j the emission factor at j is marginalized out and the
    resulting leave-one-out marginal at j is taken from the re-run pass.
    The per-j re-runs are batched into (n, m) array updates; total work
    is O(n^2 m^2).
    """
    check_plain(model, "kld_influence_naive")
    fb = forward_backward(model, obs)
    marg = posterior_marginals(fb)
    n, m = marg.shape
    w = fb.scaled_weights()
    alpha = model.transition

    # Forward re-runs: row j holds the scaled forward vector of the pass
    # that skips the emission factor at j.
    propagated = np.tile(model.initial, (n, 1))
    rec_fwd = np.empty((n, m))
    for i in range(n):
        state = propagated * w[i]
        state[i] = propagated[i]
        sums = state.sum(axis=1)
        if np.any(sums == 0.0):
            raise EvidenceImpossibleError(f"impossible evidence at index {i}")
        state /= sums[:, None]
        rec_fwd[i] = state[i]
        propagated = state @ alpha

    # Backward re-runs, mirrored.
    state = np.ones((n, m))
    rec_bwd = np.ones((n, m))
    for i in range(n - 2, -1, -1):
        weighted = state * w[i + 1]
        weighted[i + 1] = state[i + 1]
        # Each row peaks at 1 before the matmul, as in the rescaled fast pass;
        # a row of zeros turns into NaN here and fails the test below.
        with np.errstate(invalid="ignore"):
            state = (weighted / weighted.max(axis=1, keepdims=True)) @ alpha.T
        tops = state.max(axis=1)
        if not np.all(tops > 0.0):
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
