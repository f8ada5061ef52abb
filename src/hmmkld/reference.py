"""Reference implementations used as oracles and benchmark baselines.

Three independent routes to the influence vector live here:

* an exhaustive enumeration over all m^n hidden sequences (exact, tiny
  inputs only), which validates the collapse of the full-sequence
  relative entropy to a single-position marginal divergence;
* a quadratic "naive" engine that re-runs a modified forward-backward
  pass per observation with that observation marginalized out. It is
  vectorized across positions but still does O(n^2 m^2) work, so it also
  serves as the super-linear baseline for complexity comparisons;
* a log-space engine that keeps every forward and backward row as a
  logarithm, so that no row, marginal or weight underflows: it gives K
  where a full marginal is denormal, and +inf only where a state that the
  leave-out law allows has a true zero probability under full evidence.
  Its window form takes the chain rule over the window's hidden sub-chain,
  with every kernel formed in log space.
"""

import itertools

import numpy as np

from .inference import forward_backward, posterior_marginals
from .influence import InfluenceProfile, kl_divergence
from .model import EvidenceImpossibleError, HmmModel, ObservationSequence, check_count, check_plain


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
    w = np.exp(fb.log_weights)
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
        # Each row peaks at 1 before the matmul; a row of zeros turns into
        # NaN here and fails the test below.
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


def _log_sum_exp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(a) over ``axis``; a slice of all -inf gives -inf."""
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isneginf(top), 0.0, top)
    with np.errstate(divide="ignore"):
        return np.squeeze(np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top, axis)


def _log_space_rows(model: HmmModel, logw: np.ndarray) -> tuple:
    """The log star-forward rows, the log backward rows and the log
    transition matrix, each row shifted by its maximum (a constant per row
    cancels out of every law formed from it). Impossible evidence raises."""
    n, m = logw.shape
    with np.errstate(divide="ignore"):
        log_initial = np.log(model.initial)
        log_alpha = np.log(model.transition)
    log_star = np.empty((n, m))
    log_star[0] = log_initial
    for i in range(n):
        log_fwd = log_star[i] + logw[i]
        top = log_fwd.max()
        if top == -np.inf:
            raise EvidenceImpossibleError(f"impossible evidence at index {i}")
        if i + 1 < n:
            log_star[i + 1] = _log_sum_exp((log_fwd - top)[:, None] + log_alpha, 0)
    # With the evidence positive, every backward row has a finite entry.
    log_bwd = np.zeros((n, m))
    for i in range(n - 2, -1, -1):
        row = _log_sum_exp(log_alpha + (logw[i + 1] + log_bwd[i + 1])[None, :], 1)
        log_bwd[i] = row - row.max()
    return log_star, log_bwd, log_alpha


def _log_normalized(a: np.ndarray) -> np.ndarray:
    """Rows of log weights (last axis) less their log-sum-exp; a row of -inf
    stays -inf."""
    total = _log_sum_exp(a, -1)
    return a - np.where(np.isneginf(total), 0.0, total)[..., None]


def _kl_terms(log_mass: np.ndarray, log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """sum exp(log_mass) (log_p - log_q) over the last axis. A term of mass
    -inf is 0, and one of mass > -inf where log_q = -inf is +inf, even where
    the mass underflows to 0 in double."""
    with np.errstate(invalid="ignore"):
        terms = np.exp(log_mass) * (log_p - log_q)
    terms[np.isneginf(log_q)] = np.inf
    terms[np.isneginf(log_mass)] = 0.0
    return terms.sum(axis=-1)


def kld_influence_log_space(model: HmmModel, obs: ObservationSequence) -> np.ndarray:
    """Pointwise influence K from log-space recursions, O(n m^2).

    The emission-free ("star") forward and the backward rows are carried
    as logarithms, each step a log-sum-exp over the previous state. At each
    index j the leave-one-out marginal log p is the star-forward plus the
    backward row, and the full marginal log q that sum plus the log emission
    weights, each normalized by its own log-sum-exp; K_j = sum p (log p -
    log q). A term where log p = -inf is 0; one where log p > -inf meets
    log q = -inf is +inf, even where p itself underflows to 0 in double.
    Shares no code with ``inference``.
    """
    check_plain(model, "kld_influence_log_space")
    logw = model.log_emission_matrix(obs.values)
    log_star, log_bwd, _ = _log_space_rows(model, logw)
    log_p = _log_normalized(log_star + log_bwd)
    log_q = _log_normalized(log_star + log_bwd + logw)
    return _kl_terms(log_p, log_p, log_q)


def windowed_influence_log_space(
    model: HmmModel, obs: ObservationSequence, h: int
) -> np.ndarray:
    """Window influence K from log-space recursions and the chain rule,
    O(n h m^2).

    Conditioned on the hidden states of the window j..j+h-1, the rest of the
    hidden sequence has the same law with and without the window's
    observations, so K_j is the divergence of the two laws of the window's
    sub-chain: that of its first state plus, offset by offset, the expected
    divergence of the transition kernels. Without the window, the first
    state's law is the star-forward row times p's emission-free backward
    row v, carried back from the window's last backward row, and the kernel
    into index i + 1 is alpha v_{i+1} row-normalized; with every
    observation they are the forward-backward marginal and alpha w_{i+1}
    B_{i+1}. Every law is formed in log space as a log-sum-exp, and the
    terms follow ``kld_influence_log_space``'s rules for 0 and +inf.
    """
    check_plain(model, "windowed_influence_log_space")
    logw = model.log_emission_matrix(obs.values)
    n = logw.shape[0]
    check_count("h", h, most=n)
    log_star, log_bwd, log_alpha = _log_space_rows(model, logw)
    log_q_kernel = _log_normalized(log_alpha + (logw + log_bwd)[:, None, :])
    k = np.empty(n - h + 1)
    for j in range(n - h + 1):
        log_v = [log_bwd[j + h - 1]]
        for _ in range(h - 1):
            log_v.append(_log_sum_exp(log_alpha + log_v[-1][None, :], 1))
        log_v.reverse()
        log_p = _log_normalized(log_star[j] + log_v[0])
        total = _kl_terms(log_p, log_p, _log_normalized(log_star[j] + logw[j] + log_bwd[j]))
        for t in range(1, h):
            log_kernel = _log_normalized(log_alpha + log_v[t][None, :])
            joint = log_p[:, None] + log_kernel
            total += _kl_terms(joint, log_kernel, log_q_kernel[j + t]).sum()
            log_p = _log_sum_exp(joint, 0)
        k[j] = total
    return k


def chain_marginals(initial: np.ndarray, transition: np.ndarray, n: int) -> np.ndarray:
    """Marginals of a plain Markov chain at indices 0..n-1 by matrix powers."""
    marg = np.empty((n, initial.size))
    marg[0] = initial
    for i in range(1, n):
        marg[i] = marg[i - 1] @ transition
    return marg
