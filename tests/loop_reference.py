"""Loop-at-a-time versions of the whole-array library code, kept as test oracles.

Each function here steps through Python loops the way the library did
before its window, transition-count and bootstrap computations became
whole-array numpy. The property tests require the library to match them.
"""

import numpy as np

from hmmkld import (
    LeaveOneOutImpossibleError,
    ModelError,
    forward_backward,
    forward_star,
    posterior_marginals,
)


def kl_row(p, q) -> float:
    """sum p log(p/q) over one row, with 0 log(0/q) = 0 and p log(p/0) = +inf."""
    mask = p > 0
    if np.any(q[mask] == 0.0):
        return float("inf")
    ps = p[mask]
    return float(np.dot(ps, np.log(ps) - np.log(q[mask])))


def _row_normalized(mat):
    return mat / mat.sum(axis=1, keepdims=True)


def windowed_influence_loop(model, obs, h) -> np.ndarray:
    """Window influence K, one window, one offset and one state at a time."""
    n = len(obs)
    if not 1 <= h <= n:
        raise ModelError(f"window length {h} out of range [1, {n}]")
    fb = forward_backward(model, obs)
    star = forward_star(model, fb)
    marg = posterior_marginals(fb)
    alpha = model.transition
    w = fb.scaled_weights()
    num_windows = n - h + 1
    k = np.empty(num_windows)
    for j in range(num_windows):
        last = j + h - 1
        hvec = [None] * h
        hvec[h - 1] = fb.bwd[last]
        for t in range(h - 2, -1, -1):
            v = alpha @ hvec[t + 1]
            hvec[t] = v / v.max()
        p_star = star.fstar[j] * hvec[0]
        total = p_star.sum()
        if total == 0.0:
            raise LeaveOneOutImpossibleError(
                f"impossible leave-out evidence for window at index {j}"
            )
        p_star = p_star / total
        total_k = kl_row(p_star, marg[j])
        m_star = p_star
        for t in range(h - 1):
            i = j + t
            kernel_star = _row_normalized(alpha * hvec[t + 1][None, :])
            kernel_full = _row_normalized(alpha * (w[i + 1] * fb.bwd[i + 1])[None, :])
            for s in range(model.num_states):
                if m_star[s] > 0:
                    total_k += m_star[s] * kl_row(kernel_star[s], kernel_full[s])
            m_star = m_star @ kernel_star
        k[j] = total_k
    return k


def transition_counts_loop(model, fb) -> np.ndarray:
    """Baum-Welch expected transition counts, one posterior xi_i at a time."""
    n, m = fb.fwd.shape
    w = fb.scaled_weights()
    counts = np.zeros((m, m))
    for i in range(n - 1):
        xi = model.transition * np.outer(fb.fwd[i], w[i + 1] * fb.bwd[i + 1])
        counts += xi / xi.sum()
    return counts


def pair_count_auc(h1, h0) -> float:
    """P(h1 > h0) + P(h1 = h0) / 2 by comparing every pair."""
    wins = (h1[:, None] > h0[None, :]).sum() + 0.5 * (h1[:, None] == h0[None, :]).sum()
    return wins / (h1.size * h0.size)


def bootstrap_auc_loop(h1, h0, num_bootstrap, ci_level, seed) -> tuple:
    """(auc, ci_lower, ci_upper), replaying the bootstrap stream draw by draw."""
    h1 = np.asarray(h1, dtype=float)
    h0 = np.asarray(h0, dtype=float)
    auc = pair_count_auc(h1, h0)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    boot = np.empty(num_bootstrap)
    for b in range(num_bootstrap):
        b1 = h1[rng.integers(h1.size, size=h1.size)]
        b0 = h0[rng.integers(h0.size, size=h0.size)]
        boot[b] = pair_count_auc(b1, b0)
    tail = (1.0 - ci_level) / 2.0
    lower, upper = np.quantile(boot, [tail, 1.0 - tail])
    return float(auc), float(min(lower, auc)), float(max(upper, auc))
