"""Linear-time KL-divergence influence of observations on the hidden path.

The influence of observation j is the relative entropy between the
posterior of the hidden sequence computed without observation j and the
posterior computed with all observations. The whole influence vector is
obtained in O(n m^2) from the standard forward/backward vectors plus one
extra emission-free forward recursion ("star" forward). A windowed
variant removes h consecutive observations at a time in O(n h m^2).
"""

from dataclasses import dataclass

import numpy as np

from .inference import ForwardBackward, forward_backward, posterior_marginals
from .model import HmmModel, ModelError, ObservationSequence, check_count, check_plain


class LeaveOneOutImpossibleError(ArithmeticError):
    """The leave-out evidence came out 0 in every state.

    The true leave-out evidence is positive whenever the full evidence is:
    a path that is positive with every observation stays positive with
    some left out. So this error means that the product of the star
    forward row and the backward row underflowed in every state.
    """


@dataclass(frozen=True)
class StarForward:
    """Forward vectors with the current index's emission factor omitted.

    Row i is the propagation of the scaled forward row i-1 through the
    transition matrix (row 0 is the initial distribution), so it shares
    the cumulative log scale of forward row i-1.
    """

    fstar: np.ndarray
    log_scale: np.ndarray


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-observation influence values and the marginals behind them."""

    k: np.ndarray
    loo_marginals: np.ndarray
    marginals: np.ndarray

    def __len__(self) -> int:
        return self.k.size


@dataclass(frozen=True)
class WindowInfluenceProfile:
    """Influence of each window of h consecutive observations."""

    h: int
    k: np.ndarray

    def __len__(self) -> int:
        return self.k.size


def forward_star(model: HmmModel, fb: ForwardBackward) -> StarForward:
    """Emission-free forward recursion driven by the standard forward rows."""
    n = len(fb)
    fstar = np.empty_like(fb.fwd)
    log_scale = np.empty(n)
    fstar[0] = model.initial
    log_scale[0] = 0.0
    fstar[1:] = fb.fwd[:-1] @ model.transition
    log_scale[1:] = fb.log_scale_fwd[:-1]
    return StarForward(fstar=fstar, log_scale=log_scale)


def loo_marginal(star: StarForward, fb: ForwardBackward, j: int) -> np.ndarray:
    """Posterior marginal of the hidden state at j given all other observations."""
    prod = star.fstar[j] * fb.bwd[j]
    total = prod.sum()
    if total == 0.0:
        raise LeaveOneOutImpossibleError(
            f"impossible leave-one-out evidence at index {j}"
        )
    return prod / total


def kl_divergence(p, q):
    """Relative entropy sum p log(p/q) over the last axis of two (..., m) arrays.

    0 log(0/q) = 0 and p log(p/0) = +inf; a NaN entry in a row makes that
    row's result NaN. Returns a float for 1-D input and an array of shape
    ``p.shape[:-1]`` otherwise.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    # log(p) - log(q) rather than log(p/q): the ratio can overflow when q
    # underflows toward the denormal range. Where p = 0 the term is 0 * q,
    # which is 0 but keeps a NaN in q.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p == 0.0, 0.0 * q, p * (np.log(p) - np.log(q)))
    # The divergence is never negative (Gibbs' inequality); a negative sum
    # of nearly cancelling terms is rounding error. NaN passes through.
    total = np.maximum(terms.sum(axis=-1), 0.0)
    return float(total) if total.ndim == 0 else total


def kld_influence(model: HmmModel, obs: ObservationSequence) -> InfluenceProfile:
    """Influence of every observation in one O(n m^2) pass."""
    check_plain(model, "kld_influence")
    fb = forward_backward(model, obs)
    star = forward_star(model, fb)
    marg = posterior_marginals(fb)
    n = len(fb)
    loo = np.empty_like(marg)
    k = np.empty(n)
    for j in range(n):
        loo[j] = loo_marginal(star, fb, j)
        k[j] = kl_divergence(loo[j], marg[j])
    return InfluenceProfile(k=k, loo_marginals=loo, marginals=marg)


def check_window(name: str, h, n: int) -> None:
    """Refuse with ``ModelError`` a window length ``h`` outside [1, n]."""
    check_count(name, h)
    if h > n:
        raise ModelError(f"{name} must be <= {n}, got {h}")


def _row_normalized(mat: np.ndarray) -> np.ndarray:
    """Rows scaled to sum to one; a row of zeros (a state with no way on)
    stays zero, so that a zero weight on it cannot turn into NaN."""
    total = mat.sum(axis=-1, keepdims=True)
    return np.divide(mat, total, out=np.zeros_like(mat), where=total > 0)


def windowed_influence(
    model: HmmModel, obs: ObservationSequence, h: int
) -> WindowInfluenceProfile:
    """Influence of each window of h consecutive observations.

    Removing a window of observations leaves the hidden sub-chain over the
    window Markov under both posteriors, so the relative entropy of the
    full hidden sequence collapses to the relative entropy of the two
    sub-chain laws. That is computed by the chain rule: divergence of the
    initial window marginal plus expected divergences of the successive
    transition kernels, using emission-free backward propagation inside
    the window. Cost is O(h m^2) per window position; every step below
    works on all windows at once.
    """
    check_plain(model, "windowed_influence")
    n = len(obs)
    check_window("h", h, n)
    fb = forward_backward(model, obs)
    star = forward_star(model, fb)
    marg = posterior_marginals(fb)
    alpha = model.transition
    num_windows = n - h + 1
    # hvec[t, j]: emission-free backward vector at offset t of the window
    # starting at j, scaled by its max.
    hvec = np.empty((h, num_windows, model.num_states))
    hvec[h - 1] = fb.bwd[h - 1 :]
    for t in range(h - 2, -1, -1):
        v = hvec[t + 1] @ alpha.T
        hvec[t] = v / v.max(axis=1, keepdims=True)
    # Initial marginals of the two sub-chain laws at each window start.
    p_star = star.fstar[:num_windows] * hvec[0]
    total = p_star.sum(axis=1, keepdims=True)
    if np.any(total == 0.0):
        j = int(np.argmax(total[:, 0] == 0.0))
        raise LeaveOneOutImpossibleError(
            f"impossible leave-out evidence for window at index {j}"
        )
    m_star = p_star / total
    k = kl_divergence(m_star, marg[:num_windows])
    # Full-evidence transition kernel into each index i + 1, shared by
    # every window that covers i.
    kernel_full = _row_normalized(
        alpha * (fb.scaled_weights() * fb.bwd)[1:, None, :]
    )
    for t in range(h - 1):
        kernel_star = _row_normalized(alpha * hvec[t + 1][:, None, :])
        row_kl = kl_divergence(kernel_star, kernel_full[t : t + num_windows])
        # States the window cannot be in add nothing, even where their
        # kernel divergence is infinite.
        terms = np.multiply(m_star, row_kl, out=np.zeros_like(m_star), where=m_star > 0)
        k += terms.sum(axis=1)
        m_star = (m_star[:, None, :] @ kernel_star)[:, 0, :]
    return WindowInfluenceProfile(h=h, k=k)
