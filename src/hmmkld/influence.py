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

from .inference import ForwardBackward, _checked_product, _logsumexp, _normalized_product
from .inference import forward_backward, posterior_marginals
from .model import HmmModel, ObservationSequence, check_count, check_plain


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-observation influence values and the marginals behind them."""

    k: np.ndarray
    loo_marginals: np.ndarray
    marginals: np.ndarray

    def __len__(self) -> int:
        return self.k.shape[-1]


@dataclass(frozen=True)
class WindowInfluenceProfile:
    """Influence of each window of h consecutive observations."""

    h: int
    k: np.ndarray

    def __len__(self) -> int:
        return self.k.size


def forward_star(model: HmmModel, fb: ForwardBackward) -> np.ndarray:
    """Forward rows with the current index's emission factor omitted, (..., n, m).

    Row i is the scaled forward row i - 1 propagated through the transition
    matrix (row 0 is the initial distribution): the law of the state at i
    given the observations before i, up to the row's own positive factor.
    """
    return np.concatenate(
        [model.initial[..., None, :], fb.fwd[..., :-1, :] @ model.transition], axis=-2
    )


# The leave-out evidence is positive whenever the full evidence is, so a
# zero leave-out row is underflow.
_LEAVE_OUT = "impossible leave-out evidence"


def loo_marginal(fstar: np.ndarray, fb: ForwardBackward, j: int) -> np.ndarray:
    """Posterior marginal of the hidden state at j given all other observations,
    from the star forward rows of ``forward_star``. Refuses with
    ``ModelError`` a j outside [0, n - 1]."""
    check_count("j", j, least=0, most=len(fb) - 1)
    row = _normalized_product(fstar[..., j, None, :], fb.bwd[..., j, None, :], _LEAVE_OUT, j)
    return row[..., 0, :]


def kl_divergence(p, q):
    """Relative entropy sum p log(p/q) over the last axis of two (..., m) arrays.

    0 log(0/q) = 0 and p log(p/0) = +inf; a NaN entry in a row makes that
    row's result NaN. The rows broadcast against each other, so a q of
    shape (m,) serves every row of a (k, m) p. Returns a float for 1-D
    input and an array of the rows' broadcast shape otherwise.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    # log(p) - log(q) rather than log(p/q): the ratio can overflow when q
    # underflows toward the denormal range. Every term is formed as
    # p (log p - log q), and then the p = 0 terms, NaN or not, are
    # overwritten in place with 0 * q: 0, but keeping a NaN in q. Both
    # steps stay in the block, because 0 * inf warns. (asarray: for two
    # 0-d inputs the product is a numpy scalar, which has no buffer to
    # overwrite.)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.asarray(p * (np.log(p) - np.log(q)))
        np.multiply(0.0, q, out=terms, where=p == 0.0)
    # The divergence is never negative (Gibbs' inequality); a negative sum
    # of nearly cancelling terms is rounding error. NaN passes through.
    total = np.add.reduce(terms, axis=-1)
    return max(float(total), 0.0) if total.ndim == 0 else np.maximum(total, 0.0)


def kld_influence(model: HmmModel, obs: ObservationSequence | np.ndarray) -> InfluenceProfile:
    """Influence of every observation in one O(n m^2) pass. A lane model's
    profile, on one series or an (R, n) stack, is its lanes' own bit for bit."""
    fb = forward_backward(model, obs)
    marg = posterior_marginals(fb)
    loo = _normalized_product(forward_star(model, fb), fb.bwd, _LEAVE_OUT)
    rows = zip(np.moveaxis(loo, -2, 0), np.moveaxis(marg, -2, 0))  # one call per index, all lanes
    k = np.moveaxis(np.array([kl_divergence(p, q) for p, q in rows]), 0, -1)
    return InfluenceProfile(k=k, loo_marginals=loo, marginals=marg)


def windowed_influence(
    model: HmmModel, obs: ObservationSequence, h: int
) -> WindowInfluenceProfile:
    """Influence of each window of h consecutive observations.

    A path's full posterior is its law p without the window times its
    emission weights w_i over the window (each scaled to peak at 1), up to a
    constant, so K = log E_p[prod_i w_i] - sum_i E_p[log w_i]. One sweep back
    over the windows carries, for all at once, p's emission-free backward
    row v, the weighted row u (in log space), the row b of expected log
    weights and the 0/1 row of states where p meets a zero weight (K = +inf):
    O(h m^2) per window and O(n m) memory whatever h is.
    """
    check_plain(model, "windowed_influence")
    check_count("h", h, most=len(obs))
    fb = forward_backward(model, obs)
    alpha_t = model.transition.T
    num_windows = len(obs) - h + 1
    log_w = fb.log_weights
    zero = log_w == -np.inf
    finite_log_w = np.where(zero, 0.0, log_w)
    vb = np.stack([fb.bwd[h - 1 :], finite_log_w[h - 1 :] * fb.bwd[h - 1 :]])  # v, b
    log_v = np.zeros(num_windows)
    reach = zero[h - 1 :] & (fb.bwd[h - 1 :] > 0.0)
    with np.errstate(divide="ignore"):
        log_u = np.log(fb.bwd[h - 1 :])
        for t in range(h - 2, -1, -1):
            x = log_w[t + 1 : t + 1 + num_windows] + log_u
            top = x.max(axis=1, keepdims=True)
            top[top == -np.inf] = 0.0
            log_u = np.log(np.exp(x - top) @ alpha_t) + top
            vb = vb @ alpha_t
            vb[1] += finite_log_w[t : t + num_windows] * vb[0]
            reach = (reach @ alpha_t > 0.0) | (zero[t : t + num_windows] & (vb[0] > 0.0))
            top = vb[0].max(axis=1, keepdims=True)  # 0 where v underflowed: refused below
            np.divide(vb, top, out=vb, where=top > 0.0)
            log_v += np.log(top[:, 0])
        fstar = forward_star(model, fb)[:num_windows]
        total = _checked_product(fstar, vb[0], _LEAVE_OUT)[1][:, 0]
        log_f = np.log(fstar) + log_w[:num_windows]
        log_gain = _logsumexp(log_f + log_u)
        # A window whose every term of u underflowed is taken again per state.
        lost = np.flatnonzero(log_gain == -np.inf)
        if lost.size:
            log_alpha, row = np.log(model.transition), np.log(fb.bwd[lost + h - 1])
            for t in range(h - 2, -1, -1):
                row = _logsumexp(log_alpha + (log_w[lost + t + 1] + row)[:, None, :])
            log_gain[lost] = _logsumexp(log_f[lost] + row)
    k = np.maximum(log_gain - np.log(total) - log_v - (fstar * vb[1]).sum(axis=1) / total, 0.0)
    k[((fstar * reach).sum(axis=1) > 0.0) | (log_gain == -np.inf)] = np.inf
    return WindowInfluenceProfile(h=h, k=k)
