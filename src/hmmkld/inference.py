"""Numerically stable forward-backward inference.

Forward and backward vectors are kept in per-index rescaled form: each
forward row is normalized to sum to one and each backward row is divided
by its own maximum, with cumulative log normalizers tracked separately.
Emission weights are computed in log space and exponentiated after
subtracting the per-index maximum, so Gaussian densities far above one
never overflow the linear-space recursions.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import EvidenceImpossibleError, HmmModel, ObservationSequence


@dataclass(frozen=True)
class ForwardBackward:
    """Scaled forward/backward vectors for one observation sequence.

    The unscaled quantities are recovered as
    ``F_i(s) = fwd[i, s] * exp(log_scale_fwd[i])`` and
    ``B_i(s) = bwd[i, s] * exp(log_scale_bwd[i])``.
    ``log_weights`` caches the per-index log emission weights and
    ``weight_offsets`` the per-index maxima subtracted before
    exponentiation; both are reused by the influence recursions.

    For a lane model every field carries the leading lane axis: ``fwd``
    is (R, n, m), ``log_scale_fwd`` (R, n) and ``log_evidence`` an array
    of R values. ``len(fb)`` is n either way.
    """

    fwd: np.ndarray
    log_scale_fwd: np.ndarray
    bwd: np.ndarray
    log_scale_bwd: np.ndarray
    log_evidence: Union[float, np.ndarray]
    log_weights: np.ndarray
    weight_offsets: np.ndarray

    def __len__(self) -> int:
        return self.fwd.shape[-2]

    def scaled_weights(self) -> np.ndarray:
        """exp(log_weights - per-index max), shape (n, m) or (R, n, m)."""
        return np.exp(self.log_weights - self.weight_offsets[..., None])

    def log_evidence_at(self, i: int):
        """log sum_s F_i(s) B_i(s), reconstructed from the scaled rows.

        Equals ``log_evidence`` for every i; exposed for consistency checks.
        """
        total = (self.fwd[..., i, :] * self.bwd[..., i, :]).sum(axis=-1)
        return np.log(total) + self.log_scale_fwd[..., i] + self.log_scale_bwd[..., i]


def forward_backward(model: HmmModel, obs: ObservationSequence) -> ForwardBackward:
    """Run the scaled forward and backward recursions on one sequence.

    A lane model runs all of its R lanes in the same loop over the index,
    on (n, R, m) arrays; a plain model is a batch of one. Every lane's
    rows are bit-identical to a separate call on that lane alone.
    """
    logw = model.log_emission_matrix(obs.values)
    if model.lanes is None:
        logw = logw[None]
    initial = model.initial.reshape(-1, 1, model.num_states)
    alpha = model.transition.reshape(-1, model.num_states, model.num_states)
    offsets = logw.max(axis=-1)
    if (offsets == -np.inf).any():
        bad = int(np.argmax((offsets == -np.inf).any(axis=0)))
        raise EvidenceImpossibleError(
            f"observation {bad} has zero probability in every state"
        )
    # Index-major copies, so that each step of the loops below reads and
    # writes one contiguous (R, m) block. The trailing unit axes let the
    # transition products run as stacked row- and column-vector matmuls.
    w = np.ascontiguousarray(np.exp(logw - offsets[..., None]).swapaxes(0, 1))
    num_lanes, n, m = logw.shape
    w_row, w_col = w[:, :, None, :], w[:, :, :, None]

    # Each step works in place on row views, which zip draws from the
    # arrays one step at a time, and calls the ufunc reductions directly:
    # at small R and m, the per-call overhead of indexing and of the
    # array-method wrappers costs more than the work.
    add, biggest = np.add.reduce, np.maximum.reduce
    fwd = np.empty((n, num_lanes, 1, m))
    c = np.empty((n, num_lanes, 1, 1))
    bwd = np.empty((n, num_lanes, m, 1))
    d = np.empty((n, num_lanes, 1, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(initial, w_row[0], out=fwd[0])
        add(fwd[0], -1, None, c[0], True)
        np.divide(fwd[0], c[0], out=fwd[0])
        for prev, row, w_i, c_i in zip(fwd, fwd[1:], w_row[1:], c[1:]):
            np.matmul(prev, alpha, out=row)
            np.multiply(row, w_i, out=row)
            add(row, -1, None, c_i, True)
            np.divide(row, c_i, out=row)

        bwd[n - 1] = 1.0
        v = np.empty((num_lanes, m, 1))
        for row, ahead, w_ahead, d_i in zip(bwd[-2::-1], bwd[:0:-1], w_col[:0:-1], d[-2::-1]):
            np.multiply(w_ahead, ahead, out=v)
            np.matmul(alpha, v, out=row)
            biggest(row, -2, None, d_i, True)
            np.divide(row, d_i, out=row)
    # A zero normalizer makes every later row NaN, so the first zero is
    # the index where the evidence became impossible.
    c, d = c[:, :, 0, 0], d[:, :, 0, 0]
    if not c.all():
        bad = int(np.argmax((c == 0.0).any(axis=1)))
        raise EvidenceImpossibleError(f"impossible evidence at index {bad}")
    # Every forward normalizer is positive, so the evidence is too, and a
    # zero backward normalizer is underflow: those lanes run the pass again.
    with np.errstate(divide="ignore"):
        log_d = np.log(d[:-1])
    under = ~d[:-1].all(axis=0)
    if under.any():
        bwd[:, under], log_d[:, under] = _rescaled_backward(alpha[under], w_col[:, under])

    # Cumulative log scales as running sums of interleaved terms, which
    # adds them in the order L_i = (L_{i-1} + log c_i) + offset_i.
    offsets = offsets.T
    terms = np.empty((2 * n, num_lanes))
    terms[0::2] = np.log(c)
    terms[1::2] = offsets
    log_scale_fwd = np.add.accumulate(terms, axis=0)[1::2]
    log_scale_bwd = np.zeros((n, num_lanes))
    if n > 1:
        terms = terms[: 2 * (n - 1)]
        # The log ran on the contiguous rows: numpy's vectorized log and
        # its strided fallback can differ in the last bit.
        terms[0::2] = log_d[::-1]
        terms[1::2] = offsets[:0:-1]
        log_scale_bwd[-2::-1] = np.add.accumulate(terms, axis=0)[1::2]

    # Back to the caller's layout: lane axis first, or none for a plain model.
    if model.lanes is None:
        def out(a):
            return a[:, 0]
    else:
        def out(a):
            return np.ascontiguousarray(a.swapaxes(0, 1))

    log_scale_fwd = out(log_scale_fwd)
    log_evidence = log_scale_fwd[..., n - 1]
    return ForwardBackward(
        fwd=out(fwd.reshape(n, num_lanes, m)),
        log_scale_fwd=log_scale_fwd,
        bwd=out(bwd.reshape(n, num_lanes, m)),
        log_scale_bwd=out(log_scale_bwd),
        log_evidence=float(log_evidence) if model.lanes is None else log_evidence,
        log_weights=logw[0] if model.lanes is None else logw,
        weight_offsets=out(offsets),
    )


def _rescaled_backward(alpha: np.ndarray, w_col: np.ndarray):
    """The backward pass with each ``v = w[i+1]·b[i+1]`` divided by its
    maximum before the matmul, the log of which joins that step's log
    normalizer. It serves the lanes whose plain pass underflowed to 0 in
    every state; a 0 here too raises ``EvidenceImpossibleError``.

    Returns the rows, shape (n, R, m, 1), and the log normalizers, shape
    (n - 1, R).
    """
    n, num_lanes = w_col.shape[:2]
    bwd = np.ones(w_col.shape)
    log_d = np.empty((n - 1, num_lanes))
    # v can underflow to 0 too, and 0/0 then fails the test below.
    with np.errstate(invalid="ignore"):
        for i in range(n - 2, -1, -1):
            v = w_col[i + 1] * bwd[i + 1]
            top = v.max(axis=-2, keepdims=True)
            row = alpha @ (v / top)
            d_i = row.max(axis=-2, keepdims=True)
            if not (d_i > 0).all():
                raise EvidenceImpossibleError(
                    f"the backward pass underflowed after index {i}"
                )
            bwd[i] = row / d_i
            log_d[i] = (np.log(d_i) + np.log(top))[:, 0, 0]
    return bwd, log_d


def _normalized_product(a: np.ndarray, b: np.ndarray, refuse) -> np.ndarray:
    """The rows of ``a * b`` (last axis), each divided by its sum. The first
    index i along the second-to-last axis whose row sums to 0, in any
    lane, raises ``refuse(i)``."""
    prod = a * b
    total = prod.sum(axis=-1, keepdims=True)
    zero = (total == 0.0).reshape(-1, total.shape[-2]).any(axis=0)
    if zero.any():
        raise refuse(int(np.argmax(zero)))
    return prod / total


def posterior_marginals(fb: ForwardBackward) -> np.ndarray:
    """Posterior state marginals, one row per index (per lane), each summing to one.

    The evidence is positive, so a row that sums to 0 is underflow and
    raises ``EvidenceImpossibleError``.
    """
    message = "the backward pass underflowed at index {}"
    return _normalized_product(
        fb.fwd, fb.bwd, lambda i: EvidenceImpossibleError(message.format(i))
    )
