"""Numerically stable forward-backward inference.

Forward and backward vectors are kept in per-index rescaled form: each
forward row is normalized to sum to one and each backward row is divided
by its own maximum, with cumulative log normalizers tracked separately.
Emission weights are computed in log space and exponentiated after
subtracting the per-index maximum, so Gaussian densities far above one
never overflow the linear-space recursions.

The recursions run as a two-level chunked pass, in O(sqrt(n)) numpy steps
rather than one step per index and direction, with O(n) work. The n - 1
steps (index i - 1 to i, and back) are cut into chunks of about sqrt(n)
steps, and the step matrices of each chunk are multiplied into one
transfer matrix, all chunks at once. A forward row carried through the
transfer matrices from the left, and a backward row from the right, give
each chunk its first forward and last backward row; from those, the plain
recursions run inside every chunk at once. The chunk length depends on n
alone, so a lane model's lanes each get the arithmetic of a call on that
lane alone, bit for bit.

A lane whose forward or backward normalizer comes out 0 runs both passes
again, one index at a time with every product formed in log space, and
takes all its rows from there, so they never mix the two methods. No
positive quantity underflows there, so a 0 there is impossible evidence.
"""

import math
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

    For a lane model, or a stack of series, every field carries the
    leading lane axis: ``fwd`` is (R, n, m), ``log_scale_fwd`` (R, n) and
    ``log_evidence`` an array of R values. ``len(fb)`` is n either way.
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
        The evidence is positive, so a sum of 0 is underflow and raises
        ``EvidenceImpossibleError``, as ``posterior_marginals`` does.
        """
        _, total = _checked_product(
            self.fwd[..., i, None, :], self.bwd[..., i, None, :], lambda _: _backward_underflow(i)
        )
        return np.log(total[..., 0, 0]) + self.log_scale_fwd[..., i] + self.log_scale_bwd[..., i]


def forward_backward(
    model: HmmModel, obs: Union[ObservationSequence, np.ndarray]
) -> ForwardBackward:
    """Run the scaled forward and backward recursions on one sequence.

    The recursions run as the chunked pass of the module docstring. A lane
    model runs all of its R lanes in the same numpy steps; a plain model is
    a batch of one. ``obs`` may also be an (R, n) array of R series of
    equal length for a lane model of R lanes, each lane on its own series.
    The chunk length depends on n alone, so every lane's rows are
    bit-identical to a separate call on that lane and its series alone.
    """
    values = obs.values if isinstance(obs, ObservationSequence) else obs
    logw = model.log_emission_matrix(values)
    if model.lanes is None:
        logw = logw[None]
    m = model.num_states
    initial = model.initial.reshape(-1, m)
    alpha = model.transition.reshape(-1, m, m)
    offsets = logw.max(axis=-1)
    if (offsets == -np.inf).any():
        bad = int(np.argmax((offsets == -np.inf).any(axis=0)))
        raise EvidenceImpossibleError(
            f"observation {bad} has zero probability in every state"
        )
    log_w = logw - offsets[..., None]

    with np.errstate(divide="ignore", invalid="ignore"):
        fwd, log_c, bwd, log_d = _chunked_pass(initial, alpha, log_w)
        # A normalizer of 0, or NaN after a 0, in either direction marks a
        # lane whose evidence is impossible or underflowed: the log-space
        # pass decides which, and replaces all of that lane's rows.
        stuck = ~((log_c > -np.inf).all(axis=1) & (log_d > -np.inf).all(axis=1))
        if stuck.any():
            fwd[stuck], log_c[stuck], bwd[stuck], log_d[stuck] = _log_space_pass(
                initial[stuck], alpha[stuck], log_w[stuck]
            )

    # Cumulative log scales as running sums of interleaved terms, which
    # adds them in the order L_i = (L_{i-1} + log c_i) + offset_i.
    num_lanes, n = offsets.shape
    terms = np.empty((num_lanes, 2 * n))
    terms[:, 0::2] = log_c
    terms[:, 1::2] = offsets
    log_scale_fwd = np.ascontiguousarray(np.add.accumulate(terms, axis=1)[:, 1::2])
    log_scale_bwd = np.zeros((num_lanes, n))
    if n > 1:
        terms = terms[:, : 2 * (n - 1)]
        terms[:, 0::2] = log_d[:, ::-1]
        terms[:, 1::2] = offsets[:, :0:-1]
        log_scale_bwd[:, -2::-1] = np.add.accumulate(terms, axis=1)[:, 1::2]

    if model.lanes is None:
        fwd, log_scale_fwd, bwd, log_scale_bwd, logw, offsets = (
            a[0] for a in (fwd, log_scale_fwd, bwd, log_scale_bwd, logw, offsets)
        )
    log_evidence = log_scale_fwd[..., n - 1]
    return ForwardBackward(
        fwd=fwd,
        log_scale_fwd=log_scale_fwd,
        bwd=bwd,
        log_scale_bwd=log_scale_bwd,
        log_evidence=float(log_evidence) if model.lanes is None else log_evidence,
        log_weights=logw,
        weight_offsets=offsets,
    )


def _chunked_pass(initial: np.ndarray, alpha: np.ndarray, log_w: np.ndarray):
    """The scaled recursions for R lanes: ``initial`` is (R, m), ``alpha``
    (R, m, m) and ``log_w`` the logs of the scaled emission weights, (R, n, m).

    Returns the forward rows (R, n, m) with the logs of their sum
    normalizers c, (R, n), and the backward rows (R, n, m) with the logs of
    their max normalizers d, (R, n - 1). A normalizer of 0 makes the rows
    after it NaN, and the logs of theirs too.
    """
    num_lanes, n, m = log_w.shape
    w = np.exp(log_w)
    first = np.multiply(initial, w[:, 0])
    c = first.sum(axis=-1, keepdims=True)
    first /= c
    if n == 1:
        return first[:, None], np.log(c), np.ones((num_lanes, 1, m)), np.zeros((num_lanes, 0))

    # Step i = 1 + j * size + k, for k < size, is M_i = alpha * w_i (the
    # weights scale the columns): f_i is f_{i-1} M_i and b_{i-1} is M_i b_i,
    # each normalized. The last of the `chunks` chunks holds the `last`
    # steps left over. The arrays below are step-major, with the chunk as
    # their last axis: each step of every chunk is one matmul per lane,
    # and the normalizers reduce over an axis that is not the inner one.
    steps = n - 1
    size = math.isqrt(steps - 1) + 1
    chunks = -(-steps // size)
    last = steps - (chunks - 1) * size
    weights = np.ones((size, num_lanes, m, chunks))
    by_chunk = weights.transpose(1, 3, 0, 2)
    full = (chunks - 1) * size
    by_chunk[:, :-1] = w[:, 1 : 1 + full].reshape(num_lanes, chunks - 1, size, m)
    by_chunk[:, -1, :last] = w[:, 1 + full :]
    alpha_t = alpha.swapaxes(-1, -2)
    add, biggest = np.add.reduce, np.maximum.reduce

    # Each chunk's transfer matrix T, the product of its step matrices, kept
    # transposed: transfer[r, b, j, a] is T_j[a, b] of lane r. After each
    # product every row of T (a forward pass from one state) is divided by
    # its maximum, and the logs of those maxima are summed in `scale`, so
    # no row underflows however far apart the rows' scales drift.
    transfer = alpha_t[:, :, None, :] * weights[0, ..., None]
    flat = transfer.reshape(num_lanes, m, chunks * m)
    product = np.empty_like(flat)
    tops = np.ones((size, num_lanes, 1, chunks, m))
    for k in range(size):
        active = chunks if k < last else chunks - 1
        t, top = transfer[:, :, :active], tops[k, :, :, :active]
        if k:
            cols = slice(0, active * m)
            np.matmul(alpha_t, flat[..., cols], out=product[..., cols])
            np.multiply(
                product[..., cols].reshape(t.shape), weights[k, :, :, :active, None], out=t
            )
        biggest(t, 1, None, top, True)
        np.divide(t, top, out=t, where=top > 0.0)
    scale = np.log(tops).sum(axis=0).transpose(2, 0, 3, 1)
    forward = np.ascontiguousarray(transfer.transpose(2, 0, 1, 3))
    backward = np.ascontiguousarray(transfer.transpose(2, 0, 3, 1))

    # Carry a forward row into each chunk from the left and a backward row
    # into each chunk from the right, through the transfer matrices, with
    # the row scales joined in log space. The carried rows are column
    # vectors, (R, m, 1) for each chunk.
    start = np.empty((chunks, num_lanes, m, 1))
    start[0] = first[..., None]
    for j in range(chunks - 1):
        u = np.log(start[j]) + scale[j]
        u -= biggest(u, -2, None, None, True)
        np.matmul(forward[j], np.exp(u, out=u), out=start[j + 1])
    start[1:] /= add(start[1:], -2, None, None, True)
    end = np.empty((chunks, num_lanes, m, 1))
    end[-1] = 1.0
    for j in range(chunks - 1, 0, -1):
        u = np.log(np.matmul(backward[j], end[j]))
        u += scale[j]
        u -= biggest(u, -2, None, None, True)
        np.exp(u, out=end[j - 1])

    # The plain recursions inside every chunk at once, from those rows.
    # Each step works in place on views and calls the ufunc reductions
    # directly: at small R and m, the per-call overhead of indexing and of
    # the array-method wrappers costs more than the work.
    rows = np.empty((size, num_lanes, m, chunks))
    norms = np.ones((size, num_lanes, 1, chunks))
    prev = np.ascontiguousarray(start[..., 0].transpose(1, 2, 0))
    for k in range(size):
        active = chunks if k < last else chunks - 1
        row, c_k = rows[k, ..., :active], norms[k, ..., :active]
        np.matmul(alpha_t, prev[..., :active], out=row)
        np.multiply(row, weights[k, ..., :active], out=row)
        add(row, 1, None, c_k, True)
        np.divide(row, c_k, out=row)
        prev = rows[k]
    fwd = np.empty((num_lanes, n, m))
    fwd[:, 0] = first
    log_c = np.empty((num_lanes, n))
    log_c[:, 0] = np.log(c[:, 0])
    _unchunk(fwd, rows, 1)
    _unchunk(log_c, np.log(norms[:, :, 0]), 1)

    # b at index n - 1 is all ones. It is step `last` of the last chunk,
    # unless that chunk is full and it is the end row after it.
    if last < size:
        rows[last, ..., -1] = 1.0
    norms = np.ones((size, num_lanes, 1, chunks))
    ahead = np.ascontiguousarray(end[..., 0].transpose(1, 2, 0))
    v = np.empty((num_lanes, m, chunks))
    for k in range(size - 1, -1, -1):
        active = chunks if k < last else chunks - 1
        row, d_k, v_k = rows[k, ..., :active], norms[k, ..., :active], v[..., :active]
        np.multiply(weights[k, ..., :active], ahead[..., :active], out=v_k)
        np.matmul(alpha, v_k, out=row)
        biggest(row, 1, None, d_k, True)
        np.divide(row, d_k, out=row)
        ahead = rows[k]
    bwd = _unchunk(np.ones((num_lanes, n, m)), rows, 0)
    log_d = _unchunk(np.empty((num_lanes, n - 1)), np.log(norms[:, :, 0]), 0)
    return fwd, log_c, bwd, log_d


def _unchunk(out: np.ndarray, rows: np.ndarray, offset: int) -> np.ndarray:
    """Copy the step-major ``rows`` (size, R, ..., chunks) into ``out``
    (R, n, ...): step k of chunk j goes to index offset + j * size + k, as
    far as ``out`` reaches. Returns ``out``."""
    body = rows.transpose(1, -1, 0, *range(2, rows.ndim - 1))
    body = body.reshape(out.shape[0], -1, *out.shape[2:])
    span = min(out.shape[1] - offset, body.shape[1])
    out[:, offset : offset + span] = body[:, :span]
    return out


def _log_space_pass(initial: np.ndarray, alpha: np.ndarray, log_w: np.ndarray):
    """The forward and then the backward pass one index at a time with every
    product formed in log space, so that no positive term underflows;
    ``initial`` is (R, m) and ``log_w`` (R, n, m).

    It serves the lanes whose chunked pass met a normalizer of 0. A forward
    normalizer that is 0 here too is impossible evidence; otherwise no
    backward row is 0 in every state. Returns ``fwd, log_c, bwd, log_d`` as
    ``_chunked_pass`` does.
    """
    num_lanes, n, m = log_w.shape
    log_alpha = np.log(alpha)
    fwd = np.empty((num_lanes, n, m))
    log_c = np.empty((num_lanes, n))
    row = np.log(initial) + log_w[:, 0]
    for i in range(n):
        if i:
            row = _logsumexp(row[:, None, :] + log_alpha.swapaxes(-1, -2)) + log_w[:, i]
        total = _logsumexp(row)
        if not (total > -np.inf).all():
            raise EvidenceImpossibleError(f"impossible evidence at index {i}")
        row -= total[:, None]
        fwd[:, i] = np.exp(row)
        log_c[:, i] = total
    bwd = np.ones((num_lanes, n, m))
    log_d = np.empty((num_lanes, n - 1))
    row = np.zeros((num_lanes, m))
    for i in range(n - 2, -1, -1):
        row = _logsumexp(log_alpha + (log_w[:, i + 1] + row)[:, None, :])
        top = row.max(axis=-1)
        row -= top[:, None]
        bwd[:, i] = np.exp(row)
        log_d[:, i] = top
    return fwd, log_c, bwd, log_d


def _logsumexp(z: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, -inf where every term is -inf."""
    top = z.max(axis=-1, keepdims=True)
    top[top == -np.inf] = 0.0
    return np.log(np.exp(z - top).sum(axis=-1)) + top[..., 0]


def _checked_product(a: np.ndarray, b: np.ndarray, refuse) -> tuple:
    """``a * b`` and its row sums (last axis, kept). The first index i along
    the second-to-last axis whose row sums to 0, in any lane, raises
    ``refuse(i)``."""
    prod = a * b
    total = prod.sum(axis=-1, keepdims=True)
    zero = (total == 0.0).reshape(-1, total.shape[-2]).any(axis=0)
    if zero.any():
        raise refuse(int(np.argmax(zero)))
    return prod, total


def _normalized_product(a: np.ndarray, b: np.ndarray, refuse) -> np.ndarray:
    """The rows of ``a * b`` (last axis), each divided by its sum; a row
    that sums to 0 raises as in ``_checked_product``."""
    prod, total = _checked_product(a, b, refuse)
    return prod / total


def _backward_underflow(i: int) -> EvidenceImpossibleError:
    return EvidenceImpossibleError(f"the backward pass underflowed at index {i}")


def posterior_marginals(fb: ForwardBackward) -> np.ndarray:
    """Posterior state marginals, one row per index (per lane), each summing to one.

    The evidence is positive, so a row that sums to 0 is underflow and
    raises ``EvidenceImpossibleError``.
    """
    return _normalized_product(fb.fwd, fb.bwd, _backward_underflow)
