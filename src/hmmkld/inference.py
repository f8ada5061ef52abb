"""Numerically stable forward-backward inference.

Forward and backward vectors are kept in per-index rescaled form: each
forward row is normalized to sum to one and each backward row is divided
by its own maximum. Every reader of the rows (posterior and leave-out
marginals, expected transition counts, windowed influence) normalizes
them again, so a row matters only up to its own positive factor, and
only the log evidence keeps the normalizers, summed. Emission weights are
computed in log space and exponentiated after subtracting the per-index
maximum, so Gaussian densities far above one never overflow the
linear-space recursions.

The recursions run as a two-level chunked pass, in O(sqrt(n)) numpy steps
rather than one step per index and direction, with O(n) work. The n - 1
steps (index i - 1 to i, and back) are cut into chunks of about
sqrt(n / 4) steps, and the step matrices of each chunk are multiplied into
one transfer matrix, all chunks at once. One carry loop takes a forward row
through the transfer matrices from the left and a backward row from the
right, both in the same numpy steps; that gives each chunk its first
forward and last backward row, and from those the plain recursions run
inside every chunk at once. The chunk length depends on n alone, so a lane
model's lanes each get the arithmetic of a call on that lane alone, bit for
bit.

A lane whose forward or backward normalizer comes out 0 runs both passes
again, one index at a time with every product formed in log space, and
takes all its rows from there, so they never mix the two methods. No
positive quantity underflows there, so a 0 there is impossible evidence.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import EvidenceImpossibleError, HmmModel, ObservationSequence, check_finite


@dataclass(frozen=True)
class ForwardBackward:
    """Scaled forward/backward vectors for one observation sequence.

    Row i of ``fwd`` is the forward vector F_i(s) = P(e_0..e_i, s_i = s)
    divided by its sum, and row i of ``bwd`` the backward vector
    B_i(s) = P(e_{i+1}..e_{n-1} | s_i = s) divided by its maximum (the last
    row is all ones). ``log_evidence`` is log P(e_0..e_{n-1}).
    ``log_weights`` holds each index's log emission weights less their
    maximum, the scaled weights the recursions ran on, so every row peaks
    at exactly 0.

    For a lane model, or a stack of series, every field carries the
    leading lane axis: ``fwd`` is (R, n, m) and ``log_evidence`` an array
    of R values. ``len(fb)`` is n either way.
    """

    fwd: np.ndarray
    bwd: np.ndarray
    log_evidence: Union[float, np.ndarray]
    log_weights: np.ndarray

    def __len__(self) -> int:
        return self.fwd.shape[-2]


def forward_backward(
    model: HmmModel, obs: Union[ObservationSequence, np.ndarray]
) -> ForwardBackward:
    """Run the scaled forward and backward recursions on one sequence.

    The recursions run as the chunked pass of the module docstring: chunks
    of isqrt((n - 2) // 4) + 1 steps, and one carry loop for both
    directions. A lane model runs all of its R lanes in the same numpy
    steps; a plain model is a batch of one. ``obs`` may also be an (R, n)
    array of R series of equal length for a lane model of R lanes, each
    lane on its own series.
    The chunk length depends on n alone, so every lane's rows are
    bit-identical to a separate call on that lane and its series alone.
    An index that no state can emit raises ``EvidenceImpossibleError``, or
    ``ModelError`` when its value is a NaN or an infinity.
    """
    values = obs.values if isinstance(obs, ObservationSequence) else obs
    logw = model.log_emission_matrix(values)
    if model.lanes is None:
        logw = logw[None]
    m = model.num_states
    initial = model.initial.reshape(-1, m)
    alpha = model.transition.reshape(-1, m, m)
    offsets = logw.max(axis=-1)
    if not (offsets > -np.inf).all():  # NaN too: a NaN value gives a NaN row
        bad = int(np.argmax((~(offsets > -np.inf)).any(axis=0)))
        check_finite("observation", np.asarray(values)[..., : bad + 1])
        raise EvidenceImpossibleError(
            f"observation {bad} has zero probability in every state"
        )
    log_w = logw - offsets[..., None]

    with np.errstate(divide="ignore", invalid="ignore"):
        fwd, c, bwd, d = _chunked_pass(initial, alpha, log_w)
        # A normalizer of 0, or NaN after a 0, in either direction marks a
        # lane whose evidence is impossible or underflowed: the log-space
        # pass decides which, and replaces all of that lane's rows.
        every = np.logical_and.reduce
        stuck = ~(every(c > 0.0, 1) & every(d > 0.0, 1))
        log_c = np.log(c)
        if stuck.any():
            fwd[stuck], log_c[stuck], bwd[stuck] = _log_space_pass(
                initial[stuck], alpha[stuck], log_w[stuck]
            )

    # The last of the running sums of interleaved terms, which adds them in
    # the order L_i = (L_{i-1} + log c_i) + offset_i (np.add.reduce would
    # sum pairwise, and move the last bits).
    num_lanes, n = offsets.shape
    terms = np.empty((num_lanes, 2 * n))
    terms[:, 0::2] = log_c
    terms[:, 1::2] = offsets
    log_evidence = np.add.accumulate(terms, axis=1)[:, -1].copy()
    if model.lanes is None:
        return ForwardBackward(fwd[0], bwd[0], float(log_evidence[0]), log_w[0])
    return ForwardBackward(fwd, bwd, log_evidence, log_w)


def _chunked_pass(initial: np.ndarray, alpha: np.ndarray, log_w: np.ndarray):
    """The scaled recursions for R lanes: ``initial`` is (R, m), ``alpha``
    (R, m, m) and ``log_w`` the logs of the scaled emission weights, (R, n, m).

    Returns the forward rows (R, n, m) with their sum normalizers c, (R, n),
    and the backward rows (R, n, m) with their max normalizers d, (R, n - 1):
    c_i and d_i divide row i. A normalizer of 0 makes the rows after it
    NaN, and their normalizers too.
    """
    num_lanes, n, m = log_w.shape
    add, biggest = np.add.reduce, np.maximum.reduce
    w = np.exp(log_w)
    fwd = np.empty((num_lanes, n, m))
    first = np.multiply(initial, w[:, 0], out=fwd[:, 0])
    c = add(first, -1, None, None, True)
    first /= c
    if n == 1:
        return fwd, c, np.ones((num_lanes, 1, m)), np.zeros((num_lanes, 0))

    # Step i = 1 + j * size + k, for k < size, is M_i = alpha * w_i (the
    # weights scale the columns): f_i is f_{i-1} M_i and b_{i-1} is M_i b_i,
    # each normalized. The last of the `chunks` chunks holds the `last`
    # steps left over, and weights of 1 fill the slots of the steps it
    # lacks: the transfer product skips them, while the recursions inside
    # the chunks run them at full width and never copy out their rows. One
    # carry step serves both directions, so a carry step costs less than
    # the three loops over a chunk's steps spend per step of the chunk
    # length, and chunks of about sqrt(n / 4) steps beat sqrt(n). The arrays
    # below are step-major, with the chunk as their last axis: each step of
    # every chunk is one matmul per lane, and the normalizers reduce over an
    # axis that is not the inner one.
    steps = n - 1
    size = math.isqrt((steps - 1) // 4) + 1
    chunks = -(-steps // size)
    last = steps - (chunks - 1) * size
    weights = np.ones((size, num_lanes, m, chunks))
    by_chunk = weights.transpose(1, 3, 0, 2)
    full = (chunks - 1) * size
    by_chunk[:, :-1] = w[:, 1 : 1 + full].reshape(num_lanes, chunks - 1, size, m)
    by_chunk[:, -1, :last] = w[:, 1 + full :]
    del w
    alpha_t = alpha.swapaxes(-1, -2)

    # Each chunk's transfer matrix T, the product of its step matrices, kept
    # transposed and chunk-last like every array here: transfer[r, b, a, j]
    # is T_j[a, b] of lane r, so the weights and the normalizers run over
    # inner loops of length `chunks`. After each product every row of T (a
    # forward pass from one state) is divided by its maximum, and the logs
    # of those maxima are summed in `scale`, so no row underflows however
    # far apart the rows' scales drift. A row of zeros is divided by the
    # least double and stays zero; the log of its maximum is -inf.
    transfer = np.empty((num_lanes, m, m, chunks))
    np.multiply(alpha_t[..., None], weights[0, ..., None, :], out=transfer)
    flat = transfer.reshape(num_lanes, m, m * chunks)
    product = np.empty_like(transfer)
    tops = np.ones((size, num_lanes, 1, m, chunks))
    for k in range(size):
        active = chunks if k < last else chunks - 1
        t, top = transfer[..., :active], tops[k, ..., :active]
        if k:
            np.matmul(alpha_t, flat, out=product.reshape(flat.shape))
            np.multiply(product[..., :active], weights[k, ..., None, :active], out=t)
        biggest(t, 1, None, top, True)
        np.divide(t, np.maximum(top, 5e-324), out=t)
    del product
    scale = np.log(tops).sum(axis=0).transpose(3, 0, 2, 1)
    del tops

    # Carry a forward row into each chunk from the left and a backward row
    # into each chunk from the right, through the transfer matrices, with
    # the row scales joined in log space. Step i carries the forward row
    # into chunk i + 1 (slot 0) and the backward row into chunk
    # chunks - 2 - i (slot 1), both as column vectors stacked (2, R, m, 1),
    # so one log / max / exp and one matmul serve both. The forward row
    # enters a step as f and the backward row as T b, and a step's matmul
    # leaves them so for the next. Every operand is contiguous, so each
    # matrix takes the same BLAS path as it would alone.
    carry = np.empty((chunks - 1, 2, num_lanes, m, m))
    carry[:, 0] = transfer[..., :-1].transpose(3, 0, 1, 2)
    carry[:, 1] = transfer[..., -2::-1].transpose(3, 0, 2, 1)
    scales = np.empty((chunks - 1, 2, num_lanes, m, 1))
    scales[:, 0] = scale[:-1]
    scales[:, 1] = scale[:0:-1]
    carried = np.empty((chunks, 2, num_lanes, m, 1))
    carried[0, 0] = first[..., None]
    np.matmul(
        np.ascontiguousarray(transfer[..., -1].swapaxes(-1, -2)),
        np.ones((num_lanes, m, 1)),
        out=carried[0, 1],
    )
    del transfer, flat
    sent = np.empty((chunks - 1, 2, num_lanes, m, 1))
    top = np.empty((2, num_lanes, 1, 1))
    for i in range(chunks - 1):
        u = np.log(carried[i], out=sent[i])
        u += scales[i]
        u -= biggest(u, -2, None, top, True)
        np.matmul(carry[i], np.exp(u, out=u), out=carried[i + 1])
    del carry
    start = carried[:, 0]
    start[1:] /= add(start[1:], -2, None, None, True)

    # The plain recursions inside every chunk at once, from those rows.
    # Each step works in place on views and calls the ufunc reductions
    # directly: at small R and m, the per-call overhead of indexing and of
    # the array-method wrappers costs more than the work.
    rows = np.empty((size, num_lanes, m, chunks))
    # Each step's forward sums c and backward maxima d, side by side.
    norms = np.empty((size, num_lanes, 2, chunks))
    prev = np.ascontiguousarray(start[..., 0].transpose(1, 2, 0))
    for row, norm, w_k in zip(rows, norms, weights):
        c_k = norm[:, :1]
        np.matmul(alpha_t, prev, out=row)
        np.multiply(row, w_k, out=row)
        add(row, 1, None, c_k, True)
        np.divide(row, c_k, out=row)
        prev = row
    _unchunk(fwd, rows, 1)

    # The backward row carried into chunk j left step chunks - 2 - j's
    # exp; the last chunk's is all ones. b at index n - 1 is all ones too:
    # it is step `last` of the last chunk, where that chunk's recursion
    # restarts after the steps it lacks, unless that chunk is full and it is
    # the end row after it.
    ahead = np.ones((num_lanes, m, chunks))
    ahead[..., :-1] = sent[::-1, 1, ..., 0].transpose(1, 2, 0)
    v = np.empty((num_lanes, m, chunks))
    for k in range(size - 1, -1, -1):
        row, d_k = rows[k], norms[k, :, 1:]
        np.multiply(weights[k], ahead, out=v)
        np.matmul(alpha, v, out=row)
        biggest(row, 1, None, d_k, True)
        np.divide(row, d_k, out=row)
        if k == last:
            row[..., -1] = 1.0
        ahead = row
    bwd = np.empty((num_lanes, n, m))
    bwd[:, -1] = 1.0
    _unchunk(bwd, rows, 0)
    # c_i and d_{i-1} at index i.
    norms = _unchunk(np.empty((num_lanes, n, 2)), norms, 1)
    norms[:, 0, 0] = c[:, 0]
    return fwd, norms[..., 0], bwd, norms[:, 1:, 1]


def _unchunk(out: np.ndarray, rows: np.ndarray, offset: int) -> np.ndarray:
    """Copy the step-major ``rows`` (size, R, ..., chunks) into ``out``
    (R, n, ...): step k of chunk j goes to index offset + j * size + k, as
    far as ``out`` reaches. The full chunks go through one view of ``out``
    and the last chunk through another, with no copy in between. Returns
    ``out``."""
    size, chunks = rows.shape[0], rows.shape[-1]
    body = rows.transpose(1, -1, 0, *range(2, rows.ndim - 1))
    full = offset + (chunks - 1) * size
    out[:, offset:full].reshape(body[:, :-1].shape)[...] = body[:, :-1]
    span = min(out.shape[1] - full, size)
    out[:, full : full + span] = body[:, -1, :span]
    return out


def _log_space_pass(initial: np.ndarray, alpha: np.ndarray, log_w: np.ndarray):
    """The forward and then the backward pass one index at a time with every
    product formed in log space, so that no positive term underflows;
    ``initial`` is (R, m) and ``log_w`` (R, n, m).

    It serves the lanes whose chunked pass met a normalizer of 0. A forward
    normalizer that is 0 here too is impossible evidence; otherwise no
    backward row is 0 in every state. Returns the forward rows, the logs of
    their sum normalizers and the backward rows.
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
    row = np.zeros((num_lanes, m))
    for i in range(n - 2, -1, -1):
        row = _logsumexp(log_alpha + (log_w[:, i + 1] + row)[:, None, :])
        row -= row.max(axis=-1, keepdims=True)
        bwd[:, i] = np.exp(row)
    return fwd, log_c, bwd


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
    total = np.add.reduce(prod, -1, None, None, True)
    if not total.all():
        zero = (total == 0.0).reshape(-1, total.shape[-2]).any(axis=0)
        raise refuse(int(np.argmax(zero)))
    return prod, total


def _normalized_product(a: np.ndarray, b: np.ndarray, refuse) -> np.ndarray:
    """The rows of ``a * b`` (last axis), each divided by its sum; a row
    that sums to 0 raises as in ``_checked_product``."""
    prod, total = _checked_product(a, b, refuse)
    return np.divide(prod, total, out=prod)


def _backward_underflow(i: int) -> EvidenceImpossibleError:
    return EvidenceImpossibleError(f"the backward pass underflowed at index {i}")


def posterior_marginals(fb: ForwardBackward) -> np.ndarray:
    """Posterior state marginals, one row per index (per lane), each summing to one.

    The evidence is positive, so a row that sums to 0 is underflow and
    raises ``EvidenceImpossibleError``.
    """
    return _normalized_product(fb.fwd, fb.bwd, _backward_underflow)
