"""Numerically stable forward-backward inference.

Forward and backward vectors are kept in per-index rescaled form: each
forward row is normalized to sum to one and each backward row is divided
by its own maximum, with cumulative log normalizers tracked separately.
Emission weights are computed in log space and exponentiated after
subtracting the per-index maximum, so Gaussian densities far above one
never overflow the linear-space recursions.
"""

from dataclasses import dataclass

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
    """

    fwd: np.ndarray
    log_scale_fwd: np.ndarray
    bwd: np.ndarray
    log_scale_bwd: np.ndarray
    log_evidence: float
    log_weights: np.ndarray
    weight_offsets: np.ndarray

    def __len__(self) -> int:
        return self.fwd.shape[0]

    @property
    def num_states(self) -> int:
        return self.fwd.shape[1]

    def scaled_weights(self) -> np.ndarray:
        """exp(log_weights - per-index max), shape (n, m)."""
        return np.exp(self.log_weights - self.weight_offsets[:, None])

    def log_evidence_at(self, i: int) -> float:
        """log sum_s F_i(s) B_i(s), reconstructed from the scaled rows.

        Equals ``log_evidence`` for every i; exposed for consistency checks.
        """
        total = float(np.dot(self.fwd[i], self.bwd[i]))
        return np.log(total) + self.log_scale_fwd[i] + self.log_scale_bwd[i]


def forward_backward(model: HmmModel, obs: ObservationSequence) -> ForwardBackward:
    """Run the scaled forward and backward recursions on one sequence."""
    logw = model.log_emission_matrix(obs.values)
    n, m = logw.shape
    offsets = logw.max(axis=1)
    if np.any(np.isneginf(offsets)):
        bad = int(np.argmax(np.isneginf(offsets)))
        raise EvidenceImpossibleError(
            f"observation {bad} has zero probability in every state"
        )
    w = np.exp(logw - offsets[:, None])

    alpha = model.transition
    fwd = np.empty((n, m))
    log_scale_fwd = np.empty(n)
    u = model.initial * w[0]
    c = u.sum()
    if c == 0.0:
        raise EvidenceImpossibleError("impossible evidence at index 0")
    fwd[0] = u / c
    log_scale_fwd[0] = np.log(c) + offsets[0]
    for i in range(1, n):
        u = fwd[i - 1] @ alpha
        u *= w[i]
        c = u.sum()
        if c == 0.0:
            raise EvidenceImpossibleError(f"impossible evidence at index {i}")
        fwd[i] = u / c
        log_scale_fwd[i] = log_scale_fwd[i - 1] + np.log(c) + offsets[i]

    bwd = np.empty((n, m))
    log_scale_bwd = np.empty(n)
    bwd[n - 1] = 1.0
    log_scale_bwd[n - 1] = 0.0
    for i in range(n - 2, -1, -1):
        v = alpha @ (w[i + 1] * bwd[i + 1])
        d = v.max()
        if d == 0.0:
            raise EvidenceImpossibleError(f"impossible evidence after index {i}")
        bwd[i] = v / d
        log_scale_bwd[i] = log_scale_bwd[i + 1] + np.log(d) + offsets[i + 1]

    return ForwardBackward(
        fwd=fwd,
        log_scale_fwd=log_scale_fwd,
        bwd=bwd,
        log_scale_bwd=log_scale_bwd,
        log_evidence=float(log_scale_fwd[n - 1]),
        log_weights=logw,
        weight_offsets=offsets,
    )


def posterior_marginals(fb: ForwardBackward) -> np.ndarray:
    """Posterior state marginals, one row per index, each summing to one."""
    prod = fb.fwd * fb.bwd
    return prod / prod.sum(axis=1, keepdims=True)
