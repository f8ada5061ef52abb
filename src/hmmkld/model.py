"""Model types and exact sampling for homogeneous hidden Markov models.

A model is a triple (initial distribution, transition matrix, emission
model). Emissions are either a discrete probability table or Gaussian
densities with state-dependent means. All probability vectors and matrix
rows are validated to sum to one within 1e-12 at construction time.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

PROB_TOL = 1e-12
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class ModelError(ValueError):
    """Raised when model parameters violate their invariants."""


class EvidenceImpossibleError(ArithmeticError):
    """Raised when the observed sequence has probability exactly zero."""


def _as_prob_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ModelError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ModelError(f"{name} has non-finite entries")
    if np.any(v < 0):
        raise ModelError(f"{name} has negative entries")
    if abs(v.sum() - 1.0) > PROB_TOL:
        raise ModelError(f"{name} does not sum to 1 (got {v.sum()!r})")
    return v


@dataclass(frozen=True)
class DiscreteEmission:
    """Emission table: row s gives the distribution of symbols given state s."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2:
            raise ModelError("emission table must be 2-D")
        for s in range(table.shape[0]):
            _as_prob_vector(table[s], f"emission row {s}")
        object.__setattr__(self, "table", table)

    @property
    def num_states(self) -> int:
        return self.table.shape[0]

    @property
    def num_symbols(self) -> int:
        return self.table.shape[1]

    def log_density_matrix(self, values: np.ndarray) -> np.ndarray:
        symbols = np.asarray(values)
        if not np.issubdtype(symbols.dtype, np.integer):
            rounded = np.rint(symbols)
            if np.any(rounded != symbols):
                raise ModelError("discrete observations must be integer symbols")
            symbols = rounded.astype(int)
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.num_symbols):
            raise ModelError(
                f"symbol out of range [0, {self.num_symbols}): "
                f"{symbols[(symbols < 0) | (symbols >= self.num_symbols)][0]}"
            )
        with np.errstate(divide="ignore"):
            return np.log(self.table[:, symbols].T)


@dataclass(frozen=True)
class GaussianEmission:
    """Gaussian emissions with per-state means.

    ``sigmas`` holds one standard deviation per state; the homoscedastic
    variant shares a single value across states.
    """

    means: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        means = np.atleast_1d(np.asarray(self.means, dtype=float))
        sigmas = np.asarray(self.sigmas, dtype=float)
        if sigmas.ndim == 0:
            sigmas = np.full(means.shape, float(sigmas))
        if means.shape != sigmas.shape:
            raise ModelError("means and sigmas must have matching length")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(sigmas))):
            raise ModelError("means and sigmas must be finite")
        if np.any(sigmas <= 0):
            raise ModelError("all sigmas must be strictly positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)

    @classmethod
    def homoscedastic(cls, means, sigma: float) -> "GaussianEmission":
        means = np.atleast_1d(np.asarray(means, dtype=float))
        return cls(means, np.full(means.shape, float(sigma)))

    @property
    def num_states(self) -> int:
        return self.means.size

    @property
    def is_homoscedastic(self) -> bool:
        return bool(np.all(self.sigmas == self.sigmas[0]))

    def log_density_matrix(self, values: np.ndarray) -> np.ndarray:
        x = np.asarray(values, dtype=float)
        z = (x[:, None] - self.means[None, :]) / self.sigmas[None, :]
        return -0.5 * z * z - np.log(self.sigmas)[None, :] - _LOG_SQRT_2PI


EmissionModel = Union[DiscreteEmission, GaussianEmission]


@dataclass(frozen=True)
class HmmModel:
    """Homogeneous HMM with initial distribution, transitions and emissions."""

    initial: np.ndarray
    transition: np.ndarray
    emission: EmissionModel

    def __post_init__(self):
        initial = _as_prob_vector(self.initial, "initial distribution")
        transition = np.asarray(self.transition, dtype=float)
        m = initial.size
        if transition.shape != (m, m):
            raise ModelError(f"transition matrix must be {m}x{m}")
        for r in range(m):
            _as_prob_vector(transition[r], f"transition row {r}")
        if self.emission.num_states != m:
            raise ModelError("emission model has wrong number of states")
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)

    @property
    def num_states(self) -> int:
        return self.initial.size

    def log_emission_matrix(self, values) -> np.ndarray:
        """Per-observation, per-state log emission weights, shape (n, m)."""
        return self.emission.log_density_matrix(np.asarray(values))


@dataclass(frozen=True)
class ObservationSequence:
    """A length-n sequence of observed values with optional index labels."""

    values: np.ndarray
    labels: Optional[Sequence[str]] = None

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1 or values.size < 1:
            raise ModelError("observations must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(values)):
            bad = int(np.argmin(np.isfinite(values)))
            raise ModelError(f"observation {bad} is not finite: {values[bad]}")
        if self.labels is not None and len(self.labels) != values.size:
            raise ModelError("labels length does not match values")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            object.__setattr__(self, "labels", [str(s) for s in self.labels])

    def __len__(self) -> int:
        return self.values.size

    def label_list(self) -> list:
        if self.labels is not None:
            return list(self.labels)
        return [str(i + 1) for i in range(len(self))]


def emission_density(model: HmmModel, state: int, x) -> float:
    """Emission probability (discrete) or density (Gaussian) of x in a state."""
    if not 0 <= state < model.num_states:
        raise ModelError(f"state {state} out of range [0, {model.num_states})")
    logw = model.log_emission_matrix(np.asarray([x]))
    return float(np.exp(logw[0, state]))


def sample(model: HmmModel, n: int, seed) -> tuple:
    """Ancestral sampling of (hidden path, observations); deterministic per seed.

    ``seed`` may be anything accepted by ``numpy.random.default_rng``.
    """
    if n < 1:
        raise ModelError("sample length must be >= 1")
    rng = np.random.default_rng(seed)
    m = model.num_states
    states = np.empty(n, dtype=int)
    states[0] = rng.choice(m, p=model.initial)
    for i in range(1, n):
        states[i] = rng.choice(m, p=model.transition[states[i - 1]])
    if isinstance(model.emission, DiscreteEmission):
        k = model.emission.num_symbols
        values = np.array(
            [rng.choice(k, p=model.emission.table[s]) for s in states]
        )
    else:
        values = (
            model.emission.means[states]
            + rng.standard_normal(n) * model.emission.sigmas[states]
        )
    return states, ObservationSequence(values)
