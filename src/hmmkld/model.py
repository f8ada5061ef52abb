"""Model types and exact sampling for homogeneous hidden Markov models.

A model is a triple (initial distribution, transition matrix, emission
model). Emissions are either a discrete probability table or Gaussian
densities with state-dependent means. All probability vectors and matrix
rows are validated to sum to one within 1e-12 at construction time.
"""

import numbers
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

PROB_TOL = 1e-12
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class ModelError(ValueError):
    """Raised when model parameters violate their invariants."""


class EvidenceImpossibleError(ArithmeticError):
    """Raised when the observed sequence has probability exactly zero."""


def _as_prob_rows(a, name: str, row_axes: int) -> np.ndarray:
    """Validate probability vectors along the last axis, all rows at once.

    ``row_axes`` counts the axes that index rows in a plain model (0 for a
    vector, 1 for a matrix); one more leading axis is a lane axis.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (row_axes + 1, row_axes + 2) or a.shape[-1] < 1:
        raise ModelError(f"{name} must be a non-empty {row_axes + 1}-D array")
    sums = np.add.reduce(a, -1)
    # One pass for the common valid case: a NaN or infinite entry makes
    # its row sum fail the first test.
    if (
        np.maximum.reduce(np.abs(sums - 1.0), None, initial=0.0) <= PROB_TOL
        and np.minimum.reduce(a, None, initial=0.0) >= 0.0
    ):
        return a
    for bad, what in (
        (~np.isfinite(a).all(axis=-1), "has non-finite entries"),
        ((a < 0).any(axis=-1), "has negative entries"),
        (np.abs(sums - 1.0) > PROB_TOL, "does not sum to 1"),
    ):
        if bad.any():
            where = np.unravel_index(np.argmax(bad), bad.shape)
            label = f"{name} row {where[-1]}" if row_axes else name
            if a.ndim > row_axes + 1:
                label = f"lane {where[0]}: {label}"
            if what == "does not sum to 1":
                what += f" (got {sums[where]!r})"
            raise ModelError(f"{label} {what}")
    return a


def _lanes(a: np.ndarray, plain_ndim: int) -> Optional[int]:
    return a.shape[0] if a.ndim > plain_ndim else None


@dataclass(frozen=True)
class DiscreteEmission:
    """Emission table: row s gives the distribution of symbols given state s.

    A table of shape (R, m, k) holds one emission table per lane.
    """

    table: np.ndarray

    def __post_init__(self):
        table = _as_prob_rows(self.table, "emission", 1)
        object.__setattr__(self, "table", table)

    @property
    def num_states(self) -> int:
        return self.table.shape[-2]

    @property
    def num_symbols(self) -> int:
        return self.table.shape[-1]

    @property
    def lanes(self) -> Optional[int]:
        return _lanes(self.table, 2)

    def log_density_matrix(self, values: np.ndarray) -> np.ndarray:
        symbols = np.asarray(values)
        if not np.issubdtype(symbols.dtype, np.integer):
            check_finite("observation", symbols)
            rounded = np.rint(symbols)
            if np.any(rounded != symbols):
                raise ModelError("discrete observations must be integer symbols")
            symbols = rounded.astype(int)
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.num_symbols):
            raise ModelError(
                f"symbol out of range [0, {self.num_symbols}): "
                f"{symbols[(symbols < 0) | (symbols >= self.num_symbols)][0]}"
            )
        # The logs of the table, read at each symbol: one log per entry of
        # the table rather than per observation.
        with np.errstate(divide="ignore"):
            log_table = np.log(self.table)
        if symbols.ndim == 1:
            rows = log_table[..., symbols]
        else:
            # One series per lane: row s of lane r's table, which starts at
            # (r * m + s) * k in the flat table, reads lane r's symbols.
            lanes, m, k = self.table.shape
            starts = (np.arange(lanes * m) * k).reshape(lanes, m, 1)
            rows = log_table.reshape(-1)[starts + symbols[:, None, :]]
        return rows.swapaxes(-1, -2)


@dataclass(frozen=True)
class GaussianEmission:
    """Gaussian emissions with per-state means.

    ``sigmas`` holds one standard deviation per state; the homoscedastic
    variant shares a single value across states. Means and sigmas of
    shape (R, m) hold one emission model per lane.
    """

    means: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        means = np.atleast_1d(np.asarray(self.means, dtype=float))
        sigmas = np.asarray(self.sigmas, dtype=float)
        if sigmas.ndim == 0:
            sigmas = np.full(means.shape, float(sigmas))
        if means.ndim > 2:
            raise ModelError("means must be a 1-D vector or one row per lane")
        if means.shape != sigmas.shape:
            raise ModelError("means and sigmas must have matching length")
        if not (np.isfinite(means).all() and np.isfinite(sigmas).all()):
            raise ModelError("means and sigmas must be finite")
        if not (sigmas > 0).all():
            raise ModelError("all sigmas must be strictly positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)

    @classmethod
    def homoscedastic(cls, means, sigma: float) -> "GaussianEmission":
        return cls(means, sigma)

    @property
    def num_states(self) -> int:
        return self.means.shape[-1]

    @property
    def lanes(self) -> Optional[int]:
        return _lanes(self.means, 1)

    @property
    def is_homoscedastic(self) -> bool:
        return bool(np.all(self.sigmas == self.sigmas[..., :1]))

    def log_density_matrix(self, values: np.ndarray) -> np.ndarray:
        x = np.asarray(values, dtype=float)
        z = x[..., None] - self.means[..., None, :]
        z /= self.sigmas[..., None, :]
        log_density = -0.5 * z
        log_density *= z
        log_density -= np.log(self.sigmas)[..., None, :]
        log_density -= _LOG_SQRT_2PI
        return log_density


EmissionModel = Union[DiscreteEmission, GaussianEmission]


@dataclass(frozen=True)
class HmmModel:
    """Homogeneous HMM with initial distribution, transitions and emissions.

    Every parameter may carry one leading lane axis of length R: lane r is
    then the model (initial[r], transition[r], emission lane r). Inference
    on a lane model runs all R models at once, over one sequence or over an
    (R, n) stack of series, lane r on row r.
    """

    initial: np.ndarray
    transition: np.ndarray
    emission: EmissionModel

    def __post_init__(self):
        initial = _as_prob_rows(self.initial, "initial distribution", 0)
        transition = _as_prob_rows(self.transition, "transition", 1)
        m = initial.shape[-1]
        if transition.shape != initial.shape + (m,):
            raise ModelError(f"transition matrix must be {m}x{m} per lane")
        if self.emission.num_states != m:
            raise ModelError("emission model has wrong number of states")
        if self.emission.lanes != _lanes(initial, 1):
            raise ModelError("emission model has a different number of lanes")
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)

    @property
    def num_states(self) -> int:
        return self.initial.shape[-1]

    @property
    def lanes(self) -> Optional[int]:
        """Number of lanes R, or None for a plain model."""
        return _lanes(self.initial, 1)

    def log_emission_matrix(self, values) -> np.ndarray:
        """Per-observation, per-state log emission weights: shape (n, m),
        or (R, n, m) for a lane model.

        ``values`` is one series of n values, or for a lane model of R
        lanes an (R, n) stack of series, one per lane.
        """
        values = np.asarray(values)
        if values.ndim > 1 and values.shape[:-1] != (self.lanes,):
            raise ModelError(f"a stack of shape {values.shape} needs one model lane per series")
        return self.emission.log_density_matrix(values)


@dataclass(frozen=True)
class ObservationSequence:
    """A length-n sequence of observed values with optional index labels."""

    values: np.ndarray
    labels: Optional[Sequence[str]] = None

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1 or values.size < 1:
            raise ModelError("observations must be a non-empty 1-D sequence")
        check_finite("observation", values)
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


def check_seed(seed):
    """Return ``seed`` for ``numpy.random.default_rng``: a number must be an
    integer >= 0, and anything else (``None``, a ``SeedSequence``, a
    ``Generator``) goes to numpy as given."""
    if isinstance(seed, (numbers.Number, np.bool_)):
        check_count("seed", seed, least=0)
    return seed


def check_count(name: str, value, least: int = 1, most: Optional[int] = None) -> None:
    """Refuse with ``ModelError`` a ``value`` that is not an integer in
    [``least``, ``most``], or >= ``least`` when ``most`` is None: counts are
    at least 1, indices and seeds at least 0. A bool is not an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ModelError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ModelError(f"{name} must be <= {most}, got {value}")


def check_finite(name: str, values: np.ndarray) -> None:
    """Refuse with ``ModelError`` a 1-D ``values`` holding a NaN or an
    infinity, naming the first one: ``{name} {index} is not finite: nan``.
    On a 2-D stack of series it names the row too, row by row:
    ``{name} {index} of row {row} is not finite: nan``."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.unravel_index(np.argmin(finite), finite.shape)
        where = f"{bad[-1]} of row {bad[0]}" if finite.ndim == 2 else bad[-1]
        raise ModelError(f"{name} {where} is not finite: {values[bad]}")


def check_plain(model: HmmModel, caller: str) -> None:
    """Refuse a lane model with ``ModelError``: ``caller`` takes one model."""
    if model.lanes is not None:
        raise ModelError(f"{caller} takes a plain model, not a lane model")


def _normalised_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF of each row, scaled so that its last entry is exactly 1."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def sample(model: HmmModel, n: int, seed) -> tuple:
    """Ancestral sampling of (hidden path, observations); deterministic per seed.

    ``seed`` may be anything accepted by ``numpy.random.default_rng``.
    The draws are those of one ``rng.choice(m, p=row)`` per state and per
    discrete symbol, in index order: each such call inverts one
    ``rng.random()`` through the row's normalised CDF (``side="right"``).
    Here one ``rng.random(n)`` drives the state chain and, for discrete
    emissions, a second one the symbols, so memory stays O(n) in numpy.
    """
    check_plain(model, "sample")
    check_count("n", n)
    rng = np.random.default_rng(check_seed(seed))
    u = rng.random(n)
    rows = _normalised_cdf(model.transition).tolist()
    states = np.empty(n, dtype=int)
    # Memoryviews read Python floats and write Python ints, with no numpy
    # scalar per index and no length-n list.
    uv, sv = memoryview(u), memoryview(states)
    s = sv[0] = bisect_right(_normalised_cdf(model.initial).tolist(), uv[0])
    for i in range(1, n):
        s = sv[i] = bisect_right(rows[s], uv[i])
    if isinstance(model.emission, DiscreteEmission):
        v = rng.random(n)
        table_cdf = _normalised_cdf(model.emission.table)
        values = np.empty(n, dtype=int)
        for s in range(model.num_states):
            at = states == s
            values[at] = np.searchsorted(table_cdf[s], v[at], side="right")
    else:
        values = (
            model.emission.means[states]
            + rng.standard_normal(n) * model.emission.sigmas[states]
        )
    return states, ObservationSequence(values)
