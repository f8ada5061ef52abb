import re

import numpy as np
import pytest

from hmmkld import DiscreteEmission, GaussianEmission, HmmModel, training


# The 3-state chain fitted to the paper's annual series.
ANNUAL_CHAIN = HmmModel(
    np.full(3, 1.0 / 3.0),
    [[0.915, 0.0425, 0.0425], [0.0425, 0.915, 0.0425], [0.0425, 0.0425, 0.915]],
    GaussianEmission.homoscedastic([-0.372, 0.069, -0.068], 0.114),
)

# Evidence 1e-400, below the double range, on the symbols 0 1 0. The forward
# rows rescale at every step and stay positive.
BELOW_DOUBLE_RANGE = HmmModel(
    [1.0, 0.0, 0.0],
    [[1.0, 1e-200, 0.0], [1e-200, 0.0, 1.0], [0.0, 1e-200, 1.0]],
    DiscreteEmission(np.eye(3)),
)

# Evidence 1e-400 on the symbols 0 1 0, as for BELOW_DOUBLE_RANGE, but here
# the forward step at index 1 multiplies two factors of 1e-200 in the only
# state that has both a way in and weight: (f @ alpha) * w is 0 in every
# state unless it is formed in log space.
FORWARD_BELOW_DOUBLE_RANGE = HmmModel(
    [1.0, 0.0, 0.0],
    [[1.0, 1e-200, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    DiscreteEmission([[1.0, 0.0, 0.0], [1.0, 1e-200, 0.0], [0.0, 1.0, 0.0]]),
)

# Evidence 1e-600 on the symbols 1 1 1, all of it on state 0. The plain
# backward pass gives the row [0, 1] at index 0: state 0's entry underflows
# and state 1's does not, so no normalizer is 0 and the log-space pass never
# runs, while the forward row there is [1, 0]. The enumeration's K is 0 at
# every index and window.
POSTERIOR_ROW_UNDERFLOW = HmmModel(
    [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], DiscreteEmission([[1.0, 1e-200], [0.5, 0.5]])
)

# The star forward row times the backward row underflows in every state at
# index 0 of the symbols 2 1, where the enumeration's K is 0.
LEAVE_OUT_UNDERFLOW = HmmModel(
    [0.0, 1.0, 1e-200],
    [[1 / 3] * 3, [0.0, 0.0, 1.0], [1e-200, 1e-200, 1.0]],
    DiscreteEmission([[1 / 3] * 3, [1.0, 1e-200, 0.0], [1e-200, 0.0, 1.0]]),
)

# The same for the window of 2 starting at index 1 of the symbols 0 2 2 1,
# where the enumeration's K is 0.
WINDOW_START_UNDERFLOW = HmmModel(
    [0.5, 5e-201, 0.5],
    [[0.0, 1.0, 0.0], [1e-200, 1e-200, 1.0], [0.0, 0.0, 1.0]],
    DiscreteEmission([[1e-200, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
)


def bad_value_refusal(bad: float) -> str:
    """The pattern ``check_finite`` gives after the name and index of a bad
    value: NaN and an infinity are not finite, a finite value is too large."""
    if np.isfinite(bad):
        return re.escape(f"exceeds 1e+150 in magnitude: {bad}")
    return f"is not finite: {bad}"


def random_discrete_model(rng, m, k, floor=0.1):
    g = rng.random(m) + floor
    g /= g.sum()
    a = rng.random((m, m)) + floor
    a /= a.sum(axis=1, keepdims=True)
    b = rng.random((m, k)) + floor
    b /= b.sum(axis=1, keepdims=True)
    return HmmModel(g, a, DiscreteEmission(b))


def random_gaussian_model(rng, m, floor=0.1):
    g = rng.random(m) + floor
    g /= g.sum()
    a = rng.random((m, m)) + floor
    a /= a.sum(axis=1, keepdims=True)
    means = rng.normal(0.0, 2.0, m)
    sigmas = rng.uniform(0.3, 1.5, m)
    return HmmModel(g, a, GaussianEmission(means, sigmas))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def collapse_tries(monkeypatch):
    """``collapse_tries(keys)`` makes each EM try named in ``keys``, a set
    of ``(restart, try)`` pairs counted from 0, start from a model in which
    no path enters state 0. State 0 then gets no posterior weight, so the
    try collapses at its first M-step, as a real collapse would. Each key
    fires once; with ``keys`` None every try collapses."""
    real = training._initial_model

    def install(keys=None):
        pending = None if keys is None else set(keys)
        tries = {}

        def initial_model(x, cfg, rng):
            model = real(x, cfg, rng)
            # em_fit gives restart r the stream spawned r-th from its seed.
            key = (rng.bit_generator.seed_seq.spawn_key[-1], tries.setdefault(rng, 0))
            tries[rng] += 1
            if pending is not None:
                if key not in pending:
                    return model
                pending.discard(key)
            initial = model.initial.copy()
            initial[0] = 0.0
            transition = model.transition.copy()
            transition[:, 0] = 0.0
            return HmmModel(
                initial / initial.sum(),
                transition / transition.sum(axis=1, keepdims=True),
                model.emission,
            )

        monkeypatch.setattr(training, "_initial_model", initial_model)

    return install
