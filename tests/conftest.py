import numpy as np
import pytest

from hmmkld import DiscreteEmission, GaussianEmission, HmmModel, training


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
