import itertools

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
def collapse_m_steps(monkeypatch):
    """``collapse_m_steps(calls)`` makes ``training._m_step`` raise
    ``DegenerateFitError``, as an EM collapse would, on the calls numbered
    in ``calls`` (counting from 1 after this call), or on every call when
    ``calls`` is None."""
    real = training._m_step

    def install(calls=None):
        count = itertools.count(1)

        def m_step(*args):
            if calls is None or next(count) in calls:
                raise training.DegenerateFitError("forced collapse")
            return real(*args)

        monkeypatch.setattr(training, "_m_step", m_step)

    return install
