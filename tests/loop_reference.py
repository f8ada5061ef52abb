"""Loop-at-a-time versions of the whole-array library code, kept as test oracles.

Each function here steps through Python loops the way the library did
before its sampling, window, transition-count, bootstrap and EM
computations became whole-array numpy. The property tests require the
library to match them.
"""

import numpy as np

from hmmkld import (
    DegenerateFitError,
    DiscreteEmission,
    EmResult,
    GaussianEmission,
    HmmModel,
    LeaveOneOutImpossibleError,
    ModelError,
    ObservationSequence,
    forward_backward,
    forward_star,
    posterior_marginals,
)
from hmmkld.training import (
    EM_TOL,
    SIGMA_FLOOR,
    _DEGENERATE_WEIGHT,
    _expected_transition_counts,
    _initial_model,
    _is_gaussian,
    _tied_transition,
)


def sample_loop(model, n, seed) -> tuple:
    """Ancestral sampling with one ``rng.choice`` per state and per discrete symbol."""
    rng = np.random.default_rng(seed)
    m = model.num_states
    states = np.empty(n, dtype=int)
    states[0] = rng.choice(m, p=model.initial)
    for i in range(1, n):
        states[i] = rng.choice(m, p=model.transition[states[i - 1]])
    if isinstance(model.emission, DiscreteEmission):
        k = model.emission.num_symbols
        values = np.array([rng.choice(k, p=model.emission.table[s]) for s in states])
    else:
        values = (
            model.emission.means[states]
            + rng.standard_normal(n) * model.emission.sigmas[states]
        )
    return states, ObservationSequence(values)


def kl_row(p, q) -> float:
    """sum p log(p/q) over one row, with 0 log(0/q) = 0 and p log(p/0) = +inf."""
    mask = p > 0
    if np.any(q[mask] == 0.0):
        return float("inf")
    ps = p[mask]
    return float(np.dot(ps, np.log(ps) - np.log(q[mask])))


def _row_normalized(mat):
    return mat / mat.sum(axis=1, keepdims=True)


def windowed_influence_loop(model, obs, h) -> np.ndarray:
    """Window influence K, one window, one offset and one state at a time."""
    n = len(obs)
    if not 1 <= h <= n:
        raise ModelError(f"window length {h} out of range [1, {n}]")
    fb = forward_backward(model, obs)
    star = forward_star(model, fb)
    marg = posterior_marginals(fb)
    alpha = model.transition
    w = fb.scaled_weights()
    num_windows = n - h + 1
    k = np.empty(num_windows)
    for j in range(num_windows):
        last = j + h - 1
        hvec = [None] * h
        hvec[h - 1] = fb.bwd[last]
        for t in range(h - 2, -1, -1):
            v = alpha @ hvec[t + 1]
            hvec[t] = v / v.max()
        p_star = star.fstar[j] * hvec[0]
        total = p_star.sum()
        if total == 0.0:
            raise LeaveOneOutImpossibleError(
                f"impossible leave-out evidence for window at index {j}"
            )
        p_star = p_star / total
        total_k = kl_row(p_star, marg[j])
        m_star = p_star
        for t in range(h - 1):
            i = j + t
            kernel_star = _row_normalized(alpha * hvec[t + 1][None, :])
            kernel_full = _row_normalized(alpha * (w[i + 1] * fb.bwd[i + 1])[None, :])
            for s in range(model.num_states):
                if m_star[s] > 0:
                    total_k += m_star[s] * kl_row(kernel_star[s], kernel_full[s])
            m_star = m_star @ kernel_star
        k[j] = total_k
    return k


def transition_counts_loop(model, fb) -> np.ndarray:
    """Baum-Welch expected transition counts, one posterior xi_i at a time."""
    n, m = fb.fwd.shape
    w = fb.scaled_weights()
    counts = np.zeros((m, m))
    for i in range(n - 1):
        xi = model.transition * np.outer(fb.fwd[i], w[i + 1] * fb.bwd[i + 1])
        counts += xi / xi.sum()
    return counts


def pair_count_auc(h1, h0) -> float:
    """P(h1 > h0) + P(h1 = h0) / 2 by comparing every pair."""
    wins = (h1[:, None] > h0[None, :]).sum() + 0.5 * (h1[:, None] == h0[None, :]).sum()
    return wins / (h1.size * h0.size)


def bootstrap_auc_loop(h1, h0, num_bootstrap, ci_level, seed) -> tuple:
    """(auc, ci_lower, ci_upper), scoring the bootstrap resamples one by one."""
    h1 = np.asarray(h1, dtype=float)
    h0 = np.asarray(h0, dtype=float)
    auc = pair_count_auc(h1, h0)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    idx1 = rng.integers(h1.size, size=(num_bootstrap, h1.size))
    idx0 = rng.integers(h0.size, size=(num_bootstrap, h0.size))
    boot = np.empty(num_bootstrap)
    for b in range(num_bootstrap):
        boot[b] = pair_count_auc(h1[idx1[b]], h0[idx0[b]])
    tail = (1.0 - ci_level) / 2.0
    lower, upper = np.quantile(boot, [tail, 1.0 - tail])
    return float(auc), float(min(lower, auc)), float(max(upper, auc))


def m_step_loop(model, obs_values, cfg, fb, weights) -> HmmModel:
    """Baum-Welch M-step of one plain model, one emission symbol at a time."""
    m = cfg.num_states
    state_weight = weights.sum(axis=0)
    # An untied transition row is divided by the state's weight over 0..n-2.
    held = state_weight if cfg.tie_transitions else weights[:-1].sum(axis=0)
    if np.any(held < _DEGENERATE_WEIGHT):
        raise DegenerateFitError("a state received no posterior weight")

    counts = _expected_transition_counts(model, fb) if m > 1 else None
    if m == 1:
        transition = np.ones((1, 1))
    elif cfg.tie_transitions:
        n = weights.shape[0]
        off_diag = counts.sum() - np.trace(counts)
        transition = _tied_transition(off_diag / (n - 1), m)
    else:
        transition = counts / counts.sum(axis=1, keepdims=True)

    initial = weights[0] / weights[0].sum()

    if isinstance(model.emission, GaussianEmission):
        x = obs_values
        means = weights.T @ x / state_weight
        sq = (x[:, None] - means[None, :]) ** 2
        if cfg.homoscedastic:
            var = float((weights * sq).sum() / weights.shape[0])
            sigmas = np.full(m, max(np.sqrt(var), SIGMA_FLOOR))
        else:
            var = (weights * sq).sum(axis=0) / state_weight
            sigmas = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        emission = GaussianEmission(means, sigmas)
    else:
        k = model.emission.num_symbols
        symbols = obs_values.astype(int)
        table = np.zeros((m, k))
        for y in range(k):
            table[:, y] = weights[symbols == y].sum(axis=0)
        table /= table.sum(axis=1, keepdims=True)
        emission = DiscreteEmission(table)

    return HmmModel(initial, transition, emission)


def _em_try(obs, x, cfg, rng):
    """One EM try from a fresh starting model: (model, trace, converged)."""
    model = _initial_model(x, cfg, rng)
    trace = []
    for _ in range(cfg.max_iters):
        fb = forward_backward(model, obs)
        trace.append(fb.log_evidence)
        if len(trace) > 1:
            prev, cur = trace[-2], trace[-1]
            if abs(cur - prev) <= EM_TOL * max(abs(prev), 1.0):
                return model, trace, True
        try:
            model = m_step_loop(model, x, cfg, fb, posterior_marginals(fb))
        except DegenerateFitError as exc:
            exc.iterations = len(trace)
            raise
    return model, trace, False


def em_fit_loop(obs, cfg) -> EmResult:
    """Best-of-restarts EM with the restarts run one after another."""
    if len(obs) <= cfg.num_states:
        raise ModelError("need more observations than states")
    x = obs.values.astype(float) if _is_gaussian(obs) else obs.values
    streams = np.random.SeedSequence(cfg.seed).spawn(max(cfg.num_restarts, 1))
    best = None
    degenerate = 0
    finals, iterations, converged = [], [], []
    for idx, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        # A degenerate collapse gets a fresh start from the same stream
        # before giving up.
        for _ in range(3):
            try:
                model, trace, done = _em_try(obs, x, cfg, rng)
                break
            except DegenerateFitError as exc:
                degenerate += 1
                trace, done = None, False
                ran = exc.iterations
        if trace is None:
            finals.append(float("nan"))
            iterations.append(ran)
            converged.append(False)
            continue
        finals.append(float(trace[-1]))
        iterations.append(len(trace))
        converged.append(done)
        if best is None or trace[-1] > best.log_likelihoods[-1]:
            best = EmResult(model, np.array(trace), done, idx)
    if best is None:
        raise DegenerateFitError("all EM restarts were degenerate")
    best.degenerate_restarts = degenerate
    best.restart_final_lls = finals
    best.restart_iterations = iterations
    best.restart_converged = converged
    return best
