"""Loop-at-a-time versions of the whole-array library code, kept as test oracles.

Each function here steps through Python loops the way the library did
before its forward-backward, sampling, transition-count, bootstrap
and EM computations became whole-array numpy, and before the simulation
benchmark fitted a cell's replicates together. The property tests require
the library to match them.
"""

import numpy as np

from hmmkld import (
    DegenerateFitError,
    DiscreteEmission,
    EmResult,
    EvidenceImpossibleError,
    ForwardBackward,
    GaussianEmission,
    HmmModel,
    ModelError,
    ObservationSequence,
    ScoredReplicate,
    em_fit,
    forward_backward,
    kld_influence,
    lof_statistic,
    posterior_marginals,
    z_value_scores,
)
from hmmkld.outliers import NUM_STATES, detector_config
from hmmkld.training import (
    EM_TOL,
    SIGMA_FLOOR,
    _DEGENERATE_WEIGHT,
    _expected_transition_counts,
    _initial_model,
    _is_gaussian,
    _tied_transition,
)


def forward_backward_loop(model: HmmModel, obs: ObservationSequence) -> ForwardBackward:
    """The scaled forward and backward recursions, one index per step.

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
    log_w = logw - offsets[..., None]
    w = np.ascontiguousarray(np.exp(log_w).swapaxes(0, 1))
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
    under = ~d[:-1].all(axis=0)
    if under.any():
        bwd[:, under] = _rescaled_backward_loop(alpha[under], w_col[:, under])

    # The log evidence as the last of the running sums of interleaved
    # terms, which adds them in the order L_i = (L_{i-1} + log c_i) + offset_i.
    terms = np.empty((2 * n, num_lanes))
    terms[0::2] = np.log(c)
    terms[1::2] = offsets.T
    log_evidence = np.add.accumulate(terms, axis=0)[-1]

    # Back to the caller's layout: lane axis first, or none for a plain model.
    if model.lanes is None:
        def out(a):
            return a[:, 0]
    else:
        def out(a):
            return np.ascontiguousarray(a.swapaxes(0, 1))

    return ForwardBackward(
        fwd=out(fwd.reshape(n, num_lanes, m)),
        bwd=out(bwd.reshape(n, num_lanes, m)),
        log_evidence=float(log_evidence[0]) if model.lanes is None else log_evidence,
        log_weights=log_w[0] if model.lanes is None else log_w,
    )


def _rescaled_backward_loop(alpha: np.ndarray, w_col: np.ndarray):
    """The backward pass with each ``v = w[i+1]·b[i+1]`` divided by its
    maximum before the matmul. It serves the lanes whose plain pass
    underflowed to 0 in every state; a 0 here too raises
    ``EvidenceImpossibleError``.

    Returns the rows, shape (n, R, m, 1).
    """
    n = w_col.shape[0]
    bwd = np.ones(w_col.shape)
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
    return bwd


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


def kl_divergence_select(p, q):
    """``kl_divergence`` as it was before it overwrote its p = 0 terms in
    place: a three-way select, the ``sum`` method and ``np.maximum``."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p == 0.0, 0.0 * q, p * (np.log(p) - np.log(q)))
    total = np.maximum(terms.sum(axis=-1), 0.0)
    return float(total) if total.ndim == 0 else total


def transition_counts_loop(model, fb) -> np.ndarray:
    """Baum-Welch expected transition counts, one posterior xi_i at a time."""
    n, m = fb.fwd.shape
    w = np.exp(fb.log_weights)
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


def simulate_loop(cfg, delta, replicate) -> ScoredReplicate:
    """One replicate scored on its own: its series drawn from the stream of
    (seed, hypothesis, index, attempt), its own ``em_fit``, and a redraw
    from the next attempt while the fit is degenerate, at most 20 times."""
    attempt = 0
    while True:
        key = (0 if delta is None else 1, replicate, attempt)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=key))
        idx = np.sort(rng.choice(cfg.source.size, size=cfg.subsample_size, replace=False))
        values = cfg.source[idx].copy()
        positions = []
        if delta is not None:
            mask = rng.random(cfg.subsample_size) < cfg.contamination
            noise = rng.normal(0.0, delta, cfg.subsample_size)
            values[mask] += noise[mask]
            positions = np.flatnonzero(mask).tolist()
        obs = ObservationSequence(values)
        em = detector_config(NUM_STATES, cfg.em_restarts, int(rng.integers(2**63)))
        try:
            fit = em_fit(obs, em)
        except DegenerateFitError:
            attempt += 1
            if attempt > 20:
                raise
            continue
        zres = z_value_scores(values, k=NUM_STATES, seed=rng)
        lres = lof_statistic(values)
        return ScoredReplicate(
            t_kld=float(np.max(kld_influence(fit.model, obs).k)),
            s_z=zres.statistic,
            l_lof=lres.statistic,
            outlier_positions=positions,
            resampled=attempt,
            z_degenerate=zres.degenerate,
            lof_clipped=lres.clipped,
        )
