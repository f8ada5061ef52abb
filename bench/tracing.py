"""Span tracing at the module boundaries of the ``hmmkld`` package.

The tracer replaces every public function of the layer modules at each
site where it is looked up (``hmmkld.training.forward_backward``,
``hmmkld.outliers.em_fit``, ``hmmkld.cli.kld_influence``, ...), so a call
from one module into another is recorded as a span nested under its
caller. ``HmmModel.log_emission_matrix`` is wrapped on the class.
``hmmkld.reference`` is never wrapped: it is the correctness oracle.

Spans are kept in memory as ``[name, start, end, parent, units]`` and
written out by :meth:`Tracer.dump`. A span's self time is its duration
minus the durations of its direct children; children never overlap,
because everything runs on one thread. The per-index helpers
``kl_divergence`` and ``loo_marginal`` are only counted: a span per call
would cost more than the call, and their time stays in the caller's self
time.
"""

import contextlib
import json
import time
import types
from collections import Counter

import hmmkld
from hmmkld import cli, inference, influence, model, outliers, serialize, training

LAYERS = {
    "model": model,
    "inference": inference,
    "influence": influence,
    "training": training,
    "outliers": outliers,
    "serialize": serialize,
    "cli": cli,
}
COUNT_ONLY = frozenset({"influence.kl_divergence", "influence.loo_marginal"})
ROOT_LAYER = "bench"


def _em_result(tracer, result):
    tracer.counts["training.em_iters"] += len(result.log_likelihoods)
    tracer.counts["training.em_converged"] += int(result.converged)
    tracer.counts["training.degenerate_restarts"] += result.degenerate_restarts


def _scored_replicate(tracer, result):
    tracer.counts["outliers.resampled"] += result.resampled
    tracer.counts["outliers.z_degenerate"] += int(result.z_degenerate)
    tracer.counts["outliers.lof_clipped"] += int(result.lof_clipped)
    tracer.counts["outliers.t_kld_inf"] += int(result.t_kld == float("inf"))


# Counters read from public return values, by span name.
OBSERVERS = {
    "training.em_fit": _em_result,
    "outliers.simulate": _scored_replicate,
}
# Spans whose work is measured in sequence indices or windows: len(result).
SIZED = frozenset({"inference.forward_backward", "influence.windowed_influence"})


def span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    name = fn.__name__
    if layer == "cli" and name.startswith("cmd_"):
        name = name[len("cmd_"):]
    return f"{layer}.{name}"


class Tracer:
    """Records spans and counters while installed; restores the package on uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._wrappers = {}
        self._patched = []

    # -- recording -----------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A harness span, ``bench.<name>``, around the calls made inside it."""
        index = self._open(f"{ROOT_LAYER}.{name}")
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = span_name(fn)
        tracer = self
        if name in COUNT_ONLY:

            def wrapper(*args, **kwargs):
                tracer.counts[f"{name}.calls"] += 1
                return fn(*args, **kwargs)

        else:
            observe = OBSERVERS.get(name)
            sized = name in SIZED

            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                if sized:
                    tracer.spans[index][4] = len(result)
                if observe is not None:
                    observe(tracer, result)
                return result

        self._wrappers[fn] = wrapper
        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        layer_modules = {mod.__name__ for mod in LAYERS.values()}
        for owner in (hmmkld, *LAYERS.values()):
            for attr, value in list(vars(owner).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ in layer_modules
                    and not attr.startswith("_")
                ):
                    self._patch(owner, attr, self._wrap(value))
        method = model.HmmModel.log_emission_matrix
        self._patch(model.HmmModel, "log_emission_matrix", self._wrap(method))

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)
            fh.write("\n")

    def tree(self, root_name):
        """Per-name totals over the spans under every root named ``root_name``.

        Returns ``(by_name, wall_s, roots)`` where ``by_name[name]`` holds
        ``calls``, ``s`` (inclusive), ``self_s`` and ``units``.
        """
        root_of = []
        child_s = [0.0] * len(self.spans)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            root_of.append(index if parent < 0 else root_of[parent])
            if parent >= 0:
                child_s[parent] += end - start
        by_name = {}
        wall = 0.0
        roots = 0
        for index, (name, start, end, parent, units) in enumerate(self.spans):
            if self.spans[root_of[index]][0] != f"{ROOT_LAYER}.{root_name}":
                continue
            if parent < 0:
                wall += end - start
                roots += 1
            row = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "units": 0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_s[index]
            row["units"] += units
        return by_name, wall, roots

