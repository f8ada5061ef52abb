"""Measurement loop, correctness bookkeeping and metrics of one benchmark run.

A workload is a cycle of jobs; a job is the unit a user waits on. The
untraced run repeats the cycle until ``seconds`` have passed (at least one
whole cycle) and reports end-to-end metrics, in seconds rescaled to a
nominal host speed (see ``reference_seconds``). The traced run executes the
first quarter of the cycle without and then the whole cycle with the tracer
installed, and reports per-layer metrics of the traced cycle plus the
tracing overhead. Both runs then pass the workload's correctness gate.
"""

import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from tracing import LAYERS, ROOT_LAYER, Tracer
from workloads import WORKLOADS, digest

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import hmmkld; print(time.perf_counter() - start)"
)

# The speed of a shared host drifts by tens of percent within minutes, for
# every process alike: the same job took 0.12 s and 0.17 s one minute apart,
# while its ratio to the reference kernel below moved by 3%. So each timed
# piece of work is divided by the kernel's time measured right next to it,
# and reported in seconds at a nominal speed at which the kernel takes REF_S.
# A change to hmmkld moves the ratio; a change of host speed moves both
# parts alike. The kernel is fixed here and shares no code with hmmkld.
REF_S = 0.025
REF_STEPS = 3000
_REF_STEP = np.full((3, 3), 0.05) + 0.85 * np.eye(3)

# Figures per operation kind, printed by the untraced run next to the
# end-to-end metrics: (name, unit, kind, how). "rate" is the median over
# jobs of units per second, "per_job" the median over jobs of the kind's
# summed seconds.
CALL_FIGURES = (
    ("profile_obs_per_s", "1/s", "profile", "rate"),
    ("window_obs_per_s", "1/s", "window", "rate"),
    ("fit_s", "s", "fit", "per_job"),
    ("cli_train_s", "s", "cli_train", "per_job"),
    ("cli_influence_s", "s", "cli_influence", "per_job"),
    ("cli_detect_s", "s", "cli_detect", "per_job"),
    ("cli_simulate_s", "s", "cli_simulate", "per_job"),
    ("cli_evaluate_s", "s", "cli_evaluate", "per_job"),
)


def reference_seconds() -> float:
    """Time of a fixed loop of small numpy operations, independent of hmmkld.

    Like the library's per-index loops, it is bound by the interpreter and by
    numpy's per-call overhead.
    """
    start = time.perf_counter()
    p = np.full(3, 1.0 / 3.0)
    for _ in range(REF_STEPS):
        p = p @ _REF_STEP
        p = p / p.sum()
        float(np.sum(p * np.log(p)))
    return time.perf_counter() - start


def import_seconds(src) -> float:
    """Median over fresh interpreters of the rescaled time ``import hmmkld`` takes."""
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(probe.stdout) * REF_S / reference_seconds())
    return statistics.median(times)


class Record:
    """Operations attempted and failed, and the timed library calls of a run."""

    def __init__(self):
        self.ops = 0
        self.failed = set()
        self.current = -1
        self.job = -1
        self.calls = []  # (job, kind, seconds, units)
        self.scale = {}  # job -> REF_S / reference time measured before it

    def call(self, kind, fn, *args, units=1, **kwargs):
        """Time one library call; the caller checks its output afterwards."""
        self.current = self.ops
        self.ops += 1
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.calls.append((self.job, kind, time.perf_counter() - start, units))
        return result

    def check(self, ok, message) -> None:
        if not ok:
            self.fail(message)

    def fail(self, message) -> None:
        self.failed.add(self.current)
        print(f"FAILED: {message}", file=sys.stderr)

    @contextlib.contextmanager
    def op(self, what):
        """An untimed operation (a gate check); an exception fails it."""
        self.current = self.ops
        self.ops += 1
        try:
            yield
        except Exception:
            traceback.print_exc()
            self.fail(f"{what} raised")


def run_job(rec, job, index):
    """Run one job; returns its digest, or None if a call raised."""
    rec.job = index
    try:
        return digest(job(rec))
    except Exception:
        traceback.print_exc()
        rec.fail(f"job {index} raised")
        return None


def compare(rec, expected, found, what) -> None:
    with rec.op(f"{what} repeats"):
        rec.check(found == expected, f"{what}: digest changed between two runs of the same input")


def setup(wl, rec, tracer):
    """Generate inputs and warm up, several times; returns (rescaled seconds, inputs)."""
    times, input_digests = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with tracer.root("setup") if tracer else contextlib.nullcontext():
            inputs = wl.make_inputs()
            wl.warm_up(inputs)
        times.append((time.perf_counter() - start) * REF_S / reference_seconds())
        input_digests.append(digest(wl.input_parts(inputs)))
    with rec.op("inputs repeat for one seed"):
        rec.check(len(set(input_digests)) == 1, "input generation is not deterministic")
    return times, inputs


def measure(wl, inputs, rec, seconds):
    """Repeat the job cycle until ``seconds`` pass; returns the first cycle's digests.

    Every job is timed call by call, after a run of the reference kernel;
    a repeated job must give the same digest.
    """
    jobs = wl.jobs(inputs)
    first = []
    walls = []
    begin = time.perf_counter()
    index = 0
    while True:
        k = index % len(jobs)
        rec.scale[index] = REF_S / reference_seconds()
        start = time.perf_counter()
        found = run_job(rec, jobs[k], index)
        walls.append(time.perf_counter() - start)
        if index < len(jobs):
            first.append(found)
        else:
            compare(rec, first[k], found, f"job {k}")
        index += 1
        elapsed = time.perf_counter() - begin
        if index >= len(jobs) and elapsed + statistics.median(walls) > seconds:
            break
    if index == len(jobs):
        # No job ran twice: repeat the first one for the determinism check.
        # A negative job index keeps the repeat out of the job timings.
        compare(rec, first[0], run_job(rec, jobs[0], -1), "job 0")
    return first


def traced_cycle(wl, inputs, rec, tracer):
    """One cycle under the tracer; returns (its digests, tracing overhead ratio).

    The overhead is the traced over the untraced wall time of the cycle's
    first quarter of jobs (at least one), run once without the tracer first.
    """
    jobs = wl.jobs(inputs)
    head = max(1, len(jobs) // 4)
    start = time.perf_counter()
    plain = [run_job(rec, jobs[k], k) for k in range(head)]
    plain_wall = time.perf_counter() - start
    tracer.counts.clear()
    digests = []
    with tracer, tracer.root("cycle"):
        start = time.perf_counter()
        for k, job in enumerate(jobs):
            digests.append(run_job(rec, job, k))
            if k == head - 1:
                head_wall = time.perf_counter() - start
    compare(rec, plain, digests[:head], "traced cycle")
    return digests, head_wall / plain_wall


def per_job(rec, kinds=None, rescale=True):
    """Seconds and units per job, summed over the job's calls of ``kinds``."""
    seconds = defaultdict(float)
    units = defaultdict(float)
    for job, kind, s, u in rec.calls:
        if job >= 0 and (kinds is None or kind in kinds):
            seconds[job] += s * rec.scale[job] if rescale else s
            units[job] += u
    return seconds, units


def call_figures(rec):
    wall = per_job(rec, rescale=False)[0]
    figures = {
        "jobs": (len(wall), "count"),
        "job_wall_s": (statistics.median(wall.values()), "s"),
        "ref_kernel_s": (statistics.median(REF_S / v for v in rec.scale.values()), "s"),
    }
    for name, unit, kind, how in CALL_FIGURES:
        seconds, units = per_job(rec, {kind})
        if not seconds:
            continue
        if how == "rate":
            value = statistics.median(units[j] / seconds[j] for j in seconds)
        else:
            value = statistics.median(seconds.values())
        figures[name] = (value, unit)
    return figures


def end_to_end(rec, import_s, setup_times, cycle_length):
    """The end-to-end metrics; ``job_s`` is the mean job time of one cycle.

    Each job of the cycle counts once, with the median time of its repeats,
    so jobs of unequal cost (the CLI seeds of ``cli-annual``) weigh the same
    whether the run repeated them or not.
    """
    repeats = defaultdict(list)
    for job, s in per_job(rec)[0].items():
        repeats[job % cycle_length].append(s)
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "job_s": statistics.mean(statistics.median(r) for r in repeats.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, overhead_frac, names):
    by_name, wall, _ = tracer.tree("cycle")
    counts = tracer.counts

    def get(name, field):
        return by_name.get(name, {}).get(field, 0)

    def per_unit(name):
        units = get(name, "units")
        return 1e6 * get(name, "s") / units if units else 0.0

    fits = get("training.em_fit", "calls")
    m = {}
    for metric in names:
        head, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s") and head in by_name:
            m[metric] = get(head, field)
        elif metric in counts:
            m[metric] = counts[metric]
        else:
            m[metric] = 0
    m["inference.forward_backward.us_per_index"] = per_unit("inference.forward_backward")
    m["influence.windowed_influence.us_per_window"] = per_unit("influence.windowed_influence")
    m["training.converged_frac"] = counts["training.em_converged"] / fits if fits else 0.0
    for layer in (*LAYERS, ROOT_LAYER):
        m[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in by_name.items() if name.split(".")[0] == layer
        )
    setup_by_name, _, setups = tracer.tree("setup")
    m["model.sample.s"] = setup_by_name.get("model.sample", {}).get("s", 0.0) / max(setups, 1)
    m["trace.wall_s"] = wall
    m["trace.overhead_frac"] = overhead_frac
    return m


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "seed": seed,
    }


def run(spec, name, seed, seconds, trace, src, out_dir: Path):
    """One benchmark run; returns (result object for the last line, exit code).

    ``spec`` is the parsed ``BENCHMARK.json``: it names the metrics to report
    and their units.
    """
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        wl = WORKLOADS[name](seed=seed, workdir=workdir)
        rec = Record()
        tracer = Tracer() if trace else None
        if tracer:
            with tracer:
                setup_times, inputs = setup(wl, rec, tracer)
            cycle_digests, overhead = traced_cycle(wl, inputs, rec, tracer)
        else:
            setup_times, inputs = setup(wl, rec, None)
            cycle_digests = measure(wl, inputs, rec, seconds)
            import_s = import_seconds(src)
        wl.gate(rec, inputs)
        counts = wl.counts(inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"digest {name} seed={seed} {digest([d.encode() for d in cycle_digests if d])}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if tracer:
        metrics = per_layer(tracer, overhead, units)
        tracer.dump(out_dir / f"trace-{name}-seed{seed}.json", {"env": env, "metrics": metrics})
    else:
        metrics = end_to_end(rec, import_s, setup_times, len(wl.jobs(inputs)))
        print(f"figure import_s {import_s:.6g} s")
        for fig, (value, unit) in call_figures(rec).items():
            print(f"figure {fig} {value:.6g} {unit}")
    for fig, value in counts.items():
        print(f"figure {fig} {value} count")
    error_rate = len(rec.failed) / max(rec.ops, 1)
    print(f"figure error_rate {error_rate:.6g} ratio ({len(rec.failed)}/{rec.ops} operations failed)")
    for metric, value in metrics.items():
        print(f"metric {metric} {value:.6g} {units[metric]}")
    result = {
        "correct": not rec.failed,
        "attempted": rec.ops,
        "failed": len(rec.failed),
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }
    return result, 0 if not rec.failed else 1
