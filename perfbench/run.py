"""Benchmark of dpconsensus, driven through ``cli.main`` in one process.

    python3 perfbench/run.py --workload mc_paper --seed 1 --seconds 10 --trace 0

Run it from the root of a dpconsensus checkout; it imports the package from
that checkout's ``src``.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics from traced repetitions.
The last line of standard output is one JSON object; the line before it
records the machine, sample counts and any failed operation.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before NumPy loads; threadpoolctl is not available
# to do it later.  With two threads on two cores, any other process on the
# second core stalls every threaded matmul while its partner spins: wide_graph
# repetitions went from 2.5 s to 14-27 s that way, and they gain nothing
# from the second thread on an idle machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

if not (SRC / "dpconsensus" / "cli.py").is_file():
    sys.exit(f"error: no dpconsensus sources under {SRC}; run from the root of a dpconsensus checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import dpconsensus  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dpconsensus import engine, noise  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s
MIN_REPS = 3  # repetitions per run, even past --seconds
NOISE_PROBE_STEPS = 2000
CHILD_TIMEOUT_S = 60  # a set-up takes about 0.5 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "experiments.config_s": "s",
    "graphs.build_s": "s",
    "graphs.balance_s": "s",
    "graphs.spectrum_s": "s",
    "graphs.spectrum_calls": "count",
    "experiments.run_experiment_s": "s",
    "experiments.aggregate_s": "s",
    "experiments.artifacts_s": "s",
    "experiments.artifact_bytes": "bytes",
    "engine.run_many_s": "s",
    "engine.run_s": "s",
    "engine.diverged_runs": "count",
    "kernel.us_per_step": "us",
    "kernel.agent_steps": "count",
    "kernel.noiseless_us_per_step": "us",
    "noise.laplace_us_per_step": "us",
    "noise.draws": "count",
    "schedules.arrays_s": "s",
    "privacy.epsilon_finite_s": "s",
    "privacy.report_s": "s",
    "privacy.terms": "count",
    "privacy.bound_us": "us",
    "special.gamma_us": "us",
    "designer.search_s": "s",
    "designer.grid_points": "count",
    "designer.feasible_points": "count",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_sample(trace: bool, refs: list[str]) -> tuple[float, dict]:
    """Run ``fresh.py`` in a new interpreter; (seconds until it printed, its phase timings)."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "fresh.py"), str(int(trace)), *refs],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
        text=True,
    ) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"fresh.py exited with {proc.returncode}")
    return elapsed, json.loads(line)


class Tally:
    """Operations attempted and failed; the messages of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, fails: list[str], count: int = 1, failed: int | None = None) -> None:
        self.attempted += count
        n_bad = len(fails) if failed is None else failed
        self.failed += min(n_bad, count)
        self.messages += fails


def tally_repetition(tally: Tally, w, rep) -> None:
    """One operation per command, per Monte Carlo run and per grid evaluation."""
    for cmd in rep.commands:
        bad = [] if cmd.code == 0 else [f"{' '.join(cmd.argv)} -> {cmd.code}: {cmd.stderr.strip()[:200]}"]
        tally.op(bad)
        if cmd.argv[0] == "simulate":
            diverged = workloads.diverged_runs(cmd)
            n_bad = w.runs if diverged is None else diverged
            tally.op([f"{n_bad} of {w.runs} runs diverged or unreported"] if n_bad else [], w.runs, n_bad)
    for report in rep.grid_reports:
        tally.op([report] if isinstance(report, str) else checks.privacy_report_consistent(report))


def kernel_backends() -> dict:
    """Each kernel backend's simulate function, or why it is unavailable."""
    try:
        from dpconsensus._kernels import get_backend
    except ImportError:  # one kernel and no backend selector
        return {}
    out = {}
    for name in ("pure", "compiled"):
        try:
            out[name] = get_backend(name)
        except ImportError as exc:
            out[name] = f"unavailable ({exc})"
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    backends = {k: v if isinstance(v, str) else "available" for k, v in kernel_backends().items()}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": getattr(engine, "BACKEND_NAME", None),
        "DPCONSENSUS_BACKEND": os.environ.get("DPCONSENSUS_BACKEND"),
        "backends": backends,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


def work_per_rep(w, rep) -> int:
    """Agent-steps n*M*T on simulation workloads, evaluations on accounting."""
    return w.agent_steps if w.agent_steps else workloads.evaluations(rep)


def setup_samples(w, trace: bool) -> list[tuple[float, dict]]:
    return [setup_sample(trace, w.config_refs) for _ in range(SETUP_SAMPLES)]


def repetitions(w, seconds: float, workdir: Path, tracer_every: int = 0):
    """Repeat ``w`` for about ``seconds`` (at least MIN_REPS times); yield (repetition, tracer).

    No repetition starts when less than half of the previous one's time is
    left.  With ``tracer_every`` = 2, every second repetition runs traced.
    """
    deadline, i, last = perf_counter() + seconds, 0, 0.0
    while i < MIN_REPS or perf_counter() + last / 2 < deadline:
        out = str(workdir / f"out{i}")
        tracer = tracing.Tracer() if tracer_every and i % tracer_every else None
        if tracer:
            with tracer:
                rep = workloads.run_repetition(w, out, tracer)
        else:
            rep = workloads.run_repetition(w, out)
        yield rep, tracer
        i, last = i + 1, rep.wall_s


def end_to_end(w, seconds: float, workdir: Path, tally: Tally):
    """(end-to-end metrics, repetitions, details: the samples behind each metric)."""
    setup_s = [t for t, _ in setup_samples(w, trace=False)]
    reps = [rep for rep, _ in repetitions(w, seconds, workdir)]
    # This process was started for this one workload, and its children are
    # not counted, so its own peak is the workload's.  ru_maxrss is in KiB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # The fastest repetition: load from other tenants of a shared host only
    # ever adds time, and it comes and goes within a run, so the minimum
    # drifts less from run to run than the median does.
    fastest = min(reps, key=lambda r: r.wall_s)
    walls = [r.wall_s for r in reps]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": fastest.wall_s,
        "work_per_s": work_per_rep(w, fastest) / fastest.wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": setup_s, "wall_s": walls, "peak_rss_mb": [peak_rss_mb]}
    return metrics, reps, {"samples": samples, "median_wall_s": statistics.median(walls)}


def _outer(spans, name: str) -> float:
    """Time inside spans called ``name``, not counting nested calls twice."""
    return sum(
        s.duration
        for i, s in enumerate(spans)
        if s.name == name and all(a.name != name for a in tracing.ancestors(spans, i))
    )


def _mean_us(spans, name: str) -> float:
    d = [s.duration for s in spans if s.name == name]
    return 1e6 * statistics.fmean(d) if d else 0.0


def batch_kernel_spans(spans):
    """Kernel calls of the requested batch, not the artifact re-run of run 0."""
    return [
        s
        for i, s in enumerate(spans)
        if s.name == "kernel.simulate" and all(a.name != "engine.run" for a in tracing.ancestors(spans, i))
    ]


def layer_metrics(spans, rep) -> dict:
    def named(name):
        return [s for s in spans if s.name == name]

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    batch = batch_kernel_spans(spans)
    batch_steps = sum(s.attrs.get("steps", 0) for s in batch)
    eps_1e7 = [s.duration for s in named("privacy.epsilon_finite") if s.attrs.get("horizon") == 10_000_000]
    top = sum(s.duration for s in spans if s.parent < 0)
    return {
        "cli.self_s": sum(s.self_s for s in named("cli.main")),
        "graphs.spectrum_s": _outer(spans, "graphs.spectrum"),
        "graphs.spectrum_calls": len(named("graphs.spectrum")),
        "experiments.run_experiment_s": _outer(spans, "experiments.run_experiment"),
        "experiments.aggregate_s": sum(s.self_s for s in named("experiments.run_experiment")),
        "experiments.artifacts_s": _outer(spans, "experiments.artifacts"),
        "experiments.artifact_bytes": workloads.artifact_bytes(rep.out_dir),
        "engine.run_many_s": _outer(spans, "engine.run_many"),
        "engine.run_s": _outer(spans, "engine.run"),
        "engine.diverged_runs": attr_sum("kernel.simulate", "diverged"),
        "kernel.us_per_step": 1e6 * sum(s.self_s for s in batch) / batch_steps if batch_steps else 0.0,
        "kernel.agent_steps": attr_sum("kernel.simulate", "agent_steps"),
        "noise.draws": attr_sum("kernel.simulate", "draws"),
        "schedules.arrays_s": _outer(spans, "schedules.arrays"),
        "privacy.epsilon_finite_s": statistics.fmean(eps_1e7) if eps_1e7 else 0.0,
        "privacy.report_s": _outer(spans, "privacy.report"),
        "privacy.terms": attr_sum("privacy.epsilon_finite", "horizon"),
        "privacy.bound_us": _mean_us(spans, "privacy.bound"),
        "special.gamma_us": _mean_us(spans, "special.gamma"),
        "designer.search_s": _outer(spans, "designer.search"),
        "designer.grid_points": attr_sum("designer.search", "grid_points"),
        "designer.feasible_points": attr_sum("designer.search", "feasible_points"),
        "trace.coverage_frac": top / rep.wall_s,
    }


def probes(batch) -> dict:
    """Kernel without noise, and laplace_matrix alone, at the batch's (n, M, T).

    Both read 0 when the workload has no batch or the kernel's arguments
    are no longer (weights, laplacian, gauge, x0, alpha, bscale, seed, run_ids, ...).
    """
    zero = {"kernel.noiseless_us_per_step": 0.0, "noise.laplace_us_per_step": 0.0}
    if not batch:
        return zero
    simulate, args, kwargs = batch[0].attrs["call"]
    try:
        n, seed, run_ids, steps = args[0].shape[0], args[6], args[7], len(args[4])
        quiet = [*args[:5], np.zeros(steps), *args[6:]]
        t0 = perf_counter()
        simulate(*quiet, **kwargs)
        noiseless = perf_counter() - t0
    except (AttributeError, IndexError, TypeError, ValueError):
        return zero
    k_probe = min(steps, NOISE_PROBE_STEPS)
    t0 = perf_counter()
    for k in range(k_probe):
        noise.laplace_matrix(seed, run_ids, n, k, 1.0)
    lap = perf_counter() - t0
    return {
        "kernel.noiseless_us_per_step": 1e6 * noiseless / steps,
        "noise.laplace_us_per_step": 1e6 * lap / k_probe,
    }


def backend_probe(batch) -> dict:
    """Agent-steps/s of each kernel backend on the first batch call, n counted.

    The active backend is read from its traced span; any other available
    backend is timed on the same arguments.
    """
    out = {}
    for name, simulate in kernel_backends().items():
        if isinstance(simulate, str) or not batch or "agent_steps" not in batch[0].attrs:
            out[name] = simulate if isinstance(simulate, str) else "available"
            continue
        active, args, kwargs = batch[0].attrs["call"]
        seconds = batch[0].self_s
        if simulate is not active:
            t0 = perf_counter()
            try:
                simulate(*args, **kwargs)
            except ValueError as exc:  # e.g. a size the backend does not support
                out[name] = f"failed ({exc})"
                continue
            seconds = perf_counter() - t0
        out[name] = {"agent_steps_per_s": batch[0].attrs["agent_steps"] / seconds}
    return out


def per_layer(w, seconds: float, workdir: Path, tally: Tally):
    """(per-layer metrics, repetitions, details); traced and untraced repetitions alternate."""
    setups = [doc for _, doc in setup_samples(w, trace=True)]
    metrics = {k: statistics.median(d[k] for d in setups) for k in setups[0]}
    reps, plain, traced, layers, first = [], [], [], [], None
    for rep, tracer in repetitions(w, max(seconds, 0.0), workdir, tracer_every=2):
        reps.append(rep)
        if tracer is None:
            plain.append(rep.wall_s)
            continue
        traced.append(rep.wall_s)
        layers.append(layer_metrics(tracer.spans, rep))
        first = first or tracer
    for key in layers[0]:
        metrics[key] = statistics.median(d[key] for d in layers)
    metrics.update(probes(batch_kernel_spans(first.spans)))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    TRACE_OUT.mkdir(exist_ok=True)
    first.dump(TRACE_OUT / f"spans_{w.name}_{w.seed}.json")
    samples = {"setup": len(setups), "untraced_wall_s": plain, "traced_wall_s": traced}
    return metrics, reps, {"samples": samples, "backend_probe": backend_probe(batch_kernel_spans(first.spans))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(dpconsensus.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported dpconsensus from {dpconsensus.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        w = workloads.prepare(args.workload, args.seed, workdir)
        metrics, reps, details = (per_layer if args.trace else end_to_end)(w, args.seconds, workdir, tally)
        for rep in reps:
            tally_repetition(tally, w, rep)
        for fails in checks.verify_workload(w, reps):
            tally.op(fails)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    named = {"failed_frac": {"value": tally.failed / tally.attempted, "unit": "fraction"}}
    if not args.trace:
        unit = "agent-steps/s" if w.agent_steps else "evaluations/s"
        named["agent_steps_per_s" if w.agent_steps else "evals_per_s"] = {"value": metrics["work_per_s"], "unit": unit}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **details,
        "named": named,
        "failures": tally.messages[:20],
        "machine": machine(),
    }
    print(json.dumps(info))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
