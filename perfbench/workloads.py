"""Workload inputs, and one repetition of each workload driven through ``cli.main``.

Every input is derived from the workload name and the benchmark seed; the
program only ever sees the generated config files and command lines.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dpconsensus import cli, privacy
from dpconsensus.schedules import PowerNoise, PowerStep

WORKLOADS = ("mc_paper", "single_long", "wide_graph", "accounting")
SHIPPED_CONFIGS = ("fig2a", "fig2_caption", "fig3a", "sec4_text")

# single_long: the shipped fig2a config with its horizon raised to 5e4.
FIG2A_LONG = {
    "name": "fig2a_long",
    "graph": {"fixture": "fig1a"},
    "x0": [10, -8, 6, -4, 2],
    "step": {"kind": "power", "a1": 0.3, "a2": 1, "beta": 1},
    "noise": {"kind": "power", "b_floor": 1, "gamma": 0.1, "a2": 1, "offset": 1},
    "horizon": 50_000,
    "runs": 200,
    "stride": 10,
}

# wide_graph: a planted two-camp graph on WIDE_N agents.
WIDE_N = 96
WIDE_EDGE_P = 0.08
WIDE_RUNS = 200
WIDE_HORIZON = 2000
WIDE_A1 = 0.5
WIDE_DESIGN = {"s_star": 0.59, "r_star": 9, "epsilon_star": 2.5, "delta": 1}

# accounting: privacy_report over a1 x gamma at beta = 1 on fig1a (c_min = 1).
GRID_A1 = (0.3, 0.5, 0.7, 0.9)
GRID_GAMMA = (-0.3, 0.0, 0.1, 0.3)
FIG1A_C_MIN = 1.0

OUT = "{out}"  # replaced by a fresh artifact directory in every repetition


@dataclass
class Workload:
    name: str
    seed: int
    config_refs: list[str]  # configs the set-up phase reads (path or shipped name)
    commands: list[list[str]]  # argv lists for cli.main
    agent_steps: int = 0  # n*M*T of the requested batch, per repetition
    runs: int = 0  # Monte Carlo runs requested per repetition
    mc_seed: int | None = None
    planted_gauge: np.ndarray | None = None
    grid: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class Command:
    argv: list[str]
    code: object  # exit code, or the text of an uncaught exception
    stdout: str
    stderr: str


@dataclass
class Repetition:
    wall_s: float
    commands: list[Command]
    grid_reports: list = field(default_factory=list)
    out_dir: str | None = None


def derived_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(name)])


def planted_graph(rng: np.random.Generator, n: int = WIDE_N, p: float = WIDE_EDGE_P):
    """Ring plus Erdos-Renyi edges, weights U[0.5, 1.5], signs from a random gauge.

    Returns (1-based edge list, planted gauge).  Every edge sign is s_i * s_j,
    so the graph is structurally balanced with the planted camps.
    """
    camps = rng.choice([-1.0, 1.0], size=n)
    pairs = {(i, (i + 1) % n) for i in range(n)}
    iu, ju = np.triu_indices(n, k=1)
    extra = rng.random(len(iu)) < p
    pairs.update(zip(iu[extra].tolist(), ju[extra].tolist()))
    edges = []
    for i, j in sorted((min(a, b), max(a, b)) for a, b in pairs):
        w = float(rng.uniform(0.5, 1.5)) * camps[i] * camps[j]
        edges.append([i + 1, j + 1, round(w, 6)])
    return edges, camps


def wide_graph_config(rng: np.random.Generator) -> tuple[dict, np.ndarray]:
    edges, camps = planted_graph(rng)
    degrees = np.zeros(WIDE_N)
    for i, j, w in edges:
        degrees[i - 1] += abs(w)
        degrees[j - 1] += abs(w)
    # a2 keeps alpha(0) * c_max = WIDE_A1 * c_max / a2 below 1.
    a2 = float(np.ceil(1.25 * WIDE_A1 * degrees.max()))
    doc = {
        "name": "wide_graph",
        "graph": {"n": WIDE_N, "edges": edges},
        "x0": [round(float(v), 6) for v in rng.uniform(-10.0, 10.0, WIDE_N)],
        "step": {"kind": "power", "a1": WIDE_A1, "a2": a2, "beta": 1},
        "noise": {"kind": "power", "b_floor": 1, "gamma": 0.1, "a2": a2, "offset": 1},
        "horizon": WIDE_HORIZON,
        "runs": WIDE_RUNS,
        "stride": 10,
        "design": dict(WIDE_DESIGN),
    }
    return doc, camps


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = derived_rng(name, seed)
    mc_seed = int(rng.integers(1, 2**31))
    if name == "mc_paper":
        argv = ["simulate", "--config", "sec4_text", "--seed", str(mc_seed), "--out", OUT]
        return Workload(name, seed, ["sec4_text"], [argv], 5 * 1000 * 10_000, 1000, mc_seed)
    if name == "single_long":
        path = _write_json(workdir / "fig2a_long.json", FIG2A_LONG)
        argv = ["simulate", "--config", path, "--runs", "1", "--seed", str(mc_seed), "--out", OUT]
        return Workload(name, seed, [path], [argv], 5 * 1 * FIG2A_LONG["horizon"], 1, mc_seed)
    if name == "wide_graph":
        doc, camps = wide_graph_config(rng)
        path = _write_json(workdir / "wide_graph.json", doc)
        commands = [
            ["rates", "--config", path],
            ["design", "--config", path],
            ["simulate", "--config", path, "--runs", str(WIDE_RUNS), "--seed", str(mc_seed)],
        ]
        return Workload(
            name, seed, [path], commands, WIDE_N * WIDE_RUNS * WIDE_HORIZON, WIDE_RUNS, mc_seed, camps
        )
    commands = []
    for cfg in SHIPPED_CONFIGS:
        commands += [
            ["privacy", "report", "--config", cfg],
            ["privacy", "sweep", "--config", cfg],
            ["rates", "--config", cfg],
        ]
    commands.append(["design", "--config", "sec4_text"])
    grid = [(a1, g) for a1 in GRID_A1 for g in GRID_GAMMA]
    return Workload(name, seed, list(SHIPPED_CONFIGS), commands, grid=grid)


def grid_schedules(a1: float, gamma: float) -> tuple[PowerStep, PowerNoise]:
    return PowerStep(a1, 1.0, 1.0), PowerNoise(1.0, gamma, 1.0, offset=1)


def call_cli(argv: list[str]) -> Command:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
    return Command(argv, code, out.getvalue(), err.getvalue())


def run_repetition(w: Workload, out_dir: str | None, tracer=None) -> Repetition:
    """Run every command of ``w`` once; artifacts go to ``out_dir``.

    With a ``tracer``, each command is a ``cli.main`` span.
    """
    t0 = perf_counter()
    done = []
    for argv in w.commands:
        argv = [out_dir if a == OUT else a for a in argv]
        span = tracer.begin("cli.main") if tracer else None
        done.append(call_cli(argv))
        if tracer:
            tracer.end(span)
    reports = [grid_report(a1, gamma) for a1, gamma in w.grid]
    return Repetition(perf_counter() - t0, done, reports, out_dir)


def grid_report(a1: float, gamma: float):
    """privacy_report at one grid point, or the text of the exception it raised."""
    try:
        return privacy.privacy_report(*grid_schedules(a1, gamma), FIG1A_C_MIN, 1.0)
    except Exception as exc:  # a failed evaluation, counted by the caller
        return f"{type(exc).__name__}: {exc}"


_RUNS_LINE = re.compile(r"^runs\s*:\s*(\d+) \((\d+) diverged\)", re.M)


def diverged_runs(cmd: Command) -> int | None:
    """Diverged runs printed by ``simulate``; None when the line is missing."""
    m = _RUNS_LINE.search(cmd.stdout)
    return int(m.group(2)) if m else None


def design_doc(cmd: Command) -> dict:
    """The JSON document ``design`` prints before its table."""
    doc, _ = json.JSONDecoder().raw_decode(cmd.stdout)
    return doc


def evaluations(rep: Repetition) -> int:
    """epsilon(T) values plus closed-form bounds computed in one repetition."""
    total = 0
    for cmd in rep.commands:
        verb = cmd.argv[:2]
        if verb == ["privacy", "report"]:
            total += cmd.stdout.count("epsilon(T=") + cmd.stdout.count("epsilon(inf) bound")
        elif verb == ["privacy", "sweep"]:
            total += sum(1 for line in cmd.stdout.splitlines()[1:] if line[:1] in "+-")
        elif verb[0] == "design" and cmd.code == 0:
            try:
                doc = design_doc(cmd)
                total += doc["failure_counts"]["epsilon"] + len(doc["feasible"])
            except (ValueError, KeyError):  # the design check reports the bad output
                pass
    for report in rep.grid_reports:
        if not isinstance(report, str):
            total += len(report.epsilon_at) + 1
    return total


def artifact_bytes(out_dir: str | None) -> int:
    if out_dir is None or not os.path.isdir(out_dir):
        return 0
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
