"""In-memory spans around the public functions of dpconsensus.

``Tracer.install`` replaces each target function at every module attribute
of the package that is bound to it (``cli.spectrum``, ``graphs.spectrum``,
``experiments.spectrum``, ...), so a call is traced whichever name the
caller used.  ``uninstall`` puts the originals back.  A target that no
longer exists is skipped, so its layer reads 0.  Spans record name,
start, end and parent; self time is a span's duration minus its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter

# (module, attribute, span name).  ``_write_artifacts`` is private but it is
# the only boundary around artifact writing.
TARGETS = (
    ("dpconsensus.experiments", "load_config", "experiments.config"),
    ("dpconsensus.experiments", "named_config", "experiments.config"),
    ("dpconsensus.graphs", "fixture_graph", "graphs.build"),
    ("dpconsensus.graphs", "check_structural_balance", "graphs.balance"),
    ("dpconsensus.graphs", "spectrum", "graphs.spectrum"),
    ("dpconsensus.experiments", "run_experiment", "experiments.run_experiment"),
    ("dpconsensus.experiments", "_write_artifacts", "experiments.artifacts"),
    ("dpconsensus.engine", "run_many", "engine.run_many"),
    ("dpconsensus.engine", "run", "engine.run"),
    ("dpconsensus.engine", "alpha_array", "schedules.arrays"),
    ("dpconsensus.engine", "scale_array", "schedules.arrays"),
    ("dpconsensus._kernels", "simulate", "kernel.simulate"),
    ("dpconsensus.privacy", "privacy_report", "privacy.report"),
    ("dpconsensus.privacy", "epsilon_finite", "privacy.epsilon_finite"),
    ("dpconsensus.privacy", "epsilon_infinity_bound", "privacy.bound"),
    ("dpconsensus.special", "upper_incomplete_gamma", "special.gamma"),
    ("dpconsensus.designer", "design_search", "designer.search"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _kernel_attrs(args, kwargs, result) -> dict:
    weights, run_ids, alpha, bscale = args[0], args[7], args[4], args[5]
    n, m, t = weights.shape[0], len(run_ids), len(alpha)
    return {
        "n": n,
        "runs": m,
        "steps": t,
        "agent_steps": n * m * t,
        "draws": n * m * int((bscale > 0.0).sum()),
        "diverged": int((result.diverged_at >= 0).sum()),
    }


def _epsilon_attrs(args, kwargs, result) -> dict:
    horizon = kwargs["horizon"] if "horizon" in kwargs else args[4]
    return {"horizon": int(horizon)}


def _design_attrs(args, kwargs, result) -> dict:
    return {
        "grid_points": sum(result.failure_counts.values()) + len(result.points),
        "feasible_points": len(result.points),
    }


ATTRS = {
    "kernel.simulate": _kernel_attrs,
    "privacy.epsilon_finite": _epsilon_attrs,
    "designer.search": _design_attrs,
}
CAPTURE = {"kernel.simulate"}  # keep (function, args, kwargs) for the probes


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = perf_counter()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration
        return span

    def _wrap(self, fn, name: str):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(idx)
            if name in CAPTURE:
                span.attrs["call"] = (fn, args, kwargs)
            if attrs is not None:
                try:
                    span.attrs.update(attrs(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature leaves the counts at 0, not the call broken
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "dpconsensus" or k.startswith("dpconsensus.")]
        for mod_name, attr, name in TARGETS:
            try:
                fn = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                continue  # a layer that no longer exists reads 0
            wrapper = self._wrap(fn, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        # The inline-edges graph path calls the classmethod, not a module function.
        cls = getattr(importlib.import_module("dpconsensus.graphs"), "SignedGraph", None)
        orig = vars(cls).get("from_edges") if cls else None
        if isinstance(orig, classmethod):
            self._restore.append((cls, "from_edges", orig))
            cls.from_edges = classmethod(self._wrap(orig.__func__, "graphs.build"))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, val = self._restore.pop()
            setattr(owner, key, val)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        """Write the spans (without captured call arguments) as JSON."""
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "attrs": {k: v for k, v in s.attrs.items() if k != "call"},
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(rows, f)


def ancestors(spans: list[Span], idx: int):
    p = spans[idx].parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent
