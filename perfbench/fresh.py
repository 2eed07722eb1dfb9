"""The set-up phase of the benchmark in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/fresh.py TRACE REF [REF ...]

imports dpconsensus.cli, reads each config (file path or shipped name),
builds its graph and finds its gauge, then prints one JSON line of phase
timings (from spans when TRACE is 1).  ``PYTHONPATH`` must name the ``src``
directory of the checkout under test.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


def setup(trace: bool, refs: list[str]) -> dict:
    t0 = perf_counter()
    import dpconsensus.cli  # noqa: F401  (the import is what is timed)

    import_s = perf_counter() - t0
    from dpconsensus import experiments, graphs

    import tracing

    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    for ref in refs:
        cfg = experiments.load_config(ref) if os.path.exists(ref) else experiments.named_config(ref)
        graphs.check_structural_balance(cfg.graph)
    tracer.uninstall()

    def self_sum(name):
        return sum(s.self_s for s in tracer.spans if s.name == name)

    return {
        "cli.import_s": import_s,
        "experiments.config_s": self_sum("experiments.config"),
        "graphs.build_s": self_sum("graphs.build"),
        "graphs.balance_s": self_sum("graphs.balance"),
    }


if __name__ == "__main__":
    print(json.dumps(setup(sys.argv[1] == "1", sys.argv[2:])), flush=True)
