"""Command-line front end.

Subcommands: ``simulate`` (Monte Carlo batch + artifacts), ``privacy``
(finite-horizon report or a gamma sweep), ``design`` (grid search against
accuracy/privacy targets), ``rates`` (theoretical rate predictions).
Exit codes: 0 success, 2 divergence, 3 infeasible design, 4 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import designer, experiments, privacy
from .engine import BACKEND_NAME, DivergenceError
from .graphs import StructurallyUnbalancedError, check_structural_balance, spectrum
from .schedules import PowerNoise, PowerStep

EXIT_OK = 0
EXIT_DIVERGENCE = 2
EXIT_INFEASIBLE = 3
EXIT_CONFIG = 4


def _stats(cfg):
    gauge = check_structural_balance(cfg.graph)
    return spectrum(cfg.graph, gauge)


def _cmd_simulate(args) -> int:
    # Overrides pass the same checks as config values.
    over = {k: v for k, v in (("runs", args.runs), ("seed", args.seed)) if v is not None}
    cfg = dataclasses.replace(experiments.load_config(args.config), **over)
    report = experiments.run_experiment(cfg, out_dir=args.out)
    print(f"config           : {cfg.name}")
    print(f"backend          : {BACKEND_NAME}")
    print(f"runs             : {report.runs} ({report.diverged} diverged)")
    print(f"initial gauge avg: {report.initial_gauge_mean:.6g}")
    print(f"terminal mean    : {report.terminal_gauge_mean:.6g}")
    print(f"terminal var     : {report.terminal_gauge_var:.6g}")
    print(f"V(0) -> V(T) mean: {report.v_mean[0]:.6g} -> {report.v_mean[-1]:.6g}")
    if report.rate is not None:
        r = report.rate
        print(
            f"rate slope       : {r.slope:.4f} "
            f"(95% CI [{r.ci_low:.4f}, {r.ci_high:.4f}], window {r.window})"
        )
    if args.out:
        print(f"artifacts        : {args.out}/")
    return EXIT_OK


def _offset1_noise(b_floor, gamma, a2) -> PowerNoise:
    try:
        return PowerNoise(b_floor, gamma, a2, offset=1)
    except ValueError as exc:
        raise experiments.ConfigError(f"accounting noise: {exc}") from exc


def _privacy_schedules(cfg, args):
    if not isinstance(cfg.step, PowerStep):
        raise experiments.ConfigError("privacy accounting needs a power step schedule")
    noise = cfg.noise
    if not isinstance(noise, PowerNoise):
        raise experiments.ConfigError("privacy accounting needs power-law noise")
    if noise.offset != 1 or noise.a2 != cfg.step.a2:
        noise = _offset1_noise(noise.b_floor, noise.gamma, cfg.step.a2)
        print("note: noise schedule coerced to the offset-1 convention for accounting")
    delta = args.delta
    if delta is None:
        delta = cfg.design.delta if cfg.design else 1.0
    if not (math.isfinite(delta) and delta > 0):
        raise experiments.ConfigError(f"delta must be finite and > 0, got {delta:g}")
    return cfg.step, noise, delta


def _cmd_privacy(args) -> int:
    cfg = experiments.load_config(args.config)
    sched, noise, delta = _privacy_schedules(cfg, args)
    stats = _stats(cfg)
    if args.mode == "report":
        rep = privacy.privacy_report(sched, noise, stats.c_min, delta)
        print(f"delta={rep.delta:g}  c_min={rep.c_min:g}  params={rep.params}")
        for h, e in zip(rep.horizons, rep.epsilon_at):
            print(f"epsilon(T={h:>9}) = {e:.6g}")
        b = rep.infinity
        tag = "convergent" if b.convergent else "divergent"
        print(f"epsilon(inf) bound = {b.value:.6g}  [{b.case}, {tag}]")
    else:  # sweep over gamma
        print("gamma   epsilon_inf_bound   case        ms_exponent")
        for g in designer._gammas_for(sched.beta, {}):
            n = _offset1_noise(noise.b_floor, g, sched.a2)
            try:
                b = privacy.epsilon_infinity_bound(sched, n, stats.c_min, delta)
                val, case = f"{b.value:.6g}", b.case
            except ValueError as exc:
                val, case = "n/a", str(exc)[:40]
            ms = designer.predict_ms_rate(sched.beta, g, sched.a1, stats.lambda2)
            print(f"{g:+.2f}   {val:<18}  {case:<10}  {ms.exponent:+.3f}")
    return EXIT_OK


def _cmd_design(args) -> int:
    cfg = experiments.load_config(args.config)
    if not cfg.design:
        raise experiments.ConfigError("config carries no design targets")
    result = designer.design_search(cfg.design, _stats(cfg))
    doc = {
        "targets": cfg.raw["design"],
        "feasible": [vars(p) for p in result.points],
        "failure_counts": result.failure_counts,
        "reason": result.reason,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    if not result.feasible:
        print(f"INFEASIBLE: {result.reason} (failures: {result.failure_counts})", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"\n{len(result.points)} feasible point(s); fastest first:")
    print("   a1    a2  beta  gamma  b_floor   ms_exp   eps_bound  case")
    for p in result.points[:10]:
        print(
            f"{p.a1:5.2f} {p.a2:5.2f} {p.beta:5.2f} {p.gamma:+6.2f} "
            f"{p.b_floor:8.4f} {p.ms_exponent:+8.3f} {p.epsilon_bound:10.4f}  {p.epsilon_case}"
        )
    return EXIT_OK


def _cmd_rates(args) -> int:
    cfg = experiments.load_config(args.config)
    if not isinstance(cfg.step, PowerStep):
        raise experiments.ConfigError("rate prediction needs a power step schedule")
    gamma = getattr(cfg.noise, "gamma", 0.0) if cfg.noise is not None else 0.0
    stats = _stats(cfg)
    s = cfg.step
    try:
        ms = designer.predict_ms_rate(s.beta, gamma, s.a1, stats.lambda2)
        print(f"mean-square : O(k^{ms.exponent:+.4f})  regime={ms.regime}  log={ms.log_factor}")
    except ValueError as exc:
        print(f"mean-square : no prediction ({exc})")
    try:
        asr = designer.predict_as_rate(s.beta, gamma, s.a1, stats.lambda2)
        line = f"almost-sure : O(k^{asr.exponent:+.4f})  regime={asr.regime}  log={asr.log_factor}"
        if s.beta < 1:
            line += f"  (infimum exponent {designer.as_exponent_infimum(s.beta, gamma):+.4f} as eta -> 1/4)"
        print(line)
    except ValueError as exc:
        print(f"almost-sure : no prediction ({exc})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dpconsensus",
        description="Differentially private bipartite consensus simulator",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo batch")
    sim.add_argument("--config", required=True, help="config file path or shipped name")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--runs", type=int, default=None)
    sim.add_argument("--out", default=None, help="artifact output directory")
    sim.set_defaults(func=_cmd_simulate)

    priv = sub.add_parser("privacy", help="privacy accounting")
    priv.add_argument("mode", choices=["report", "sweep"])
    priv.add_argument("--config", required=True)
    priv.add_argument("--delta", type=float, default=None)
    priv.set_defaults(func=_cmd_privacy)

    des = sub.add_parser("design", help="accuracy/privacy grid search")
    des.add_argument("--config", required=True)
    des.set_defaults(func=_cmd_design)

    rat = sub.add_parser("rates", help="theoretical rate predictions")
    rat.add_argument("--config", required=True)
    rat.set_defaults(func=_cmd_rates)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (experiments.ConfigError, StructurallyUnbalancedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (experiments.ExperimentDivergence, DivergenceError) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
