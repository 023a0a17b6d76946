"""Command-line harness.

Verbs, each with every flag it takes:

  solve       --config --out --variant --condition
              solve one formulation, as the studies solve it, and write
              the solution bundle and the solve's status, KKT residuals
              and iteration counts (JSON); the nominal variant is the
              branched solves' first stage
  simulate    --config --out --solution --reference --condition --x-wall --e
              closed-loop rollout of a saved bundle, write the trace (CSV)
  montecarlo  --config --out --csv --seed --workers
              robustness study over the wall/restitution box (JSON/CSV)
  tradeoff    --config --out --csv --workers --baseline
              rejoining-horizon cost/time sweep vs. the tree (JSON/CSV)
  sweep       --config --out --csv
              arm-catch relative-speed sweep over drop heights (JSON/CSV)
  gains       --config
              print the configured plant's tracking gains K, one row per
              input: LQR about the state its solves end at, checked under
              RK4 at dt_sim

``--config`` names a YAML run config (see config.py for the schema);
``--seed`` and ``--workers`` replace its master seed and worker count.
sweep needs ``plant: {name: arm}``; montecarlo, tradeoff and simulate
need the cart-pole.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bench
from . import config as cfgmod
from . import transcription as tr


def _load(args) -> cfgmod.RunConfig:
    return cfgmod.load_config(args.config, {
        key: getattr(args, key, None) for key in ("seed", "workers")})


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


def _condition(run, index):
    """``experiment.conditions[index]``; a bad index exits with the
    valid range."""
    conditions = run.conditions
    if not 0 <= index < len(conditions):
        raise SystemExit(f"--condition {index} is out of range: "
                         f"experiment.conditions has {len(conditions)} "
                         f"entries, 0 to {len(conditions) - 1}")
    return conditions[index]


def cmd_solve(args):
    run = _load(args)
    adapter, _, _ = cfgmod.build_plant(run)
    # the cart-pole swings up from a condition; the arm starts at its target
    x_init = (_condition(run, args.condition)
              if run.plant_name == "cartpole" else adapter.target)
    res = bench._solve(run, adapter, args.variant, x_init)
    s = res.solution
    _progress(f"{args.variant}: {s.status} cost {s.objective_value:.6f} "
              f"kkt(viol) {max(s.kkt.eq_viol, s.kkt.ineq_viol):.2e} "
              f"kkt(stat) {s.kkt.stationarity:.2e} "
              f"wall {s.wall_time:.1f}s")
    payload = {
        "schema_version": cfgmod.SCHEMA_VERSION,
        "plant": run.plant_name,
        "variant": args.variant,
        "status": s.status,
        "objective_value": float(s.objective_value),
        # the KKT residuals of the last stage's solve: a "converged"
        # accepted by the objective-stall rule shows here as a large
        # stationarity; the iteration counts cover every stage
        "kkt": {k: float(v) for k, v in dataclasses.asdict(s.kkt).items()},
        "iterations": int(s.iterations),
        "inner_iterations": int(s.inner_iterations),
        "bundle": tr.bundle_to_dict(res.bundle),
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(args.out)
    return 0 if s.status == "converged" else 1


def cmd_simulate(args):
    run = _load(args)
    with open(args.solution) as fh:
        payload = json.load(fh)
    if payload.get("plant", "cartpole") != "cartpole":
        raise SystemExit("simulate supports the cart-pole plant")
    bench._require_plant(run, "cartpole", "simulate")
    x_init = _condition(run, args.condition)
    bundle = tr.bundle_from_dict(payload["bundle"])
    if args.reference == "robust_nominal" and not bundle.branches:
        raise SystemExit("--reference robust_nominal needs a branched "
                         "solution; this bundle has no branches")
    if args.reference == "nominal" and bundle.branches:
        # a branched solve's common trajectory is planned contact-free over
        # the window; the study's nominal is the unbranched solve
        raise SystemExit("--reference nominal needs an unbranched solution "
                         "(solve --variant nominal); this bundle has "
                         "branches")
    adapter, _, _ = cfgmod.build_plant(run)
    gains = bench._controller_gains(run, adapter)
    ref = bundle if args.reference == "scheduling" else (
        tr.robust_nominal_branch(bundle, dt_impact=adapter.dt_impact)
        if args.reference == "robust_nominal" else bundle.common)
    env_over = {name: value for name, value in
                (("x_wall", args.x_wall), ("e", args.e)) if value is not None}
    trace, _ = bench.cartpole_rollout(run, ref, x_init, gains, **env_over)
    trace.to_csv(args.out)
    _progress(f"{len(trace.contact_events)} contact event(s), "
              f"termination: {trace.termination}")
    print(args.out)
    return 0


def _write(table, args):
    bench.export(table, args.out, format="json")
    if args.csv:
        bench.export(table, args.csv, format="csv")


def cmd_montecarlo(args):
    report = bench.montecarlo(_load(args), progress=_progress)
    _write(report, args)
    for ref in bench.REFERENCE_TYPES:
        print(f"{ref:16s} {report['totals'][ref]:6.2f}%  "
              f"(published analog {bench.PAPER_TOTALS[ref]:.1f}%)")
    print(args.out)
    return 0


def cmd_tradeoff(args):
    table = bench.tradeoff(_load(args), include_baseline=args.baseline,
                           progress=_progress)
    _write(table, args)
    for row in table["rows"]:
        print(f"N_r={row['n_r']:3d}  cost {row['cost']:.4f}  "
              f"time {row['wall_time']:.1f}s")
    t = table["tree"]
    print(f"tree     cost {t['cost']:.4f}  time {t['wall_time']:.1f}s")
    if "baseline_cost" in table:
        print(f"baseline cost {table['baseline_cost']:.4f}  "
              f"({', '.join(table['baseline_statuses'])})")
    if "n_r7_cost_pct" in table:
        print(f"N_r=7 vs tree: cost {table['n_r7_cost_pct']:+.2f}%  "
              f"time ratio {table['n_r7_time_ratio']:.2f}")
    print(args.out)
    return 0


def cmd_sweep(args):
    table = bench.velocity_sweep(_load(args), progress=_progress)
    _write(table, args)
    print(f"max |dv|: nominal {table['max_dv']['nominal']:.3f} m/s, "
          f"robust {table['max_dv']['robust_nominal']:.3f} m/s "
          f"(v_lim {table['v_lim']:.3f})")
    print(args.out)
    return 0


def cmd_gains(args):
    run = _load(args)
    gains = bench._controller_gains(run, cfgmod.build_plant(run)[0])
    for i, row in enumerate(gains.rows):  # columns in state order [q; q̇]
        print(f"K[{i}]:", " ".join(f"{k:.6g}" for k in row))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="branchopt",
        description="trajectory optimization and benchmarks for hybrid "
                    "systems with uncertain contact timing")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, fn, summary, out=None, csv=False):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", default=None, help="YAML run config")
        if out is not None:
            sp.add_argument("--out", default=out)
        if csv:
            sp.add_argument("--csv", default=None,
                            help="also write the sample/row table as CSV")
        return sp

    sp = verb("solve", cmd_solve, "solve one formulation", "solution.json")
    sp.add_argument("--variant", choices=["nominal", "sure", "tree"],
                    default="sure")
    sp.add_argument("--condition", type=int, default=0,
                    help="index into experiment.conditions (cart-pole)")

    sp = verb("simulate", cmd_simulate, "roll out a saved solution",
              "trace.csv")
    sp.add_argument("--solution", required=True)
    sp.add_argument("--reference",
                    choices=["nominal", "robust_nominal", "scheduling"],
                    default="scheduling")
    sp.add_argument("--condition", type=int, default=0)
    sp.add_argument("--x-wall", type=float, default=None)
    sp.add_argument("--e", type=float, default=None)

    sp = verb("montecarlo", cmd_montecarlo, "robustness study",
              "montecarlo.json", csv=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)

    sp = verb("tradeoff", cmd_tradeoff, "cost/time sweep vs. tree",
              "tradeoff.json", csv=True)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--baseline", action="store_true",
                    help="also solve the exact-knowledge cost baseline")

    verb("sweep", cmd_sweep, "arm catch-speed sweep", "sweep.json", csv=True)
    verb("gains", cmd_gains, "print tracking gains")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
