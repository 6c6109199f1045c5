"""Command-line front end.

Subcommands: reward (tree+reports in, reward vector out), allocate, audit,
attack, analytics, sweep. Exit status: 0 on success, 1 when an audited
property fails (for CI gates), 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import adversary, analytics, auditor, experiments, mechanisms, querytree

MECHANISMS = ("dgm", "geom", "gcrm", "tdgm")


class UsageError(Exception):
    pass


def _add_mechanism_args(parser):
    group = parser.add_argument_group("mechanism")
    group.add_argument("--mechanism", choices=MECHANISMS, required=True)
    group.add_argument("--alpha", type=float,
                       help="dgm: native parameter in (0, 0.5); gcrm/tdgm: "
                            "the split parameter in (0, 1)")
    group.add_argument("--delta", type=float, help="geom split parameter")
    group.add_argument("--rho", type=float,
                       help="derive the parameter from a common split ratio")
    group.add_argument("--budget", type=float, default=1.0)
    group.add_argument("--beta", choices=["sp", "cp"],
                       help="tdgm solver-payment schedule")
    group.add_argument("--beta-table", type=Path,
                       help="tdgm JSON file {length: payment}")


# mechanism -> (its own parameter flag, map_rho key, constructor)
_RHO_FAMILIES = {"dgm": ("alpha", "alpha_dgm", mechanisms.dgm),
                 "geom": ("delta", "delta", mechanisms.delta_geom),
                 "gcrm": ("alpha", "alpha_gcrm", mechanisms.gcrm)}


def build_spec(args) -> mechanisms.MechanismSpec:
    rho_params = mechanisms.map_rho(args.rho) if args.rho is not None else None
    if args.mechanism in _RHO_FAMILIES:
        flag, key, make = _RHO_FAMILIES[args.mechanism]
        value = getattr(args, flag)
        if value is None and rho_params is not None:
            value = rho_params[key]
        if value is None:
            raise UsageError(f"{args.mechanism} needs --{flag} or --rho")
        return make(value, args.budget)
    if args.alpha is None:
        raise UsageError("tdgm needs --alpha")
    beta = args.beta
    if args.beta_table is not None:
        table = json.loads(args.beta_table.read_text())
        if not isinstance(table, dict):
            raise UsageError("--beta-table must hold a JSON object "
                             "{length: payment}")
        beta = {int(n): mechanisms._json_number(v, f"beta({n})")
                for n, v in table.items()}
    if beta is None:
        raise UsageError("tdgm needs --beta or --beta-table")
    return mechanisms.MechanismSpec(mechanisms.TDGM, args.alpha,
                                    args.budget, beta)


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        print(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _load_tree(path: Path, reported: bool = True):
    """The tree in ``path``; if ``reported``, as its reports leave it."""
    doc = json.loads(path.read_text())
    tree = querytree.tree_from_json(doc)
    profile = querytree.profile_from_json(doc)
    if reported and profile is not None:
        tree = querytree.derive_reported_tree(tree, profile)
    return tree


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_allocate(args) -> int:
    path = querytree.allocate(_load_tree(args.tree), args.seed)
    if path is None:
        payload = {"path": None, "reason": "no reachable solver"}
    else:
        payload = {"path": list(path.agents), "n": path.n,
                   "solver": path.solver}
    _emit(_json_text(payload), args.out)
    return 0


def cmd_reward(args) -> int:
    spec = build_spec(args)
    path = querytree.allocate(_load_tree(args.tree), args.seed)
    if path is None:
        payload = {"path": None, "rewards": [], "total": 0.0,
                   "reason": "no reachable solver"}
    else:
        vector = mechanisms.reward_vector(path, spec)
        payload = {"path": list(path.agents), "n": path.n,
                   "rewards": list(vector.values), "total": vector.total}
    _emit(_json_text(payload), args.out)
    return 0


def cmd_attack(args) -> int:
    spec = build_spec(args)
    if args.scenario is not None:
        doc = json.loads(args.scenario.read_text())
    elif None in (args.kind, args.position, args.size, args.n):
        raise UsageError("attack needs --scenario or all of "
                         "--kind/--position/--size/--n")
    else:
        doc = {"kind": args.kind, "position": args.position,
               "size": args.size, "n": args.n}
    outcome = adversary.run_scenario(spec, adversary.scenario_from_json(doc))
    if args.format == "table":
        text = (f"{outcome.kind} at position {outcome.position} "
                f"(size {outcome.size}): before={outcome.reward_before:.9g} "
                f"after={outcome.reward_after:.9g} ratio={outcome.ratio:.9g} "
                f"profitable={outcome.profitable}")
    else:
        text = _json_text(outcome.to_json())
    _emit(text, args.out)
    return 0


def cmd_analytics(args) -> int:
    alphas = args.alpha or [0.5]
    if args.check_rounding:
        mismatches = analytics.rounding_mismatches(alphas)
        _emit(_json_text(mismatches), args.out)
        return 0
    if args.format == "csv":
        rows = analytics.analytic_sweep_rows(alphas, args.lambda_max)
        lines = [",".join(analytics.ANALYTICS_CSV_HEADER)]
        lines += [",".join(repr(v) if isinstance(v, float) else str(v)
                           for v in row) for row in rows]
        _emit("\n".join(lines), args.out)
        return 0
    profiles = [analytics.sybil_profile(a, args.lambda_max) for a in alphas]
    if args.format == "json":
        payload = [{"alpha": p.alpha, "f": {str(k): v
                                            for k, v in p.f_values.items()},
                    "lambda_prime": p.lambda_prime,
                    "lambda_star": p.lambda_star,
                    "n_prime": p.lambda_prime + 1.0,
                    "peak_ratio": p.peak_ratio}
                   for p in profiles]
        _emit(_json_text(payload), args.out)
        return 0
    lines = []
    for p in profiles:
        lines.append(f"alpha = {p.alpha}")
        lines.append(f"  lambda* = {p.lambda_star}"
                     f"  lambda' = {p.lambda_prime:.6g}"
                     f"  n' = {p.lambda_prime + 1.0:.6g}"
                     f"  peak ratio = {p.peak_ratio:.6g}")
        for lam in sorted(p.f_values):
            lines.append(f"  f({lam}) = {p.f_values[lam]:.9g}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_audit(args) -> int:
    spec = build_spec(args)
    knobs = {key: getattr(args, key) for key in auditor.KNOBS}
    if args.tree is not None:
        knobs["tree"] = _load_tree(args.tree, reported=False)
    reports = auditor.audit([p.strip() for p in args.property.split(",")],
                            spec, **knobs)
    payload = _json_text([r.to_json() for r in reports])
    if args.format == "json":
        _emit(payload, args.out)
    else:
        print(auditor.render_table(reports))
        if args.out is not None:
            _emit(payload, args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_sweep(args) -> int:
    if args.config is not None:
        config = experiments.parse_config_file(args.config)
    elif args.experiment is not None:
        overrides = {"experiment": args.experiment}
        if args.rho_values:
            overrides["rho_values"] = args.rho_values
        if args.alpha_values:
            overrides["alpha_values"] = args.alpha_values
        for key in ("n_base", "n_max", "lambda_max", "gamma_max",
                    "budget", "rho"):
            value = getattr(args, key)
            if value is not None:
                overrides[key] = value
        if args.out is not None:
            overrides["output_path"] = str(args.out)
        config = experiments.config_from_mapping(overrides)
    else:
        raise UsageError("sweep needs --experiment or --config")
    path = experiments.run(config)
    print(path)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qinlab",
        description="Reward mechanisms on query incentive networks: rewards, "
                    "allocation, attacks, property audits, and sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="shortest-path task allocation")
    p_alloc.add_argument("--tree", type=Path, required=True,
                         help="tree JSON (reports applied when present)")
    p_alloc.add_argument("--seed", type=int, default=0)
    p_alloc.add_argument("--out", type=Path)
    p_alloc.set_defaults(func=cmd_allocate)

    p_reward = sub.add_parser("reward", help="allocate and pay out a tree")
    _add_mechanism_args(p_reward)
    p_reward.add_argument("--tree", type=Path, required=True)
    p_reward.add_argument("--seed", type=int, default=0)
    p_reward.add_argument("--out", type=Path)
    p_reward.set_defaults(func=cmd_reward)

    p_attack = sub.add_parser("attack", help="evaluate one attack scenario")
    _add_mechanism_args(p_attack)
    p_attack.add_argument("--scenario", type=Path,
                          help='JSON {"kind","position","size","n"}')
    p_attack.add_argument("--kind", choices=["sybil", "collusion"])
    p_attack.add_argument("--position", type=int)
    p_attack.add_argument("--size", type=int)
    p_attack.add_argument("--n", type=int)
    p_attack.add_argument("--format", choices=["json", "table"],
                          default="json")
    p_attack.add_argument("--out", type=Path)
    p_attack.set_defaults(func=cmd_attack)

    p_ana = sub.add_parser("analytics",
                           help="amplification table and optima per alpha")
    p_ana.add_argument("--alpha", type=float, action="append")
    p_ana.add_argument("--lambda-max", type=int, default=0)
    p_ana.add_argument("--check-rounding", action="store_true",
                       help="report alphas where nearest-integer rounding "
                            "misses the scanned argmax")
    p_ana.add_argument("--format", choices=["table", "csv", "json"],
                       default="table")
    p_ana.add_argument("--out", type=Path)
    p_ana.set_defaults(func=cmd_analytics)

    p_audit = sub.add_parser("audit", help="property checks with witnesses")
    _add_mechanism_args(p_audit)
    p_audit.add_argument("--property", required=True, help="comma list from "
                         f"{tuple(auditor.PROPERTIES)} or 'all'")
    p_audit.add_argument("--n-max", type=int)
    p_audit.add_argument("--lambda-max", type=int)
    p_audit.add_argument("--gamma-max", type=int)
    p_audit.add_argument("--rho-expected", type=float)
    p_audit.add_argument("--tree", type=Path,
                         help="audit ic/core on this tree instead of "
                              "generated ones")
    p_audit.add_argument("--trees", type=int,
                         help="number of random trees for ic/core")
    p_audit.add_argument("--max-nodes", type=int)
    p_audit.add_argument("--seed", type=int)
    p_audit.add_argument("--format", choices=["table", "json"],
                         default="table")
    p_audit.add_argument("--out", type=Path)
    p_audit.set_defaults(func=cmd_audit)

    p_sweep = sub.add_parser("sweep", help="run an experiment, write CSV")
    p_sweep.add_argument("--experiment", choices=experiments.EXPERIMENTS)
    p_sweep.add_argument("--config", type=Path,
                         help="flat key = value config file")
    p_sweep.add_argument("--rho-values", type=_float_list, dest="rho_values")
    p_sweep.add_argument("--alpha-values", type=_float_list,
                         dest="alpha_values")
    p_sweep.add_argument("--n-base", type=int)
    p_sweep.add_argument("--n-max", type=int)
    p_sweep.add_argument("--lambda-max", type=int)
    p_sweep.add_argument("--gamma-max", type=int)
    p_sweep.add_argument("--budget", type=float)
    p_sweep.add_argument("--rho", type=float)
    p_sweep.add_argument("--out", type=Path)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OverflowError, OSError,
            analytics.SearchExhaustedError) as exc:
        # the package's input errors and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
