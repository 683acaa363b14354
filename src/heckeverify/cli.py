"""Command line front end.

One binary with a subcommand per module and `verify` to run the whole
sweep.  Inspection subcommands print JSON (or plain text where noted) and
exit 0.  Checking subcommands (`orbits` without `--joint`, `hecke`) print
the report records of the matching sweep units, in the one record shape
`verify` emits, and exit 1 when any claim fails; configuration problems,
including bad arguments and library refusals, exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import cases, nilorbits, report
from .cases import CaseError
from .hecke import HeckeError, verify_bernstein, verify_translation_words
from .nilorbits import NilOrbitError
from .partitions import PartitionError, check_inequalities, p, typeD_bound, typeD_count
from .rootsystem import RootSystemError, build, parse_type
from .torus import (
    TorusError, centralizer_roots, centralizer_signature, mixed_point,
    standard_point,
)
from .verify import (
    ConfigError, RunConfig, config_from_file, unit_spanning_sums, verify_all,
)
from .weyl import WeylBudgetError, irr_count, poincare, valid_orders

_USAGE_ERRORS = (ConfigError, RootSystemError, TorusError, NilOrbitError,
                 HeckeError, CaseError, PartitionError, WeylBudgetError,
                 report.ReportError, ValueError)


def _print_json(obj):
    print(json.dumps(report.jsonable(obj), indent=2))


def _parse_order(text):
    if text in ("inf", "infinite", "none"):
        return None
    return int(text)


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_roots(args):
    rs = build(parse_type(args.type))
    if args.format == "json":
        _print_json({
            "type": str(rs.rstype), "rank": rs.rank,
            "positive_roots": [list(r) for r in rs.positive_roots],
            "highest_root": list(rs.highest_root),
            "degrees": list(rs.degrees),
            "center_order": rs.center_order(),
        })
        return 0
    for r in rs.positive_roots:
        print(" ".join(str(c) for c in r))
    print("highest:", " ".join(str(c) for c in rs.highest_root))
    print("degrees:", " ".join(str(d) for d in rs.degrees))
    return 0


def cmd_weyl(args):
    rs = build(parse_type(args.type))
    want_all = not (args.poincare or args.orders or args.irr)
    out = {"type": str(rs.rstype), "rank": rs.rank,
           "degrees": list(rs.degrees), "order": rs.weyl_order()}
    if args.poincare or want_all:
        out["poincare"] = list(poincare(rs))
    if args.orders or want_all:
        out["valid_orders"] = sorted(valid_orders(rs))
    if args.irr or want_all:
        out["irr_count"] = irr_count(rs)
    _print_json(out)
    return 0


def cmd_partitions(args):
    if args.p is None and args.typeD is None and args.check is None:
        raise ConfigError("nothing to do: pass --p, --typeD, or --check")
    out = {}
    if args.p is not None:
        out["p"] = {"n": args.p, "value": p(args.p)}
    if args.typeD is not None:
        out["typeD"] = {"n": args.typeD, "count": typeD_count(args.typeD),
                        "bound": typeD_bound(args.typeD)}
    failed = False
    if args.check is not None:
        results = check_inequalities(args.check)
        out["inequalities"] = results
        failed = any(not r["holds"] for r in results)
    _print_json(out)
    return 1 if failed else 0


def cmd_torus(args):
    rs = build(parse_type(args.type))
    m = _parse_order(args.order)
    s = (mixed_point(rs, m) if args.point == "mixed"
         else standard_point(rs, m))
    classes: dict = {}
    for r in rs.all_roots:
        if s.is_power_of_q(r):
            key = str(s.eval_exponent(r))
        else:
            key = "not-a-power-of-q"
        classes.setdefault(key, []).append(list(r))
    out = {"type": str(rs.rstype), "order": "inf" if m is None else m,
           "point": args.point,
           "roots_by_exponent": {k: sorted(v) for k, v in
                                 sorted(classes.items())}}
    if args.show_centralizer:
        out["centralizer_signature"] = centralizer_signature(rs, s).describe()
        out["centralizer_roots"] = [list(r) for r in centralizer_roots(rs, s)]
    _print_json(out)
    return 0


def cmd_orbits(args):
    primes = _int_list(args.primes) if args.primes else None
    if args.joint:
        picks = _int_list(args.joint)
        rs = build(parse_type(args.type))
        if primes is None:
            primes = nilorbits.admissible_primes(args.order)
        nm = nilorbits.build_nqs(rs, standard_point(rs, args.order))
        table = cases.case_table(rs.rstype, args.order)
        named = nilorbits.named_components(table, nilorbits.decompose(nm))
        # indices name the recorded modules M1, M2, ... or, with no
        # detailed table, the components C1, C2, ...
        recorded = table is not None and table.detailed
        names = [f"{'M' if recorded else 'C'}{i}" for i in picks]
        for i, name in zip(picks, names):
            if name in named:
                continue
            if recorded:
                raise ConfigError(
                    f"--joint index {i}: no module {name} on record "
                    f"for {rs.rstype}.o{args.order}")
            raise ConfigError(
                f"--joint index {i} out of range; the decomposition "
                f"has {len(named)} submodules")
        subs = [named[name] for name in names]
        counts = [(q, nilorbits.orbit_count_ff(
                      nm, subs, q, cap=args.cap,
                      state_budget=args.state_budget).count)
                  for q in primes]
        _print_json({
            "case": f"{rs.rstype}.o{args.order}",
            "modules": names,
            "dim": sum(s.dim for s in subs),
            "counts": {str(q): c for q, c in counts},
            "stable": len({c for _, c in counts}) == 1,
        })
        return 0
    records = nilorbits.verify_case(args.type, args.order, primes=primes,
                                    cap=args.cap,
                                    state_budget=args.state_budget)
    _print_json(records)
    return 1 if any(r["status"] == "fail" for r in records) else 0


def cmd_hecke(args):
    """The records of the `words`, `<type>.ball` or `<type>.ddprime` unit,
    filtered to the claims the check names."""
    if args.check == "words":
        prefix = f"words/{args.type.lower()}-"
        records = [r for r in verify_translation_words()
                   if r["claim_id"].startswith(prefix)]
        if not records:
            raise ConfigError(f"no recorded words for type {args.type}")
    elif args.check == "ddprime":
        records = unit_spanning_sums(args.type)
    else:
        claims = (("theta-products", "theta-independence")
                  if args.check == "theta" else ("central-sums",))
        records = [r for r in verify_bernstein(args.type, args.radius)
                   if r["claim_id"].split("/")[1] in claims]
    _print_json(records)
    return 1 if any(r["status"] == "fail" for r in records) else 0


def cmd_verify(args):
    config = RunConfig()
    if args.config:
        config = config_from_file(args.config, config)
    overrides = {}
    if args.case:
        overrides["cases"] = tuple(args.case)
    for flag, key in (("format", "fmt"), ("jobs", "jobs"),
                      ("prime_bound", "prime_bound"), ("dim_cap", "dim_cap"),
                      ("state_budget", "state_budget"),
                      ("enum_budget", "enum_budget"),
                      ("ball_radius", "ball_radius")):
        val = getattr(args, flag)
        if val is not None:
            overrides[key] = val
    if overrides:
        config = replace(config, **overrides).validate()
    rep = verify_all(config)
    sys.stdout.buffer.write(report.emit(rep.records, config.fmt))
    sys.stdout.buffer.flush()
    return rep.exit_code


# ---------------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="hecke-verify",
        description="exact verification of the recorded root-system, orbit "
                    "and Hecke-algebra computations")
    sub = top.add_subparsers(dest="command", required=True)

    q = sub.add_parser("roots", help="positive roots, highest root, degrees")
    q.add_argument("type", help="root system, e.g. E8 or B4")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_roots)

    q = sub.add_parser("weyl", help="degrees, group order, valid orders, "
                                    "character count")
    q.add_argument("type")
    q.add_argument("--poincare", action="store_true")
    q.add_argument("--orders", action="store_true")
    q.add_argument("--irr", action="store_true")
    q.set_defaults(func=cmd_weyl)

    q = sub.add_parser("partitions", help="partition values and inequalities")
    q.add_argument("--p", type=int, metavar="N")
    q.add_argument("--typeD", type=int, metavar="N")
    q.add_argument("--check", type=int, metavar="N",
                   help="verify the inequality suite up to N")
    q.set_defaults(func=cmd_partitions)

    q = sub.add_parser("torus", help="torus point exponent classes")
    q.add_argument("type")
    q.add_argument("--order", required=True, help="order of q, or 'inf'")
    q.add_argument("--point", choices=("standard", "mixed"),
                   default="standard")
    q.add_argument("--show-centralizer", action="store_true")
    q.set_defaults(func=cmd_torus)

    q = sub.add_parser("orbits", help="eigenspace orbit counts for one case")
    q.add_argument("type")
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--primes", help="comma-separated field sizes")
    q.add_argument("--joint", help="comma-separated submodule indices "
                                   "to count jointly, e.g. 1,3")
    q.add_argument("--cap", type=int, default=nilorbits.DEFAULT_DIM_CAP)
    q.add_argument("--state-budget", type=int, dest="state_budget",
                   default=nilorbits.DEFAULT_STATE_BUDGET)
    q.set_defaults(func=cmd_orbits)

    q = sub.add_parser("hecke", help="rank-2 Hecke identity checks")
    q.add_argument("--type", required=True)
    q.add_argument("--check", required=True,
                   choices=("theta", "center", "words", "ddprime"))
    q.add_argument("--radius", type=int, default=2)
    q.set_defaults(func=cmd_hecke)

    q = sub.add_parser("verify", help="run the whole verification sweep")
    q.add_argument("--case", action="append", metavar="ID",
                   help="restrict to one case id (repeatable), e.g. E8.o16")
    q.add_argument("--config", metavar="FILE",
                   help="JSON configuration file; flags override it")
    q.add_argument("--format", choices=("json", "text"))
    q.add_argument("--jobs", type=int, metavar="N")
    q.add_argument("--prime-bound", type=int, dest="prime_bound")
    q.add_argument("--dim-cap", type=int, dest="dim_cap")
    q.add_argument("--state-budget", type=int, dest="state_budget")
    q.add_argument("--enum-budget", type=int, dest="enum_budget")
    q.add_argument("--ball-radius", type=int, dest="ball_radius")
    q.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as e:
        print(f"hecke-verify: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
