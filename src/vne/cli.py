"""Command-line front end: spec-file driven computations and verification runs.

Subcommands: entropy, relent, index, verify, maximize. Exit code 0 means the
requested computation ran (and, for verify, every suite passed); 1 means a
verification suite violated its tolerance; 2 means the spec, the invocation
or the input to a computation was malformed, or the computation ran out of
memory; 3 means a certificate of the computation failed. Human-readable text
goes to stdout and never carries pass/fail semantics; reports and exit codes do.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from importlib import resources

from .harness import maximize_gap, run_suite, suite_names
from .inclusion import index_report
from .relent import rel_entropy_closed, rel_entropy_modular
from .specfile import SpecError, SpecFile, load_spec
from .states import s_tau, s_vn

LN2 = math.log(2.0)


def _default_spec_path() -> str:
    return str(resources.files("vne").joinpath("data/desk.json"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", default=None, metavar="PATH",
                   help="spec JSON file (default: the bundled desk-scale spec)")
    p.add_argument("--seed", type=int, default=None, metavar="U64",
                   help="override the experiment seed")
    p.add_argument("--tol", type=float, default=None, metavar="REAL",
                   help="override suite tolerances")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="directory for JSON/CSV reports")
    p.add_argument("--log2", action="store_true",
                   help="display entropies in bits (files stay in nats)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vne",
        description="entropy, relative entropy, and index computations on "
                    "finite-dimensional von Neumann algebras")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("entropy", help="entropy of a named state")
    p.add_argument("state", help="state name from the spec")
    _add_common(p)

    p = subs.add_parser("relent", help="relative entropy of two named states")
    p.add_argument("state_a", help="first state (phi)")
    p.add_argument("state_b", help="second state (psi)")
    _add_common(p)

    p = subs.add_parser("index", help="index invariants of a named inclusion")
    p.add_argument("inclusion", help="inclusion name from the spec")
    _add_common(p)

    p = subs.add_parser("verify", help="run a named experiment's suites")
    p.add_argument("experiment", help="experiment name from the spec")
    _add_common(p)

    p = subs.add_parser("maximize", help="saturate the entropy gap bound of an inclusion")
    p.add_argument("inclusion", help="inclusion name from the spec")
    _add_common(p)
    return parser


def _load(args) -> SpecFile:
    path = args.spec if args.spec is not None else _default_spec_path()
    return load_spec(path)


def _display(value: float, log2: bool) -> str:
    unit = "bits" if log2 else "nats"
    shown = (value / LN2 if log2 else value) + 0.0  # drop negative zero
    return f"{shown:+.7f} {unit}"


def _write_json(out_dir: str, filename: str, payload) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return path


# -- subcommands ----------------------------------------------------------------


def cmd_entropy(spec: SpecFile, args) -> int:
    name = args.state
    phi = spec.state(name)
    st = s_tau(phi)
    print(f"state {name}: algebra blocks {list(map(list, phi.algebra.blocks))}, "
          f"mass {phi.mass:.10f}")
    print(f"  S_tau = {_display(st, args.log2)}")
    payload = {"state": name, "s_tau": st}
    factor = len(phi.algebra.blocks) == 1 and phi.algebra.blocks[0][1] == 1
    if phi.is_state:
        vn = s_vn(phi)
        print(f"  S_vN  = {_display(vn, args.log2)}")
        payload["s_vn"] = vn
        if factor and phi.tau.is_normalized:
            n = phi.algebra.blocks[0][0]
            shifted = vn - math.log(n)
            print(f"  S_vN - log({n}) = {_display(shifted, args.log2)}"
                  f"  (matches S_tau to {abs(shifted - st):.1e})")
            payload["s_vn_minus_log_n"] = shifted
    if args.out:
        print(f"  wrote {_write_json(args.out, f'entropy-{name}.json', payload)}")
    return 0


def cmd_relent(spec: SpecFile, args) -> int:
    phi = spec.state(args.state_a)
    psi = spec.state(args.state_b)
    if phi.algebra is not psi.algebra:
        raise SpecError(f"states {args.state_a!r} and {args.state_b!r} "
                        f"live on different algebras")
    if phi.tau.weights != psi.tau.weights:
        raise SpecError(f"states {args.state_a!r} and {args.state_b!r} "
                        f"are expressed against different trace weights")
    closed = rel_entropy_closed(phi, psi)
    print(f"relative entropy S({args.state_a} || {args.state_b})")
    print(f"  closed form    = {_display(closed, args.log2)}")
    payload = {"phi": args.state_a, "psi": args.state_b, "closed": closed}
    if math.isfinite(closed):
        modular = rel_entropy_modular(phi, psi)
        residual = abs(closed - modular)
        print(f"  modular route  = {_display(modular, args.log2)}")
        print(f"  route residual = {residual:.3e}")
        payload.update(modular=modular, route_residual=residual)
    else:
        print("  (support of phi leaks outside the support of psi)")
    if args.out:
        name = f"relent-{args.state_a}-{args.state_b}.json"
        print(f"  wrote {_write_json(args.out, name, payload)}")
    return 0


def cmd_index(spec: SpecFile, args) -> int:
    name = args.inclusion
    inc = spec.inclusion(name)
    rep = index_report(inc)
    print(f"inclusion {name}: ambient dim {inc.ambient.dim}, "
          f"sub blocks {list(map(list, inc.sub.blocks))}")
    print(f"  pp_positive = {rep.pp_positive:.7f}")
    print(f"  pp_cp       = {rep.pp_cp:.7f}")
    print(f"  witness: ambient block {rep.witness_block}, "
          f"certificate slack {rep.witness_slack:.3e}")
    print(f"  cp refinement gap = {rep.pp_cp - rep.pp_positive + 0.0:.7f}")
    if args.out:
        payload = {"inclusion": name, "pp_positive": rep.pp_positive,
                   "pp_cp": rep.pp_cp, "witness_block": rep.witness_block,
                   "witness_slack": rep.witness_slack}
        print(f"  wrote {_write_json(args.out, f'index-{name}.json', payload)}")
    return 0


def cmd_verify(spec: SpecFile, args) -> int:
    exp = spec.experiment(args.experiment)
    seed = exp.seed if args.seed is None else args.seed
    out_dir = args.out if args.out is not None else "reports"
    reports = []
    for suite in exp.suites:
        tol = args.tol if args.tol is not None else suite.tol
        rep = run_suite(suite.name, trials=suite.trials, seed=seed, tol=tol)
        reports.append(rep)
        print(rep.summary())
        _write_json(out_dir, f"{rep.suite}.json", rep.to_json())

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "slacks.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "trial", "slack"])
        for rep in reports:
            for rec in rep.records:
                writer.writerow([rep.suite, rec["trial"], f"{rec['slack']:.17g}"])

    failed = [r.suite for r in reports if not r.passed]
    status = "FAIL" if failed else "pass"
    print(f"experiment {exp.name}: {len(reports) - len(failed)}/{len(reports)} "
          f"suites passed [{status}]; reports in {out_dir}/")
    return 1 if failed else 0


def cmd_maximize(spec: SpecFile, args) -> int:
    name = args.inclusion
    res = maximize_gap(spec.inclusion(name))
    print(f"maximize entropy gap on {name}")
    print(f"  best gap  = {_display(res.gap, args.log2)}")
    print(f"  ceiling   = {_display(res.bound, args.log2)} (log pp_positive)")
    print(f"  shortfall = {res.shortfall:.3e}")
    print(f"  converged = {res.converged}")
    if args.out:
        payload = {"inclusion": name, "gap": res.gap, "bound": res.bound,
                   "shortfall": res.shortfall, "converged": res.converged}
        print(f"  wrote {_write_json(args.out, f'maximize-{name}.json', payload)}")
    return 0


_COMMANDS = {
    "entropy": cmd_entropy,
    "relent": cmd_relent,
    "index": cmd_index,
    "verify": cmd_verify,
    "maximize": cmd_maximize,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        print("error: --tol must be a non-negative finite real", file=sys.stderr)
        return 2
    try:
        spec = _load(args)
        return _COMMANDS[args.command](spec, args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # exit 1 is reserved for a suite that violated its tolerance
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {args.command}: certificate failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
