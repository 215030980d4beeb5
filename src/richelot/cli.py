"""Command-line interface: census, graph export, neighbourhoods,
atlas verification, and structural validation.

Exit status is 0 exactly when every requested check passes.  Identical
invocations produce byte-identical output; RICHELOT_SEED only affects
the random parameter sampling of generic atlas cases, never the graph
content.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .atlas import (ALL_CASES, JACOBIAN_CASES, AtlasError, normal_form,
                    normal_form_splitting, verify_case)
from .census import CensusError, compare, expected_counts
from .elliptic import curve_from_j
from .field import FieldError, make_field
from .genus2 import Genus2Curve
from .gluing import ProductSurface
from .graph import (VertexKey, build_graph, export_rows, neighbourhood,
                    ra_type_of, validate)
from .poly import Poly

DEFAULT_MAX_PRIME = 300


def _add_common(sub, capped=False):
    sub.add_argument("-p", type=int, required=True, help="prime > 5")
    if capped:  # the commands that build the whole graph
        sub.add_argument("--max-prime", type=int, default=DEFAULT_MAX_PRIME,
                         help="guard rail on the graph's size "
                              f"(default {DEFAULT_MAX_PRIME})")


def _capped_field(args):
    """GF(p^2), once p passes the graph commands' --max-prime cap."""
    if args.p > args.max_prime:
        raise FieldError(
            f"p = {args.p} exceeds the cap {args.max_prime}; "
            "raise --max-prime to override")
    if args.p > DEFAULT_MAX_PRIME:
        print(f"warning: p = {args.p} is beyond the desk-scale default; "
              "expect long runtimes", file=sys.stderr)
    return make_field(args.p)


def _cmd_census(args) -> int:
    g = build_graph(_capped_field(args))
    report = compare(g, expected_counts(args.p))
    if args.json:
        print(json.dumps(report.as_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.as_table())
    return 0 if report.ok else 1


def _cmd_graph(args) -> int:
    ctx = _capped_field(args)
    # -o opens before the build, as a shell > would
    with open(args.output, "w") if args.output \
            else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(export_rows(build_graph(ctx), args.format))
    return 0


def _cmd_validate(args) -> int:
    g = build_graph(_capped_field(args))
    report = validate(g)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_verify_atlas(args) -> int:
    ctx = make_field(args.p)
    cases = [args.case] if args.case else list(ALL_CASES)
    ok = True
    for case in cases:
        if case not in ALL_CASES:
            raise AtlasError(f"unknown case {case!r}; choose from "
                             f"{', '.join(ALL_CASES)}")
        try:
            rep = verify_case(case, ctx)
        except AtlasError as exc:
            print(f"[SKIP] case {case} at p={args.p}: {exc}")
            continue
        print(rep.summary())
        ok = ok and rep.ok
    return 0 if ok else 1


def _parse_field_elems(ctx, text, option):
    out = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "+" in part and part.endswith("i"):
                a, b = part[:-1].split("+")
                out.append(ctx.element(int(a), int(b)))
            else:
                out.append(ctx.from_int(int(part)))
    except ValueError:
        raise ValueError(f"{option}: cannot parse {text!r}") from None
    return out


def _cmd_neighbourhood(args) -> int:
    ctx = make_field(args.p)
    given = [x for x in (args.sextic, args.product, args.atlas)
             if x is not None]
    if len(given) != 1:
        raise AtlasError("choose exactly one of --sextic/--product/--atlas")
    if args.params is not None and args.atlas is None:
        raise AtlasError("--params needs --atlas")
    if args.sextic is not None:
        coeffs = _parse_field_elems(ctx, args.sextic, "--sextic")
        if len(coeffs) not in (6, 7):
            raise ValueError("--sextic: expected 6 or 7 coefficients, "
                             f"got {len(coeffs)}")
        rep = query = Genus2Curve(Poly(ctx, coeffs))
    elif args.product is not None:
        js = _parse_field_elems(ctx, args.product, "--product")
        if len(js) != 2:
            raise ValueError(
                f"--product: expected two j-invariants, got {len(js)}")
        E1, E2 = (curve_from_j(ctx, j) for j in js)
        if E1 is None or E2 is None:
            raise AtlasError("no split-torsion model for a j-invariant")
        rep = query = ProductSurface(E1, E2)
    else:
        params = None if args.params is None \
            else _parse_field_elems(ctx, args.params, "--params")
        rep = query = normal_form(args.atlas, ctx, params=params)
        if args.atlas in JACOBIAN_CASES:
            rep, query = rep[0], normal_form_splitting(ctx, rep[1])
    own = ra_type_of(VertexKey.of(rep), ctx)
    edges = neighbourhood(query)
    rows = []
    for e in edges:
        label = "loop" if e.is_loop else e.target.as_string()
        rows.append({"weight": e.weight, "target": label,
                     "loop": e.is_loop})
    doc = {"p": args.p, "vertex_type": own,
           "out_weight": sum(e.weight for e in edges), "edges": rows}
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"vertex type {own}, out-weight {doc['out_weight']}")
        for r in rows:
            print(f"  weight {r['weight']:>2} -> {r['target']}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="richelot",
        description="(2,2)-isogeny graphs of superspecial abelian "
                    "surfaces over GF(p^2)")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("census",
                       help="enumerate the superspecial graph and compare "
                            "per-type vertex counts with the formulas")
    _add_common(c, capped=True)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_census)

    c = sub.add_parser("graph", help="export the superspecial graph")
    _add_common(c, capped=True)
    c.add_argument("--format", choices=("dot", "json"), required=True)
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=_cmd_graph)

    c = sub.add_parser("neighbourhood",
                       help="orbit edges out of one vertex")
    _add_common(c)
    c.add_argument("--sextic", default=None,
                   help="comma-separated coefficients c0,...,c6 (or c5)")
    c.add_argument("--product", default=None,
                   help="two j-invariants j1,j2")
    c.add_argument("--atlas", default=None,
                   help=f"one of {', '.join(ALL_CASES)}")
    c.add_argument("--params", default=None,
                   help="normal-form parameters (with --atlas): two "
                        "for case I, one for III and IV, none otherwise")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_neighbourhood)

    c = sub.add_parser("verify-atlas",
                       help="check the reference edge tables for one case "
                            "or all cases at this prime")
    _add_common(c)
    c.add_argument("--case", default=None)
    c.set_defaults(func=_cmd_verify_atlas)

    c = sub.add_parser("validate",
                       help="15-regularity, ratio principle, duals, "
                            "classifier agreement, Frobenius mirror, "
                            "mass formula")
    _add_common(c, capped=True)
    c.set_defaults(func=_cmd_validate)
    return ap


def run(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (FieldError, CensusError, AtlasError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():  # console entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
