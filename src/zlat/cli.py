"""The zlat command line: table emission, lattice inspection, gluing,
pair/partner lookup, and the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import forms, stability, tables, verify
from .classify import enumerate_ascending_t_pairs, pair_by_ref, reversion_partner
from .gluing import glue
from .lattice import ExprError, parse_lattice_expr, signature


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zlat",
        description="Exact lattice arithmetic behind the deformation classification of real Zariski sextics.",
    )
    parser.add_argument("--ascii", action="store_true", help="plain ASCII output (no angle brackets or subscripts)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="emit a classification table")
    p_tables.add_argument("--id", required=True, choices=tables.TABLE_IDS, dest="table_id")
    p_tables.add_argument("--format", default="md", choices=("md", "csv", "json"))
    p_tables.add_argument("--diff-golden", action="store_true",
                          help="compare against the published table and report discrepancies")

    p_lattice = sub.add_parser("lattice", help="evaluate a lattice expression")
    p_lattice.add_argument("expr")
    p_lattice.add_argument("--show", default="gram,invariants",
                           help="comma list from gram,invariants,discr")

    p_glue = sub.add_parser("glue", help="glue two lattices along a constructed anti-isomorphism")
    p_glue.add_argument("--l1", required=True)
    p_glue.add_argument("--l2", required=True)

    p_pair = sub.add_parser("pair", help="look up a census pair by its first half")
    p_pair.add_argument("--t-plus", required=True, dest="t_plus")

    p_partner = sub.add_parser("partner", help="reversion partner of a census row")
    p_partner.add_argument("--row", required=True, help="table ref like 8B:1")

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", default="all", choices=("all",) + verify.SUITES)
    return parser


def _reason(e: Exception) -> str:
    """The exception's own text; str() of a KeyError is the repr of its key."""
    return e.args[0] if isinstance(e, KeyError) and e.args else str(e)


def _maybe_pretty(text: str, ascii_mode: bool) -> str:
    return text if ascii_mode else tables.prettify_expr(text)


def _cmd_tables(args) -> int:
    if args.diff_golden:
        diffs = tables.diff_golden(args.table_id)
        if not diffs:
            print(f"table {args.table_id}: computed content matches the published table")
            return 0
        undocumented = 0
        for d in diffs:
            tag = "documented" if d["documented"] else "UNDOCUMENTED"
            row = d["row"] if d["row"] is not None else "-"
            print(f"{tag} {d['table']} row {row} [{d['kind']}]: {d['detail']}")
            undocumented += 0 if d["documented"] else 1
        return 1 if undocumented else 0
    print(tables.emit_table(args.table_id, args.format, args.ascii), end="")
    return 0


def _cmd_lattice(args) -> int:
    l = parse_lattice_expr(args.expr)
    shows = [s.strip() for s in args.show.split(",") if s.strip()]
    unknown = [s for s in shows if s not in ("gram", "invariants", "discr")]
    if unknown:
        print(f"unknown --show field(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    print(f"lattice {_maybe_pretty(l.expr or args.expr, args.ascii)} (rank {l.rank})")
    if "gram" in shows:
        for row in l.gram_rows():
            print("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    if "invariants" in shows:
        np_, nm = signature(l)
        print(f"  signature: ({np_},{nm})   det: {l.det()}   even: {l.is_even}")
        try:
            r, r2, d2, p, q = stability.invariants(l)
            print(f"  r = {r}  r2 = {r2}  delta2 = {d2}  (p,q) = ({p},{q})")
        except ValueError as e:
            print(f"  {e}")
        cert = stability.stability_certificate(l)
        print(f"  stability certificate: {cert if cert else 'none (verdicts may be unknown)'}")
    if "discr" in shows:
        f = forms.discriminant_form(l)
        print(f"  |discr| = {f.size}   form: {forms.render_form(f, args.ascii)}")
        print(f"  Brown invariant: {forms.brown(f)}")
    return 0


def _cmd_glue(args) -> int:
    l1 = parse_lattice_expr(args.l1)
    l2 = parse_lattice_expr(args.l2)
    f1 = forms.discriminant_form(l1)
    f2 = forms.discriminant_form(l2)
    phi = None
    for p in (2, 3):
        part1, part2 = forms.p_part(f1, p), forms.p_part(f2, p)
        if part1.ngens == 0 or not forms.is_elementary(part1, p) or not forms.is_elementary(part2, p):
            continue
        phi = forms.build_anti_iso(part1, part2, p)
        if phi is not None:
            break
    if phi is None:
        print("no full elementary anti-isomorphism between the discriminant p-parts", file=sys.stderr)
        return 1
    glued = glue(l1, l2, phi)
    np_, nm = signature(glued)
    print(f"glued lattice: rank {glued.rank}, det {glued.det()}, signature ({np_},{nm}), even: {glued.is_even}")
    for row in glued.gram_rows():
        print("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    return 0


def _cmd_pair(args) -> int:
    probe = parse_lattice_expr(args.t_plus)
    try:
        key = stability.invariants(probe)
    except ValueError as e:
        print(f"the lattice is outside the census ({e})", file=sys.stderr)
        return 2
    for pair in enumerate_ascending_t_pairs():
        if pair.t_plus == key:
            if stability.isomorphic_in_genus(probe, pair.witness_plus) != "yes":
                break
            print(json.dumps(tables.t_pair_record(pair), indent=2))
            return 0
    print("no census pair has this first half", file=sys.stderr)
    return 1


def _cmd_partner(args) -> int:
    try:
        pair = pair_by_ref(args.row)
    except KeyError as e:
        print(_reason(e), file=sys.stderr)
        return 2
    partner = reversion_partner(pair)
    record = {
        "pair": tables.t_pair_record(pair),
        "id": tables.id_record(pair),
        "partner": tables.t_pair_record(partner) if partner else None,
    }
    print(json.dumps(record, indent=2))
    return 0


def _cmd_verify(args) -> int:
    failures = verify.run_verify(args.suite)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handlers = {
        "tables": _cmd_tables,
        "lattice": _cmd_lattice,
        "glue": _cmd_glue,
        "pair": _cmd_pair,
        "partner": _cmd_partner,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ExprError as e:
        print(f"expression error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {_reason(e)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
