"""Table emission (md / csv / json) and comparison against the golden fixtures.

All emitted content is computed from the census; the fixtures only pin the
published row layout and the expected values.  Diffs compare recomputed
invariants and genus tags, never literal Gram matrices, and report the
documented misprints of the source tables as whitelisted discrepancies.
"""

from __future__ import annotations

import copy
import json
import re
from collections.abc import Callable, Iterator
from functools import lru_cache
from typing import NamedTuple

from . import golden, stability
from .classify import (
    TPair,
    admissible_invariants,
    enumerate_ascending_t_pairs,
    half_violation,
    pair_by_ref,
    s_pair,
    witness_lattice,
    THalfInvariants,
)
from .lattice import MEMO_SIZE, parse_lattice_expr
from .sextic import cubic_topology, id_from_t_pair, render_code, simple_code_text

_SUBSCRIPTS = str.maketrans("0123456789-", "₀₁₂₃₄₅₆₇₈₉₋")


def prettify_expr(expr: str) -> str:
    return expr.replace("<", "⟨").replace(">", "⟩")


def prettify_code(code_text: str) -> str:
    return prettify_expr(re.sub(r"_([0-9-]*)", lambda m: m[1].translate(_SUBSCRIPTS), code_text))


# ---------------------------------------------------------------------------
# JSON records

def t_pair_record(pair: TPair) -> dict:
    def half(inv, lat):
        return {"expr": lat.expr, **inv._asdict()}

    return {
        "tPlus": half(pair.t_plus, pair.witness_plus),
        "tMinus": half(pair.t_minus, pair.witness_minus),
        "reversible": pair.reversible,
        "partnerIndex": pair.partner_index,
        "tableRef": pair.table_ref,
    }


def _code_tree(code) -> dict:
    if code.kind != "general":
        return {"kind": code.kind}
    return {
        "kind": "general",
        "outer": [list(g) for g in code.outer],
        "ambient": code.ambient,
        "inner": [list(g) for g in code.inner],
    }


def id_record(pair: TPair) -> dict:
    return _id_fields(pair, id_from_t_pair(pair))


def _id_fields(pair: TPair, sid) -> dict:
    """`id_record` of the pair whose ID is sid."""
    top = cubic_topology(sid)
    return {
        "code": render_code(sid.code),
        "codeTree": _code_tree(sid.code),
        "type": sid.curve_type,
        "o": sid.o,
        "nuR": sid.nu_r,
        "chi": top.chi,
        "handles": top.handles,
        "tableRef": pair.table_ref,
    }


# ---------------------------------------------------------------------------
# the registry: each published table with how to compute, diff and prettify it

class Table(NamedTuple):
    """One published table.

    `build()` returns the display rows and the JSON payload; `diff(rows,
    payload)` reads them from `_built` and yields (row, kind, detail) for each
    discrepancy with the golden fixture, row 1-based or None; `pretty`
    renders a display cell outside ascii mode.
    """

    headers: tuple[str, ...]
    build: Callable[[], tuple[list[list[str]], list]]
    diff: Callable[[tuple, list], Iterator[tuple[int | None, str, str]]]
    pretty: Callable[[str], str] = prettify_expr


def _census_refs(prefix: str) -> list[TPair]:
    """The census pairs named by Table 8A, 8B or 8C, in printed row order."""
    pairs = [p for p in enumerate_ascending_t_pairs() if p.table_ref.partition(":")[0] == prefix]
    return sorted(pairs, key=lambda p: int(p.table_ref.partition(":")[2]))


def _invariants_of(expr: str):
    return stability.invariants(parse_lattice_expr(expr))


def _id_table(prefix: str, fixture, with_o: bool) -> Table:
    """Tables 1A-C: the IDs of the pairs of Table `prefix`, row-aligned with it."""
    columns = ("o", "code", "type") if with_o else ("code", "type")
    headers = ("simple", "nuR", "o", "complete", "type") if with_o else ("simple", "nuR", "complete", "type")

    def build():
        rows, payload = [], []
        for pair in _census_refs(prefix):
            sid = id_from_t_pair(pair)
            rec = _id_fields(pair, sid)
            rows.append([simple_code_text(sid.code), str(rec["nuR"])] + [rec[c] for c in columns])
            payload.append(rec)
        return rows, payload

    def diff(rows, _payload):
        for i, (frow, crow) in enumerate(zip(fixture, map(list, rows)), 1):
            if [frow[0], str(frow[1]), *frow[2:]] != crow:
                yield i, "id-mismatch", f"{frow} vs {crow}"

    return Table(headers, build, diff, prettify_code)


def _spec_text(spec) -> str:
    kind, expr = spec
    return expr if kind == "plain" else f"[{expr}]_s/3"


def _s_pairs():
    return [(o, nu_i, _spec_text(plus), _spec_text(minus), s_pair(nu_i, o))
            for o, nu_i, plus, minus in golden.TABLE_2]


def _s_half_record(spec: str, l) -> dict:
    return {"spec": spec, "rank": l.rank, "det": l.det() if l.rank else 1}


def _build_2():
    rows, payload = [], []
    for o, nu_i, plus, minus, sp in _s_pairs():
        rows.append([o, str(nu_i), plus, minus])
        payload.append({"o": o, "nuI": nu_i, "sPlus": _s_half_record(plus, sp.s_plus),
                        "sMinus": _s_half_record(minus, sp.s_minus)})
    return rows, payload


def _diff_2(_rows, _payload):
    e6_2 = stability.genus_tag(parse_lattice_expr("E6(2)"))
    for i, (o, nu_i, _plus, _minus, sp) in enumerate(_s_pairs(), 1):
        # the printed identity [3A2(2)]_{sigma/3} = E6(2)
        if nu_i == 3 and stability.genus_tag(sp.s_plus if o == "+" else sp.s_minus) != e6_2:
            yield i, "genus-mismatch", "extension is not E6(2)"


def _geography_table(fixture, half: int) -> Table:
    """Tables 3A/3B: the delta2 options of each (r, r2) row group of one half."""

    def build():
        options: dict[tuple[int, int], set[int]] = {}
        for pair in admissible_invariants():
            inv = pair[half]
            options.setdefault((inv.r, inv.r2), set()).add(inv.delta2)
        rows = [(rr2s, sorted(set().union(*(options.get(rr2, set()) for rr2 in rr2s)))) for rr2s, _d2s in fixture]
        return ([[", ".join(f"({r},{r2})" for r, r2 in rr2s), ",".join(map(str, d2s))] for rr2s, d2s in rows],
                [{"rr2": [list(x) for x in rr2s], "delta2": d2s} for rr2s, d2s in rows])

    def diff(_rows, payload):
        for i, ((_rr2s, want), rec) in enumerate(zip(fixture, payload), 1):
            got = tuple(rec["delta2"])
            if tuple(want) != got:
                yield i, "delta2-mismatch", f"{want} vs {got}"

    return Table(("(r,r2)", "delta2"), build, diff)


def _build_4():
    """Table 4: per (r, r2) and delta2 set, the (p, q) of the admitted first
    halves, beside the (r, r2) and (p, q) their complements have."""
    cells: dict = {}
    for inv, comp in admissible_invariants():
        cell = cells.setdefault((inv.r2, inv.r), ((comp.r, comp.r2), {}))[1]
        cell.setdefault((inv.p, inv.q), (set(), (comp.p, comp.q)))[0].add(inv.delta2)
    rows, payload = [], []
    for (r2, r), (rr2_comp, cell) in sorted(cells.items()):
        groups: dict[tuple, list] = {}
        for pq, (d2s, pq_comp) in sorted(cell.items()):
            groups.setdefault(tuple(sorted(d2s)), []).append((pq, pq_comp))
        for d2s in ((0,), (0, 1), (1,)):
            if d2s in groups:
                pqs, comp = zip(*groups[d2s])
                rows.append([",".join(map(str, d2s)), f"({r},{r2})", " ".join(f"({p},{q})" for p, q in pqs),
                             "({},{})".format(*rr2_comp), " ".join(f"({p},{q})" for p, q in comp)])
                payload.append({"delta2": list(d2s), "rr2": [r, r2], "pq": [list(x) for x in pqs],
                                "rr2Comp": list(rr2_comp), "pqComp": [list(x) for x in comp]})
    return rows, payload


def _diff_4(_rows, payload):
    if len(payload) != len(golden.TABLE_4):
        yield None, "row-count", f"{len(golden.TABLE_4)} vs {len(payload)}"
    for i, ((wd2, wrr2, wpq), rec) in enumerate(zip(golden.TABLE_4, payload), 1):
        got = (tuple(rec["delta2"]), tuple(rec["rr2"]), list(map(tuple, rec["pq"])))
        if (tuple(wd2), wrr2, list(wpq)) != got:
            yield i, "cell-mismatch", f"{(wd2, wrr2, wpq)} vs {got}"


def _t_half_table(p: int, layout) -> Table:
    """Tables 5A-J: per (delta2, (r, r2)) row and q, the witness of the T-half,
    "-" when the half is forbidden, "*" when only its complement is."""

    def build():
        census_halves = {half for pair in admissible_invariants() for half in pair}
        rows, payload = [], []
        for d2, (r, r2), _cells in layout:
            cells = []
            for q in range(4):
                inv = THalfInvariants(r, r2, d2, p, q)
                if half_violation(inv) is not None:
                    cells.append("-")
                elif inv in census_halves:
                    cells.append(witness_lattice(inv).expr)
                else:
                    cells.append("*")
            rows.append([str(d2), f"({r},{r2})"] + cells)
            payload.append({"delta2": d2, "rr2": [r, r2], "cells": cells})
        return rows, payload

    def diff(_rows, payload):
        for i, ((_fd2, _frr2, fcells), rec) in enumerate(zip(layout, payload), 1):
            for q, (want, got) in enumerate(zip(fcells, rec["cells"])):
                if want in ("-", "*") or got in ("-", "*"):
                    if want != got:
                        yield i, "marker-mismatch", f"q={q}: {want} vs {got}"
                    continue
                want_l, got_l = parse_lattice_expr(want), parse_lattice_expr(got)
                if stability.invariants(want_l) != stability.invariants(got_l):
                    yield i, "invariant-mismatch", f"q={q}: {want} vs {got}"
                elif stability.genus_tag(want_l) != stability.genus_tag(got_l):
                    yield i, "genus-mismatch", f"q={q}: {want} vs {got}"

    return Table(("delta2", "(r,r2)", "q=0", "q=1", "q=2", "q=3"), build, diff)


def _ascending_table(fixture, p: int) -> Table:
    """Tables 7A/7B: the census pairs whose first half has this p, in the
    printed order, with the pairs the table omits appended."""

    def match():
        # each printed row names the census pair with the invariants of its T+
        census = [pair for pair in enumerate_ascending_t_pairs() if pair.t_plus.p == p]
        by_key = {pair.t_plus: pair for pair in census}
        matched = [(row, by_key.get(_invariants_of(row[3]))) for row in fixture]
        named = {pair.t_plus for _row, pair in matched if pair is not None}
        return matched, [pair for pair in census if pair.t_plus not in named]

    def build():
        matched, omitted = match()
        pairs = [pair for _row, pair in matched if pair is not None] + omitted
        return ([[str(pair.t_plus.delta2), f"({pair.t_plus.r},{pair.t_plus.r2})", str(pair.t_plus.q),
                  pair.witness_plus.expr, pair.witness_minus.expr] for pair in pairs],
                [t_pair_record(pair) for pair in pairs])

    def diff(_rows, _payload):
        matched, omitted = match()
        for i, ((d2, (r, r2), q, t1, t2), pair) in enumerate(matched, 1):
            if pair is None:
                yield i, "missing-pair", f"{t1} not in census"
                continue
            t = pair.t_plus
            if (d2, (r, r2), q) != (t.delta2, (t.r, t.r2), t.q):
                yield i, "label-mismatch", f"printed ({d2},({r},{r2}),q={q}) vs computed {tuple(t)}"
            t2_key = _invariants_of(t2)
            if t2_key != pair.t_minus:
                yield i, "second-half-mismatch", f"{t2} has invariants {t2_key}, census has {tuple(pair.t_minus)}"
        for pair in omitted:
            yield None, "missing-row", f"census pair {tuple(pair.t_plus)} absent from the printed table"

    return Table(("delta2", "(r,r2)", "q", "T+", "T-"), build, diff)


def _census_table(prefix: str, fixture, headers, cells, label) -> Table:
    """Tables 8A-C: the census pairs a table names, one row each.

    `cells(pair)` gives the display row; `label(i, row, t_plus)` the detail
    of a printed label that disagrees with the census, or None.  Every row
    ends in T1, T2, whose invariants must be those of the pair's halves.
    """

    def build():
        pairs = _census_refs(prefix)
        return [cells(pair) for pair in pairs], [t_pair_record(pair) for pair in pairs]

    def diff(_rows, _payload):
        for i, row in enumerate(fixture, 1):
            pair = pair_by_ref(f"{prefix}:{i}")
            detail = label(i, row, pair.t_plus)
            if detail is not None:
                yield i, "label-mismatch", detail
            for expr, have in ((row[-2], pair.t_plus), (row[-1], pair.t_minus)):
                got = _invariants_of(expr)
                if got != have:
                    yield i, "invariant-mismatch", f"{expr}: {got} vs {tuple(have)}"

    return Table(headers, build, diff)


def _cells_8a(pair: TPair) -> list[str]:
    tp, tm = pair.t_plus, pair.t_minus
    return [str(tp.delta2), f"({tp.r},{tp.r2})", f"({tp.p},{tp.q})", f"({tm.r},{tm.r2})",
            f"({tm.p},{tm.q})", pair.witness_plus.expr, pair.witness_minus.expr]


def _cells_8bc(pair: TPair) -> list[str]:
    tp = pair.t_plus
    return [f"({tp.r},{tp.r2})", str(tp.q), str(tp.delta2), pair.witness_plus.expr, pair.witness_minus.expr]


def _label_8a(i, row, t):
    d2, rr2, pq = row[:3]
    return None if (d2, rr2, pq) == (t.delta2, (t.r, t.r2), (t.p, t.q)) else f"row {i}"


def _label_8b(_i, row, t):
    (r, r2), q, d2 = row[:3]
    if (r, r2, d2, q) == (t.r, t.r2, t.delta2, t.q):
        return None
    return f"printed ((r,r2)=({r},{r2}), q={q}, d2={d2}) vs computed {tuple(t)}"


def _label_8c(i, row, t):
    return None if row[0] == (t.r, t.r2) else f"row {i}"


_HEADERS_8BC = ("(r,r2)", "q", "delta2", "T1", "T2")

TABLES: dict[str, Table] = {
    "1A": _id_table("8A", golden.TABLE_1A, with_o=True),
    "1B": _id_table("8B", golden.TABLE_1B, with_o=False),
    "1C": _id_table("8C", golden.TABLE_1C, with_o=False),
    "2": Table(("o", "nuI", "S+", "S-"), _build_2, _diff_2),
    "3A": _geography_table(golden.TABLE_3A, half=0),
    "3B": _geography_table(golden.TABLE_3B, half=1),
    "4": Table(("delta2", "(r,r2)", "(p,q)", "(r',r2')", "(p',q')"), _build_4, _diff_4),
    **{tid: _t_half_table(p, layout) for tid, (p, layout) in golden.TABLE_5.items()},
    "7A": _ascending_table(golden.TABLE_7A, p=0),
    "7B": _ascending_table(golden.TABLE_7B, p=1),
    "8A": _census_table("8A", golden.TABLE_8A,
                        ("delta2", "(r,r2)", "(p,q)", "(r',r2')", "(p',q')", "T1", "T2"),
                        _cells_8a, _label_8a),
    "8B": _census_table("8B", golden.TABLE_8B, _HEADERS_8BC, _cells_8bc, _label_8b),
    "8C": _census_table("8C", golden.TABLE_8C, _HEADERS_8BC, _cells_8bc, _label_8c),
}

TABLE_IDS = list(TABLES)


def _table(table_id: str) -> Table:
    try:
        return TABLES[table_id]
    except KeyError:
        raise ValueError(f"unknown table id {table_id!r}") from None


@lru_cache(maxsize=MEMO_SIZE)
def _built(table_id: str) -> tuple:
    """(headers, display rows, JSON payload) of one table id, built once for
    every format and the golden diff.  Only read here, in `emit_table` and in
    `diff_golden`; `computed_table` hands out copies, so no caller can change
    it."""
    table = _table(table_id)
    rows, payload = table.build()
    return table.headers, tuple(map(tuple, rows)), payload


def computed_table(table_id: str) -> dict:
    """Headers, display rows, and JSON payload for one table id, as fresh lists and dicts."""
    headers, rows, payload = _built(table_id)
    return {"headers": list(headers), "rows": [list(row) for row in rows], "json": copy.deepcopy(payload)}


# ---------------------------------------------------------------------------
# rendering

def emit_table(table_id: str, fmt: str = "md", ascii_mode: bool = False) -> str:
    headers, rows, payload = _built(table_id)
    if fmt == "json":
        return json.dumps({"table": table_id, "rows": payload}, indent=2)
    if not ascii_mode:
        pretty = TABLES[table_id].pretty
        rows = [[pretty(c) for c in row] for row in rows]
    if fmt == "csv":
        lines = [",".join(headers)]
        lines += [",".join(f'"{c}"' if "," in c else c for c in row) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "md":
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        def line(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        out = [line(headers), line(["-" * w for w in widths])]
        out += [line(row) for row in rows]
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# golden diff

def _disc(table, row, kind, detail):
    documented = (table, row) in golden.KNOWN_DISCREPANCIES or (table, None) in golden.KNOWN_DISCREPANCIES and kind == "missing-row"
    return {"table": table, "row": row, "kind": kind, "detail": detail, "documented": documented}


def diff_golden(table_id: str) -> list[dict]:
    """Discrepancies between computed content and the golden fixture.

    The differ reads the content `emit_table` prints, from `_built`.
    Documented source-table misprints come back with documented = True.
    """
    _headers, rows, payload = _built(table_id)
    return [_disc(table_id, row, kind, detail) for row, kind, detail in TABLES[table_id].diff(rows, payload)]
