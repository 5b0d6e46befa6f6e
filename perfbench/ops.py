"""The operations of each workload and their correctness gates.

`build(workload, seed, prefix)` returns one round: a list of
(kind, op) pairs, where op() calls the package on generated inputs and
raises Mismatch when an output is wrong, plus a final check run once the
round is done.  The costliest operations of a round come last, and a prefix
round stops before them.  Ops share state through closures only within one
round.
"""

from __future__ import annotations

import hashlib
import json
import os

import inputs
from zlat import classify, forms, gluing, lattice, sextic, stability, tables

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "classification_golden.json")


class Mismatch(Exception):
    """An output disagreed with the expected value."""


class Capped(Exception):
    """A documented size cap of the package refused the input (counted, not failed)."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# classification


def pair_record(pair, partner, sid) -> dict:
    return {"partner": partner.table_ref if partner else None,
            "id": f"{sextic.render_code(sid.code)} {sid.curve_type} {sid.o}"}


def classification_digests() -> dict:
    """Today's outputs of the classification, as recorded in GOLDEN."""
    census = classify.enumerate_ascending_t_pairs()
    pairs = {p.table_ref: pair_record(p, classify.reversion_partner(p), sextic.id_from_t_pair(p))
             for p in census}
    out = {}
    for tid in tables.TABLE_IDS:
        out[tid] = {fmt: sha256(tables.emit_table(tid, fmt)) for fmt in ("md", "csv", "json")}
        out[tid]["diff"] = sha256(json.dumps(tables.diff_golden(tid), sort_keys=True))
    return {"pairs": pairs, "tables": out}


def classification_round(seed: int):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    npairs = len(golden["pairs"])
    partner_order, realize_order, table_ids = inputs.classification_order(
        seed, npairs, sorted(golden["tables"]))
    state = {"partners": {}}

    def census():
        state["census"] = classify.enumerate_ascending_t_pairs()
        expect(len(state["census"]) == npairs, f"census has {len(state['census'])} pairs")

    def partner(i):
        pair = state["census"][i]
        state["partners"][pair.table_ref] = classify.reversion_partner(pair)

    def ident(i):
        pair = state["census"][i]
        got = pair_record(pair, state["partners"][pair.table_ref], sextic.id_from_t_pair(pair))
        expect(got == golden["pairs"].get(pair.table_ref), f"pair {pair.table_ref}: {got}")

    def realize(i):
        pair = state["census"][i]
        report = classify.realize_pair(pair)
        want = {"pair": pair.table_ref, "stage_a": "ok", "involution": "ok",
                "stage_b": "ok", "stage_c": "ok"}
        expect(report == want, f"realize {pair.table_ref}: {report}")

    def emit(tid, fmt):
        expect(sha256(tables.emit_table(tid, fmt)) == golden["tables"][tid][fmt],
               f"table {tid} {fmt} differs")

    def diff(tid):
        # the union of these reports over all ids is tables.undocumented_discrepancies()
        report = tables.diff_golden(tid)
        expect(all(d["documented"] for d in report), f"undocumented discrepancy in {tid}")
        got = sha256(json.dumps(report, sort_keys=True))
        expect(got == golden["tables"][tid]["diff"], f"diff_golden {tid} differs")

    ops = [("census", census)]
    for i in partner_order:
        ops += [("partner", lambda i=i: partner(i)), ("id", lambda i=i: ident(i))]
    for tid in table_ids:
        ops += [("emit", lambda tid=tid, fmt=fmt: emit(tid, fmt)) for fmt in ("md", "csv", "json")]
        ops.append(("diff", lambda tid=tid: diff(tid)))
    light = len(ops)  # realization last: a prefix round leaves it out
    ops += [("realize", lambda i=i: realize(i)) for i in realize_order]

    def final():
        irreversible = sum(1 for p in state["partners"].values() if p is None)
        expect(len(state["partners"]) == npairs, "not every pair got a partner verdict")
        expect(irreversible == 6, f"{irreversible} irreversible pairs, want 6")

    return ops, final, {}, light


# ---------------------------------------------------------------------------
# discr-sweep


def discr_op(item):
    if item["population"] == "catalog":
        l = lattice.parse_lattice_expr(item["expr"])
    else:
        l = lattice.make_lattice(item["gram"])
    f = forms.discriminant_form(l)
    br = forms.brown(f)
    r2 = forms.p_rank(f, 2)
    n_plus, n_minus = lattice.signature(l)
    what = item.get("expr") or item["gram"]
    expect(br == (n_plus - n_minus) % 8, f"Brown {br} vs signature {(n_plus, n_minus)}: {what}")
    expect(f.size == abs(item["det"]), f"|G| = {f.size} vs |det| = {abs(item['det'])}: {what}")
    expect(r2 % 2 == item["rank"] % 2, f"2-rank {r2} vs rank {item['rank']}: {what}")
    if item["sig"] is not None:
        expect((n_plus, n_minus) == tuple(item["sig"]), f"signature {(n_plus, n_minus)}: {what}")


def discr_round(seed: int):
    items = inputs.discr_round(seed)
    ops = [(item["population"], lambda item=item: discr_op(item)) for item in items]
    shares = {pop: sum(1 for it in items if it["population"] == pop) / len(items)
              for pop in ("catalog", "random")}
    return ops, None, shares, len(ops)


# ---------------------------------------------------------------------------
# genus-large


def tag_op(item):
    a = stability.genus_tag(lattice.make_lattice(item["gram"]))
    b = stability.genus_tag(lattice.make_lattice(item["moved"]))
    expect(a == b, f"genus tag changed under a basis change: {item['expr']}")


def iso_op(item):
    verdict = stability.isomorphic_in_genus(lattice.make_lattice(item["gram"]),
                                            lattice.make_lattice(item["moved"]))
    expect(verdict != "no", f"'no' for {item['expr']} against a basis change of itself")


def control_op(item):
    verdict = stability.isomorphic_in_genus(lattice.make_lattice(item["moved"]),
                                            lattice.make_lattice(item["control_gram"]))
    expect(verdict == "no", f"{verdict!r} for {item['expr']} against its {item['control']} control")


def brown_op(item):
    l = lattice.make_lattice(item["moved"])
    f = forms.discriminant_form(l)
    try:
        br = forms.brown(f)
    except ValueError as e:
        if item["family"] == "overcap" and "too large" in str(e):
            raise Capped(str(e)) from None
        raise
    n_plus, n_minus = item["sig"]
    expect(f.size == abs(item["det"]), f"|G| = {f.size} vs |det| {abs(item['det'])}: {item['expr']}")
    expect(br == (n_plus - n_minus) % 8, f"Brown {br} vs signature {item['sig']}: {item['expr']}")


def extension_op(item):
    l = lattice.make_lattice(item["gram"])
    f = forms.discriminant_form(l)
    isotropic = [x for x in sorted(f.elements())
                 if any(x) and f.q(x) == 0 and forms.is_isotropic_subgroup(f, [x])]
    gens = [isotropic[item["pick"] % len(isotropic)]]
    ext = gluing.extend(l, gens)
    quot = forms.discriminant_form(ext)
    expect(forms.fingerprint(quot) == forms.coset_fingerprint(f, gens),
           f"discr(extension) != H-perp/H for {item['expr']}")


def item_ops(item) -> list:
    if item["family"] == "extension":
        return [("extension", lambda: extension_op(item))]
    return [(kind, lambda fn=fn: fn(item))
            for kind, fn in (("tag", tag_op), ("iso", iso_op), ("control", control_op), ("brown", brown_op))]


def genus_round(seed: int):
    items = inputs.genus_round(seed)
    # the largest groups last: a prefix round leaves them out
    ops = [op for item in items if item["expr"] not in inputs.GENUS_HEAVY for op in item_ops(item)]
    light = len(ops)
    ops += [op for item in items if item["expr"] in inputs.GENUS_HEAVY for op in item_ops(item)]
    shares = {}
    for item in items:
        shares[item["family"]] = shares.get(item["family"], 0) + 1 / len(items)
    return ops, None, shares, light


ROUNDS = {"classification": classification_round, "discr-sweep": discr_round,
          "genus-large": genus_round}


def build(workload: str, seed: int, prefix: bool = False):
    """(ops, final check or None, population shares) of one round.  The
    costliest operations of a round come last; with `prefix`, the round stops
    before them."""
    ops, final, shares, light = ROUNDS[workload](seed)
    return (ops[:light] if prefix else ops), final, shares
