"""Oracles for `zlat.classify`.

`root_components` is the box walk the package did before it restricted the
search for reversion roots to the kernel of the Gram matrix mod 2: every
coordinate vector of the box [-box, box]^n, with the even-pairing test on
all n products.

`witness_index` is the witness index as the package built it before it
combined pre-summed tails in key order: the list of every candidate
multiset, sorted, with each candidate's invariants summed block by block.

`half_violation` and `admissible_invariants` are the T-half rules and the
grid walk as the package ran them before the rules moved to integer keys:
one `THalfInvariants` per grid point, checked through `pair_violation`,
then sorted.

`pair_violation` checks both halves of an ascending pair with the package's
rules, as the census does on integer keys.

`golden_row_lookup` keys the golden T1 rows as the package did before it
summed their blocks' data: each T1 text parsed and genus-tagged.
"""

from __future__ import annotations

import itertools

from zlat import classify, golden, stability
from zlat.classify import (
    BLOCK_RANK,
    CATALOG,
    HYPERBOLIC_BLOCKS,
    THalfInvariants,
    _block_data,
    block_multisets,
)
from zlat.lattice import parse_lattice_expr


def pair_violation(inv: THalfInvariants) -> str | None:
    """The first half's or its complement's `classify.half_violation`, or None."""
    for name, half in (("first half", inv), ("complement", inv.complement())):
        v = classify.half_violation(half)
        if v is not None:
            return f"{name}: {v}"
    return None


def root_components(name: str, cap: int = 8, box: int = 2):
    """Block vectors u with u.(block) in 2Z and |u^2| <= cap, |coords| <= box."""
    l = parse_lattice_expr(name)
    g = l.gram_rows()
    n = l.rank
    out = []
    for coords in itertools.product(range(-box, box + 1), repeat=n):
        prods = [sum(coords[i] * g[i][j] for i in range(n)) for j in range(n)]
        if any(p % 2 for p in prods):
            continue
        norm = sum(prods[j] * coords[j] for j in range(n))
        if -cap <= norm <= cap:
            out.append((coords, norm))
    out.sort(key=lambda cn: (cn[1] != -2, cn[0] != tuple([0] * n), cn[0]))
    return tuple(out)


def combined_invariants(names: list[str]):
    """Invariants of a sum of catalog blocks from those of the blocks: the 2-
    and 3-parts of a sum are the sums of the blocks' parts, and since
    2<2/3> = 2<-2/3> the sum's p is the blocks' total p mod 2."""
    rank = r2 = d2 = p3 = r3 = 0
    n_plus = 0
    for name in names:
        rk, np_, nr2, dd2, pp3, rr3 = _block_data(name)
        rank += rk
        n_plus += np_
        r2 += nr2
        d2 = max(d2, dd2)
        p3 += pp3
        r3 += rr3
    p = p3 % 2
    return rank, n_plus, r2, d2, p, r3 - p


def candidate_multisets(max_rank: int):
    """All 'one hyperbolic block + negative blocks' multisets, by rank."""
    neg_sets = block_multisets(["<-6>", "A1", "A2", "A2(2)", "D4", "E6"], max_rank)
    out = []
    for hyp in HYPERBOLIC_BLOCKS:
        for tail in neg_sets:
            total = BLOCK_RANK[hyp] + sum(BLOCK_RANK[n] for n in tail)
            if total <= max_rank:
                out.append([hyp] + tail)
    out.sort(key=lambda names: (len(names), tuple(CATALOG.index(n) for n in names)))
    return out


def witness_index() -> dict:
    """Combined invariants -> the first candidate multiset that has them."""
    index = {}
    for names in candidate_multisets(8):
        index.setdefault(combined_invariants(names), tuple(names))
    return index


def half_violation(inv: THalfInvariants) -> str | None:
    """First violated T-half restriction, or None when all pass."""
    r, r2, d2, p, q = inv.key()
    if not (1 <= r <= 8):
        return "rank out of range"
    if r2 < 0 or r2 > r:
        return "r2 out of range"
    if (r - r2) % 2 != 0:
        return "r2 parity"
    if r2 == 0 and d2 != 0:
        return "delta2 without 2-part"
    if r2 % 2 == 1 and d2 != 1:
        return "odd r2 forces delta2 = 1"
    if not (0 <= p <= 1 and 0 <= q <= 3):
        return "(p, q) out of range"
    if p + q > r:
        return "rule 7: r < r3"
    if r2 == 0 and (q - p - (r // 2 - 1)) % 4 != 0:
        return "rule 1"
    if r2 == 1 and ((q - p - ((r + 1) // 2 - 1)) % 4 != 0 and (q - p - ((r - 1) // 2 - 1)) % 4 != 0):
        return "rule 2"
    if r2 == 2 and (q - p - (r // 2 + 1)) % 4 == 0 and d2 != 0:
        return "rule 3"
    if d2 == 0:
        if r % 2 or r2 % 2:
            return "rule 4 (parity)"
        if (q - p - (r // 2 - 1)) % 2 != 0:
            return "rule 4"
    if r2 == r and d2 == 0 and (p - q - (r // 2 - 1)) % 4 != 0:
        return "rule 5"
    if p + q == r and (q - p - (r - 2)) % 4 != 0:
        return "rule 6"
    return None


def grid():
    """The 1152 points (r, r2, delta2, p, q) the census walks."""
    return [THalfInvariants(*key) for key in itertools.product(range(1, 9), range(9), (0, 1), (0, 1), range(4))]


def admissible_invariants():
    """All admissible ascending invariant pairs, canonically ordered."""
    out = [(inv, inv.complement()) for inv in grid() if pair_violation(inv) is None]
    out.sort(key=lambda pair: (pair[0].r2, pair[0].r, pair[0].delta2, pair[0].p, pair[0].q))
    return tuple(out)


def golden_row_lookup():
    """Invariants of each golden T1 -> its row ref; equal invariants raise."""
    refs = {}
    for table, rows in (("8A", golden.TABLE_8A), ("8B", golden.TABLE_8B), ("8C", golden.TABLE_8C)):
        for i, (*_row, t1, _t2) in enumerate(rows, start=1):
            ref = f"{table}:{i}"
            key = stability.invariants(parse_lattice_expr(t1))
            if refs.setdefault(key, ref) != ref:
                raise ValueError(f"golden T1 rows {refs[key]} and {ref} share the invariants {key}")
    return refs
