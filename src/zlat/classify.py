"""The census: admissible T-half invariants, witness lattices, the 68
ascending pairs, reversion partners, S-pairs, and the constructive K3
realization.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from . import forms, golden, stability
from .forms import GlueMap
from .gluing import eigenlattices, glue, glue_involution, glue_with_signature
from .lattice import (
    EMPTY,
    MEMO_SIZE,
    Lattice,
    direct_sum,
    extension_by_fraction,
    make_lattice,
    named,
    orthogonal_complement,
    parse_lattice_expr,
    signature,
    sublattice,
)

CATALOG = ["U", "U(2)", "U(3)", "U(6)", "<2>", "<6>", "<-6>", "A1", "A2", "A2(2)", "D4", "E6"]
CATALOG_POS = {name: i for i, name in enumerate(CATALOG)}
BLOCK_RANK = {name: parse_lattice_expr(name).rank for name in CATALOG}
HYPERBOLIC_BLOCKS = tuple(name for name in CATALOG if signature(parse_lattice_expr(name))[0] == 1)
NEGATIVE_BLOCKS = tuple(name for name in CATALOG if name not in HYPERBOLIC_BLOCKS)
# built once, so each keeps one discriminant form (`lattice.keep_form`)
A1, TWO = named("A1"), named("<2>")


class THalfInvariants(NamedTuple):
    """The census key (r, r2, delta2, p, q): equal to, and hashed as, the tuple `stability.invariants` returns."""

    r: int
    r2: int
    delta2: int
    p: int
    q: int

    def complement(self) -> "THalfInvariants":
        """Invariants of the second half of an ascending pair."""
        return THalfInvariants(*_complement_key(*self))


def _complement_key(r: int, r2: int, _d2: int, p: int, q: int) -> tuple[int, int, int, int, int]:
    """The key of the second half of the ascending pair whose first half has the key
    (r, r2, delta2, p, q): the one statement of the complement rule."""
    return 9 - r, r2 + 1, 1, 1 - p, 3 - q


class TPair(NamedTuple):
    index: int
    t_plus: THalfInvariants
    t_minus: THalfInvariants
    witness_plus: Lattice
    witness_minus: Lattice
    table_ref: str
    reversible: bool
    partner_index: int | None


class SPair(NamedTuple):
    nu_i: int
    o: str
    s_plus: Lattice
    s_minus: Lattice


# ---------------------------------------------------------------------------
# admissible invariants

def half_violation(inv: THalfInvariants) -> str | None:
    """First violated T-half restriction, or None when all pass."""
    return _half_rule(*inv)


def _half_rule(r: int, r2: int, d2: int, p: int, q: int) -> str | None:
    """`half_violation` on the integer key (r, r2, delta2, p, q)."""
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
    if d2 not in (0, 1):
        return "delta2 out of range"
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


@lru_cache(maxsize=1)
def admissible_invariants() -> tuple[tuple[THalfInvariants, THalfInvariants], ...]:
    """All admissible ascending invariant pairs, by (r2, r, delta2, p, q): the
    grid is walked in that order, the rules run on the integer keys of each
    point and of its `complement`, and only admitted pairs become objects."""
    out = []
    for r2 in range(0, 9):
        for r in range(r2 or 2, 9, 2):  # r2 <= r, r - r2 even: the range and parity rules reject the rest
            for d2 in (0, 1):
                for p in (0, 1):
                    for q in range(4):
                        if _half_rule(r, r2, d2, p, q) is None:
                            comp = _complement_key(r, r2, d2, p, q)
                            if _half_rule(*comp) is None:
                                out.append((THalfInvariants(r, r2, d2, p, q), THalfInvariants(*comp)))
    return tuple(out)


def admissible_rr2_pairs() -> list[tuple[int, int]]:
    """Distinct (r, r2) of admissible first halves (the Table 3A geography)."""
    return list(dict.fromkeys((inv.r, inv.r2) for inv, _comp in admissible_invariants()))


# ---------------------------------------------------------------------------
# witness lattices

@lru_cache(maxsize=MEMO_SIZE)
def _block_data(name: str):
    l = parse_lattice_expr(name)
    tag = stability.genus_tag(l)
    p3, q3 = tag.pq3
    return l.rank, tag.sig[0], tag.p_rank(2), tag.delta2, p3, p3 + q3


def block_multisets(names: list[str], max_rank: int) -> list[list[str]]:
    """Every multiset of the named catalog blocks of total rank <= max_rank.

    Grown one name at a time (base first, then base + c copies), so the
    empty multiset comes first and the last name's count runs fastest; each
    multiset carries its rank while it grows."""
    sets: list[tuple[list[str], int]] = [([], 0)]
    for name in names:
        grown = []
        for base, used in sets:
            grown.append((base, used))
            for c in range(1, (max_rank - used) // BLOCK_RANK[name] + 1):
                grown.append((base + [name] * c, used + BLOCK_RANK[name] * c))
        sets = grown
    return [base for base, _used in sets]


def render_blocks(names) -> str:
    """Canonical expression: catalog order (`CATALOG_POS`), with repetition counts."""
    ordered = sorted(names, key=CATALOG_POS.__getitem__)
    counts = {name: ordered.count(name) for name in dict.fromkeys(ordered)}
    return "+".join(name if count == 1 else f"{count}{name}" for name, count in counts.items())


def _sum_key(rk: int, n_plus: int, r2: int, d2: int, p3: int, r3: int) -> tuple[int, ...]:
    """(r, n_+, r2, delta2, p, q) of a catalog sum from its blocks' summed `_block_data`: its 2- and
    3-parts are the blocks' (delta2 is 1 when one is), and 2<2/3> = 2<-2/3> makes p their total p mod 2."""
    p = p3 % 2
    return rk, n_plus, r2, min(1, d2), p, r3 - p


@lru_cache(maxsize=1)
def _witness_index() -> MappingProxyType:
    """Invariants (r, n_+, r2, delta2, p, q) -> the first 'one hyperbolic
    block + negative blocks' multiset of rank <= 8 that has them: fewest
    blocks first, then lexicographic on catalog order.

    Each tail of negative blocks adds its last block's `_block_data` to the
    sums of its one-shorter prefix, met before it, and a candidate adds its
    hyperbolic block's and takes its `_sum_key`.  The walk meets the
    candidates in key order, so the first with a key keeps it and nothing is
    sorted: lengths ascending, then the hyperbolic blocks (all before the
    negative ones in CATALOG), then the tails of that length in reversed
    `block_multisets` order, which is lexicographic."""
    sums = {}
    by_length: dict[int, list] = {}
    for tail in map(tuple, block_multisets(NEGATIVE_BLOCKS, 8)):
        sums[tail] = tuple(map(operator.add, sums[tail[:-1]], _block_data(tail[-1]))) if tail else (0,) * 6
        by_length.setdefault(len(tail), []).append((tail, sums[tail]))
    index = {}
    for length in sorted(by_length):
        for name in HYPERBOLIC_BLOCKS:
            rk, n_plus, r2, d2, p3, r3 = _block_data(name)
            for tail, (t_rk, t_n_plus, t_r2, t_d2, t_p3, t_r3) in reversed(by_length[length]):
                if rk + t_rk <= 8:
                    key = _sum_key(rk + t_rk, n_plus + t_n_plus, r2 + t_r2, d2 + t_d2, p3 + t_p3, r3 + t_r3)
                    if key not in index:
                        index[key] = (name, *tail)
    return MappingProxyType(index)


def witness_lattice(inv: THalfInvariants) -> Lattice:
    """A hyperbolic even lattice over the block catalog with the given
    invariants: fewest summands first, then lexicographic on catalog order.

    The winning candidate is looked up in the `_witness_index` memo, and its
    invariants are recomputed from its Gram matrix on every call (the parse
    and `stability.invariants` memos make a repeat call cheap).
    """
    names = _witness_index().get((inv.r, 1, inv.r2, inv.delta2, inv.p, inv.q))
    if names is None:
        raise ValueError(f"no witness lattice for invariants {tuple(inv)}")
    l = parse_lattice_expr(render_blocks(names))
    if stability.invariants(l) != inv:
        raise ValueError(f"witness recomputation mismatch for {tuple(inv)}")
    return l


def catalog_blocks(expr: str) -> list[str]:
    """Block names of a catalog sum text: a witness's `render_blocks` text or a golden T1."""
    out = []
    for term in expr.split("+"):
        name = term.lstrip("0123456789")
        if name not in CATALOG_POS:
            raise ValueError(f"unknown block {name!r}")
        count = int(term[:len(term) - len(name)] or 1)
        if not count:
            raise ValueError(f"zero repetition count in {term!r}")
        out += [name] * count
    return out


# ---------------------------------------------------------------------------
# the census

def _golden_row_lookup():
    """Invariants of each golden T1 -> its row ref: the `_sum_key` of its blocks' `_block_data`, as in
    `_witness_index`; a term outside CATALOG, a key of no admissible first half, or one met twice raise."""
    admissible = {inv for inv, _comp in admissible_invariants()}
    refs = {}
    for table, rows in (("8A", golden.TABLE_8A), ("8B", golden.TABLE_8B), ("8C", golden.TABLE_8C)):
        for i, (*_row, t1, _t2) in enumerate(rows, start=1):
            ref = f"{table}:{i}"
            try:
                rk, n_plus, *rest = _sum_key(*map(sum, zip(*map(_block_data, catalog_blocks(t1)))))
                key = (rk, *rest)
                if n_plus != 1 or key not in admissible:
                    raise ValueError(f"invariants {key} are no admissible first half")
            except ValueError as e:
                raise ValueError(f"golden T1 row {ref} ({t1}): {e}") from None
            if refs.setdefault(key, ref) != ref:
                raise ValueError(f"golden T1 rows {refs[key]} and {ref} share the invariants {key}")
    return refs


@lru_cache(maxsize=1)
def enumerate_ascending_t_pairs() -> tuple[TPair, ...]:
    """The complete list of ascending pairs, with witnesses and table refs."""
    pairs = admissible_invariants()
    refs = _golden_row_lookup()
    by_key = {inv: idx for idx, (inv, _comp) in enumerate(pairs)}
    out = []
    for idx, (inv, comp) in enumerate(pairs):
        if inv not in refs:
            raise ValueError(f"census pair {tuple(inv)} matches no golden T1 row")
        partner_index = by_key.get((8 - inv.r, inv.r2, inv.delta2, 1 - inv.p, 3 - inv.q))
        out.append(
            TPair(
                index=idx,
                t_plus=inv,
                t_minus=comp,
                witness_plus=witness_lattice(inv),
                witness_minus=witness_lattice(comp),
                table_ref=refs[inv],
                reversible=partner_index is not None,
                partner_index=partner_index,
            )
        )
    return tuple(out)


def pair_by_ref(ref: str) -> TPair:
    for pair in enumerate_ascending_t_pairs():
        if pair.table_ref == ref:
            return pair
    raise KeyError(f"no census pair with table ref {ref!r}")


def reversion_partner(pair: TPair) -> TPair | None:
    """The reversion partner, or None for the six irreversible pairs.

    Existence is decided by the invariant lookup (the census is complete);
    for reversible pairs the reversion root is also found constructively in
    the witness of the second half and the partnership relations checked:
    the root's `_root_complement` has the invariants of the partner's first
    half, and A1 + the first half those of its second half.  No
    discriminant form is built.
    """
    if not pair.reversible:
        # the census is complete, so absence of the partner invariants proves
        # no reversion root can exist; a bounded vector search could not
        return None
    census = enumerate_ascending_t_pairs()
    partner = census[pair.partner_index]
    root = find_reversion_root(pair)
    if root is None:
        raise ValueError(f"census says reversible but no root found for pair {pair.table_ref}")
    if stability.invariants(_root_complement(pair.witness_minus, root)) != partner.t_plus:
        raise ValueError(f"pair {pair.table_ref}: the root complement is not the partner's plus half")
    if stability.invariants(direct_sum(A1, pair.witness_plus)) != partner.t_minus:
        raise ValueError(f"pair {pair.table_ref}: A1 + plus half is not the partner's minus half")
    return partner


def _root_complement(l: Lattice, v) -> Lattice:
    """v-perp in l, on the blocks of `Lattice.orthogonal_split` that v meets.

    With l = (+)B and v supported on the blocks S, v-perp is the complement
    of v in the sum of S (its principal submatrix of l.gram) plus every
    block outside S unchanged: a root inside one A1 has the other blocks
    as its complement."""
    met, rest = [], []
    for idx, block in l.orthogonal_split():
        if any(v[i] for i in idx):
            met += idx
        else:
            rest.append(make_lattice(block))
    met.sort()
    g = l.gram
    ambient = make_lattice([[g[i][j] for j in met] for i in met])
    comp = orthogonal_complement(sublattice(ambient, [[v[i] for i in met]]))
    return direct_sum(*([comp.as_lattice()] if comp.rank else []), *rest)


def find_reversion_root(pair: TPair) -> tuple[int, ...] | None:
    """Search the witness of T2 for an even (-2)-element whose half-class is
    characteristic on the 2-torsion of discr exactly when delta2(T1) = 0.

    Components are assembled block by block (the even-pairing condition is
    blockwise); the norm window widens when a presentation spreads its roots
    out, e.g. U(3)+<-6>+D4 needs the split 24 - 6 - 20.  The half-class
    test reads the witness's Gram matrix mod 4 on one F_2-basis of the
    kernel of its Gram matrix mod 2 (`_kernel_basis_mod2`), computed once
    per call; no discriminant form is built.
    """
    t2 = pair.witness_minus
    want_char = pair.t_plus.delta2 == 0
    blocks = catalog_blocks(t2.expr)
    basis = _kernel_basis_mod2(t2.gram)
    for cap, box in ((8, 2), (24, 3), (48, 4)):
        per_block = [_root_components(name, cap, box) for name in blocks]
        order = sorted(range(len(per_block)), key=lambda i: len(per_block[i]))
        budget = 200000
        for combo in _norm_assemblies(per_block, order, -2):
            budget -= 1
            if budget < 0:
                raise RuntimeError("root search budget exceeded")
            v = []
            for i in range(len(blocks)):
                v.extend(combo[i][0])
            g = 0
            for c in v:
                g = math.gcd(g, c)
            if g != 1:
                continue  # not primitive (also rejects the zero vector)
            if _half_class_is_characteristic(t2, v, basis) == want_char:
                return tuple(v)
    return None


def _norm_assemblies(per_block, order, target):
    """Yield tuples of (coords, norm) per block with total norm == target.

    The blocks are chosen in `order`; the least and greatest norms the
    blocks after the k-th can add are summed once per call."""
    n = len(per_block)
    cands = [per_block[i] for i in order]
    mins = [min(nrm for _c, nrm in c) for c in cands]
    maxs = [max(nrm for _c, nrm in c) for c in cands]
    rest_min = [sum(mins[k:]) for k in range(n + 1)]
    rest_max = [sum(maxs[k:]) for k in range(n + 1)]

    def rec(k, acc, chosen):
        if k == n:
            if acc == target:
                yield tuple(chosen)
            return
        lo, hi = target - rest_max[k + 1], target - rest_min[k + 1]
        for cand in cands[k]:
            if lo <= acc + cand[1] <= hi:
                chosen.append(cand)
                yield from rec(k + 1, acc + cand[1], chosen)
                chosen.pop()

    for combo_ordered in rec(0, 0, []):
        out = [None] * n
        for k in range(n):
            out[order[k]] = combo_ordered[k]
        yield out


@lru_cache(maxsize=MEMO_SIZE)
def _root_components(name: str, cap: int = 8, box: int = 2):
    """Block vectors u with u.(block) in 2Z and |u^2| <= cap, |coords| <= box.

    u.(block) in 2Z depends on u mod 2 only: the walk visits the parity
    patterns in the kernel of the Gram matrix mod 2, each coordinate
    stepping by 2 through the box.
    """
    l = parse_lattice_expr(name)
    g = l.gram
    n = len(g)
    out = []
    for parity in _kernel_mod2(l):
        for coords in itertools.product(*(range(-box + (box + s) % 2, box + 1, 2) for s in parity)):
            norm = sum(c * sum(map(operator.mul, row, coords)) for c, row in zip(coords, g))
            if -cap <= norm <= cap:
                out.append((coords, norm))
    out.sort(key=lambda cn: (cn[1] != -2, cn[0] != tuple([0] * n), cn[0]))
    return tuple(out)


def _kernel_basis_mod2(gram) -> list[tuple[int, ...]]:
    """An F_2-basis of {u in F_2^n : u*G = 0 mod 2} for the symmetric G, one
    vector per free column of the reduced row echelon form of G mod 2.

    u/2 lies in L* exactly when u*G is even, and in L exactly when u is, so
    u -> [u/2] maps this kernel onto the 2-torsion of discr(L)."""
    n = len(gram)
    rows = [[x % 2 for x in row] for row in gram]
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(n):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        u = [0] * n
        u[free] = 1
        for row, c in zip(rows, pivots):
            u[c] = row[free]
        basis.append(tuple(u))
    return basis


def _kernel_mod2(l: Lattice) -> list[tuple[int, ...]]:
    """Every u in F_2^n with u*G = 0 mod 2: the F_2-span of `_kernel_basis_mod2`."""
    kernel = [(0,) * l.rank]
    for u in _kernel_basis_mod2(l.gram):
        kernel += [tuple(a ^ b for a, b in zip(k, u)) for k in kernel]
    return kernel


def _half_class_is_characteristic(l: Lattice, v, basis) -> bool:
    """Whether [v/2] pairs as x -> q(x) mod Z on the 2-torsion of discr(l),
    for v with v*G even and `basis` from `_kernel_basis_mod2`.

    For x = [u/2], b(v/2, x) - q(x) = (v.G.u - u.G.u) / 4 mod 1 (Nikulin
    1979, §1), which depends on u mod 2 only and is additive in u, since
    q(x + y) = q(x) + q(y) mod 1 on 2-torsion.  So the test is
    (v - u).G.u = 0 mod 4 for each u of the basis.
    """
    g = l.gram
    for u in basis:
        gu = [sum(map(operator.mul, row, u)) for row in g]
        if sum(map(operator.mul, map(operator.sub, v, u), gu)) % 4:
            return False
    return True


# ---------------------------------------------------------------------------
# S-pairs

@lru_cache(maxsize=MEMO_SIZE)
def _master_extension(expr: str) -> Lattice:
    """[expr]_{sigma/3} with sigma the master element of the block sum (a frozen
    Lattice per expression: S0 = [6A2]_{sigma/3} serves all 68 realizations)."""
    l = parse_lattice_expr(expr)
    sigma = []
    for name in catalog_blocks(l.expr):
        if name in ("A2", "A2(2)"):
            sigma.extend([1, -1])
        elif name == "<-6>":
            sigma.append(1)
        else:
            raise ValueError(f"no master component for block {name}")
    return extension_by_fraction(l, sigma, 3)


def _build_table2_lattice(spec) -> Lattice:
    kind, expr = spec
    if expr == "0":
        return EMPTY
    if kind == "plain":
        return parse_lattice_expr(expr)
    return _master_extension(expr)


def s_pair(nu_i: int, o: str) -> SPair:
    """The S-pair for the given count of imaginary cusp pairs and sign o."""
    if not (0 <= nu_i <= 3) or o not in ("-", "+"):
        raise ValueError("nu_i in 0..3 and o in {+,-} required")
    for row_o, row_nu, plus_spec, minus_spec in golden.TABLE_2:
        if row_o == o and row_nu == nu_i:
            s_plus = _build_table2_lattice(plus_spec)
            s_minus = _build_table2_lattice(minus_spec)
            _check_s_pair(nu_i, o, s_plus, s_minus)
            return SPair(nu_i, o, s_plus, s_minus)
    raise ValueError("no Table 2 row matched")


def _s_half_pq(l: Lattice) -> tuple[int, int]:
    """(p, q) of a 3-elementary S-half in <-2/3>-first convention."""
    a, b = stability.genus_tag(l).pq3
    p = b % 2
    return p, a + b - p


def _check_s_pair(nu_i, o, s_plus, s_minus):
    p_plus, q_plus = _s_half_pq(s_plus)
    p_minus, q_minus = _s_half_pq(s_minus)
    want_p = 1 if o == "+" else 0
    if p_plus != want_p:
        raise ValueError("S+ sign mismatch")
    if (p_minus, q_minus) != (1 - p_plus, 3 - q_plus):
        raise ValueError("S-pair 3-parts not complementary")
    if nu_i != (3 - q_plus if o == "+" else q_plus):
        raise ValueError("nu_i mismatch")


# ---------------------------------------------------------------------------
# constructive K3 realization

T_EXPR = "U+U(3)+2A2+A1"
T_PRIME_EXPR = "2U+U(3)+2A2"
ROOT_FORM = forms.standard_form("<1/2>")  # the discriminant form of a root's half


def t_glue_map(pair: TPair) -> GlueMap:
    """The root anti-isomorphism along which stage (a) glues the two halves:
    an anti-isomorphism of <1/2> + discr_2 T+ onto discr_2 T- restricted to
    discr_2 T+, whose image is the complement of the root (the image of <1/2>)."""
    f2_1 = forms.p_part(forms.discriminant_form(pair.witness_plus), 2)
    f2_2 = forms.p_part(forms.discriminant_form(pair.witness_minus), 2)
    images = forms.anti_iso_images(forms.direct_sum_forms(ROOT_FORM, f2_1), f2_2, 2)
    if images is None:
        raise ValueError(f"stage a: no root element for pair {pair.table_ref}")
    return GlueMap(f2_1, f2_2, f2_1.units, images[1:])


def realize_pair(pair: TPair) -> dict:
    """Run the three-stage construction and verify each stage.

    (a) glue the halves and check the genus of T; (b) adjoin <2> and check
    the genus of T'; (c) glue with S0 and check the result is the even
    unimodular lattice of signature (3, 19), that of S0 + T' by the congruence
    `glue_with_signature` checks (no rank-22 Gram matrix is eliminated).
    """
    report = {"pair": pair.table_ref}
    # one glue serves stage (a) and the involution: inv.lattice is the glued lattice
    inv = glue_involution(pair.witness_plus, pair.witness_minus, t_glue_map(pair))
    glued = inv.lattice
    verdict = stability.isomorphic_in_genus(glued, parse_lattice_expr(T_EXPR))
    if verdict != "yes":
        raise ValueError(f"stage a: glued lattice not in the genus of T ({pair.table_ref}: {verdict})")
    report["stage_a"] = "ok"

    lp, lm = eigenlattices(inv)
    if stability.isomorphic_in_genus(lp.as_lattice(), pair.witness_plus) != "yes":
        raise ValueError(f"involution: L+ not in the genus of the plus half ({pair.table_ref})")
    if stability.isomorphic_in_genus(lm.as_lattice(), pair.witness_minus) != "yes":
        raise ValueError(f"involution: L- not in the genus of the minus half ({pair.table_ref})")
    if stability.genus_tag(glued).symbol(2) != ((2, 1, 1, 1, 7),):  # discr_2 T = <-1/2>
        raise ValueError(f"involution: discr_2 of the glued lattice is not <-1/2> ({pair.table_ref})")
    if abs(pair.t_plus.r2 - pair.t_minus.r2) != 1:
        raise ValueError(f"involution: r2 of the halves differ by other than 1 ({pair.table_ref})")
    report["involution"] = "ok"

    f2_t = forms.p_part(forms.discriminant_form(glued), 2)
    f_two = forms.discriminant_form(TWO)
    psi = GlueMap(f2_t, f_two, ((1,),), ((1,),))  # q = 3/2 on discr_2 T, as its symbol says
    t_prime = glue(glued, TWO, psi)
    verdict = stability.isomorphic_in_genus(t_prime, parse_lattice_expr(T_PRIME_EXPR))
    if verdict != "yes":
        raise ValueError(f"stage b: extension not in the genus of T' ({pair.table_ref}: {verdict})")
    report["stage_b"] = "ok"

    s0 = _master_extension("6A2")
    f_s0 = forms.discriminant_form(s0)
    f_tp = forms.discriminant_form(t_prime)
    phi_full = forms.build_anti_iso(f_s0, f_tp, 3)
    if phi_full is None:
        raise ValueError(f"stage c: no full anti-isomorphism ({pair.table_ref})")
    try:
        k3, sig = glue_with_signature(s0, t_prime, phi_full)
    except ValueError as e:
        raise ValueError(f"stage c: {e} ({pair.table_ref})") from e
    if abs(k3.det()) != 1:
        raise ValueError(f"stage c: glued lattice not unimodular ({pair.table_ref})")
    if not k3.is_even:
        raise ValueError(f"stage c: glued lattice not even ({pair.table_ref})")
    if sig != (3, 19):
        raise ValueError(f"stage c: wrong signature ({pair.table_ref})")
    report["stage_c"] = "ok"
    return report
