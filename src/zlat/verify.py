"""Named verification checks, grouped into suites for the CLI runner.

Each check returns (ok, detail).  Diagnostics are notes that cannot fail;
they surface documented tensions in the source material.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from collections import Counter
from fractions import Fraction

from . import exact, forms, golden, stability, tables
from .classify import (
    CATALOG,
    admissible_rr2_pairs,
    block_multisets,
    enumerate_ascending_t_pairs,
    find_reversion_root,
    pair_by_ref,
    realize_pair,
    reversion_partner,
    s_pair,
    t_glue_map,
)
from .gluing import GlueMap, eigenlattices, extend, glue, glue_involution
from .lattice import (
    extension_by_fraction,
    make_lattice,
    named,
    orthogonal_complement,
    parse_lattice_expr,
    primitive_closure,
    signature,
    sublattice,
)
from .sextic import cusp_distributions, id_from_t_pair, reversion_code, topology_from_t_half

SUITES = ("forms", "gluing", "stability", "census", "ids")


# ---------------------------------------------------------------------------
# forms suite

def check_van_der_blij_catalog():
    count = 0
    for blocks in block_multisets(CATALOG, 10)[1:]:  # [1:] drops the empty multiset
        l = parse_lattice_expr("+".join(blocks))
        np_, nm = signature(l)
        if forms.brown(forms.discriminant_form(l)) != (np_ - nm) % 8:
            return False, f"failed on {'+'.join(blocks)}"
        count += 1
    return True, f"{count} catalog sums of rank <= 10, zero failures"


def _random_even_lattice(rng, max_rank=6, bound=10, det_cap=4000):
    while True:
        n = rng.randint(1, max_rank)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-bound // 2, bound // 2)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-bound, bound)
        d = exact.inertia_det(g)[3]  # g is symmetric
        if d != 0 and abs(d) <= det_cap:
            return make_lattice(g)


def _gauss_brown(f: forms.FiniteQuadraticForm) -> int:
    """Brown as the phase of the Gauss sum of exp(i*pi*q) over the group, in
    multiples of pi/4, summed in floats over the histogram of squares that
    the fingerprint counts; its magnitude must be sqrt|G| and its phase a
    multiple of pi/4, to 1e-6."""
    squares = Counter(q for _o, q in forms.fingerprint(f))
    s = sum(c * cmath.exp(1j * math.pi * q) for q, c in squares.items())
    phase = cmath.phase(s) / (math.pi / 4)
    root = math.sqrt(f.size)
    if abs(abs(s) - root) > 1e-6 * root or abs(phase - round(phase)) > 1e-6:
        raise ValueError("degenerate Gauss sum")
    return round(phase) % 8


def check_van_der_blij_random():
    rng = random.Random(20260808)
    numeric_hits = 0
    for i in range(110):
        l = _random_even_lattice(rng)
        np_, nm = signature(l)
        f = forms.discriminant_form(l)
        if forms.brown(f) != (np_ - nm) % 8:
            return False, f"failed on random lattice #{i}: {l.gram}"
        if f.size > 1:
            if _gauss_brown(f) != forms.brown(f):
                return False, f"numeric Gauss path disagreed on #{i}"
            numeric_hits += 1
    return True, f"110 random even lattices, numeric Gauss path exercised {numeric_hits} times within 1e-6"


def check_brown_additivity():
    rng = random.Random(7)
    specs = ["<1/2>", "<-1/2>", "u2", "v2", "<2/3>", "<-2/3>", "2<-2/3>", "u2+<2/3>"]
    for _ in range(40):
        a = forms.standard_form(rng.choice(specs))
        b = forms.standard_form(rng.choice(specs))
        # `brown` adds up the summands, so the Gauss sum of the whole sum is the other side
        total = forms.direct_sum_forms(a, b)
        if not forms.brown(total) == _gauss_brown(total) == (forms.brown(a) + forms.brown(b)) % 8:
            return False, "additivity failed"
    return True, "Br additive over 40 random direct sums"


def check_r2_congruence():
    for blocks in block_multisets(CATALOG, 8)[1:]:
        l = parse_lattice_expr("+".join(blocks))
        if forms.p_rank(forms.discriminant_form(l), 2) % 2 != l.rank % 2:
            return False, f"failed on {'+'.join(blocks)}"
    return True, "r2 = r mod 2 on all catalog sums of rank <= 8"


def check_p_part_orthogonality():
    rng = random.Random(3)
    for _ in range(30):
        l = _random_even_lattice(rng, max_rank=4, det_cap=600)
        f = forms.discriminant_form(l)
        total = 1
        for p in forms.prime_factors_of_order(f):
            total *= forms.p_part(f, p).size
        if total != f.size:
            return False, "p-part sizes do not multiply up"
    return True, "p-parts recombine to the whole group on 30 random lattices"


def q_value_census(f: forms.FiniteQuadraticForm) -> dict[Fraction, int]:
    """How many nonzero elements take each square, read off the fingerprint."""
    return dict(Counter(v for order, v in forms.fingerprint(f) if order > 1))


def check_element_census():
    s0 = extension_by_fraction(parse_lattice_expr("6A2"), [1, -1] * 6, 3)
    quot = forms.discriminant_form(s0)
    census = q_value_census(quot)
    want = {Fraction(2, 3): 30, Fraction(4, 3): 30, Fraction(0): 20}
    if census != want:
        return False, f"census {census}"
    return True, "element census of G^delta/(delta) is 30/30/20"


def check_aut_order_1440():
    """|Aut| by the orders of O_n(3), against orbit-stabilizer: O(f) is
    transitive on the x with q(x) = q(e_1) (Witt), counted by the census,
    and the stabilizer of e_1 is O(e_1-perp) = O(3<2/3>)."""
    f = forms.standard_form("<-2/3>+3<2/3>")
    got = forms.aut_order(f)
    orbit = q_value_census(f)[f.q(f.units[0])]
    sub = forms.aut_order(forms.standard_form("3<2/3>"))
    if got != orbit * sub or (got, sub) != (1440, 48):
        return False, f"aut orders {got}, {sub}, orbit {orbit}"
    return True, "|Aut(<-2/3>+3<2/3>)| = 1440 = 30 * 48"


def aut_g_delta_orders() -> tuple[int, int]:
    """(|Aut(G, delta)|, |Aut_comp(G, delta)|) for G = 6<-2/3>, delta the
    diagonal: the stabilizer of {+-delta} in O(G), of order 2|O(G)| / #{x !=
    0 : q(x) = q(delta)} since O(G) is transitive on that set (Witt), and its
    signed coordinate permutations, 2 * 6!."""
    g = forms.standard_form("6<-2/3>")
    orbit = q_value_census(g)[g.q((1,) * 6)]
    return 2 * forms.aut_order(g) // orbit, 2 * math.factorial(6)


def diagnostic_remark_aut_comp():
    full, comp = aut_g_delta_orders()
    return (
        f"|Aut(G,delta)| = {full} vs |Aut_comp(G,delta)| = {comp} for G = 6<-2/3>: "
        "the source's unproven remark asserting equality is refuted; only the "
        "coordinatewise statement (used by the classification) holds"
    )


# ---------------------------------------------------------------------------
# gluing suite

def _extension_cases():
    cases = []
    for expr in ("6A2", "2A2+2A2(2)", "3A2(2)", "4A2+A2(2)", "6<-6>", "4<-6>+A2(2)",
                 "2<-6>+2A2(2)", "U(3)+3A2", "2U(3)", "U(6)+A2+A2(2)"):
        l = parse_lattice_expr(expr)
        f = forms.discriminant_form(l)
        found = 0
        for x in sorted(f.elements()):
            if any(x) and f.q(x) == 0 and forms.is_isotropic_subgroup(f, [x]):
                cases.append((expr, l, f, (x,)))
                found += 1
                if found == 3:
                    break
    return cases


def check_extension_identities():
    cases = _extension_cases()
    if len(cases) < 20:
        return False, f"only {len(cases)} extension cases found"
    for expr, l, f, gens in cases:
        ext = extend(l, list(gens))
        quot = forms.discriminant_form(ext)
        if forms.fingerprint(quot) != forms.coset_fingerprint(f, list(gens)):
            return False, f"discr(extension) != Hperp/H for {expr}"
        hq = forms.isotropic_quotient(f, list(gens))
        primes = set(forms.prime_factors_of_order(quot)) | set(forms.prime_factors_of_order(hq))
        if any(forms.jordan_symbol(quot, p) != forms.jordan_symbol(hq, p) for p in primes):
            return False, f"Jordan symbols of discr(extension) and Hperp/H differ for {expr}"
        if forms.brown(quot) != forms.brown(f):
            return False, f"Brown not preserved for {expr}"
    return True, f"discr = Hperp/H and Br preserved on {len(cases)} catalog extensions (incl. S0)"


def check_glue_two_minus_two():
    l1, l2 = named("<2>"), named("<-2>")
    f1, f2 = forms.discriminant_form(l1), forms.discriminant_form(l2)
    glued = glue(l1, l2, GlueMap(f1, f2, ((1,),), ((1,),)))
    ok = glued.det() == -1 and glued.is_even and signature(glued) == (1, 1)
    return ok, f"glue(<2>, <-2>) has det {glued.det()}, signature {signature(glued)}"


def check_eigenlattice_roundtrip():
    for ref in ("8B:1", "8B:4", "8C:9", "8A:3"):
        pair = pair_by_ref(ref)
        inv = glue_involution(pair.witness_plus, pair.witness_minus, t_glue_map(pair))
        lp, lm = eigenlattices(inv)
        if stability.isomorphic_in_genus(lp.as_lattice(), pair.witness_plus) != "yes":
            return False, f"plus eigenlattice mismatch for {ref}"
        if stability.isomorphic_in_genus(lm.as_lattice(), pair.witness_minus) != "yes":
            return False, f"minus eigenlattice mismatch for {ref}"
    return True, "eigenlattices recover both halves on 4 sample pairs"


def check_complement_involutive():
    rng = random.Random(5)
    for _ in range(25):
        amb = parse_lattice_expr(rng.choice(["U+A2+<2>", "U(3)+2A1", "2U", "<2>+3<-6>"]))
        rows = []
        for _k in range(rng.randint(1, amb.rank - 1)):
            rows.append([rng.randint(-2, 2) for _ in range(amb.rank)])
        if not rows or exact.rank(rows) != len(rows):
            continue
        sub = sublattice(amb, rows)
        prim = primitive_closure(sub)
        double = orthogonal_complement(orthogonal_complement(prim))
        if double.rows() != prim.rows():
            return False, f"complement not involutive on {amb.expr}"
    return True, "complement(complement(S)) = primitive closure on random sublattices"


def check_glue_determinant():
    for l1e, l2e in (("<2>+A1", "<-2>+<2>"), ("<2>+A2", "<-2>+A2")):
        l1, l2 = parse_lattice_expr(l1e), parse_lattice_expr(l2e)
        f1, f2 = forms.discriminant_form(l1), forms.discriminant_form(l2)
        g1 = next(x for x in f1.elements() if f1.q(x) == Fraction(1, 2))
        g2 = next(x for x in f2.elements() if f2.q(x) == Fraction(3, 2))
        glued = glue(l1, l2, GlueMap(f1, f2, (g1,), (g2,)))
        if abs(glued.det()) * 4 != abs(l1.det()) * abs(l2.det()):
            return False, "determinant identity failed"
    return True, "|det glue| = |det L1||det L2| / |K|^2 on sample gluings"


# ---------------------------------------------------------------------------
# stability suite

def check_table5_all_stable():
    seen = set()
    for _tid, (_p, rows) in golden.TABLE_5.items():
        for _d2, _rr2, cells in rows:
            for cell in cells:
                if cell in ("-", "*") or cell in seen:
                    continue
                seen.add(cell)
                if stability.stability_certificate(parse_lattice_expr(cell)) is None:
                    return False, f"no stability certificate for {cell}"
    return True, f"all {len(seen)} listed T-half lattices certified stable"


def check_remark_isomorphisms():
    pairs = [("<6>+A2", "U(3)+A1"), ("<2>+A2", "U+<-6>"),
             ("<6>+A2(2)", "<2>+2<-6>"), ("<2>+A2(2)", "<6>+2A1")]
    for a, b in pairs:
        if stability.isomorphic_in_genus(parse_lattice_expr(a), parse_lattice_expr(b)) != "yes":
            return False, f"{a} = {b} not certified"
    return True, "all four presentation isomorphisms certified"


def check_rewriting_rules():
    for tail in ("A1", "<-6>"):
        if stability.isomorphic_in_genus(parse_lattice_expr(f"U(2)+{tail}"),
                                         parse_lattice_expr(f"<2>+A1+{tail}")) != "yes":
            return False, f"U(2)+{tail} rewrite failed"
        if stability.isomorphic_in_genus(parse_lattice_expr(f"U(6)+{tail}"),
                                         parse_lattice_expr(f"<6>+<-6>+{tail}")) != "yes":
            return False, f"U(6)+{tail} rewrite failed"
    return True, "U(2)+L and U(6)+L rewriting rules certified for odd discr2 tails"


# pairs in different genera with equal signatures, groups and Brown
# invariants, as expressions or Gram matrices: the Z/5^8 parts carry the
# units -2 and -6, which lie in different square classes mod 5, and the
# Z/2^15 parts the units 7 and 3, which differ by a non-square mod 8
_DISTINCT_GENERA = [("U+<-781250>+<-6>", "U+<-2343750>+<-2>"),
                    ("U+<-32768>", [[-386, 1, 0], [1, -2, 1], [0, 1, 42]])]


def _lattice(spec):
    return parse_lattice_expr(spec) if isinstance(spec, str) else make_lattice(spec)


def check_no_false_yes():
    exprs = ["U", "U(2)", "U(3)", "<2>", "<6>", "A2", "U+A2", "<2>+A2", "U(4)+<4>"]
    for a in exprs:
        for b in exprs:
            la, lb = parse_lattice_expr(a), parse_lattice_expr(b)
            verdict = stability.isomorphic_in_genus(la, lb)
            if verdict == "yes" and stability.genus_tag(la) != stability.genus_tag(lb):
                return False, f"yes with differing genus tags: {a} vs {b}"
    for a, b in _DISTINCT_GENERA:
        verdict = stability.isomorphic_in_genus(_lattice(a), _lattice(b))
        if verdict != "no":
            return False, f"{verdict} for {a} vs {b}, which lie in different genera"
    return True, ("never yes with differing genus tags on the sample grid, no on "
                  + "; ".join(f"{a} vs {b}" for a, b in _DISTINCT_GENERA))


# ---------------------------------------------------------------------------
# census suite

def check_census_count():
    t0 = time.time()
    census = enumerate_ascending_t_pairs()
    dt = time.time() - t0
    if len(census) != 68:
        return False, f"census has {len(census)} pairs"
    irr = [p for p in census if not p.reversible]
    if sorted(p.table_ref for p in irr) != [f"8A:{i}" for i in range(1, 7)]:
        return False, "irreversible pairs do not match Table 8A"
    for i in range(1, 32):
        left, right = pair_by_ref(f"8B:{i}"), pair_by_ref(f"8C:{i}")
        partner = reversion_partner(left)
        if partner is None or partner.index != right.index:
            return False, f"row {i}: 8B/8C not aligned"
    return True, f"68 pairs, 6 irreversible, 31 partner rows aligned ({dt:.2f}s)"


def check_table4_exact():
    diffs = tables.diff_golden("4")
    if diffs:
        return False, f"{len(diffs)} cells differ"
    return True, "admissible invariants reproduce Table 4 cell for cell"


def check_tables5_cells():
    from .classify import THalfInvariants, half_violation

    undocumented = []
    for tid, (p_value, layout) in golden.TABLE_5.items():
        computed = tables.computed_table(tid)["json"]
        for row_idx, ((d2, (r, r2), _cells), row) in enumerate(zip(layout, computed), 1):
            for q, got in enumerate(row["cells"]):
                inv = THalfInvariants(r, r2, d2, p_value, q)
                if got == "-" and half_violation(inv) is None:
                    return False, f"{tid} row {row_idx} q={q}: '-' without a violated restriction"
                if got == "*" and half_violation(inv) is not None:
                    return False, f"{tid} row {row_idx} q={q}: '*' but the half itself is forbidden"
                if got not in ("-", "*"):
                    w = parse_lattice_expr(got)
                    if stability.invariants(w) != inv:
                        return False, f"{tid} row {row_idx} q={q}: witness invariants wrong"
        for d in tables.diff_golden(tid):
            if not d["documented"]:
                undocumented.append(d)
    if undocumented:
        return False, f"undocumented table-5 discrepancies: {undocumented}"
    return True, "marker semantics exact; fixtures match up to documented misprints"


def check_brown_pairing():
    for pair in enumerate_ascending_t_pairs():
        total = 0
        for l in (pair.witness_plus, pair.witness_minus):
            total += forms.brown(forms.p_part(forms.discriminant_form(l), 2))
        if total % 8 != 7:
            return False, f"Br2 pairing failed for {pair.table_ref}"
    return True, "Br2(T1) + Br2(T2) = 7 mod 8 on all 68 pairs"


def check_pair_invariant_properties():
    for pair in enumerate_ascending_t_pairs():
        tp, tm = pair.t_plus, pair.t_minus
        checks = [
            tp.r + tm.r == 9,
            abs(tp.r2 - tm.r2) == 1,
            tm.delta2 == 1,
            (tp.p + tm.p, tp.q + tm.q) == (1, 3),
            tp.r2 <= min(tp.r, 8 - tp.r),
            tm.r2 <= min(tm.r, 10 - tm.r),
            stability.invariants(pair.witness_plus) == tp,
            stability.invariants(pair.witness_minus) == tm,
        ]
        if not all(checks):
            return False, f"pair property failed for {pair.table_ref}"
    return True, "all five pair properties + r2 estimates + witness recomputation hold"


def check_partnership_involution():
    count = 0
    for pair in enumerate_ascending_t_pairs():
        partner = reversion_partner(pair)
        if partner is None:
            continue
        back = reversion_partner(partner)
        if back is None or back.index != pair.index:
            return False, f"partnership not involutive at {pair.table_ref}"
        count += 1
    return True, f"partnership involutive on all {count} reversible pairs"


def check_reversion_roots_constructive():
    for pair in enumerate_ascending_t_pairs():
        if not pair.reversible:
            continue
        root = find_reversion_root(pair)
        if root is None:
            return False, f"no constructive root for {pair.table_ref}"
        if pair.witness_minus.norm(list(root)) != -2:
            return False, f"root norm wrong for {pair.table_ref}"
    return True, "even (-2) reversion roots found in all 62 reversible witnesses"


def check_realize_all():
    t0 = time.time()
    for pair in enumerate_ascending_t_pairs():
        realize_pair(pair)
    dt = time.time() - t0
    ok = dt < 60
    return ok, f"all 68 pairs realized in the K3 lattice in {dt:.1f}s (budget 60s)"


def check_s_pairs():
    for o in "-+":
        for nu in range(4):
            s_pair(nu, o)
    sp = s_pair(3, "-")
    if stability.genus_tag(sp.s_minus) != stability.genus_tag(parse_lattice_expr("E6(2)")):
        return False, "[3A2(2)]_{sigma/3} is not E6(2)"
    return True, "all 8 S-pairs built; [3A2(2)]_{sigma/3} = E6(2) by genus"


def check_tables_7_golden():
    undocumented = [d for tid in ("7A", "7B", "8A", "8B", "8C")
                    for d in tables.diff_golden(tid) if not d["documented"]]
    if undocumented:
        return False, f"undocumented: {undocumented}"
    return True, "Tables 7A/7B/8A/8B/8C match up to the documented misprints"


def diagnostic_counts():
    return (
        f"distinct (r, r2) pairs: {len(admissible_rr2_pairs())} (the lemma says "
        "'fifteen', its proof 'fourteen'); Table 7B as printed omits one row, "
        "the census has 68 = 6 + 31 + 31 classes"
    )


# ---------------------------------------------------------------------------
# ids suite

def check_ids_match_golden():
    for tid in ("1A", "1B", "1C"):
        diffs = tables.diff_golden(tid)
        if diffs:
            return False, f"table {tid}: {diffs[:2]}"
    return True, "all 68 IDs reproduce Tables 1A-C (code, type, o, nu_r)"


def check_distributions_singleton():
    for pair in enumerate_ascending_t_pairs():
        _ell, shape, _ctype, o, nur = topology_from_t_half(pair.t_plus)
        cands = cusp_distributions(shape, nur, o)
        if len(cands) != 1:
            return False, f"{len(cands)} cusp distributions at {pair.table_ref}"
    return True, "one cusp distribution on every census entry"


def check_reversion_involution_ids():
    count = 0
    for pair in enumerate_ascending_t_pairs():
        partner = reversion_partner(pair)
        if partner is None:
            continue
        sid, psid = id_from_t_pair(pair), id_from_t_pair(partner)
        if sid.curve_type != psid.curve_type or sid.o == psid.o:
            return False, f"type/o mismatch across partners at {pair.table_ref}"
        if sid.code.kind == "null":
            if psid.code.kind != "null":
                return False, "null-code partner mismatch"
            continue
        if reversion_code(sid.code) != psid.code or reversion_code(psid.code) != sid.code:
            return False, f"reversion not involutive at {pair.table_ref}"
        count += 1
    return True, f"code reversion involutive on {count} non-empty reversible IDs"


def check_oval_bounds():
    for pair in enumerate_ascending_t_pairs():
        sid = id_from_t_pair(pair)
        ell = sid.code.oval_count()
        if ell > 5:
            return False, f"too many ovals at {pair.table_ref}"
        if ell == 5 and sid.curve_type != "I":
            return False, f"5 ovals but type II at {pair.table_ref}"
        if ell in (0, 2, 4) and sid.curve_type != "II":
            return False, f"{ell} ovals but type I at {pair.table_ref}"
        if sid.code.kind == "general":
            alpha, beta = sid.code.alpha_beta()
            if alpha + beta > 4:
                return False, f"simple code out of range at {pair.table_ref}"
    return True, "oval counts, types, and simple-code bounds hold for all 68 IDs"


def check_lefschetz():
    for pair in enumerate_ascending_t_pairs():
        sid = id_from_t_pair(pair)
        lefschetz = 1 + (pair.t_plus.r - (pair.t_minus.r + 1)) // 2
        if sid.code.kind == "general":
            alpha, beta = sid.code.alpha_beta()
            want = beta - alpha
        else:
            want = 0
        if lefschetz != want:
            return False, f"Lefschetz reconstruction failed at {pair.table_ref}"
    return True, "chi(A-) reconstruction from eigenlattice ranks holds for all 68"


def diagnostic_empty_code_o():
    return (
        "empty-code o follows the golden row alignment (p = 1 -> o = +, last rows "
        "of Tables 8C/1C), as does the non-empty rule; the alternation sentence in "
        "the empty case of the ID translation lemma would give the opposite signs"
    )


CHECKS = {
    "forms": [
        ("van-der-blij-catalog", check_van_der_blij_catalog),
        ("van-der-blij-random", check_van_der_blij_random),
        ("brown-additivity", check_brown_additivity),
        ("r2-congruence", check_r2_congruence),
        ("p-part-orthogonality", check_p_part_orthogonality),
        ("element-census-30-30-20", check_element_census),
        ("aut-order-1440", check_aut_order_1440),
    ],
    "gluing": [
        ("extension-identities", check_extension_identities),
        ("glue-2-minus2-is-u", check_glue_two_minus_two),
        ("eigenlattice-roundtrip", check_eigenlattice_roundtrip),
        ("complement-involutive", check_complement_involutive),
        ("glue-determinant", check_glue_determinant),
    ],
    "stability": [
        ("table5-all-stable", check_table5_all_stable),
        ("remark-isomorphisms", check_remark_isomorphisms),
        ("rewriting-rules", check_rewriting_rules),
        ("no-false-yes", check_no_false_yes),
    ],
    "census": [
        ("census-68", check_census_count),
        ("table4-exact", check_table4_exact),
        ("tables5-cells", check_tables5_cells),
        ("brown-pairing", check_brown_pairing),
        ("pair-properties", check_pair_invariant_properties),
        ("partnership-involution", check_partnership_involution),
        ("reversion-roots", check_reversion_roots_constructive),
        ("s-pairs", check_s_pairs),
        ("golden-7-8-tables", check_tables_7_golden),
        ("realize-all-68", check_realize_all),
    ],
    "ids": [
        ("ids-golden-1abc", check_ids_match_golden),
        ("distributions-resolve", check_distributions_singleton),
        ("reversion-involution", check_reversion_involution_ids),
        ("oval-bounds", check_oval_bounds),
        ("lefschetz-reconstruction", check_lefschetz),
    ],
}

DIAGNOSTICS = {
    "forms": [("remark-aut-comp", diagnostic_remark_aut_comp)],
    "census": [("counting-notes", diagnostic_counts)],
    "ids": [("empty-code-o-alternation", diagnostic_empty_code_o)],
}


def run_verify(suite: str = "all", out=print) -> int:
    """Run a suite (or all); returns the number of failed checks."""
    names = list(SUITES) if suite == "all" else [suite]
    if any(n not in SUITES for n in names):
        raise ValueError(f"unknown suite {suite!r}")
    failures = 0
    passed = 0
    for name in names:
        for check_name, fn in CHECKS[name]:
            t0 = time.time()
            try:
                ok, detail = fn()
            except Exception as e:  # a crash is a failure with its message
                ok, detail = False, f"exception: {e}"
            dt = time.time() - t0
            status = "PASS" if ok else "FAIL"
            out(f"{status} {name}:{check_name} - {detail} [{dt:.2f}s]")
            failures += 0 if ok else 1
            passed += 1 if ok else 0
        for diag_name, fn in DIAGNOSTICS.get(name, []):
            out(f"NOTE {name}:{diag_name} - {fn()}")
    out(f"{passed} passed, {failures} failed")
    return failures
