"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with pytest -s to see them inline)."""

import random
import time

import exact_oracle

from zlat import exact, forms, golden, stability, tables, verify
from zlat.classify import (
    THalfInvariants,
    admissible_invariants,
    enumerate_ascending_t_pairs,
    half_violation,
    pair_by_ref,
    realize_pair,
    reversion_partner,
)
from zlat.gluing import GlueMap, glue
from zlat.lattice import (
    make_lattice,
    named,
    orthogonal_complement,
    parse_lattice_expr,
    primitive_closure,
    signature,
    sublattice,
)
from zlat.sextic import cusp_distributions, id_from_t_pair, render_code, reversion_code, simple_code_text, topology_from_t_half


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_census_count():
    t0 = time.time()
    census = enumerate_ascending_t_pairs()
    assert len(census) == 68
    irreversible = [p for p in census if not p.reversible]
    assert sorted(p.table_ref for p in irreversible) == [f"8A:{i}" for i in range(1, 7)]
    for i, (d2, rr2, pq, rr2c, pqc, t1, t2) in enumerate(golden.TABLE_8A, 1):
        pair = pair_by_ref(f"8A:{i}")
        assert (pair.t_plus.delta2, (pair.t_plus.r, pair.t_plus.r2),
                (pair.t_plus.p, pair.t_plus.q)) == (d2, rr2, pq)
        assert stability.invariants(parse_lattice_expr(t1)) == pair.t_plus
        assert stability.invariants(parse_lattice_expr(t2)) == pair.t_minus
    for i in range(1, 32):
        left, right = pair_by_ref(f"8B:{i}"), pair_by_ref(f"8C:{i}")
        partner = reversion_partner(left)
        assert partner is not None and partner.index == right.index
    dt = time.time() - t0
    report("criterion-1 census", dt < 10,
           f"68 pairs, 6 irreversible = Table 8A, 31 rows of 8B/8C aligned, {dt:.2f}s < 10s")


def test_criterion_02_table4_exact():
    diffs = tables.diff_golden("4")
    cells = {}
    for inv, _comp in admissible_invariants():
        cells.setdefault((inv.r, inv.r2, inv.p, inv.q), set()).add(inv.delta2)
    expected = {}
    for d2s, (r, r2), pqs in golden.TABLE_4:
        for p, q in pqs:
            expected.setdefault((r, r2, p, q), set()).update(d2s)
    report("criterion-2 table-4", not diffs and cells == expected,
           "admissible invariants equal Table 4, every (delta2,(r,r2),(p,q)) cell, exact")


def test_criterion_03_tables5():
    documented_rows = {(t, r) for t, r in golden.KNOWN_DISCREPANCIES if t.startswith("5")}
    misprints = []
    checked = 0
    census_halves = {half for pair in admissible_invariants() for half in pair}
    for tid, (p_value, layout) in golden.TABLE_5.items():
        for row_idx, (d2, (r, r2), cells) in enumerate(layout, 1):
            for q, cell in enumerate(cells):
                inv = THalfInvariants(r, r2, d2, p_value, q)
                checked += 1
                if cell == "-":
                    ok = half_violation(inv) is not None
                elif cell == "*":
                    ok = half_violation(inv) is None and inv not in census_halves
                else:
                    ok = stability.invariants(parse_lattice_expr(cell)) == inv
                if not ok:
                    assert (tid, row_idx) in documented_rows, f"{tid} row {row_idx} q={q}: {cell}"
                    misprints.append((tid, row_idx, q))
    report("criterion-3 tables-5A-J", True,
           f"{checked} cells verified exactly; {len(misprints)} documented source misprints: {misprints}")


def test_criterion_04_van_der_blij():
    ok_cat, detail_cat = verify.check_van_der_blij_catalog()
    ok_rand, detail_rand = verify.check_van_der_blij_random()
    report("criterion-4 van-der-blij", ok_cat and ok_rand, f"{detail_cat}; {detail_rand}")


def test_criterion_05_gluing_identities():
    ok, detail = verify.check_extension_identities()
    l1, l2 = named("<2>"), named("<-2>")
    f1, f2 = forms.discriminant_form(l1), forms.discriminant_form(l2)
    glued = glue(l1, l2, GlueMap(f1, f2, ((1,),), ((1,),)))
    ok2 = glued.is_even and abs(glued.det()) == 1 and signature(glued) == (1, 1)
    report("criterion-5 gluing", ok and ok2,
           f"{detail}; glue(<2>,<-2>) even unimodular of signature (1,1)")


def test_criterion_06_k3_realization():
    t0 = time.time()
    for pair in enumerate_ascending_t_pairs():
        rep = realize_pair(pair)
        assert rep["stage_a"] == rep["stage_b"] == rep["stage_c"] == "ok"
    dt = time.time() - t0
    report("criterion-6 k3-realization", dt < 60,
           f"all 68 pairs glue to the even unimodular (3,19) lattice in {dt:.1f}s < 60s")


def test_criterion_07_stability():
    ok1, d1 = verify.check_table5_all_stable()
    ok2, d2 = verify.check_remark_isomorphisms()
    ok3, d3 = verify.check_rewriting_rules()
    report("criterion-7 stability", ok1 and ok2 and ok3, f"{d1}; {d2}; {d3}")


def test_criterion_08_brown_pairing():
    for pair in enumerate_ascending_t_pairs():
        total = sum(
            forms.brown(forms.p_part(forms.discriminant_form(l), 2))
            for l in (pair.witness_plus, pair.witness_minus)
        )
        assert total % 8 == 7, pair.table_ref
    report("criterion-8 brown-pairing", True, "Br2(T1) + Br2(T2) = 7 mod 8 on all 68 pairs, exact")


def test_criterion_09_id_tables():
    ref = {}
    for i, (simple, nur, o, complete, ctype) in enumerate(golden.TABLE_1A, 1):
        ref[f"8A:{i}"] = (simple, nur, complete, ctype, o)
    for i, (simple, nur, complete, ctype) in enumerate(golden.TABLE_1B, 1):
        ref[f"8B:{i}"] = (simple, nur, complete, ctype, "-")
    for i, (simple, nur, complete, ctype) in enumerate(golden.TABLE_1C, 1):
        ref[f"8C:{i}"] = (simple, nur, complete, ctype, "+")
    involution_count = 0
    for pair in enumerate_ascending_t_pairs():
        sid = id_from_t_pair(pair)
        got = (simple_code_text(sid.code), sid.nu_r, render_code(sid.code), sid.curve_type, sid.o)
        assert got == ref[pair.table_ref], (pair.table_ref, got)
        _ell, shape, ctype, o, nur = topology_from_t_half(pair.t_plus)
        cands = cusp_distributions(shape, nur, o)
        assert len(cands) == 1, pair.table_ref
        partner = reversion_partner(pair)
        if partner is not None and sid.code.kind != "null":
            psid = id_from_t_pair(partner)
            assert reversion_code(sid.code) == psid.code
            assert reversion_code(psid.code) == sid.code
            involution_count += 1
    report("criterion-9 id-tables", True,
           f"all 68 IDs equal Tables 1A-C; one cusp distribution each; "
           f"reversion involutive on {involution_count} non-empty reversible IDs")


def test_criterion_10_element_census():
    ok1, d1 = verify.check_element_census()
    got = forms.aut_order(forms.standard_form("<-2/3>+3<2/3>"))
    report("criterion-10 element-census", ok1 and got == 1440, f"{d1}; aut order {got} = 1440")


def test_criterion_11_structural_properties():
    rng = random.Random(2026)
    # r2 = r mod 2 and p-part orthogonality on random even lattices
    for _ in range(60):
        n = rng.randint(1, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-5, 5)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
        if exact_oracle.determinant(g) == 0:
            continue
        l = make_lattice(g)
        f = forms.discriminant_form(l)
        assert forms.p_rank(f, 2) % 2 == l.rank % 2
        total = 1
        for p in forms.prime_factors_of_order(f):
            total *= forms.p_part(f, p).size
        assert total == f.size
    # complement involutivity
    for _ in range(40):
        amb = parse_lattice_expr(rng.choice(["U+A2", "2U", "<2>+A2+A1", "U(3)+2A1"]))
        k = rng.randint(1, amb.rank - 1)
        rows = [[rng.randint(-2, 2) for _ in range(amb.rank)] for _ in range(k)]
        if exact.rank(rows) != len(rows):
            continue
        prim = primitive_closure(sublattice(amb, rows))
        assert orthogonal_complement(orthogonal_complement(prim)).rows() == prim.rows()
    # inertia invariance under positive rescale, swap under negation
    for _ in range(60):
        n = rng.randint(1, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.randint(-6, 6)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        np_, nz, nm = exact.inertia_det(g)[:3]
        scale = rng.randint(1, 5)
        assert exact.inertia_det([[scale * x for x in row] for row in g])[:3] == (np_, nz, nm)
        assert exact.inertia_det([[-x for x in row] for row in g])[:3] == (nm, nz, np_)
    report("criterion-11 structural-properties", True,
           "r2 congruence, p-part orthogonality, complement involutivity, inertia invariance: zero failures")
