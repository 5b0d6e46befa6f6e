import hashlib
import itertools
import re
from collections import Counter

import classify_oracle
import exact_oracle
import pytest
from classify_oracle import pair_violation
from hypothesis import given, settings
from hypothesis import strategies as st

from zlat import classify, exact, forms, gluing, golden, lattice, stability, tables
from zlat.classify import (
    THalfInvariants,
    admissible_invariants,
    admissible_rr2_pairs,
    catalog_blocks,
    enumerate_ascending_t_pairs,
    find_reversion_root,
    half_violation,
    pair_by_ref,
    realize_pair,
    reversion_partner,
    s_pair,
    t_glue_map,
    witness_lattice,
)
from zlat.gluing import glue
from zlat.lattice import make_lattice, parse_lattice_expr


def test_admissible_count_is_68():
    assert len(admissible_invariants()) == 68


def test_distinct_rr2_count():
    # the lemma statement says "fifteen", its proof says "fourteen"; we report
    # the computed count without asserting either word
    assert len(admissible_rr2_pairs()) == 14


def test_forbidden_by_complement():
    # (7,1) with (p,q) = (1,0) passes alone but its complement has r' = 2 < r3' = 3
    inv = THalfInvariants(7, 1, 1, 1, 0)
    assert half_violation(inv) is None
    assert pair_violation(inv) is not None
    assert "complement" in pair_violation(inv)


def test_2_0_cell():
    admitted = [(i.p, i.q) for i, _c in admissible_invariants() if (i.r, i.r2) == (2, 0)]
    assert admitted == [(0, 0), (1, 1)]


def test_admissible_matches_table4():
    cells = {}
    for inv, _comp in admissible_invariants():
        cells.setdefault((inv.r, inv.r2, inv.p, inv.q), set()).add(inv.delta2)
    expected = {}
    for d2s, (r, r2), pqs in golden.TABLE_4:
        for p, q in pqs:
            expected.setdefault((r, r2, p, q), set()).update(d2s)
    assert cells == expected


def test_witnesses():
    assert witness_lattice(THalfInvariants(2, 0, 0, 0, 0)).expr == "U"
    assert witness_lattice(THalfInvariants(5, 3, 1, 1, 0)).expr == "<6>+D4"
    assert stability.invariants(witness_lattice(THalfInvariants(4, 4, 0, 0, 3))) == (4, 4, 0, 0, 3)


def test_witness_error_outside_census():
    with pytest.raises(ValueError):
        witness_lattice(THalfInvariants(1, 1, 1, 1, 3))  # r3 = 4 > r


def test_census_counts_and_refs():
    census = enumerate_ascending_t_pairs()
    assert len(census) == 68
    assert census[0].witness_plus.expr == "U"
    assert stability.invariants(census[0].witness_minus) == (7, 1, 1, 1, 3)
    refs = [p.table_ref for p in census]
    assert refs.count("?") == 0
    irreversible = [p for p in census if not p.reversible]
    assert sorted(p.table_ref for p in irreversible) == [f"8A:{i}" for i in range(1, 7)]


def test_irreversible_match_table_8a_by_invariants():
    for i, (d2, rr2, pq, rr2c, pqc, t1, t2) in enumerate(golden.TABLE_8A, 1):
        pair = pair_by_ref(f"8A:{i}")
        assert (pair.t_plus.r, pair.t_plus.r2) == rr2
        assert pair.t_plus.delta2 == d2
        assert (pair.t_plus.p, pair.t_plus.q) == pq
        assert (pair.t_minus.r, pair.t_minus.r2) == rr2c
        assert (pair.t_minus.p, pair.t_minus.q) == pqc
        assert stability.invariants(parse_lattice_expr(t1)) == pair.t_plus.key()
        assert stability.invariants(parse_lattice_expr(t2)) == pair.t_minus.key()


def test_partner_alignment_8b_8c():
    census = enumerate_ascending_t_pairs()
    for i in range(1, 32):
        left = pair_by_ref(f"8B:{i}")
        right = pair_by_ref(f"8C:{i}")
        partner = reversion_partner(left)
        assert partner is not None and partner.index == right.index
        back = reversion_partner(right)
        assert back is not None and back.index == left.index


def test_partnership_invariants():
    # Lemma partnership-lemma (1)-(3)
    for pair in enumerate_ascending_t_pairs():
        partner = reversion_partner(pair)
        if partner is None:
            continue
        assert partner.t_plus.r == 8 - pair.t_plus.r
        assert partner.t_plus.r2 == pair.t_plus.r2
        assert partner.t_plus.delta2 == pair.t_plus.delta2
        assert (partner.t_plus.p, partner.t_plus.q) == (1 - pair.t_plus.p, 3 - pair.t_plus.q)


def test_reversion_root_found_constructively():
    pair = pair_by_ref("8B:1")
    root = find_reversion_root(pair)
    assert root is not None
    assert pair.witness_minus.norm(list(root)) == -2


def test_root_components_match_box_walk():
    # every window of find_reversion_root whose box has at most 4*10^5 points
    blocks = {name for pair in enumerate_ascending_t_pairs()
              for w in (pair.witness_plus, pair.witness_minus) for name in catalog_blocks(w.expr)}
    checked = 0
    for name in sorted(blocks):
        rank = parse_lattice_expr(name).rank
        for cap, box in ((8, 2), (24, 3), (48, 4)):
            if (2 * box + 1) ** rank <= 4 * 10**5:
                want = classify_oracle.root_components(name, cap, box)
                assert classify._root_components(name, cap, box) == want, (name, cap, box)
                checked += 1
    assert {"D4", "E6"} <= blocks and checked == 3 * len(blocks) - 1  # E6 at box 4 has 9^6 points


def _kernel_mod2_scan(g):
    """Every u in F_2^n with u*G = 0 mod 2, by a scan of all of F_2^n."""
    return [u for u in itertools.product((0, 1), repeat=len(g))
            if all(sum(a * b for a, b in zip(u, col)) % 2 == 0 for col in zip(*g))]


def test_kernel_mod2():
    assert classify._kernel_mod2(parse_lattice_expr("E6")) == [(0,) * 6]
    d4 = classify._kernel_mod2(parse_lattice_expr("D4"))
    assert len(d4) == 4 and len(set(d4)) == 4
    assert sorted(classify._kernel_mod2(parse_lattice_expr("U(2)"))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    l = parse_lattice_expr("U+A1+D4+A2(2)")
    assert sorted(classify._kernel_mod2(l)) == _kernel_mod2_scan(l.gram)


@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                                                     min_size=n, max_size=n)))
@settings(max_examples=150, deadline=None)
def test_kernel_mod2_matches_scan(m):
    # random even Gram matrices M + M^T of rank <= 5
    g = [[a + b for a, b in zip(row, col)] for row, col in zip(m, zip(*m))]
    if exact_oracle.determinant(g) == 0:
        return
    assert sorted(classify._kernel_mod2(make_lattice(g))) == _kernel_mod2_scan(g)


def test_pair_invariant_properties():
    for pair in enumerate_ascending_t_pairs():
        tp, tm = pair.t_plus, pair.t_minus
        assert tp.r + tm.r == 9
        assert abs(tp.r2 - tm.r2) == 1
        assert tm.delta2 == 1  # larger r2 side
        assert (tp.p + tm.p, tp.q + tm.q) == (1, 3)
        assert tp.r2 <= min(tp.r, 8 - tp.r)
        assert tm.r2 <= min(tm.r, 10 - tm.r)


def test_brown_pairing():
    # Br2(T1) + Br2(T2) = -1 = 7 mod 8 for every pair
    for pair in enumerate_ascending_t_pairs():
        total = 0
        for l in (pair.witness_plus, pair.witness_minus):
            f2 = forms.p_part(forms.discriminant_form(l), 2)
            total += forms.brown(f2)
        assert total % 8 == 7, pair.table_ref


def test_s_pairs_table2():
    # (nu_i = 0, o = -) -> (0, [6A2]_{sigma/3}); (3, +) -> (E6(2), 3A2(2)); (0, +) -> ([6<-6>]_{sigma/3}, 6A1)
    sp = s_pair(0, "-")
    assert sp.s_plus.rank == 0
    assert sp.s_minus.rank == 12 and abs(sp.s_minus.det()) == 81
    sp = s_pair(3, "+")
    # [3A2(2)]_{sigma/3} = E6(2), verified by genus (both are definite)
    assert stability.genus_tag(sp.s_plus) == stability.genus_tag(parse_lattice_expr("E6(2)"))
    assert sp.s_minus.expr == "3A2(2)"
    sp = s_pair(0, "+")
    assert sp.s_plus.rank == 6 and abs(sp.s_plus.det()) == 6**6 // 9
    assert sp.s_minus.expr == "6A1"
    with pytest.raises(ValueError):
        s_pair(4, "-")


def test_realize_first_pair():
    report = realize_pair(pair_by_ref("8B:1"))
    assert report["stage_a"] == report["stage_b"] == report["stage_c"] == "ok"


def test_realize_rejects_invalid_glue_map():
    from zlat.gluing import GlueMap

    pair = pair_by_ref("8B:4")  # T1 = <2>, T2 has 2-rank 2
    f1 = forms.p_part(forms.discriminant_form(pair.witness_plus), 2)
    f2 = forms.p_part(forms.discriminant_form(pair.witness_minus), 2)
    g1 = next(x for x in f1.elements() if any(x))
    bad = next(x for x in f2.elements() if any(x) and f2.q(x) != (2 - f1.q(g1)) % 2)
    with pytest.raises(ValueError, match="anti-isomorphism"):
        GlueMap(f1, f2, (g1,), (bad,))


def test_realize_glues_once_per_stage(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    real_extension = classify.extension_by_fraction

    def extension(l, v, d):
        counts["S0"] += l.expr == "6A2"
        return real_extension(l, v, d)

    monkeypatch.setattr(gluing, "_glue", counted("glue", gluing._glue))
    monkeypatch.setattr(forms, "subgroup_order", counted("subgroup_order", forms.subgroup_order))
    monkeypatch.setattr(classify, "extension_by_fraction", extension)
    classify._master_extension.cache_clear()
    pairs = enumerate_ascending_t_pairs()
    for pair in pairs:
        realize_pair(pair)
    assert len(pairs) == 68
    assert counts["glue"] == 3 * 68
    assert counts["subgroup_order"] <= 9 * 68
    assert counts["S0"] == 1


def _capture_stage_c(monkeypatch, built):
    """Record (K3 Gram matrix, certified signature) of each stage (c) of `realize_pair`."""
    real = classify.glue_with_signature

    def recorded(*args):
        k3, sig = real(*args)
        built.append((k3.gram, sig))
        return k3, sig

    monkeypatch.setattr(classify, "glue_with_signature", recorded)


def test_stage_c_k3_grams_have_signature_3_19(monkeypatch):
    # the certificate proves the signature; the elimination is its second side
    built, eliminated = [], []
    real_inertia_det = exact.inertia_det
    _capture_stage_c(monkeypatch, built)
    monkeypatch.setattr(exact, "inertia_det", lambda g: eliminated.append(len(g)) or real_inertia_det(g))
    lattice._gram_entry.cache_clear()  # every block Gram of the realizations reaches the spy
    reports = [realize_pair(pair) for pair in enumerate_ascending_t_pairs()]
    assert len(reports) == len(built) == 68
    assert all(report["stage_c"] == "ok" for report in reports)
    assert eliminated and 22 not in eliminated
    for g, sig in built:
        assert sig == (3, 19)
        assert real_inertia_det(g)[:3] == exact_oracle.dense_inertia(g) == exact_oracle.inertia(g) == (3, 0, 19)


def test_realization_hnfs_match_the_whole_row_steps(monkeypatch):
    # every Hermite form of the 68 realizations, closed forms against whole-row steps
    real, calls = exact.hermite_normal_form_mod, []
    monkeypatch.setattr(exact, "hermite_normal_form_mod",
                        lambda rows, den, n: calls.append((rows, den, n)) or real(rows, den, n))
    for pair in enumerate_ascending_t_pairs():
        realize_pair(pair)
    assert len(calls) >= 3 * 68
    for rows, den, n in calls:
        assert real(rows, den, n) == exact_oracle.hermite_normal_form_mod(rows, den, n)


# sha256 of the repr of the tuple of the 68 Gram matrices (tuples of int
# tuples, census order) that realize_pair builds: the glued T of stage (a),
# with the action of its involution, and the K3 lattice of stage (c).  Any
# change to the overlattice, Hermite form, gluing or involution code must
# build these lattices on the same bases, byte for byte.
REALIZED_SHA256 = {
    "stage_a": "6b49974d935af5a8465cb0ba5a53a8b2dd9bb41312564bf78f5403501afa6c70",
    "involution": "887ed5ed636100da71b1e55c5f663b5af50c4084edc8437974e8e7f7fe7c523f",
    "k3": "fa4156be3a0a6d51f77b59d092b2518a5deeb26088967850fd2bc8f825ebba93",
}


def test_realized_lattices_are_pinned(monkeypatch):
    built = {name: [] for name in REALIZED_SHA256}
    real_glue_involution, stage_c = classify.glue_involution, []

    def glue_involution(*args):
        inv = real_glue_involution(*args)
        built["stage_a"].append(inv.lattice.gram)
        built["involution"].append(inv.action)
        return inv

    monkeypatch.setattr(classify, "glue_involution", glue_involution)
    _capture_stage_c(monkeypatch, stage_c)
    for pair in enumerate_ascending_t_pairs():
        realize_pair(pair)
    built["k3"] = [g for g, _sig in stage_c]
    for name, grams in built.items():
        assert len(grams) == 68
        assert hashlib.sha256(repr(tuple(grams)).encode()).hexdigest() == REALIZED_SHA256[name], name


# the work of one cold census and the 68 realizations, counted in a fresh
# interpreter (every memo cold, hash seed fixed)
_WORK_COUNT = """
import collections, json, operator
from zlat import classify, forms, lattice

calls, built, layouts = collections.Counter(), [], []


def counted(module, name, record=None):
    real = getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        if record is not None:
            record.append(args[0])
        return real(*args)

    setattr(module, name, wrapper)


counted(lattice, "_block_gram", layouts)
for lazy_field in ("gram", "lift_cols"):  # the fills of a sum form's gram and lift columns
    counted(vars(forms.FiniteQuadraticForm)[lazy_field], "fill")
build_form = forms._discriminant_form


def form_built(l):
    calls["_discriminant_form"] += 1
    built.append(l)  # kept alive, so that no id is reused
    return build_form(l)


forms._discriminant_form = form_built
lazy_gram = vars(lattice.Lattice)["gram"]
fill = lazy_gram.fill


def from_parts(l):
    # a layout concatenates the Gram matrices of the parts themselves, one
    # `_block_gram` call; any other is a layout entry by entry
    grams = [s.gram if isinstance(s, lattice.Lattice) else s for *_part, s in l._parts]
    before = len(layouts)
    fill(l)
    calls["entry_by_entry"] += layouts[before:] != [grams] or any(map(operator.is_not, layouts[-1], grams))


lazy_gram.fill = from_parts
pairs = classify.enumerate_ascending_t_pairs()
census = dict(calls)
for pair in pairs:
    classify.realize_pair(pair)
print(json.dumps({"pairs": len(pairs), "census": census, "total": dict(calls),
                  "forms_per_lattice": max(collections.Counter(map(id, built)).values())}))
"""

# upper bounds on the layouts of block-sum Gram matrices, the dense builds
# of a sum form's gram or lift columns, and the discriminant forms built, as
# counted when pinned
LAYOUTS, SUM_FORM_BUILDS, FORM_BUILDS = 293, 329, 226


def test_census_and_realizations_lay_out_from_parts_and_keep_one_form_per_lattice():
    import json
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", _WORK_COUNT], capture_output=True, text=True, timeout=600,
                         env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0"))
    assert out.returncode == 0, out.stderr
    work = json.loads(out.stdout)
    assert work["pairs"] == 68
    assert work["census"] == {}  # no witness laid out, no form built: the census reads splits and blocks
    total = work["total"]
    assert total.get("entry_by_entry", 0) == 0
    assert 0 < total["_block_gram"] <= LAYOUTS and 0 < total["fill"] <= SUM_FORM_BUILDS
    assert 0 < total["_discriminant_form"] <= FORM_BUILDS
    assert work["forms_per_lattice"] == 1


def _clear_anti_iso_memos():
    forms.anti_iso_images.cache_clear()
    forms._anti_iso_order.cache_clear()


def test_anti_iso_memos_keep_lift_columns_apart(monkeypatch):
    # T' of every pair, as stage (c) glues it to S0
    calls = []
    real_glue = classify.glue_with_signature
    monkeypatch.setattr(classify, "glue_with_signature", lambda *args: calls.append(args) or real_glue(*args))
    for pair in enumerate_ascending_t_pairs():
        realize_pair(pair)
    s0 = calls[0][0]
    by_value = {}
    for _s0, t_prime, _phi in calls:
        by_value.setdefault(forms.discriminant_form(t_prime), []).append(t_prime)
    assert len(calls) == 68 and len(by_value) == 27
    # two T' whose discriminant forms are equal in value but lift differently
    a, b = next((ts[0], t) for ts in by_value.values() for t in ts[1:]
                if forms.discriminant_form(t).lift_cols != forms.discriminant_form(ts[0]).lift_cols)
    f_s0 = forms.discriminant_form(s0)

    def k3(t_prime):
        phi = forms.build_anti_iso(f_s0, forms.discriminant_form(t_prime), 3)
        assert phi.target_form.lift_cols == forms.discriminant_form(t_prime).lift_cols
        return glue(s0, t_prime, phi).gram

    for first, second in ((a, b), (b, a)):
        _clear_anti_iso_memos()
        k3(first)
        warm = k3(second)  # on the memo entries of the first one's value
        assert forms.anti_iso_images.cache_info().hits == 1 and forms._anti_iso_order.cache_info().hits == 1
        _clear_anti_iso_memos()
        assert k3(second) == warm


def test_realization_does_not_depend_on_the_memo_order(monkeypatch):
    # each order starts from empty memos, so the entry of a form value comes
    # from the first pair of that value in census order, then from the last
    built = []
    _capture_stage_c(monkeypatch, built)
    pairs = enumerate_ascending_t_pairs()
    runs = []
    for order in (pairs, pairs[::-1]):
        _clear_anti_iso_memos()
        done = {}
        for pair in order:
            report = realize_pair(pair)
            ((k3, _sig),) = built
            built.clear()
            done[pair.table_ref] = (report, k3)
        reports, grams = zip(*(done[pair.table_ref] for pair in pairs))
        runs.append((reports, hashlib.sha256(repr(grams).encode()).hexdigest()))
    assert runs[0] == runs[1]
    assert runs[0][1] == REALIZED_SHA256["k3"]


def test_eigenlattice_kernels_match_smith_oracle():
    # the 136 matrices C - I and C + I of the 68 stage-(a) involutions
    for pair in enumerate_ascending_t_pairs():
        c = gluing.glue_involution(pair.witness_plus, pair.witness_minus, t_glue_map(pair)).action_rows()
        for s in (-1, 1):
            m = [[x + s * (i == j) for j, x in enumerate(row)] for i, row in enumerate(c)]
            assert exact.integer_kernel(m) == exact_oracle.integer_kernel(m)


def test_stage_a_genus_for_every_pair():
    t = parse_lattice_expr("U+U(3)+2A2+A1")
    for pair in enumerate_ascending_t_pairs()[:10]:
        glued = glue(pair.witness_plus, pair.witness_minus, t_glue_map(pair))
        assert stability.isomorphic_in_genus(glued, t) == "yes"


def test_all_table5_lattices_stable():
    for _tid, (p, rows) in golden.TABLE_5.items():
        for _d2, _rr2, cells in rows:
            for cell in cells:
                if cell in ("-", "*"):
                    continue
                assert stability.stability_certificate(parse_lattice_expr(cell)) is not None, cell


_OPTIMIZED_CHECKS = """
import sys
from zlat import classify, exact, forms, gluing, lattice, stability
from zlat.lattice import named, signature
from zlat.gluing import GlueMap, glue

assert not __debug__, "run under python -O"
real_invariants = stability.invariants
stability.invariants = lambda l: ()  # no candidate survives the recomputation
try:
    classify.witness_lattice(classify.admissible_invariants()[0][0])
except ValueError as e:
    print("witness:", e)
stability.invariants = real_invariants

real_s_half_pq = classify._s_half_pq
classify._s_half_pq = lambda l: (0, 0)  # S+ of an o = + row must have p = 1
try:
    classify.s_pair(0, "+")
except ValueError as e:
    print("s-pair:", e)
classify._s_half_pq = real_s_half_pq

real = stability.isomorphic_in_genus
calls = []

def fewer_yes(a, b):  # stage a passes, the involution's L+ check then fails
    calls.append(1)
    return real(a, b) if len(calls) == 1 else "no"

stability.isomorphic_in_genus = fewer_yes
try:
    classify.realize_pair(classify.pair_by_ref("8B:1"))
except ValueError as e:
    print("realize:", e)
stability.isomorphic_in_genus = real

real_inertia_det = exact.inertia_det
exact.inertia_det = lambda g: (len(g), 0, 0, real_inertia_det(g)[3])  # <-2> read as positive definite
lattice._gram_entry.cache_clear()  # realize_pair already memoized the true inertia of <-2>
try:
    signature(named("<-2>"))
except ArithmeticError as e:
    print("signature:", e)
exact.inertia_det = real_inertia_det
lattice._gram_entry.cache_clear()  # drop the false inertia the patch left in the memo

l1, l2 = named("<2>"), named("<-2>")
# phi records this order, which breaks det(l1 +_phi l2) |H|^2 = det(l1) det(l2)
real_subgroup_order = forms.subgroup_order
forms.subgroup_order = lambda f, gens: 1
phi = GlueMap(forms.discriminant_form(l1), forms.discriminant_form(l2), ((1,),), ((1,),))
try:
    glue(l1, l2, phi)
except ValueError as e:
    print("glue:", e)
forms.subgroup_order = real_subgroup_order

real_overlattice = gluing.overlattice

def shifted(l, rows, den):  # the K3 Gram matrix with one entry pair off by 2, its det as claimed
    k, h = real_overlattice(l, rows, den)
    if k.rank == 22:
        g = k.gram_rows()
        g[0][1] = g[1][0] = g[0][1] + 2
        k = lattice._with_det(g, k.det())
    return k, h

gluing.overlattice = shifted
try:
    classify.realize_pair(classify.pair_by_ref("8B:1"))
except ValueError as e:
    print("realize:", e)
gluing.overlattice = real_overlattice

stability.GenusTag.symbol = lambda tag, p: ()  # every discriminant read as trivial, discr_2 T too
try:
    classify.realize_pair(classify.pair_by_ref("8B:1"))
except ValueError as e:
    print("realize:", e)
"""


def test_result_checks_survive_python_O():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines == ["witness: witness recomputation mismatch for (2, 0, 0, 0, 0)",
                     "s-pair: S+ sign mismatch",
                     "realize: involution: L+ not in the genus of the plus half (8B:1)",
                     "signature: signature (1, 0) disagrees with det -2",
                     "glue: gluing violates det(l1 +_phi l2) |H|^2 = det(l1) det(l2)",
                     "realize: stage c: congruence certificate: M*K*M^T differs from the Gram matrix"
                     " of the sublattice (8B:1)",
                     "realize: involution: discr_2 of the glued lattice is not <-1/2> (8B:1)"]


def test_witness_index_matches_linear_scan():
    # every key of the index, not only the census halves, against the sorted
    # candidate list scanned in order; insertion order included
    scanned = classify_oracle.witness_index()
    assert list(classify._witness_index().items()) == list(scanned.items())
    invariants = {inv for pair in admissible_invariants() for inv in pair}
    assert len(invariants) == 88 and len(scanned) == 229
    for inv in invariants:
        assert witness_lattice(inv).expr == classify.render_blocks(scanned[(inv.r, 1, inv.r2, inv.delta2, inv.p, inv.q)])


def test_block_multisets_grow_in_count_order():
    # every multiset of rank <= 10 once, ordered by its count vector with the
    # last name's count running fastest
    got = classify.block_multisets(classify.CATALOG, 10)
    want = [names for size in range(11) for names in itertools.combinations_with_replacement(classify.CATALOG, size)
            if sum(classify.BLOCK_RANK[n] for n in names) <= 10]
    counts = [tuple(names.count(n) for n in classify.CATALOG) for names in got]
    assert sorted(map(tuple, got)) == sorted(want) and len(got) == 15647
    assert counts == sorted(counts)


def test_admissible_invariants_match_the_object_loop():
    assert admissible_invariants() == classify_oracle.admissible_invariants()
    points = classify_oracle.grid()
    assert len(points) == 1152
    for inv in points:
        assert half_violation(inv) == classify_oracle.half_violation(inv), inv
        assert half_violation(inv.complement()) == classify_oracle.half_violation(inv.complement()), inv


def test_golden_rows_with_equal_invariants_are_rejected(monkeypatch):
    refs = classify._golden_row_lookup()
    assert len(refs) == len(golden.TABLE_8A) + len(golden.TABLE_8B) + len(golden.TABLE_8C) == 68
    assert len(set(refs.values())) == 68
    # a later 8C row whose T1 has the invariants of 8A:1 (U+3A2 in another order)
    ref = f"8C:{len(golden.TABLE_8C) + 1}"
    monkeypatch.setattr(golden, "TABLE_8C", golden.TABLE_8C + [((8, 0), "3A2+U", "<6>")])
    with pytest.raises(ValueError, match=f"rows 8A:1 and {ref} share"):
        classify._golden_row_lookup()


def test_golden_rows_are_keyed_as_their_genus_tags_key_them():
    # the block sums give each T1 the key the parsed, genus-tagged text has
    assert list(classify._golden_row_lookup().items()) == list(classify_oracle.golden_row_lookup().items())


def test_golden_t1_outside_the_catalog_is_rejected(monkeypatch):
    ref = f"8C:{len(golden.TABLE_8C)}"
    monkeypatch.setattr(golden, "TABLE_8C", golden.TABLE_8C[:-1] + [((4, 4), "U+E8", "<2>+A1+3<-6>")])
    with pytest.raises(ValueError, match=f"golden T1 row {ref} \\(U\\+E8\\): unknown block 'E8'"):
        classify._golden_row_lookup()


@pytest.mark.parametrize("t1", ["U+D4", "A1+A2"])
def test_golden_t1_of_no_admissible_first_half_is_rejected(monkeypatch, t1):
    # U+D4 fails the rules; A1+A2 has admissible invariants but is not hyperbolic
    ref = f"8C:{len(golden.TABLE_8C)}"
    monkeypatch.setattr(golden, "TABLE_8C", golden.TABLE_8C[:-1] + [((4, 4), t1, "<2>+A1+3<-6>")])
    with pytest.raises(ValueError, match=f"golden T1 row {ref} .*no admissible first half"):
        classify._golden_row_lookup()


def test_a_census_pair_without_a_golden_row_is_rejected(monkeypatch):
    last = pair_by_ref(f"8C:{len(golden.TABLE_8C)}")
    monkeypatch.setattr(golden, "TABLE_8C", golden.TABLE_8C[:-1])
    # the unmemoized census, so the memo keeps the published rows
    with pytest.raises(ValueError, match=re.escape(f"census pair {last.t_plus.key()} matches no golden T1 row")):
        enumerate_ascending_t_pairs.__wrapped__()


def test_diff_golden_still_checks_the_invariants_of_each_t1():
    def mismatches():
        return [(d["row"], d["detail"]) for d in tables.diff_golden("8B") if d["kind"] == "invariant-mismatch"]

    enumerate_ascending_t_pairs()  # the census keeps the published rows
    assert mismatches() == []
    first = golden.TABLE_8B[0]
    assert first[-2] == "U"
    golden.TABLE_8B[0] = first[:-2] + ("U(3)", first[-1])  # the fixture list the table holds
    try:
        got = mismatches()
    finally:
        golden.TABLE_8B[0] = first
    assert got == [(1, f"U(3): {stability.invariants(parse_lattice_expr('U(3)'))} vs (2, 0, 0, 0, 0)")]


_IMPORT_ONLY = """
import json
import zlat.cli
from zlat import classify
memos = ("admissible_invariants", "_witness_index", "witness_lattice", "_block_data", "enumerate_ascending_t_pairs")
print(json.dumps({name: getattr(classify, name).cache_info().currsize for name in memos}))
"""


def _fresh_interpreter_json(code):
    """The JSON line `code` prints, run in a fresh interpreter (cold memos)."""
    import json
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_importing_the_cli_builds_no_census():
    assert set(_fresh_interpreter_json(_IMPORT_ONLY).values()) == {0}


_CENSUS_WORK = """
import json
from zlat import classify, stability

calls = {"block_multisets": [], "THalfInvariants": 0, "half_rule": 0, "parsed": []}
real_multisets = classify.block_multisets


def multisets(names, max_rank):
    calls["block_multisets"].append([list(names), max_rank])
    return real_multisets(names, max_rank)


real_init = classify.THalfInvariants.__init__


def init(self, *args):
    calls["THalfInvariants"] += 1
    real_init(self, *args)


real_rule = classify._half_rule


def rule(*key):
    calls["half_rule"] += 1
    return real_rule(*key)


real_parse = classify.parse_lattice_expr


def parse(text):
    calls["parsed"].append(text)
    return real_parse(text)


classify.block_multisets = multisets
classify.THalfInvariants.__init__ = init
classify._half_rule = rule
classify.parse_lattice_expr = parse
pairs = classify.enumerate_ascending_t_pairs()
calls["pairs"] = len(pairs)
calls["index_builds"] = classify._witness_index.cache_info().misses
calls["block_data"] = classify._block_data.cache_info().misses
calls["invariants"] = stability.invariants.cache_info().misses
calls["witnesses"] = sorted({w.expr for pair in pairs for w in (pair.witness_plus, pair.witness_minus)})
print(json.dumps(calls))
"""


def test_cold_census_builds_the_index_once_and_few_invariants():
    work = _fresh_interpreter_json(_CENSUS_WORK)
    assert work["pairs"] == 68
    # one index, from one walk of the negative multisets, on one block datum per catalog block
    assert work["index_builds"] == 1
    assert work["block_multisets"] == [[list(classify.NEGATIVE_BLOCKS), 8]]
    assert work["block_data"] == len(classify.CATALOG)
    # the 68 admitted first halves and their complements, nothing for the
    # other grid points
    assert work["THalfInvariants"] == 2 * 68
    # the rules on the 16 points of each of the 24 (r, r2) cells with
    # r2 <= r and r - r2 even, and on the complements of the 170 that pass
    assert work["half_rule"] == 24 * 16 + 170 == 554
    # one invariants recomputation per witness, none for the golden rows
    assert len(work["witnesses"]) == work["invariants"] == 88
    golden_t1 = {row[-2] for rows in (golden.TABLE_8A, golden.TABLE_8B, golden.TABLE_8C) for row in rows}
    assert len(golden_t1 - set(work["witnesses"])) == 38
    assert not (golden_t1 - set(work["witnesses"])) & set(work["parsed"])
