import math
import random
from fractions import Fraction

import exact_oracle
import gluing_oracle
import pytest
from forms_oracle import random_basis_change
from gluing_oracle import glue_index_r2, twist_parity
from hypothesis import given, settings
from hypothesis import strategies as st

from zlat import classify, exact, forms, gluing, lattice, stability
from zlat.classify import CATALOG
from zlat.gluing import (
    GlueMap,
    eigenlattices,
    extend,
    glue,
    glue_involution,
    glue_with_signature,
    LatticeInvolution,
    overlattice_signature,
)
from zlat.lattice import (
    EMPTY,
    direct_sum,
    extension_by_fraction,
    named,
    overlattice,
    parse_lattice_expr,
    signature,
)

F = Fraction


def trivial_glue_map(l1, l2):
    return GlueMap(forms.discriminant_form(l1), forms.discriminant_form(l2), (), ())


def test_extend_trivial_subgroup():
    l = parse_lattice_expr("A2")
    out = extend(l, [])
    assert out.gram_rows() == l.gram_rows()


def test_extend_6a2_gives_s0():
    six = parse_lattice_expr("6A2")
    f = forms.discriminant_form(six)
    delta = (1,) * 6
    assert f.q(delta) == 0
    s0 = extend(six, [delta])
    assert abs(s0.det()) == 81
    quot = forms.discriminant_form(s0)
    assert forms.render_form(quot) == "⟨2/3⟩+⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩"
    # discr(extension) = H-perp / H, and Br is preserved
    assert forms.fingerprint(quot) == forms.coset_fingerprint(f, [delta])
    assert forms.brown(quot) == forms.brown(f)


def test_extend_matches_extension_by_fraction():
    # the subgroup route and the v/d route build the same extension up to genus
    six = parse_lattice_expr("6A2")
    via_fraction = extension_by_fraction(six, [1, -1] * 6, 3)
    via_subgroup = extend(six, [(1,) * 6])
    assert abs(via_fraction.det()) == abs(via_subgroup.det()) == 81
    assert forms.fingerprint(forms.discriminant_form(via_fraction)) == forms.fingerprint(
        forms.discriminant_form(via_subgroup)
    )


def test_extend_rejects_non_isotropic():
    l = parse_lattice_expr("A2")
    with pytest.raises(ValueError, match="isotropic"):
        extend(l, [(1,)])
    # on U(2) both generators have q = 0, but b pairs them to 1/2
    with pytest.raises(ValueError, match="subgroup is not isotropic"):
        extend(parse_lattice_expr("U(2)"), [(1, 0), (0, 1)])


def test_glue_2_minus2_is_u():
    l1 = named("<2>")
    l2 = named("<-2>")
    f1 = forms.discriminant_form(l1)
    f2 = forms.discriminant_form(l2)
    phi = GlueMap(f1, f2, ((1,),), ((1,),))
    glued = glue(l1, l2, phi)
    assert glued.det() == -1
    assert glued.is_even
    assert signature(glued) == (1, 1)


def test_glue_trivial_is_direct_sum():
    l1 = named("U")
    l2 = named("A2")
    glued = glue(l1, l2, trivial_glue_map(l1, l2))
    assert glued.gram_rows() == direct_sum(l1, l2).gram_rows()


def test_glue_rejects_bad_map():
    l1 = named("<2>")
    l2 = named("<2>")
    f1 = forms.discriminant_form(l1)
    f2 = forms.discriminant_form(l2)
    with pytest.raises(ValueError, match="anti-isomorphism"):
        GlueMap(f1, f2, ((1,),), ((1,),))


def test_discr_glue_is_orthogonal_sum_of_perps():
    # discr(L1 +_phi L2) = K1-perp + K2-perp for nondegenerate K_i
    l1 = parse_lattice_expr("<2>+A2")
    l2 = parse_lattice_expr("<-2>+A2")
    f1 = forms.discriminant_form(l1)
    f2 = forms.discriminant_form(l2)
    g1 = next(x for x in f1.elements() if f1.q(x) == F(1, 2))
    g2 = next(x for x in f2.elements() if f2.q(x) == F(3, 2))
    phi = GlueMap(f1, f2, (g1,), (g2,))
    glued = glue(l1, l2, phi)
    expected = forms.standard_form("2<-2/3>")
    assert forms.fingerprint(forms.discriminant_form(glued)) == forms.fingerprint(expected)


def test_glue_involution_direct_sum():
    l1 = named("U")
    l2 = named("A1")
    inv = glue_involution(l1, l2, trivial_glue_map(l1, l2))
    assert inv.action_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    lp, lm = eigenlattices(inv)
    assert lp.induced_gram() == l1.gram_rows()
    assert lm.induced_gram() == l2.gram_rows()
    assert glue_index_r2(inv) == 0


def test_glue_involution_roundtrip():
    l1 = named("<2>")
    l2 = named("<-2>")
    f1 = forms.discriminant_form(l1)
    f2 = forms.discriminant_form(l2)
    phi = GlueMap(f1, f2, ((1,),), ((1,),))
    inv = glue_involution(l1, l2, phi)
    c = inv.action_rows()
    assert exact.mat_mul(c, c) == exact.identity(2)
    lp, lm = eigenlattices(inv)
    assert lp.induced_gram() == [[2]]
    assert lm.induced_gram() == [[-2]]
    assert glue_index_r2(inv) == 1


def test_swap_involution_on_u():
    # swap e1 <-> e2 on U decomposes as <2> glued to <-2>, r_2(L, c) = 1
    u = named("U")
    inv = LatticeInvolution(u.gram and u.gram and u, ((0, 1), (1, 0)))
    lp, lm = eigenlattices(inv)
    assert lp.induced_gram() == [[2]]
    assert lm.induced_gram() == [[-2]]
    assert glue_index_r2(inv) == 1


def test_involution_check_rejects_a_non_involution_and_a_non_isometry():
    with pytest.raises(ValueError, match="action is not an involution"):
        LatticeInvolution(named("U"), ((1, 1), (0, 1)))
    # the swap squares to I but exchanges the squares 2 and 4, so C G is not symmetric
    with pytest.raises(ValueError, match="does not preserve the inner product"):
        LatticeInvolution(parse_lattice_expr("<2>+<4>"), ((0, 1), (1, 0)))
    assert LatticeInvolution(parse_lattice_expr("2<2>"), ((0, 1), (1, 0))).action == ((0, 1), (1, 0))


def test_twist_parity_exact_evaluation():
    u = named("U")
    ident = LatticeInvolution(u, ((1, 0), (0, 1)))
    assert twist_parity(ident) == "I"  # U itself is even
    swap = LatticeInvolution(u, ((0, 1), (1, 0)))
    # x.c(x) = x1^2 + x2^2 on the basis: odd, hence type II
    assert twist_parity(swap) == "II"
    two = named("<2>")
    neg = LatticeInvolution(two, ((-1,),))
    # x.c(x) = -2x^2: even, hence type I
    assert twist_parity(neg) == "I"


def test_glue_index_matches_r2_of_eigenlattices():
    # for odd |discr|: r2(L, c) = r2(L+) = r2(L-)
    u = named("U")
    swap = LatticeInvolution(u, ((0, 1), (1, 0)))
    lp, lm = eigenlattices(swap)
    r2p = forms.p_rank(forms.discriminant_form(lp.as_lattice()), 2)
    r2m = forms.p_rank(forms.discriminant_form(lm.as_lattice()), 2)
    assert glue_index_r2(swap) == r2p == r2m == 1


def test_glue_index_matches_subgroup_order():
    l1 = parse_lattice_expr("<2>+A1")
    l2 = parse_lattice_expr("<-2>+<2>")
    f1 = forms.discriminant_form(l1)
    f2 = forms.discriminant_form(l2)
    g1 = next(x for x in f1.elements() if f1.q(x) == F(1, 2))
    g2 = next(x for x in f2.elements() if f2.q(x) == F(3, 2))
    phi = GlueMap(f1, f2, (g1,), (g2,))
    inv = glue_involution(l1, l2, phi)
    assert 2 ** glue_index_r2(inv) == phi.subgroup_order == 2


def test_eigenlattices_take_kernel_bases_without_rank_checks(monkeypatch):
    # integer_kernel's rows are independent by construction: neither the
    # eigenlattices nor a complement runs `sublattice`'s HNF rank check
    from zlat.classify import enumerate_ascending_t_pairs, t_glue_map
    from zlat.lattice import orthogonal_complement, sublattice

    pair = enumerate_ascending_t_pairs()[0]
    inv = glue_involution(pair.witness_plus, pair.witness_minus, t_glue_map(pair))
    calls = []
    monkeypatch.setattr(exact, "rank", lambda m: calls.append(m))
    lp, lm = eigenlattices(inv)
    complement = orthogonal_complement(lp)
    assert calls == []
    monkeypatch.undo()
    assert lp == sublattice(inv.lattice, lp.rows()) and lm == sublattice(inv.lattice, lm.rows())
    assert lp.rank + lm.rank == inv.lattice.rank and complement == lm


def test_twist_parity_matches_delta2_of_plus_part():
    # Prop even_twist(1): for odd |discr|, delta2(L+) = 0 iff type I
    u = named("U")
    for action in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, -1))):
        inv = LatticeInvolution(u, action)
        lp, _ = eigenlattices(inv)
        if lp.rank:
            d2 = stability.genus_tag(lp.as_lattice()).delta2
        else:
            d2 = 0
        assert (twist_parity(inv) == "I") == (d2 == 0)


def test_determinant_identity_for_glue():
    l1 = parse_lattice_expr("<2>+A1")
    l2 = parse_lattice_expr("<-2>+<2>")
    f1 = forms.discriminant_form(l1)
    f2 = forms.discriminant_form(l2)
    # glue along the full 2-groups would need an anti-isomorphism; use one generator
    g1 = next(x for x in f1.elements() if f1.q(x) == F(1, 2))
    g2 = next(x for x in f2.elements() if f2.q(x) == F(3, 2))
    phi = GlueMap(f1, f2, (g1,), (g2,))
    glued = glue(l1, l2, phi)
    assert abs(glued.det()) * 4 == abs(l1.det()) * abs(l2.det())


# integer overlattice and involution against the Fraction oracles ------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


def _integer_overlattice(l, frac_rows):
    """`overlattice` on `Fraction` rows, passed as integer rows over their common denominator."""
    den = math.lcm(*(x.denominator for row in frac_rows for x in row))
    return overlattice(l, [[int(x * den) for x in row] for row in frac_rows], den)[0]


@st.composite
def lattices_with_rows(draw):
    """A sum of catalog blocks (and <-4>, whose half vector is integral but odd)
    in a random basis, with rows from its dual lattice, some moved off it."""
    l = parse_lattice_expr("+".join(draw(st.lists(st.sampled_from(CATALOG + ["<-4>"]),
                                                   min_size=1, max_size=3))))
    l = random_basis_change(l, draw(st.randoms(use_true_random=False)), 2 * l.rank if l.rank > 1 else 0)
    f = forms.discriminant_form(l)
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        x = tuple(draw(st.integers(0, d - 1)) for d in f.orders)
        v = gluing_oracle.lift_row(f, x) if f.ngens else [F(0)] * l.rank
        v = [c + draw(st.integers(-2, 2)) for c in v]
        if draw(st.integers(0, 3)) == 0:
            v[draw(st.integers(0, l.rank - 1))] += F(1, draw(st.integers(2, 5)))
        rows.append(v)
    return l, rows


@given(lattices_with_rows())
@settings(max_examples=120, deadline=None)
def test_overlattice_matches_fraction_oracle(case):
    l, rows = case
    assert _outcome(_integer_overlattice, l, rows) == _outcome(gluing_oracle.overlattice, l, rows)


def test_overlattice_errors_match_fraction_oracle():
    cases = [
        (EMPTY, [[F(1, 2)]], "overlattice generators do not span"),
        (named("A1"), [[F(1, 2)]], "overlattice is not integral"),
        (named("<-4>"), [[F(1, 2)]], "overlattice is not even"),
        (parse_lattice_expr("6A2"), [[F(1, 3), F(-1, 3)] * 6], None),
    ]
    for l, rows, message in cases:
        got = _outcome(_integer_overlattice, l, rows)
        assert got == _outcome(gluing_oracle.overlattice, l, rows)
        assert got == message if message else abs(got.det()) == 81


@st.composite
def two_elementary_glue_maps(draw):
    """Sums l1, l2 of catalog blocks with even determinant and a glue map
    between 2-torsion elements, grown greedily from randomly ordered candidates."""
    blocks = [b for b in CATALOG if parse_lattice_expr(b).det() % 2 == 0]
    l1, l2 = (parse_lattice_expr("+".join(draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=2))))
              for _ in range(2))
    f1, f2 = forms.discriminant_form(l1), forms.discriminant_form(l2)
    rng = draw(st.randoms(use_true_random=False))
    t1, t2 = ([x for x in f.elements() if f.element_order(x) == 2] for f in (f1, f2))
    rng.shuffle(t1)
    rng.shuffle(t2)
    want = draw(st.integers(1, 3))
    src, tgt = [], []
    for x in t1:
        if len(src) == want:
            break
        if forms.subgroup_order(f1, src + [x]) == forms.subgroup_order(f1, src):
            continue
        for y in t2:
            if forms._anti_iso_order(f1, (*src, x), f2, (*tgt, y)) is not None:
                src.append(x)
                tgt.append(y)
                break
    return l1, l2, GlueMap(f1, f2, tuple(src), tuple(tgt))


@given(two_elementary_glue_maps())
@settings(max_examples=60, deadline=None)
def test_glue_involution_matches_fraction_oracle(case):
    l1, l2, phi = case
    inv = glue_involution(l1, l2, phi)
    assert inv.action_rows() == gluing_oracle.glue_involution_action(l1, l2, phi)
    assert 2 ** glue_index_r2(inv) == phi.subgroup_order


# determinants carried through overlattice, glue and extend ------------------


@given(lattices_with_rows())
@settings(max_examples=120, deadline=None)
def test_overlattice_det_matches_bareiss(case):
    l, rows = case
    out = _outcome(_integer_overlattice, l, rows)
    if not isinstance(out, str):
        assert out.det() == exact_oracle.determinant(out.gram_rows())


@given(two_elementary_glue_maps())
@settings(max_examples=60, deadline=None)
def test_glue_det_matches_bareiss(case):
    glued = glue(*case)
    assert glued.det() == exact_oracle.determinant(glued.gram_rows())


@given(st.lists(st.sampled_from(CATALOG), min_size=1, max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_extend_det_matches_bareiss(blocks, rng):
    l = parse_lattice_expr("+".join(blocks))
    f = forms.discriminant_form(l)
    isotropic = [x for x in f.elements() if f.q_numer(x) == 0] if f.size <= 5000 else [f.zero()]
    out = extend(l, [rng.choice(isotropic)] if f.ngens else [])
    assert out.det() == exact_oracle.determinant(out.gram_rows())


# the signature of an overlattice by the congruence certificate ------------


def _eliminated_signature(l):
    np_, nz, nm = exact.inertia_det(l.gram_rows())[:3]
    assert nz == 0
    return np_, nm


@given(lattices_with_rows())
@settings(max_examples=120, deadline=None)
def test_overlattice_signature_matches_elimination(case):
    l, frac_rows = case
    den = math.lcm(*(x.denominator for row in frac_rows for x in row))
    rows = [[int(x * den) for x in row] for row in frac_rows]
    out = _outcome(overlattice, l, rows, den)
    if not isinstance(out, str):
        k, h = out
        assert overlattice_signature(l, k, h, den) == _eliminated_signature(k)


@given(st.lists(st.sampled_from(CATALOG), min_size=1, max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_extension_signature_matches_elimination(blocks, rng):
    # the overlattice of `extend`, on its isotropic subgroups of the catalog sums
    l = parse_lattice_expr("+".join(blocks))
    f = forms.discriminant_form(l)
    isotropic = [x for x in f.elements() if f.q_numer(x) == 0] if f.size <= 5000 else [f.zero()]
    gens = [rng.choice(isotropic)] if f.ngens else []
    k, h = overlattice(l, [f.lift_vector(g)[0] for g in gens], f.n)
    assert overlattice_signature(l, k, h, f.n) == _eliminated_signature(k) == signature(l)


@given(two_elementary_glue_maps())
@settings(max_examples=60, deadline=None)
def test_glue_with_signature_matches_elimination(case):
    k, sig = glue_with_signature(*case)
    assert k == glue(*case)
    assert sig == _eliminated_signature(k)


def _stage_c_gluings():
    """(K3 lattice, HNF rows, S0 + T') of the stage (c) of each of the 68 realizations."""
    built, real = [], gluing._glue
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gluing, "_glue", lambda *args: built.append(real(*args)) or built[-1])
        for pair in classify.enumerate_ascending_t_pairs():
            classify.realize_pair(pair)
    return [b for b in built if b[0].rank == 22]


def test_certificate_rejects_k3_grams_off_by_two():
    # one symmetric entry pair of each K3 Gram matrix shifted by +-2: still
    # even, symmetric and of the same claimed det, so only the product sees it
    rng = random.Random(31)
    stage_c = _stage_c_gluings()
    assert len(stage_c) == 68
    rejected = 0
    for k, h, summed in stage_c:
        for _ in range(20):
            i, j = rng.randrange(22), rng.randrange(22)
            g = k.gram_rows()
            g[i][j] += rng.choice((-2, 2))
            g[j][i] = g[i][j]
            with pytest.raises(ValueError, match=r"M\*K\*M\^T differs"):
                overlattice_signature(summed, lattice._with_det(g, k.det()), h, 3)
            rejected += 1
    assert rejected == 68 * 20


def test_certificate_rejects_a_non_integral_back_substitution():
    # a glue row of H with its pivot doubled: den*H^-1 leaves Z in that row
    for k, h, summed in _stage_c_gluings()[:10]:
        glue_rows = [i for i, row in enumerate(h) if row.count(0) < 21]
        assert len(glue_rows) == 4
        for i in glue_rows:
            bad = [list(row) for row in h]
            bad[i][i] *= 2
            with pytest.raises(ValueError, match=r"den\*H\^-1 is not integral"):
                overlattice_signature(summed, k, bad, 3)


def test_stage_c_rejects_a_wrong_block_signature(monkeypatch):
    # the blocks of S0 + T' read with their inertia reversed: (19, 3), not (3, 19)
    real, real_entry = classify.glue_with_signature, lattice._gram_entry

    def reversed_inertia(g):
        split, (np_, nz, nm, det) = real_entry(g)
        return split, (nm, nz, np_, det)

    def reversed_blocks(*args):
        with monkeypatch.context() as m:
            m.setattr(lattice, "_gram_entry", reversed_inertia)
            return real(*args)

    monkeypatch.setattr(classify, "glue_with_signature", reversed_blocks)
    with pytest.raises(ValueError, match=r"stage c: wrong signature \(8B:1\)"):
        classify.realize_pair(classify.pair_by_ref("8B:1"))
