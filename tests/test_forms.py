import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import exact_oracle
import forms_oracle as oracle
import pytest
from forms_oracle import change_generators, form_on_generators, random_basis_change

from zlat import exact
from zlat.classify import CATALOG
from zlat.forms import (
    ATOMS,
    TRIVIAL_FORM,
    FiniteQuadraticForm,
    GlueMap,
    _anti_iso_order,
    _blocks,
    _split,
    anti_iso_images,
    aut_order,
    block_form,
    brown,
    build_anti_iso,
    coset_fingerprint,
    direct_sum_forms,
    discriminant_form,
    fingerprint,
    is_elementary,
    is_isotropic_subgroup,
    isotropic_quotient,
    jordan_record,
    jordan_symbol,
    normal_basis,
    p_part,
    p_rank,
    prime_factors_of_order,
    render_form,
    standard_form,
    subgroup_order,
)
from zlat.lattice import extension_by_fraction, named, parse_lattice_expr, signature
from zlat.stability import GenusTag, genus_tag
from zlat.verify import _gauss_brown, aut_g_delta_orders, q_value_census

F = Fraction


def cyclic(n: int, value) -> FiniteQuadraticForm:
    """<value> on Z/n: q(gen) = value mod 2, b(gen, gen) = value mod 1."""
    return form_on_generators([n], [[value]], [value])


def normal_text(f, p: int) -> str:
    """The `render_form` text of an elementary p-group (p = 2, 3), built from
    the normal form of the element-walk oracle."""
    if p == 3:
        a, b = oracle.normal_form3(f)
        names = ("⟨2/3⟩", "⟨-2/3⟩")
    else:
        kind, a, b = oracle.normal_form2(f)
        names = ("u2", "v2") if kind == "even" else ("⟨1/2⟩", "⟨-1/2⟩")
    return "+".join([names[0]] * a + [names[1]] * b) or "0"


def anti_iso_root(target, source):
    """The image of <1/2> under an anti-isomorphism of <1/2> + target onto
    the source 2-group (the root along which stage (a) of the K3 realization
    glues); None when there is none."""
    images = anti_iso_images(direct_sum_forms(cyclic(2, F(1, 2)), target), source, 2)
    return None if images is None else images[0]


def test_discr_a2():
    f = discriminant_form(named("A2"))
    assert f.orders == (3,)
    assert f.q((1,)) == F(4, 3)  # -2/3 mod 2
    assert fingerprint(f) == fingerprint(cyclic(3, F(-2, 3)))


def test_discr_rank1():
    assert fingerprint(discriminant_form(named("<2>"))) == fingerprint(cyclic(2, F(1, 2)))
    assert fingerprint(discriminant_form(named("<-2>"))) == fingerprint(cyclic(2, F(-1, 2)))


def test_discr_a5_splits():
    # discr A5 = <-5/6> = <1/2> + <2/3>
    f = discriminant_form(named("A5"))
    assert f.orders == (6,)
    assert f.q((1,)) == F(-5, 6) % 2
    split = direct_sum_forms(cyclic(2, F(1, 2)), cyclic(3, F(2, 3)))
    assert fingerprint(f) == fingerprint(split)


def test_p_part_u6():
    # brute-force oracle: q-values of the 3-part of discr U(6) are those of
    # <2/3> + <-2/3>: multiset {0: 5, 2/3: 2, 4/3: 2} over all 9 elements
    f3 = p_part(discriminant_form(parse_lattice_expr("U(6)")), 3)
    assert f3.size == 9
    census = q_value_census(f3)
    assert census == {F(2, 3): 2, F(4, 3): 2, F(0): 4}
    assert render_form(f3) == "⟨2/3⟩+⟨-2/3⟩"


def test_p_part_a2_scaled():
    f3 = p_part(discriminant_form(parse_lattice_expr("A2(2)")), 3)
    assert fingerprint(f3) == fingerprint(cyclic(3, F(2, 3)))


def test_discr_e8_trivial():
    f = discriminant_form(named("E8"))
    assert f.size == 1
    for p in (2, 3, 5):
        assert p_rank(f, p) == 0


def test_brown_two_groups():
    assert brown(discriminant_form(parse_lattice_expr("U(2)"))) == 0
    assert brown(discriminant_form(named("D4"))) == 4
    assert brown(discriminant_form(named("<2>"))) == 1
    assert brown(discriminant_form(named("<-2>"))) == 7


def test_brown_three_groups():
    for a in range(3):
        for b in range(3):
            f = standard_form(f"{a}<2/3>+{b}<-2/3>") if a + b else standard_form("")
            if a + b == 0:
                continue
            assert brown(f) == (2 * (a - b)) % 8


def test_brown_numeric_matches_exact():
    for expr in ("U(2)", "D4", "A2", "A5", "<2>+A2", "U(6)"):
        f = discriminant_form(parse_lattice_expr(expr))
        assert _gauss_brown(f) == brown(f)


def test_brown_of_large_p_parts():
    # p-parts of size 5^9, 5^10 and 2^23
    for expr in ("U+<-3906250>+<-6>", "U+<-19531250>+<-2>", "U+<-8388608>+<-6>"):
        l = parse_lattice_expr(expr)
        np_, nm = signature(l)
        assert brown(discriminant_form(l)) == (np_ - nm) % 8


def test_van_der_blij_spot():
    for expr in ("A2", "E6", "U(3)+2A2+A1", "<2>+3<-6>", "D4+A1", "U(6)+A2(2)"):
        l = parse_lattice_expr(expr)
        np_, nm = signature(l)
        assert brown(discriminant_form(l)) == (np_ - nm) % 8


def test_parity_and_characteristic():
    f = p_part(discriminant_form(parse_lattice_expr("U(2)")), 2)
    assert oracle.parity2(f) == genus_tag(parse_lattice_expr("U(2)")).delta2 == 0
    assert oracle.characteristic_element(f) == _characteristic(f) == (0, 0)
    g = standard_form("<1/2>+<-1/2>")
    assert oracle.parity2(g) == genus_tag(parse_lattice_expr("<2>+<-2>")).delta2 == 1
    assert oracle.characteristic_element(g) == _characteristic(g) == (1, 1)
    triv = discriminant_form(named("U"))
    assert oracle.parity2(triv) == genus_tag(named("U")).delta2 == 0
    assert oracle.characteristic_element(triv) == _characteristic(triv) == ()


def test_characteristic_defines_brown_mod4():
    # Wu-even (3): q(v) != 0 and v characteristic => 2q(v) = Br mod 4
    for spec in ("<1/2>", "<-1/2>", "3<1/2>", "<1/2>+2<-1/2>", "v2+<1/2>"):
        f = standard_form(spec)
        v = oracle.characteristic_element(f)
        if f.q(v) != 0:
            assert (2 * f.q(v)) % 4 == brown(f) % 4


def test_normal_form2():
    def text(spec):
        return render_form(standard_form(spec))

    assert text("2v2") == text("2u2") == "u2+u2"
    assert text("4<1/2>") == text("4<-1/2>") == "⟨-1/2⟩+⟨-1/2⟩+⟨-1/2⟩+⟨-1/2⟩"
    assert (text("<1/2>"), text("<-1/2>")) == ("⟨1/2⟩", "⟨-1/2⟩")
    assert text("3<1/2>") == text("v2+<-1/2>") == "⟨1/2⟩+⟨1/2⟩+⟨1/2⟩"
    assert text("u2+<1/2>") == text("2<1/2>+<-1/2>") == "⟨1/2⟩+⟨1/2⟩+⟨-1/2⟩"
    assert text("u2+v2") == "u2+v2"


def test_normal_form3():
    f = standard_form("2<2/3>+<-2/3>")
    assert render_form(f) == "⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩"
    assert brown(f) == 2  # 2(a-b) for both presentations
    s0_discr = standard_form("<2/3>+3<-2/3>")
    assert render_form(s0_discr) == "⟨2/3⟩+⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩"
    assert render_form(standard_form("")) == "0"


def test_decompositions_are_orthogonal():
    f = standard_form("u2+v2+<1/2>+<-1/2>")
    blocks = _blocks(f, 2)
    assert any(k in ("e+", "e-") for k, _ in blocks)  # delta2 = 1
    gens = [g for _k, gs in blocks for g in gs]
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            same_block = any(x in gs and y in gs for _k, gs in blocks)
            if not same_block:
                assert f.b(x, y) == 0
    f3 = standard_form("2<2/3>+2<-2/3>")
    blocks3 = _blocks(f3, 3)
    assert sorted(k for k, _ in blocks3) in (["t+", "t+", "t-", "t-"], ["t+", "t-", "t-", "t-"], ["t+", "t+", "t+", "t-"])
    assert render_form(f3) == "⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩"


def test_anti_iso_root_a1_class():
    # T1 = U (trivial 2-part), T2 = U(3)+2A2+A1: root is the A1 generator class
    target = p_part(discriminant_form(named("U")), 2)
    source = p_part(discriminant_form(parse_lattice_expr("U(3)+2A2+A1")), 2)
    v = anti_iso_root(target, source)
    assert v is not None
    assert source.q(v) == F(3, 2)
    assert v == oracle.characteristic_element(source)


def test_anti_iso_root_noncharacteristic():
    target = discriminant_form(named("<2>"))  # <1/2>, delta2 = 1
    source = standard_form("2<-1/2>")
    v = anti_iso_root(p_part(target, 2), source)
    assert v is not None
    assert source.q(v) == F(3, 2)
    assert v != oracle.characteristic_element(source)


def test_anti_iso_root_none_for_3half_odd_target():
    # 3<1/2> has a single (-1/2)-element and it is characteristic, so an odd
    # (delta2 = 1) target admits no root
    source = standard_form("3<1/2>")
    target = standard_form("<1/2>+<-1/2>")
    assert anti_iso_root(target, source) is None


def test_isotropic_subgroups_cyclic3():
    f = cyclic(3, F(-2, 3))
    subs = oracle.isotropic_subgroups(f)
    assert subs == [frozenset({(0,)})]


def test_diagonal_isotropic_and_census():
    six = parse_lattice_expr("6A2")
    g = discriminant_form(six)
    delta = (1,) * 6
    assert g.q(delta) == 0
    # G^delta/(delta) computed as the discriminant of the index-3 extension
    s0 = extension_by_fraction(six, [1, -1] * 6, 3)
    quot = discriminant_form(s0)
    assert quot.size == 81
    census = q_value_census(quot)
    assert census == {F(2, 3): 30, F(4, 3): 30, F(0): 20}
    assert render_form(quot) == "⟨2/3⟩+⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩"


def test_aut_orders():
    assert aut_order(standard_form("<2/3>")) == 2
    assert aut_order(standard_form("3<2/3>")) == 48
    assert aut_order(standard_form("<-2/3>+3<2/3>")) == 1440


def _elementary_classes(p: int, max_rank: int):
    """One elementary p-group of each rank <= max_rank and each sign class:
    (n - 1)<2/p> + <2a/p> for a = 1 and a non-square a mod p."""
    nonsquare = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) != 1)
    yield TRIVIAL_FORM
    for n in range(1, max_rank + 1):
        for a in (1, nonsquare):
            yield direct_sum_forms(*[cyclic(p, F(2, p))] * (n - 1), cyclic(p, F(2 * a, p)))


@pytest.mark.parametrize("p, max_rank", [(3, 4), (5, 3), (7, 2)])
def test_aut_order_matches_isometry_count(p, max_rank):
    classes = list(_elementary_classes(p, max_rank))
    assert len({(f.ngens, jordan_symbol(f, p)) for f in classes}) == len(classes) == 2 * max_rank + 1
    for f in classes:
        assert aut_order(f) == sum(1 for _ in oracle.isometries(f, f)), jordan_symbol(f, p)


def test_aut_g_delta_orders_match_kernel_scan():
    assert aut_g_delta_orders() == oracle.aut_g_delta_orders() == (233280, 1440)


def test_aut_order_domain():
    assert aut_order(TRIVIAL_FORM) == 1
    with pytest.raises(ValueError, match="elementary"):
        aut_order(standard_form("u2"))
    with pytest.raises(ValueError, match="elementary"):
        aut_order(cyclic(9, F(2, 9)))


def test_p_parts_orthogonal_and_sum():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2 * rng.randint(-4, 4)
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        if exact_oracle.determinant(m) == 0:
            continue
        l = parse_lattice_expr("U")  # placeholder to reuse Lattice ctor
        from zlat.lattice import make_lattice

        l = make_lattice(m)
        f = discriminant_form(l)
        total = 1
        from zlat.forms import prime_factors_of_order

        for p in prime_factors_of_order(f):
            total *= p_part(f, p).size
        assert total == f.size


def test_brown_additivity_random():
    rng = random.Random(11)
    specs = ["<1/2>", "<-1/2>", "u2", "v2", "<2/3>", "<-2/3>", "2<2/3>"]
    for _ in range(20):
        a = standard_form(rng.choice(specs))
        b = standard_form(rng.choice(specs))
        total = direct_sum_forms(a, b)
        assert brown(total) == oracle.jordan_brown(total) == (brown(a) + brown(b)) % 8


def test_r2_congruence():
    for expr in ("U", "A1", "A2", "A3", "D4", "E6", "E7", "E8", "U(2)+A2", "<2>+3<-6>"):
        l = parse_lattice_expr(expr)
        f = discriminant_form(l)
        assert p_rank(f, 2) % 2 == l.rank % 2


def test_render_form():
    f = discriminant_form(parse_lattice_expr("U(2)+A2"))
    assert render_form(f) == "u2+⟨-2/3⟩"
    assert render_form(f, ascii_mode=True) == "u2+q(-2/3)"
    assert render_form(discriminant_form(named("U"))) == "0"


from hypothesis import assume, example, given, settings
from hypothesis import strategies as st


@given(
    st.lists(st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
             min_size=3, max_size=3),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=120, deadline=None)
def test_quadratic_refinement_relations(m, xi, yi, n):
    # defining relations: q(x+y) = q(x) + q(y) + 2b(x,y), q(nx) = n^2 q(x)
    from zlat.lattice import make_lattice

    g = [[m[i][j] + m[j][i] for j in range(3)] for i in range(3)]
    for i in range(3):
        g[i][i] = 2 * m[i][i]
    if exact_oracle.determinant(g) == 0:
        return
    f = discriminant_form(make_lattice(g))
    if f.size == 1:
        return
    elems = sorted(f.elements())
    x = elems[xi % len(elems)]
    y = elems[yi % len(elems)]
    assert (f.q(f.add(x, y)) - f.q(x) - f.q(y) - 2 * f.b(x, y)) % 2 == 0
    assert (f.q(f.smul(n, x)) - n * n * f.q(x)) % 2 == 0
    # q refines b: q(x) = b(x, x) mod Z
    assert (f.q(x) - f.b(x, x)) % 1 == 0


def test_elementary_checks():
    f = discriminant_form(named("A5"))
    assert not is_elementary(f, 2)
    assert is_elementary(p_part(f, 2), 2)
    assert is_elementary(p_part(f, 3), 3)


# fast elementary paths against the brute-force oracles ------------------------

_ATOM_RANK = {"u2": 2, "v2": 2, "<1/2>": 1, "<-1/2>": 1, "<2/3>": 1, "<-2/3>": 1}
_KIND_ATOM = {"u2": "u2", "v2": "v2", "e+": "<1/2>", "e-": "<-1/2>", "t+": "<2/3>", "t-": "<-2/3>"}


@st.composite
def elementary_forms(draw, p, exact_rank=None):
    """A direct sum of standard atoms (|G| <= 2^8 or 3^5, or of the exact
    rank given) on randomly changed generators."""
    atoms = ["u2", "v2", "<1/2>", "<-1/2>"] if p == 2 else ["<2/3>", "<-2/3>"]
    max_rank = exact_rank or (8 if p == 2 else 5)
    spec, rank = [], 0
    for atom in draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=max_rank)):
        if rank + _ATOM_RANK[atom] <= max_rank:
            spec.append(atom)
            rank += _ATOM_RANK[atom]
    if exact_rank:  # fill with rank-1 atoms
        spec += [draw(st.sampled_from(atoms[-2:])) for _ in range(exact_rank - rank)]
        rank = exact_rank
    ops = draw(st.lists(st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1),
                                  st.integers(1, p - 1)), max_size=3 * rank))
    return change_generators(standard_form("+".join(spec)), p, ops)


def _characteristic(f):
    """The characteristic element of an elementary 2-group: v.x = x^2 (mod Z)
    for all x, so v is the sum of the odd blocks of an orthogonal splitting."""
    v = [0] * f.ngens
    for kind, gens in _blocks(f, 2):
        if kind in ("e+", "e-"):
            v = [a + c for a, c in zip(v, gens[0])]
    return tuple(x % 2 for x in v)


def _check_blocks(f, blocks):
    """Blocks realize their kinds, are mutually orthogonal and span the group;
    returns the standard form with the blocks' kinds."""
    for kind, gens in blocks:
        if kind in ("u2", "v2"):
            x, y = gens
            assert f.b(x, y) == F(1, 2)
            assert f.q(x) == f.q(y) == (0 if kind == "u2" else 1)
        else:
            assert f.q(gens[0]) == {"e+": F(1, 2), "e-": F(3, 2), "t+": F(2, 3), "t-": F(4, 3)}[kind]
    for a, (_k, gens_a) in enumerate(blocks):
        for _k2, gens_b in blocks[a + 1:]:
            assert all(f.b(x, y) == 0 for x in gens_a for y in gens_b)
    assert len(oracle.subgroup_elements(f, [g for _k, gens in blocks for g in gens])) == f.size
    return standard_form("+".join(_KIND_ATOM[k] for k, _ in blocks))


def _tag(f):
    """A GenusTag carrying the p-adic symbols of f (and a dummy signature), to read its accessors."""
    return GenusTag((0, 0), tuple((p, jordan_symbol(f, p)) for p in prime_factors_of_order(f)))


@given(elementary_forms(2))
@settings(max_examples=60, deadline=None)
def test_elementary2_matches_oracles(f):
    assert render_form(f) == normal_text(f, 2)
    assert _tag(f).delta2 == oracle.parity2(f)
    assert _characteristic(f) == oracle.characteristic_element(f)
    assert fingerprint(f) == oracle.fingerprint(f)
    blocks = _blocks(f, 2)
    assert any(k in ("e+", "e-") for k, _ in blocks) == oracle.parity2(f)
    assert render_form(_check_blocks(f, blocks)) == render_form(f)


@given(elementary_forms(2))
@settings(max_examples=80, deadline=None)
def test_brown_elementary2_matches_histogram(f):
    assert oracle.brown_elementary2(f) == brown(f)


def test_brown_elementary_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        brown(form_on_generators([2, 2], [[0, 0], [0, 0]], [0, 0]))


@given(elementary_forms(3))
@settings(max_examples=40, deadline=None)
def test_elementary3_matches_oracles(f):
    assert render_form(f) == normal_text(f, 3)
    assert fingerprint(f) == oracle.fingerprint(f)
    blocks = _blocks(f, 3)
    assert render_form(_check_blocks(f, blocks)) == render_form(f)


@given(st.one_of(elementary_forms(2), elementary_forms(3)))
@settings(max_examples=80, deadline=None)
def test_normal_basis_presents_the_normal_form(f):
    p = f.n
    blocks = normal_basis(f, p)
    _check_blocks(f, blocks)
    counts = Counter(k for k, _ in blocks)
    if p == 3:
        assert (counts["t+"], counts["t-"]) == oracle.normal_form3(f)
    elif counts["e+"] + counts["e-"]:
        assert ("odd", counts["e+"], counts["e-"]) == oracle.normal_form2(f)
    else:
        assert ("even", counts["u2"], counts["v2"]) == oracle.normal_form2(f)


@st.composite
def elementary_pairs(draw, p):
    """Two elementary p-groups: independent (often of unequal rank),
    independent of equal rank, or the second the first with q negated on
    changed generators."""
    src = draw(elementary_forms(p))
    rank = src.ngens
    how = draw(st.integers(0, 2))
    if how < 2:
        return src, draw(elementary_forms(p, rank if how else None))
    ops = draw(st.lists(st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1),
                                  st.integers(1, p - 1)), max_size=3 * rank))
    return src, change_generators(_negated(src), p, ops)


@given(st.one_of(elementary_pairs(2), elementary_pairs(3)))
@settings(max_examples=80, deadline=None)
def test_build_anti_iso_matches_search_oracle(pair):
    src, tgt = pair
    p = src.n
    phi = build_anti_iso(src, tgt, p)
    assert (phi is None) == (oracle.build_anti_iso(src, tgt, p) is None)
    if phi is not None:
        assert oracle.is_anti_isomorphism(src, list(phi.source_gens), tgt, list(phi.target_gens))
        assert phi.subgroup_order == src.size == tgt.size


@st.composite
def root_pairs(draw):
    """A target 2-group and a source: independent, or <1/2> + target with q
    negated on changed generators (|source| <= 2^8)."""
    target = draw(elementary_forms(2))
    if target.ngens == 8 or draw(st.booleans()):
        return target, draw(elementary_forms(2))
    plus = direct_sum_forms(cyclic(2, F(1, 2)), target)
    rank = plus.ngens
    ops = draw(st.lists(st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1), st.just(1)),
                        max_size=3 * rank))
    return target, change_generators(_negated(plus), 2, ops)


@given(root_pairs())
@settings(max_examples=60, deadline=None)
def test_anti_iso_root_matches_walk_oracle(pair):
    target, source = pair
    v = anti_iso_root(target, source)
    assert (v is None) == (oracle.anti_iso_root(target, source) is None)
    if v is not None:
        assert source.q(v) == F(3, 2)
        complement = oracle.complement_of(oracle.span(source, 2), [v])
        assert oracle.anti_normal_form2(oracle.normal_form2(complement)) == oracle.normal_form2(target)
        assert (v == _characteristic(source)) == (oracle.parity2(target) == 0)


def test_build_anti_iso_none_reproducers():
    # 5<-2/3> against itself (normal forms (1, 4) negated, (0, 5)), and 3-ranks 4 and 5
    for e1, e2 in (("5A2", "5A2"), ("U+E6+3A2", "U(3)+3A2")):
        f1, f2 = (p_part(discriminant_form(parse_lattice_expr(e)), 3) for e in (e1, e2))
        assert build_anti_iso(f1, f2, 3) is None


@given(
    st.lists(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
             min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_fingerprint_matches_oracle(m):
    # non-elementary groups: discriminants of random even rank-3 lattices
    from zlat.lattice import make_lattice

    g = [[m[i][j] + m[j][i] for j in range(3)] for i in range(3)]
    det = exact_oracle.determinant(g)
    if det == 0 or abs(det) > 3000:
        return
    f = discriminant_form(make_lattice(g))
    assert fingerprint(f) == oracle.fingerprint(f)


def test_degenerate_inputs_raise():
    zero2 = form_on_generators([2, 2], [[0, 0], [0, 0]], [0, 0])
    zero3 = form_on_generators([3], [[0]], [0])
    for call in (lambda: render_form(zero2), lambda: _blocks(zero2, 2),
                 lambda: render_form(zero3), lambda: _blocks(zero3, 3)):
        try:
            call()
        except ValueError:
            continue
        raise AssertionError("degenerate input accepted")


def test_render_form_basis_invariant():
    rng = random.Random(5)
    for expr, want in (("U+2A1+<2>", "⟨1/2⟩+⟨-1/2⟩+⟨-1/2⟩"), ("U+8A1", "⟨-1/2⟩+" * 7 + "⟨-1/2⟩")):
        l = parse_lattice_expr(expr)
        for _ in range(6):
            assert render_form(discriminant_form(random_basis_change(l, rng, 2 * l.rank))) == want


def test_render_form_matches_symbol_counts():
    """The kinds of `normal_basis` print as the counts read off the p-adic
    symbol (`oracle.render_form`), in both modes: every catalog sum of rank
    <= 8, a seeded sample of random even lattices, and standard forms given
    in normal form or not (4<1/2> prints as 4<-1/2>, 2v2 as 2u2)."""
    from zlat.classify import block_multisets
    from zlat.lattice import make_lattice

    rng, grams = random.Random(36), []
    while len(grams) < 300:
        n = rng.randint(1, 6)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        g = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        if 0 < abs(exact_oracle.determinant(g)) <= 5000:
            grams.append(g)
    fs = [discriminant_form(parse_lattice_expr("+".join(b))) for b in block_multisets(CATALOG, 8) if b]
    fs += [discriminant_form(make_lattice(g)) for g in grams]
    specs = ("4<1/2>", "5<1/2>", "3<1/2>+<-1/2>", "u2+<1/2>", "v2+<-1/2>", "2v2", "3v2+u2", "2<2/3>",
             "3<2/3>+<-2/3>", "7<-1/2>", "6<1/2>+2<-1/2>")
    fs += [standard_form(spec) for spec in specs]
    for f in fs:
        for ascii_mode in (False, True):
            assert render_form(f, ascii_mode) == oracle.render_form(f, ascii_mode)


# generator maps: subgroup orders and anti-isomorphisms against enumeration ----


def _negated(f):
    """f with b and q negated, on the same generators."""
    gens = [tuple(int(i == j) for j in range(f.ngens)) for i in range(f.ngens)]
    return form_on_generators(f.orders, [[-f.b(x, y) for y in gens] for x in gens], [-f.q(x) for x in gens])


@st.composite
def generator_maps(draw):
    """The discriminant f of a sum of catalog blocks, its negative on the same
    generators, and a map src -> tgt of up to 3 unreduced generators: the
    identity (an anti-isomorphism) with some images redrawn, at random or
    among the elements with the same q (which negates q on the generators but
    maybe not b on their pairs), some sources of order 1."""

    f = discriminant_form(parse_lattice_expr("+".join(draw(st.lists(st.sampled_from(CATALOG),
                                                                     min_size=1, max_size=2)))))
    neg = _negated(f)
    elem = st.tuples(*[st.integers(-d, 2 * d) for d in f.orders])
    trivial = st.tuples(*[st.sampled_from([0, d, -d]) for d in f.orders])
    src = draw(st.lists(st.one_of(elem, trivial), max_size=3))
    tgt = []
    for x in src:
        how = draw(st.integers(0, 3))
        if how == 0:
            x = draw(elem)
        elif how == 1:
            x = draw(st.sampled_from([y for y in f.elements() if f.q(y) == f.q(x)]))
        tgt.append(x)
    return f, src, neg, tgt


def _explicit_map(text, src, tgt):
    f = discriminant_form(parse_lattice_expr(text))
    return f, src(f), _negated(f), tgt(f)


@given(generator_maps())
@settings(max_examples=150, deadline=None)
# the form's own generators (the |G| shortcut) and none at all
@example(_explicit_map("U(6)+<2>", lambda f: f.units, lambda f: []))
@example(_explicit_map("U(2)+A2+<6>", lambda f: list(f.units), lambda f: f.units[1:]))
# mixed orders: the Hermite form modulo lcm(orders) = 12 > max(orders) = 6 on <6>+<4>
@example(_explicit_map("<6>+<4>", lambda f: [(2, 1), (3, 2)], lambda f: [(8, -1), (0, 6), (3, 0)]))
@example(_explicit_map("U(6)+<2>", lambda f: [(2, 3, 1), (4, 0, 1)], lambda f: [(3, 3, 0), (0, 2, 0), (6, -6, 2)]))
def test_subgroup_order_matches_enumeration(case):
    f, src, neg, tgt = case
    assert subgroup_order(f, src) == len(oracle.subgroup_elements(f, src))
    assert subgroup_order(neg, tgt) == len(oracle.subgroup_elements(neg, tgt))


@given(generator_maps())
@settings(max_examples=150, deadline=None)
def test_is_anti_isomorphism_matches_oracle(case):
    f, src, neg, tgt = case
    order = _anti_iso_order(f, tuple(src), neg, tuple(tgt))
    assert (order is not None) == oracle.is_anti_isomorphism(f, src, neg, tgt)
    if order is not None:
        assert GlueMap(f, neg, tuple(src), tuple(tgt)).subgroup_order == order == subgroup_order(f, src)


@st.composite
def subgroup_generators(draw):
    """The discriminant f of a sum of catalog blocks, or a p-group with
    orders up to p^3 and no lattice lifts (`pgroup_forms`), and up to 3
    unreduced generators, each drawn at random or among the elements with
    q = 0 (whose spans are isotropic unless b pairs two of them nontrivially)."""

    catalog = st.lists(st.sampled_from(CATALOG), min_size=1, max_size=2).map(
        lambda names: discriminant_form(parse_lattice_expr("+".join(names))))
    pgroups = st.sampled_from((2, 3, 5)).flatmap(lambda p: pgroup_forms(p, {2: 2 ** 6, 3: 3 ** 4, 5: 5 ** 2}[p]))
    f = draw(st.one_of(catalog, pgroups))
    elem = st.tuples(*[st.integers(-d, 2 * d) for d in f.orders])
    isotropic = st.sampled_from([x for x in f.elements() if f.q(x) == 0])
    return f, draw(st.lists(st.one_of(elem, isotropic, isotropic), max_size=3))


@given(subgroup_generators())
@settings(max_examples=200, deadline=None)
def test_is_isotropic_subgroup_matches_oracle(case):
    f, gens = case
    assert is_isotropic_subgroup(f, gens) == oracle.is_isotropic_subgroup(f, gens)


@given(subgroup_generators(), st.data())
@settings(max_examples=200, deadline=None)
def test_coset_fingerprint_matches_coset_walk(case, data):
    # H: the drawn generators that keep the span isotropic, and one more
    # nonzero element that does (when one is left and H has at most 2), else 0
    f, gens = case
    h = []
    for g in gens:
        if oracle.is_isotropic_subgroup(f, h + [g]):
            h.append(g)
    more = [x for x in f.elements() if any(x) and oracle.is_isotropic_subgroup(f, h + [x])]
    if more and len(h) < 3:
        h.append(data.draw(st.sampled_from(more)))
    h = h or [f.zero()]
    assert coset_fingerprint(f, h) == oracle.coset_fingerprint(f, h)


def test_isotropic_quotient_rejects_non_isotropic_subgroups():
    # on <2/3>+<-2/3>: (1, 1) and (1, 2) are isotropic, but b((1, 1), (1, 2)) = 1/3
    f = standard_form("<2/3>+<-2/3>")
    assert isotropic_quotient(f, [(1, 1)]).size == isotropic_quotient(f, [(1, 2)]).size == 1
    assert fingerprint(isotropic_quotient(f, [])) == fingerprint(f)
    for gens in ([(1, 0)], [(1, 1), (1, 2)]):
        with pytest.raises(ValueError, match="not isotropic"):
            isotropic_quotient(f, gens)


def test_is_anti_isomorphism_checks_pairings():
    # on <1/2>+u2 = <e, x, y>: (e, e+x) -> (e+x, e+y) keeps q on both generators
    # and the span order, but b(e, e+x) = 1/2 while b(e+x, e+y) = 0
    f = standard_form("<1/2>+u2")
    neg = _negated(f)
    src, tgt = [(1, 0, 0), (1, 1, 0)], [(1, 1, 0), (1, 0, 1)]
    assert [f.q(x) for x in src] == [f.q(x) for x in tgt]
    assert subgroup_order(f, src) == subgroup_order(f, tgt) == 4
    assert _anti_iso_order(f, tuple(src), neg, tuple(tgt)) is None
    assert not oracle.is_anti_isomorphism(f, src, neg, tgt)
    with pytest.raises(ValueError, match="not an anti-isomorphism"):
        GlueMap(f, neg, tuple(src), tuple(tgt))
    assert GlueMap(f, neg, tuple(src), tuple(src)).subgroup_order == 4


# one numerator matrix per form -------------------------------------------------


@st.composite
def raw_numerators(draw):
    """A form on up to 4 generators with a symmetric gram of unreduced
    entries: the loops of the oracle read it as it stands."""
    orders = draw(st.lists(st.sampled_from((2, 3, 4, 6, 9)), max_size=4))
    n, k = math.lcm(*orders), len(orders)
    entries = st.integers(-3 * n, 3 * n)
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            gram[i][j] = gram[j][i] = draw(entries)
    return FiniteQuadraticForm(tuple(orders), n, tuple(map(tuple, gram)))


@st.composite
def evaluated_forms(draw):
    """The discriminant f of a sum of catalog blocks, a p-group with orders
    up to p^3 (`pgroup_forms`) or raw numerators, and two elements with
    negative and unreduced coefficients."""

    catalog = st.lists(st.sampled_from(CATALOG), min_size=1, max_size=3).map(
        lambda names: discriminant_form(parse_lattice_expr("+".join(names))))
    pgroups = st.sampled_from((2, 3, 5, 7)).flatmap(lambda p: pgroup_forms(p, _MAX_SIZE[p]))
    f = draw(st.one_of(catalog, pgroups, raw_numerators()))
    elem = st.tuples(*[st.integers(-2 * d, 3 * d) for d in f.orders])
    return f, draw(elem), draw(elem)


@given(evaluated_forms())
@settings(max_examples=200, deadline=None)
def test_numerators_match_loop_oracle(case):
    f, x, y = case
    assert f.q_numer(x) == oracle.q_numer(f, x)
    assert f.b_numer(x, y) == oracle.b_numer(f, x, y)
    assert f.q(x) == F(oracle.q_numer(f, x), f.n) and f.b(x, y) == F(oracle.b_numer(f, x, y), f.n)
    assert f.q(x) == f.q(x) and f.b(y, x) == F(f.b_numer(y, x), f.n)


@given(evaluated_forms())
@settings(max_examples=50, deadline=None)
def test_equality_hash_and_repr_read_the_seven_fields(case):
    f, x, y = case
    fields = ("orders", "n", "gram", "lift_cols", "summands", "places", "entries")
    assert tuple(fl.name for fl in dataclasses.fields(FiniteQuadraticForm)) == fields
    fresh = FiniteQuadraticForm(f.orders, f.n, f.gram, f.lift_cols)
    other = FiniteQuadraticForm(f.orders, f.n, f.gram, None)
    summed = direct_sum_forms(f, ATOMS["u2"])  # a sum that records its summands
    assert sorted(vars(summed)) == ["n", "orders", "places", "summands"]  # gram and lifts not built yet
    plain = FiniteQuadraticForm(summed.orders, summed.n, summed.gram, summed.lift_cols)
    assert summed.summands and not plain.summands
    fresh.q(x), fresh.b(x, y), summed.q(x + (0, 0))
    # evaluating leaves no state beside the fields; the lifts, summands, places and entries are not compared
    assert sorted(vars(fresh)) == sorted(vars(summed)) == sorted(fields) and "entries" not in vars(other)
    assert fresh == other and hash(fresh) == hash(other) and {fresh: 1}[other] == 1
    assert summed == plain and hash(summed) == hash(plain) and {summed: 1}[plain] == 1
    assert repr(fresh) == (f"FiniteQuadraticForm(orders={f.orders!r}, n={f.n!r}, gram={f.gram!r}, "
                           f"lift_cols={f.lift_cols!r})")
    assert repr(summed) == repr(plain) == (
        f"FiniteQuadraticForm(orders={summed.orders!r}, n={summed.n!r}, gram={summed.gram!r}, "
        f"lift_cols={summed.lift_cols!r})")
    # a sum read first by equality, hash, repr, either dense field or its entries is the same value
    for read in (plain.__eq__, lambda g: g == plain, hash, repr, lambda g: g.gram, lambda g: g.lift_cols,
                 lambda g: g.entries):
        lazy = direct_sum_forms(f, ATOMS["u2"])
        read(lazy)
        assert (lazy, hash(lazy), repr(lazy), lazy.gram, lazy.lift_cols, lazy.entries) == (
            plain, hash(plain), repr(plain), plain.gram, plain.lift_cols, plain.entries)


# the integer representation against the Fraction oracle ----------------------


@st.composite
def oracle_lattices(draw):
    """A sum of 1-3 catalog blocks, or a random even lattice of rank <= 4 with
    |det| <= 3000 (often with a non-elementary discriminant)."""
    from zlat.lattice import make_lattice

    if draw(st.booleans()):
        return parse_lattice_expr("+".join(draw(st.lists(st.sampled_from(CATALOG), min_size=1, max_size=3))))
    n = draw(st.integers(1, 4))
    m = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n))
    g = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    det = exact_oracle.determinant(g)
    assume(det != 0 and abs(det) <= 3000)
    return make_lattice(g)


def _assert_same_form(f, o, data):
    """Equal orders, and equal b, q and lifts on the generators and on random elements."""
    assert f.orders == o.orders
    units = [tuple(int(i == j) for j in range(f.ngens)) for i in range(f.ngens)]
    elem = st.tuples(*[st.integers(0, d - 1) for d in f.orders])
    picks = units + [data.draw(elem) for _ in range(6)]
    for x in picks:
        y = data.draw(st.sampled_from(picks))
        assert f.b(x, y) == o.b(x, y)
        assert f.q(x) == o.q(x)
        assert (f.lift_cols is None) == (o.lifts is None)
        if o.lifts is not None:  # a trivial form, or a `direct_sum_forms` with one, records no lifts
            w, n = f.lift_vector(x)
            assert [F(c, n) for c in w] == o.lift_vector(x)


@given(oracle_lattices(), st.data())
@settings(max_examples=120, deadline=None)
def test_discriminant_form_matches_fraction_oracle(l, data):
    f, o = discriminant_form(l), oracle.discriminant_form(l)
    _assert_same_form(f, o, data)
    for p in prime_factors_of_order(f):
        _assert_same_form(p_part(f, p), oracle.p_part(o, p), data)


@given(oracle_lattices(), oracle_lattices(), st.data())
@settings(max_examples=60, deadline=None)
def test_direct_sum_matches_fraction_oracle(l1, l2, data):
    f1, f2 = discriminant_form(l1), discriminant_form(l2)
    o1, o2 = oracle.discriminant_form(l1), oracle.discriminant_form(l2)
    _assert_same_form(direct_sum_forms(f1, f2), oracle.direct_sum_forms(o1, o2), data)
    _assert_same_form(direct_sum_forms(f1), oracle.direct_sum_forms(o1), data)


# the orthogonal split against the Smith form of the whole Gram matrix --------


@st.composite
def interleaved_sums(draw):
    """A sum of 1-4 blocks of the catalog and E8, often with U or E8 among
    them, its indices interleaved by a random permutation, and its block names."""
    from zlat.lattice import make_lattice

    unimodular = draw(st.sampled_from([[], ["U"], ["E8"]]))
    names = draw(st.lists(st.sampled_from(CATALOG + ["E8"]), min_size=1, max_size=4 - len(unimodular)))
    gram = parse_lattice_expr("+".join(names + unimodular)).gram_rows()
    perm = draw(st.permutations(range(len(gram))))
    return make_lattice([[gram[i][j] for j in perm] for i in perm]), names + unimodular


def _assert_lifts_exact(f, l):
    """Each lift w_i/n lies in L* with d_i w_i/n in L, and the lifts give b and q exactly."""
    assert (f.lift_cols is None) == (f.ngens == 0)
    g = l.gram_rows()
    for x, d in zip(f.units, f.orders):
        w, n = f.lift_vector(x)
        wg = exact.mat_mul([w], g)[0]
        assert all(c % n == 0 for c in wg) and all(d * c % n == 0 for c in w)
        assert (F(sum(a * c for a, c in zip(wg, w)), n * n) - f.q(x)) % 2 == 0
        for y in f.units:
            v, _n = f.lift_vector(y)
            assert (F(sum(a * c for a, c in zip(wg, v)), n * n) - f.b(x, y)) % 1 == 0


@given(interleaved_sums())
@settings(max_examples=120, deadline=None)
def test_block_form_matches_whole_matrix_smith_form(case):
    from zlat import gluing
    from zlat.forms import block_form

    l, names = case
    assert l.det() == exact_oracle.determinant(l.gram_rows())
    f, whole = discriminant_form(l), block_form(l.gram)
    assert f.size == whole.size == abs(l.det())
    for p in prime_factors_of_order(f):
        assert jordan_symbol(f, p) == jordan_symbol(whole, p)
    # the tag, assembled from the blocks' constituents, against the whole form's symbols
    assert genus_tag(l).parts == tuple((p, jordan_symbol(f, p)) for p in prime_factors_of_order(f))
    assert brown(f) == brown(whole)
    if f.size <= 256:
        assert oracle.isometric(f, whole)
    _assert_lifts_exact(f, l)
    _assert_lifts_exact(whole, l)
    if f.size <= 256 and {"U", "E8"} & set(names):
        h = next((x for x in f.elements() if any(x) and f.q_numer(x) == 0), None)
        if h is not None:
            ext = gluing.extend(l, [h])
            assert discriminant_form(ext).size * f.element_order(h) ** 2 == f.size


def _same_block_form(f, o):
    assert (f.orders, f.n, f.gram, f.lift_cols) == (o.orders, o.n, o.gram, o.lift_cols)


def test_block_form_of_catalog_sums_matches_unreduced_products():
    """Reduced lift columns give the form of the whole Smith columns, lifts
    unchanged: every catalog sum of rank <= 8, every 11th of rank 9 and 10."""
    from zlat.classify import block_multisets

    sums = [parse_lattice_expr("+".join(b)) for b in block_multisets(CATALOG, 10) if b]
    for l in [l for l in sums if l.rank <= 8] + [l for l in sums if l.rank > 8][::11]:
        _same_block_form(block_form.__wrapped__(l.gram), oracle.block_form(l.gram))


@given(st.one_of(oracle_lattices(), interleaved_sums().map(lambda case: case[0])), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_block_form_of_random_even_lattices_matches_unreduced_products(l, rng):
    """The same on random even lattices, as drawn and after a basis change,
    whose Smith columns carry large entries."""
    for gram in (l.gram, random_basis_change(l, rng, 2 * l.rank).gram if l.rank > 1 else l.gram):
        _same_block_form(block_form.__wrapped__(gram), oracle.block_form(gram))


def test_block_form_memo_is_bounded():
    from zlat.forms import block_form
    from zlat.lattice import MEMO_SIZE

    assert block_form.cache_info().maxsize == MEMO_SIZE


def test_form_on_generators_rejects_values_off_the_exponent():
    # exponent 6: thirds and halves fit, quarters and fifths do not
    assert form_on_generators([2, 6], [[F(1, 2), 0], [0, F(1, 3)]], [F(1, 2), F(4, 3)]).n == 6
    for bil, quad in (([[F(1, 4), 0], [0, 0]], [0, 0]), ([[0, 0], [0, 0]], [0, F(1, 5)])):
        with pytest.raises(ValueError, match="does not lie in"):
            form_on_generators([2, 6], bil, quad)


def test_form_on_generators_rejects_a_pairing_off_the_squares():
    # b(e, e) = q(e) mod 1 and b(e_i, e_j) = b(e_j, e_i) mod 1 for a quadratic form
    assert form_on_generators([2], [[F(1, 2)]], [F(3, 2)]).gram == ((3,),)
    assert form_on_generators([2, 2], [[0, F(1, 2)], [F(-1, 2), 0]], [0, 0]) == standard_form("u2")
    with pytest.raises(ValueError, match="is not q"):
        form_on_generators([2], [[F(1, 2)]], [0])
    with pytest.raises(ValueError, match="is not q"):
        form_on_generators([3, 3], [[F(2, 3), 0], [0, F(1, 3)]], [F(2, 3), F(2, 3)])
    with pytest.raises(ValueError, match="not symmetric"):
        form_on_generators([2, 2], [[0, F(1, 2)], [0, 0]], [0, 0])


# Jordan splittings of p-groups against the brute-force oracles ---------------


def _pair_block(pk, v):
    """(Z/pk)^2 with b(x, y) = 1/pk and both squares v: u_k for v = 0, v_k for v = 2/pk."""
    return form_on_generators([pk, pk], [[v, F(1, pk)], [F(1, pk), v]], [v, v])


def _block(draw, p, k, pair):
    """<u/p^k> for a drawn unit u, or for p = 2 and pair the pair u_k or v_k."""
    pk = p ** k
    if pair:
        return _pair_block(pk, F(2 * draw(st.integers(0, 1)), pk))
    if p == 2:
        return cyclic(pk, F(2 * draw(st.integers(0, pk - 1)) + 1, pk))
    return cyclic(pk, F(2 * draw(st.integers(1, pk - 1).filter(lambda u: u % p)), pk))


def _regenerate(draw, f, p):
    """f on randomly changed generators."""
    r = f.ngens
    ops = draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1), st.integers(1, p ** 3)),
                        max_size=3 * r))
    return change_generators(f, p, [(i, j, c if i != j or c % p else c + 1) for i, j, c in ops])


def _scales(draw, p, max_size, pairs):
    """(k, pair) of the blocks of a p-group of size <= max_size, p^k <= p^3."""
    out, size = [], 1
    for k in draw(st.lists(st.integers(1, 3), min_size=1, max_size=6)):
        pair = pairs and draw(st.booleans())
        if size * p ** (k * (1 + pair)) <= max_size:
            size *= p ** (k * (1 + pair))
            out.append((k, pair))
    assume(out)
    return out


@st.composite
def pgroup_forms(draw, p, max_size):
    """An orthogonal sum of blocks <u/p^k> and, for p = 2, of pairs u_k and
    v_k (|G| <= max_size), on changed generators: Z/9, Z/27, Z/25 and the
    like, not only elementary groups."""
    blocks = [_block(draw, p, k, pair) for k, pair in _scales(draw, p, max_size, p == 2)]
    return _regenerate(draw, direct_sum_forms(*blocks), p)


@st.composite
def pgroup_pairs(draw):
    """Two forms on the same p-group (|G| <= 256 for p = 2, <= 243 for odd
    p): the second the first on changed generators, or the same scales, and
    for p = 2 the same pairs, with every unit and each pair's u_k/v_k drawn
    anew."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    scales = _scales(draw, p, 256 if p == 2 else 243, p == 2)
    f = _regenerate(draw, direct_sum_forms(*(_block(draw, p, k, pair) for k, pair in scales)), p)
    if draw(st.booleans()):
        return p, f, _regenerate(draw, f, p)
    return p, f, _regenerate(draw, direct_sum_forms(*(_block(draw, p, k, pair) for k, pair in scales)), p)


_MAX_SIZE = {2: 2 ** 8, 3: 3 ** 5, 5: 5 ** 3, 7: 7 ** 3}
_PGROUPS = st.sampled_from((2, 3, 5, 7)).flatmap(lambda p: pgroup_forms(p, _MAX_SIZE[p]))


@given(st.one_of(elementary_forms(2), elementary_forms(3), _PGROUPS))
@settings(max_examples=150, deadline=None)
def test_tag_accessors_match_the_form(f):
    # p-ranks and elementarity as the form's orders give them, delta2 and
    # (p, q) as the element walks of the oracle do
    tag = _tag(f)
    for p in (2, 3, 5, 7):
        assert tag.p_rank(p) == p_rank(f, p)
        assert tag.is_elementary(p) == is_elementary(p_part(f, p), p)
    f2, f3 = p_part(f, 2), p_part(f, 3)
    if is_elementary(f2, 2):
        assert tag.delta2 == oracle.parity2(f2)
    if is_elementary(f3, 3):
        assert tag.pq3 == oracle.normal_form3(f3)
        assert render_form(f3) == normal_text(f3, 3)
    else:
        with pytest.raises(ValueError, match="not elementary at 3"):
            tag.pq3


@given(_PGROUPS)
@settings(max_examples=150, deadline=None)
def test_split_blocks_are_orthogonal_and_span(f):
    (p,) = prime_factors_of_order(f)
    vecs, blocks = _split(f, p, True)
    assert _split(f, p, False) == (None, blocks)
    for k, u, idx in blocks:
        xs = [vecs[i] for i in idx]
        assert all(f.element_order(x) == p ** k for x in xs)
        if len(xs) == 2:
            x, y = xs
            assert f.b(x, y).denominator == p ** k == 2 ** k
            assert all(f.q(z) * 2 ** (k - 1) % 2 == (u == "v") for z in xs)
        elif p == 2:
            assert f.q(xs[0]) == F(u, p ** k) % 2
        else:
            assert f.b(xs[0], xs[0]) == F(u, p ** k) % 1
    for a, (_k, _u, idx_a) in enumerate(blocks):
        for _k2, _u2, idx_b in blocks[a + 1:]:
            assert all(f.b(vecs[i], vecs[j]) == 0 for i in idx_a for j in idx_b)
    assert len(oracle.subgroup_elements(f, [tuple(v) for v in vecs])) == f.size


@given(_PGROUPS)
@settings(max_examples=150, deadline=None)
def test_brown_matches_gauss_sum(f):
    assert brown(f) == _gauss_brown(f)


def test_brown_of_every_block_matches_gauss_sum():
    # every <u/p^k> with p^k <= 343, and u_k, v_k for 2^k <= 8
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            pk = p ** k
            values = range(1, 2 * pk, 2) if p == 2 else range(2, 2 * pk, 2)
            blocks = [cyclic(pk, F(v, pk)) for v in values if v % p]
            if p == 2:
                blocks += [_pair_block(pk, F(0)), _pair_block(pk, F(2, pk))]
            for f in blocks:
                assert brown(f) == _gauss_brown(f), (f.orders, f.gram)


# b(x, x) has order 2 on Z/4 and order 3 on Z/9: x of order 4 or 9 pairs to 0 with 2x or 3x
_DEGENERATE = (form_on_generators([4], [[F(1, 2)]], [F(1, 2)]), form_on_generators([9], [[F(1, 3)]], [F(4, 3)]))


def test_split_rejects_degenerate_p_groups():
    for f in _DEGENERATE:
        with pytest.raises(ValueError, match="degenerate"):
            brown(f)


def _permuted(f, perm):
    """f with its generators relabelled in the order perm (no change of basis)."""
    return FiniteQuadraticForm(tuple(f.orders[i] for i in perm), f.n,
                               tuple(tuple(f.gram[i][j] for j in perm) for i in perm))


_SUMMAND_SIZE = {2: 2 ** 5, 3: 3 ** 3, 5: 5 ** 2, 7: 7 ** 2}


@st.composite
def interleaved_form_sums(draw):
    """An orthogonal sum of 1-4 p-group forms of mixed primes and exponents,
    each on changed generators, with the generators of the sum permuted so
    that the summands interleave."""
    parts = draw(st.lists(st.sampled_from((2, 3, 5, 7)).flatmap(lambda p: pgroup_forms(p, _SUMMAND_SIZE[p])),
                          min_size=1, max_size=4))
    f = direct_sum_forms(*parts)
    return _permuted(f, draw(st.permutations(range(f.ngens))))


@given(interleaved_form_sums())
@settings(max_examples=150, deadline=None)
def test_brown_per_summand_matches_whole_form_splitting(f):
    jordan_record.cache_clear()
    cold = brown(f)
    assert brown(f) == cold == oracle.jordan_brown(f)
    if f.size <= 1024:
        assert cold == _gauss_brown(f)


@given(interleaved_form_sums(), st.sampled_from(_DEGENERATE), st.data())
@settings(max_examples=150, deadline=None)
def test_jordan_record_matches_the_whole_form_route(f, bad, data):
    primes = (2, 3, 5, 7)
    expected = [oracle.jordan_brown(f)] + [oracle.jordan_symbol(f, p) for p in primes]
    jordan_record.cache_clear()
    for _memo in ("cold", "warm"):
        assert [brown(f)] + [jordan_symbol(f, p) for p in primes] == expected
    # a degenerate summand raises, next to memoized good ones
    g = direct_sum_forms(f, bad)
    g = _permuted(g, data.draw(st.permutations(range(g.ngens))))
    (p,) = prime_factors_of_order(bad)
    for _memo in ("cold", "warm"):
        with pytest.raises(ValueError, match="degenerate"):
            brown(g)
        with pytest.raises(ValueError, match="degenerate"):
            jordan_symbol(g, p)


def test_brown_rejects_a_degenerate_summand_of_a_sum():
    good = standard_form("u2+<2/3>+<-1/2>")
    brown(good)  # its summands are in the memo
    for bad in _DEGENERATE:
        f = direct_sum_forms(good, bad)
        for perm in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
            with pytest.raises(ValueError, match="degenerate"):
                brown(_permuted(f, perm))


_OFF_ITS_EXPONENT = """
from zlat.forms import FiniteQuadraticForm, brown, jordan_symbol, p_part
# the 3-part of each, on Z/3 or (Z/3)^2 with n/3 = 6/3 = 2, has an odd entry: the square 5, the pairing 1
for f in (FiniteQuadraticForm((2, 3), 6, ((3, 0), (0, 5))),
          FiniteQuadraticForm((2, 3, 3), 6, ((3, 0, 0), (0, 4, 1), (0, 1, 4)))):
    for read in (brown, lambda f: jordan_symbol(f, 3), lambda f: p_part(f, 3)):
        try:
            print(read(f))
        except ValueError as e:
            print(e)
"""


def test_brown_and_the_symbols_reject_a_gram_off_its_exponent_under_python_O():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", _OFF_ITS_EXPONENT], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "3-part gram is not divisible by n/3 = 2\n" * 6


@given(_PGROUPS, st.data())
@settings(max_examples=100, deadline=None)
def test_jordan_symbol_invariant_under_change_of_generators(f, data):
    (p,) = prime_factors_of_order(f)
    assert jordan_symbol(_regenerate(data.draw, f, p), p) == jordan_symbol(f, p)


@given(oracle_lattices(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_jordan_symbol_invariant_under_basis_change_of_the_lattice(l, rng):
    assume(l.rank > 1)
    f, g = discriminant_form(l), discriminant_form(random_basis_change(l, rng, 2 * l.rank))
    for p in prime_factors_of_order(f):
        assert jordan_symbol(f, p) == jordan_symbol(g, p)


@given(pgroup_pairs())
@settings(max_examples=100, deadline=None)
def test_jordan_symbols_equal_exactly_for_isometric_forms(case):
    p, f, g = case
    assert (jordan_symbol(f, p) == jordan_symbol(g, p)) == oracle.isometric(f, g)


def test_2adic_symbols_equal_exactly_for_isometric_forms_up_to_64():
    # every sum of <u/2^k> (u = 1, 3, 5, 7 mod 2^(k+1)), u_k and v_k with |G| <= 64:
    # each form is isometric to the first of its symbol, and no two symbols' firsts are
    atoms = []
    for k in range(1, 7):
        pk = 2 ** k
        atoms += [(pk, cyclic(pk, F(u, pk))) for u in range(1, min(2 * pk, 8), 2)]
        if k <= 3:
            atoms += [(pk * pk, _pair_block(pk, F(0))), (pk * pk, _pair_block(pk, F(2, pk)))]
    sums = []

    def grow(start, size, chosen):
        if chosen:
            sums.append(direct_sum_forms(*chosen))
        for i in range(start, len(atoms)):
            if size * atoms[i][0] <= 64:
                grow(i, size * atoms[i][0], chosen + [atoms[i][1]])

    grow(0, 1, [])
    classes = {}
    for f in sums:
        classes.setdefault(jordan_symbol(f, 2), []).append(f)
    assert (len(sums), len(classes)) == (511, 200)
    for first, *rest in classes.values():
        assert all(oracle.isometric(first, g) for g in rest)
    firsts = [fs[0] for fs in classes.values()]
    for i, f in enumerate(firsts):
        assert not any(sorted(f.orders) == sorted(g.orders) and oracle.isometric(f, g) for g in firsts[i + 1:])


# a sum keeps its summands -------------------------------------------------------

def _unsummed(f):
    """The value of f as raw input gives it: no summands, so `brown` walks its gram."""
    return FiniteQuadraticForm(f.orders, f.n, f.gram)


def _assert_flat_summands(f):
    """f names its summands, none of them a sum, and their generators are f's, in order."""
    assert f.summands and all(not s.summands for s in f.summands)
    assert tuple(d for s in f.summands for d in s.orders) == f.orders
    assert not _unsummed(f).summands


@given(st.lists(st.sampled_from(CATALOG + ["E8", "D5", "<-6>", "A2(2)", "U(3)"]), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_brown_of_a_parsed_sum_matches_the_raw_form(names):
    l = parse_lattice_expr("+".join(names))
    f = discriminant_form(l)
    _assert_flat_summands(f)
    assert len(f.summands) == len(l.orthogonal_split()) == len(names)
    assert brown(f) == brown(_unsummed(f))


def _block_forms_of_random_lattices():
    return oracle_lattices().map(lambda l: block_form(l.gram))


_NESTED_SUMS = st.recursive(
    st.one_of(st.sampled_from(sorted(ATOMS.values(), key=repr)), _block_forms_of_random_lattices()),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(lambda fs: direct_sum_forms(*fs)),
    max_leaves=8)


@given(_NESTED_SUMS)
@settings(max_examples=150, deadline=None)
def test_brown_of_nested_form_sums_matches_the_raw_form(f):
    if f.summands:  # a leaf is an atom or a block form, which is no sum
        _assert_flat_summands(f)
    assert brown(f) == brown(_unsummed(f)) == oracle.jordan_brown(f)


def test_brown_of_summands_of_different_exponents():
    # A1 (Z/2), A2 (Z/3) and <-6> (Z/6): exponents 2, 3 and 6 in one sum over n = 6
    l = parse_lattice_expr("A1+A2+<-6>")
    parts = [discriminant_form(parse_lattice_expr(t)) for t in ("A1", "A2", "<-6>")]
    for f in (discriminant_form(l), direct_sum_forms(*parts), direct_sum_forms(parts[0], direct_sum_forms(*parts[1:]))):
        assert f.n == 6 and [s.n for s in f.summands] == [2, 3, 6]
        assert brown(f) == brown(_unsummed(f)) == _gauss_brown(f) == 4  # signature (0, 4)


def test_a_sum_walks_no_whole_matrix(monkeypatch):
    """Parse, discriminant form, Brown, 2-rank and signature of catalog sums, as
    the benchmark's sweep runs them, never walk, check or build a whole Gram
    matrix, of the lattice or of its form, nor the form's lift columns: the
    blocks' memos answer.  Raw input is still checked in full."""
    from zlat import lattice
    from zlat.classify import block_multisets
    from zlat.lattice import make_lattice

    texts = list(CATALOG) + ["+".join(b) for b in block_multisets(CATALOG, 10)[1::97]] + ["2A2(2)+U(3)+<-6>"]

    def sweep():
        values = []
        for text in texts:
            l = parse_lattice_expr(text)
            f = discriminant_form(l)
            np_, nm = signature(l)
            assert brown(f) == (np_ - nm) % 8 and p_rank(f, 2) % 2 == l.rank % 2
            values.append((l, f))
        return values

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    sweep()  # builds the catalog atoms, each validated once
    calls = Counter()
    # _block_gram lays out a block-built lattice's Gram matrix, and the fills
    # of the lazy fields gram, lift_cols and entries a sum form's gram and
    # lifts and a form's entries
    fields = vars(FiniteQuadraticForm)
    for module, name in ((exact, "components"), (exact, "is_symmetric"), (lattice, "_block_gram"),
                         (fields["gram"], "fill"), (fields["lift_cols"], "fill"), (fields["entries"], "fill")):
        monkeypatch.setattr(module, name, counted(module, name))
    for memo in (lattice.parse_lattice_expr, jordan_record):
        memo.cache_clear()
    values = sweep()
    assert calls == Counter()
    # nor by any other route: no sum holds a dense field or its entries
    assert not [l for l, f in values if "gram" in vars(l) or {"gram", "lift_cols", "entries"} & set(vars(f))]
    with pytest.raises(ValueError, match="gram matrix not symmetric"):
        make_lattice([[2, 1], [0, 2]])
    with pytest.raises(ValueError, match="degenerate gram matrix"):
        make_lattice([[2, 2], [2, 2]])
    assert calls["is_symmetric"] == 2


# b and q over the nonzero entries against the dense loops ---------------------


@st.composite
def entry_cases(draw):
    """A form, two vectors with negative and unreduced coefficients, each a
    tuple or a list, and whether the form is a sum whose gram was never read.
    The forms: the discriminant form of an `oracle_lattices` lattice (a sum of
    its blocks' forms), the same as raw input, a fresh `direct_sum_forms` of
    it with an atom, a p-part of that, an isotropic quotient of it, its
    negative (`forms._negated`), and sums of `ATOMS`."""
    from zlat import forms

    base = discriminant_form(draw(oracle_lattices()))
    atoms = st.sampled_from(sorted(ATOMS.values(), key=repr))
    isotropic = [x for x in itertools.islice(base.elements(), 200) if any(x) and base.q(x) == 0]
    h = [draw(st.sampled_from(isotropic))] if isotropic and draw(st.booleans()) else []
    builds = {"sum": lambda: base, "raw": lambda: _unsummed(base),
              "fresh": lambda: direct_sum_forms(base, draw(atoms)),
              "p-part": lambda: p_part(direct_sum_forms(base, draw(atoms)), draw(st.sampled_from((2, 3)))),
              "quotient": lambda: isotropic_quotient(base, h), "negated": lambda: forms._negated(base),
              "atoms": lambda: direct_sum_forms(*draw(st.lists(atoms, min_size=1, max_size=4)))}
    f = builds[draw(st.sampled_from(sorted(builds)))]()
    vector = st.tuples(*[st.integers(-3 * d, 3 * d) for d in f.orders]).flatmap(
        lambda x: st.sampled_from((x, list(x))))
    return f, draw(vector), draw(vector), bool(f.summands) and "gram" not in vars(f)


@given(entry_cases())
@settings(max_examples=300, deadline=None)
def test_b_and_q_over_the_entries_match_the_dense_loops(case):
    f, x, y, lazy = case
    got = (f.q(x), f.b(x, y), f.q_numer(x), f.b_numer(x, y), f.b_numer(y, x))
    # a sum whose gram was never read evaluates without laying it out
    assert not lazy or "gram" not in vars(f)
    q, b = oracle.q_numer(f, x), oracle.b_numer(f, x, y)
    assert got == (F(q, f.n), F(b, f.n), q, b, oracle.b_numer(f, y, x))
    diag, offs = f.entries
    assert list(diag) == [row[i] for i, row in enumerate(f.gram)] and all(i < j and g for i, j, g in offs)
    assert {(i, j): g for i, j, g in offs} == {
        (i, j): g for i, row in enumerate(f.gram) for j, g in enumerate(row) if i < j and g}


def test_b_and_q_over_the_entries_spot_values():
    # u2 + A2(2): both off-diagonal terms of b and the factor 2 of q's
    f = direct_sum_forms(ATOMS["u2"], discriminant_form(parse_lattice_expr("A2(2)")))
    assert f.entries == ((0, 0, 6, 10), ((0, 1, 3), (2, 3, 3)))
    assert "gram" not in vars(f)
    assert (f.q((1, 1, 0, 0)), f.q([0, 0, 1, 1]), f.q((0, 0, -1, 7))) == (F(1), F(5, 3), F(5, 3))
    assert (f.b((1, 0, 0, 0), [0, 1, 0, 0]), f.b((0, 0, 1, 0), (0, 0, 0, 1))) == (F(1, 2), F(1, 2))
    assert (f.b_numer((0, 0, 0, 1), (0, 0, 1, 0)), f.q_numer((0, 0, 1, 1))) == (3, 10)


def test_evaluating_a_form_fills_its_entries_once(monkeypatch):
    lazy = vars(FiniteQuadraticForm)["entries"]
    fills = Counter()
    real = lazy.fill

    def counted(f):
        fills[id(f)] += 1
        real(f)

    monkeypatch.setattr(lazy, "fill", counted)
    f = discriminant_form(parse_lattice_expr("4A2+A2(2)"))
    evaluated = [direct_sum_forms(f, ATOMS["v2"]), _unsummed(f), standard_form("<1/2>+u2")]
    for g in evaluated:
        for x in itertools.islice(g.elements(), 50):
            g.q(x), g.q_numer(x), g.b(x, x), g.b_numer(x, g.units[0]), is_isotropic_subgroup(g, [x])
    assert fills == Counter({id(g): 1 for g in evaluated})


def test_a_lazy_sum_is_a_value_like_any_other():
    """A block-built lattice and a sum form hold their blocks and build their
    dense fields on first read.  Read first by equality (on either side),
    hash, repr or any field, each is the value the same dense data makes
    directly; rank, evenness and det build nothing."""
    from zlat.classify import block_multisets
    from zlat.lattice import EMPTY, direct_sum, make_lattice

    def same_whatever_is_read_first(build, dense, fields):
        for read in (lambda v: v == dense, lambda v: dense == v, hash, repr) + fields:
            value = build()
            read(value)
            assert [value, hash(value), repr(value)] + [field(value) for field in fields] == [
                dense, hash(dense), repr(dense)] + [field(dense) for field in fields]

    lattice_fields = (lambda l: l.gram, lambda l: l.rank, lambda l: l.is_even, lambda l: l.det())
    form_fields = (lambda f: f.orders, lambda f: f.n, lambda f: f.gram, lambda f: f.lift_cols)
    texts = ["+".join(b) for b in block_multisets(CATALOG, 10)[1::97]]
    builds = [lambda t=t: direct_sum(parse_lattice_expr(t)) for t in texts] + [
        lambda: direct_sum(parse_lattice_expr("U(2)+A2"), direct_sum(named("D4"), parse_lattice_expr("2<-6>"))),
        lambda: direct_sum(EMPTY), lambda: direct_sum(parse_lattice_expr("E6")), lambda: direct_sum(named("A1"))]
    for build in builds:
        l = build()
        l.rank, l.is_even, l.det()
        assert "gram" not in vars(l)
        same_whatever_is_read_first(build, make_lattice(build().gram, l.expr), lattice_fields)
        f = discriminant_form(build())
        assert "gram" not in vars(f) and "lift_cols" not in vars(f)
        raw = FiniteQuadraticForm(f.orders, f.n, f.gram, f.lift_cols)
        same_whatever_is_read_first(lambda: discriminant_form(build()), raw, form_fields)
    # sums of forms, flat and nested, against the form of the lattice sum: lift places compose
    for triple in zip(builds, builds[1:], builds[2:]):
        for parts in (triple[:2], triple):
            fs = [discriminant_form(part()) for part in parts]
            g = discriminant_form(direct_sum(*[part() for part in parts]))
            lifts = g.lift_cols if all(h.lift_cols is not None for h in fs) else None
            for summed in (lambda: direct_sum_forms(*fs), lambda: direct_sum_forms(direct_sum_forms(*fs[:2]), *fs[2:])):
                f = summed()
                assert (f.orders, f.n, f.gram, f.lift_cols) == (g.orders, g.n, g.gram, lifts)
                same_whatever_is_read_first(summed, FiniteQuadraticForm(f.orders, f.n, f.gram, f.lift_cols),
                                            form_fields)


# sha256 of the repr of the lists of Brown, signature, discriminant form
# (orders, n, gram, lift_cols) and genus tag over every 31st catalog sum of
# rank <= 10, as the dense sums computed them
_SWEEP_DIGESTS = (
    "0f6419331820bf6077ec8160ef3d64e320e35697491f592d20a20af7cbee851c",
    "ee768ace5138c64738eb4d33f486be91acb74abae9c43f1d07e271ce4c51a36c",
    "9060b06dcae735632b3f5f77e55118f5f47598e202869c48a404befeeb997329",
    "b29879311eb8029511d01248602d151f6913af38c831b2f9f1c549170d591810",
)


def test_sweep_values_are_pinned():
    import hashlib

    from zlat.classify import block_multisets

    values = ([], [], [], [])
    for blocks in block_multisets(CATALOG, 10)[1::31]:
        l = parse_lattice_expr("+".join(blocks))
        f = discriminant_form(l)
        for out, value in zip(values, (brown(f), signature(l), (f.orders, f.n, f.gram, f.lift_cols), genus_tag(l))):
            out.append(value)
    assert tuple(hashlib.sha256(repr(v).encode()).hexdigest() for v in values) == _SWEEP_DIGESTS


def test_jordan_symbol_of_a_sum_reads_its_summands(monkeypatch):
    """The symbol of a sum, parsed or built by `direct_sum_forms` (flat or
    nested), is that of the whole form's own record and of the oracle's
    splitting of the whole p-part, and reading it builds no dense gram."""
    from zlat.classify import block_multisets

    texts = ["+".join(b) for b in block_multisets(CATALOG, 10)[5::89]] + [
        "2A2(2)+U(3)+<-6>", "A1+A2+<-6>", "U(4)+<12>+D5", "E8", "U"]

    def sums():
        parsed = [discriminant_form(parse_lattice_expr(t)) for t in texts]
        flat = [direct_sum_forms(*parsed[i:i + 3]) for i in range(0, len(parsed) - 2, 5)]
        nested = [direct_sum_forms(direct_sum_forms(parsed[i], ATOMS["v2"]), direct_sum_forms(parsed[i + 1], flat[0]))
                  for i in range(0, len(parsed) - 1, 7)]
        return parsed + flat + nested + [direct_sum_forms(nested[0], standard_form("<2/3>+u2"))]

    summed = Counter()
    fields = vars(FiniteQuadraticForm)

    def counted(name):  # the fill of a sum's gram or lift columns
        real = fields[name].fill

        def fill(f):
            summed[len(f.orders), name] += 1
            real(f)

        return fill

    for name in ("gram", "lift_cols"):
        monkeypatch.setattr(fields[name], "fill", counted(name))
    jordan_record.cache_clear()
    lazy = sums()
    symbols = [{p: jordan_symbol(f, p) for p in (2, 3, 5, 7)} for f in lazy]
    assert not summed and all(f.summands for f in lazy)
    for f, got in zip(sums(), symbols):
        whole = FiniteQuadraticForm(f.orders, f.n, f.gram, f.lift_cols)
        assert not whole.summands
        assert got == {p: jordan_symbol(whole, p) for p in got} == {p: oracle.jordan_symbol(whole, p) for p in got}


def test_p_parts_and_lifts_of_a_sum_read_its_summands(monkeypatch):
    """The p-part of a sum is the sum of its summands' p-parts in their
    places, and a sum's lift vectors add its summands' lift columns at their
    places: both equal the dense form's, and neither builds the sum's gram or
    lift columns."""
    from zlat.classify import block_multisets
    from zlat.lattice import direct_sum, make_lattice

    texts = ["+".join(b) for b in block_multisets(CATALOG, 10)[7::97]] + ["2A2(2)+U(3)+<-6>", "A1+A2+<-6>", "E8+U"]
    lattices = [parse_lattice_expr(t) for t in texts]
    lattices += [direct_sum(lattices[0], make_lattice([[2, 0, 1], [0, -2, 0], [1, 0, 2]]), lattices[-2])]

    def sums():
        fs = [discriminant_form(l) for l in lattices]
        return fs + [direct_sum_forms(fs[0], direct_sum_forms(fs[1], fs[-1])), direct_sum_forms(fs[2], ATOMS["u2"])]

    rng = random.Random(28)
    lazy = sums()
    elements = [[tuple(rng.randrange(d) for d in f.orders) for _ in range(3)] + list(f.units) for f in lazy]
    summed = Counter()
    fields = vars(FiniteQuadraticForm)

    def counted(name):  # the fill of a sum's gram or lift columns
        real = fields[name].fill

        def fill(f):
            summed[name] += 1
            real(f)

        return fill

    def lifts(f, xs):
        try:
            return [f.lift_vector(x) for x in xs]
        except ValueError as e:
            return str(e)

    for name in ("gram", "lift_cols"):
        monkeypatch.setattr(fields[name], "fill", counted(name))
    parts = [[p_part(f, p) for p in (2, 3, 5)] for f in lazy]
    vectors = [lifts(f, xs) for f, xs in zip(lazy, elements)]
    assert not summed and all(f.summands for f in lazy)
    for f, got, xs, vs in zip(sums(), parts, elements, vectors):
        raw = FiniteQuadraticForm(f.orders, f.n, f.gram, f.lift_cols)
        for p, part in zip((2, 3, 5), got):
            dense = p_part(raw, p)
            assert (part.orders, part.n, part.gram, part.lift_cols) == (dense.orders, dense.n, dense.gram,
                                                                        dense.lift_cols)
            assert lifts(part, [x[:len(part.orders)] for x in xs]) == lifts(dense, [x[:len(dense.orders)] for x in xs])
        assert vs == lifts(raw, xs)
