import random
from functools import lru_cache

import pytest
import stability_oracle
from exact_oracle import determinant

from zlat import golden
from zlat.classify import enumerate_ascending_t_pairs
from zlat.lattice import make_lattice, parse_lattice_expr, signature
from zlat.stability import (
    _small_rank_certificate,
    gauss_reduce_binary,
    genus_tag,
    invariants,
    isomorphic_in_genus,
    miranda_morrison_stable,
    nikulin_stable,
    stability_certificate,
)


def L(expr):
    return parse_lattice_expr(expr)


def small_rank_stable(l):
    return _small_rank_certificate(l) is not None


def test_nikulin():
    assert nikulin_stable(L("U+3A2"))
    assert not nikulin_stable(L("<6>"))  # definite, rank 1
    assert not nikulin_stable(L("U(3)"))  # r_3 = r = 2
    assert nikulin_stable(L("U(2)"))  # r_2 = r = 2 but discr2 = u2
    assert nikulin_stable(L("U+2<-2>"))


def test_miranda_morrison():
    assert miranda_morrison_stable(L("U(3)+A1"))
    assert miranda_morrison_stable(L("U+3A1"))
    assert not miranda_morrison_stable(L("<6>+2<-6>"))  # r2 = r3 = r = 3
    assert not miranda_morrison_stable(L("U(2)"))  # rank 2
    assert miranda_morrison_stable(L("U(3)+D4"))


def test_small_rank():
    assert small_rank_stable(L("U(6)"))  # divide by 6 -> U
    assert small_rank_stable(L("<2>+3<-2>"))  # divide by 2 -> odd unimodular hyperbolic
    assert small_rank_stable(L("<2>+<-6>"))  # halve, then |det| = 3 binary reduction
    assert small_rank_stable(L("<6>+<-2>"))
    assert small_rank_stable(L("<6>+3<-6>"))  # divide by 6
    assert small_rank_stable(L("<6>"))  # rank 1
    assert not small_rank_stable(L("U+3A2"))  # no divisibility; nikulin's job


def test_odd_quotient_of_even_lattice():
    # U(4)+<4> halves to U(2)+<2> and again to the odd U+<1>, which has no
    # discriminant form: the criteria must decline it, not raise
    l = L("U(4)+<4>")
    assert not miranda_morrison_stable(L("U+<1>"))
    assert stability_certificate(l) == "small-rank:divide-2:criterion"
    assert isomorphic_in_genus(l, l) == "yes"


@lru_cache(maxsize=1)
def _seeded_lattices():
    """400 random even indefinite lattices of rank 3-6 with |det| <= 5000 (seed 1)."""
    rng = random.Random(1)
    out = []
    while len(out) < 400:
        n = rng.randint(3, 6)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = 2 * rng.randint(-5, 5) if i == j else rng.randint(-10, 10)
        if not 0 < abs(determinant(g)) <= 5000:
            continue
        l = make_lattice(g)
        if 0 not in signature(l):
            out.append(l)
    return tuple(out)


@lru_cache(maxsize=1)
def _census_and_table5_lattices():
    """The 136 witnesses of the 68 census pairs, then the 89 lattices that
    the published Table 5 lists (every cell but "-" and "*")."""
    witnesses = [l for pair in enumerate_ascending_t_pairs() for l in (pair.witness_plus, pair.witness_minus)]
    cells = [L(cell) for _p, rows in golden.TABLE_5.values() for _d2, _rr2, row in rows
             for cell in row if cell not in ("-", "*")]
    return tuple(witnesses + cells)


def test_certificate_never_raises_on_random_even_indefinite():
    for l in _seeded_lattices():
        cert = stability_certificate(l)
        assert cert is None or isinstance(cert, str)


def _invariants_or_raise(reader, l):
    try:
        return reader(l)
    except ValueError:
        return "raises"


@pytest.mark.parametrize("lattices", [_seeded_lattices, _census_and_table5_lattices], ids=["seeded", "census"])
def test_tag_readers_match_whole_form_oracle(lattices):
    # invariants and certificates read off the genus tag, against the readers
    # of the whole discriminant form they replace
    for l in lattices():
        assert _invariants_or_raise(invariants, l) == _invariants_or_raise(stability_oracle.invariants, l), l
        assert stability_certificate(l) == stability_oracle.stability_certificate(l), l


def test_genus_classes_of_census_and_table5():
    # 225 lattices in 89 genera, and the invariants (r, r2, delta2, p, q)
    # partition them as the genus tags do
    lattices = _census_and_table5_lattices()
    by_tag, by_invariants = {}, {}
    for i, l in enumerate(lattices):
        by_tag.setdefault(genus_tag(l), set()).add(i)
        by_invariants.setdefault(invariants(l), set()).add(i)
    assert len(lattices) == 225 and len(by_tag) == 89
    assert sorted(map(sorted, by_tag.values())) == sorted(map(sorted, by_invariants.values()))


def test_gauss_reduction_lands_diagonal():
    # indefinite |det| 3 forms land on <+-1>+<-+3> with b = 0 ("0 <= b <= sqrt 3")
    for a, b, c in ((1, 0, -3), (3, 1, -2), (-1, 1, 2), (1, 2, 1)):
        ra, rb, rc = gauss_reduce_binary(a, b, c)
        assert ra * rc - rb * rb == a * c - b * b  # discriminant preserved
        assert 2 * rb <= abs(ra) <= abs(rc)
        if a * c - b * b == -3:
            assert rb == 0 and {abs(ra), abs(rc)} == {1, 3}


def test_remark_62_isomorphisms():
    pairs = [
        ("<6>+A2", "U(3)+A1"),
        ("<2>+A2", "U+<-6>"),
        ("<6>+A2(2)", "<2>+2<-6>"),
        ("<2>+A2(2)", "<6>+2A1"),
    ]
    for a, b in pairs:
        assert isomorphic_in_genus(L(a), L(b)) == "yes", (a, b)


def test_u2_u6_rewriting_rules():
    # U(2)+L = <2>+A1+L and U(6)+L = <6>+<-6>+L for L with odd discr2
    for tail in ("A1", "<-6>"):
        assert isomorphic_in_genus(L(f"U(2)+{tail}"), L(f"<2>+A1+{tail}")) == "yes"
        assert isomorphic_in_genus(L(f"U(6)+{tail}"), L(f"<6>+<-6>+{tail}")) == "yes"


def test_no_when_genus_differs():
    assert isomorphic_in_genus(L("U"), L("U(3)")) == "no"
    assert isomorphic_in_genus(L("<2>"), L("<-2>")) == "no"
    assert isomorphic_in_genus(L("U(2)"), L("D4")) == "no"  # Brown 0 vs 4


def test_no_when_units_lie_in_different_square_classes():
    # the Z/5^8 parts carry the units -2 and -6, a non-square and a square mod 5
    a, b = L("U+<-781250>+<-6>"), L("U+<-2343750>+<-2>")
    assert isomorphic_in_genus(a, b) == "no"
    assert dict(genus_tag(a).parts)[5] != dict(genus_tag(b).parts)[5]


def test_no_when_2adic_units_differ_by_a_non_square():
    # both Z/2^15 with Brown 7 and certified by nikulin: the units 7 and 3
    # differ by a non-square mod 8, which only the 2-adic symbol sees
    a, b = L("U+<-32768>"), make_lattice([[-386, 1, 0], [1, -2, 1], [0, 1, 42]])
    assert signature(a) == signature(b) == (1, 2)
    assert isomorphic_in_genus(a, b) == "no"
    assert dict(genus_tag(a).parts)[2] == ((32768, 1, 1, 1, 7),)
    assert dict(genus_tag(b).parts)[2] == ((32768, 1, -1, 1, 3),)


def test_symmetric_and_reflexive():
    exprs = ["U", "U(3)+A1", "<6>+A2", "U+3A2", "<2>+<-6>"]
    for a in exprs:
        assert isomorphic_in_genus(L(a), L(a)) == "yes"
        for b in exprs:
            ab = isomorphic_in_genus(L(a), L(b))
            ba = isomorphic_in_genus(L(b), L(a))
            if "yes" in (ab, ba):
                assert ab == ba


def test_invariants_quintuple():
    assert invariants(L("U")) == (2, 0, 0, 0, 0)
    assert invariants(L("U(3)+2A2+A1")) == (7, 1, 1, 1, 3)
    assert invariants(L("<6>+D4")) == (5, 3, 1, 1, 0)
    assert invariants(L("U(6)+A2(2)")) == (4, 4, 0, 0, 3)
    assert invariants(L("U(2)+A2(2)")) == (4, 4, 0, 1, 0)
    assert invariants(L("U(3)+A2(2)")) == (4, 2, 0, 0, 3)


def test_certificates_exist_for_table6_hard_cases():
    hard = [
        "<2>", "<6>", "U(2)", "U(6)", "<2>+A1", "<2>+<-6>", "<6>+A1", "<6>+<-6>",
        "U(3)", "U(3)+A2", "U(3)+A1", "U(3)+<-6>", "U(3)+A2+<-6>", "U(3)+A2(2)",
        "U(6)+A2", "U(3)+A1+<-6>", "U(3)+2<-6>", "<2>+2<-6>", "<6>+A1+<-6>",
        "<6>+2<-6>", "U(3)+A1+2<-6>", "U(6)+A2(2)", "<2>+3<-6>", "<6>+A1+2<-6>",
        "<6>+3<-6>", "U(6)+A1+2<-6>",
    ]
    for expr in hard:
        assert stability_certificate(L(expr)) is not None, expr


def test_genus_tag_detects_scale():
    assert genus_tag(L("A2")) != genus_tag(L("A2(2)"))
    assert genus_tag(L("U+A2")) == genus_tag(L("U+A2"))


def test_presentations_of_t():
    # the orthogonal complement of the cusp resolution: three presentations
    t = L("U+U(3)+2A2+A1")
    assert isomorphic_in_genus(t, L("<6>+U+3A2")) == "yes"
    assert isomorphic_in_genus(t, L("A2(-1)+3A2+A1")) == "yes"
    assert isomorphic_in_genus(L("2U+U(3)+2A2"), t) == "no"  # that one is T'


def test_genus_tag_invariant_under_basis_change_large():
    # elementary parts of size 2^12 and 3^8, and non-elementary 2-parts
    # (Z/4 + Z/8^2, Z/2 + Z/4^4, Z/2^15) go through the Jordan splitting
    import random

    from forms_oracle import random_basis_change

    rng = random.Random(3)
    for expr in ("U+12A1", "U+8A2", "U+U(8)+<-4>", "U+2U(4)+A1", "U+<-32768>"):
        l = L(expr)
        tag = genus_tag(l)
        for _ in range(3):
            assert genus_tag(random_basis_change(l, rng, 2 * l.rank)) == tag
