import itertools
import random
import re
from collections import Counter

import exact_oracle
import lattice_oracle
import pytest
from forms_oracle import random_basis_change
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_oracle import hyperbolic_branch, rescale

from zlat import exact, forms, lattice, stability, tables
from zlat.classify import CATALOG
from zlat.lattice import (
    EMPTY,
    MEMO_SIZE,
    ExprError,
    direct_sum,
    divide,
    extension_by_fraction,
    is_divisible_by,
    make_lattice,
    named,
    orthogonal_complement,
    overlattice,
    parse_lattice_expr,
    primitive_closure,
    signature,
    sublattice,
)


def test_named_u():
    assert named("U").gram_rows() == [[0, 1], [1, 0]]


def test_named_a1():
    assert named("A1").gram_rows() == [[-2]]


def test_named_e8_unimodular_even_definite():
    e8 = named("E8")
    assert e8.rank == 8
    assert e8.det() == 1
    assert e8.is_even
    assert exact.inertia_det(e8.gram_rows())[:3] == (0, 0, 8)


def test_catalog_classical_dets():
    assert named("U").det() == -1
    for n in range(1, 9):
        assert abs(named(f"A{n}").det()) == n + 1
    for n in (4, 5, 6, 7):
        assert abs(named(f"D{n}").det()) == 4
    assert abs(named("E6").det()) == 3
    assert abs(named("E7").det()) == 2
    assert named("<5>").det() == 5
    for name in ("U", "A3", "D4", "E6", "E7", "E8", "<2>", "<-6>"):
        assert named(name).is_even


def test_named_unknown():
    for bad in ("A0", "D3", "E5", "E9", "<0>", "F4"):
        with pytest.raises(ValueError):
            named(bad)


@pytest.mark.parametrize("spec, expr, rank", [("U", "U", 2), (" A2 ", "A2", 2), ("A01", "A01", 1), ("E06", "E06", 6),
                                              ("<007>", "<007>", 1), ("<-6>", "<-6>", 1)])
def test_named_reads_one_atom(spec, expr, rank):
    l = named(spec)
    assert (l.expr, l.rank) == (expr, rank)
    assert l.gram == parse_lattice_expr(spec).gram


@pytest.mark.parametrize("spec, message", [
    ("A0", "unknown lattice name 'A0'"), ("A00", "unknown lattice name 'A0'"), ("D3", "unknown lattice name 'D3'"),
    ("E5", "unknown lattice name 'E5'"), ("E9", "unknown lattice name 'E9'"), ("<0>", "<0> is degenerate"),
    ("<>", "unknown lattice name '<>'"), ("2A2", "unknown lattice name '2A2'"),
    ("U(3)", "unknown lattice name 'U(3)'"), ("A1+A2", "unknown lattice name 'A1+A2'"),
    ("", "unknown lattice name ''"), ("X", "unknown lattice name 'X'"),
])
def test_named_rejects_all_but_a_catalog_atom(spec, message):
    with pytest.raises(ValueError) as err:
        named(spec)
    assert type(err.value) is ValueError and str(err.value) == message


def test_direct_sum_block():
    s = direct_sum(named("U"), named("A2"))
    assert s.rank == 4
    assert s.gram_rows() == [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, -2, 1],
        [0, 0, 1, -2],
    ]
    assert direct_sum(named("U")).gram_rows() == named("U").gram_rows()
    two_a2 = direct_sum(named("A2"), named("A2"))
    assert two_a2.rank == 4
    assert two_a2.det() == 9  # det multiplicativity: 3 * 3


def test_rescale():
    assert rescale(named("U"), 3).gram_rows() == [[0, 3], [3, 0]]
    assert rescale(named("A2"), 2).gram_rows() == [[-4, 2], [2, -4]]
    assert rescale(named("A2"), 1).gram_rows() == named("A2").gram_rows()
    with pytest.raises(ValueError):
        rescale(named("U"), 0)


def test_extension_by_fraction_6a2():
    # [6A2]_{sigma/3}: sigma = sum of (e_i' - e_i''), |discr| drops by 3^2
    l = parse_lattice_expr("6A2")
    sigma = [1, -1] * 6
    ext = extension_by_fraction(l, sigma, 3)
    assert ext.rank == 12
    assert ext.is_even
    assert abs(ext.det()) == 3**6 // 9


def test_extension_3a22_is_e62():
    # [3A2(2)]_{sigma/3} has the rank/det of E6(2); genus equality checked in stability tests
    l = parse_lattice_expr("3A2(2)")
    sigma = [1, -1] * 3
    ext = extension_by_fraction(l, sigma, 3)
    e62 = parse_lattice_expr("E6(2)")
    assert ext.rank == e62.rank == 6
    assert ext.det() == e62.det()
    assert ext.is_even


def test_extension_precondition_errors():
    l = parse_lattice_expr("A2")
    with pytest.raises(ValueError, match="not divisible by 3"):
        extension_by_fraction(l, [1, 0], 3)
    with pytest.raises(ValueError, match="divisible by 2"):
        extension_by_fraction(parse_lattice_expr("2A1"), [2, 0], 2)


def test_orthogonal_complement_block():
    amb = parse_lattice_expr("<2>+A2")
    sub = sublattice(amb, [[1, 0, 0]])
    comp = orthogonal_complement(sub)
    assert comp.induced_gram() == named("A2").gram_rows()


def test_orthogonal_complement_diagonal_in_u():
    u = named("U")
    comp = orthogonal_complement(sublattice(u, [[1, 1]]))
    assert comp.rank == 1
    assert comp.as_lattice().gram_rows() == [[-2]]


def test_even_minus2_vector_splits():
    # for an even (-2)-element v: L = Zv + complement
    l = parse_lattice_expr("A1+U")
    comp = orthogonal_complement(sublattice(l, [[1, 0, 0]]))
    assert comp.induced_gram() == named("U").gram_rows()


def test_primitive_closure():
    u = named("U")
    s = sublattice(u, [[2, 0]])
    assert primitive_closure(s).rows() == [[1, 0]]
    prim = sublattice(u, [[1, 0]])
    assert primitive_closure(prim).rows() == [[1, 0]]
    full = sublattice(u, [[2, 0], [0, 2]])
    assert primitive_closure(full).rows() == [[1, 0], [0, 1]]


def test_complement_involutive_on_primitive():
    amb = parse_lattice_expr("U+A2+<2>")
    sub = sublattice(amb, [[1, 2, 0, 1, 0], [0, 1, 1, 0, 2]])
    prim = primitive_closure(sub)
    double = orthogonal_complement(orthogonal_complement(prim))
    assert double.rows() == prim.rows()


def test_divisibility_iff_full_p_rank():
    # L divisible by p exactly when the discriminant p-rank equals the rank
    from zlat import forms

    for expr in ("U", "U(2)", "U(3)", "U(6)", "A2", "A2(2)", "2A1", "<6>+<-6>", "U+A2(2)"):
        l = parse_lattice_expr(expr)
        f = forms.discriminant_form(l)
        for p in (2, 3):
            assert is_divisible_by(l, p) == (forms.p_rank(f, p) == l.rank), (expr, p)


def test_divisibility():
    u3 = parse_lattice_expr("U(3)")
    assert is_divisible_by(u3, 3)
    assert divide(u3, 3).gram_rows() == named("U").gram_rows()
    assert not is_divisible_by(named("A2"), 2)
    u6 = parse_lattice_expr("U(6)")
    assert divide(u6, 2).gram_rows() == rescale(named("U"), 3).gram_rows()
    assert divide(u6, 3).gram_rows() == rescale(named("U"), 2).gram_rows()
    with pytest.raises(ValueError):
        divide(named("A2"), 2)


def test_signature_and_hyperbolic():
    assert signature(named("U")) == (1, 1)
    assert hyperbolic_branch(named("U")) is not None
    assert hyperbolic_branch(named("U")) == "strict"
    assert signature(named("E6")) == (0, 6)
    assert hyperbolic_branch(named("E6")) is None
    assert signature(named("<2>")) == (1, 0)
    assert hyperbolic_branch(named("<2>")) == "strict"


def test_parse_expressions():
    l = parse_lattice_expr("U(3)+2A2+A1")
    assert l.rank == 7
    assert l.expr == "U(3)+2A2+A1"
    diag = parse_lattice_expr("<2>+3<-6>")
    assert diag.gram_rows() == [
        [2, 0, 0, 0],
        [0, -6, 0, 0],
        [0, 0, -6, 0],
        [0, 0, 0, -6],
    ]
    assert parse_lattice_expr("U+E6").rank == 8
    assert parse_lattice_expr("2A2(2)").gram_rows() == parse_lattice_expr("A2(2)+A2(2)").gram_rows()


def test_parse_errors_with_position():
    with pytest.raises(ExprError):
        parse_lattice_expr("A0")
    with pytest.raises(ExprError):
        parse_lattice_expr("D3")
    with pytest.raises(ExprError):
        parse_lattice_expr("U+")
    with pytest.raises(ExprError):
        parse_lattice_expr("U(0)")
    with pytest.raises(ExprError):
        parse_lattice_expr("")
    with pytest.raises(ExprError):
        parse_lattice_expr("<0>")


# one-construction parsing against the direct-sum oracle ------------------------

_TERMS = st.builds(
    lambda count, atom, scale, ws: f"{ws}{count}{atom}{scale}{ws}",
    st.sampled_from(("", "1", "2", "3")),
    st.sampled_from(("U", "A1", "A2", "A5", "D4", "D6", "E6", "E7", "E8", "<2>", "<-6>", "<3>")),
    st.sampled_from(("", "(2)", "(-1)", "(3)", "(-6)")),
    st.sampled_from(("", " ")),
)
_FRAGMENTS = ("U", "A", "D", "E", "0", "1", "2", "3", "6", "<", ">", "-", "(", ")", "+", " ",
              "A2", "D4", "E6", "<-6>", "U(3)")


def _parse_outcome(parse, text):
    try:
        l = parse(text)
    except ExprError as e:
        return "error", str(e), e.pos
    return "ok", l.gram, l.expr, l.det(), l.orthogonal_split()


@given(st.lists(_TERMS, min_size=1, max_size=5).map("+".join))
@settings(max_examples=150, deadline=None)
def test_parse_matches_direct_sum_oracle(text):
    assert _parse_outcome(parse_lattice_expr, text) == _parse_outcome(lattice_oracle.parse_lattice_expr, text)


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=8).map("".join)
       .filter(lambda text: not re.search(r"\d\d", text)))
@settings(max_examples=300, deadline=None)
def test_parse_errors_match_direct_sum_oracle(text):
    assert _parse_outcome(parse_lattice_expr, text) == _parse_outcome(lattice_oracle.parse_lattice_expr, text)


def test_every_short_text_matches_direct_sum_oracle():
    # every text of at most three fragments without adjacent digits, beside the samples above
    texts = ["".join(t) for k in range(4) for t in itertools.product(_FRAGMENTS, repeat=k)]
    texts = [text for text in texts if not re.search(r"\d\d", text)]
    assert len(texts) == 8204
    for text in texts:
        assert _parse_outcome(parse_lattice_expr, text) == _parse_outcome(lattice_oracle.parse_lattice_expr, text)


# multi-digit numbers, leading zeros and whitespace other than ' ', which the
# fragment strategy above never builds
@pytest.mark.parametrize("text", ["A01", "02A2", "A2(03)", "A2(-0)", "<-0>", "<007>", "12A1", "A10", "D12", "E10",
                                  "10U(2)", "2A2(2)(3)", "A2\t+\tU", "A2\n+\nU", " U\t+\n<-6>(2)\n", "E06",
                                  "00A1", "D03"])
def test_parse_edge_cases_match_direct_sum_oracle(text):
    assert _parse_outcome(parse_lattice_expr, text) == _parse_outcome(lattice_oracle.parse_lattice_expr, text)


@pytest.mark.parametrize("text, message, pos", [
    ("\u00b2A2", "unexpected character '\u00b2'", 0),
    ("A\u00b2", "expected index after 'A'", 1),
    ("A\u0663", "expected index after 'A'", 1),
])
def test_numbers_are_ascii_digits(text, message, pos):
    with pytest.raises(ExprError) as err:
        parse_lattice_expr(text)
    assert (str(err.value), err.value.pos) == (f"{message} at position {pos}", pos)
    assert _parse_outcome(parse_lattice_expr, text) == _parse_outcome(lattice_oracle.parse_lattice_expr, text)


# determinants carried through the constructors -------------------------------

_CATALOG_TERMS = st.builds(lambda count, block: f"{count}{block}", st.sampled_from(("", "2", "3")),
                           st.sampled_from(CATALOG + ["E8", "D5", "<-1>", "A3(-2)"]))
_CATALOG_EXPRS = st.lists(_CATALOG_TERMS, min_size=1, max_size=4).map("+".join)
_SCALES = st.integers(-6, 6).filter(bool)


def _bareiss_agrees(l):
    return l.det() == exact.determinant(l.gram_rows())


@given(_CATALOG_EXPRS, _CATALOG_EXPRS, _SCALES)
@settings(max_examples=150, deadline=None)
def test_threaded_det_matches_bareiss(text1, text2, n):
    l1, l2 = parse_lattice_expr(text1), parse_lattice_expr(text2)
    assert _bareiss_agrees(l1) and _bareiss_agrees(l2)
    assert _bareiss_agrees(direct_sum(l1, l2))
    assert _bareiss_agrees(rescale(l1, n))
    assert _bareiss_agrees(divide(rescale(l2, n), n))
    for p in (2, 3, 6):
        if is_divisible_by(l1, p):
            assert _bareiss_agrees(divide(l1, p))


def test_threaded_det_matches_bareiss_on_extensions():
    for expr, v, d in (("6A2", [1, -1] * 6, 3), ("3A2(2)", [1, -1] * 3, 3), ("8A1", [1] * 8, 2),
                       ("U(6)+A2", [0, 1, 0, 0], 6), ("D4+4A1", [0, 0, 0, 0, 1, 1, 1, 1], 2)):
        l = parse_lattice_expr(expr)
        ext = extension_by_fraction(l, v, d)
        assert _bareiss_agrees(ext) and abs(ext.det()) * d * d == abs(l.det())
    assert _bareiss_agrees(overlattice(parse_lattice_expr("U(4)"), [[1, 0], [0, 2]], 2)[0])


def test_constructors_skip_bareiss(monkeypatch):
    from zlat import gluing

    exprs = ("6A2", "U(6)+A2(2)+<-6>", "<2>+A1", "<-2>+<2>")
    six, mixed, l1, l2 = (parse_lattice_expr(e) for e in exprs)  # catalog atoms built before the patch
    f1, f2 = forms.discriminant_form(l1), forms.discriminant_form(l2)

    def bareiss(m):
        raise AssertionError("Bareiss determinant called")

    def elimination(m):
        raise AssertionError("elimination called")

    monkeypatch.setattr(exact, "determinant", bareiss)
    monkeypatch.setattr(exact, "inertia_det", elimination)
    lattice._gram_entry.cache_clear()  # a raw Gram matrix seen before would not be eliminated
    with pytest.raises(AssertionError, match="elimination called"):
        make_lattice([[2, 1], [1, 2]])
    for e in exprs:
        assert parse_lattice_expr(e).det()
    assert direct_sum(six, mixed).det() == six.det() * mixed.det()
    assert rescale(mixed, -2).det() == (-2)**5 * mixed.det()
    assert divide(mixed, 2).det() * 2**5 == mixed.det()
    assert abs(extension_by_fraction(six, [1, -1] * 6, 3).det()) == 81
    assert abs(gluing.extend(six, [(1,) * 6]).det()) == 81
    g1 = next(x for x in f1.elements() if f1.q_numer(x) * 2 == f1.n)
    g2 = next(x for x in f2.elements() if f2.q_numer(x) * 2 == 3 * f2.n)
    assert abs(gluing.glue(l1, l2, gluing.GlueMap(f1, f2, (g1,), (g2,))).det()) == 4


def test_handed_over_determinants_make_no_gram_entry(monkeypatch):
    # a lattice whose constructor hands over its determinant keeps its plain
    # split: no elimination, and no memo entry for the Gram matrix it builds
    from zlat import classify, gluing

    stage_c, real_glue, real_inertia_det = [], classify.glue_with_signature, exact.inertia_det
    monkeypatch.setattr(classify, "glue_with_signature", lambda *args: stage_c.append(args) or real_glue(*args))
    classify.realize_pair(classify.pair_by_ref("8B:1"))
    s0, t_prime, phi = stage_c[0]
    six, mixed = parse_lattice_expr("6A2"), parse_lattice_expr("U(6)+A2(2)+<-6>")
    for l in (s0, t_prime, six, mixed):
        signature(l)  # the blocks of the inputs have their entries
    eliminated = []
    monkeypatch.setattr(exact, "inertia_det", lambda g: eliminated.append(len(g)) or real_inertia_det(g))
    size = lattice._gram_entry.cache_info().currsize
    ext = gluing.extend(six, [(1,) * 6])
    assert forms.discriminant_form(ext).size == 81 and abs(ext.det()) == 81
    k3, sig = gluing.glue_with_signature(s0, t_prime, phi)
    assert sig == (3, 19) and abs(k3.det()) == 1
    assert divide(mixed, 2).det() * 2**5 == mixed.det()
    assert eliminated == [] and lattice._gram_entry.cache_info().currsize == size


def test_one_bareiss_per_block_gram(monkeypatch):
    calls = Counter()

    def bareiss(m):
        raise AssertionError("Bareiss determinant called")

    def counted(name):
        real = getattr(exact, name)

        def spy(m):
            calls[name] += 1
            return real(m)

        return spy

    moved = random_basis_change(parse_lattice_expr("U+3A2+<-4>"), random.Random(5), 12)
    monkeypatch.setattr(exact, "determinant", bareiss)
    for name in ("is_symmetric", "components", "inertia_det"):
        monkeypatch.setattr(exact, name, counted(name))
    lattice._gram_entry.cache_clear()
    built = [make_lattice(moved.gram_rows()) for _ in range(4)]  # as tag, iso, control and brown build it
    assert calls == Counter(is_symmetric=1, components=1, inertia_det=1)
    assert len(moved.orthogonal_split()) == 1
    assert all(l.orthogonal_split() == moved.orthogonal_split() for l in built)
    assert all(l.det() == moved.det() == 3 ** 3 * -4 * -1 for l in built)
    assert all(signature(l) == (1, 8) for l in built + [moved])  # the determinant's elimination serves it
    assert calls == Counter(is_symmetric=1, components=1, inertia_det=1)
    calls.clear()
    twelve = make_lattice(parse_lattice_expr("12A1").gram_rows())  # twelve equal blocks
    assert len(twelve.orthogonal_split()) == 12 and twelve.det() == 2 ** 12 and signature(twelve) == (0, 12)
    assert calls == Counter(is_symmetric=1, components=1, inertia_det=1)


def test_degenerate_gram_raises_every_time():
    lattice._gram_entry.cache_clear()
    for gram in ([[2, 2], [2, 2]], lattice._block_gram([named("A2").gram, ((2, 2), (2, 2))])):
        for _ in range(2):
            with pytest.raises(ValueError, match="degenerate gram matrix"):
                make_lattice(gram)


def test_the_gram_memo_keeps_no_failure():
    # with the memo warm, every build of a bad Gram matrix raises today's
    # message, and one that is not square and symmetric leaves no entry
    for text in ("U+3A2+<-4>", "A2+<-2>", "<1>", "2<2>"):
        make_lattice(parse_lattice_expr(text).gram_rows())
    builds = (make_lattice, lambda g: lattice.Lattice(tuple(map(tuple, g))))
    for gram in ([[0, 1], [2, 0]], [[1, 2]], [[1], [2]], [[2, 1, 0], [1, 2, 0]], [[2, 0], [0, 2, 0]]):
        size = lattice._gram_entry.cache_info().currsize
        for build in builds * 2:
            with pytest.raises(ValueError, match="^gram matrix not symmetric$"):
                build(gram)
        assert lattice._gram_entry.cache_info().currsize == size
    for gram in ([[2, 2], [2, 2]], [[0]], lattice._block_gram([named("A2").gram, ((2, 2), (2, 2))])):
        for build in builds * 2:
            with pytest.raises(ValueError, match="^degenerate gram matrix$"):
                build(gram)


_RAW_GRAM_CHECKS = """
from zlat.lattice import Lattice, _with_det, make_lattice

assert not __debug__, "run under python -O"
for gram in ([[0, 1], [2, 0]], [[1, 2]], [[2, 2], [2, 2]], [[0]]):
    for build in (make_lattice, lambda g: Lattice(tuple(map(tuple, g))), lambda g: _with_det(g, 0)):
        try:
            build(gram)
        except ValueError as e:
            print(e)
try:
    _with_det([[0, 1], [2, 0]], -2)
except ValueError as e:
    print(e)
"""


def test_raw_gram_checks_survive_python_O():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-O", "-c", _RAW_GRAM_CHECKS], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["gram matrix not symmetric"] * 6 + ["degenerate gram matrix"] * 6 \
        + ["gram matrix not symmetric"]


# per-value memo of the invariants ---------------------------------------------

def test_memo_keys_on_gram_only():
    gram = parse_lattice_expr("U(2)+A2+<-6>").gram_rows()
    a, b = make_lattice(gram, "first"), make_lattice(gram, "second")
    assert a == b and hash(a) == hash(b) and a.expr != b.expr
    fa, fb = forms.discriminant_form(a), forms.discriminant_form(b)
    assert fa == fb and fa.lift_cols == fb.lift_cols
    assert stability.genus_tag(a) == stability.genus_tag(b)
    assert signature(a) == signature(b) == (1, 4)
    assert stability.invariants(a) == stability.invariants(b) == (5, 3, 1, 0, 2)


def test_memo_does_not_cache_errors():
    odd = parse_lattice_expr("U+<1>")
    for _ in range(2):
        with pytest.raises(ValueError, match="lattice is not even"):
            forms.discriminant_form(odd)


def test_invariants_memo_does_not_cache_errors():
    odd, non_elementary = parse_lattice_expr("U+<1>"), parse_lattice_expr("U+<-4>")
    for _ in range(2):
        with pytest.raises(ValueError, match="lattice is not even"):
            stability.invariants(odd)
        with pytest.raises(ValueError, match="not elementary at 2 and 3"):
            stability.invariants(non_elementary)


def test_memos_are_bounded():
    for fn in (stability.genus_tag, stability.invariants,
               lattice._gram_entry, forms.jordan_record,
               lattice.parse_lattice_expr, lattice._term, tables._built, forms.normal_basis,
               forms.anti_iso_images, forms._anti_iso_order):
        assert fn.cache_info().maxsize == MEMO_SIZE == 1024


# signatures summed over orthogonal blocks -------------------------------------

def _permuted(gram, perm):
    return [[gram[i][j] for j in perm] for i in perm]


@given(_CATALOG_EXPRS, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_signature_of_interleaved_blocks_matches_dense_inertia(text, rng):
    gram = parse_lattice_expr(text).gram_rows()
    perm = list(range(len(gram)))
    rng.shuffle(perm)
    moved = make_lattice(_permuted(gram, perm))
    np_, nz, nm = exact_oracle.dense_inertia(moved.gram_rows())
    assert nz == 0
    assert signature(moved) == (np_, nm)


@given(_CATALOG_EXPRS, st.lists(_TERMS, min_size=1, max_size=3).map("+".join),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_handed_over_split_matches_component_walk(text1, text2, rng):
    l1, l2 = parse_lattice_expr(text1), parse_lattice_expr(text2)
    perm = list(range(l1.rank))
    rng.shuffle(perm)
    moved = make_lattice(_permuted(l1.gram_rows(), perm))  # its split is walked, blocks interleaved
    for l in (l1, l2, direct_sum(l1, l2), direct_sum(l2, EMPTY, l1, l1), direct_sum(moved, l2)):
        assert l._orthogonal is not None  # handed over by the constructor, not yet walked
        assert l.orthogonal_split() == make_lattice(l.gram_rows()).orthogonal_split()


def test_signature_raises_on_a_degenerate_block():
    gram = lattice._block_gram([named("A2").gram, ((2, 2), (2, 2)), named("U").gram])
    fake = lattice._with_det(_permuted(gram, [4, 0, 2, 5, 1, 3]), 1)  # no Bareiss to reject it
    with pytest.raises(ValueError, match="degenerate lattice"):
        signature(fake)


def test_signature_raises_on_a_wrong_threaded_determinant():
    # right sign, wrong value: the product of the blocks' determinants is 3 * -1
    gram = lattice._block_gram([named("A2").gram, named("U").gram])
    for det in (-6, -1, -9):
        fake = lattice._with_det(gram, det)  # no elimination to check it
        with pytest.raises(ArithmeticError, match=f"block determinants give -3, not det {det}"):
            signature(fake)
    assert signature(lattice._with_det(gram, -3)) == (1, 3)


@given(_CATALOG_EXPRS, _CATALOG_EXPRS)
@settings(max_examples=100, deadline=None)
def test_signature_of_parsed_and_summed_lattices_matches_dense_inertia(text1, text2):
    l1, l2 = parse_lattice_expr(text1), parse_lattice_expr(text2)
    for l in (l1, l2, direct_sum(l1, l2), direct_sum(l2, EMPTY, l1, l1), make_lattice(l1.gram_rows())):
        np_, nz, nm = exact_oracle.dense_inertia(l.gram_rows())
        assert nz == 0 and signature(l) == (np_, nm)


def test_signature_of_a_block_and_of_a_sum_containing_it():
    lattice._gram_entry.cache_clear()
    assert signature(parse_lattice_expr("U+<-2>+A2")) == (1, 4)
    assert signature(named("<-2>")) == (0, 1)
    lattice._gram_entry.cache_clear()
    assert signature(named("<-2>")) == (0, 1)
    assert signature(parse_lattice_expr("2<-2>+U(3)")) == (1, 3)


# rescaled expressions stay in the grammar -------------------------------------

def test_rescale_expr():
    assert rescale(parse_lattice_expr("A2(3)"), 2).expr == "A2(6)"
    assert rescale(parse_lattice_expr("U+A2"), -1).expr == "U(-1)+A2(-1)"
    assert rescale(parse_lattice_expr("2A2(-1)+U"), -1).expr == "2A2+U(-1)"
    assert rescale(parse_lattice_expr("U+A2"), 1).expr == "U+A2"
    assert rescale(make_lattice([[2]], "custom"), 2).expr is None
    assert rescale(make_lattice([[2]]), 2).expr is None


@given(_CATALOG_EXPRS, _SCALES)
@settings(max_examples=150, deadline=None)
def test_rescale_expr_round_trips(text, n):
    r = rescale(parse_lattice_expr(text), n)
    assert parse_lattice_expr(r.expr).gram == r.gram


# overlattice Gram matrices patched on the glue rows ---------------------------

def _overlattice_outcome(fn, l, rows, den):
    try:
        out, h = fn(l, rows, den)
    except ValueError as e:
        return str(e)
    return out.gram, out.det(), h


@st.composite
def _lifted_rows(draw):
    """A sum of catalog blocks in a random basis, with lifts of elements of its
    discriminant group over the exponent n, some moved by a vector or a
    multiple of e_i."""
    l = parse_lattice_expr("+".join(draw(st.lists(st.sampled_from(CATALOG + ["<-4>", "A3(-2)"]),
                                                   min_size=1, max_size=3))))
    l = random_basis_change(l, draw(st.randoms(use_true_random=False)), 2 * l.rank if l.rank > 1 else 0)
    f = forms.discriminant_form(l)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        x = tuple(draw(st.integers(0, d - 1)) for d in f.orders)
        w = f.lift_vector(x)[0] if f.ngens else [0] * l.rank
        w = [c + f.n * draw(st.integers(-1, 1)) for c in w]
        if draw(st.integers(0, 3)) == 0:
            w[draw(st.integers(0, l.rank - 1))] += draw(st.integers(1, f.n))
        rows.append(w)
    return l, rows, f.n


@given(_lifted_rows())
@settings(max_examples=150, deadline=None)
def test_overlattice_matches_dense_product(case):
    l, rows, den = case
    assert _overlattice_outcome(lattice.overlattice, l, rows, den) \
        == _overlattice_outcome(lattice_oracle.dense_overlattice, l, rows, den)


def test_overlattice_patches_a_row_d_e_i_with_d_not_den():
    # the extension of 2U(3) by an isotropic element whose lift is e_2 / 3
    l = parse_lattice_expr("2U(3)")
    out = _overlattice_outcome(lattice.overlattice, l, [[0, 0, 1, 0]], 3)
    assert out == _overlattice_outcome(lattice_oracle.dense_overlattice, l, [[0, 0, 1, 0]], 3)
    gram, det, h = out
    assert h[2] == [0, 0, 1, 0] and det == 9  # U(3) + U
    assert gram == ((0, 3, 0, 0), (3, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


# block sums laid out from their parts ------------------------------------------

def _interleaved():
    """A raw lattice whose components {0, 2} and {1} interleave."""
    return make_lattice([[2, 0, 1], [0, -2, 0], [1, 0, 2]], "X")


def test_a_sum_of_interleaved_parts_is_its_dense_value():
    """Sums of lattices whose components interleave, nested sums and sums of
    one part are laid out from their parts: read first by any of gram, rank,
    evenness, det, equality (either side), hash or repr, each is the value
    `make_lattice` makes of its dense Gram matrix.  Comparing and hashing
    lays out neither side."""
    x, a2, u3 = _interleaved(), named("A2"), parse_lattice_expr("U(3)+<-6>")
    moved = make_lattice(_permuted(parse_lattice_expr("A2+D4+<4>").gram_rows(), [3, 0, 6, 1, 4, 2, 5]))
    builds = [lambda: direct_sum(x, x), lambda: direct_sum(a2, x, u3), lambda: direct_sum(x),
              lambda: direct_sum(EMPTY, moved), lambda: direct_sum(direct_sum(x, moved), EMPTY, direct_sum(u3, x)),
              lambda: direct_sum(direct_sum(direct_sum(x)), a2)]
    reads = (lambda l: l.gram, lambda l: l.rank, lambda l: l.is_even, lambda l: l.det(), hash, repr)
    for build in builds:
        l = build()
        assert "gram" not in vars(l) and l._parts
        dense = make_lattice(build().gram, l.expr)
        assert "gram" in vars(dense) and not dense._parts
        expected = [dense.gram, dense.rank, dense.is_even, dense.det(), hash(dense), repr(dense)]
        for first in reads + (lambda l: l == dense, lambda l: dense == l):
            l = build()
            first(l)
            assert [read(l) for read in reads] == expected
            assert l == dense and dense == l and {dense: 1}[l] == 1 and len({l, dense}) == 1
        assert dense.gram == lattice._block_gram([source.gram for *_part, source in build()._parts])
        # equality and hash read the splits: neither side of a comparison is laid out
        a, b = build(), build()
        assert a == b == dense and hash(a) == hash(b) == hash(dense) and a._parts and b._parts
    # equal values whose splits were handed over or walked; different values stay apart
    assert direct_sum(a2, x) != direct_sum(x, a2) and direct_sum(x, x) != direct_sum(x, _interleaved(), a2)
    assert direct_sum(x, a2).orthogonal_split() == make_lattice(direct_sum(x, a2).gram).orthogonal_split()


def test_one_discriminant_form_per_lattice(monkeypatch):
    """`discriminant_form` builds a lattice's form once and keeps it on the
    instance, a block sum's before it is laid out too; equal lattices held
    by other instances get equal forms, built anew; a lattice that is not
    even raises every time and keeps nothing."""
    from collections import Counter

    x = _interleaved()
    built = Counter()
    real = forms._discriminant_form

    def counted(l):
        built[id(l)] += 1
        return real(l)

    sums = [direct_sum(x, named("A2")), lattice.parse_lattice_expr.__wrapped__("U(3)+2A2(2)+<-6>")]
    values = sums + [x] + [make_lattice(l.gram) for l in (direct_sum(x, named("A2")),
                                                          parse_lattice_expr("U(3)+2A2(2)+<-6>"), x)]
    monkeypatch.setattr(forms, "_discriminant_form", counted)
    for l in values:
        f = forms.discriminant_form(l)
        assert forms.discriminant_form(l) is f is l._form and "gram" not in vars(f)
    assert all(l._parts for l in sums)  # nothing above laid out a block sum
    for l in sums:
        l.gram
        assert forms.discriminant_form(l) is l._form
    assert sorted(built.values()) == [1] * len(values)
    for a, b in zip(values[:3], values[3:]):
        fa, fb = forms.discriminant_form(a), forms.discriminant_form(b)
        assert fa is not fb and a == b
        assert (fa, fa.orders, fa.n, fa.gram, fa.lift_cols) == (fb, fb.orders, fb.n, fb.gram, fb.lift_cols)
    odd = direct_sum(x, make_lattice([[1]]))
    for _ in range(2):
        with pytest.raises(ValueError, match="lattice is not even"):
            forms.discriminant_form(odd)
    assert odd._form is None
