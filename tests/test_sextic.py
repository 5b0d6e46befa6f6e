import itertools
import re

import pytest

from zlat import classify, golden, sextic
from zlat.classify import (
    THalfInvariants,
    admissible_invariants,
    enumerate_ascending_t_pairs,
    pair_by_ref,
    reversion_partner,
)
from zlat.sextic import (
    NEST3_CODE,
    NULL_CODE,
    CompleteCode,
    cubic_topology,
    cusp_distributions,
    general_code,
    id_from_t_pair,
    render_code,
    reversion_code,
    simple_code_text,
    topology_from_t_half,
)


# the inverse of `render_code`, for round trips
_TERM = re.compile(r"(\d+)(?:_(-?\d+))?(?:<(.*)>)?$")


def parse_code(text: str) -> CompleteCode:
    """Parse a rendered complete code back into its structural form."""
    text = text.replace(" ", "")
    if text == "0":
        return NULL_CODE
    if text == "1<1<1>>":
        return NEST3_CODE
    outer = []
    ambient = None
    inner = []
    depth = 0
    term = ""
    terms = []
    for ch in text:
        if ch == "+" and depth == 0:
            terms.append(term)
            term = ""
            continue
        depth += ch == "<"
        depth -= ch == ">"
        term += ch
    terms.append(term)
    for t in terms:
        m = _TERM.match(t)
        if not m:
            raise ValueError(f"bad code term {t!r}")
        count = int(m.group(1))
        k = int(m.group(2)) if m.group(2) else 0
        if m.group(3) is not None:
            if ambient is not None or count != 1:
                raise ValueError("more than one ambient oval")
            ambient = k
            for sub in m.group(3).split("+"):
                if not sub:
                    continue
                sm = _TERM.match(sub)
                if not sm or sm.group(3) is not None:
                    raise ValueError(f"bad inner term {sub!r}")
                inner.append((int(sm.group(1)), int(sm.group(2)) if sm.group(2) else 0))
        else:
            outer.append((count, k))
    return general_code(tuple(outer), ambient, tuple(inner))


def test_topology_from_u():
    # T+ = U: 5 ovals, code shape 3+1<1>, type I, o = -, three real cusp pairs
    ell, shape, ctype, o, nur = topology_from_t_half(THalfInvariants(2, 0, 0, 0, 0))
    assert (ell, shape, ctype, o, nur) == (5, ("general", 3, 1), "I", "-", 3)


def test_topology_from_2():
    ell, shape, ctype, o, nur = topology_from_t_half(THalfInvariants(1, 1, 1, 0, 0))
    assert (ell, shape, ctype, o, nur) == (4, ("general", 3, 0), "II", "-", 3)


def test_topology_null_cases():
    for p, q, o in ((1, 0, "+"), (0, 3, "-")):
        ell, shape, ctype, oo, nur = topology_from_t_half(THalfInvariants(4, 4, 0, p, q))
        assert (ell, shape, ctype, oo, nur) == (0, ("null",), "II", o, 0)


def test_topology_nest3():
    ell, shape, ctype, o, nur = topology_from_t_half(THalfInvariants(4, 2, 0, 0, 3))
    assert shape == ("nest3",) and ctype == "I" and o == "-" and nur == 0
    ell, shape, ctype, o, nur = topology_from_t_half(THalfInvariants(4, 2, 0, 1, 0))
    assert shape == ("nest3",) and o == "+"


def test_topology_rejects_outside_census():
    with pytest.raises(ValueError, match="outside"):
        topology_from_t_half(THalfInvariants(8, 0, 0, 1, 0))
    first = {pair[0] for pair in admissible_invariants()}
    assert len(first) == 68
    # second halves that are no first half, and invariants no pair has
    outside = sorted({pair[1] for pair in admissible_invariants()} - first)
    assert outside
    for inv in outside + [THalfInvariants(9, 0, 0, 0, 0), THalfInvariants(2, 0, 1, 1, 3)]:
        assert inv not in first
        with pytest.raises(ValueError, match="outside the enumerated census"):
            topology_from_t_half(inv)


def test_topology_raises_exactly_off_the_census_first_halves():
    # a grid wider than the census on every coordinate: the rule answers as
    # the set of first halves does
    first = {pair[0] for pair in admissible_invariants()}
    seen = 0
    for key in itertools.product(range(10), range(-1, 10), range(-1, 4), range(-1, 3), range(-1, 5)):
        inv = THalfInvariants(*key)
        if inv in first:
            topology_from_t_half(inv)
            seen += 1
        else:
            with pytest.raises(ValueError, match="outside the enumerated census"):
                topology_from_t_half(inv)
    assert seen == 68


def test_cusp_distribution_singletons_from_the_paper():
    # proofs of the missing cases: 1<2> with one pair must be 1_1<2>
    dist = cusp_distributions(("general", 0, 2), 1, "-")
    assert [render_code(c) for c in dist] == ["1_1<2>"]
    dist = cusp_distributions(("general", 2, 2), 2, "-")
    assert [render_code(c) for c in dist] == ["2_1+1<2>"]
    dist = cusp_distributions(("general", 2, 0), 3, "-")
    assert [render_code(c) for c in dist] == ["3_1"]


def test_cusp_distribution_nonsingleton_outside_census():
    # outside the census the full candidate set is returned, not resolved
    dist = cusp_distributions(("general", 3, 0), 2, "-")
    assert len(dist) != 1 or dist == []


def test_every_census_pair_has_one_cusp_distribution():
    for pair in enumerate_ascending_t_pairs():
        _ell, shape, _ctype, o, nu_r = topology_from_t_half(pair.t_plus)
        assert len(cusp_distributions(shape, nu_r, o)) == 1, pair.table_ref


def test_an_ambiguous_distribution_raises_without_a_root_search(monkeypatch):
    # an ID reads T+ alone: two candidates raise, and no reversion root is sought
    two = [parse_code("3_1+1<1>"), parse_code("2_1+1<1_1>")]
    searched = []
    monkeypatch.setattr(sextic, "cusp_distributions", lambda *args: two)
    monkeypatch.setattr(classify, "find_reversion_root", lambda pair: searched.append(pair))
    pair = pair_by_ref("8B:1")
    assert pair.reversible
    with pytest.raises(ValueError, match=re.escape("ambiguous cusp distribution for pair 8B:1: 3_1+1<1>, 2_1+1<1_1>")):
        id_from_t_pair(pair)
    assert searched == []


def test_render_and_parse_roundtrip():
    for text in ("3_1+1<1>", "1_1+1_2<1>", "1+1_-1<2_1>", "1_2+1_1", "2", "0",
                  "1<1<1>>", "1<1_1+1>", "1_-3", "1<4>"):
        assert render_code(parse_code(text)) == text


def test_simple_code_text():
    assert simple_code_text(parse_code("3_1+1<1>")) == "3+1<1>"
    assert simple_code_text(parse_code("1_2+1_1")) == "2"
    assert simple_code_text(NULL_CODE) == "0"
    assert simple_code_text(NEST3_CODE) == "1<1<1>>"


def test_reversion_rules():
    # 2_1+1<2> -> 2+1<2_1>
    assert render_code(reversion_code(parse_code("2_1+1<2>"))) == "2+1<2_1>"
    # the 3-nest is its own partner
    assert reversion_code(NEST3_CODE) == NEST3_CODE
    # n_1 -> 1_-1<(n-1)_1>
    assert render_code(reversion_code(parse_code("3_1"))) == "1_-1<2_1>"
    # 1+1_1 -> 1<1_1> (and never 1_-1<1>)
    assert render_code(reversion_code(parse_code("1_1+1"))) == "1<1_1>"
    # null code is not reversible
    with pytest.raises(ValueError):
        reversion_code(NULL_CODE)


def test_id_from_selected_pairs():
    sid = id_from_t_pair(pair_by_ref("8A:1"))
    assert (render_code(sid.code), sid.curve_type, sid.o) == ("1<4>", "I", "-")
    sid = id_from_t_pair(pair_by_ref("8B:16"))
    assert (render_code(sid.code), sid.curve_type, sid.o, sid.nu_r) == ("1_1+1<1>", "II", "-", 1)
    sid = id_from_t_pair(pair_by_ref("8C:31"))
    assert (render_code(sid.code), sid.curve_type, sid.o) == ("0", "II", "+")


def test_all_68_ids_match_golden_tables():
    ref = {}
    for i, (simple, nur, o, complete, ctype) in enumerate(golden.TABLE_1A, 1):
        ref[f"8A:{i}"] = (simple, nur, complete, ctype, o)
    for i, (simple, nur, complete, ctype) in enumerate(golden.TABLE_1B, 1):
        ref[f"8B:{i}"] = (simple, nur, complete, ctype, "-")
    for i, (simple, nur, complete, ctype) in enumerate(golden.TABLE_1C, 1):
        ref[f"8C:{i}"] = (simple, nur, complete, ctype, "+")
    for pair in enumerate_ascending_t_pairs():
        sid = id_from_t_pair(pair)
        got = (simple_code_text(sid.code), sid.nu_r, render_code(sid.code), sid.curve_type, sid.o)
        assert got == ref[pair.table_ref], pair.table_ref


def test_type_constraints():
    # at most 5 ovals; 5 ovals force type I; 4, 2 or 0 force type II
    for pair in enumerate_ascending_t_pairs():
        sid = id_from_t_pair(pair)
        ell = sid.code.oval_count()
        assert ell <= 5
        if ell == 5:
            assert sid.curve_type == "I"
        if ell in (0, 2, 4):
            assert sid.curve_type == "II"


def test_lefschetz_reconstruction():
    # chi(A-) = 1 + (r+ - r-)/2 with r+ = r(T+), r- = r(T-) + 1
    for pair in enumerate_ascending_t_pairs():
        sid = id_from_t_pair(pair)
        lefschetz = 1 + (pair.t_plus.r - (pair.t_minus.r + 1)) // 2
        if sid.code.kind == "general":
            alpha, beta = sid.code.alpha_beta()
            assert lefschetz == beta - alpha
        else:
            assert lefschetz == 0


def test_cubic_topology_cases():
    assert cubic_topology(id_from_t_pair(pair_by_ref("8B:31"))).chi == 1  # null, o = -
    assert cubic_topology(id_from_t_pair(pair_by_ref("8C:31"))).chi == 3  # null, o = +
    nest_minus = id_from_t_pair(pair_by_ref("8B:17"))
    assert cubic_topology(nest_minus).chi == 3
    nest_plus = id_from_t_pair(pair_by_ref("8C:17"))
    assert cubic_topology(nest_plus).chi == 1
    assert cubic_topology(nest_plus).handles == 0
    # code 3_1+1<1>: o = -, alpha 3, beta 1, nu_r 3 -> chi = 3 + 4 - 6 = 1
    sid = id_from_t_pair(pair_by_ref("8B:1"))
    assert sid.nu_r == 3 and cubic_topology(sid).chi == 1


def test_reversion_involution_on_census():
    for pair in enumerate_ascending_t_pairs():
        partner = reversion_partner(pair)
        if partner is None:
            continue
        sid = id_from_t_pair(pair)
        psid = id_from_t_pair(partner)
        assert psid.curve_type == sid.curve_type
        assert psid.o != sid.o
        if sid.code.kind == "null":
            assert psid.code.kind == "null"
            continue
        assert reversion_code(sid.code) == psid.code
        assert reversion_code(psid.code) == sid.code


def test_code_invariants():
    for pair in enumerate_ascending_t_pairs():
        sid = id_from_t_pair(pair)
        code = sid.code
        if code.kind != "general":
            continue
        alpha, beta = code.alpha_beta()
        assert alpha + beta <= 4
        inward = [(c, k) for c, k in code.outer + code.inner if k < 0]
        if code.ambient is not None and code.ambient < 0:
            inward.append((1, code.ambient))
        assert sum(c for c, _k in inward) <= 1  # at most one oval with inward cusps
