"""The contract of the twelve value types: each keeps its repr, equals and
hashes by the fields it compares, and refuses assignment and deletion; the
constructors that check their input still raise."""

from typing import NamedTuple

import pytest

from zlat.classify import SPair, THalfInvariants, TPair
from zlat.forms import ATOMS, FiniteQuadraticForm, GlueMap
from zlat.gluing import LatticeInvolution
from zlat.lattice import Lattice, SublatticeRef, make_lattice
from zlat.sextic import CompleteCode, CubicTopology, SexticID
from zlat.stability import GenusTag
from zlat.tables import Table

U = make_lattice([[0, 1], [1, 0]], "U")
TWO_A1 = make_lattice([[-2, 0], [0, -2]], "2A1")
U2 = ATOMS["u2"]
U2_OVER_4 = FiniteQuadraticForm((2, 2), 4, ((0, 2), (2, 0)))  # u2 on the same generators, over n = 4
SWAP, ONE = ((0, 1), (1, 0)), ((1, 0), (0, 1))
T_PLUS, T_MINUS = THalfInvariants(2, 0, 0, 0, 0), THalfInvariants(7, 1, 1, 1, 3)


class Case(NamedTuple):
    cls: type
    fields: dict  # the constructor's arguments
    text: str  # its repr
    key: object  # what equality and the hash read, of a value
    other: dict  # for each compared field, another value the constructor takes
    ignored: dict = {}  # for each field equality ignores, another value
    errors: tuple = ()  # (arguments that replace fields, the message the constructor raises)


def _record(cls, fields, text, other):
    """A record compares all of its fields and hashes as the tuple of them."""
    return Case(cls, fields, text, lambda value: tuple(getattr(value, field) for field in fields), other)


CASES = {
    "Lattice": Case(
        Lattice, {"gram": ((2, 1), (1, 2)), "expr": "A2"}, "Lattice(gram=((2, 1), (1, 2)), expr='A2')",
        Lattice.orthogonal_split, {"gram": ((2, 0), (0, 2))}, {"expr": None},
        (({"gram": ((2, 1), (0, 2))}, "gram matrix not symmetric"), ({"gram": ((2, 2), (2, 2))}, "degenerate"))),
    "FiniteQuadraticForm": Case(
        FiniteQuadraticForm, {"orders": (2, 2), "n": 2, "gram": SWAP, "lift_cols": ONE},
        "FiniteQuadraticForm(orders=(2, 2), n=2, gram=((0, 1), (1, 0)), lift_cols=((1, 0), (0, 1)))",
        lambda f: (f.orders, f.n, f.gram), {"orders": (2, 4), "n": 4, "gram": ((2, 1), (1, 2))},
        {"lift_cols": None}),
    "GlueMap": Case(
        GlueMap, {"source_form": U2, "target_form": U2, "source_gens": ONE, "target_gens": ONE},
        "GlueMap(source_form=FiniteQuadraticForm(orders=(2, 2), n=2, gram=((0, 1), (1, 0)), lift_cols=None), "
        "target_form=FiniteQuadraticForm(orders=(2, 2), n=2, gram=((0, 1), (1, 0)), lift_cols=None), "
        "source_gens=((1, 0), (0, 1)), target_gens=((1, 0), (0, 1)))",
        lambda g: (g.source_form, g.target_form, g.source_gens, g.target_gens),
        {"source_form": U2_OVER_4, "target_form": U2_OVER_4, "source_gens": SWAP, "target_gens": SWAP},
        errors=(({"source_gens": ((1, 0),)}, "generator lists differ in length"),
                ({"target_form": ATOMS["v2"]}, "not an anti-isomorphism"))),
    "LatticeInvolution": Case(
        LatticeInvolution, {"lattice": U, "action": SWAP},
        "LatticeInvolution(lattice=Lattice(gram=((0, 1), (1, 0)), expr='U'), action=((0, 1), (1, 0)))",
        lambda i: (i.lattice, i.action), {"lattice": TWO_A1, "action": ONE},
        errors=(({"action": ((1, 1), (0, 1))}, "action is not an involution"),
                ({"action": ((1, 0), (0, -1))}, "action does not preserve the inner product"))),
    "SublatticeRef": _record(
        SublatticeRef, {"ambient": U, "basis_rows": ((1, 0),)},
        "SublatticeRef(ambient=Lattice(gram=((0, 1), (1, 0)), expr='U'), basis_rows=((1, 0),))",
        {"ambient": TWO_A1, "basis_rows": ((0, 1),)}),
    "GenusTag": _record(
        GenusTag, {"sig": (1, 1), "parts": ((3, ((3, 1, -1, 0, 0),)),)},
        "GenusTag(sig=(1, 1), parts=((3, ((3, 1, -1, 0, 0),)),))", {"sig": (2, 0), "parts": ()}),
    "CompleteCode": _record(
        CompleteCode, {"kind": "general", "outer": ((2, 0),), "ambient": 1, "inner": ((1, 0),)},
        "CompleteCode(kind='general', outer=((2, 0),), ambient=1, inner=((1, 0),))",
        {"kind": "null", "outer": (), "ambient": None, "inner": ()}),
    "SexticID": _record(
        SexticID, {"code": CompleteCode("null"), "curve_type": "II", "o": "+"},
        "SexticID(code=CompleteCode(kind='null', outer=(), ambient=None, inner=()), curve_type='II', o='+')",
        {"code": CompleteCode("nest3"), "curve_type": "I", "o": "-"}),
    "CubicTopology": _record(
        CubicTopology, {"chi": 1, "handles": 0}, "CubicTopology(chi=1, handles=0)", {"chi": 3, "handles": 1}),
    "TPair": _record(
        TPair, {"index": 0, "t_plus": T_PLUS, "t_minus": T_MINUS, "witness_plus": U, "witness_minus": TWO_A1,
                "table_ref": "8A:1", "reversible": True, "partner_index": 3},
        "TPair(index=0, t_plus=THalfInvariants(r=2, r2=0, delta2=0, p=0, q=0), "
        "t_minus=THalfInvariants(r=7, r2=1, delta2=1, p=1, q=3), witness_plus=Lattice(gram=((0, 1), (1, 0)), "
        "expr='U'), witness_minus=Lattice(gram=((-2, 0), (0, -2)), expr='2A1'), table_ref='8A:1', "
        "reversible=True, partner_index=3)",
        {"index": 1, "t_plus": T_MINUS, "t_minus": T_PLUS, "witness_plus": TWO_A1, "witness_minus": U,
         "table_ref": "8A:2", "reversible": False, "partner_index": None}),
    "SPair": _record(
        SPair, {"nu_i": 1, "o": "+", "s_plus": U, "s_minus": TWO_A1},
        "SPair(nu_i=1, o='+', s_plus=Lattice(gram=((0, 1), (1, 0)), expr='U'), "
        "s_minus=Lattice(gram=((-2, 0), (0, -2)), expr='2A1'))",
        {"nu_i": 2, "o": "-", "s_plus": TWO_A1, "s_minus": U}),
    "Table": _record(
        Table, {"headers": ("a",), "build": list, "diff": dict, "pretty": str},
        "Table(headers=('a',), build=<class 'list'>, diff=<class 'dict'>, pretty=<class 'str'>)",
        {"headers": ("b",), "build": tuple, "diff": set, "pretty": repr}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_type_keeps_its_repr_equality_hash_and_frozen_fields(name):
    case = CASES[name]

    def build(**changes):
        return case.cls(**{**case.fields, **changes})

    value = build()
    assert repr(value) == case.text
    # equal to a fresh copy and hashed as the fields it compares
    assert value == build() and hash(value) == hash(build()) == hash(case.key(value))
    assert {build(): 1}[value] == 1
    # a change of a compared field is another value; of an ignored one, the same
    assert set(case.other) | set(case.ignored) == set(case.fields)
    for field, other in case.other.items():
        assert build(**{field: other}) != value, field
    for field, other in case.ignored.items():
        changed = build(**{field: other})
        assert changed == value and hash(changed) == hash(value) and repr(changed) != repr(value), field
    for field in case.fields:
        with pytest.raises(AttributeError):
            setattr(value, field, case.other.get(field, case.ignored.get(field)))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == case.text
    for changes, message in case.errors:
        with pytest.raises(ValueError, match=message):
            build(**changes)
