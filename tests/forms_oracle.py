"""Brute-force oracles for the elementary-group routines of `zlat.forms`
and for `is_anti_isomorphism`.

Each walks every element of the (sub)group it is given, with `Fraction`
arithmetic, exactly as the package did before it switched to Gram reduction
mod p (for `is_anti_isomorphism`: to q on the generators and b on their
pairs).  They are exponential in the rank, so tests call them on groups of
size at most 2^8 or 3^5 only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from zlat.exact import identity, mat_mul, transpose
from zlat.forms import (
    FOUR3,
    HALF,
    THALF,
    TWO3,
    SpanView,
    _mod1,
    _normalize_2block,
    _view,
    form_on_generators,
    subgroup_elements,
)
from zlat.lattice import make_lattice


def complement_of(view: SpanView, block) -> SpanView:
    """Basis of the orthogonal complement of a nondegenerate block inside view."""
    f = view.form
    p = view.p
    block_elems = set(SpanView(f, list(block), p).elements())
    out = []
    span = {f.zero()}
    for x in view.elements():
        if x in block_elems or x in span:
            continue
        if any(f.b(x, g) != 0 for g in block):
            continue
        out.append(x)
        grown = set(span)
        for mult in range(1, p):
            step = f.smul(mult, x)
            for e in list(span):
                grown.add(f.add(e, step))
        span = grown
        if len(out) == view.dim - len(block):
            break
    return SpanView(f, out, p)


def decompose2(view: SpanView):
    f = view.form
    if view.dim == 0:
        return 0, []
    odd = next((x for x in view.elements() if f.q(x) in (HALF, THALF)), None)
    if odd is not None:
        kind = "e+" if f.q(odd) == HALF else "e-"
        _rest_d2, rest = decompose2(complement_of(view, [odd]))
        return 1, [(kind, [odd])] + rest
    x = next(e for e in view.elements() if any(e))
    y = next(e for e in view.elements() if f.b(x, e) != 0)
    kind, gens = _normalize_2block(f, x, y)
    _d2, rest = decompose2(complement_of(view, gens))
    return 0, [(kind, gens)] + rest


def decompose3(view: SpanView):
    f = view.form
    if view.dim == 0:
        return []
    x = next((e for e in view.elements() if f.q(e) in (TWO3, FOUR3)), None)
    if x is None:
        raise ValueError("degenerate 3-subspace")
    kind = "t+" if f.q(x) == TWO3 else "t-"
    return [(kind, [x])] + decompose3(complement_of(view, [x]))


def normal_form2(f_or_view):
    view = _view(f_or_view, 2)
    d2, blocks = decompose2(view)
    rank = view.dim
    contrib = {"e+": 1, "e-": -1, "u2": 0, "v2": 4}
    br = sum(contrib[k] for k, _ in blocks) % 8
    if d2 == 0:
        b = 1 if br == 4 else 0
        return "even", rank // 2 - b, b
    a = ((rank + br) // 2) % 4
    return "odd", a, rank - a


def normal_form3(f_or_view):
    blocks = decompose3(_view(f_or_view, 3))
    p = sum(1 for k, _ in blocks if k == "t+") % 2
    return p, len(blocks) - p


def parity2(f_or_view) -> int:
    view = _view(f_or_view, 2)
    f = view.form
    return 0 if all(f.b(x, x) == 0 for x in view.elements()) else 1


def characteristic_element(f_or_view):
    view = _view(f_or_view, 2)
    f = view.form
    for v in view.elements():
        if all(f.b(v, g) == _mod1(f.q(g)) for g in view.gens):
            return v
    raise ValueError("no characteristic element (degenerate input)")


def fingerprint(f) -> tuple[tuple[int, Fraction], ...]:
    return tuple(sorted((f.element_order(x), f.q(x)) for x in f.elements()))


# random changes of generators and of lattice bases ---------------------------

def change_generators(f, p: int, ops):
    """f presented on new generators: the rows of the identity after the
    elementary operations ops, each (i, j, c) adding c * row j to row i, or
    for i == j scaling row i by c (c prime to p).  The matrix stays
    invertible mod p, so the result is isomorphic to f."""
    rows = [[int(i == j) for j in range(f.ngens)] for i in range(f.ngens)]
    for i, j, c in ops:
        if i == j:
            rows[i] = [c * x % p for x in rows[i]]
        else:
            rows[i] = [(x + c * y) % p for x, y in zip(rows[i], rows[j])]
    gens = [tuple(r) for r in rows]
    return form_on_generators([p] * f.ngens, [[f.b(x, y) for y in gens] for x in gens], [f.q(x) for x in gens])


def random_basis_change(l, rng, steps: int):
    """P L P^T for a unimodular P from random row additions and swaps."""
    n = l.rank
    m = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
        else:
            c = rng.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return make_lattice(mat_mul(mat_mul(m, l.gram_rows()), transpose(m)))


def is_anti_isomorphism(fsrc, src_gens, ftgt, tgt_gens) -> bool:
    """q_tgt(phi x) = -q_src(x) on every element of the span, and equal span orders."""
    pairs = list(zip(src_gens, tgt_gens))
    orders = [fsrc.element_order(g) for g, _ in pairs]
    for coeffs in itertools.product(*[range(o) for o in orders]):
        x = fsrc.zero()
        y = ftgt.zero()
        for c, (g, t) in zip(coeffs, pairs):
            x = fsrc.add(x, fsrc.smul(c, g))
            y = ftgt.add(y, ftgt.smul(c, t))
        if (fsrc.q(x) + ftgt.q(y)) % 2 != 0:
            return False
    return len(subgroup_elements(fsrc, src_gens)) == len(subgroup_elements(ftgt, tgt_gens))
