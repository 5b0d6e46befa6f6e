"""Brute-force oracles for the elementary-group routines of `zlat.forms`,
for `is_anti_isomorphism`, and the `Fraction` representation of finite
quadratic forms.

The element walkers go through every element of the (sub)group they are
given, with `Fraction` arithmetic, exactly as the package did before it
switched to Gram reduction mod p (for `is_anti_isomorphism`: to q on the
generators and b on their pairs).  They are exponential in the rank, so
tests call them on groups of size at most 2^8 or 3^5 only.

`brown_elementary2` is the Brown invariant of an elementary 2-group read
off the histogram of squares over all 2^r elements, as the package computed
it before it used the blocks of the Gram reduction mod 2.

`is_isotropic_subgroup` tests q on every element of the span, as the
package did before it looked at q on the generators and b on their pairs;
`isotropic_subgroups` enumerates every isotropic subgroup.

`FractionForm` with `discriminant_form`, `p_part` and `direct_sum_forms`
below is the storage the package used before it kept integer numerators
over the exponent: pairings, squares and lifts as reduced `Fraction`s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from zlat import exact
from zlat.exact import identity, mat_mul, transpose
from zlat.forms import (
    FOUR3,
    HALF,
    THALF,
    TWO3,
    SpanView,
    _normalize_2block,
    _phase_histogram,
    _view,
    form_on_generators,
    prime_factors_of_order,
    subgroup_elements,
)
from zlat.lattice import make_lattice


# the Fraction representation -------------------------------------------------

@dataclass(frozen=True)
class FractionForm:
    """Generators of the given orders, b on their pairs reduced into [0, 1),
    q on them reduced into [0, 2), and the lift of each as a rational row."""

    orders: tuple[int, ...]
    bil: tuple[tuple[Fraction, ...], ...]
    quad: tuple[Fraction, ...]
    lifts: tuple[tuple[Fraction, ...], ...] | None = field(default=None, compare=False)

    @property
    def ngens(self) -> int:
        return len(self.orders)

    def b(self, x, y) -> Fraction:
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                row = self.bil[i]
                for j, yj in enumerate(y):
                    if yj:
                        total += xi * yj * row[j]
        return total % 1

    def q(self, x) -> Fraction:
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                total += xi * xi * self.quad[i]
                row = self.bil[i]
                for j in range(i + 1, self.ngens):
                    if x[j]:
                        total += 2 * xi * x[j] * row[j]
        return total % 2

    def lift_vector(self, x):
        """Rational coordinates in the source lattice basis (when lifts are recorded)."""
        if self.lifts is None:
            raise ValueError("form carries no lattice lifts")
        n = len(self.lifts[0]) if self.lifts else 0
        out = [Fraction(0)] * n
        for c, lift in zip(x, self.lifts):
            if c:
                for j in range(n):
                    out[j] += c * lift[j]
        return out


def fraction_form(orders, bil, quad, lifts=None) -> FractionForm:
    orders = tuple(int(d) for d in orders)
    bil_t = tuple(tuple(Fraction(x) % 1 for x in row) for row in bil)
    quad_t = tuple(Fraction(x) % 2 for x in quad)
    lifts_t = tuple(tuple(Fraction(x) for x in row) for row in lifts) if lifts else None
    return FractionForm(orders, bil_t, quad_t, lifts_t)


def discriminant_form(l) -> FractionForm:
    if not l.is_even:
        raise ValueError("lattice is not even")
    g = l.gram_rows()
    n = l.rank
    if n == 0:
        return fraction_form((), (), ())
    _u, d, v = exact.smith_normal_form(g)
    cols = []
    orders = []
    for i in range(n):
        di = d[i][i]
        if di == 0:
            raise ValueError("degenerate lattice")
        if di > 1:
            orders.append(di)
            cols.append([v[k][i] for k in range(n)])
    bil = []
    quad = []
    gcols = [mat_mul([c], g)[0] for c in cols]
    for i, ci in enumerate(cols):
        row = []
        for j, cj in enumerate(cols):
            numer = sum(gcols[i][k] * cj[k] for k in range(n))
            row.append(Fraction(numer, orders[i] * orders[j]) % 1)
        bil.append(row)
        quad.append(Fraction(sum(gcols[i][k] * ci[k] for k in range(n)), orders[i] * orders[i]) % 2)
    gens = [[Fraction(c, o) for c in col] for col, o in zip(cols, orders)]
    return fraction_form(orders, bil, quad, gens)


def direct_sum_forms(*forms: FractionForm) -> FractionForm:
    orders = []
    quad = []
    lifts_ok = all(f.lifts is not None for f in forms) and forms
    widths = [len(f.lifts[0]) if f.lifts else 0 for f in forms] if lifts_ok else []
    for f in forms:
        orders.extend(f.orders)
        quad.extend(f.quad)
    k = len(orders)
    bil = [[Fraction(0)] * k for _ in range(k)]
    off = 0
    for f in forms:
        m = f.ngens
        for i in range(m):
            for j in range(m):
                bil[off + i][off + j] = f.bil[i][j]
        off += m
    lifts = None
    if lifts_ok:
        lifts = []
        for fi, f in enumerate(forms):
            pad_l = sum(widths[:fi])
            pad_r = sum(widths[fi + 1:])
            for row in f.lifts:
                lifts.append([Fraction(0)] * pad_l + list(row) + [Fraction(0)] * pad_r)
    return fraction_form(orders, bil, quad, lifts)


def p_part(f: FractionForm, p: int) -> FractionForm:
    idx = []
    mults = []
    new_orders = []
    for i, d in enumerate(f.orders):
        pk = 1
        while d % p == 0:
            d //= p
            pk *= p
        if pk > 1:
            idx.append(i)
            mults.append(f.orders[i] // pk)
            new_orders.append(pk)
    bil = [
        [mults[a] * mults[b] * f.bil[idx[a]][idx[b]] % 1 for b in range(len(idx))]
        for a in range(len(idx))
    ]
    quad = [mults[a] * mults[a] * f.quad[idx[a]] % 2 for a in range(len(idx))]
    lifts = None
    if f.lifts is not None:
        lifts = [[mults[a] * x for x in f.lifts[idx[a]]] for a in range(len(idx))]
    return fraction_form(new_orders, bil, quad, lifts)


# element walkers ---------------------------------------------------------------

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
        if all(f.b(v, g) == f.q(g) % 1 for g in view.gens):
            return v
    raise ValueError("no characteristic element (degenerate input)")


def orthogonal_of_subgroup(f, gens):
    return [x for x in f.elements() if all(f.b(x, g) == 0 for g in gens)]


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


def brown_elementary2(f) -> int:
    """Br of an elementary 2-group from the integer histogram of 2q mod 4.

    With n = 2 the Gauss sum sum_x exp(i*pi*q(x)) is re + i*im for
    re = #{2q = 0} - #{2q = 2} and im = #{2q = 1} - #{2q = 3}; its magnitude
    is sqrt|G| and its direction a multiple of pi/4, read off the signs.
    """
    counts = _phase_histogram(f)
    re = counts[0] - counts[2]
    im = counts[1] - counts[3]
    if re * re + im * im != f.size:
        raise ValueError("Gauss magnitude check failed")
    ray = {
        (1, 0): 0, (1, 1): 1, (0, 1): 2, (-1, 1): 3,
        (-1, 0): 4, (-1, -1): 5, (0, -1): 6, (1, -1): 7,
    }
    key = ((re > 0) - (re < 0), (im > 0) - (im < 0))
    if key == (0, 0) or (key[0] and key[1] and abs(re) != abs(im)):
        raise ValueError("degenerate Gauss sum")
    return ray[key]


def is_isotropic_subgroup(f, gens) -> bool:
    return all(f.q(x) == 0 for x in subgroup_elements(f, gens))


def isotropic_subgroups(f) -> list[frozenset]:
    """Every isotropic subgroup, enumerated p-part by p-part.

    The p-components are mutually orthogonal, so every isotropic subgroup
    is the direct sum of its p-parts; isotropic subgroups of each part are
    grown one generator at a time.
    """
    if f.size > 2**6 * 3**6:
        raise ValueError("group too large")
    per_p: list[list[frozenset]] = []
    primes = prime_factors_of_order(f)
    for p in primes:
        subs = {frozenset({f.zero()})}
        frontier = [frozenset({f.zero()})]
        part_elems = [x for x in f.elements() if _is_p_torsion(f, x, p)]
        while frontier:
            nxt = []
            for sub in frontier:
                for x in part_elems:
                    if x in sub or f.q_numer(x):
                        continue
                    if any(f.b_numer(x, y) for y in sub):
                        continue
                    grown = set(sub)
                    order = f.element_order(x)
                    for mult in range(1, order):
                        step = f.smul(mult, x)
                        for e in list(sub):
                            grown.add(f.add(e, step))
                    if any(f.q_numer(e) for e in grown):
                        continue
                    fz = frozenset(grown)
                    if fz not in subs:
                        subs.add(fz)
                        nxt.append(fz)
            frontier = nxt
        per_p.append(sorted(subs, key=lambda s: (len(s), sorted(s))))
    out = []
    for combo in itertools.product(*per_p) if per_p else [()]:
        total = {f.zero()}
        for sub in combo:
            total = {f.add(a, b) for a in total for b in sub}
        out.append(frozenset(total))
    return sorted(set(out), key=lambda s: (len(s), sorted(s)))


def _is_p_torsion(f, x, p: int) -> bool:
    o = f.element_order(x)
    while o % p == 0:
        o //= p
    return o == 1
