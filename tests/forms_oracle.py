"""Brute-force oracles for the elementary-group routines of `zlat.forms`,
for its anti-isomorphism check, and the `Fraction` representation of finite
quadratic forms.

`form_on_generators` builds a form from rational values of b and q on its
generators.  It is the only way a `Fraction` enters a form, and only tests
build forms that way, so it lives here; the package builds every form from
integers.

The element walkers go through every element of the (sub)group they are
given, with `Fraction` arithmetic, exactly as the package did before it
switched to Gram reduction mod p (for `is_anti_isomorphism`: to q on the
generators and b on their pairs, as `forms._anti_iso_order` now checks the
map's graph in the orthogonal sum of its two forms).
They are exponential in the rank, so tests call them on groups of size at
most 2^8 or 3^5 only.

`present_with` and `build_anti_iso` find an anti-isomorphism of elementary
groups by backtracking over elements for blocks of the anti kinds, and
`anti_iso_root` walks the source for a root element, as the package did
before it paired normal bases; `Span` is their minimal subgroup helper.

`brown_elementary2` is the Brown invariant of an elementary 2-group read
off the histogram of squares over all 2^r elements, as the package computed
it before it used the blocks of the Gram reduction mod 2.

`isometries` yields every isometry between two forms by backtracking over
the images of generators, as the package counted automorphisms before it
read the orders of the orthogonal groups off the p-adic symbol; `isometric`
asks for one, and `sum(1 for _ in isometries(f, f))` is |Aut(f)|.
`aut_g_delta_orders` scans the kernel of Aut(G, delta) for G = 6<-2/3>, as
the package did before it applied Witt's theorem.

`is_isotropic_subgroup` tests q on every element of the span, as the
package did before it looked at q on the generators and b on their pairs;
`isotropic_subgroups` enumerates every isotropic subgroup.
`subgroup_elements` spans a subgroup element by element, and
`coset_fingerprint` walks H^perp and one frozenset per coset of H, as the
package built H^perp / H before it took it by integer linear algebra.

`q_numer` and `b_numer` are loops over the upper triangle of the form's
`gram` and over its full rows, as the package evaluated a form before both
went through one product x gram y^T.

`jordan_constituents`, `jordan_symbol` and `jordan_brown` read the Jordan
splitting of each whole p-part (`forms.p_part`, then `forms._split`), with
no memo and no split into orthogonal summands, as the package did before
one `forms.jordan_record` per form value served `brown`, `jordan_symbol`
and the genus tags.

`FractionForm` with `discriminant_form`, `p_part` and `direct_sum_forms`
below is the storage the package used before it kept integer numerators
over the exponent: pairings, squares and lifts as reduced `Fraction`s.
`discriminant_form` applies the package's block rule on its own: its own
component search over the Gram matrix, a Smith form per block, lifts
scattered back to the block's indices.

`render_form` reads each elementary 2- or 3-part's normal form off its
p-adic symbol, a count per kind, as the package did before it printed the
kinds of `forms.normal_basis`.

`block_form` is `forms.block_form` as the package had it before it took
the pairings from the lift columns reduced mod their orders: the products
run over the whole Smith columns.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from exact_oracle import determinant

from zlat import exact, forms
from zlat.exact import identity, mat_mul, transpose
from zlat.forms import (
    ANTI_KIND,
    FiniteQuadraticForm,
    _reduced,
    is_elementary,
    prime_factors_of_order,
    standard_form,
)
from zlat.lattice import make_lattice

HALF = Fraction(1, 2)
THALF = Fraction(3, 2)
TWO3 = Fraction(2, 3)
FOUR3 = Fraction(4, 3)


def form_on_generators(orders, bil, quad) -> FiniteQuadraticForm:
    """The form with b(e_i, e_j) = bil[i][j] and q(e_i) = quad[i] (rationals).

    Raises when a value does not lie in (1/n)Z for n the exponent, when bil
    is not symmetric mod 1, or when some bil[i][i] differs from quad[i] mod 1."""
    orders = tuple(int(d) for d in orders)
    n = math.lcm(*orders)

    def numerator(value):
        value = Fraction(value)
        if n % value.denominator:
            raise ValueError(f"value {value} does not lie in (1/{n})Z")
        return value.numerator * (n // value.denominator)

    gram = [[numerator(x) for x in row] for row in bil]
    for i, value in enumerate(quad):
        square = numerator(value)
        if (square - gram[i][i]) % n:
            raise ValueError(f"b(e_{i}, e_{i}) = {bil[i][i]} is not q(e_{i}) = {value} mod 1")
        gram[i][i] = square
    if any((x - gram[j][i]) % n for i, row in enumerate(gram) for j, x in enumerate(row)):
        raise ValueError("pairing is not symmetric")
    return FiniteQuadraticForm(orders, n, _reduced(gram, n))


def smul(f, n: int, x):
    """n x in the group of f."""
    return tuple((n * a) % d for a, d in zip(x, f.orders))


# the integer representation, evaluated by loops --------------------------------

def b_numer(f, x, y) -> int:
    """n * b(x, y), reduced mod n."""
    total = 0
    for xi, row in zip(x, f.gram):
        if xi:
            total += xi * sum(yj * bij for yj, bij in zip(y, row))
    return total % f.n


def q_numer(f, x) -> int:
    """n * q(x), reduced mod 2n."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = f.gram[i]
            total += xi * (xi * row[i] + 2 * sum(x[j] * row[j] for j in range(i + 1, len(x))))
    return total % (2 * f.n)


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


def b_value(f, x, y) -> Fraction:
    """b(x, y) in [0, 1): a `FractionForm`'s own, a `FiniteQuadraticForm`'s `b_numer` over its n."""
    return f.b(x, y) if isinstance(f, FractionForm) else Fraction(f.b_numer(x, y), f.n)


def fraction_form(orders, bil, quad, lifts=None) -> FractionForm:
    orders = tuple(int(d) for d in orders)
    bil_t = tuple(tuple(Fraction(x) % 1 for x in row) for row in bil)
    quad_t = tuple(Fraction(x) % 2 for x in quad)
    lifts_t = tuple(tuple(Fraction(x) for x in row) for row in lifts) if lifts else None
    return FractionForm(orders, bil_t, quad_t, lifts_t)


def discriminant_form(l) -> FractionForm:
    """The orthogonal sum of the forms of the blocks of the Gram matrix (the
    components of its nonzero pattern, by `_components`), in block order,
    each from the Smith form of its block with `Fraction` values, and its
    lifts scattered back to the block's indices.  A unimodular block adds
    no generator, and the sum records lifts whenever it is nontrivial."""
    if not l.is_even:
        raise ValueError("lattice is not even")
    g = l.gram_rows()
    parts = [(block, _smith_form([[g[i][j] for j in block] for i in block])) for block in _components(g)]
    summed = direct_sum_forms(*(f for _block, f in parts))
    lifts = []
    for block, f in parts:
        for lift in f.lifts or ():
            row = [Fraction(0)] * l.rank
            for i, x in zip(block, lift):
                row[i] = x
            lifts.append(row)
    return fraction_form(summed.orders, summed.bil, summed.quad, lifts)


def _components(g) -> list[list[int]]:
    """The index sets of the connected components of the nonzero pattern of
    g, each ascending, by smallest index: union-find over the nonzero entries."""
    parent = list(range(len(g)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, row in enumerate(g):
        for j, x in enumerate(row):
            if x:
                parent[root(j)] = root(i)
    comps = {}
    for i in range(len(g)):
        comps.setdefault(root(i), []).append(i)
    return sorted(comps.values())


def _smith_form(g) -> FractionForm:
    """The discriminant form of the Gram matrix g from its Smith form: the
    i-th generator lifts to column i of V (row i of V^T) over d_i."""
    n = len(g)
    _u, d, vt = exact.smith_normal_form(g, with_u=False)
    cols = []
    orders = []
    for i in range(n):
        di = d[i][i]
        if di == 0:
            raise ValueError("degenerate lattice")
        if di > 1:
            orders.append(di)
            cols.append(list(vt[i]))
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


# spans and element walkers -----------------------------------------------------

@dataclass
class Span:
    """Independent generators spanning a subgroup of an elementary p-group."""

    form: object
    gens: list
    p: int

    @property
    def dim(self) -> int:
        return len(self.gens)

    def elements(self):
        f = self.form
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            x = f.zero()
            for c, g in zip(coeffs, self.gens):
                x = f.add(x, smul(f, c, g))
            yield x


def span(f_or_span, p: int) -> Span:
    """A span as given, or the whole of an elementary p-group on its generators."""
    if isinstance(f_or_span, Span):
        return f_or_span
    if not is_elementary(f_or_span, p):
        raise ValueError(f"form is not an elementary {p}-group")
    return Span(f_or_span, list(f_or_span.units), p)


def complement_of(view: Span, block) -> Span:
    """Basis of the orthogonal complement of a nondegenerate block inside view."""
    f = view.form
    p = view.p
    block_elems = set(Span(f, list(block), p).elements())
    out = []
    grown_span = {f.zero()}
    for x in view.elements():
        if x in block_elems or x in grown_span:
            continue
        if any(b_value(f, x, g) != 0 for g in block):
            continue
        out.append(x)
        grown = set(grown_span)
        for mult in range(1, p):
            step = smul(f, mult, x)
            for e in list(grown_span):
                grown.add(f.add(e, step))
        grown_span = grown
        if len(out) == view.dim - len(block):
            break
    return Span(f, out, p)


def normalize_2block(f, x, y):
    """Canonical basis of a rank-2 even block: u2 gens have q = 0, v2 gens q = 1."""
    elems = sorted({x, y, f.add(x, y)})
    if all(f.q(e) == 1 for e in elems):
        return "v2", [elems[0], elems[1]]
    return "u2", [e for e in elems if f.q(e) == 0][:2]


def decompose2(view: Span):
    f = view.form
    if view.dim == 0:
        return 0, []
    odd = next((x for x in view.elements() if f.q(x) in (HALF, THALF)), None)
    if odd is not None:
        kind = "e+" if f.q(odd) == HALF else "e-"
        _rest_d2, rest = decompose2(complement_of(view, [odd]))
        return 1, [(kind, [odd])] + rest
    x = next(e for e in view.elements() if any(e))
    y = next(e for e in view.elements() if b_value(f, x, e) != 0)
    kind, gens = normalize_2block(f, x, y)
    _d2, rest = decompose2(complement_of(view, gens))
    return 0, [(kind, gens)] + rest


def decompose3(view: Span):
    f = view.form
    if view.dim == 0:
        return []
    x = next((e for e in view.elements() if f.q(e) in (TWO3, FOUR3)), None)
    if x is None:
        raise ValueError("degenerate 3-subspace")
    kind = "t+" if f.q(x) == TWO3 else "t-"
    return [(kind, [x])] + decompose3(complement_of(view, [x]))


def normal_form2(f_or_span):
    view = span(f_or_span, 2)
    d2, blocks = decompose2(view)
    rank = view.dim
    contrib = {"e+": 1, "e-": -1, "u2": 0, "v2": 4}
    br = sum(contrib[k] for k, _ in blocks) % 8
    if d2 == 0:
        b = 1 if br == 4 else 0
        return "even", rank // 2 - b, b
    a = ((rank + br) // 2) % 4
    return "odd", a, rank - a


def anti_normal_form2(nf):
    """Normal form of the 2-group with q negated: a<1/2>+b<-1/2> becomes
    b<1/2>+a<-1/2>; a*u2+b*v2 is its own anti (q-values sit in Z/2Z)."""
    kind, a, b = nf
    return nf if kind == "even" else ("odd", b % 4, a + b - b % 4)


def normal_form3(f_or_span):
    blocks = decompose3(span(f_or_span, 3))
    p = sum(1 for k, _ in blocks if k == "t+") % 2
    return p, len(blocks) - p


def parity2(f_or_span) -> int:
    view = span(f_or_span, 2)
    f = view.form
    return 0 if all(b_value(f, x, x) == 0 for x in view.elements()) else 1


def characteristic_element(f_or_span):
    view = span(f_or_span, 2)
    f = view.form
    for v in view.elements():
        if all(b_value(f, v, g) == f.q(g) % 1 for g in view.gens):
            return v
    raise ValueError("no characteristic element (degenerate input)")


# anti-isomorphisms by search ---------------------------------------------------

_Q_OF_KIND = {"e+": HALF, "e-": THALF, "t+": TWO3, "t-": FOUR3}
_ATOM_OF_KIND = {"u2": "u2", "v2": "v2", "e+": "<1/2>", "e-": "<-1/2>", "t+": "<2/3>", "t-": "<-2/3>"}


def _census(view: Span) -> Counter:
    return Counter(view.form.q(x) for x in view.elements())


def present_with(view: Span, kinds: list[str]):
    """Blocks presenting the span as the given ordered kinds, found by
    backtracking over its elements; None when the search finds none.

    A branch is cut when the span's census of squares differs from that of
    the sum of the kinds still to place: an isomorphism keeps the census, so
    no presentation is lost.
    """
    f = view.form
    if _census(view) != _census(span(standard_form("+".join(_ATOM_OF_KIND[k] for k in kinds)), view.p)):
        return None
    if not kinds:
        return []
    kind, rest = kinds[0], kinds[1:]
    if kind in _Q_OF_KIND:
        for x in view.elements():
            if f.q(x) == _Q_OF_KIND[kind]:
                sub = present_with(complement_of(view, [x]), rest)
                if sub is not None:
                    return [(kind, [x])] + sub
        return None
    elems = [e for e in view.elements() if any(e) and f.q(e) % 1 == 0]
    for x in elems:
        for y in elems:
            if y == x or b_value(f, x, y) == 0:
                continue
            found_kind, gens = normalize_2block(f, x, y)
            if found_kind != kind:
                continue
            sub = present_with(complement_of(view, gens), rest)
            if sub is not None:
                return [(kind, gens)] + sub
    return None


def build_anti_iso(src, tgt, p: int):
    """(source gens, target gens) of an anti-isomorphism of elementary
    p-groups: the source split into blocks, the target searched for blocks of
    the anti kinds; None when the search finds none."""
    blocks = decompose2(span(src, 2))[1] if p == 2 else decompose3(span(src, 3))
    tgt_blocks = present_with(span(tgt, p), [ANTI_KIND[k] for k, _ in blocks])
    if tgt_blocks is None:
        return None
    return [g for _k, gs in blocks for g in gs], [g for _k, gs in tgt_blocks for g in gs]


def anti_iso_root(target, source):
    """The first v (in sorted order) of the source 2-group with q(v) = 3/2,
    characteristic exactly when the target is even, whose complement is
    anti-isomorphic to the target; None when there is none."""
    view = span(source, 2)
    want_char = parity2(target) == 0
    char = characteristic_element(view)
    want = normal_form2(target)
    for v in sorted(view.elements()):
        if source.q(v) != THALF or (v == char) != want_char:
            continue
        if anti_normal_form2(normal_form2(complement_of(view, [v]))) == want:
            return v
    return None


def subgroup_elements(f, gens) -> frozenset:
    """The span of gens, grown one generator at a time by all its multiples."""
    seen = {f.zero()}
    for g in gens:
        steps = [smul(f, c, g) for c in range(1, f.element_order(g))]
        seen |= {f.add(e, s) for e in seen for s in steps}
    return frozenset(seen)


def orthogonal_of_subgroup(f, gens):
    return [x for x in f.elements() if all(b_value(f, x, g) == 0 for g in gens)]


def coset_fingerprint(f, h_gens) -> tuple[tuple[int, Fraction], ...]:
    """(order, square) over the cosets of H = <h_gens> in H^perp, H isotropic:
    one frozenset per coset, and the order of x + H the least k with kx in H."""
    h = subgroup_elements(f, h_gens)
    seen, rows = set(), []
    for x in orthogonal_of_subgroup(f, h_gens):
        coset = frozenset(f.add(x, y) for y in h)
        if coset not in seen:
            seen.add(coset)
            rows.append((next(k for k in itertools.count(1) if smul(f, k, x) in h), f.q(x)))
    return tuple(sorted(rows))


def fingerprint(f) -> tuple[tuple[int, Fraction], ...]:
    return tuple(sorted((f.element_order(x), f.q(x)) for x in f.elements()))


def isometries(f, g):
    """Every isometry f -> g, as the tuple of images of f's generators.

    Backtracks over the images: an image keeps its generator's order and
    square and its pairings with the earlier images, and the images must
    span g, so that (for |f| = |g|) the map is a group isomorphism.
    """
    basis = [tuple(int(i == j) for j in range(f.ngens)) for i in range(f.ngens)]
    elems = [(x, g.element_order(x), g.q(x)) for x in g.elements()]

    def rec(images):
        if len(images) == len(basis):
            if len(subgroup_elements(g, images)) == g.size:
                yield tuple(images)
            return
        e = basis[len(images)]
        order, q = f.element_order(e), f.q(e)
        for x, ox, qx in elems:
            if ox == order and qx == q and all(b_value(g, x, y) == b_value(f, e, z) for y, z in zip(images, basis)):
                yield from rec(images + [x])

    return rec([])


def isometric(f, g) -> bool:
    """Whether some group isomorphism f -> g preserves q (|G| <= 256).

    An isometry keeps the fingerprint, so unequal fingerprints answer
    first; otherwise `isometries` searches for one."""
    if f.size > 256:
        raise ValueError("group too large")
    if fingerprint(f) != fingerprint(g):
        return False
    return any(True for _ in isometries(f, g))


def aut_g_delta_orders() -> tuple[int, int]:
    """(|Aut(G, delta)|, |Aut_comp(G, delta)|) for G = 6<-2/3>, delta the diagonal.

    Aut_comp is enumerated directly (signed coordinate permutations fixing
    {+-delta}).  The full stabilizer order is |image| * |kernel| of the
    reduction to Aut(G^delta/(delta)): the image is everything because the
    coordinatewise maps already surject (their reduction is injective and
    hits all 1440 = |Aut(<-2/3>+3<2/3>)| elements), and the kernel -- maps
    fixing every class of G^delta/(delta) -- is scanned exhaustively through
    its complete parametrization f(w) = w + lambda(w) delta on delta-perp.
    """
    n = 6
    delta = (1,) * n

    # On 6<-2/3> both q and b reduce to integer data mod 3: q(x) is fixed by
    # sum(x_i^2) mod 3 and 3*b(x, y) = sum(x_i y_i) mod 3.
    def dot(x, y):
        return sum(a * b for a, b in zip(x, y)) % 3

    # coordinatewise maps (signed permutations) with f(delta) = +-delta
    comp_count = 0
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, 2), repeat=n):
            image_of_delta = [0] * n
            for i in range(n):
                image_of_delta[perm[i]] = signs[i]
            if len(set(image_of_delta)) == 1:
                comp_count += 1

    # basis adapted to delta: (delta, u, w1..w4), u non-orthogonal to delta,
    # the w_i spanning a complement of (delta, u)
    u = (1, 0, 0, 0, 0, 0)
    ws = [(1, 2, 0, 0, 0, 0), (1, 0, 2, 0, 0, 0), (1, 0, 0, 2, 0, 0), (1, 0, 0, 0, 2, 0)]
    mat = [list(delta), list(u)] + [list(w) for w in ws]
    if dot(delta, u) == 0 or any(dot(w, delta) for w in ws) or determinant(mat) % 3 == 0:
        raise ValueError("(delta, u, w1..w4) is not a basis of (Z/3)^6 adapted to delta")

    elems = list(itertools.product(range(3), repeat=n))
    q_code = {x: dot(x, x) for x in elems}
    kernel = 0
    for eps in (1, 2):
        f_delta = tuple(eps % 3 for _ in range(n))
        for lambdas in itertools.product(range(3), repeat=4):
            f_ws = [
                tuple((wc + lam) % 3 for wc in w) for w, lam in zip(ws, lambdas)
            ]
            targets = [dot(u, delta)] + [dot(u, w) for w in ws]
            quc = q_code[u]
            for cand in elems:
                if q_code[cand] != quc:
                    continue
                if dot(cand, f_delta) != targets[0]:
                    continue
                if any(dot(cand, fw) != t for fw, t in zip(f_ws, targets[1:])):
                    continue
                kernel += 1
    image = 1440  # = |Aut(<-2/3>+3<2/3>)|, attained already by Aut_comp
    return image * kernel, comp_count


# random changes of generators and of lattice bases ---------------------------

def change_generators(f, p: int, ops):
    """f, a p-group, presented on new generators: the rows of the identity
    after the elementary operations ops, each (i, j, c) adding c * row j to
    row i (c times d_j / d_i when the order d_j of generator j exceeds the
    order d_i of generator i, so that row i keeps order d_i), or for i == j
    scaling row i by c (c prime to p).  Each operation is an automorphism of
    the group, so the result is isomorphic to f."""
    d = f.orders
    rows = [[int(i == j) for j in range(f.ngens)] for i in range(f.ngens)]
    for i, j, c in ops:
        if i == j:
            if c % p == 0:
                raise ValueError("scaling by a multiple of p")
            rows[i] = [c * x % o for x, o in zip(rows[i], d)]
        else:
            c *= max(1, d[j] // d[i])
            rows[i] = [(x + c * y) % o for x, y, o in zip(rows[i], rows[j], d)]
    gens = [tuple(r) for r in rows]
    return form_on_generators(d, [[b_value(f, x, y) for y in gens] for x in gens], [f.q(x) for x in gens])


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
            x = fsrc.add(x, smul(fsrc, c, g))
            y = ftgt.add(y, smul(ftgt, c, t))
        if (fsrc.q(x) + ftgt.q(y)) % 2 != 0:
            return False
    return len(subgroup_elements(fsrc, src_gens)) == len(subgroup_elements(ftgt, tgt_gens))


def brown_elementary2(f) -> int:
    """Br of an elementary 2-group from the histogram of 2q mod 4 over all
    its elements.

    With n = 2 the Gauss sum sum_x exp(i*pi*q(x)) is re + i*im for
    re = #{2q = 0} - #{2q = 2} and im = #{2q = 1} - #{2q = 3}; its magnitude
    is sqrt|G| and its direction a multiple of pi/4, read off the signs.
    """
    counts = Counter(2 * f.q(x) for x in f.elements())
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
                        step = smul(f, mult, x)
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


def jordan_constituents(f, p: int) -> list[tuple]:
    """The Jordan constituents (k, u, rank) of the p-part of f, as `forms._split` makes them."""
    return [(k, u, len(idx)) for k, u, idx in forms._split(forms.p_part(f, p), p, False)[1]]


def jordan_symbol(f, p: int) -> tuple:
    return forms.canonical_symbol(p, jordan_constituents(f, p))


def jordan_brown(f) -> int:
    """Brown off the Jordan splitting of each whole p-part."""
    return sum(forms._block_brown(p, k, u) for p in prime_factors_of_order(f)
               for k, u, _rank in jordan_constituents(f, p)) % 8


def render_form(f, ascii_mode: bool = False) -> str:
    """`forms.render_form` with each elementary 2- or 3-part's normal form
    read off its p-adic symbol.

    (2, n, eps, 0, t) is a*u2 + b*v2 with a + b = n/2 and b = 1 exactly when
    eps = -1; (2, n, eps, 1, t) is a*<1/2> + b*<-1/2> with a + b = n,
    a - b = t mod 8 and a reduced mod 4; (3, n, eps) is a*<2/3> + b*<-2/3>
    with a + b = n and a = 1 exactly when eps = -1.
    """
    parts = []
    for p in prime_factors_of_order(f):
        part = forms.p_part(f, p)
        if p in (2, 3) and is_elementary(part, p):
            ((_q, n, eps, *odd_t),) = forms.jordan_symbol(f, p)
            minus = int(eps == -1)
            if p == 3:
                names, a, b = ("⟨2/3⟩", "⟨-2/3⟩"), minus, n - minus
            elif not odd_t[0]:
                names, a, b = ("u2", "v2"), n // 2 - minus, minus
            else:
                a = (n + odd_t[1]) // 2 % 4
                names, b = ("⟨1/2⟩", "⟨-1/2⟩"), n - a
            parts += [names[0]] * a + [names[1]] * b
        else:
            parts.append("+".join(f"Z/{d}" for d in sorted(part.orders)))
    text = "+".join(parts) if parts else "0"
    if ascii_mode:
        text = text.replace("⟨", "q(").replace("⟩", ")")
    return text


def block_form(gram) -> FiniteQuadraticForm:
    """`forms.block_form` with products over the unreduced lift columns."""
    g = [list(row) for row in gram]
    _u, d, vt = exact.smith_normal_form(g, with_u=False)
    cols = []
    orders = []
    for i in range(len(g)):
        di = d[i][i]
        if di == 0:
            raise ValueError("degenerate lattice")
        if di > 1:
            orders.append(di)
            cols.append(tuple(vt[i]))
    n = math.lcm(*orders)
    duals = [[x // di for x in row] for row, di in zip(exact.mat_mul(cols, g), orders)]
    pairs = exact.mat_mul(duals, exact.transpose(cols))
    scale = [n // di for di in orders]
    gram = _reduced([[x * s for x, s in zip(row, scale)] for row in pairs], n)
    return FiniteQuadraticForm(tuple(orders), n, gram, tuple(cols) or None)
