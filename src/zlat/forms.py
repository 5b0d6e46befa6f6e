"""Finite inner-product groups with quadratic refinement (enhanced groups).

A FiniteQuadraticForm is presented by generators of orders d_1, ..., d_k
(for a discriminant form, a divisor chain per orthogonal block of the
lattice) with a Q/Z-valued pairing and Q/2Z-valued squares on the generators.
Elements are coefficient tuples mod the orders.

Every value lies in (1/n)Z for the exponent n = lcm(orders): b(e_i, e_j) has
order dividing gcd(d_i, d_j) and q(e_i) = b(e_i, e_i) mod 1.  So a form is
one symmetric integer matrix over n, its `gram`: n q(e_i) mod 2n on the
diagonal and n b(e_i, e_j) mod n off it (Conway-Sloane, SPLAG ch. 15 §7).
Then n b(x, y) = x gram y^T mod n and n q(x) = x gram x^T mod 2n, summed
over `entries`, the nonzero entries of gram on and above the diagonal.  For
a discriminant form the lift of e_i to the lattice is lift_cols[i] / d_i.
No `Fraction` enters: every form is built from integers.  Fractions leave
only through `q` and `fingerprint`; everything else reads the integers.
Brown and the Jordan constituents of each p-part come from one memoized
`jordan_record` per form value.  A form built as an orthogonal sum
(`discriminant_form`, `direct_sum_forms`) keeps its summands and their lift
places and builds its gram, lifts and entries (off its summands' grams) on
first read (a `lattice.LazyField`, no attribute hook); `brown` and
`jordan_symbol` read the record of each summand, a form without summands
(raw input, `isotropic_quotient`, a p-part of one) its own record.  A sum's
p-parts and lift vectors are read off its summands too, and its lift
columns off its lift vectors.  `p_part` checks a raw gram against its
exponent, so `brown` and `jordan_symbol` reject the same malformed forms.
Anti-isomorphisms are memoized per form value too: `anti_iso_images` and
the `GlueMap` check `_anti_iso_order` read orders, n and gram, which form
equality compares, never lift_cols, which it ignores; they return elements
and an order, never a form, so a form that recurs with other lifts shares
their memo entries while every glue keeps its own lattice's lifts.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from . import exact
from .lattice import MEMO_SIZE, Frozen, LazyField, Lattice, keep_form

Element = tuple[int, ...]


class FiniteQuadraticForm(Frozen):
    _fields = ("orders", "n", "gram", "lift_cols")  # the repr's; equality and the hash read orders, n and gram
    orders: tuple[int, ...]
    n: int
    gram: tuple[tuple[int, ...], ...]
    lift_cols: tuple[tuple[int, ...], ...] | None
    # the forms it is the orthogonal sum of, in generator order, none a sum;
    # () if not built as one.  Cached data: no comparison, hash or key reads it
    summands: tuple[FiniteQuadraticForm, ...]
    # of a sum with lifts, the lattice indices of each summand's lift columns
    places: tuple | None
    # the nonzero entries of gram on and above the diagonal, (diagonal, ((i, j, gram[i][j]) for i < j))
    entries: tuple

    def __init__(self, orders, n, gram, lift_cols=None):
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "lift_cols", lift_cols)
        object.__setattr__(self, "summands", ())
        object.__setattr__(self, "places", None)

    def __eq__(self, other):
        if other.__class__ is not FiniteQuadraticForm:
            return NotImplemented
        return (self.orders, self.n, self.gram) == (other.orders, other.n, other.gram)

    def __hash__(self):
        return hash((self.orders, self.n, self.gram))

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def zero(self) -> Element:
        return (0,) * self.ngens

    @property
    def units(self) -> tuple[Element, ...]:
        """The generators, as elements."""
        k = self.ngens
        return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))

    def add(self, x, y) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def elements(self):
        return itertools.product(*[range(d) for d in self.orders])

    def element_order(self, x) -> int:
        return math.lcm(*[d // math.gcd(c, d) for c, d in zip(x, self.orders)])

    def _pair(self, x, y) -> int:
        """x gram y^T, unreduced, for integer vectors x and y, over `entries`."""
        diag, offs = self.entries
        total = sum(map(mul, diag, map(mul, x, y)))
        for i, j, g in offs:
            total += g * (x[i] * y[j] + x[j] * y[i])
        return total

    def b_numer(self, x, y) -> int:
        """n * b(x, y), reduced mod n."""
        return self._pair(x, y) % self.n

    def q_numer(self, x) -> int:
        """n * q(x), reduced mod 2n."""
        return self._pair(x, x) % (2 * self.n)

    def q(self, x) -> Fraction:
        """q(x) = x gram x^T / n mod 2, the `q_numer` over n."""
        return _fraction(self._pair(x, x) % (2 * self.n), self.n)

    def lift_vector(self, x) -> tuple[list[int], int]:
        """(w, n): the lift of x to the source lattice is w / n (when lifts are
        recorded).  Each summand adds its lift columns at its place, a form
        without summands being its own at range(width), so a sum builds no
        dense lifts."""
        width = _lift_width(self)
        if width is None:
            raise ValueError("form carries no lattice lifts")
        w, n, at = [0] * width, self.n, 0
        for s, place in zip(self.summands or (self,), self.places if self.summands else (range(width),)):
            for c, col, d in zip(x[at:at + len(s.orders)], s.lift_cols or (), s.orders):
                if c:
                    k = c * (n // d)
                    for i, v in zip(place, col):
                        w[i] += k * v
            at += len(s.orders)
        return w, n


@lru_cache(maxsize=MEMO_SIZE)
def _fraction(k: int, n: int) -> Fraction:
    """Fraction(k, n), made once per pair while it stays in the memo."""
    return Fraction(k, n)


def _reduced(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """The integer rows as a form's gram over n: the diagonal mod 2n, the rest mod n."""
    return tuple([tuple([x % (2 * n) if i == j else x % n for j, x in enumerate(row)]) for i, row in enumerate(rows)])


TRIVIAL_FORM = FiniteQuadraticForm((), 1, (), ())


def discriminant_form(l: Lattice) -> FiniteQuadraticForm:
    """The discriminant L*/L with Q/Z pairing and Q/2Z quadratic refinement.

    The orthogonal sum of the `block_form`s of the blocks of
    `Lattice.orthogonal_split` (Nikulin 1979, §1), the split that also
    serves the determinant and `signature`: generators are taken per block,
    in block order, and each block's lift columns go back to its indices.  A
    unimodular block adds no generator; the sum records lifts whenever it is
    nontrivial.  A lattice of one block is a sum of one, so every
    discriminant form keeps its block forms as its summands.  Built once
    per `Lattice` instance and kept on it (`lattice.keep_form`), never
    keyed: a form costs its blocks' `block_form` lookups until its gram is
    read.
    """
    if l._form is None:
        keep_form(l, _discriminant_form(l))
    return l._form


def _discriminant_form(l: Lattice) -> FiniteQuadraticForm:
    if not l.is_even:
        raise ValueError("lattice is not even")
    blocks = l.orthogonal_split()
    return _orthogonal_sum([block_form(g) for _idx, g in blocks], [idx for idx, _g in blocks])


@lru_cache(maxsize=MEMO_SIZE)
def block_form(gram: tuple[tuple[int, ...], ...]) -> FiniteQuadraticForm:
    """The discriminant form of one even Gram matrix from its Smith transform,
    memoized, so that the blocks many direct sums share are reduced once.

    The i-th generator lifts to c_i / d_i with c_i column i of V, which
    makes all lifts deterministic (a unimodular block records none).  With
    r_i = c_i mod d_i, all pairings b(e_i, e_j) = (r_i G / d_i) r_j / d_j
    come from one integer product, whose diagonal holds the squares; over n
    it is the form's gram.  On an even lattice (its callers check) a lift
    moved by a lattice vector moves b by integers and q by even integers,
    so r_i gives c_i's form.  Only D and V of the Smith form are read.
    """
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
    small = [[x % di for x in col] for col, di in zip(cols, orders)]
    duals = [[x // di for x in row] for row, di in zip(exact.mat_mul(small, g), orders)]
    pairs = exact.mat_mul(duals, exact.transpose(small))
    scale = [n // di for di in orders]
    gram = _reduced([[x * s for x, s in zip(row, scale)] for row in pairs], n)
    return FiniteQuadraticForm(tuple(orders), n, gram, tuple(cols) or None)


def direct_sum_forms(*forms: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """Orthogonal sum; the lifts are kept, side by side, when every summand records them."""
    places = None
    widths = [_lift_width(f) for f in forms]
    if forms and None not in widths:
        places = [range(a, a + w) for a, w in zip(itertools.accumulate(widths, initial=0), widths)]
    return _orthogonal_sum(forms, places)


def _lift_width(f: FiniteQuadraticForm) -> int | None:
    """The length of f's lift columns, None when f records no lifts.  A sum's
    is read off its places, so that no lifts are built: it has lift columns
    exactly when it has places and a generator (see `_sum_lifts`)."""
    if f.summands:
        return sum(map(len, f.places)) if f.places is not None and f.orders else None
    return None if f.lift_cols is None else len(f.lift_cols[0]) if f.lift_cols else 0


def _orthogonal_sum(forms, places) -> FiniteQuadraticForm:
    """The orthogonal sum of the forms, held as its summands (those of a sum
    in its place), their orders and n = lcm of theirs: `_sum_gram` and
    `_sum_lifts` build the gram and the lifts, each on its first read.
    places[i] lists the lattice indices of form i's lift columns (together
    they index the whole lattice), or is None."""
    summands, where = [], []
    for f, place in zip(forms, places or itertools.repeat(None)):
        summands += f.summands or (f,)
        where += [tuple([place[i] for i in p]) for p in f.places] if f.summands and places else [place]
    s = object.__new__(FiniteQuadraticForm)
    object.__setattr__(s, "orders", tuple([d for f in summands for d in f.orders]))
    object.__setattr__(s, "n", math.lcm(*[f.n for f in summands]))
    object.__setattr__(s, "summands", tuple(summands))
    object.__setattr__(s, "places", tuple(where) if places else None)
    return s


def _sum_gram(f: FiniteQuadraticForm) -> None:
    """A sum's gram: each summand's gram a diagonal block, rescaled by n / n_s
    (which keeps it reduced), every row a tuple, the summand's own row (or
    its rescaled copy) between two slices of one zero row."""
    n, zeros, gram = f.n, (0,) * len(f.orders), []
    for s in f.summands:
        k, at = n // s.n, len(gram)
        left, right = zeros[:at], zeros[at + len(s.orders):]
        gram += [left + (row if k == 1 else tuple([x * k for x in row])) + right for row in s.gram]
    object.__setattr__(f, "gram", tuple(gram))


def _sum_lifts(f: FiniteQuadraticForm) -> None:
    """A sum's lift columns, read off `lift_vector`: e_i lifts to
    lift_cols[i] / d_i = w / n, so column i is w d_i / n.  None when the sum
    has no generator (the empty sum too, which has no summands) or no lifts."""
    cols = None
    if f.orders and _lift_width(f) is not None:
        cols = tuple([tuple([x // (f.n // d) for x in f.lift_vector(e)[0]]) for e, d in zip(f.units, f.orders)])
    object.__setattr__(f, "lift_cols", cols)


def _fill_entries(f: FiniteQuadraticForm) -> None:
    """The summands' nonzero gram entries (a plain form's own), shifted and scaled as in `_sum_gram`."""
    diag, offs = [], []
    for s in f.summands or (f,):
        k, at, g = f.n // s.n, len(diag), s.gram
        diag += [row[i] * k for i, row in enumerate(g)]
        if len(g) > 1:
            offs += [(i + at, j + at, x * k) for i, row in enumerate(g) for j, x in enumerate(row) if j > i and x]
    object.__setattr__(f, "entries", (tuple(diag), tuple(offs)))


# a sum's gram and lift columns, and every form's entries, are built on first read (see `LazyField`)
FiniteQuadraticForm.gram = LazyField("gram", _sum_gram)
FiniteQuadraticForm.lift_cols = LazyField("lift_cols", _sum_lifts)
FiniteQuadraticForm.entries = LazyField("entries", _fill_entries)


# standard small forms -------------------------------------------------------

ATOMS = {  # n q(e_i) on the diagonal, n b(e_i, e_j) off it, over n = 2 or 3
    "u2": FiniteQuadraticForm((2, 2), 2, ((0, 1), (1, 0))),
    "v2": FiniteQuadraticForm((2, 2), 2, ((2, 1), (1, 2))),
    "<1/2>": FiniteQuadraticForm((2,), 2, ((1,),)),
    "<-1/2>": FiniteQuadraticForm((2,), 2, ((3,),)),
    "<2/3>": FiniteQuadraticForm((3,), 3, ((2,),)),
    "<-2/3>": FiniteQuadraticForm((3,), 3, ((4,),)),
}


def standard_form(spec: str) -> FiniteQuadraticForm:
    """Sum expression over the `ATOMS` u2, v2, <1/2>, <-1/2>, <2/3>, <-2/3> joined with '+'."""
    parts = []
    for term in spec.replace(" ", "").split("+"):
        if not term:
            continue
        atom = term.lstrip("0123456789")
        if atom not in ATOMS:
            raise ValueError(f"unknown form atom {term!r}")
        count = int(term[:len(term) - len(atom)] or 1)
        if not count:
            raise ValueError(f"zero repetition count in {term!r}")
        parts += [ATOMS[atom]] * count
    return direct_sum_forms(*parts) if parts else TRIVIAL_FORM


# p-parts ---------------------------------------------------------------------

def p_part(f: FiniteQuadraticForm, p: int) -> FiniteQuadraticForm:
    """The restriction of the form to the maximal p-subgroup.

    Its generators are m_i e_i of order p^k = d_i / m_i; they lift to
    c_i / p^k, so the lift columns are kept.  A p-group is its own p-part,
    and the p-part of a sum with a p-part is the sum of its summands' in
    their places (a summand of order prime to p adds the trivial form), so
    it builds no dense gram or lifts.  Otherwise its gram over the p-part pe
    of n is m_a m_b g_ab / r for r = n / pe: on a valid form b and q on the
    p-part lie in (1/pe)Z, so r divides each product; a gram off that
    (malformed raw input) raises, naming p."""
    pe = math.gcd(f.n, p ** f.n.bit_length())  # the p-part of n
    idx = [i for i, d in enumerate(f.orders) if d % p == 0]
    if f.n == pe and len(idx) == f.ngens:
        return f
    if f.summands and idx:
        return _orthogonal_sum([p_part(s, p) if s.n % p == 0 else TRIVIAL_FORM for s in f.summands], f.places)
    orders = tuple([math.gcd(f.orders[i], pe) for i in idx])
    r = f.n // pe  # pe * x / f.n = x / r
    picked = [(i, f.orders[i] // pk) for i, pk in zip(idx, orders)]
    products = [[ma * mb * f.gram[i][j] for j, mb in picked] for i, ma in picked]
    if any(x % r for row in products for x in row):
        raise ValueError(f"{p}-part gram is not divisible by n/{pe} = {r}")
    gram = _reduced([[x // r for x in row] for row in products], pe)
    lift_cols = None if _lift_width(f) is None else tuple(f.lift_cols[i] for i in idx)
    return FiniteQuadraticForm(orders, pe, gram, lift_cols)


def p_rank(f: FiniteQuadraticForm, p: int) -> int:
    return sum(1 for d in f.orders if d % p == 0)


def prime_factors_of_order(f: FiniteQuadraticForm) -> list[int]:
    return _primes(math.lcm(*f.orders))


def _primes(n: int) -> list[int]:
    """The primes dividing n, ascending, by trial division."""
    primes, k = [], 2
    while k * k <= n:
        if n % k == 0:
            primes.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        primes.append(n)
    return primes


def is_elementary(f: FiniteQuadraticForm, p: int) -> bool:
    return all(d == p for d in f.orders)


# Jordan splitting ---------------------------------------------------------------

def _split(f: FiniteQuadraticForm, p: int, with_vectors: bool):
    """Jordan splitting of a p-group by Gram-Schmidt over Z/p^k, scale by scale.

    Tracks vectors over the form's generators (only `with_vectors`) and
    their gram: pairings n*b mod n, squares n*q mod 2n on the diagonal (for
    odd p only b(x, x), the diagonal mod n, is read).  At scale m, from the
    exponent n down to p, every live pairing has order dividing m, so its
    numerator is a multiple of s = n/m.  A vector x with b(x, x) of order m
    splits off alone, each other t becoming t - b(t, x) b(x, x)^-1 x.  When
    none is left, odd p turns x into x + y for a pair with b(x, y) of order
    m, whose b(x + y, x + y) = b(x, x) + b(y, y) + 2b(x, y) then has order m;
    p = 2 splits off the pair, after x + y replaces the one of x, y whose
    square has an odd numerator over 2/m (x + y has an even one), and
    projects the others by the adjugate of the pair's Gram block, whose
    determinant is odd.  When no pair of order m is left either, the scale
    drops to m/p.  A projection t += c x rewrites row t alone: row t + c row
    x pairs t + cx, which is orthogonal to x, with every projected u + c'x.

    Returns the vectors (None without `with_vectors`) and the blocks
    (k, u, vector indices) of scale p^k in the order split off: <u/p^k> of
    rank 1, with q(x) = u/2^k for p = 2 and b(x, x) = u/p^k for odd p, or
    the pair u_k ("u": 2^(k-1) q(x) and 2^(k-1) q(y) even) or v_k ("v":
    both odd).  Raises on a degenerate form.
    """
    n, r = f.n, f.ngens
    k, m = 0, 1
    while m < n:
        k, m = k + 1, m * p
    a = f.gram[0][0] if r == 1 else 0
    if a % p and f.orders[0] == m:  # <u/p^k>: one block, nothing to project
        return ([[1]] if with_vectors else None), [(k, a if p == 2 else a % n, [0])]
    g = [list(row) for row in f.gram]
    vecs = [[int(a == c) for c in range(r)] for a in range(r)] if with_vectors else None
    live = list(range(r))

    def add(t, s, c=1):  # vector t += c * vector s, with row t of the gram
        gt, gs = g[t], g[s]
        row = [(x + c * y) % n for x, y in zip(gt, gs)]
        row[t] = (gt[t] + 2 * c * gt[s] + c * c * gs[s]) % (2 * n)
        g[t] = row
        if vecs is not None:
            vecs[t] = [(x + c * y) % n for x, y in zip(vecs[t], vecs[s])]

    def replace(t, s):  # vector t += vector s, with row and live column t
        add(t, s)
        for u in live:
            g[u][t] = g[t][u]

    blocks, e = [], 0  # e: the exponent of p in the order of the span of the blocks
    while live:
        s = n // m
        sp = s * p  # a live numerator off the multiples of sp has order m
        for i in live:
            if g[i][i] % sp:
                break
        else:
            i = None
        if i is not None:
            live.remove(i)
            inv = pow(g[i][i] // s, -1, m)
            for t in live:
                c = -(g[i][t] // s) * inv % m
                if c:
                    add(t, i, c)
            blocks.append((k, g[i][i] // s if p == 2 else g[i][i] % n // s, [i]))
            e += k
            continue
        i, j = next(((i, j) for i in live for j in live if g[i][j] % sp), (None, None))
        if i is None:
            if m == p:
                raise ValueError(f"degenerate {p}-group")
            k, m = k - 1, m // p
            continue
        if p != 2:
            replace(i, j)
            continue
        odd_i, odd_j = g[i][i] % (2 * sp) != 0, g[j][j] % (2 * sp) != 0
        if odd_i != odd_j:
            replace(*((i, j) if odd_i else (j, i)))
        live.remove(i)
        live.remove(j)
        a, w, d = g[i][i] // s, g[i][j] // s, g[j][j] // s
        inv = pow(a * d - w * w, -1, m)
        for t in live:
            ti, tj = g[i][t] // s, g[j][t] // s
            ci, cj = (w * tj - d * ti) * inv % m, (w * ti - a * tj) * inv % m
            if ci:
                add(t, i, ci)
            if cj:
                add(t, j, cj)
        blocks.append((k, "v" if g[i][i] % (2 * sp) else "u", [i, j]))
        e += 2 * k
    if p ** e != f.size:
        raise ValueError(f"degenerate {p}-group")
    return vecs, blocks


def _legendre(a: int, p: int) -> int:
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _block_brown(p: int, k: int, u) -> int:
    """Brown invariant of a `_split` block of scale p^k, in closed form:
    <u/2^k> gives u, plus 4 when k is odd and u = +-3 mod 8; u_k gives 0 and
    v_k 4 when k is odd; an odd <u/p^k> gives 0 when k is even, else 2 when
    p = 3 mod 4, plus 4 when (2u/p) = -1 (Gauss sums over Z/p^k)."""
    odd = k % 2
    if p == 2:
        if u in ("u", "v"):
            return 4 * odd * (u == "v")
        return u + 4 * odd * (u % 8 in (3, 5))
    return odd * (2 * (p % 4 == 3) + 4 * (_legendre(2 * u, p) == -1))


@lru_cache(maxsize=MEMO_SIZE)
def jordan_record(orders: tuple[int, ...], n: int, gram: tuple[tuple[int, ...], ...]) -> tuple:
    """(Brown, ((p, ((k, u, rank), ...)), ...)) of the form (orders, n, gram),
    memoized on that exact value, the one memo of Jordan data: per prime of
    n, ascending, the `_split` blocks of the p-part (a p-group is its own),
    and the sum of their `_block_brown` in Z/8.  Raises on a degenerate form
    and, through `p_part`, on a gram off its exponent."""
    f = FiniteQuadraticForm(orders, n, gram)
    parts = tuple([(p, tuple([(k, u, len(idx)) for k, u, idx in _split(p_part(f, p), p, False)[1]]))
                   for p in _primes(n)])
    return sum([_block_brown(p, k, u) for p, blocks in parts for k, u, _rank in blocks]) % 8, parts


def jordan_symbol(f: FiniteQuadraticForm, p: int) -> tuple:
    """The canonical p-adic symbol of the p-part of f: `canonical_symbol` of
    the constituents at p in the `jordan_record`s of its orthogonal summands
    (the Jordan splitting of a sum is the union of theirs), or of the whole
    form when it was not built as a sum."""
    blocks = ()
    for s in f.summands or (f,):
        blocks += dict(jordan_record(s.orders, s.n, s.gram)[1]).get(p, ())
    return canonical_symbol(p, blocks)


def canonical_symbol(p: int, blocks) -> tuple:
    """The canonical p-adic symbol of a finite form with the Jordan
    constituents `blocks`, (k, u, rank) as `_split` makes them (in any
    order), a complete invariant of the form (Conway-Sloane, SPLAG ch. 15
    §7), one entry per scale p^k, smallest first.

    Odd p: (p^k, n_k, eps_k), the rank of the Jordan constituent and the
    Legendre symbol of the product of its units.

    p = 2: (2^k, n_k, eps_k, odd_k, t_k).  Of the blocks of scale 2^k, each
    <u/2^k> makes the constituent odd, multiplies eps_k by (2/u) and adds u
    to the oddity t_k (mod 8); each v_k multiplies eps_k by -1.
    An even entry of scale 1 with a free sign stands in front for the
    unimodular part of a lattice with this form.  Oddity fusion puts the
    total oddity of each compartment (a run of odd constituents of
    consecutive scales) on its first entry.  Sign walking then moves each
    eps = -1, last entry first, to the entry before when the two share a
    train (adjacent scales with one of them odd, or one scale apart and both
    odd), adding 4 to each compartment holding either.  The scale-1 entry
    is dropped at the end."""
    if p != 2:
        symbol = {}
        for k, u, _rank in blocks:
            rank, unit = symbol.get(k, (0, 1))
            symbol[k] = (rank + 1, unit * u % p)
        return tuple((p ** k, rank, _legendre(unit, p)) for k, (rank, unit) in sorted(symbol.items()))
    scales = {}
    for k, u, rank in blocks:
        entry = scales.setdefault(k, [k, 0, 1, 0, 0])
        entry[1] += rank
        if u == "v":
            entry[2] = -entry[2]
        elif u != "u":
            entry[2] *= 1 if u % 8 in (1, 7) else -1
            entry[3] = 1
            entry[4] = (entry[4] + u) % 8
    sym = [[0, 0, 1, 0, 0]] + [scales[k] for k in sorted(scales)]
    head = {}  # odd entry -> first entry of its compartment, which holds the oddity
    for i in range(1, len(sym)):
        if sym[i][3]:
            head[i] = head[i - 1] if i - 1 in head and sym[i - 1][0] == sym[i][0] - 1 else i
            if head[i] != i:
                sym[head[i]][4], sym[i][4] = (sym[head[i]][4] + sym[i][4]) % 8, 0
    for i in range(len(sym) - 1, 0, -1):
        prev, cur = sym[i - 1], sym[i]
        gap = cur[0] - prev[0]
        if cur[2] == -1 and (gap == 1 and (prev[3] or cur[3]) or gap == 2 and prev[3] and cur[3]):
            prev[2], cur[2] = -prev[2], 1
            for h in {head.get(i - 1), head.get(i)} - {None}:
                sym[h][4] = (sym[h][4] + 4) % 8
    return tuple((2 ** k, n, eps, odd, t) for k, n, eps, odd, t in sym[1:])


ANTI_KIND = {"e+": "e-", "e-": "e+", "u2": "u2", "v2": "v2", "t+": "t-", "t-": "t+"}


def _blocks(f: FiniteQuadraticForm, p: int):
    """The `_split` of an elementary 2- or 3-group as (kind, generators)
    blocks, rank-1 blocks first: "e+"/"e-" for 2q = 1/3, "u2"/"v2" for a pair
    with both squares 0/1, "t+"/"t-" for 3b(x, x) = 2/1."""
    if not is_elementary(f, p):
        raise ValueError(f"form is not an elementary {p}-group")
    vecs, blocks = _split(f, p, True)
    kind = {(2, 1): "e+", (2, 3): "e-", (2, "u"): "u2", (2, "v"): "v2", (3, 2): "t+", (3, 1): "t-"}
    return [(kind[p, u], [tuple(vecs[i]) for i in idx]) for _k, u, idx in blocks]


@lru_cache(maxsize=MEMO_SIZE)
def normal_basis(f: FiniteQuadraticForm, p: int) -> tuple[tuple[str, tuple[Element, ...]], ...]:
    """Mutually orthogonal blocks spanning an elementary 2- or 3-group, of the
    kinds its normal form names, as (kind, gens) sorted by kind; memoized on
    the form, so a form that recurs (the negated S0 form of every K3
    realization, the 2-parts of witnesses shared by several pairs) is
    reduced once.

    The `_blocks` splitting is rewritten by basis changes that send
    orthogonal blocks to orthogonal blocks (e, t a rank-1 kind, e', t' the
    other): t(x) + t(y) -> t'(x+y) + t'(x-y) leaves at most one t+; with a
    rank-1 block present, u2(x, y) + e(z) -> e(x+z) + e(y+z) + e'(x+y+z) and
    v2(x, y) + e(z) -> e'(x+z) + e'(y+z) + e'(x+y+z) leave rank-1 blocks
    only, and 4e+ -> 4e- (each new vector the sum of three old ones) leaves
    fewer than four e+; otherwise v2(x, y) + v2(z, w) -> u2(x+z, y+z) +
    u2(x+y+w, x+y+z+w) leaves at most one v2.
    """
    bases = {kind: [] for kind in ANTI_KIND}
    for kind, gens in _blocks(f, p):
        bases[kind].append(gens)

    def s(*xs):
        return tuple(sum(c) % p for c in zip(*xs))

    if p == 3:
        plus = bases["t+"]
        while len(plus) > 1:
            (x,), (y,) = plus.pop(), plus.pop()
            bases["t-"] += [[s(x, y)], [s(x, y, y)]]
    elif bases["e+"] or bases["e-"]:
        for pair in ("u2", "v2"):
            for x, y in bases[pair]:
                e = "e+" if bases["e+"] else "e-"
                (z,) = bases[e].pop()
                bases[e if pair == "u2" else ANTI_KIND[e]] += [[s(x, z)], [s(y, z)]]
                bases[ANTI_KIND[e]].append([s(x, y, z)])
            bases[pair] = []
        plus = bases["e+"]
        while len(plus) > 3:
            four = [plus.pop()[0] for _ in range(4)]
            bases["e-"] += [[s(*four[:i], *four[i + 1:])] for i in range(4)]
    else:
        v = bases["v2"]
        while len(v) > 1:
            (x, y), (z, w) = v.pop(), v.pop()
            bases["u2"] += [[s(x, z), s(y, z)], [s(x, y, w), s(x, y, z, w)]]
    return tuple((kind, tuple(gens)) for kind in sorted(bases) for gens in bases[kind])


# Brown invariant -------------------------------------------------------------

def brown(f: FiniteQuadraticForm) -> int:
    """The Brown invariant in Z/8, exact for every finite form: the sum of the
    Brown fields of the `jordan_record`s of its orthogonal summands, or of
    the form itself when it was not built as a sum (Brown is additive over
    orthogonal sums, Nikulin 1979, §1): the records `jordan_symbol` reads."""
    return sum([jordan_record(s.orders, s.n, s.gram)[0] for s in f.summands or (f,)]) % 8


# element census and subgroups ---------------------------------------------------

def fingerprint(f: FiniteQuadraticForm, h_gens=()):
    """Multiset of (element order, square) over all elements, as a sorted
    tuple; complete for elementary 2/3 sums.  Given the generators of an
    isotropic subgroup H, that of H^perp / H (`isotropic_quotient`).

    An integer recursion over the coordinates counts the elements by
    (order, n*q mod 2n); the histogram is then expanded.
    """
    if h_gens:
        f = isotropic_quotient(f, h_gens)
    n, k = f.n, f.ngens
    bil2 = [[2 * x for x in row] for row in f.gram]
    order_of = [[d // math.gcd(c, d) for c in range(d)] for d in f.orders]
    counts = Counter() if k else Counter({(1, 0): 1})

    def rec(j, order, acc, row_acc):
        qj, rj, last = f.gram[j][j], row_acc[j], j == k - 1
        for c, oc in enumerate(order_of[j]):
            o, t = math.lcm(order, oc), acc + c * (c * qj + rj)
            if last:
                counts[o, t % (2 * n)] += 1
            else:
                rec(j + 1, o, t, [r + c * x for r, x in zip(row_acc, bil2[j])])

    if k:
        rec(0, 1, 0, [0] * k)
    return tuple(entry for o, t in sorted(counts) for entry in [(o, Fraction(t, n))] * counts[o, t])


coset_fingerprint = fingerprint


def subgroup_order(f: FiniteQuadraticForm, gens) -> int:
    """|<gens>|: |G| when the gens are the form's own generators, else
    prod(d_i) / det(H) for the Hermite form H of the gens stacked on
    diag(orders), computed modulo n = lcm(orders): n*Z^k lies in that span."""
    gens = [tuple(g) for g in gens]
    if gens == list(f.units):
        return f.size
    k = f.ngens
    rows = gens + [[d if i == j else 0 for j in range(k)] for i, d in enumerate(f.orders)]
    h = exact.hermite_normal_form_mod(rows, math.lcm(*f.orders), k)
    return f.size // math.prod(h[i][i] for i in range(k))


def is_isotropic_subgroup(f: FiniteQuadraticForm, gens) -> bool:
    """Whether q vanishes on <gens>: since q(sum c_i g_i) = sum c_i^2 q(g_i)
    + 2 sum_{i<j} c_i c_j b(g_i, g_j) mod 2, exactly when q does on each
    generator and b on each pair.  `_anti_iso_order` applies this rule to
    the graph of a map, in the orthogonal sum of its two forms."""
    return all(f.q_numer(g) == 0 for g in gens) and all(
        f.b_numer(g, h) == 0 for g, h in itertools.combinations(gens, 2))


def isotropic_quotient(f: FiniteQuadraticForm, h_gens) -> FiniteQuadraticForm:
    """H^perp / H for an isotropic H = <h_gens>, the discriminant form of the
    extension of a lattice by H (Nikulin 1979, §1.4), by integer linear algebra.

    H^perp lifts to M = {x in Z^k : x.(B h) = 0 mod n for each h}, projected
    from the left kernel of [W^T; n I] for the rows W = B h, and H to
    N = diag(orders) + <h_gens>.  Back substitution writes N = C M_H in the
    Hermite basis M_H of M; with U C V = D the Smith form, row i of U N is
    d_i g_i for a basis g of M, and the g_i with d_i > 1 generate H^perp / H
    with orders d_i.  Their gram over n' = lcm(d_i), which divides n, is
    x gram y^T / (n / n') on them.  Raises when H is not isotropic.
    """
    if not is_isotropic_subgroup(f, h_gens):
        raise ValueError("subgroup is not isotropic")
    k, n = f.ngens, f.n
    w = exact.mat_mul(list(h_gens) or [f.zero()], f.gram)
    eqs = exact.transpose(w) + [[n * (i == j) for j in range(len(w))] for i in range(len(w))]
    basis = exact.hermite_normal_form([row[:k] for row in exact.integer_kernel(eqs)])
    lifts = [[d * (i == j) for j in range(k)] for i, d in enumerate(f.orders)] + list(h_gens)
    coords = []
    for v in lifts:
        c = []
        for i, row in enumerate(basis):
            c.append(v[i] // row[i])
            v = [a - c[-1] * b for a, b in zip(v, row)]
        coords.append(c)
    u, d, _vt = exact.smith_normal_form(coords, with_v=False)
    orders = [d[i][i] for i in range(k)]
    gens = [[x // di for x in row] for row, di in zip(exact.mat_mul(u[:k], lifts), orders) if di > 1]
    orders = tuple(di for di in orders if di > 1)
    m = math.lcm(*orders)
    return FiniteQuadraticForm(orders, m, _reduced([[f._pair(x, y) // (n // m) for y in gens] for x in gens], m))


# automorphisms ----------------------------------------------------------------

def aut_order(f: FiniteQuadraticForm) -> int:
    """|O(f)|, the order of the group of q-preserving automorphisms of an
    elementary p-group f for odd p, read off its p-adic symbol (p, n, eps).

    b = B/p for a nondegenerate symmetric form B over F_p of rank n and
    discriminant class eps, so O(f) = O(B) (Taylor, The Geometry of the
    Classical Groups): for n = 2m + 1 its order is 2 p^(m^2) prod_{i=1..m}
    (p^2i - 1); for n = 2m it is 2 p^(m(m-1)) (p^m - e) prod_{i=1..m-1}
    (p^2i - 1), where e = eps (-1/p)^m is +1 exactly when B is hyperbolic.
    The trivial form gives 1.  Raises on p = 2 and on a group that is not
    elementary.
    """
    if not f.orders:
        return 1
    p = f.orders[0]
    if p == 2 or prime_factors_of_order(f) != [p] or not is_elementary(f, p):
        raise ValueError("form is not an elementary p-group for an odd prime p")
    ((_q, n, eps),) = jordan_symbol(f, p)
    m, odd = divmod(n, 2)
    order = 2 * p ** (m * m if odd else m * (m - 1)) * math.prod(p ** (2 * i) - 1 for i in range(1, m + odd))
    return order if odd else order * (p ** m - eps * _legendre(-1, p) ** m)


# anti-isomorphisms ------------------------------------------------------------

class GlueMap(Frozen):
    """Anti-isomorphism between subgroups of two discriminant forms, on
    generators, with the order of the glued subgroup (found by the check)."""

    _fields = ("source_form", "target_form", "source_gens", "target_gens")
    source_form: FiniteQuadraticForm
    target_form: FiniteQuadraticForm
    source_gens: tuple
    target_gens: tuple

    def __init__(self, source_form, target_form, source_gens, target_gens):
        object.__setattr__(self, "source_form", source_form)
        object.__setattr__(self, "target_form", target_form)
        object.__setattr__(self, "source_gens", source_gens)
        object.__setattr__(self, "target_gens", target_gens)
        if len(source_gens) != len(target_gens):
            raise ValueError("generator lists differ in length")
        if self.subgroup_order is None:
            raise ValueError("not an anti-isomorphism")

    @cached_property
    def subgroup_order(self) -> int | None:
        return _anti_iso_order(self.source_form, tuple(map(tuple, self.source_gens)),
                               self.target_form, tuple(map(tuple, self.target_gens)))


@lru_cache(maxsize=MEMO_SIZE)
def _anti_iso_order(fsrc: FiniteQuadraticForm, src_gens: tuple[Element, ...], ftgt: FiniteQuadraticForm,
                    tgt_gens: tuple[Element, ...]) -> int | None:
    """The order of the span of src_gens when src_gens -> tgt_gens negates q
    on that span, onto a span of equal order; else None.  Memoized on the
    forms' values and the generators: the check reads orders, n and gram,
    never the lift columns, so forms that differ only in lifts share it.

    A map between subgroups negates q exactly when its graph is isotropic in
    the orthogonal sum of the two forms (Nikulin 1979, §1.5), which
    `is_isotropic_subgroup` checks on the graph's generators (g, t).  A
    generator of source order 1 only enters the span with coefficient 0, so
    it is skipped.
    """
    graph = [g + t for g, t in zip(src_gens, tgt_gens) if fsrc.element_order(g) > 1]
    if not is_isotropic_subgroup(_orthogonal_sum((fsrc, ftgt), None), graph):
        return None
    order = subgroup_order(fsrc, src_gens)
    return order if order == subgroup_order(ftgt, tgt_gens) else None


def _negated(f: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """f with b and q negated, on the same generators."""
    return FiniteQuadraticForm(f.orders, f.n, _reduced([[-x for x in row] for row in f.gram], f.n))


@lru_cache(maxsize=MEMO_SIZE)
def anti_iso_images(src: FiniteQuadraticForm, tgt: FiniteQuadraticForm, p: int) -> tuple[Element, ...] | None:
    """Images of the source's generators under an anti-isomorphism of
    elementary p-groups (p = 2, 3) onto the target; None when there is none.
    Memoized on the forms' values, so it reads no lift columns and returns
    elements, never a form: a caller pairs the images with its own forms.

    Normal forms are complete invariants, so one exists exactly when the
    kind lists of `normal_basis` of the negated source and of the target
    agree; then the i-th source block goes to the i-th target block.  A
    generator u has dual-basis coordinates p*b(u, x) * p*b(x, x) on a rank-1
    block x (p*b(x, x) is its own inverse mod 2 and 3), and 2b(u, y) on x and
    2b(u, x) on y for a pair (x, y), where b(x, y) = 1/2 and b(x, x) =
    b(y, y) = 0.  O(r^3) for p-rank r.
    """
    neg = _negated(src)
    src_blocks, tgt_blocks = normal_basis(neg, p), normal_basis(tgt, p)
    if [k for k, _ in src_blocks] != [k for k, _ in tgt_blocks]:
        return None
    cols, ws = [], []  # cols[i][k]: coordinate of generator k on the i-th basis vector, sent to ws[i]
    for (_kind, xs), (_kind, block_ws) in zip(src_blocks, tgt_blocks):
        bx = exact.mat_mul(xs, neg.gram)  # rows p*b(x, e_k) mod p over k
        cols += [[c * sum(map(mul, bx[0], xs[0])) for c in bx[0]]] if len(xs) == 1 else bx[::-1]
        ws += block_ws
    return tuple([tuple(x % p for x in row) for row in exact.mat_mul(exact.transpose(cols), ws)])


def build_anti_iso(src: FiniteQuadraticForm, tgt: FiniteQuadraticForm, p: int) -> GlueMap | None:
    """Explicit anti-isomorphism between elementary p-groups on the source's
    own generators, validated once; None when there is none."""
    images = anti_iso_images(src, tgt, p)
    if images is None:
        return None
    return GlueMap(src, tgt, src.units, images)


def render_form(f: FiniteQuadraticForm, ascii_mode: bool = False) -> str:
    """Canonical text, prime by prime: an elementary 2- or 3-part as the kinds
    of its `normal_basis`, else its orders, ascending."""
    names = {"e+": "⟨1/2⟩", "e-": "⟨-1/2⟩", "u2": "u2", "v2": "v2", "t+": "⟨2/3⟩", "t-": "⟨-2/3⟩"}
    parts = []
    for p in prime_factors_of_order(f):
        part = p_part(f, p)
        if p in (2, 3) and is_elementary(part, p):
            parts += [names[kind] for kind, _gens in normal_basis(part, p)]
        else:
            parts.append("+".join(f"Z/{d}" for d in sorted(part.orders)))
    text = "+".join(parts) if parts else "0"
    if ascii_mode:
        text = text.replace("⟨", "q(").replace("⟩", ")")
    return text
