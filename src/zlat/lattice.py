"""Even lattices: the value type, the named catalog, and structural constructions.

A Lattice wraps a square symmetric nondegenerate integer Gram matrix.
Semantic comparison (isomorphism in the genus) lives in `stability`;
equality here is basis-dependent on purpose.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from operator import itemgetter, mul
from typing import NamedTuple, NoReturn

from . import exact
from .exact import Matrix


# entries of each per-value memo of a lattice invariant (keyed on the Gram matrix)
MEMO_SIZE = 1024


class Frozen:
    """The base of the value types that are not tuples: their constructors and
    lazy fills store each field once, through `object.__setattr__`, and any
    other assignment or deletion raises.  The repr shows `_fields`; equality
    and the hash compare them, unless the type says otherwise."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


class LazyField:
    """A field of a value type that `fill(obj)` stores into the instance on
    its first read.  A non-data descriptor on the class: once the instance
    holds the field, the instance's own entry is read and the descriptor is
    not called again.  Only the lazy fields have one; the value types define no
    `__getattr__`, so every other attribute stays a plain instance attribute
    whose reads the interpreter specializes."""

    def __init__(self, name: str, fill):
        self.name, self.fill = name, fill

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        self.fill(obj)
        return getattr(obj, self.name)


class Lattice(Frozen):
    """Its value is its `gram`.  A block sum holds its parts and its
    `orthogonal_split` and lays out `gram` on first read; equality and the
    hash read the split, which determines the Gram matrix."""

    _fields = ("gram", "expr")
    gram: tuple[tuple[int, ...], ...]
    expr: str | None
    rank: int
    _det: int
    _orthogonal: tuple | None = None
    # of a block sum not yet laid out, its (rank, det, split, source) parts, in
    # order; its layout concatenates the Gram matrices of the sources, which
    # are Gram matrices (parsed atoms) or lattices (`direct_sum`)
    _parts: tuple = ()
    _hash: int | None = None
    # its discriminant form (`keep_form`): cached data, never compared,
    # hashed or a key, as `_orthogonal` is
    _form: object = None

    def __new__(cls, gram, expr=None):
        """Every lattice is built, and validated, by `_with_det`."""
        return _with_det(gram, None, expr)

    def __eq__(self, other):
        """Equal Gram matrices: equal `orthogonal_split`s, which determine the
        Gram matrix (its connected blocks, by smallest index), so no block sum
        is laid out."""
        if other.__class__ is not Lattice:
            return NotImplemented
        return (self._det == other._det and self.rank == other.rank
                and self.orthogonal_split() == other.orthogonal_split())

    def __hash__(self):
        """The hash of `orthogonal_split`, computed once per instance."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.orthogonal_split()))
        return self._hash

    def _validate(self, det: int | None, summed: bool = False) -> None:
        """Check symmetry and nondegeneracy.  When det is not known, the
        `_gram_entry` of the Gram matrix checks its symmetry and gives its
        orthogonal split and determinant, once per Gram value.  A constructor
        that hands over det (`_with_det`) has the symmetry checked here, and
        a block sum (`summed`) of validated lattices is symmetric by
        construction."""
        if det is None:
            split, (_p, _z, _m, det) = _gram_entry(self.gram)
            object.__setattr__(self, "_orthogonal", split)
        elif not summed and not exact.is_symmetric(self.gram):
            raise ValueError("gram matrix not symmetric")
        if det == 0:
            raise ValueError("degenerate gram matrix")
        object.__setattr__(self, "_det", det)

    def orthogonal_split(self) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
        """The (indices, block Gram matrix) of the `exact.components` of the
        Gram matrix, by smallest index; a single block is the Gram matrix
        itself.  A lattice built from a raw Gram matrix holds the split of
        its `_gram_entry`, a block sum (`direct_sum`, `parse_lattice_expr`)
        the blocks it placed; a lattice whose constructor handed over its
        determinant (`_with_det`) walks the components on first call.  It
        serves `signature`, equality, the hash and `forms.discriminant_form`."""
        if self._orthogonal is None:
            object.__setattr__(self, "_orthogonal", _split(self.gram, exact.components(self.gram)))
        return self._orthogonal

    def gram_rows(self) -> Matrix:
        return [list(r) for r in self.gram]

    @property
    def is_even(self) -> bool:
        if self._orthogonal is None:
            return all(row[i] % 2 == 0 for i, row in enumerate(self.gram))
        return all(row[i] % 2 == 0 for _idx, g in self._orthogonal for i, row in enumerate(g))

    def det(self) -> int:
        return self._det

    def norm(self, x) -> int:
        g = self.gram
        return sum(x[i] * g[i][j] * x[j] for i in range(self.rank) for j in range(self.rank))


def keep_form(l: Lattice, form) -> None:
    """Keep `form` on l as its discriminant form (see `forms.discriminant_form`):
    cached data, never compared, hashed or a key, as `_orthogonal` is."""
    object.__setattr__(l, "_form", form)


def _lay_out(l: Lattice) -> None:
    """Store a block sum's Gram matrix, its parts' laid out by `_block_gram`,
    and let go of the parts: a lattice without parts holds its gram (or is
    the empty sum, whose layout is empty)."""
    sources = [part[3] for part in l._parts]
    object.__setattr__(l, "gram", _block_gram([s.gram if isinstance(s, Lattice) else s for s in sources]))
    object.__setattr__(l, "_parts", ())


Lattice.gram = LazyField("gram", _lay_out)


def make_lattice(gram: Matrix, expr: str | None = None) -> Lattice:
    return _with_det(gram, None, expr)


def _with_det(gram: Matrix | None, det: int | None, expr: str | None = None, summed=None) -> Lattice:
    """A Lattice, validated: with det None (`Lattice(...)`, `make_lattice`)
    `_validate` reads det off the Gram matrix, else it is known (no elimination).

    `_block_sum` hands over, instead of a gram, `summed` = (rank, parts,
    blocks): the parts it sums and their shifted (indices, Gram matrix)
    blocks.  The lattice keeps the blocks as its `orthogonal_split`, lays
    out its Gram matrix from the parts on first read and, a sum of
    validated parts, skips the symmetry check.  A gram's rows become
    tuples; a tuple is kept.
    """
    l = object.__new__(Lattice)
    if summed is None:
        object.__setattr__(l, "gram", tuple(map(tuple, gram)))
        object.__setattr__(l, "rank", len(l.gram))
    else:
        rank, parts, blocks = summed
        object.__setattr__(l, "rank", rank)
        object.__setattr__(l, "_parts", parts)
        object.__setattr__(l, "_orthogonal", blocks)
    object.__setattr__(l, "expr", expr)
    l._validate(det, summed is not None)
    return l


class _Block(tuple):
    """A connected block of a Gram matrix known to be symmetric: it equals
    and hashes as the plain tuple, so `_gram_entry` files it under the same
    key, and on a miss trusts it without a check or a component walk."""

    __slots__ = ()


def _split(g, blocks) -> tuple:
    """The (indices, block Gram matrix) of the components `blocks` of the
    symmetric g, each block a `_Block`; a single block is g itself."""
    if len(blocks) == 1:
        return ((tuple(range(len(g))), g),)
    return tuple((tuple(b), _Block(map(itemgetter(*b), map(g.__getitem__, b))) if len(b) > 1
                  else _Block(((g[b[0]][b[0]],),))) for b in blocks)


@lru_cache(maxsize=MEMO_SIZE)
def _gram_entry(gram: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple[int, int, int, int]]:
    """The orthogonal split of a Gram matrix and (n_plus, n_zero, n_minus,
    det), summed over its blocks: once per Gram value, for
    `Lattice._validate`, `signature` and `_term`.  A matrix that is not
    square and symmetric raises, so no entry is kept for it.  The entry of
    a connected block holds its own `exact.inertia_det`; that of a sum of
    blocks sums its blocks' entries, each made without a second check."""
    if gram.__class__ is _Block:
        split = ((tuple(range(len(gram))), gram),)
    elif exact.is_symmetric(gram):
        split = _split(gram, exact.components(gram))
    else:
        raise ValueError("gram matrix not symmetric")
    return split, exact.inertia_det(gram) if len(split) == 1 else _inertia(split)


def _inertia(split) -> tuple[int, int, int, int]:
    """(n_plus, n_zero, n_minus, det) summed over the blocks of a split, from their `_gram_entry`s."""
    np_, nz, nm, det = 0, 0, 0, 1
    for _idx, g in split:
        p, z, m, d = _gram_entry(g)[1]
        np_, nz, nm, det = np_ + p, nz + z, nm + m, det * d
    return np_, nz, nm, det


class SublatticeRef(NamedTuple):
    ambient: Lattice
    basis_rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis_rows)

    def rows(self) -> Matrix:
        return [list(r) for r in self.basis_rows]

    def induced_gram(self) -> Matrix:
        b = self.rows()
        g = self.ambient.gram_rows()
        return exact.mat_mul(exact.mat_mul(b, g), exact.transpose(b))

    def as_lattice(self) -> Lattice:
        return make_lattice(self.induced_gram())


def sublattice(ambient: Lattice, rows: Matrix) -> SublatticeRef:
    if rows and exact.rank(rows) != len(rows):
        raise ValueError("dependent rows")
    return SublatticeRef(ambient, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# named catalog

def _an_gram(n: int) -> Matrix:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = 1
    return g


def _dn_gram(n: int) -> Matrix:
    # Dynkin D_n: chain 0-1-...-(n-2) with node n-1 attached to node n-3
    g = _an_gram(n)
    g[n - 1][n - 2] = g[n - 2][n - 1] = 0
    g[n - 1][n - 3] = g[n - 3][n - 1] = 1
    return g


def _en_gram(n: int) -> Matrix:
    # Dynkin E_n: chain 0-1-...-(n-2) with node n-1 attached to node 2
    g = _an_gram(n)
    g[n - 1][n - 2] = g[n - 2][n - 1] = 0
    g[n - 1][2] = g[2][n - 1] = 1
    return g


def named(spec: str) -> Lattice:
    """Catalog lattice by name: one atom of the expression grammar, with no
    count or scale, as `_atom_gram` builds it."""
    m = _TERM.fullmatch(spec)
    if m is None or m[1] or m[2] is None or m[3] or m[4]:
        raise ValueError(f"unknown lattice name {spec.strip()!r}")
    return make_lattice(_atom_gram(m[2]), m[2])


def _block_gram(grams) -> tuple[tuple[int, ...], ...]:
    """Block-diagonal matrix of the given square Gram matrices (tuple rows),
    in order, each row the block's row between two slices of one zero row."""
    n = sum(map(len, grams))
    zeros, rows = (0,) * n, []
    for g in grams:
        left, right = zeros[:len(rows)], zeros[len(rows) + len(g):]
        rows += [left + row + right for row in g]
    return tuple(rows)


def _block_sum(parts, expr: str | None) -> Lattice:
    """The lattice with the (rank, det, orthogonal split, source) parts of
    validated lattices on its diagonal, a source being a part's Gram matrix
    or the lattice itself.  It holds the parts, and their splits, shifted,
    as its blocks, so no component walk or symmetry check runs, and its
    Gram matrix is laid out from the sources only when something reads it."""
    blocks, off, det = [], 0, 1
    for rank, d, split, _source in parts:
        for idx, g in split:
            blocks.append((tuple([i + off for i in idx]), g))
        off, det = off + rank, det * d
    return _with_det(None, det, expr, (off, tuple(parts), tuple(blocks)))


def direct_sum(*lattices: Lattice) -> Lattice:
    """The block sum of the lattices: it holds them and their splits, not a Gram matrix."""
    parts = [l for l in lattices if l.rank > 0]
    expr = "+".join(l.expr for l in parts) if all(l.expr for l in parts) else None
    return _block_sum([(l.rank, l._det, l.orthogonal_split(), l) for l in parts], expr)


EMPTY = make_lattice([], "0")


def signature(l: Lattice) -> tuple[int, int]:
    """(n_plus, n_minus), the sum of the inertias of the orthogonal blocks of the Gram matrix.

    The blocks are those of `Lattice.orthogonal_split`, a lattice of one
    block its own, each read from its `_gram_entry`, so a block is
    eliminated once per Gram value; no memo is kept per lattice.  The
    product of the blocks' determinants must be `det`, which a constructor
    may have handed over, of sign (-1)^n_minus.
    """
    np_, nz, nm, det = _inertia(l.orthogonal_split())
    if nz:
        raise ValueError("degenerate lattice")
    if det != l.det():
        raise ArithmeticError(f"block determinants give {det}, not det {l.det()}")
    if (-1) ** nm != (1 if det > 0 else -1):
        raise ArithmeticError(f"signature {(np_, nm)} disagrees with det {l.det()}")
    return np_, nm


# ---------------------------------------------------------------------------
# overlattices and fractional extensions

def overlattice(l: Lattice, rows, den: int) -> tuple[Lattice, Matrix]:
    """Lattice generated by l and the rational vectors w/den for the integer
    rows w (coords in l's basis), together with its basis as the integer
    HNF rows H.  Raises when the generated lattice is not integral or not
    even.

    The basis is H/den, where H is the HNF of den*I stacked on the rows
    (computed modulo den); its Gram matrix is H*G*H^T / den^2, integral
    exactly when den^2 divides every entry.  Most rows of H stay den*e_i,
    so the product starts from den^2*G and only the other (glue) rows h
    recompute their row and column, from h*G.  Rows of another width than
    the rank do not lie in l (x) Q.
    """
    n = l.rank
    if any(len(w) != n for w in rows):
        raise ValueError("overlattice generators do not span")
    h = exact.hermite_normal_form_mod(rows, den, n)
    den2 = den * den
    gram = l.gram_rows()
    glue = {i: exact.mat_mul([h[i]], gram)[0] for i in range(n)
            if h[i][i] != den or h[i].count(0) != n - 1}
    for i, hg in glue.items():
        for j in range(n):
            x = sum(map(mul, hg, h[j])) if j in glue else den * hg[j]
            if x % den2:
                raise ValueError("overlattice is not integral")
            gram[i][j] = gram[j][i] = x // den2
    if any(gram[i][i] % 2 for i in range(n)):
        raise ValueError("overlattice is not even")
    # H is upper triangular, so det(gram) = det(l) * (prod diag H)^2 / den^(2n)
    det_h = math.prod(h[i][i] for i in range(n))
    return _with_det(gram, l.det() * det_h * det_h // den2**n), h


def extension_by_fraction(l: Lattice, v, d: int) -> Lattice:
    """The index-d extension [l]_{v/d} obtained by adjoining v/d.

    Preconditions (each checked, error names the failed divisibility):
    v in l not divisible by d; v.x = 0 mod d for all x; v^2 = 0 mod 2*d^2.
    """
    if d < 2:
        raise ValueError("denominator must be >= 2")
    if all(c % d == 0 for c in v):
        raise ValueError(f"vector is divisible by {d} in the lattice")
    g = l.gram_rows()
    prods = exact.mat_mul([list(v)], g)[0]
    for j, p in enumerate(prods):
        if p % d != 0:
            raise ValueError(f"product with basis vector {j} is {p}, not divisible by {d}")
    nv = l.norm(list(v))
    if nv % (d * d) != 0:
        raise ValueError(f"square {nv} is not divisible by {d * d}")
    if nv % (2 * d * d) != 0:
        raise ValueError(f"square {nv} is not divisible by {2 * d * d} (evenness)")
    return overlattice(l, [list(v)], d)[0]


# ---------------------------------------------------------------------------
# sublattice constructions

def orthogonal_complement(sub: SublatticeRef) -> SublatticeRef:
    """Saturated basis of {x in ambient : x.y = 0 for all y in sub}."""
    amb = sub.ambient
    if sub.rank == 0:
        return sublattice(amb, exact.identity(amb.rank))
    m = exact.mat_mul(amb.gram_rows(), exact.transpose(sub.rows()))
    # a kernel basis is independent by construction, so `sublattice`'s rank check is skipped
    return SublatticeRef(amb, tuple(map(tuple, exact.integer_kernel(m))))


def primitive_closure(sub: SublatticeRef) -> SublatticeRef:
    if sub.rank == 0:
        return sub
    return sublattice(sub.ambient, exact.saturate(sub.rows()))


def is_divisible_by(l: Lattice, p: int) -> bool:
    return all(x % p == 0 for row in l.gram for x in row)


def divide(l: Lattice, p: int) -> Lattice:
    if not is_divisible_by(l, p):
        raise ValueError(f"lattice not divisible by {p}")
    return _with_det([[x // p for x in row] for row in l.gram], l.det() // p**l.rank)


# ---------------------------------------------------------------------------
# expression grammar
#
#   expr := term ('+' term)* ; term := [UINT] atom [ '(' INT ')' ]
#   atom := 'U' | 'A'UINT | 'D'UINT | 'E'UINT | '<' INT '>'
#   UINT := [0-9]+ ; INT := ['-'] UINT ; whitespace may surround each term


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


# one term with the whitespace around it; groups: count, atom, scale and the
# rest of the text up to the next '+'.  Past the count, each part matches any
# prefix of itself, so a match stops each part at its first fault, which
# `_read` finds at the end of the part (at the start of the rest).
_TERM = re.compile(r"\s*([0-9]*)(U|[ADE][0-9]*|<-?(?:[0-9]+>?)?)?(\(-?(?:[0-9]+\)?)?)?\s*([^+]*)")


def _bracketed(text: str, no_int: str, unclosed: str, zero: str) -> int:
    """The integer of a '<n>' or '(n)' part of `_TERM`; a ValueError names its fault."""
    digits = text[1:].rstrip(">)")
    if not digits.lstrip("-"):
        raise ValueError(no_int)
    if digits == text[1:]:
        raise ValueError(unclosed)
    if not int(digits):
        raise ValueError(zero)
    return int(digits)


def _atom_gram(atom: str) -> tuple[tuple[int, ...], ...]:
    """The Gram matrix of an atom part of `_TERM`, in the catalog: U, An
    (n >= 1), Dn (n >= 4), E6/E7/E8, <n> (n != 0), each connected (a
    `_Block`); a ValueError names its fault."""
    letter = atom[0]
    if atom == "U":
        g = [[0, 1], [1, 0]]
    elif letter == "<":
        g = [[_bracketed(atom, "expected integer inside <>", "expected '>'", "<0> is degenerate")]]
    elif len(atom) == 1:
        raise ValueError(f"expected index after {atom!r}")
    else:
        n = int(atom[1:])
        if n < {"A": 1, "D": 4, "E": 6}[letter] or letter == "E" and n > 8:
            raise ValueError(f"unknown lattice name '{letter}{n}'")
        g = {"A": _an_gram, "D": _dn_gram, "E": _en_gram}[letter](n)
    return _Block(map(tuple, g))


def _read(m: re.Match) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The atom Gram matrix and scale of a `_TERM` match, or the `ExprError`
    of its first fault, at the end of the group that holds it (a missing
    atom at the end of the count)."""
    count, atom, scale, rest = m.groups()
    group = 1
    try:
        if count and not int(count):
            raise ValueError("zero repetition count")
        if atom is None:
            after = m.string[m.end(1):m.end(1) + 1]
            raise ValueError(f"unexpected character {after!r}" if after else "expected lattice atom")
        group = 2
        gram = _atom_gram(atom)
        group = 3
        c = _bracketed(scale, "expected scale integer", "expected ')'", "zero scale") if scale else 1
    except ValueError as e:
        raise ExprError(str(e), m.end(group)) from None
    if rest:
        raise ExprError(f"unexpected character {rest[0]!r}", m.start(4))
    return gram, c


@lru_cache(maxsize=MEMO_SIZE)
def parse_lattice_expr(text: str) -> Lattice:
    """Evaluate a lattice expression like "U(3)+2A2+A1" or "<2>+3<-6>".

    Memoized on the text (a Lattice is immutable), and named by the text
    without its whitespace.  No term holds a '+': the text splits into
    terms, and `_term` gives their parts, memoized per term, so an
    expression costs its block sum.  Each atom, scaled or not, is
    connected, so the atoms are the blocks of the orthogonal split.  A text
    with a term `_term` rejects goes to `_reject`, which raises the
    `ExprError` of its first fault in the whole text.
    """
    try:
        parts = [part for piece in text.split("+") for part in _term(piece)]
    except ExprError:
        _reject(text)
    return _block_sum(parts, "".join(text.split()))


@lru_cache(maxsize=MEMO_SIZE)
def _term(text: str) -> tuple:
    """The (rank, det, split, Gram matrix) of a term's atom, scaled, once per
    repetition, det read from the atom's `_gram_entry`; the `ExprError` of
    a text with a fault.  A repeated atom repeats the parts of the text
    after its count, from this memo."""
    m = _TERM.match(text)
    if m[1] and m[2] and int(m[1]):
        return _term(text[m.end(1):]) * int(m[1])
    gram, c = _read(m)
    rank, det = len(gram), _gram_entry(gram)[1][3]
    if c != 1:
        gram = _Block([tuple([c * x for x in row]) for row in gram])
    return ((rank, det * c**rank, ((tuple(range(rank)), gram),), gram),)


def _reject(text: str) -> NoReturn:
    """Raise the `ExprError` of a text `parse_lattice_expr` does not read,
    reading it term by term with `_TERM`."""
    if not text.split():
        raise ExprError("empty expression", 0)
    pos = 0
    while pos <= len(text):
        m = _TERM.match(text, pos)
        _read(m)
        pos = m.end() + 1
    raise AssertionError(f"{text!r} has no fault")
