"""Even lattices: the value type, the named catalog, and structural constructions.

A Lattice wraps a square symmetric nondegenerate integer Gram matrix.
Semantic comparison (isomorphism in the genus) lives in `stability`;
equality here is basis-dependent on purpose.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import NoReturn

from . import exact
from .exact import Matrix


# entries of each per-value memo of a lattice invariant (keyed on the Gram matrix)
MEMO_SIZE = 1024


class LazyField:
    """A dataclass field that `fill(obj)` stores into the instance on its first
    read.  A non-data descriptor on the class: once the instance holds the
    field, the instance's own entry is read and the descriptor is not called
    again.  Only the lazy fields have one; the value types define no
    `__getattr__`, so every other attribute stays a plain instance attribute
    whose reads the interpreter specializes."""

    def __init__(self, name: str, fill):
        self.name, self.fill = name, fill

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        self.fill(obj)
        return getattr(obj, self.name)


@dataclass(frozen=True)
class Lattice:
    """Its value is its `gram`.  A block sum holds its parts and its
    `orthogonal_split` and lays out `gram` on first read; equality and the
    hash read the split, which determines the Gram matrix."""

    gram: tuple[tuple[int, ...], ...]
    expr: str | None = field(default=None, compare=False)
    rank: int = field(default=0, init=False, compare=False, repr=False)
    _det: int = field(default=0, init=False, compare=False, repr=False)
    _orthogonal: tuple | None = field(default=None, init=False, compare=False, repr=False)
    # of a block sum not yet laid out, its (rank, det, split, source) parts, in
    # order; its layout concatenates the Gram matrices of the sources, which
    # are Gram matrices (parsed atoms) or lattices (`direct_sum`)
    _parts: tuple = field(default=(), init=False, compare=False, repr=False)
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)
    # its discriminant form (`keep_form`): cached data, never compared,
    # hashed or a key, as `_orthogonal` is
    _form: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", len(self.gram))
        self._validate(None)

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
        """Check symmetry and nondegeneracy; when det is not known, it is the
        product of the memoized determinants (`_block_det`) of the orthogonal
        blocks.  A block sum (`summed`) of validated lattices is symmetric by
        construction."""
        if not summed and not exact.is_symmetric(self.gram):
            raise ValueError("gram matrix not symmetric")
        if det is None:
            det = math.prod(_block_det(g) for _idx, g in self.orthogonal_split())
        if det == 0:
            raise ValueError("degenerate gram matrix")
        object.__setattr__(self, "_det", det)

    def orthogonal_split(self) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
        """The (indices, block Gram matrix) of the `exact.components` of the
        Gram matrix, by smallest index; a single block is the Gram matrix
        itself.  Computed once per lattice, for the determinant, `signature`,
        equality, the hash and `forms.discriminant_form`, unless the lattice
        is a block sum (`direct_sum`, `parse_lattice_expr`), which holds the
        blocks it placed."""
        if self._orthogonal is None:
            g = self.gram
            blocks = exact.components(g)
            split = ((tuple(range(self.rank)), g),) if len(blocks) == 1 else tuple(
                (tuple(b), tuple(tuple(g[i][j] for j in b) for i in b)) for b in blocks)
            object.__setattr__(self, "_orthogonal", split)
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

    def inner(self, x, y) -> int:
        g = self.gram
        return sum(x[i] * g[i][j] * y[j] for i in range(self.rank) for j in range(self.rank))

    def norm(self, x) -> int:
        return self.inner(x, x)


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
    return Lattice(tuple(tuple(row) for row in gram), expr)


def _with_det(gram: Matrix | None, det: int, expr: str | None = None, summed=None) -> Lattice:
    """A Lattice whose determinant its constructor already knows (no Bareiss).

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


@dataclass(frozen=True)
class SublatticeRef:
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


@lru_cache(maxsize=256)
def named(spec: str) -> Lattice:
    """Catalog lattice by name: U, An (n>=1), Dn (n>=4), E6/E7/E8, <n> (n != 0)."""
    spec = spec.strip()
    if spec == "U":
        return make_lattice([[0, 1], [1, 0]], "U")
    m = re.fullmatch(r"A(\d+)", spec)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ValueError(f"unknown lattice name {spec!r}")
        return make_lattice(_an_gram(n), spec)
    m = re.fullmatch(r"D(\d+)", spec)
    if m:
        n = int(m.group(1))
        if n < 4:
            raise ValueError(f"unknown lattice name {spec!r}")
        return make_lattice(_dn_gram(n), spec)
    m = re.fullmatch(r"E([678])", spec)
    if m:
        return make_lattice(_en_gram(int(m.group(1))), spec)
    m = re.fullmatch(r"<(-?\d+)>", spec)
    if m:
        n = int(m.group(1))
        if n == 0:
            raise ValueError("rank-1 lattice <0> is degenerate")
        return make_lattice([[n]], spec)
    raise ValueError(f"unknown lattice name {spec!r}")


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
    block its own.  Each block's inertia is memoized on its Gram matrix
    (`_block_inertia`), so the shared blocks of many direct sums, and a Gram
    matrix built again, are eliminated once; no memo is kept per lattice.
    """
    inertias = [_block_inertia(g) for _idx, g in l.orthogonal_split()]
    np_, nz, nm = map(sum, zip((0, 0, 0), *inertias))  # (0, 0, 0) for the empty lattice
    if nz:
        raise ValueError("degenerate lattice")
    if (-1) ** nm != (1 if l.det() > 0 else -1):
        raise ArithmeticError(f"signature {(np_, nm)} disagrees with det {l.det()}")
    return np_, nm


@lru_cache(maxsize=MEMO_SIZE)
def _block_det(gram: tuple[tuple[int, ...], ...]) -> int:
    """The Bareiss determinant of one Gram matrix, memoized, so that a block
    that many direct sums repeat, or a Gram matrix built again, is reduced
    once."""
    return exact.determinant(gram)


@lru_cache(maxsize=MEMO_SIZE)
def _block_inertia(gram: tuple[tuple[int, ...], ...]) -> tuple[int, int, int]:
    return exact.inertia(gram)


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


# one term with the whitespace around it; groups: count, atom, scale
_TERM = re.compile(r"\s*([0-9]*)(U|[ADE][0-9]+|<-?[0-9]+>)(?:\((-?[0-9]+)\))?\s*")


@lru_cache(maxsize=MEMO_SIZE)
def parse_lattice_expr(text: str) -> Lattice:
    """Evaluate a lattice expression like "U(3)+2A2+A1" or "<2>+3<-6>".

    Memoized on the text (a Lattice is immutable).  No term holds a '+': the
    text splits into terms, and `_term` gives their parts, memoized per term,
    so an expression costs its block sum.  Each atom, scaled or not, is
    connected, so the atoms are the blocks of the orthogonal split.  A text
    with a term `_term` rejects goes to `_reject`, which raises the
    `ExprError` of its first fault.
    """
    parts = []
    for piece in text.split("+"):
        term = _term(piece)
        if term is None:
            _reject(text)
        parts += term
    return _block_sum(parts, render_expr(text))


@lru_cache(maxsize=MEMO_SIZE)
def _term(text: str) -> tuple | None:
    """The (rank, det, split, Gram matrix) of a term's atom, scaled, once per
    repetition; None for a text outside `_TERM`, a zero count or scale,
    `<0>`, or an index outside the catalog."""
    m = _TERM.fullmatch(text)
    if m is None:
        return None
    count, atom, scale = m.groups()
    reps, c = int(count or 1), int(scale or 1)
    if reps == 0 or c == 0:
        return None
    try:
        base = named(atom if atom[0] in "U<" else f"{atom[0]}{int(atom[1:])}")
    except ValueError:
        return None
    gram = base.gram if c == 1 else tuple([tuple([c * x for x in row]) for row in base.gram])
    return ((base.rank, base.det() * c**base.rank, ((tuple(range(base.rank)), gram),), gram),) * reps


def _reject(text: str) -> NoReturn:
    """Raise the `ExprError` of a text `parse_lattice_expr` does not read:
    a walk over its characters finds the first fault and its position."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_uint() -> int | None:
        nonlocal pos
        start = pos
        while pos < n and "0" <= text[pos] <= "9":
            pos += 1
        return int(text[start:pos]) if pos > start else None

    def parse_atom() -> None:
        nonlocal pos
        if pos >= n:
            raise ExprError("expected lattice atom", pos)
        ch = text[pos]
        if ch not in "UADE<":
            raise ExprError(f"unexpected character {ch!r}", pos)
        pos += 1
        if ch in "ADE":
            idx = parse_uint()
            if idx is None:
                raise ExprError(f"expected index after '{ch}'", pos)
            try:
                named(f"{ch}{idx}")
            except ValueError as e:
                raise ExprError(str(e), pos) from None
        elif ch == "<":
            if pos < n and text[pos] == "-":
                pos += 1
            val = parse_uint()
            if val is None:
                raise ExprError("expected integer inside <>", pos)
            if pos >= n or text[pos] != ">":
                raise ExprError("expected '>'", pos)
            pos += 1
            if val == 0:
                raise ExprError("<0> is degenerate", pos)

    def parse_term() -> None:
        nonlocal pos
        skip_ws()
        if parse_uint() == 0:
            raise ExprError("zero repetition count", pos)
        parse_atom()
        if pos < n and text[pos] == "(":
            pos += 1
            if pos < n and text[pos] == "-":
                pos += 1
            scale = parse_uint()
            if scale is None:
                raise ExprError("expected scale integer", pos)
            if pos >= n or text[pos] != ")":
                raise ExprError("expected ')'", pos)
            pos += 1
            if scale == 0:
                raise ExprError("zero scale", pos)

    skip_ws()
    if pos >= n:
        raise ExprError("empty expression", 0)
    parse_term()
    skip_ws()
    while pos < n:
        if text[pos] != "+":
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
        parse_term()
        skip_ws()
    raise AssertionError(f"the term pattern rejects {text!r}, which the walk reads")


def render_expr(text: str) -> str:
    """The text without its whitespace (`str.split` splits at every character `\\s` matches)."""
    return "".join(text.split())
