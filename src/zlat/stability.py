"""Deciding isomorphism of even lattices in the genus.

A GenusTag is the signature and the canonical p-adic symbol of each p-part
of the discriminant form, assembled from the Jordan constituents in the
`forms.jordan_record` of each orthogonal block's form; it is a complete
invariant of the genus, and every verdict reads it through its accessors.
"yes" needs a stability certificate on top of equal tags; "unknown" is a
first-class verdict and the classification pipeline treats it as a hard
failure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import forms
from .lattice import MEMO_SIZE, Lattice, divide, is_divisible_by, signature


class GenusTag(NamedTuple):
    sig: tuple[int, int]
    parts: tuple

    def symbol(self, p: int) -> tuple:
        """The canonical p-adic symbol; () when p does not divide the discriminant."""
        for prime, sym in self.parts:
            if prime == p:
                return sym
        return ()

    def p_rank(self, p: int) -> int:
        return _rank(self.symbol(p))

    def is_elementary(self, p: int) -> bool:
        return _elementary(self.symbol(p), p)

    @property
    def delta2(self) -> int:
        return _odd(self.symbol(2))

    @property
    def pq3(self) -> tuple[int, int]:
        sym = self.symbol(3)
        if not _elementary(sym, 3):
            raise ValueError("discriminant is not elementary at 3")
        return _pq(sym)


# the accessor rules, each on one p-adic symbol: `GenusTag` and `invariants` share them
def _rank(sym: tuple) -> int:
    """l(A_p), the sum of the constituent ranks n_k."""
    return sum([entry[1] for entry in sym])


def _elementary(sym: tuple, p: int) -> bool:
    """Whether p kills the p-part: every entry has scale p."""
    return all([entry[0] == p for entry in sym])


def _odd(sym: tuple) -> int:
    """delta2 of a 2-adic symbol: 1 when the 2-part has an odd constituent, else 0."""
    return int(any([entry[3] for entry in sym]))


def _pq(sym: tuple) -> tuple[int, int]:
    """(p, q) of the elementary 3-part p<2/3> + q<-2/3> of a 3-adic symbol: p = 1 exactly when eps = -1."""
    p = int(any([entry[2] == -1 for entry in sym]))
    return p, _rank(sym) - p


@lru_cache(maxsize=MEMO_SIZE)
def genus_tag(l: Lattice) -> GenusTag:
    """The signature and the canonical p-adic symbol of each p-part of the
    discriminant form: complete, as the two fix the genus of an even lattice
    (Nikulin 1979, Cor. 1.9.4).  The Jordan splitting of an orthogonal sum
    is the union of its blocks' splittings, so the symbols are read off the
    constituents in the `forms.jordan_record` of the `forms.block_form` of
    each block of `Lattice.orthogonal_split`."""
    if not l.is_even:
        raise ValueError("lattice is not even")
    union = {}
    for _idx, g in l.orthogonal_split():
        f = forms.block_form(g)
        for p, blocks in forms.jordan_record(f.orders, f.n, f.gram)[1]:
            union[p] = union.get(p, ()) + blocks
    return GenusTag(signature(l), tuple((p, forms.canonical_symbol(p, union[p])) for p in sorted(union)))


@lru_cache(maxsize=MEMO_SIZE)
def invariants(l: Lattice):
    """(r, r2, delta2, p, q) of an even lattice with elementary 2/3 discriminant."""
    tag = genus_tag(l)
    two, three = tag.symbol(2), tag.symbol(3)
    if not (_elementary(two, 2) and _elementary(three, 3)):
        raise ValueError("discriminant is not elementary at 2 and 3")
    return (l.rank, _rank(two), _odd(two), *_pq(three))


def nikulin_stable(l: Lattice) -> bool:
    """Nikulin's criterion: even indefinite, small p-ranks; r2 = r only for an even elementary 2-part."""
    if not l.is_even:
        return False
    tag = genus_tag(l)
    if 0 in tag.sig or any(p != 2 and tag.p_rank(p) > l.rank - 2 for p, _sym in tag.parts):
        return False
    return tag.p_rank(2) < l.rank or (tag.is_elementary(2) and not tag.delta2)


def miranda_morrison_stable(l: Lattice) -> bool:
    """The Miranda-Morrison special case: even, 2/3-elementary, rank >= 3, indefinite."""
    if l.rank < 3 or not l.is_even:
        return False
    tag = genus_tag(l)
    if 0 in tag.sig or any(p not in (2, 3) or not tag.is_elementary(p) for p, _sym in tag.parts):
        return False
    return not (tag.p_rank(2) == l.rank and tag.p_rank(3) == l.rank)


def _is_unimodular_hyperbolic(l: Lattice) -> bool:
    if abs(l.det()) != 1 or l.rank > 8:
        return False
    np_, nm = signature(l)
    return np_ == 1 or nm == 0


def _small_rank_certificate(l: Lattice, depth: int = 0) -> str | None:
    """Divisibility reductions to the unimodular-hyperbolic list, plus the
    rank-2 binary (Gaussian) reduction: the name of the rule that fired."""
    if l.rank == 1:
        return "rank-1"
    if _is_unimodular_hyperbolic(l):
        return "unimodular-hyperbolic"
    if depth >= 2:
        return None
    for p, name in ((6, "divide-6"), (2, "divide-2"), (3, "divide-3")):
        if is_divisible_by(l, p):
            quotient = divide(l, p)
            sub = _small_rank_certificate(quotient, depth + 1)
            if sub is not None:
                return f"{name}:{sub}"
            if nikulin_stable(quotient) or miranda_morrison_stable(quotient):
                return f"{name}:criterion"
            if quotient.rank == 2 and _binary_reducible(quotient):
                return f"{name}:binary"
    if l.rank == 2 and _binary_reducible(l):
        return "binary"
    return None


def _binary_reducible(l: Lattice) -> bool:
    """Rank-2 indefinite with |det| = 3 reduces to a unique diagonal class."""
    np_, nm = signature(l)
    if l.rank != 2 or np_ != 1 or nm != 1 or abs(l.det()) != 3:
        return False
    a, b, c = gauss_reduce_binary(l.gram[0][0], l.gram[0][1], l.gram[1][1])
    # 0 <= b <= sqrt(3); for det -3 this lands on the diagonal form <+-1>+<-+3>
    return b * b <= 3


def gauss_reduce_binary(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Gaussian reduction of a nondegenerate binary form: returns (a, |b|, c)
    with |b| <= |a|/2 <= |c|/2."""
    while True:
        if a == 0 or (c != 0 and abs(c) < abs(a)):
            a, c = c, a
        if a == 0:
            return 0, abs(b), 0
        q, r = divmod(b, a)
        if 2 * abs(r) > abs(a):
            q += 1
        b1 = b - q * a
        c1 = c - 2 * q * b + q * q * a
        b, c = b1, c1
        if abs(c) >= abs(a):
            return a, abs(b), c


def stability_certificate(l: Lattice) -> str | None:
    """Name of the first rule certifying stability, or None."""
    if l.rank == 1:
        return "rank-1"
    if nikulin_stable(l):
        return "nikulin"
    if miranda_morrison_stable(l):
        return "miranda-morrison"
    cert = _small_rank_certificate(l)
    if cert is not None:
        return f"small-rank:{cert}"
    return None


def isomorphic_in_genus(l1: Lattice, l2: Lattice) -> str:
    """"yes" | "no" | "unknown"."""
    if genus_tag(l1) != genus_tag(l2):
        return "no"
    if stability_certificate(l1) is not None:
        return "yes"
    return "unknown"
