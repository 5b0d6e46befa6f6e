"""Deciding isomorphism of even lattices in the genus.

A GenusTag is the signature and the canonical p-adic symbol of each p-part
of the discriminant form (`forms.jordan_symbol`), a complete invariant of
the genus.  "yes" needs a stability certificate on top of equal tags;
"unknown" is a first-class verdict and the classification pipeline treats it
as a hard failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import forms
from .lattice import MEMO_SIZE, Lattice, divide, is_divisible_by, signature


@dataclass(frozen=True)
class GenusTag:
    sig: tuple[int, int]
    parts: tuple


@lru_cache(maxsize=MEMO_SIZE)
def genus_tag(l: Lattice) -> GenusTag:
    """The signature and the canonical p-adic symbol of each p-part of the
    discriminant form: complete, as the two fix the genus of an even lattice
    (Nikulin 1979, Cor. 1.9.4)."""
    f = forms.discriminant_form(l)
    parts = tuple((p, forms.jordan_symbol(f, p)) for p in forms.prime_factors_of_order(f))
    return GenusTag(signature(l), parts)


@lru_cache(maxsize=MEMO_SIZE)
def invariants(l: Lattice):
    """(r, r2, delta2, p, q) of an even lattice with elementary 2/3 discriminant."""
    f = forms.discriminant_form(l)
    r2 = forms.p_rank(f, 2)
    f2 = forms.p_part(f, 2)
    f3 = forms.p_part(f, 3)
    d2 = forms.parity2(f2) if forms.is_elementary(f2, 2) else None
    pq = forms.normal_form3(f3) if forms.is_elementary(f3, 3) else None
    if d2 is None or pq is None:
        raise ValueError("discriminant is not elementary at 2 and 3")
    return l.rank, r2, d2, pq[0], pq[1]


def _discr_profile(l: Lattice):
    f = forms.discriminant_form(l)
    primes = forms.prime_factors_of_order(f)
    ranks = {p: forms.p_rank(f, p) for p in primes}
    elementary = {p: forms.is_elementary(forms.p_part(f, p), p) for p in primes}
    return f, primes, ranks, elementary


def nikulin_stable(l: Lattice) -> bool:
    """Nikulin's criterion: even indefinite with small p-ranks."""
    np_, nm = signature(l)
    if np_ == 0 or nm == 0 or not l.is_even:
        return False
    r = l.rank
    f, primes, ranks, _elem = _discr_profile(l)
    for p in primes:
        if p != 2 and ranks[p] > r - 2:
            return False
    r2 = ranks.get(2, 0)
    if r2 < r:
        return True
    part2 = forms.p_part(f, 2)
    if not forms.is_elementary(part2, 2):
        return False
    kind, a, b = forms.normal_form2(part2)
    return kind == "even" and a + b >= 1


def miranda_morrison_stable(l: Lattice) -> bool:
    """The Miranda-Morrison special case: even, 2/3-elementary, rank >= 3, indefinite."""
    np_, nm = signature(l)
    if np_ == 0 or nm == 0 or l.rank < 3 or not l.is_even:
        return False
    _f, primes, ranks, elem = _discr_profile(l)
    if any(p not in (2, 3) for p in primes):
        return False
    if not all(elem[p] for p in primes):
        return False
    r2 = ranks.get(2, 0)
    r3 = ranks.get(3, 0)
    return not (r2 == l.rank and r3 == l.rank)


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
