"""Whole-form oracles for the readers of `zlat.stability.GenusTag`.

These are the readers the package used before every verdict read the genus
tag: the invariants (r, r2, delta2, p, q) and the criteria of Nikulin and of
Miranda-Morrison re-derive ranks, elementarity, delta2 and (p, q) from the
discriminant form of the whole lattice (`p_rank`, `p_part`, `is_elementary`),
with delta2 and the normal forms from the element walks of
`forms_oracle.parity2`, `normal_form2` and `normal_form3`.
`stability_certificate` is the package's rule order with these criteria,
also on the quotients of the small-rank rules.
"""

from __future__ import annotations

import forms_oracle

from zlat import forms
from zlat.lattice import Lattice, divide, is_divisible_by, signature
from zlat.stability import _binary_reducible, _is_unimodular_hyperbolic


def invariants(l: Lattice):
    """(r, r2, delta2, p, q) of an even lattice with elementary 2/3 discriminant."""
    f = forms.discriminant_form(l)
    r2 = forms.p_rank(f, 2)
    f2 = forms.p_part(f, 2)
    f3 = forms.p_part(f, 3)
    d2 = forms_oracle.parity2(f2) if forms.is_elementary(f2, 2) else None
    pq = forms_oracle.normal_form3(f3) if forms.is_elementary(f3, 3) else None
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
    kind, a, b = forms_oracle.normal_form2(part2)
    return kind == "even" and a + b >= 1


def miranda_morrison_stable(l: Lattice) -> bool:
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


def _small_rank_certificate(l: Lattice, depth: int = 0) -> str | None:
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


def stability_certificate(l: Lattice) -> str | None:
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
