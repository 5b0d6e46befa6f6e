"""Characteristic-polynomial oracle for `zlat.exact.inertia`.

This is the signature computation the package used before it switched to
symmetric elimination: Faddeev-LeVerrier gives det(tI - M) with exact
divisions over Z, and Descartes' rule of signs on the (real-rooted)
polynomial counts positive and negative eigenvalues.  It costs n products
of integer matrices with growing entries.
"""

from __future__ import annotations

from zlat.exact import identity, is_symmetric, mat_mul


def char_poly(m) -> list[int]:
    """Characteristic polynomial det(tI - M), coefficients from t^n down to t^0."""
    n = len(m)
    coeffs = [1]
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        tr = sum(mk[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError(f"Faddeev-LeVerrier trace {tr} not divisible by {k}")
        c = -tr // k
        coeffs.append(c)
        for i in range(n):
            mk[i][i] += c
    return coeffs


def _sign_variations(coeffs) -> int:
    signs = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def inertia(g) -> tuple[int, int, int]:
    """(n_plus, n_zero, n_minus) by Descartes' rule on the characteristic polynomial."""
    if not is_symmetric(g):
        raise ValueError("matrix not symmetric")
    n = len(g)
    p = char_poly(g)
    n_zero = 0
    while p[-1] == 0 and len(p) > 1:
        p = p[:-1]
        n_zero += 1
    n_plus = _sign_variations(p)
    q = [c if (len(p) - 1 - i) % 2 == 0 else -c for i, c in enumerate(p)]
    n_minus = _sign_variations(q)
    if n_plus + n_minus + n_zero != n:
        raise ArithmeticError("characteristic polynomial is not real-rooted")
    return n_plus, n_zero, n_minus
