"""Oracles for `zlat.exact`.

`inertia` is the signature computation the package used before it switched
to symmetric elimination: Faddeev-LeVerrier gives det(tI - M) with exact
divisions over Z, and Descartes' rule of signs on the (real-rooted)
polynomial counts positive and negative eigenvalues.  It costs n products
of integer matrices with growing entries.

`dense_inertia` is the symmetric elimination the package used before its
steps touched only the rows meeting the pivot: every step rebuilds the whole
remainder as |d| times the Schur complement and divides it by its content.

`smith_normal_form` is the Smith form as the package had it before it
worked on whole row lists: entry-by-entry row and column operations and
swaps through closures, in the same pivot order.  It returns (U, D, V),
and the package (U, D, V^T), so the two agree exactly once V^T is
transposed, also when the package computes only one transform.

`integer_kernel` is the left kernel as the package took it before one
Hermite elimination of [M | I] replaced it: the rows of the Smith transform
U whose diagonal entry of D is zero, put in Hermite normal form.
"""

from __future__ import annotations

import itertools
import math

from zlat import exact
from zlat.exact import Matrix, copy_matrix, identity, is_symmetric, mat_mul


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


def dense_inertia(g) -> tuple[int, int, int]:
    """(n_plus, n_zero, n_minus) by symmetric elimination, rebuilding the whole remainder each step."""
    if not is_symmetric(g):
        raise ValueError("matrix not symmetric")
    a = copy_matrix(g)
    n_plus = n_minus = 0
    while a:
        k = min((i for i in range(len(a)) if a[i][i]), key=lambda i: abs(a[i][i]), default=None)
        if k is None:
            r, k = next(((r, c) for r, row in enumerate(a) for c, x in enumerate(row) if x),
                        (None, None))
            if r is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[r])]
            for row in a:
                row[k] += row[r]
        d = a[k][k]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        s = 1 if d > 0 else -1
        pivot = a.pop(k)
        del pivot[k]
        col = [row.pop(k) for row in a]
        a = [[s * (d * x - ai * aj) for x, aj in zip(row, pivot)] if ai else [abs(d) * x for x in row]
             for row, ai in zip(a, col)]
        content = math.gcd(*itertools.chain.from_iterable(a))
        if content > 1:
            a = [[x // content for x in row] for row in a]
    return n_plus, len(a), n_minus


def smith_normal_form(m) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*M*V = D, U and V unimodular.

    D is diagonal with nonnegative entries d_i | d_{i+1}.
    """
    a = copy_matrix(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        for k in range(cols):
            a[i][k] -= q * a[j][k]
        for k in range(rows):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for k in range(rows):
            a[k][i] -= q * a[k][j]
        for k in range(cols):
            v[k][i] -= q * v[k][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for k in range(rows):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(cols):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, rows):
                while a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
            for j in range(t + 1, cols):
                while a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
            if any(a[i][t] != 0 for i in range(t + 1, rows)):
                continue
            # pivot must divide the rest of the block for the chain d_i | d_{i+1}
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # row_t += row_bad, then re-eliminate
        if a[t][t] < 0:
            for k in range(cols):
                a[t][k] = -a[t][k]
            for k in range(rows):
                u[t][k] = -u[t][k]
        t += 1
    return u, a, v


def integer_kernel(m) -> Matrix:
    """Saturated basis of {x : x*M = 0} as rows, from the Smith form's U."""
    rows = len(m)
    u, d, _vt = exact.smith_normal_form(m, with_v=False)
    cols = len(m[0]) if rows else 0
    ker = []
    for i in range(rows):
        di = d[i][i] if i < min(rows, cols) else 0
        if di == 0:
            ker.append(list(u[i]))
    return exact.hermite_normal_form(ker) if ker else []
