"""Exact integer matrix kernel.

Everything here works on plain lists of Python ints, so all arithmetic is
arbitrary precision.  Matrices are lists of rows.  Rational matrices are
handled by their callers as an integer matrix over one common denominator.
No floating point anywhere.
"""

from __future__ import annotations

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(m) -> Matrix:
    return [list(row) for row in m]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            av = ai[k]
            if av:
                bk = b[k]
                for j in range(cols):
                    oi[j] += av * bk[j]
    return out


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_eq(a, b) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


def is_symmetric(m) -> bool:
    n = len(m)
    return all(len(r) == n for r in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(n)
    )


def determinant(m) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = copy_matrix(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hermite_normal_form(m) -> Matrix:
    """Canonical row-style Hermite normal form.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and zero rows are dropped.
    """
    h = copy_matrix(m)
    rows = len(h)
    cols = len(h[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        # clear the column below pivot_row by gcd cascading
        piv = None
        for i in range(pivot_row, rows):
            if h[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        h[pivot_row], h[piv] = h[piv], h[pivot_row]
        while True:
            nz = [i for i in range(pivot_row + 1, rows) if h[i][col] != 0]
            if not nz:
                break
            for i in nz:
                q = h[i][col] // h[pivot_row][col]
                if q:
                    for j in range(cols):
                        h[i][j] -= q * h[pivot_row][j]
                if h[i][col] != 0:
                    h[pivot_row], h[i] = h[i], h[pivot_row]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
        for i in range(pivot_row):
            q = h[i][col] // h[pivot_row][col]
            if q:
                for j in range(cols):
                    h[i][j] -= q * h[pivot_row][j]
        pivot_row += 1
        if pivot_row == rows:
            break
    return [row for row in h[:pivot_row]]


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
    """Saturated basis of {x : x*M = 0} as rows (left kernel)."""
    rows = len(m)
    u, d, _v = smith_normal_form(m)
    cols = len(m[0]) if rows else 0
    ker = []
    for i in range(rows):
        di = d[i][i] if i < min(rows, cols) else 0
        if di == 0:
            ker.append(list(u[i]))
    return hermite_normal_form(ker) if ker else []


def rank(m) -> int:
    if not m:
        return 0
    return len(hermite_normal_form(m))


def saturate(b) -> Matrix:
    """Primitive closure of the row span of b inside Z^n.

    Raises ValueError("rank deficient") when the rows are dependent.
    """
    if not b:
        return []
    if rank(b) != len(b):
        raise ValueError("rank deficient")
    k1 = integer_kernel(transpose(b))
    if not k1:
        return hermite_normal_form(b)
    sat = integer_kernel(transpose(k1))
    return sat


def char_poly(m) -> list[int]:
    """Characteristic polynomial det(tI - M), coefficients from t^n down to t^0.

    Faddeev-LeVerrier; all divisions are exact over Z.
    """
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
    """Exact (n_plus, n_zero, n_minus) of a symmetric integer matrix.

    Counts eigenvalue signs by Descartes' rule on the (real-rooted)
    characteristic polynomial.
    """
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
