"""Exact integer matrix kernel.

Everything here works on plain lists of Python ints, so all arithmetic is
arbitrary precision.  Matrices are lists of rows.  Rational matrices are
handled by their callers as an integer matrix over one common denominator.
No floating point anywhere.
"""

from __future__ import annotations

import math
from itertools import compress

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(m) -> Matrix:
    return [list(row) for row in m]


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


def is_symmetric(m) -> bool:
    """Whether m is square and equal to its transpose; a tuple-of-tuples
    matrix is compared with the transpose as it is, without a copy."""
    n = len(m)
    if not all(len(r) == n for r in m):
        return False
    t = tuple(zip(*m))
    return m == t or [tuple(r) for r in m] == list(t)


def components(g) -> list[list[int]]:
    """The connected components of the nonzero pattern of a symmetric matrix
    g, as ascending index lists, by smallest index."""
    n = len(g)
    cols = range(n)
    seen = [False] * n
    found = []
    for start in cols:
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for i in block:  # grows while it is walked
            for j in compress(cols, g[i]):
                if not seen[j]:
                    seen[j] = True
                    block.append(j)
        block.sort()
        found.append(block)
    return found


def hermite_normal_form(m) -> Matrix:
    """Canonical row-style Hermite normal form.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and zero rows are dropped.  A column is cleared below the
    pivot row by Euclid steps: the row whose entry there has the least
    absolute value becomes the pivot row and reduces every row below it,
    until it is the only one left with a nonzero entry (Cohen, GTM 138,
    §2.4.2).  This keeps the cofactors small, also in the identity half of
    an augmented [M | I]; then the rows above are reduced by the pivot row.
    """
    h = copy_matrix(m)
    rows = len(h)
    cols = len(h[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        while True:
            nz = [i for i in range(pivot_row, rows) if h[i][col]]
            if len(nz) < 2:
                break
            p = min(nz, key=lambda i: abs(h[i][col]))
            h[pivot_row], h[p] = h[p], h[pivot_row]
            prow = h[pivot_row]
            d = prow[col]
            for i in range(pivot_row + 1, rows):
                q = h[i][col] // d
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], prow)]
        if not nz:
            continue
        h[pivot_row], h[nz[0]] = h[nz[0]], h[pivot_row]
        prow = h[pivot_row]
        if prow[col] < 0:
            prow = h[pivot_row] = [-x for x in prow]
        d = prow[col]
        for i in range(pivot_row):
            q = h[i][col] // d
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], prow)]
        pivot_row += 1
        if pivot_row == rows:
            break
    return h[:pivot_row]


def hermite_normal_form_mod(rows, den: int, n: int) -> Matrix:
    """`hermite_normal_form` of den*I_n stacked on the rows (each of width n).

    den*Z^n lies in the row span, so the work starts from den*I, already in
    Hermite form, and inserts only the given rows (Cohen, GTM 138, 2.4.2).
    A row, reduced mod den, meets the pivot row h_j of each column j where
    it is nonzero: with d = h_jj, a = w_j, g = gcd(d, a) and s*d + t*a = g,
    (h_j, w) <- (s*h_j + t*w, (d/g)*w - (a/g)*h_j) is unimodular and clears
    w_j.  Rows h_c with c > j are not yet touched by this insertion and span
    den*e_c, so the entries right of column j stay reduced mod den.  On a
    row h_j still den*e_j the step is h_j = t*w mod den (entry j is t*a = g)
    and w <- (den/g)*w mod den.  A last pass reduces the entries above each
    pivot into [0, pivot) in the rows an insertion replaced (a row den*e_i
    has none), where a row den*e_k reduces entry k alone.
    """
    h = [[0] * n for _ in range(n)]
    for i in range(n):
        h[i][i] = den
    moved = set()
    for w in rows:
        w = [x % den for x in w]
        for j in range(n):
            a = w[j]
            if not a:
                continue
            p = h[j]
            d = p[j]
            if j not in moved:  # p = den*e_j and 0 < a < den
                g = math.gcd(den, a)
                t = pow(a // g, -1, den // g)
                h[j] = [t * x % den for x in w]
                moved.add(j)
                w = [den // g * x % den for x in w]
            elif a % d == 0:
                q = a // d
                w = [(x - q * y) % den for x, y in zip(w, p)]
            else:
                g = math.gcd(d, a)
                d1, a1 = d // g, a // g
                t = pow(a1, -1, d1)
                s = (1 - t * a1) // d1
                h[j] = [(s * y + t * x) % den for x, y in zip(w, p)]
                w = [(d1 * x - a1 * y) % den for x, y in zip(w, p)]
            if not any(w):
                break
    for i in moved:  # in any order: each row ends reduced, and the Hermite form is unique
        hi = h[i]
        for k in range(i + 1, n):
            q = hi[k] // h[k][k]
            if q and k not in moved:
                hi[k] -= q * den
            elif q:
                hi = h[i] = [x - q * y for x, y in zip(hi, h[k])]
    return h


def smith_normal_form(m, with_u: bool = True, with_v: bool = True) -> tuple[Matrix | None, Matrix, Matrix | None]:
    """Return (U, D, V^T) with U*M*V = D, U and V unimodular; U is None
    without with_u, V^T None without with_v.

    D is diagonal with nonnegative entries d_i | d_{i+1}.  The work matrix
    holds the rows of [M | U], and V is kept as the rows of V^T: a row
    operation is one comprehension over a zipped pair of rows (M and U
    together), a column operation one pass over the rows of M with a
    nonzero entry in the pivot column plus one comprehension over a pair
    of rows of V^T, and a column swap swaps two rows of V^T.  A caller that
    reads only one transform skips the other (Cohen, GTM 138, 2.4.4): the
    pivots depend on M alone, so D and that transform are the same.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    w = [list(r) + e for r, e in zip(m, identity(rows))] if with_u else copy_matrix(m)
    vt = identity(cols) if with_v else None
    t = 0
    while t < min(rows, cols):
        i = next((i for i in range(t, rows) if any(w[i][t:cols])), None)  # row-major first nonzero
        if i is None:
            break
        j = next(j for j in range(t, cols) if w[i][j])
        w[t], w[i] = w[i], w[t]
        if j != t:
            for row in w:
                row[t], row[j] = row[j], row[t]
            if with_v:
                vt[t], vt[j] = vt[j], vt[t]
        while True:
            for i in range(t + 1, rows):
                while w[i][t]:
                    q = w[i][t] // w[t][t]
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    if w[i][t]:
                        w[t], w[i] = w[i], w[t]
            swapped = False  # column t below the pivot is zero until a column swap
            for j in range(t + 1, cols):
                while w[t][j]:
                    q = w[t][j] // w[t][t]
                    for row in w:
                        if row[t]:
                            row[j] -= q * row[t]
                    if with_v:
                        vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
                    if w[t][j]:
                        swapped = True
                        for row in w:
                            row[t], row[j] = row[j], row[t]
                        if with_v:
                            vt[t], vt[j] = vt[j], vt[t]
            if swapped and any(w[i][t] for i in range(t + 1, rows)):
                continue
            # pivot must divide the rest of the block for the chain d_i | d_{i+1}
            d = abs(w[t][t])
            below = range(t + 1, rows) if d > 1 else ()
            bad = next((i for i in below if math.gcd(d, *w[i][t + 1:cols]) != d), None)
            if bad is None:
                break
            w[t] = [x + y for x, y in zip(w[t], w[bad])]  # row_t += row_bad, then re-eliminate
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
        t += 1
    u = [r[cols:] for r in w] if with_u else None
    return u, [r[:cols] for r in w], vt


def integer_kernel(m) -> Matrix:
    """Saturated basis of {x : x*M = 0} as rows (left kernel), in Hermite
    normal form.

    One Hermite elimination of [M | I] gives [U*M | U] with U unimodular
    (Cohen, GTM 138, 2.4.10): its rows whose M part is zero come last and
    their U parts are a basis of the kernel.  Those rows are already in
    Hermite form, since their pivots lie in the I part, positive, with the
    entries above them reduced, so they are the kernel's canonical basis.
    """
    cols = len(m[0]) if m else 0
    h = hermite_normal_form([list(r) + e for r, e in zip(m, identity(len(m)))])
    return [row[cols:] for row in h if not any(row[:cols])]


def rank(m) -> int:
    if not m:
        return 0
    return len(hermite_normal_form(m))


def saturate(b) -> Matrix:
    """Primitive closure of the row span of b inside Z^n: the vectors
    orthogonal to everything orthogonal to the rows, Z^n at full rank.

    Raises ValueError("rank deficient") when the rows are dependent.
    """
    if not b:
        return []
    if rank(b) != len(b):
        raise ValueError("rank deficient")
    k1 = integer_kernel(transpose(b))
    if not k1:
        return identity(len(b[0]))
    return integer_kernel(transpose(k1))


def inertia_det(g) -> tuple[int, int, int, int]:
    """Exact (n_plus, n_zero, n_minus, det) of a symmetric integer matrix,
    which the caller has checked to be symmetric.

    Sylvester's law of inertia by symmetric elimination over Z on sparse
    rows (a dict of the nonzero entries of each remaining row): each pivot d
    on the diagonal counts its sign, and the remainder is congruent to its
    Schur complement.  A step rewrites only the rows that meet the pivot:
    with a_i = a_ip != 0 and g = gcd(d, a_i), the congruence
    e_i <- alpha_i e_i - sign(d) (a_i/g) e_p, alpha_i = |d|/g, makes e_i
    orthogonal to e_p; each rewritten row and its column are then divided
    by the largest c of its content with c^2 dividing its diagonal entry,
    so entries stay bounded.  A step costs the entries of the rows it
    rewrites and a min over the stored pivot keys: fewest nonzero entries,
    then the smallest |d|.  With no nonzero diagonal entry, adding row and
    column r into c for the first a_rc != 0 (a congruence of determinant 1)
    makes a_cc = 2*a_rc.  n_zero is the size of the remainder once it is
    zero, else det = prod(d) * prod(c^2) / prod(alpha_i^2), one exact
    division at the end (an ArithmeticError if it is not).
    """
    rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(g)}
    # the pivot key (nonzeros, |d|, i) of each row with a nonzero diagonal entry;
    # a step changes only the keys of the rows it rewrites
    keys = {i: (len(row), abs(row[i]), i) for i, row in rows.items() if i in row}
    n_plus = n_minus = 0
    num = den = 1
    while rows:
        if keys:
            k = min(keys.values())[2]
            del keys[k]
        else:
            r = next((r for r, row in rows.items() if row), None)
            if r is None:
                break
            rr = rows[r]
            k = min(rr)
            rk = rows[k]
            for j, x in list(rr.items()):
                if j != k:
                    y = rk.get(j, 0) + x
                    if y:
                        rk[j] = rows[j][k] = y
                    else:
                        del rk[j], rows[j][k]
            rk[k] = 2 * rr[k]  # a_kk = a_rr = 0
        pivot = rows.pop(k)
        d = pivot.pop(k)
        num *= d
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        s = 1 if d > 0 else -1
        # new a_ij = alpha_i * (alpha_j * a_ij - a_i * beta_j); alpha = 1, beta = 0 off the touched rows
        coef = {}
        for i, ai in pivot.items():
            gi = math.gcd(d, ai)
            coef[i] = (abs(d) // gi, s * ai // gi)
        for i, ai in pivot.items():
            old = rows[i]
            del old[k]
            al = coef[i][0]
            den *= al * al
            row = {j: al * x for j, x in old.items()} if al != 1 else old
            for j, (alj, bj) in coef.items():
                y = al * (alj * old.get(j, 0) - ai * bj)
                if y:
                    row[j] = y
                elif j in row:
                    del row[j]
            rows[i] = row
        for i in pivot:
            row = rows[i]
            content = math.gcd(*row.values())
            c = math.gcd(content, row.get(i, 0) // content) if content > 1 else 1
            if c > 1:
                num *= c * c
                row = rows[i] = {j: x // c for j, x in row.items()}
                if i in row:
                    row[i] //= c
                for j in row:
                    if j != i and j in pivot:
                        rows[j][i] //= c
            if coef[i][0] > 1 or c > 1:  # else the entries off the touched rows are unchanged
                for j, x in row.items():
                    if j not in pivot:
                        rows[j][i] = x
            if i in row:
                keys[i] = (len(row), abs(row[i]), i)
            elif i in keys:
                del keys[i]
    if rows:
        return n_plus, len(rows), n_minus, 0
    det, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"determinant {num}/{den} of the elimination is not an integer")
    return n_plus, 0, n_minus, det
