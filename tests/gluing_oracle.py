"""`Fraction` oracles for the integer overlattice and gluing involution.

These are the rational-matrix versions the package used before it switched
to integer HNF rows over one common denominator: the basis H/den is kept as
`Fraction` rows, its Gram matrix is formed over Q, and the involution is
solved through a Gauss-Jordan inverse.

`glue_index_r2` and `twist_parity` read invariants of a lattice involution
that the package no longer calls; they live here for the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from zlat import exact
from zlat.exact import hermite_normal_form
from zlat.gluing import LatticeInvolution, eigenlattices
from zlat.lattice import make_lattice


def _mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _inverse(m):
    """Inverse of a square matrix over Q (Gauss-Jordan)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def overlattice_basis(n: int, extra_frac_rows):
    """HNF basis of Z^n + <extra rows>, as `Fraction` rows."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows += [[Fraction(x) for x in row] for row in extra_frac_rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    h = hermite_normal_form([[int(x * den) for x in row] for row in rows])
    return [[Fraction(x, den) for x in row] for row in h]


def overlattice(l, extra_frac_rows):
    basis = overlattice_basis(l.rank, extra_frac_rows)
    if len(basis) != l.rank:
        raise ValueError("overlattice generators do not span")
    gram_f = _mat_mul(_mat_mul(basis, l.gram_rows()), [list(c) for c in zip(*basis)])
    if any(x.denominator != 1 for row in gram_f for x in row):
        raise ValueError("overlattice is not integral")
    gram = [[int(x) for x in row] for row in gram_f]
    if any(gram[i][i] % 2 for i in range(l.rank)):
        raise ValueError("overlattice is not even")
    return make_lattice(gram)


def lift_row(f, x):
    """The lift of x as a `Fraction` row."""
    w, n = f.lift_vector(x)
    return [Fraction(c, n) for c in w]


def glue_involution_action(l1, l2, phi):
    """Matrix of (+1 on l1, -1 on l2) on the glued basis B: B*D*B^-1."""
    f1, f2 = phi.source_form, phi.target_form
    vectors = [lift_row(f1, s) + lift_row(f2, t) for s, t in zip(phi.source_gens, phi.target_gens)]
    n1 = l1.rank
    basis = overlattice_basis(n1 + l2.rank, vectors)
    image = [[x if j < n1 else -x for j, x in enumerate(row)] for row in basis]
    action = _mat_mul(image, _inverse(basis))
    if any(x.denominator != 1 for row in action for x in row):
        raise ValueError("involution does not preserve the glued lattice")
    return [[int(x) for x in row] for row in action]


def glue_index_r2(inv: LatticeInvolution) -> int:
    """r_2(L, c): the 2-rank of L/(L_+ + L_-)."""
    lp, lm = eigenlattices(inv)
    rows = lp.rows() + lm.rows()
    h = hermite_normal_form(rows)
    n = inv.lattice.rank
    if len(h) != n:
        raise ValueError("eigenlattices do not span rationally")
    det = exact.determinant(h)
    index = abs(det)
    r2 = 0
    while index % 2 == 0:
        index //= 2
        r2 += 1
    if index != 1:
        raise ValueError("index of L+ + L- is not a power of 2")
    return r2


def twist_parity(inv: LatticeInvolution) -> str:
    """"I" when the c-twisted product x.c(y) is even, "II" otherwise."""
    g = inv.lattice.gram_rows()
    c = inv.action_rows()
    twisted = exact.mat_mul(g, exact.transpose(c))
    return "I" if all(twisted[i][i] % 2 == 0 for i in range(len(twisted))) else "II"
