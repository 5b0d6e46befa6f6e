"""Box-walk oracle for `zlat.classify._root_components`.

This is the walk the package did before it restricted the search to the
kernel of the Gram matrix mod 2: every coordinate vector of the box
[-box, box]^n, with the even-pairing test on all n products.
"""

from __future__ import annotations

import itertools

from zlat.lattice import parse_lattice_expr


def root_components(name: str, cap: int = 8, box: int = 2):
    """Block vectors u with u.(block) in 2Z and |u^2| <= cap, |coords| <= box."""
    l = parse_lattice_expr(name)
    g = l.gram_rows()
    n = l.rank
    out = []
    for coords in itertools.product(range(-box, box + 1), repeat=n):
        prods = [sum(coords[i] * g[i][j] for i in range(n)) for j in range(n)]
        if any(p % 2 for p in prods):
            continue
        norm = sum(prods[j] * coords[j] for j in range(n))
        if -cap <= norm <= cap:
            out.append((coords, norm))
    out.sort(key=lambda cn: (cn[1] != -2, cn[0] != tuple([0] * n), cn[0]))
    return tuple(out)
