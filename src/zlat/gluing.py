"""Extensions by isotropic subgroups, gluing along anti-isomorphisms, and
involutions obtained by gluing.
"""

from __future__ import annotations

import math
from operator import itemgetter, mul

from . import exact, forms
from .exact import Matrix
from .forms import GlueMap
from .lattice import Frozen, Lattice, SublatticeRef, direct_sum, overlattice, signature


class LatticeInvolution(Frozen):
    _fields = ("lattice", "action")
    lattice: Lattice
    action: tuple[tuple[int, ...], ...]

    def __init__(self, lattice, action):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "action", action)
        # with C^2 = I, (C^T)^-1 = C^T, so C G C^T = G exactly when C G = G C^T = (C G)^T
        c = self.action_rows()
        if exact.mat_mul(c, c) != exact.identity(lattice.rank):
            raise ValueError("action is not an involution")
        if not exact.is_symmetric(exact.mat_mul(c, lattice.gram)):
            raise ValueError("action does not preserve the inner product")

    def action_rows(self):
        return [list(r) for r in self.action]


def extend(l: Lattice, h_gens) -> Lattice:
    """The extension L_H associated with the isotropic subgroup H = <h_gens>.

    Generators are elements of discr L (coefficient tuples on the recorded
    generators).  Result has determinant det(L)/|H|^2.
    """
    f = forms.discriminant_form(l)
    if not forms.is_isotropic_subgroup(f, list(h_gens)):
        raise ValueError("subgroup is not isotropic")
    out = overlattice(l, [f.lift_vector(g)[0] for g in h_gens], f.n)[0]
    h_order = forms.subgroup_order(f, list(h_gens))
    if abs(out.det()) * h_order * h_order != abs(l.det()):
        raise ValueError("extension violates det(L_H) |H|^2 = det(L)")
    return out


def glue(l1: Lattice, l2: Lattice, phi: GlueMap) -> Lattice:
    """Gluing l1 +_phi l2: the extension of l1 + l2 by the graph of phi."""
    return _glue(l1, l2, phi)[0]


def _glue(l1: Lattice, l2: Lattice, phi: GlueMap) -> tuple[Lattice, Matrix, Lattice]:
    """`glue`, the integer HNF rows H of its basis (see `lattice.overlattice`) and l1 + l2."""
    f1, f2 = phi.source_form, phi.target_form
    den = math.lcm(f1.n, f2.n)
    rows = [[x * (den // f1.n) for x in f1.lift_vector(g_src)[0]]
            + [x * (den // f2.n) for x in f2.lift_vector(g_tgt)[0]]
            for g_src, g_tgt in zip(phi.source_gens, phi.target_gens)]
    summed = direct_sum(l1, l2)
    out, h = overlattice(summed, rows, den)
    k = phi.subgroup_order
    if abs(out.det()) * k * k != abs(l1.det()) * abs(l2.det()):
        raise ValueError("gluing violates det(l1 +_phi l2) |H|^2 = det(l1) det(l2)")
    return out, h, summed


def glue_with_signature(l1: Lattice, l2: Lattice, phi: GlueMap) -> tuple[Lattice, tuple[int, int]]:
    """`glue` and the signature of l1 +_phi l2, proved by `overlattice_signature`."""
    out, h, summed = _glue(l1, l2, phi)
    return out, overlattice_signature(summed, out, h, math.lcm(phi.source_form.n, phi.target_form.n))


def overlattice_signature(l: Lattice, k: Lattice, h: Matrix, den: int) -> tuple[int, int]:
    """The signature of l, and by Sylvester's law of its overlattice k on the basis
    H/den (`lattice.overlattice`), once M = den*H^-1 is integral and M*K*M^T =
    Gram(l) for the Gram matrix K of k, entry by entry (else a ValueError); the
    rows den*e_i of H give rows e_i of M, compared as slices of K."""
    n, kg, lg = l.rank, k.gram, l.gram
    plain = [i for i, row in enumerate(h) if row[i] == den and row.count(0) == n - 1]
    m = {i: _solve(h, i, [den * (i == j) for j in range(n)]) for i in set(range(n)).difference(plain)}
    if None in m.values():
        raise ValueError("congruence certificate: den*H^-1 is not integral")
    pick = itemgetter(*plain) if plain else None
    mk = {i: [sum(map(mul, mi, row)) for row in kg] for i, mi in m.items()}  # m_i*K, as K is symmetric
    if any(pick(kg[i]) != pick(lg[i]) for i in plain) or any(
            tuple(sum(map(mul, r, m[j])) if j in m else x for j, x in enumerate(r)) != lg[i] for i, r in mk.items()):
        raise ValueError("congruence certificate: M*K*M^T differs from the Gram matrix of the sublattice")
    return signature(l)


def _solve(h: Matrix, k: int, target) -> list[int] | None:
    """x with x*H = target (0 left of column k) for the upper-triangular H; None if not integral."""
    x, rest, n = [0] * k, list(target), len(target)  # rest: target - x*H
    for j in range(k, n):
        c, r = divmod(rest[j], h[j][j])
        if r:
            return None
        x.append(c)
        if c and h[j].count(0) < n - 1:  # a row of its pivot alone reaches no later column
            rest = [a - c * b for a, b in zip(rest, h[j])]
    return x


def glue_involution(l1: Lattice, l2: Lattice, phi: GlueMap) -> LatticeInvolution:
    """The involution on l1 +_phi l2 acting as +1 on l1 and -1 on l2.

    Requires the glued subgroups to be 2-elementary (otherwise the graph is
    not preserved by (+1, -1)).  On the glued basis H/den the action X solves
    X*H = H*D with D = diag(+1, -1); H is upper triangular, so X is found by
    back substitution, and a remainder means X is not integral.
    """
    for g in phi.source_gens:
        if phi.source_form.element_order(g) > 2:
            raise ValueError("glued subgroup is not 2-elementary")
    glued, h, _summed = _glue(l1, l2, phi)
    n1 = l1.rank  # row k of H, hence of its target, is 0 left of column k
    action = [_solve(h, k, row[:n1] + [-x for x in row[n1:]]) for k, row in enumerate(h)]
    if None in action:
        raise ValueError("involution does not preserve the glued lattice")
    return LatticeInvolution(glued, tuple(map(tuple, action)))


def eigenlattices(inv: LatticeInvolution) -> tuple[SublatticeRef, SublatticeRef]:
    """Saturated (+1)- and (-1)-eigenlattices of the involution."""
    c = inv.action_rows()
    n = inv.lattice.rank
    ident = exact.identity(n)
    minus = [[c[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    plus = [[c[i][j] + ident[i][j] for j in range(n)] for i in range(n)]
    # kernel bases are independent by construction, so `sublattice`'s rank check is skipped
    return tuple(SublatticeRef(inv.lattice, tuple(map(tuple, exact.integer_kernel(m)))) for m in (minus, plus))
