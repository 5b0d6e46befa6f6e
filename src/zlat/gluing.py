"""Extensions by isotropic subgroups, gluing along anti-isomorphisms, and
involutions obtained by gluing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exact, forms
from .exact import Matrix
from .forms import GlueMap
from .lattice import Lattice, SublatticeRef, direct_sum, overlattice


@dataclass(frozen=True)
class LatticeInvolution:
    lattice: Lattice
    action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # with C^2 = I, (C^T)^-1 = C^T, so C G C^T = G exactly when C G = G C^T = (C G)^T
        c = self.action_rows()
        if exact.mat_mul(c, c) != exact.identity(self.lattice.rank):
            raise ValueError("action is not an involution")
        if not exact.is_symmetric(exact.mat_mul(c, self.lattice.gram)):
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


def _glue(l1: Lattice, l2: Lattice, phi: GlueMap) -> tuple[Lattice, Matrix]:
    """`glue` together with the integer HNF rows H of its basis (see `lattice.overlattice`)."""
    f1, f2 = phi.source_form, phi.target_form
    den = math.lcm(f1.n, f2.n)
    rows = [[x * (den // f1.n) for x in f1.lift_vector(g_src)[0]]
            + [x * (den // f2.n) for x in f2.lift_vector(g_tgt)[0]]
            for g_src, g_tgt in zip(phi.source_gens, phi.target_gens)]
    out, h = overlattice(direct_sum(l1, l2), rows, den)
    k = phi.subgroup_order
    if abs(out.det()) * k * k != abs(l1.det()) * abs(l2.det()):
        raise ValueError("gluing violates det(l1 +_phi l2) |H|^2 = det(l1) det(l2)")
    return out, h


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
    glued, h = _glue(l1, l2, phi)
    n1 = l1.rank
    action = []
    for k, row in enumerate(h):
        # row k of H, hence of its target, is 0 left of column k, and so is x;
        # nonzero lists the (i, x_i) with x_i != 0, all i < j
        target = row[:n1] + [-x for x in row[n1:]]
        x, nonzero = [0] * k, []
        for j in range(k, len(row)):
            c, r = divmod(target[j] - sum(c * h[i][j] for i, c in nonzero), h[j][j])
            if r:
                raise ValueError("involution does not preserve the glued lattice")
            x.append(c)
            if c:
                nonzero.append((j, c))
        action.append(tuple(x))
    return LatticeInvolution(glued, tuple(action))


def eigenlattices(inv: LatticeInvolution) -> tuple[SublatticeRef, SublatticeRef]:
    """Saturated (+1)- and (-1)-eigenlattices of the involution."""
    c = inv.action_rows()
    n = inv.lattice.rank
    ident = exact.identity(n)
    minus = [[c[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    plus = [[c[i][j] + ident[i][j] for j in range(n)] for i in range(n)]
    # kernel bases are independent by construction, so `sublattice`'s rank check is skipped
    return tuple(SublatticeRef(inv.lattice, tuple(map(tuple, exact.integer_kernel(m)))) for m in (minus, plus))
