"""Topology of real Zariski sextics: complete codes, curve type, the sign o,
cusp distribution, reversion of codes, and cubic-surface topology.

Codes are stored structurally.  A general arrangement is: groups of empty
ovals outside, at most one ambient oval (cusp pairs signed: positive means
outward), and groups of empty ovals inside the ambient one.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import TPair, half_violation

OvalGroups = tuple[tuple[int, int], ...]  # (count, signed pair count)


class CompleteCode(NamedTuple):
    kind: str  # "general" | "null" | "nest3"
    outer: OvalGroups = ()
    ambient: int | None = None
    inner: OvalGroups = ()

    def oval_count(self) -> int:
        if self.kind != "general":
            return 0 if self.kind == "null" else 3
        total = sum(c for c, _k in self.outer) + sum(c for c, _k in self.inner)
        return total + (1 if self.ambient is not None else 0)

    def cusp_pairs(self) -> int:
        if self.kind != "general":
            return 0
        total = sum(c * abs(k) for c, k in self.outer) + sum(c * abs(k) for c, k in self.inner)
        return total + (abs(self.ambient) if self.ambient else 0)

    def alpha_beta(self) -> tuple[int, int]:
        if self.kind != "general":
            raise ValueError("alpha/beta only defined for general codes")
        if self.ambient is None:
            return self.oval_count() - 1, 0
        return sum(c for c, _k in self.outer), sum(c for c, _k in self.inner)


NULL_CODE = CompleteCode("null")
NEST3_CODE = CompleteCode("nest3")


def _sorted_groups(groups) -> OvalGroups:
    merged: dict[int, int] = {}
    for count, k in groups:
        if count:
            merged[k] = merged.get(k, 0) + count
    return tuple(sorted(((c, k) for k, c in merged.items()), key=lambda ck: (-abs(ck[1]), -ck[1])))


def general_code(outer, ambient, inner) -> CompleteCode:
    """Normalized general code; an ambient oval with nothing inside is folded
    back into the empty-oval groups."""
    inner_t = _sorted_groups(inner)
    if ambient is not None and not inner_t:
        return CompleteCode("general", _sorted_groups(tuple(outer) + ((1, ambient),)), None, ())
    return CompleteCode("general", _sorted_groups(outer), ambient, inner_t)


def render_code(code: CompleteCode) -> str:
    if code.kind == "null":
        return "0"
    if code.kind == "nest3":
        return "1<1<1>>"

    def group_text(count, k):
        return f"{count}" if k == 0 else f"{count}_{k}"

    parts = [group_text(c, k) for c, k in code.outer]
    if code.ambient is not None:
        inner = "+".join(group_text(c, k) for c, k in code.inner)
        amb = "1" if code.ambient == 0 else f"1_{code.ambient}"
        parts.append(f"{amb}<{inner}>")
    return "+".join(parts)


def simple_code_text(code: CompleteCode) -> str:
    if code.kind == "null":
        return "0"
    if code.kind == "nest3":
        return "1<1<1>>"
    alpha, beta = code.alpha_beta()
    if beta == 0:
        return f"{alpha + 1}"
    return f"{alpha}+1<{beta}>" if alpha else f"1<{beta}>"


class SexticID(NamedTuple):
    code: CompleteCode
    curve_type: str  # "I" | "II"
    o: str  # "+" | "-"

    @property
    def nu_r(self) -> int:
        return self.code.cusp_pairs()


class CubicTopology(NamedTuple):
    chi: int
    handles: int


# ---------------------------------------------------------------------------
# from lattice invariants to the oval shape

def topology_from_t_half(inv) -> tuple[int, tuple, str, str, int]:
    """(oval count, shape, type, o, nu_r) of the sextic attached to T+.

    shape is ("null",), ("nest3",) or ("general", alpha, beta).  The
    invariants must be a census first half: they and their `complement`
    pass `half_violation`, the rule `admissible_invariants` walks.
    """
    if half_violation(inv) is not None or half_violation(inv.complement()) is not None:
        raise ValueError(f"invariants {inv} are outside the enumerated census")
    r, r2, d2, p, q = inv.r, inv.r2, inv.delta2, inv.p, inv.q
    if (r, r2, d2) == (4, 4, 0) and (p, q) in ((1, 0), (0, 3)):
        o = "+" if p == 1 else "-"
        return 0, ("null",), "II", o, 0
    ell = 5 - r2
    alpha = 4 - (r + r2) // 2
    beta = (r - r2) // 2
    curve_type = "I" if d2 == 0 else "II"
    o, nu_r = ("+", q) if p == 1 else ("-", 3 - q)
    if not (ell == alpha + beta + 1 and alpha >= 0 and beta >= 0 and alpha + beta <= 4):
        raise ValueError(f"oval count {ell} does not match the code ({alpha}, {beta})")
    if (alpha, beta) == (1, 1) and curve_type == "I" and nu_r == 0:
        return 3, ("nest3",), curve_type, o, 0
    return ell, ("general", alpha, beta), curve_type, o, nu_r


# ---------------------------------------------------------------------------
# the cusp rule engine

def cusp_distributions(shape, nu_r: int, o: str) -> list[CompleteCode]:
    """All assignments of nu_r cusp pairs to the ovals of the shape that
    satisfy the arrangement constraints; returned exhaustively, never
    resolved by guessing."""
    if shape[0] == "null":
        return [NULL_CODE] if nu_r == 0 else []
    if shape[0] == "nest3":
        # three nested ovals admit no real singular points
        return [NEST3_CODE] if nu_r == 0 else []
    _tag, alpha, beta = shape
    return _general_distributions(alpha, beta, nu_r, o)


def _general_distributions(alpha: int, beta: int, nu_r: int, o: str) -> list[CompleteCode]:
    out = []
    if beta == 0:
        n = alpha + 1
        if o == "+":
            # at most one oval can carry (inward) cusps
            if nu_r == 0:
                out.append(general_code(((n, 0),), None, ()))
            elif nu_r <= 3:
                out.append(general_code(((1, -nu_r), (n - 1, 0)), None, ()))
            return out
        # o = "-": outward cusps; every empty-oval disc lies in the 3:1 half,
        # so at most one oval is smooth, and a smooth oval forces nu_r = alpha
        for parts in _partitions(nu_r, n, 1, 3):  # all ovals cuspidal
            groups = [(parts.count(k), k) for k in set(parts)]
            out.append(general_code(tuple(groups), None, ()))
        if nu_r == alpha:
            for parts in _partitions(nu_r, n - 1, 1, 3):
                groups = [(parts.count(k), k) for k in set(parts)] + [(1, 0)]
                code = general_code(tuple(groups), None, ())
                if code not in out:
                    out.append(code)
        return out
    # beta >= 1: the ambient oval exists and is the only non-empty one
    if o == "-":
        # inner ovals cannot have cusps (inward is barred by the non-empty
        # ambient; outward would force o = +); outer ovals carry at most one
        # outward pair each
        for j in range(0, alpha + 1):
            m = nu_r - j
            if not (0 <= m <= 3):
                continue
            smooth_outer = alpha - j
            if smooth_outer >= 2:
                continue  # at most one smooth oval with its disc in the 3:1 half
            if smooth_outer == 1 and nu_r != alpha - beta:
                continue  # a smooth outer disc in the 3:1 half forces nu_r = alpha - beta
            outer = ((j, 1), (alpha - j, 0))
            out.append(general_code(outer, m, ((beta, 0),)))
        return out
    # o = "+": outer ovals are smooth (their cusps would be inward, barred by
    # the non-empty ambient); inner ovals carry at most one outward pair each
    for j in range(0, beta + 1):
        m = nu_r - j
        if not (0 <= m <= 3):
            continue
        smooth_inner = beta - j
        if smooth_inner >= 2:
            continue
        if smooth_inner == 1 and nu_r != beta - alpha - 1:
            continue
        inner = ((j, 1), (beta - j, 0))
        out.append(general_code(((alpha, 0),), -m, inner))
    return out


def _partitions(total: int, ovals: int, lo: int, hi: int):
    """Multisets of `ovals` values in [lo, hi] summing to total (descending)."""
    if ovals == 0:
        if total == 0:
            yield []
        return
    for first in range(min(hi, total), lo - 1, -1):
        for rest in _partitions(total - first, ovals - 1, lo, min(hi, first)):
            yield [first] + rest


# ---------------------------------------------------------------------------
# reversion of codes

def reversion_code(code: CompleteCode) -> CompleteCode:
    """The complete code of the trigonal-reversion partner.

    The 3-nest maps to itself; the null code is not reversible.  With an
    ambient oval, outside and inside swap and the ambient's cusps flip.
    Without one, the principal oval is the unique choice that yields a code
    realizable on the other side.
    """
    if code.kind == "null":
        raise ValueError("the null code has no reversion")
    if code.kind == "nest3":
        return NEST3_CODE
    if code.ambient is not None:
        return general_code(code.inner, -code.ambient, code.outer)
    # an oval with inward cusps or more than one outward pair must be principal
    principals = [(c, k) for c, k in code.outer if k < 0 or k > 1]
    if principals:
        count, k = principals[0]
        rest = [(c - (kk == k), kk) for c, kk in code.outer]
        return general_code((), -k, tuple((c, kk) for c, kk in rest if c))
    candidates = []
    for idx, (_count, k) in enumerate(code.outer):
        rest = [(c - (i == idx), kk) for i, (c, kk) in enumerate(code.outer)]
        cand = general_code((), -k, tuple((c, kk) for c, kk in rest if c))
        if cand not in candidates:
            candidates.append(cand)
    valid = [cand for cand in candidates if _code_is_realizable(cand)]
    if len(valid) == 1:
        return valid[0]
    if not valid:
        raise ValueError(f"no realizable reversion of {render_code(code)}")
    raise ValueError(
        f"ambiguous reversion of {render_code(code)}: "
        + ", ".join(render_code(c) for c in valid)
    )


def _code_is_realizable(code: CompleteCode) -> bool:
    """Whether the cusp rule engine can produce this code for either sign o."""
    if code.kind != "general":
        return True
    alpha, beta = code.alpha_beta()
    nu_r = code.cusp_pairs()
    for o in ("-", "+"):
        if code in _general_distributions(alpha, beta, nu_r, o):
            return True
    return False


# ---------------------------------------------------------------------------
# IDs and cubic topology

def id_from_t_pair(pair: TPair) -> SexticID:
    """Compose the shape translation of T+ with the cusp engine: the ID is
    the engine's one distribution, and none or several raise.  The partner
    is not read; every census pair has exactly one distribution."""
    _ell, shape, curve_type, o, nu_r = topology_from_t_half(pair.t_plus)
    candidates = cusp_distributions(shape, nu_r, o)
    if len(candidates) == 1:
        return SexticID(candidates[0], curve_type, o)
    if not candidates:
        raise ValueError(f"no admissible cusp distribution for pair {pair.table_ref}")
    raise ValueError(
        f"ambiguous cusp distribution for pair {pair.table_ref}: "
        + ", ".join(render_code(c) for c in candidates)
    )


def cubic_topology(sid: SexticID) -> CubicTopology:
    """Euler characteristic and handle count of the real cubic surface."""
    code, nu_r = sid.code, sid.nu_r
    if code.kind == "null":
        chi = 1 if sid.o == "-" else 3
    elif code.kind == "nest3":
        chi = 3 if sid.o == "-" else 1
    else:
        alpha, beta = code.alpha_beta()
        if sid.o == "-":
            chi = 3 + 2 * (alpha - beta) - 2 * nu_r
        else:
            chi = 1 + 2 * (beta - alpha) - 2 * nu_r
    handles = (1 - chi) // 2
    if not (chi == 1 - 2 * handles and -1 <= handles <= 3):
        raise ValueError(f"Euler characteristic {chi} gives no handle count in -1..3")
    return CubicTopology(chi, handles)
