"""Direct-sum oracle for `zlat.lattice.parse_lattice_expr`.

This is the parser as the package had it before it built one block-diagonal
Gram matrix per expression: every atom is a `Lattice`, a term is the
`direct_sum` of its repetitions (after `rescale`), and the expression is the
`direct_sum` of its terms, renamed.  Positions and messages of `ExprError`
are the reference for the one-construction parser.

`rescale` (with its renamed expression) and `hyperbolic_branch` are lattice
operations the package no longer calls; they live here for the tests, with
`dense_overlattice`, the full product H*G*H^T that `overlattice` patches.
"""

from __future__ import annotations

import math
import re

from zlat import exact
from zlat.lattice import ExprError, Lattice, _with_det, direct_sum, make_lattice, named, signature


def rescale(l: Lattice, n: int) -> Lattice:
    if n == 0:
        raise ValueError("scale factor must be nonzero")
    g = [[n * x for x in row] for row in l.gram]
    return _with_det(g, n**l.rank * l.det(), l.expr if n == 1 else _rescale_expr(l.expr, n))


_TERM = re.compile(r"(\d*)(U|[ADE]\d+|<-?\d+>)(?:\((-?\d+)\))?")


def _rescale_expr(expr: str | None, n: int) -> str | None:
    """expr with every term's scale multiplied by n; None outside the grammar."""
    terms = []
    for term in (expr or "").split("+"):
        m = _TERM.fullmatch(term)
        if m is None:
            return None
        scale = int(m[3] or 1) * n
        terms.append(m[1] + m[2] + (f"({scale})" if scale != 1 else ""))
    return "+".join(terms)


def dense_overlattice(l: Lattice, rows, den: int) -> tuple[Lattice, list]:
    """`lattice.overlattice` with every entry of H*G*H^T computed."""
    n = l.rank
    if any(len(w) != n for w in rows):
        raise ValueError("overlattice generators do not span")
    h = exact.hermite_normal_form_mod(rows, den, n)
    scaled = exact.mat_mul(h, exact.transpose(exact.mat_mul(h, l.gram_rows())))
    den2 = den * den
    if any(x % den2 for row in scaled for x in row):
        raise ValueError("overlattice is not integral")
    gram = [[x // den2 for x in row] for row in scaled]
    if any(gram[i][i] % 2 for i in range(n)):
        raise ValueError("overlattice is not even")
    det_h = math.prod(h[i][i] for i in range(n))
    return _with_det(gram, l.det() * det_h * det_h // den2**n), h


def hyperbolic_branch(l: Lattice) -> str | None:
    """Which reading of "hyperbolic" fired: "strict" (n+ = 1) or "abuse" (n- = 0)."""
    np_, nm = signature(l)
    if np_ == 1:
        return "strict"
    if nm == 0:
        return "abuse"
    return None


def parse_lattice_expr(text: str) -> Lattice:
    """Evaluate a lattice expression like "U(3)+2A2+A1" or "<2>+3<-6>"."""
    pos = 0
    n = len(text)
    terms: list[Lattice] = []

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_uint() -> int | None:
        nonlocal pos
        start = pos
        while pos < n and "0" <= text[pos] <= "9":
            pos += 1
        return int(text[start:pos]) if pos > start else None

    def parse_atom() -> Lattice:
        nonlocal pos
        if pos >= n:
            raise ExprError("expected lattice atom", pos)
        ch = text[pos]
        if ch == "U":
            pos += 1
            return named("U")
        if ch in "ADE":
            pos += 1
            idx = parse_uint()
            if idx is None:
                raise ExprError(f"expected index after '{ch}'", pos)
            try:
                return named(f"{ch}{idx}")
            except ValueError as e:
                raise ExprError(str(e), pos) from None
        if ch == "<":
            pos += 1
            neg = False
            if pos < n and text[pos] == "-":
                neg = True
                pos += 1
            val = parse_uint()
            if val is None:
                raise ExprError("expected integer inside <>", pos)
            if pos >= n or text[pos] != ">":
                raise ExprError("expected '>'", pos)
            pos += 1
            if val == 0:
                raise ExprError("<0> is degenerate", pos)
            return named(f"<{-val if neg else val}>")
        raise ExprError(f"unexpected character {ch!r}", pos)

    def parse_term() -> Lattice:
        nonlocal pos
        skip_ws()
        count = parse_uint()
        if count is not None and count == 0:
            raise ExprError("zero repetition count", pos)
        atom = parse_atom()
        if pos < n and text[pos] == "(":
            pos += 1
            neg = False
            if pos < n and text[pos] == "-":
                neg = True
                pos += 1
            scale = parse_uint()
            if scale is None:
                raise ExprError("expected scale integer", pos)
            if pos >= n or text[pos] != ")":
                raise ExprError("expected ')'", pos)
            pos += 1
            scale = -scale if neg else scale
            if scale == 0:
                raise ExprError("zero scale", pos)
            atom = rescale(atom, scale)
        reps = count if count is not None else 1
        return direct_sum(*([atom] * reps))

    skip_ws()
    if pos >= n:
        raise ExprError("empty expression", 0)
    terms.append(parse_term())
    skip_ws()
    while pos < n:
        if text[pos] != "+":
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
        terms.append(parse_term())
        skip_ws()
    result = direct_sum(*terms)
    return make_lattice(result.gram_rows(), "".join(text.split()))
