"""Seeded input generators for the benchmark workloads.

Everything here is plain Python with no import of the package under test:
the generators produce Gram matrices, lattice expressions and orderings,
together with the facts the correctness gates compare against (determinant,
signature), computed independently of the package.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# block catalog: Gram matrices and signatures, built here from the Dynkin
# diagrams so that expected determinants and signatures do not come from the
# package.  Root lattices are negative definite (diagonal -2).


def _chain(n: int) -> list[list[int]]:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = 1
    return g


def _branch(n: int, at: int) -> list[list[int]]:
    """Chain of n-1 nodes with node n-1 attached to node `at` (D_n: n-3, E_n: 2)."""
    g = _chain(n)
    g[n - 1][n - 2] = g[n - 2][n - 1] = 0
    g[n - 1][at] = g[at][n - 1] = 1
    return g


def block(name: str) -> tuple[list[list[int]], tuple[int, int]]:
    """(Gram, signature) of a catalog block: U, U(n), <n>, An, An(2), Dn, E6..E8."""
    scale = 1
    if name.endswith(")"):
        name, _, arg = name[:-1].partition("(")
        scale = int(arg)
    if name == "U":
        g, sig = [[0, 1], [1, 0]], (1, 1)
    elif name.startswith("<"):
        n = int(name[1:-1])
        g, sig = [[n]], ((1, 0) if n > 0 else (0, 1))
    elif name[0] == "A":
        n = int(name[1:])
        g, sig = _chain(n), (0, n)
    elif name[0] == "D":
        n = int(name[1:])
        g, sig = _branch(n, n - 3), (0, n)
    elif name[0] == "E":
        n = int(name[1:])
        g, sig = _branch(n, 2), (0, n)
    else:
        raise ValueError(f"unknown block {name!r}")
    if scale < 0:
        sig = sig[::-1]
    return [[scale * x for x in row] for row in g], sig


def parse_blocks(expr: str) -> list[str]:
    """"U+2U(2)+8A1" -> ["U", "U(2)", "U(2)", "A1", ... ]."""
    out = []
    for term in expr.split("+"):
        i = 0
        while term[i].isdigit():
            i += 1
        out.extend([term[i:]] * (int(term[:i]) if i else 1))
    return out


def block_sum(names: list[str]) -> tuple[list[list[int]], tuple[int, int]]:
    """Orthogonal direct sum of catalog blocks: (Gram, signature)."""
    parts = [block(n) for n in names]
    size = sum(len(g) for g, _ in parts)
    gram = [[0] * size for _ in range(size)]
    off = 0
    for g, _ in parts:
        for i, row in enumerate(g):
            gram[off + i][off:off + len(row)] = row
        off += len(g)
    return gram, (sum(s[0] for _, s in parts), sum(s[1] for _, s in parts))


def determinant(m: list[list[int]]) -> int:
    """Integer determinant by Bareiss elimination with row pivoting."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def congruent(g: list[list[int]], p: list[list[int]]) -> list[list[int]]:
    """P G P^T."""
    n = len(g)
    pg = [[sum(p[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(pg[i][k] * p[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A unimodular n x n matrix from n elementary row operations (add +-row, swap).

    A row is only ever added while it is still a unit vector, so entries stay
    small and basis changes of different seeds cost the package alike."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return p
    unit = set(range(n))  # rows that are still unit vectors
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2 or j not in unit:
            p[i], p[j] = p[j], p[i]
            unit = {j if r == i else i if r == j else r for r in unit}
        else:
            c = rng.choice((-1, 1))
            p[i] = [a + c * b for a, b in zip(p[i], p[j])]
            unit.discard(i)
    return p


# ---------------------------------------------------------------------------
# discr-sweep populations

# The block catalog of the classification (rank, in the order the package lists it).
CATALOG_RANK = {"U": 2, "U(2)": 2, "U(3)": 2, "U(6)": 2, "<2>": 1, "<6>": 1,
                "<-6>": 1, "A1": 1, "A2": 2, "A2(2)": 2, "D4": 4, "E6": 6}
# The van der Blij sweep of the package's `forms` verification suite: every
# catalog multiset of rank <= CATALOG_MAX_RANK, plus SWEEP_RANDOM random even
# lattices.
CATALOG_MAX_RANK = 10
SWEEP_RANDOM = 110


def render_blocks(names: list[str]) -> str:
    order = list(CATALOG_RANK)
    terms = []
    for name in sorted(set(names), key=order.index):
        count = names.count(name)
        terms.append(name if count == 1 else f"{count}{name}")
    return "+".join(terms)


def catalog_multisets() -> list[list[str]]:
    """Every nonempty multiset of catalog blocks of total rank <= CATALOG_MAX_RANK,
    in the order the sweep visits them."""
    sets: list[list[str]] = [[]]
    for name, rank in CATALOG_RANK.items():
        grown = []
        for base in sets:
            used = sum(CATALOG_RANK[b] for b in base)
            grown += [base + [name] * c for c in range((CATALOG_MAX_RANK - used) // rank + 1)]
        sets = grown
    return [s for s in sets if s]


def catalog_sum(names: list[str]) -> dict:
    gram, sig = block_sum(names)
    return {"population": "catalog", "expr": render_blocks(names), "rank": len(gram),
            "det": determinant(gram), "sig": sig}


# random even lattices as the sweep draws them: rank 1-6, entries in [-10, 10]
RANDOM_MAX_RANK, RANDOM_BOUND, RANDOM_DET_CAP = 6, 10, 4000


def random_even(rng: random.Random) -> dict:
    """A random nondegenerate even Gram matrix with |det| <= RANDOM_DET_CAP."""
    while True:
        n = rng.randint(1, RANDOM_MAX_RANK)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-RANDOM_BOUND // 2, RANDOM_BOUND // 2)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-RANDOM_BOUND, RANDOM_BOUND)
        d = determinant(g)
        if d != 0 and abs(d) <= RANDOM_DET_CAP:
            return {"population": "random", "gram": g, "rank": n, "det": d, "sig": None}


DISCR_CATALOG = 150  # catalog sums per round


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def discr_round(seed: int) -> list[dict]:
    """One round of the van der Blij sweep: DISCR_CATALOG catalog sums and
    random even lattices in the sweep's own ratio to them, in seeded order.

    The catalog sums are every step-th of the sweep's multisets from a seeded
    start, with the multisets ordered by the 2- and 3-adic valuations of their
    determinant and their rank (what a sum costs grows with them): each
    multiset is equally likely, and rounds of different seeds hold the same mix
    of group sizes, so that they cost alike."""
    rng = random.Random(f"discr-sweep/{seed}")
    det = {name: abs(determinant(block(name)[0])) for name in CATALOG_RANK}

    def cost_key(names: list[str]) -> tuple[int, int, int]:
        return (sum(valuation(det[b], 2) for b in names), sum(valuation(det[b], 3) for b in names),
                sum(CATALOG_RANK[b] for b in names))

    multisets = sorted(catalog_multisets(), key=cost_key)
    step = len(multisets) // DISCR_CATALOG
    chosen = multisets[rng.randrange(step)::step][:DISCR_CATALOG]
    items = [catalog_sum(names) for names in chosen]
    randoms = round(DISCR_CATALOG * SWEEP_RANDOM / len(multisets))
    items += [random_even(rng) for _ in range(randoms)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# genus-large families

# Every round runs every query template under BASIS_CHANGES basis changes and
# every extension template once; the seed picks the basis changes P and the
# order.  The control of a query template and the isotropic element of an
# extension are fixed by the template's place (CONTROLS in turn, elements 0, 1,
# 2 in turn), so that rounds of different seeds cost alike.
GENUS_FAMILIES = {
    # elementary 2-parts, 2^8 .. 2^12
    "elem2": ["U+12A1", "U+10A1", "U+2D4+6A1", "U+2U(2)+6A1", "U+8A1"],
    # elementary 3-parts, 3^5 .. 3^8
    "elem3": ["U+8A2", "U+3U(3)+A2", "U+U(3)+3A2+E6", "U+5A2"],
    # non-elementary parts: Z/4, Z/8, Z/9, Z/16, Z/25, Z/49 factors
    "nonelem": ["U+<-8>+<-4>+A1", "U+U(4)+<-8>", "U+<-18>+<-36>", "U+<-50>+A2", "U+2U(4)+A1",
                "U+<-72>+<-8>+A3", "U+<-1250>+<-6>+A2", "U+U(9)+A2", "U+U(8)+<-4>",
                "U+<-16>+A1", "U+<-98>+A2", "U+<-24>+<-12>"],
    # a p-part above the numeric Gauss-sum size cap of the seed commit
    "overcap": ["U+<-3906250>+<-6>", "U+<-19531250>+<-2>", "U+<-8388608>+<-6>"],
    # extension by one isotropic element (the shape of the extension-identities check)
    "extension": ["6A2", "U(3)+3A2", "2U(3)", "4A2+A2(2)"],
}
BASIS_CHANGES = 1
# the templates of the largest groups (2^12, 3^8), about 40% of a round's time
GENUS_HEAVY = ("U+12A1", "U+8A2")
CONTROLS = ("sig", "det")


def control_blocks(expr: str, control: str) -> list[str]:
    """A lattice in another genus: "sig" adds E8 (same discriminant form, other
    signature); "det" replaces the leading U by U(11) (same signature, |det| * 121,
    a small 11-part next to parts at primes up to 7)."""
    names = parse_blocks(expr)
    if control == "sig":
        return names + ["E8"]
    if names[0] != "U":
        raise ValueError(f"template {expr!r} does not start with U")
    return ["U(11)"] + names[1:]


def genus_round(seed: int) -> list[dict]:
    """One round of genus-large queries and extensions."""
    rng = random.Random(f"genus-large/{seed}")
    items = []
    for family, templates in GENUS_FAMILIES.items():
        copies = 1 if family == "extension" else BASIS_CHANGES
        for n, expr in enumerate(templates * copies):
            gram, sig = block_sum(parse_blocks(expr))
            item = {"family": family, "expr": expr, "gram": gram, "sig": sig}
            if family == "extension":
                # which isotropic element, in sorted order, generates H
                item["pick"] = n % 3
            else:
                control = CONTROLS[n % len(CONTROLS)]
                item.update(det=determinant(gram),
                            moved=congruent(gram, unimodular(rng, len(gram))),
                            control=control,
                            control_gram=block_sum(control_blocks(expr, control))[0])
            items.append(item)
    rng.shuffle(items)
    return items


def classification_order(seed: int, pairs: int, table_ids: list[str]):
    """Seeded orders of the census pairs (twice: partners/IDs, realization) and table ids."""
    rng = random.Random(f"classification/{seed}")
    ids = list(table_ids)
    rng.shuffle(ids)
    return rng.sample(range(pairs), pairs), rng.sample(range(pairs), pairs), ids
