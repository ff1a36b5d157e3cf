"""Independent references for the benchmark's correctness gates.

Nothing here imports k3lat.  Every answer the program gives is checked
against arithmetic done from first principles: closed-form discriminant
data of the ADE root lattices, the discriminant-chain divisions, 3x3
integer algebra on rank-3 Gram matrices, and published Schur multipliers
of small groups.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import isqrt, prod

# -- ADE configurations -----------------------------------------------------

_KINDS = {"A": 1, "D": 4, "E": 6}


def parse_config(text: str) -> list:
    """'A6,2*A3,A1' -> [('A', 6), ('A', 3), ('A', 3), ('A', 1)]."""
    out = []
    for term in text.split(","):
        mult, _, body = term.rpartition("*")
        kind, n = body[0], int(body[1:])
        if kind not in _KINDS or n < _KINDS[kind] or (kind == "E" and n > 8):
            raise ValueError(f"bad component {body!r}")
        out.extend([(kind, n)] * (int(mult) if mult else 1))
    return out


def config_text(components) -> str:
    """Canonical text: larger components first, multiplicities folded."""
    counts = Counter(components)
    terms = []
    for (kind, n) in sorted(counts, key=lambda c: (-c[1], c[0])):
        m = counts[(kind, n)]
        terms.append(f"{m}*{kind}{n}" if m > 1 else f"{kind}{n}")
    return ",".join(terms)


def all_configs(rank: int) -> list:
    """Every multiset of ADE components of the given total rank."""
    kinds = [("A", n) for n in range(1, rank + 1)]
    kinds += [("D", n) for n in range(4, rank + 1)]
    kinds += [("E", n) for n in (6, 7, 8) if n <= rank]
    out = []

    def rec(start, left, cur):
        if left == 0:
            out.append(tuple(cur))
            return
        for i in range(start, len(kinds)):
            if kinds[i][1] <= left:
                cur.append(kinds[i])
                rec(i, left - kinds[i][1], cur)
                cur.pop()

    rec(0, rank, [])
    return out


def root_gram(components) -> list:
    """Negative-definite Gram of the sum: diagonal -2, +1 on Dynkin edges."""
    size = sum(n for _, n in components)
    g = [[0] * size for _ in range(size)]
    off = 0
    for kind, n in components:
        if kind == "A":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif kind == "D":
            edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        else:
            edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
        for i in range(n):
            g[off + i][off + i] = -2
        for i, j in edges:
            g[off + i][off + j] = g[off + j][off + i] = 1
        off += n
    return g


def _component_q_values(kind: str, n: int) -> list:
    """q over every element of the discriminant group of the negative-definite
    root lattice, as Fractions in [0, 2)."""
    if kind == "A":
        vals = [Fraction(-k * k * n, n + 1) for k in range(n + 1)]
    elif kind == "D" and n % 2 == 0:
        vals = [Fraction(0), Fraction(-1), Fraction(-n, 4), Fraction(-n, 4)]
    elif kind == "D":
        vals = [Fraction(-k * k * n, 4) for k in range(4)]
    elif n == 6:
        vals = [Fraction(-4 * k * k, 3) for k in range(3)]
    elif n == 7:
        vals = [Fraction(0), Fraction(-3, 2)]
    else:
        vals = [Fraction(0)]
    return [v % 2 for v in vals]


def _component_factors(kind: str, n: int) -> list:
    """Cyclic factor orders of the component's discriminant group."""
    if kind == "A":
        return [n + 1]
    if kind == "D":
        return [2, 2] if n % 2 == 0 else [4]
    return {6: [3], 7: [2], 8: []}[n]


def config_det(components) -> int:
    """d(K) of the negative-definite sum: sign (-1)^rank times |A_K|."""
    rank = sum(n for _, n in components)
    size = prod(f for c in components for f in _component_factors(*c))
    return -size if rank % 2 else size


def prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def invariant_factor_count(components) -> int:
    """Number of invariant factors of A_K: its largest p-rank."""
    ranks = Counter(
        p for c in components for f in _component_factors(*c) for p in prime_factors(f)
    )
    return max(ranks.values(), default=0)


def disc_q_histogram(components, negate: bool = False) -> Counter:
    """Multiset of q values over A_K (of -q when negate is set)."""
    hist = Counter({Fraction(0): 1})
    for c in components:
        vals = _component_q_values(*c)
        nxt = Counter()
        for a, m in hist.items():
            for v in vals:
                nxt[(a + v) % 2] += m
        hist = nxt
    if negate:
        hist = Counter({(-a) % 2: m for a, m in hist.items()})
    return hist


# -- the discriminant chain -------------------------------------------------

K3_RANK = 22


def chain(components, group_order: int, glue: int, h3: int) -> dict | None:
    """d(K) .. d(S_G) by exact division; None when a division is inexact."""
    r = sum(n for _, n in components)
    d_k = config_det(components)
    if d_k % (glue * glue):
        return None
    d_m = d_k // (glue * glue)
    power = group_order ** (K3_RANK - r)
    if power % d_m:
        return None
    d_j = -(power // d_m)
    if d_j % (h3 * h3):
        return None
    d_h2g = d_j // (h3 * h3)
    d_sg = (-1 if r % 2 else 1) * abs(d_h2g)
    return {"d_k": d_k, "d_m": d_m, "d_j": d_j, "d_h2g": d_h2g, "d_sg": d_sg}


# -- rank-3 positive-definite Gram matrices ---------------------------------


def det3(g) -> int:
    return (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )


def _adjugate3(g) -> list:
    return [
        [
            (g[(j + 1) % 3][(i + 1) % 3] * g[(j + 2) % 3][(i + 2) % 3]
             - g[(j + 1) % 3][(i + 2) % 3] * g[(j + 2) % 3][(i + 1) % 3])
            for j in range(3)
        ]
        for i in range(3)
    ]


def is_even_positive_definite(g) -> bool:
    if len(g) != 3 or any(len(row) != 3 for row in g):
        return False
    if any(g[i][j] != g[j][i] for i in range(3) for j in range(3)):
        return False
    if any(g[i][i] % 2 for i in range(3)):
        return False
    return g[0][0] > 0 and g[0][0] * g[1][1] - g[0][1] ** 2 > 0 and det3(g) > 0


def _lower_triangular_basis(g) -> list:
    """Columns of g brought to lower-triangular form by unimodular column
    operations, with positive diagonal."""
    cols = [[g[i][j] for i in range(3)] for j in range(3)]
    for r in range(3):
        while True:
            live = [c for c in range(r, 3) if cols[c][r]]
            if len(live) <= 1:
                break
            piv = min(live, key=lambda c: abs(cols[c][r]))
            for c in live:
                if c != piv:
                    q = cols[c][r] // cols[piv][r]
                    cols[c] = [a - q * b for a, b in zip(cols[c], cols[piv])]
        live = [c for c in range(r, 3) if cols[c][r]]
        cols[r], cols[live[0]] = cols[live[0]], cols[r]
        if cols[r][r] < 0:
            cols[r] = [-a for a in cols[r]]
    return cols


def gram_q_histogram(g) -> Counter:
    """Multiset of q(x) = x^T g^-1 x mod 2 over the discriminant group
    Z^3 / g Z^3 of a positive-definite rank-3 Gram."""
    det = det3(g)
    adj = _adjugate3(g)
    cols = _lower_triangular_basis(g)
    hist = Counter()
    modulus = 2 * det
    for x in itertools.product(*(range(cols[i][i]) for i in range(3))):
        v = sum(x[i] * adj[i][j] * x[j] for i in range(3) for j in range(3))
        hist[Fraction(v % modulus, det)] += 1
    return hist


def _norm(g, v) -> int:
    return sum(g[i][j] * v[i] * v[j] for i in range(3) for j in range(3))


def _short_vectors(g, bound: int) -> list:
    """Nonzero x with x^T g x <= bound, by a box from x_i^2 <= bound * (g^-1)_ii."""
    det = det3(g)
    adj = _adjugate3(g)
    box = [isqrt(bound * adj[i][i] // det) for i in range(3)]
    out = []
    for v in itertools.product(*(range(-b, b + 1) for b in box)):
        if any(v) and _norm(g, v) <= bound:
            out.append(v)
    return out


def isometric(a, b) -> bool:
    """Is there an integral x with x^T a x = b?  Equal determinants make
    any such x unimodular."""
    if det3(a) != det3(b):
        return False
    bound = max(b[i][i] for i in range(3))
    by_norm = {}
    for v in _short_vectors(a, bound):
        by_norm.setdefault(_norm(a, v), []).append(v)

    def pair(u, w):
        return sum(a[i][j] * u[i] * w[j] for i in range(3) for j in range(3))

    def place(chosen):
        i = len(chosen)
        if i == 3:
            return True
        for w in by_norm.get(b[i][i], ()):
            if all(pair(chosen[t], w) == b[t][i] for t in range(i)):
                if place(chosen + [w]):
                    return True
        return False

    return place([])


# -- small groups ------------------------------------------------------------


def _table(elements, mul) -> list:
    """Cayley table over the listed elements, the first being the identity."""
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def cyclic(n: int) -> list:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def direct_product(t1, t2) -> list:
    n1, n2 = len(t1), len(t2)
    elems = [(a, b) for a in range(n1) for b in range(n2)]
    return _table(elems, lambda x, y: (t1[x[0]][y[0]], t2[x[1]][y[1]]))


def dihedral(m: int) -> list:
    """Symmetries of the m-gon, order 2m: r^k s^e."""
    elems = [(k, e) for e in (0, 1) for k in range(m)]
    return _table(elems, lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % m, (x[1] + y[1]) % 2))


def dicyclic(m: int) -> list:
    """Order 4m: a^k x^e with a^(2m) = 1, x^2 = a^m, x a x^-1 = a^-1."""
    n = 2 * m
    elems = [(k, e) for e in (0, 1) for k in range(n)]

    def mul(p, q):
        (k1, e1), (k2, e2) = p, q
        if e1 == 0:
            return ((k1 + k2) % n, e2)
        if e2 == 1:
            return ((k1 - k2 + m) % n, 0)
        return ((k1 - k2) % n, 1)

    return _table(elems, mul)


def alternating4() -> list:
    perms = [p for p in itertools.permutations(range(4))
             if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    return _table(perms, lambda p, q: tuple(p[q[i]] for i in range(4)))


def h3_catalogue() -> dict:
    """name -> (Cayley table, H^3(G, Z) invariant factors).

    For a finite group H^3(G, Z) is the Schur multiplier H_2(G, Z); the
    values are the published ones (trivial for cyclic groups, Q8 and the
    dicyclic groups; Z/2 for D4, A4 and D6; (Z/2)^3 for C2^3; Z/m for
    C_m x C_n with m | n)."""
    cat = {f"C{n}": (cyclic(n), ()) for n in range(1, 13)}
    cat.update({
        "C2xC2": (direct_product(cyclic(2), cyclic(2)), (2,)),
        "C2^3": (direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)), (2, 2, 2)),
        "C2xC4": (direct_product(cyclic(2), cyclic(4)), (2,)),
        "C3xC3": (direct_product(cyclic(3), cyclic(3)), (3,)),
        "C2xC6": (direct_product(cyclic(2), cyclic(6)), (2,)),
        "S3": (dihedral(3), ()),
        "D4": (dihedral(4), (2,)),
        "Q8": (dicyclic(2), ()),
        "D5": (dihedral(5), ()),
        "A4": (alternating4(), (2,)),
        "D6": (dihedral(6), (2,)),
        "Dic3": (dicyclic(3), ()),
    })
    return cat


def is_group_table(t) -> bool:
    """Identity at 0, Latin square, associative."""
    n = len(t)
    rng = list(range(n))
    if list(t[0]) != rng or any(t[i][0] != i for i in rng):
        return False
    if any(sorted(row) != rng for row in t) or any(sorted(col) != rng for col in zip(*t)):
        return False
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in rng for b in rng for c in rng)


def relabel(t, perm) -> list:
    """Table of the same group with element i renamed perm[i]."""
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[t[a][b]]
    return out
