"""Finite groups as Cayley tables, element-order censuses, and an exact
integral cohomology oracle in degree 3.

The oracle computes H^3(G, Z) as H_2(G, Z), the homology of the
normalized bar complex, whose cells are tuples of non-identity elements.
Its invariant factors come from a Smith form modulo |G|^2, since |G|
annihilates H_2; that its free rank is zero is certified by ranks over a
prime field.  It exists to validate record data on small groups: the
boundary d3 has (n-1)^3 columns, so the default cap keeps it to order 12,
and records carry the order of H^3 as data.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from math import gcd
from operator import itemgetter

from .errors import DomainError, InconsistentDataError, ResourceLimitError
from .intmat import IntMatrix, invariant_factors, strict_int, strict_int_rows

PERMUTATION_CLOSURE_LIMIT = 10_000
ASSOC_VALIDATION_LIMIT = 1_024
H3_DEFAULT_CAP = 12

_RANK_PRIMES = (8191, 8179, 8171, 8167, 8147)


class FiniteGroup:
    """Finite group on elements 0..N-1 with 0 the identity.

    ``table[i][j]`` is the product i*j.  Tables built from permutation
    generators are associative by construction; raw tables are fully
    validated (identity, latin square, associativity).
    """

    __slots__ = ("table", "order")

    def __init__(self, table, _trusted=False):
        if _trusted:
            table = tuple(map(tuple, table))
        else:
            table = strict_int_rows(table, "Cayley table")
        n = len(table)
        if any(len(row) != n for row in table):
            raise DomainError("Cayley table must be square")
        if n == 0:
            raise DomainError("a group needs at least the identity")
        rng = range(n)
        if any(min(row) < 0 or max(row) >= n for row in table):
            raise DomainError("Cayley table entries out of range")
        if not _trusted:
            if tuple(table[0]) != tuple(rng) or any(table[i][0] != i for i in rng):
                raise DomainError("element 0 must be the identity")
            for i in rng:
                if sorted(table[i]) != list(rng):
                    raise DomainError(f"row {i} is not a permutation")
            cols = list(zip(*table))
            for j in rng:
                if sorted(cols[j]) != list(rng):
                    raise DomainError(f"column {j} is not a permutation")
            if n > ASSOC_VALIDATION_LIMIT:
                raise ResourceLimitError(
                    f"cannot validate associativity for order {n}; "
                    "construct the group from permutation generators instead"
                )
            if not _is_associative(table):
                raise DomainError("Cayley table is not associative")
        self.table = table
        self.order = n

    @classmethod
    def cyclic(cls, n):
        if strict_int(n, "cyclic group order") < 1:
            raise DomainError("cyclic group order must be positive")
        return cls([[(i + j) % n for j in range(n)] for i in range(n)], _trusted=True)

    @classmethod
    def from_permutations(cls, perms):
        """Close a set of permutations (tuples of images) into a group."""
        perms = strict_int_rows([tuple(p) for p in perms], "permutation images")
        if not perms:
            raise DomainError("need at least one generator")
        deg = len(perms[0])
        for p in perms:
            if len(p) != deg or sorted(p) != list(range(deg)):
                raise DomainError(f"{p} is not a permutation of 0..{deg - 1}")
        ident = tuple(range(deg))
        index = {ident: 0}
        elems = [ident]
        queue = deque([ident])
        while queue:
            w = queue.popleft()
            for g in perms:
                prod = tuple(g[w[i]] for i in range(deg))
                if prod not in index:
                    if len(elems) >= PERMUTATION_CLOSURE_LIMIT:
                        raise ResourceLimitError(
                            f"group closure exceeded {PERMUTATION_CLOSURE_LIMIT} elements"
                        )
                    index[prod] = len(elems)
                    elems.append(prod)
                    queue.append(prod)
        table = [
            [index[tuple(b[a[i]] for i in range(deg))] for b in elems]
            for a in elems
        ]
        return cls(table, _trusted=True)

    @classmethod
    def from_cycles(cls, cycle_strings):
        """Build from generators in cycle notation, e.g. ["(1,2)", "(1,2,3,4)"]."""
        raw = [_parse_cycles(s) for s in cycle_strings]
        deg = max((max(c) for cycles in raw for c in cycles if c), default=0)
        perms = []
        for cycles in raw:
            p = list(range(deg))
            for cyc in cycles:
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    p[a - 1] = b - 1
            perms.append(tuple(p))
        return cls.from_permutations(perms)

    def element_order(self, i) -> int:
        x = i
        o = 1
        while x != 0:
            x = self.table[x][i]
            o += 1
        return o

    def element_orders(self):
        return tuple(self.element_order(i) for i in range(self.order))


def _generators(table):
    """Greedy generating set: each new generator is the first element not
    yet reached from the identity by right multiplication with earlier ones."""
    n = len(table)
    seen = [False] * n
    seen[0] = True
    reached = [0]
    gens = []
    for g in range(1, n):
        if seen[g]:
            continue
        gens.append(g)
        stack = [row[g] for row in map(table.__getitem__, reached)]
        while stack:
            x = stack.pop()
            if not seen[x]:
                seen[x] = True
                reached.append(x)
                stack.extend(table[x][s] for s in gens)
    return gens


def _is_associative(table):
    """Light's associativity test for a Latin square with identity 0.

    The elements s with (xs)y = x(sy) for all x, y are closed under
    multiplication, so it suffices to check s over a set that reaches every
    element by products: |S| n row comparisons instead of n^3 products.
    """
    for s in _generators(table):
        # times_s(row of x) is the row of x(s y); there are n >= 2 items
        # whenever s exists, so itemgetter returns a tuple
        times_s = itemgetter(*table[s])
        for row_x in table:
            if table[row_x[s]] != times_s(row_x):
                return False
    return True


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(s):
    stripped = re.sub(r"\s+", "", s)
    if not stripped:
        raise DomainError("empty cycle string")
    if not re.fullmatch(r"(\([^()]*\))+", stripped):
        raise DomainError(f"cannot parse cycle notation {s!r}")
    cycles = []
    seen = set()
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            continue
        try:
            pts = [int(x) for x in body.split(",")]
        except ValueError:
            raise DomainError(f"cannot parse cycle notation {s!r}") from None
        if any(p < 1 for p in pts) or len(set(pts)) != len(pts):
            raise DomainError(f"bad cycle {body!r}")
        if seen & set(pts):
            raise DomainError(f"cycles in {s!r} are not disjoint")
        seen |= set(pts)
        cycles.append(pts)
    return cycles


def order_census(g: FiniteGroup) -> dict:
    """Count of elements by order, for orders >= 2.

    Any element of order above 8 makes the group inadmissible for a
    symplectic action, so that is an error rather than a census entry.
    """
    census = {}
    for o in g.element_orders()[1:]:
        if o > 8:
            raise DomainError(
                f"element of order {o} found: not symplectic-admissible "
                "(element orders must be at most 8)"
            )
        census[o] = census.get(o, 0) + 1
    return dict(sorted(census.items()))


# -- degree-3 integral cohomology oracle ---------------------------------


def _boundary(table, deg):
    """Sparse columns of the normalized bar boundary C_deg -> C_(deg-1).

    With trivial coefficients [g_1|..|g_deg] maps to [g_2|..|g_deg]
    - [g_1 g_2|..] + ... + (-1)^deg [g_1|..|g_(deg-1)].  A cell with an
    identity entry is zero in the normalized complex, so cells are tuples
    of the elements 1..n-1, and cell (g_1..g_k) has index
    sum (g_i - 1) (n-1)^(k-i).  Colliding terms accumulate; cancelled ones
    are dropped.
    """
    k = len(table) - 1
    cols = []
    for cell in itertools.product(range(1, k + 1), repeat=deg):
        col = {}
        for i in range(deg + 1):
            if i == 0:
                face = cell[1:]
            elif i == deg:
                face = cell[:-1]
            else:
                prod = table[cell[i - 1]][cell[i]]
                if prod == 0:
                    continue
                face = cell[:i - 1] + (prod,) + cell[i + 1:]
            idx = 0
            for x in face:
                idx = idx * k + x - 1
            col[idx] = col.get(idx, 0) + (-1 if i % 2 else 1)
        cols.append({r: v for r, v in col.items() if v})
    return cols


def _eliminate_units(vectors, m):
    """Gauss-Jordan elimination mod m on unit pivots.

    Returns ``(pivots, rest)``.  ``pivots`` maps a column c to a sparse
    row with entry 1 at c and 0 at every other pivot column.  ``rest``
    holds the remaining nonzero rows; they vanish on the pivot columns
    and none of their entries is a unit mod m.  Entries are kept reduced
    mod m, which only adds multiples of the m*e_i; scaling a row by a unit
    mod m is undone by its inverse up to such multiples, and the other
    steps are unimodular, so span(pivots, rest) + m*Z^N = span(vectors) +
    m*Z^N.
    For a prime m every nonzero entry is a unit: ``rest`` is empty and
    len(pivots) is the rank over F_m.
    """
    pivots = {}
    pending = vectors
    while True:
        rest = []
        added = False
        for vec in pending:
            row = {c: v % m for c, v in vec.items() if v % m}
            for c in [c for c in row if c in pivots]:
                v = row.pop(c)
                for j, w in pivots[c].items():
                    if j != c:
                        nv = (row.get(j, 0) - v * w) % m
                        if nv:
                            row[j] = nv
                        else:
                            row.pop(j, None)
            c = next((c for c, v in row.items() if gcd(v, m) == 1), None)
            if c is None:
                if row:
                    rest.append(row)
                continue
            u = pow(row[c], -1, m)
            if u != 1:
                row = {j: v * u % m for j, v in row.items()}
            for prow in pivots.values():
                f = prow.pop(c, 0)
                if f:
                    for j, w in row.items():
                        if j != c:
                            nv = (prow.get(j, 0) - f * w) % m
                            if nv:
                                prow[j] = nv
                            else:
                                prow.pop(j, None)
            pivots[c] = row
            added = True
        # A row set aside before a later pivot appeared may now reduce to
        # a unit entry: go round again until a pass adds no pivot.
        if not (added and rest):
            return pivots, rest
        pending = rest


def _primitive(row):
    """A sparse integer row divided by the gcd of its entries."""
    c = 0
    for v in row.values():
        c = gcd(c, v)
        if c == 1:
            return row
    return {j: v // c for j, v in row.items()}


def _rank_exact_sparse(rows):
    """Exact rank over Q of a sparse row list; fallback certificate path.

    Fraction-free elimination on the leading column, with every row kept
    primitive, which holds the coefficient growth down.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = _primitive(row)
                break
            g = gcd(prow[c], row[c])
            a, b = prow[c] // g, row[c] // g
            new = {}
            for j in prow.keys() | row.keys():
                v = a * row.get(j, 0) - b * prow.get(j, 0)
                if v:
                    new[j] = v
            row = _primitive(new)
    return len(pivots)


def h3_bar_resolution(g: FiniteGroup, cap: int = H3_DEFAULT_CAP) -> tuple:
    """Invariant factors (> 1) of H^3(G, Z), computed as H_2(G, Z).

    For finite G, H^3(G, Z) = Ext(H_2(G, Z), Z) = H_2(G, Z) by universal
    coefficients, and H_2 = ker d2 / im d3 in the normalized bar complex,
    where d3 is (n-1)^2 x (n-1)^3.  Since ker d2 is saturated and holds
    im d3, the torsion of coker d3 is the torsion of H_2; when the free
    rank is zero it is all of H_2.

    The invariant factors are read off im d3 + m*Z^((n-1)^2) with
    m = |G|^2, so no coefficient grows past m.  Modulo m a torsion factor
    d of coker d3 stays gcd(d, m) and a zero factor becomes m.  |G|
    annihilates H_2, so every torsion factor divides |G| < m; with m = |G|
    a factor equal to |G| would be indistinguishable from a zero one.
    Unit pivots are eliminated mod m first; a dense Smith form finishes
    the rows and columns they leave.

    The free rank is certified zero by rank_q d2 + rank_q d3 = (n-1)^2 for
    a prime q (rank over F_q never exceeds the rational rank, and
    d2 d3 = 0 caps the rational sum at (n-1)^2), with exact sparse ranks
    as the fallback.  The count of factors below m must then equal
    rank d3.
    """
    if type(cap) is not int:
        strict_int(cap, "cohomology cap")
    n = g.order
    if n > cap:
        raise ResourceLimitError(
            f"group order {n} exceeds the degree-3 cohomology cap {cap}; "
            "supply h3_order as record data instead"
        )
    if n == 1:
        return ()
    d2 = _boundary(g.table, 2)
    d3 = _boundary(g.table, 3)
    for col in d3:
        acc = {}
        for mid, v in col.items():
            for r, w in d2[mid].items():
                acc[r] = acc.get(r, 0) + v * w
        if any(acc.values()):
            raise InconsistentDataError("d2 composed with d3 is nonzero")
    size = (n - 1) ** 2
    for q in _RANK_PRIMES:
        r2 = len(_eliminate_units(d2, q)[0])
        r3 = len(_eliminate_units(d3, q)[0])
        if r2 + r3 > size:
            raise InconsistentDataError("rank of d3 exceeds its kernel bound")
        if r2 + r3 == size:
            break
    else:
        r2 = _rank_exact_sparse(d2)
        r3 = _rank_exact_sparse(d3)
        if r2 + r3 != size:
            raise InconsistentDataError(
                "degree-2 homology has positive free rank; not a finite group table"
            )
    m = n * n
    pivots, rest = _eliminate_units(d3, m)
    # rows in ``rest`` vanish on the pivot columns; each pivot row adds a
    # factor 1 and removes its column
    free = [j for j in range(size) if j not in pivots]
    rows = [[row.get(j, 0) for j in free] for row in rest]
    rows += [[m if i == j else 0 for j in range(len(free))] for i in range(len(free))]
    factors = invariant_factors(IntMatrix(rows))
    if len(pivots) + sum(1 for f in factors if f < m) != r3:
        raise InconsistentDataError(
            "modular Smith form of d3 disagrees with its certified rank"
        )
    return tuple(f for f in factors if 1 < f < m)
