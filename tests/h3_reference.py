"""Test-only reference for H^3(G, Z): the unnormalized bar cochain complex.

H^3 = ker d3 / im d2 on the cochain spaces Z^(n^k).  Its torsion is the
nontrivial invariant factors of d2, because the kernel of an integer
matrix is saturated; its free rank is |G|^3 - rank d2 - rank d3, taken
here from exact sparse ranks.  This is the route the package used before
it switched to H_2 of the normalized bar complex, kept as an independent
check on it.
"""

from k3lat.groups import _rank_exact_sparse
from k3lat.intmat import IntMatrix, invariant_factors


def coboundary_rows(table, deg):
    """Sparse rows of the inhomogeneous bar coboundary C^deg -> C^(deg+1).

    Row (g_1..g_{deg+1}) evaluates f(g_2..) - f(g_1 g_2, ..) + ... with
    alternating signs; colliding terms accumulate.
    """
    n = len(table)
    rows = []
    for flat in range(n ** (deg + 1)):
        tup = []
        x = flat
        for _ in range(deg + 1):
            tup.append(x % n)
            x //= n
        tup.reverse()
        row = {}

        def add(cols, coeff):
            idx = 0
            for c in cols:
                idx = idx * n + c
            row[idx] = row.get(idx, 0) + coeff

        add(tup[1:], 1)
        sign = -1
        for i in range(deg):
            merged = tup[:i] + [table[tup[i]][tup[i + 1]]] + tup[i + 2:]
            add(merged, sign)
            sign = -sign
        add(tup[:-1], sign)
        rows.append({c: v for c, v in row.items() if v})
    return rows


def compose_is_zero(outer, inner):
    """Whether the sparse maps compose to zero: ``outer[i]`` maps into the
    index space of ``inner``, and ``inner[mid]`` is the image of mid."""
    for vec in outer:
        acc = {}
        for mid, coeff in vec.items():
            for col, coeff2 in inner[mid].items():
                acc[col] = acc.get(col, 0) + coeff * coeff2
        if any(acc.values()):
            return False
    return True


def cochain_h3(g):
    """Invariant factors (> 1) of H^3(G, Z) from the bar cochain complex."""
    n = g.order
    d2 = coboundary_rows(g.table, 2)
    d3 = coboundary_rows(g.table, 3)
    if not compose_is_zero(d3, d2):
        raise AssertionError("d3 composed with d2 is nonzero")
    dense = [[0] * (n * n) for _ in range(n ** 3)]
    for i, row in enumerate(d2):
        for c, v in row.items():
            dense[i][c] = v
    factors = invariant_factors(IntMatrix(dense))
    r2 = sum(1 for f in factors if f)
    if r2 + _rank_exact_sparse(d3) != n ** 3:
        raise AssertionError("H^3 has positive free rank")
    return tuple(f for f in factors if f > 1)
