"""Finite quadratic forms on finite abelian groups.

A form lives on A = Z/d_1 + ... + Z/d_k and takes values in Q/2Z, with
the associated bilinear form b in Q/Z.  All values are exact reduced
rationals; equality mod 2Z / mod 1 is Fraction equality after
normalization, so there is no rounding ambiguity anywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import (
    DegenerateLatticeError,
    DomainError,
    InconsistentDataError,
    ResourceLimitError,
)
from .intmat import (
    IntMatrix,
    column_space_basis,
    factorize,
    kernel_basis,
    smith_normal_form,
    solve_exact,
    strict_int,
)

# Subgroup and fingerprint searches materialize group elements; beyond this
# many elements per primary part they refuse instead of thrashing.
MATERIALIZE_LIMIT = 10_000

# Default cap on backtracking nodes per primary part in isomorphism and
# subgroup searches.
SEARCH_NODE_BUDGET = 10**6


def _mod2(x) -> Fraction:
    x = Fraction(x)
    return x - 2 * (x / 2).__floor__()


def _mod1(x) -> Fraction:
    x = Fraction(x)
    return x - x.__floor__()


class FiniteQuadraticForm:
    """Quadratic form q: A -> Q/2Z on generators of a finite abelian group.

    ``orders`` lists the cyclic factor orders (each > 1), ``q`` the form
    values on the generators, and ``b`` the full symmetric matrix of
    bilinear values.  Elements are coefficient tuples over the generators.
    """

    __slots__ = ("orders", "q", "b")

    def __init__(self, orders, q_values, b_matrix):
        orders = tuple(orders)
        if not all(type(d) is int for d in orders):
            for i, d in enumerate(orders):
                strict_int(d, f"order {i} of a finite quadratic form")
        if any(d < 2 for d in orders):
            raise DomainError("cyclic factor orders must all exceed 1")
        k = len(orders)
        q = tuple(_mod2(x) for x in q_values)
        b = tuple(tuple(_mod1(x) for x in row) for row in b_matrix)
        if len(q) != k or len(b) != k or any(len(row) != k for row in b):
            raise DomainError("generator data sizes disagree")
        for i, d in enumerate(orders):
            if (2 * d) % q[i].denominator != 0:
                raise DomainError(
                    f"q value {q[i]} too fine for a generator of order {d}"
                )
            if _mod2(d * d * q[i]) != 0:
                raise DomainError(
                    f"q value {q[i]} is not well defined on Z/{d}"
                )
            if _mod1(b[i][i] - q[i]) != 0:
                raise DomainError("diagonal of b must agree with q mod 1")
            for j in range(k):
                if b[i][j] != b[j][i]:
                    raise DomainError("b must be symmetric")
                if _mod1(gcd(d, orders[j]) * b[i][j]) != 0:
                    raise DomainError(
                        f"b value {b[i][j]} too fine for orders {d}, {orders[j]}"
                    )
        self.orders = orders
        self.q = q
        self.b = b

    # -- basic group plumbing -------------------------------------------

    @property
    def group_order(self) -> int:
        return prod(self.orders)

    @property
    def zero(self) -> tuple:
        return (0,) * len(self.orders)

    def reduce(self, x) -> tuple:
        return tuple(int(a) % d for a, d in zip(x, self.orders))

    def add(self, x, y) -> tuple:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x) -> tuple:
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def order_of(self, x) -> int:
        return lcm(1, *(d // gcd(d, a) for a, d in zip(x, self.orders)))

    def elements(self):
        if self.group_order > MATERIALIZE_LIMIT:
            raise ResourceLimitError(
                f"group of order {self.group_order} exceeds the "
                f"materialization limit {MATERIALIZE_LIMIT}"
            )
        return list(itertools.product(*(range(d) for d in self.orders)))

    # -- form evaluation -------------------------------------------------

    def q_of(self, x) -> Fraction:
        """q(sum x_i g_i) mod 2."""
        total = Fraction(0)
        for i, a in enumerate(x):
            if a:
                total += a * a * self.q[i]
        for i, j in itertools.combinations(range(len(x)), 2):
            if x[i] and x[j]:
                total += 2 * x[i] * x[j] * self.b[i][j]
        return _mod2(total)

    def b_of(self, x, y) -> Fraction:
        total = Fraction(0)
        for i, a in enumerate(x):
            if a:
                for j, c in enumerate(y):
                    if c:
                        total += a * c * self.b[i][j]
        return _mod1(total)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuadraticForm)
            and self.orders == other.orders
            and self.q == other.q
            and self.b == other.b
        )

    def __repr__(self):
        qs = ",".join(str(x) for x in self.q)
        return f"FiniteQuadraticForm(orders={self.orders}, q=({qs}))"

    def to_json_dict(self):
        return {
            "factors": list(self.orders),
            "q": [f"{x.numerator}/{x.denominator}" for x in self.q],
        }


TRIVIAL_FORM = FiniteQuadraticForm((), (), ())


def disc_form(l) -> FiniteQuadraticForm:
    """Discriminant form of an even nonsingular lattice.

    With u G v = D (Smith form of the Gram matrix G), the generators are
    x_j = v e_j / d_j for d_j > 1, and the values are read off v^T G v over
    the Smith diagonal: b_ij = (v^T G v)_ij / (d_i d_j), q_i = b_ii mod 2.
    """
    if not l.even:
        raise DomainError("discriminant forms need an even lattice")
    n = l.rank
    if n == 0:
        return TRIVIAL_FORM
    if l.det == 0:
        raise DegenerateLatticeError("lattice is degenerate")
    sf = smith_normal_form(l.gram)
    keep = [j for j, d in enumerate(sf.d) if d > 1]
    orders = [sf.d[j] for j in keep]
    cols = [[row[j] for row in sf.v.rows] for j in keep]
    gcols = [[sum(g * c for g, c in zip(grow, col)) for grow in l.gram.rows]
             for col in cols]
    # G x_j must be integral, i.e. x_j lies in the dual lattice; this
    # certifies the Smith transform the whole construction rests on.
    for j, d, gcol in zip(keep, orders, gcols):
        if any(x % d for x in gcol):
            raise InconsistentDataError(
                f"discriminant generator {j} is not in the dual lattice"
            )
    b = [[Fraction(sum(a * c for a, c in zip(col, gcol)), di * dj)
          for gcol, dj in zip(gcols, orders)] for col, di in zip(cols, orders)]
    return FiniteQuadraticForm(orders, [b[i][i] for i in range(len(keep))], b)


def negate(q: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """Same group with all form values negated."""
    return FiniteQuadraticForm(
        q.orders,
        [-x for x in q.q],
        [[-x for x in row] for row in q.b],
    )


def orthogonal_sum(forms) -> FiniteQuadraticForm:
    """Block sum of finitely many forms; the empty sum is trivial."""
    forms = list(forms)
    orders = []
    qvals = []
    for f in forms:
        orders.extend(f.orders)
        qvals.extend(f.q)
    k = len(orders)
    b = [[Fraction(0)] * k for _ in range(k)]
    off = 0
    for f in forms:
        m = len(f.orders)
        for i in range(m):
            for j in range(m):
                b[off + i][off + j] = f.b[i][j]
        off += m
    return FiniteQuadraticForm(orders, qvals, b)


def _primary_embeddings(q: FiniteQuadraticForm):
    """Per prime: (part form, ambient coefficient vector of each part generator)."""
    factored = [factorize(d) for d in q.orders]
    out = {}
    for p in sorted({p for f in factored for p in f}):
        # (ambient index, multiplier, p-power order)
        gens = [(i, d // p**f[p], p**f[p])
                for i, (d, f) in enumerate(zip(q.orders, factored)) if p in f]
        orders = [pe for (_, _, pe) in gens]
        qv = []
        b = [[Fraction(0)] * len(gens) for _ in range(len(gens))]
        vectors = []
        for a, (i, c, _pe) in enumerate(gens):
            vec = [0] * len(q.orders)
            vec[i] = c
            vectors.append(tuple(vec))
            qv.append(q.q_of(vec))
            for t, (j, c2, _pe2) in enumerate(gens):
                vec2 = [0] * len(q.orders)
                vec2[j] = c2
                b[a][t] = q.b_of(vec, vec2)
        out[p] = (FiniteQuadraticForm(orders, qv, b), vectors)
    return out


def p_primary_parts(q: FiniteQuadraticForm) -> dict:
    """Orthogonal splitting of the form by primes dividing the group order."""
    return {p: part for p, (part, _) in _primary_embeddings(q).items()}


def element_fingerprint(q: FiniteQuadraticForm):
    """Sorted multiset of (element order, q value) over the whole group."""
    items = sorted((q.order_of(x), q.q_of(x)) for x in q.elements())
    return tuple(items)


def _generated_subgroup_size(part: FiniteQuadraticForm, images) -> int:
    seen = {part.zero}
    for g in images:
        new = set(seen)
        step = part.reduce(g)
        cur = step
        while cur != part.zero:
            new |= {part.add(x, cur) for x in seen}
            cur = part.add(cur, step)
        seen = new
    return len(seen)


def _parts_isomorphic(p1, p2, budget) -> bool:
    if sorted(p1.orders) != sorted(p2.orders):
        return False
    if element_fingerprint(p1) != element_fingerprint(p2):
        return False
    elems = p2.elements()
    by_profile = {}
    for y in elems:
        by_profile.setdefault((p2.order_of(y), p2.q_of(y)), []).append(y)
    gens = sorted(range(len(p1.orders)), key=lambda i: -p1.orders[i])
    unit = [tuple(int(i == t) for t in range(len(p1.orders))) for i in range(len(p1.orders))]
    nodes = 0

    def place(idx, images):
        nonlocal nodes
        if idx == len(gens):
            return _generated_subgroup_size(p2, images) == p2.group_order
        i = gens[idx]
        profile = (p1.orders[i], p1.q[i])
        for y in by_profile.get(profile, ()):
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError(
                    f"isomorphism search exceeded {budget} nodes"
                )
            ok = all(
                p2.b_of(y, images[t]) == p1.b_of(unit[i], unit[gens[t]])
                for t in range(idx)
            )
            if ok and place(idx + 1, images + [y]):
                return True
        return False

    return place(0, [])


def are_isomorphic(q1: FiniteQuadraticForm, q2: FiniteQuadraticForm,
                   node_budget: int = SEARCH_NODE_BUDGET) -> bool:
    """Decide whether a group isomorphism carrying q1 to q2 exists.

    Works one primary part at a time: a fingerprint filter first, then
    backtracking over generator images.
    """
    parts1 = p_primary_parts(q1)
    parts2 = p_primary_parts(q2)
    if set(parts1) != set(parts2):
        return False
    return all(_parts_isomorphic(parts1[p], parts2[p], node_budget) for p in parts1)


def _isotropic_subgroups_of_part(part: FiniteQuadraticForm, order: int, budget: int):
    """All subgroups of the given order with q identically 0 on them."""
    zero = part.zero
    if order == 1:
        return [frozenset({zero})]
    elems = part.elements()
    iso = [x for x in elems if x != zero and part.q_of(x) == 0]
    results = set()
    seen = set()
    start = frozenset({zero})
    stack = [start]
    seen.add(start)
    nodes = 0
    while stack:
        sub = stack.pop()
        for x in iso:
            if x in sub:
                continue
            if any(part.b_of(x, h) != 0 for h in sub):
                continue
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError(
                    f"subgroup search exceeded {budget} nodes"
                )
            new = set(sub)
            cur = x
            while cur != zero:
                new |= {part.add(h, cur) for h in sub}
                cur = part.add(cur, x)
            size = len(new)
            if size > order or order % size:
                continue
            key = frozenset(new)
            if key in seen:
                continue
            seen.add(key)
            if size == order:
                results.add(key)
            else:
                stack.append(key)
    return sorted(results, key=lambda s: sorted(s))


def isotropic_subgroups(q: FiniteQuadraticForm, order: int,
                        node_budget: int = SEARCH_NODE_BUDGET) -> list:
    """All subgroups of the given order on which q vanishes identically.

    On such a subgroup b vanishes as well (polarization), which the
    search uses for pruning.  A subgroup splits into its primary parts,
    so enumeration runs per prime and only the relevant part is ever
    materialized.
    """
    if order <= 0 or q.group_order % order:
        raise DomainError(
            f"subgroup order {order} does not divide the group order {q.group_order}"
        )
    if order == 1:
        return [frozenset({q.zero})]
    embeddings = _primary_embeddings(q)
    per_prime = []
    for p, e in factorize(order).items():
        part, vectors = embeddings[p]
        subs = _isotropic_subgroups_of_part(part, p**e, node_budget)
        if not subs:
            return []
        ambient_subs = []
        for sub in subs:
            amb = set()
            for x in sub:
                vec = [0] * len(q.orders)
                for coeff, gvec in zip(x, vectors):
                    for t, c in enumerate(gvec):
                        vec[t] += coeff * c
                amb.add(q.reduce(vec))
            ambient_subs.append(frozenset(amb))
        per_prime.append(ambient_subs)
    combined = []
    for combo in itertools.product(*per_prime):
        group = {q.zero}
        for sub in combo:
            group = {q.add(a, b) for a in group for b in sub}
        combined.append(frozenset(group))
    return sorted(combined, key=lambda s: sorted(s))


def _subgroup_lifts(q: FiniteQuadraticForm, h) -> list:
    """Validate h as an isotropic subgroup; return its elements reduced."""
    elems = {q.reduce(x) for x in h}
    if q.zero not in elems:
        raise DomainError("subgroup must contain 0")
    for x in elems:
        for y in elems:
            if q.add(x, y) not in elems:
                raise DomainError("given element set is not closed under addition")
    for x in elems:
        if q.q_of(x) != 0:
            raise DomainError(f"subgroup is not isotropic: q{x} = {q.q_of(x)}")
        for y in elems:
            if q.b_of(x, y) != 0:
                raise DomainError("subgroup is not isotropic for b")
    return sorted(elems)


def overlattice_disc(q: FiniteQuadraticForm, h) -> FiniteQuadraticForm:
    """Induced form on h_perp / h for an isotropic subgroup h.

    The quotient is extracted with exact integer linear algebra on lifts,
    so the ambient group is never materialized.
    """
    helems = _subgroup_lifts(q, h)
    k = len(q.orders)
    if len(helems) == 1:
        return FiniteQuadraticForm(q.orders, q.q, q.b)
    nontrivial = [x for x in helems if x != q.zero]
    s = len(nontrivial)
    # Pairing conditions: x in h_perp  iff  sum_i x_i * b(e_i, h_t) in Z.
    beta = [[q.b_of(tuple(int(i == t) for t in range(k)), hv) for hv in nontrivial]
            for i in range(k)]
    denom = lcm(1, *(x.denominator for row in beta for x in row))
    rows = []
    for t in range(s):
        row = [int(beta[i][t] * denom) for i in range(k)]
        row += [denom if t2 == t else 0 for t2 in range(s)]
        rows.append(row)
    kern = kernel_basis(IntMatrix(rows))
    perp_gens = [[vec[i] for vec in kern] for i in range(k)]
    diag = [[q.orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    lam = column_space_basis(IntMatrix([pg + dg for pg, dg in zip(perp_gens, diag)]))
    h_cols = [[x[i] for x in nontrivial] for i in range(k)]
    lam_h = column_space_basis(IntMatrix([hc + dg for hc, dg in zip(h_cols, diag)]))
    x = solve_exact(lam, lam_h)
    if any(val.denominator != 1 for row in x for val in row):
        raise DomainError("subgroup lattice does not sit inside its perp")
    sf = smith_normal_form(IntMatrix([[int(val) for val in row] for row in x]))
    # With u x v = D, lam u^-1 = lam_h v D^-1: the quotient generators are
    # the columns of lam_h v over their Smith entries.
    hv = lam_h.mul(sf.v)
    keep = [j for j, d in enumerate(sf.d) if d > 1]
    orders = [sf.d[j] for j in keep]
    gens = []
    for j, d in zip(keep, orders):
        col = [hv.rows[i][j] for i in range(k)]
        if any(c % d for c in col):
            raise InconsistentDataError(
                f"overlattice generator {j} is not integral over its Smith entry {d}"
            )
        gens.append(tuple(c // d for c in col))
    qv = [q.q_of(g) for g in gens]
    b = [[q.b_of(g1, g2) for g2 in gens] for g1 in gens]
    return FiniteQuadraticForm(orders, qv, b)
