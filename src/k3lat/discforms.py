"""Finite quadratic forms on finite abelian groups.

A form lives on A = Z/d_1 + ... + Z/d_k and takes values in Q/2Z, with
the associated bilinear form b in Q/Z.  Every value has a denominator
dividing the level N = lcm(d_1, ..., d_k), so a form is stored as one
symmetric integer matrix of numerators over N: q on the generators mod 2N
on the diagonal, b mod N off it.  Evaluation is an integer sum reduced
with ``%``; values are returned as exact reduced ``Fraction``s.
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
    block_diagonal,
    column_space_basis,
    factorize,
    smith_normal_form,
    strict_int,
)

# Subgroup and fingerprint searches materialize group elements; beyond this
# many elements per primary part they refuse instead of thrashing.
MATERIALIZE_LIMIT = 10_000

# Cap on backtracking nodes per primary part in isomorphism and subgroup
# searches.  The isomorphism search counts each candidate image it tries
# and each element it re-checks against that image.
SEARCH_NODE_BUDGET = 10**6


class FiniteQuadraticForm:
    """Quadratic form q: A -> Q/2Z on generators of a finite abelian group.

    ``orders`` lists the cyclic factor orders (each > 1).  ``gram`` is one
    symmetric matrix of ints or Fractions: its diagonal holds q on the
    generators (mod 2), the other entries hold b (mod 1).  It is stored as
    integer numerators over ``level = lcm(orders)``, the diagonal reduced
    mod 2 * level and the rest mod level.  Elements are coefficient tuples
    over the generators.
    """

    __slots__ = ("orders", "level", "gram")

    def __init__(self, orders, gram):
        orders = tuple(orders)
        if not all(type(d) is int for d in orders):
            for i, d in enumerate(orders):
                strict_int(d, f"order {i} of a finite quadratic form")
        if any(d < 2 for d in orders):
            raise DomainError("cyclic factor orders must all exceed 1")
        k = len(orders)
        rows = tuple(tuple(row) for row in gram)
        if len(rows) != k or any(len(row) != k for row in rows):
            raise DomainError(f"a form on {k} generators needs a {k}x{k} matrix")
        level = lcm(1, *orders)
        nums = []
        for i, (row, d) in enumerate(zip(rows, orders)):
            nrow = []
            for j, (x, dj) in enumerate(zip(row, orders)):
                if type(x) is not int and type(x) is not Fraction:
                    raise DomainError(
                        f"form entry [{i}][{j}] must be an int or a Fraction, got {x!r}"
                    )
                # b_ij is defined mod 1 on Z/d_i x Z/d_j; on the diagonal
                # this gives d_i q_i in Z as well.  The denominator then
                # divides the level.
                num, den = x.numerator, x.denominator
                if gcd(d, dj) * num % den:
                    raise DomainError(
                        f"form entry [{i}][{j}] = {x} too fine for orders {d}, {dj}"
                    )
                nrow.append(num * (level // den) % (2 * level if i == j else level))
            nums.append(tuple(nrow))
            if nrow[i] * d * d % (2 * level):
                raise DomainError(
                    f"q value {rows[i][i]} is not well defined on Z/{d}"
                )
        for i, j in itertools.combinations(range(k), 2):
            if nums[i][j] != nums[j][i]:
                raise DomainError(f"form entries [{i}][{j}] and [{j}][{i}] differ mod 1")
        self.orders = orders
        self.level = level
        self.gram = tuple(nums)

    # -- basic group plumbing -------------------------------------------

    @property
    def group_order(self) -> int:
        return prod(self.orders)

    @property
    def zero(self) -> tuple:
        return (0,) * len(self.orders)

    def _check(self, x):
        """Refuse x unless it is a tuple or list of ints, one per generator."""
        if (type(x) is not tuple and type(x) is not list
                or len(x) != len(self.orders) or not all(type(a) is int for a in x)):
            raise DomainError(
                f"{x!r} is not an element of the group with orders {self.orders}"
            )

    def reduce(self, x) -> tuple:
        self._check(x)
        return tuple(a % d for a, d in zip(x, self.orders))

    def add(self, x, y) -> tuple:
        self._check(x)
        self._check(y)
        return self._add(x, y)

    def _add(self, x, y) -> tuple:
        """``add`` without the element check, for loops over known elements."""
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x) -> tuple:
        self._check(x)
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def order_of(self, x) -> int:
        self._check(x)
        return lcm(1, *(d // gcd(d, a) for a, d in zip(x, self.orders)))

    def elements(self):
        if self.group_order > MATERIALIZE_LIMIT:
            raise ResourceLimitError(
                f"group of order {self.group_order} exceeds the "
                f"materialization limit {MATERIALIZE_LIMIT}"
            )
        return list(itertools.product(*(range(d) for d in self.orders)))

    # -- form evaluation -------------------------------------------------

    def _pairing(self, x, y) -> int:
        """level * b(x, y), unreduced; for x = y it is level * q(x) mod 2 level."""
        return sum(a * c * g
                   for a, row in zip(x, self.gram) if a
                   for c, g in zip(y, row) if c)

    def q_of(self, x) -> Fraction:
        """q(sum x_i g_i) mod 2."""
        self._check(x)
        return Fraction(self._pairing(x, x) % (2 * self.level), self.level)

    def b_of(self, x, y) -> Fraction:
        self._check(x)
        self._check(y)
        return Fraction(self._pairing(x, y) % self.level, self.level)

    def _generator_q(self) -> list:
        return [Fraction(row[i], self.level) for i, row in enumerate(self.gram)]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuadraticForm)
            and self.orders == other.orders
            and self.gram == other.gram
        )

    def __repr__(self):
        qs = ",".join(str(x) for x in self._generator_q())
        return f"FiniteQuadraticForm(orders={self.orders}, q=({qs}))"

    def to_json_dict(self):
        return {
            "factors": list(self.orders),
            "q": [f"{x.numerator}/{x.denominator}" for x in self._generator_q()],
        }


TRIVIAL_FORM = FiniteQuadraticForm((), ())


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
    sf = smith_normal_form(l.gram)
    if 0 in sf.d:
        raise DegenerateLatticeError("lattice is degenerate")
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
    return FiniteQuadraticForm(orders, [
        [Fraction(sum(a * c for a, c in zip(col, gcol)), di * dj)
         for gcol, dj in zip(gcols, orders)] for col, di in zip(cols, orders)])


def negate(q: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """Same group with all form values negated."""
    return FiniteQuadraticForm(
        q.orders, [[Fraction(-x, q.level) for x in row] for row in q.gram])


def orthogonal_sum(forms) -> FiniteQuadraticForm:
    """Block sum of finitely many forms; the empty sum is trivial."""
    forms = list(forms)
    return FiniteQuadraticForm(
        [d for f in forms for d in f.orders],
        block_diagonal([[Fraction(x, f.level) for x in row] for row in f.gram] for f in forms),
    )


def _primary_embeddings(q: FiniteQuadraticForm):
    """Per prime: (part form, ambient coefficient vector of each part generator)."""
    factored = [factorize(d) for d in q.orders]
    out = {}
    for p in sorted({p for f in factored for p in f}):
        # (ambient index, multiplier, p-power order)
        gens = [(i, d // p**f[p], p**f[p])
                for i, (d, f) in enumerate(zip(q.orders, factored)) if p in f]
        vectors = []
        for i, c, _ in gens:
            vec = [0] * len(q.orders)
            vec[i] = c
            vectors.append(tuple(vec))
        # the constructor reduces the diagonal (q) mod 2 and the rest (b) mod 1
        gram = [[Fraction(q._pairing(x, y), q.level) for y in vectors] for x in vectors]
        out[p] = (FiniteQuadraticForm([pe for (_, _, pe) in gens], gram), vectors)
    return out


def p_primary_parts(q: FiniteQuadraticForm) -> dict:
    """Orthogonal splitting of the form by primes dividing the group order."""
    return {p: part for p, (part, _) in _primary_embeddings(q).items()}


def element_fingerprint(q: FiniteQuadraticForm):
    """Sorted multiset of (element order, q value) over the whole group."""
    items = sorted((q.order_of(x), q.q_of(x)) for x in q.elements())
    return tuple(items)


def _parts_isomorphic(p1, p2) -> bool:
    """Backtracking over generator images, for two p-primary forms."""
    if sorted(p1.orders) != sorted(p2.orders):
        return False
    if element_fingerprint(p1) != element_fingerprint(p2):
        return False
    level = p1.level  # equal orders, equal levels
    (p,) = factorize(level)
    by_profile = {}
    socle_of = {}  # y -> its multiple of order p
    for y in p2.elements():
        d = p2.order_of(y)
        by_profile.setdefault((d, p2._pairing(y, y) % (2 * level)), []).append(y)
        socle_of[y] = tuple(d // p * a % o for a, o in zip(y, p2.orders))
    nodes = 0

    def place(domains, socle):
        """Map one more generator of p1.

        ``socle`` is the p-torsion of the subgroup the images so far
        generate.  ``domains`` holds, per generator still unmapped, the
        elements of p2 with its order and q value that pair with every
        image as it pairs with that image's generator, and whose order-p
        multiple is not in ``socle``: in a p-group that is the condition
        for the sum of the images to stay direct, as it must.
        """
        nonlocal nodes
        if not domains:
            # the images have the generators' orders, q values and pairings,
            # and span a direct sum of the same orders: all of p2
            return True
        # Largest order first: a small-order image placed early can leave
        # the larger generators no direct room, a dead end found only late.
        i = min(domains, key=lambda t: (-p1.orders[t], len(domains[t])))
        for y in domains[i]:
            nodes += 1
            if nodes > SEARCH_NODE_BUDGET:
                raise ResourceLimitError(
                    f"isomorphism search exceeded SEARCH_NODE_BUDGET = "
                    f"{SEARCH_NODE_BUDGET} nodes"
                )
            w = socle_of[y]
            step = [p2.zero]
            while len(step) < p:
                step.append(p2._add(step[-1], w))
            grown = {p2._add(x, s) for x in socle for s in step}
            # row[t] = level * b(y, e_t) in p2
            row = [sum(a * g for a, g in zip(y, grow)) for grow in p2.gram]
            rest = {}
            for t, dom in domains.items():
                if t == i:
                    continue
                want = p1.gram[i][t] % level
                nodes += len(dom)
                dom = [z for z in dom if socle_of[z] not in grown
                       and sum(c * r for c, r in zip(z, row)) % level == want]
                if not dom:
                    break
                rest[t] = dom
            else:
                if place(rest, grown):
                    return True
        return False

    def domain(i, d):
        # p2's own unit vector e_i first: for two forms in one basis the
        # identity map is then found without backtracking
        e_i = tuple(int(t == i) for t in range(len(p2.orders)))
        return sorted(by_profile.get((d, p1.gram[i][i]), []), key=lambda y: y != e_i)

    return place({i: domain(i, d) for i, d in enumerate(p1.orders)}, {p2.zero})


def are_isomorphic(q1: FiniteQuadraticForm, q2: FiniteQuadraticForm) -> bool:
    """Decide whether a group isomorphism carrying q1 to q2 exists.

    Works one primary part at a time: a fingerprint filter first, then
    backtracking over generator images.
    """
    parts1 = p_primary_parts(q1)
    parts2 = p_primary_parts(q2)
    if set(parts1) != set(parts2):
        return False
    return all(_parts_isomorphic(parts1[p], parts2[p]) for p in parts1)


def _isotropic_subgroups_of_part(part: FiniteQuadraticForm, order: int):
    """All subgroups of the given order with q identically 0 on them.

    Every such subgroup of a p-group is reached from {0} by steps of index
    p.  A step adds an isotropic x with p x already in the subgroup and
    b(x, g) = 0 for each generator g added so far; b is bilinear, so x is
    then orthogonal to the whole subgroup.  Every element that a step adds
    gives that same step, so none of them is tried again from there.
    """
    zero = part.zero
    if order == 1:
        return [frozenset({zero})]
    (p,) = factorize(order)
    level = part.level
    two_level = 2 * level
    orders, gram = part.orders, part.gram
    elems = part.elements()
    # level * q(x) in the order of elems, one coordinate at a time:
    # q(y + a e_i) = q(y) + 2 a b(y, e_i) + a^2 q(e_i).  A prefix y carries
    # level * q(y) and its row level * b(y, e_j) over all j.
    prefixes = [(0, zero)]
    for i, d in enumerate(orders[:-1]):
        grow, gii = gram[i], gram[i][i]
        prefixes = [(v + (2 * row[i] + a * gii) * a, tuple(r + a * g for r, g in zip(row, grow)))
                    for v, row in prefixes for a in range(d)]
    dk, gkk = orders[-1], gram[-1][-1]
    values = [v + (2 * row[-1] + a * gkk) * a for v, row in prefixes for a in range(dk)]
    # (x, p x, level * b(x, e_i) over the generators e_i) per isotropic x != 0
    iso = [(x, tuple(p * a % d for a, d in zip(x, orders)),
            tuple(sum(a * g for a, g in zip(x, grow)) for grow in gram))
           for x, v in zip(elems[1:], values[1:]) if v % two_level == 0]
    start = frozenset({zero})
    seen = {start}
    results = []
    stack = [(start, ())]
    nodes = 0
    while stack:
        sub, gens = stack.pop()
        tried = set(sub)
        for x, px, row in iso:
            if x in tried or px not in sub:
                continue
            if any(sum(a * r for a, r in zip(g, row)) % level for g in gens):
                continue
            nodes += 1
            if nodes > SEARCH_NODE_BUDGET:
                raise ResourceLimitError(
                    f"subgroup search exceeded SEARCH_NODE_BUDGET = "
                    f"{SEARCH_NODE_BUDGET} nodes"
                )
            new = set(sub)
            coset = sub
            for _ in range(p - 1):
                coset = [part._add(h, x) for h in coset]
                new.update(coset)
            tried |= new
            key = frozenset(new)
            if key in seen:
                continue
            seen.add(key)
            if len(key) == order:
                results.append(key)
            else:
                stack.append((key, gens + (x,)))
    return sorted(results, key=lambda s: sorted(s))


def isotropic_subgroups(q: FiniteQuadraticForm, order: int) -> list:
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
        subs = _isotropic_subgroups_of_part(part, p**e)
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
            group = {q._add(a, b) for a in group for b in sub}
        combined.append(frozenset(group))
    return sorted(combined, key=lambda s: sorted(s))


def _subgroup_lifts(q: FiniteQuadraticForm, h) -> list:
    """Validate h as an isotropic subgroup; return its elements reduced."""
    k = len(q.orders)
    elems = set()
    for x in h:
        if not isinstance(x, tuple) or len(x) != k:
            raise DomainError(f"subgroup element {x!r} must be a tuple of {k} integers")
        if not all(type(a) is int for a in x):
            for i, a in enumerate(x):
                strict_int(a, f"coordinate {i} of subgroup element {x!r}")
        elems.add(q.reduce(x))
    if q.zero not in elems:
        raise DomainError("subgroup must contain 0")
    for x, y in itertools.combinations_with_replacement(elems, 2):
        if q._add(x, y) not in elems:
            raise DomainError("given element set is not closed under addition")
    # b vanishes on a closed set on which q does, since
    # 2 b(x, y) = q(x + y) - q(x) - q(y) mod 2.
    two_level = 2 * q.level
    for x in elems:
        if q._pairing(x, x) % two_level:
            raise DomainError(f"subgroup is not isotropic: q{x} = {q.q_of(x)}")
    return sorted(elems)


def overlattice_disc(q: FiniteQuadraticForm, h) -> FiniteQuadraticForm:
    """Induced form on h_perp / h for an isotropic subgroup h.

    Work in the coefficient lattice Z^k, which maps onto the group.  An
    x in Z^k lies over h_perp iff B x = 0 mod level, where row t of B is
    level * b(e_i, h_t) mod level over the nontrivial h_t.  Let N be the
    lattice spanned by the rows of B and by level * Z^k, with square
    basis W; then the preimage of h_perp is L_perp = level * N^#, whose
    basis level * W^-T gives z the coordinates W^T z / level.  The
    preimage of h is spanned by the columns of H = [h | diag(orders)],
    so Y = W^T H / level must be integral.  With u Y v = [D 0], the
    columns of H v are [L_perp u^-1 D | 0]: the quotient generators are
    the columns of H v over their Smith entries d_j > 1.  Two integer
    Smith forms; the group is never materialized.
    """
    helems = _subgroup_lifts(q, h)
    k = len(q.orders)
    if len(helems) == 1:
        return q
    nontrivial = [x for x in helems if x != q.zero]
    level = q.level
    # the k x (s + k) matrix [B^T | level I], s = |h| - 1
    n_span = [[sum(a * g for a, g in zip(hv, grow)) % level for hv in nontrivial]
              + [level if j == i else 0 for j in range(k)]
              for i, grow in enumerate(q.gram)]
    # H = [h | diag(orders)] enters W^T H and H v as its s columns plus
    # its diagonal, so the zeros of H are never multiplied
    w_cols = list(zip(*column_space_basis(IntMatrix(n_span)).rows))
    wt_h = [[sum(w * a for w, a in zip(wc, x)) for x in nontrivial]
            + [w * d for w, d in zip(wc, q.orders)] for wc in w_cols]
    if any(x % level for row in wt_h for x in row):
        raise DomainError("subgroup lattice does not sit inside its perp")
    sf = smith_normal_form(IntMatrix([[x // level for x in row] for row in wt_h]))
    s = len(nontrivial)
    v_cols = list(zip(*sf.v.rows))
    gens = []
    orders = []
    for j, d in enumerate(sf.d):
        if d < 2:
            continue
        vj = v_cols[j]
        col = [sum(x[i] * c for x, c in zip(nontrivial, vj)) + di * vj[s + i]
               for i, di in enumerate(q.orders)]
        if any(c % d for c in col):
            raise InconsistentDataError(
                f"overlattice generator {j} is not integral over its Smith entry {d}"
            )
        gens.append(tuple(c // d for c in col))
        orders.append(d)
    # level * b(x, y) = x . (G y), with G y formed once per generator y
    g_gens = [[sum(g * c for g, c in zip(grow, y)) for grow in q.gram] for y in gens]
    return FiniteQuadraticForm(orders, [
        [Fraction(sum(a * c for a, c in zip(x, gy)), level) for gy in g_gens] for x in gens])
