"""Enumeration and isometry classification of even positive-definite
lattices of rank at most 3.

Each isometry class is enumerated once, by its canonical Gram: at rank 2
the reduced form 0 <= 2*g12 <= g11 <= g22 (one per GL2(Z) class), at
rank 3 the Eisenstein-reduced form (Brandt-Intrau 1958; Schiemann, Math.
Ann. 308, 1997).  Reduced forms obey the product bound g11*g22*g33 <=
2*det, which prunes the scan.  Class counts therefore need no isometry
tests; ``is_isometric`` and ``short_vectors`` are separate tools.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt, prod

from .discforms import are_isomorphic, disc_form
from .errors import DomainError, InconsistentDataError, ResourceLimitError
from .intmat import IntMatrix, fraction_free_rows, invariant_factors, strict_int_rows
from .lattices import GramLattice, disc_group

DET_BOUND = 100_000


class ReducedForm(namedtuple("ReducedForm", "gram")):
    """Even positive-definite Gram of rank <= 3 in reduced shape, stored as
    a tuple of row tuples."""

    __slots__ = ()

    def __new__(cls, gram):
        gram = strict_int_rows(gram, "ReducedForm gram")
        n = len(gram)
        if not 1 <= n <= 3 or any(len(r) != n for r in gram):
            raise DomainError("reduced forms have rank 1..3")
        for i in range(n):
            if gram[i][i] % 2:
                raise DomainError("diagonal entries must be even")
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise DomainError("Gram matrix must be symmetric")
                if 2 * abs(gram[i][j]) > gram[j][j]:
                    raise DomainError("off-diagonal entry exceeds the reduced bound")
        diag = [gram[i][i] for i in range(n)]
        if diag != sorted(diag) or diag[0] <= 0:
            raise DomainError("diagonal must be positive and ascending")
        if _det3(gram) <= 0 or (n >= 2 and gram[0][0] * gram[1][1] - gram[0][1] ** 2 <= 0):
            raise DomainError("form is not positive definite")
        return super().__new__(cls, gram)

    @property
    def rank(self):
        return len(self.gram)

    @property
    def det(self):
        return _det3(self.gram)

    def lattice(self) -> GramLattice:
        return GramLattice([list(r) for r in self.gram])


def _det3(g):
    n = len(g)
    if n == 1:
        return g[0][0]
    if n == 2:
        return g[0][0] * g[1][1] - g[0][1] ** 2
    return (
        g[0][0] * g[1][1] * g[2][2]
        - g[0][0] * g[1][2] ** 2
        - g[2][2] * g[0][1] ** 2
        - g[1][1] * g[0][2] ** 2
        + 2 * g[0][1] * g[0][2] * g[1][2]
    )


# -- exact short-vector enumeration ---------------------------------------


def norm_of(gram, v) -> int:
    n = len(gram)
    return sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n))


@lru_cache(maxsize=4096)
def short_vectors(gram: tuple, bound: int) -> tuple:
    """All nonzero integer vectors with norm <= bound, exact arithmetic.

    The fraction-free elimination of a positive-definite Gram gives rows
    u_k and leading minors D_k (D_0 = 1) with
    Q(x) = sum_k (u_k . x)^2 / (D_k D_{k+1}).  Scaled by
    M = prod_k D_k D_{k+1}, each coordinate range is exact in integers.
    """
    n = len(gram)
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise DomainError("short vectors need a symmetric Gram matrix")
    swaps, u = fraction_free_rows([list(row) for row in gram])
    if swaps != 0 or any(u[k][k] <= 0 for k in range(n)):
        raise DomainError(f"short vectors need a positive-definite Gram, got {gram}")
    minors = [1] + [u[k][k] for k in range(n)]
    scale = prod(minors[k] * minors[k + 1] for k in range(n))
    weights = [scale // (minors[k] * minors[k + 1]) for k in range(n)]
    out = []
    v = [0] * n

    def rec(k, remaining):
        if k < 0:
            if any(v):
                out.append(tuple(v))
            return
        d, row, w = minors[k + 1], u[k], weights[k]
        c = sum(row[j] * v[j] for j in range(k + 1, n))
        s = isqrt(remaining // w)
        for x in range(-((s + c) // d), (s - c) // d + 1):
            v[k] = x
            rec(k - 1, remaining - w * (d * x + c) ** 2)
        v[k] = 0

    if bound >= 0:
        rec(n - 1, scale * bound)
    for w in out:
        if norm_of(gram, w) > bound:
            raise InconsistentDataError(
                f"short-vector enumeration returned {w} of norm above {bound}"
            )
    return tuple(out)


def vector_counts(gram: tuple, bound: int) -> tuple:
    """Count of vectors by norm up to the bound; an isometry invariant."""
    counts = {}
    for w in short_vectors(gram, bound):
        nw = norm_of(gram, w)
        counts[nw] = counts.get(nw, 0) + 1
    return tuple(sorted(counts.items()))


def is_isometric(l1: ReducedForm, l2: ReducedForm) -> bool:
    """Does an integral isometry exist between the two forms?

    Filters by determinant and vector-count fingerprints, then backtracks
    over images of the basis among vectors of matching norm.  Equal
    determinants make any integral solution of x^T G1 x = G2 unimodular
    automatically.
    """
    if l1.rank != l2.rank:
        raise DomainError("isometry testing needs equal ranks")
    if l1.det != l2.det:
        return False
    g1, g2 = l1.gram, l2.gram
    if g1 == g2:
        return True
    n = l1.rank
    # Search for x with x^T g1 x = g2, mapping the basis of the form with
    # the smaller diagonal; that caps the vector enumeration bound.
    md1 = max(g1[i][i] for i in range(n))
    md2 = max(g2[i][i] for i in range(n))
    if md1 < md2:
        g1, g2 = g2, g1
        md1, md2 = md2, md1
    if vector_counts(g1, md2) != vector_counts(g2, md2):
        return False
    by_norm = {}
    for w in short_vectors(g1, md2):
        by_norm.setdefault(norm_of(g1, w), []).append(w)
    chosen = []

    def pair(u, w):
        return sum(g1[i][j] * u[i] * w[j] for i in range(n) for j in range(n))

    def place(i):
        if i == n:
            return True
        for w in by_norm.get(g2[i][i], ()):
            if all(pair(chosen[t], w) == g2[t][i] for t in range(i)):
                chosen.append(w)
                if place(i + 1):
                    return True
                chosen.pop()
        return False

    return place(0)


# -- canonical enumeration -------------------------------------------------


def _rank2_forms(det):
    out = []
    g11 = 2
    while 3 * g11 * g11 <= 4 * det:
        for g12 in range(0, g11 // 2 + 1):
            num = det + g12 * g12
            if num % g11:
                continue
            g22 = num // g11
            if g22 >= g11 and g22 % 2 == 0:
                out.append(((g11, g12), (g12, g22)))
        g11 += 2
    return out


def _signed(bound, positive):
    """Off-diagonal range of one sign class: 1..bound, or -bound..0."""
    return range(1, bound + 1) if positive else range(-bound, 1)


def _eisenstein_ties(a, b, c, r, s, t):
    """The reduction conditions the scan in ``_rank3_partition`` leaves
    open: the sum condition and the tie-breaks on the boundary."""
    edge = a + b + 2 * (r + s + t)
    return (
        edge >= 0
        and (a != b or abs(r) <= abs(s))
        and (b != c or abs(s) <= abs(t))
        and (edge != 0 or a + 2 * s + t <= 0)
        and (a != 2 * t or s <= 2 * r)
        and (a != 2 * s or t <= 2 * r)
        and (b != 2 * r or t <= 2 * s)
        and (a != -2 * t or s == 0)
        and (a != -2 * s or t == 0)
        and (b != -2 * r or t == 0)
    )


def _rank3_partition(det, a):
    """The Eisenstein-reduced Grams with g11 = a, one per class.

    With b = g22, c = g33, r = g23, s = g13, t = g12 the scan keeps
    a <= b <= c, 2|t| <= a, 2|s| <= a, 2|r| <= b with r, s, t all
    positive or all non-positive; c is solved from the determinant.
    """
    out = []
    two_det = 2 * det
    for t in range(-(a // 2), a // 2 + 1):
        for s in _signed(a // 2, t > 0):
            b = a
            while a * b * b <= two_det:
                m2 = a * b - t * t
                for r in _signed(b // 2, t > 0):
                    num = det - 2 * t * s * r + a * r * r + b * s * s
                    if num % m2:
                        continue
                    c = num // m2
                    if c < b or c % 2 or not _eisenstein_ties(a, b, c, r, s, t):
                        continue
                    out.append(((a, t, s), (t, b, r), (s, r, c)))
                b += 2
    return out


def enumerate_reduced(rank: int, det: int) -> list:
    """All even positive-definite forms of the rank and determinant,
    one canonical representative per isometry class."""
    if rank not in (1, 2, 3):
        raise DomainError(f"rank must be 1..3, got {rank}")
    if det < 1:
        raise DomainError(f"determinant must be positive, got {det}")
    if det > DET_BOUND:
        raise ResourceLimitError(
            f"determinant {det} exceeds the enumeration bound {DET_BOUND}"
        )
    if rank == 1:
        grams = [((det,),)] if det % 2 == 0 else []
    elif rank == 2:
        grams = _rank2_forms(det)
    else:
        grams = []
        a = 2
        while a ** 3 <= 2 * det:
            grams.extend(_rank3_partition(det, a))
            a += 2
    return [ReducedForm(g) for g in grams]


class GenusSpec(namedtuple("GenusSpec", "rank det disc", defaults=(None,))):
    """Target rank, determinant, and (optionally) discriminant form, a
    FiniteQuadraticForm."""

    __slots__ = ()

    def __new__(cls, rank, det, disc=None):
        if disc is not None and disc.group_order != det:
            raise DomainError(
                f"discriminant group order {disc.group_order} "
                f"differs from the determinant {det}"
            )
        return super().__new__(cls, rank, det, disc)


def genus_class_count(spec: GenusSpec):
    """(class count, representatives) for the genus the spec describes.

    Even lattices of equal signature lie in one genus exactly when their
    discriminant forms are isomorphic.  ``enumerate_reduced`` lists each
    class once, so the count is the number of candidates that pass the
    form-isomorphism test.  Isomorphic forms live on isomorphic groups,
    so candidates whose discriminant group has other invariant factors
    are dropped first, before any form is built.
    """
    reps = enumerate_reduced(spec.rank, spec.det)
    if spec.disc is not None:
        # The target's orders need not form a divisor chain (an orthogonal
        # sum can give (3, 5) where the invariant factors are (15,)).
        target_group = tuple(
            d for d in invariant_factors(IntMatrix.diagonal(spec.disc.orders)) if d > 1
        )
        reps = [
            r for r in reps
            if disc_group(r.lattice()) == target_group
            and are_isomorphic(disc_form(r.lattice()), spec.disc)
        ]
    return len(reps), reps
