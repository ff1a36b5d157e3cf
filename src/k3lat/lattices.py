"""Even integral lattices as Gram matrices.

ADE root lattices are built negative definite (diagonal -2, adjacency +1)
with the usual Dynkin labelings: A_n a path, D_n forked at one end, E_n
with the branch node attached to the fourth path node.  Any consistent
labeling gives the same isometry class; fixing one keeps tests
reproducible.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import DegenerateLatticeError, DomainError
from .intmat import (
    IntMatrix, block_diagonal, det_exact, invariant_factors, positive_pivots, strict_int,
)

_ADE_RANK_BOUNDS = {"A": 1, "D": 4, "E": 6}

# Orders of the finite subgroups of SU(2) fixing a point above each
# singularity type: cyclic, binary dihedral, binary tetra/octa/icosahedral.
_STABILIZER_ORDERS = {"E": {6: 24, 7: 48, 8: 120}}

CONFIG_RANK_CAP = 21


class CheckedRecord:
    """First base of every namedtuple record whose ``__new__`` validates.

    namedtuple's ``_make`` calls ``tuple.__new__`` directly, and
    ``_replace`` calls ``_make``; routing ``_make`` through the class
    makes both run the checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class RootComponent(CheckedRecord, namedtuple("RootComponent", "kind n")):
    """One irreducible root-system factor, e.g. A3 or D5: ``kind`` is one
    of "A", "D", "E" and ``n`` the rank."""

    __slots__ = ()

    def __new__(cls, kind, n):
        if kind not in _ADE_RANK_BOUNDS:
            raise DomainError(f"unknown root-system kind {kind!r}")
        if type(n) is not int:
            strict_int(n, "root-system rank n")
        if n < _ADE_RANK_BOUNDS[kind]:
            raise DomainError(f"{kind}{n} is below the minimal rank")
        if kind == "E" and n not in (6, 7, 8):
            raise DomainError(f"E{n} does not exist")
        return super().__new__(cls, kind, n)

    def __str__(self):
        return f"{self.kind}{self.n}"


def _check_rank_cap(rank):
    if rank > CONFIG_RANK_CAP:
        raise DomainError(f"configuration rank {rank} exceeds the cap {CONFIG_RANK_CAP}")


_TERM_RE = re.compile(r"^(?:(\d+)\*)?([ADE])(\d+)$")
# far above any rank under CONFIG_RANK_CAP, far below the 4300 digits that
# int() converts before it raises a bare ValueError
_MAX_TERM_DIGITS = 100


class ADEConfig(CheckedRecord, namedtuple("ADEConfig", "components")):
    """Multiset of root components; the exceptional curves of a quotient.

    ``components`` is a tuple of RootComponents, stored sorted by
    descending rank.  The canonical text syntax is comma-separated
    ``<mult>*<Kind><n>`` terms, multiplicity 1 omitted: ``A6,2*A3,3*A2,A1``.
    """

    __slots__ = ()

    def __new__(cls, components):
        self = super().__new__(cls, tuple(sorted(components, key=lambda c: (-c.n, c.kind))))
        _check_rank_cap(self.rank)
        return self

    @classmethod
    def parse(cls, text: str) -> "ADEConfig":
        terms = []
        stripped = re.sub(r"\s+", "", text)
        if stripped:
            for term in stripped.split(","):
                m = _TERM_RE.match(term)
                if not m:
                    raise DomainError(f"cannot parse configuration term {term!r}")
                mult_digits, kind, n_digits = m.groups()
                if max(len(mult_digits or ""), len(n_digits)) > _MAX_TERM_DIGITS:
                    raise DomainError(
                        f"configuration term {term[:16]!r}... has a number of more "
                        f"than {_MAX_TERM_DIGITS} digits"
                    )
                mult = int(mult_digits) if mult_digits else 1
                if mult < 1:
                    raise DomainError(f"bad multiplicity in {term!r}")
                terms.append((mult, RootComponent(kind, int(n_digits))))
        # refuse before expanding: "10**9*A1" would otherwise build 10**9 components
        _check_rank_cap(sum(mult * c.n for mult, c in terms))
        return cls(tuple(c for mult, c in terms for _ in range(mult)))

    def __str__(self):
        out = []
        i = 0
        comps = self.components
        while i < len(comps):
            j = i
            while j < len(comps) and comps[j] == comps[i]:
                j += 1
            mult = j - i
            out.append(str(comps[i]) if mult == 1 else f"{mult}*{comps[i]}")
            i = j
        return ",".join(out)

    @property
    def rank(self) -> int:
        return sum(c.n for c in self.components)

    def count(self, kind: str, n: int) -> int:
        return sum(1 for c in self.components if c.kind == kind and c.n == n)


class GramLattice:
    """An integral lattice presented by its Gram matrix."""

    __slots__ = ("gram", "even")

    def __init__(self, gram: IntMatrix):
        if not isinstance(gram, IntMatrix):
            gram = IntMatrix(gram)
        if not gram.is_symmetric():
            raise DomainError("Gram matrix must be symmetric")
        self.gram = gram
        self.even = all(gram.rows[i][i] % 2 == 0 for i in range(gram.nrows))

    @property
    def rank(self) -> int:
        return self.gram.nrows

    @property
    def det(self) -> int:
        return det_exact(self.gram)

    def __eq__(self, other):
        return isinstance(other, GramLattice) and self.gram == other.gram

    def __repr__(self):
        return f"GramLattice({self.gram.to_lists()})"


def _ade_edges(kind, n):
    if kind == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "D":
        return [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    # Bourbaki E_n: path 1-3-4-5-...-n with node 2 hanging off node 4.
    path = [1, 3, 4, 5, 6, 7, 8][: n - 1]
    edges = [(a - 1, b - 1) for a, b in zip(path, path[1:])]
    edges.append((2 - 1, 4 - 1))
    return edges


def ade_lattice(c: RootComponent) -> GramLattice:
    """Negative-definite root lattice of the given component."""
    n = c.n
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
    for i, j in _ade_edges(c.kind, n):
        g[i][j] = 1
        g[j][i] = 1
    return GramLattice(IntMatrix(g))


def direct_sum(lattices) -> GramLattice:
    """Block-diagonal sum; the empty sum is the rank-0 lattice (det 1)."""
    return GramLattice(IntMatrix(block_diagonal(l.gram.rows for l in lattices)))


def config_lattice(config: ADEConfig) -> GramLattice:
    """Direct sum of the root lattices of a configuration."""
    return direct_sum(ade_lattice(c) for c in config.components)


def config_det(config: ADEConfig) -> int:
    """det of ``config_lattice(config)`` in closed form.

    |det| is n+1 for A_n, 4 for D_n and 9-n for E_n; a negative-definite
    lattice of rank r has sign (-1)^r.
    """
    det = -1 if config.rank % 2 else 1
    for c in config.components:
        det *= c.n + 1 if c.kind == "A" else 4 if c.kind == "D" else 9 - c.n
    return det


def disc_group(l: GramLattice) -> tuple:
    """Invariant factors (> 1) of the discriminant group, ascending.

    Their product equals |det|.
    """
    factors = invariant_factors(l.gram)
    if 0 in factors:
        raise DegenerateLatticeError("lattice is degenerate")
    return tuple(d for d in factors if d > 1)


def rescale(l: GramLattice, k: int) -> GramLattice:
    """Multiply the form by a positive integer k."""
    if strict_int(k, "scale factor") <= 0:
        raise DomainError(f"scale factor must be positive, got {k}")
    return GramLattice(IntMatrix([[k * x for x in row] for row in l.gram.rows]))


def det_sign(p: int, q: int) -> int:
    """Sign of the determinant of any nondegenerate lattice of signature (p, q)."""
    if type(p) is not int or type(q) is not int:
        strict_int(p, "signature count p")
        strict_int(q, "signature count q")
    if p < 0 or q < 0:
        raise DomainError("signature counts must be nonnegative")
    return -1 if q % 2 else 1


def stabilizer_order(c: RootComponent) -> int:
    """Order of the isotropy group at a point above a singularity of this type."""
    if c.kind == "A":
        return c.n + 1
    if c.kind == "D":
        return 4 * (c.n - 2)
    return _STABILIZER_ORDERS["E"][c.n]


def _definite(l: GramLattice, sign: int) -> bool:
    return positive_pivots([[sign * x for x in row] for row in l.gram.rows]) is not None


def is_negative_definite(l: GramLattice) -> bool:
    """Exact test via leading principal minors of the negated Gram."""
    return _definite(l, -1)


def is_positive_definite(l: GramLattice) -> bool:
    return _definite(l, 1)
