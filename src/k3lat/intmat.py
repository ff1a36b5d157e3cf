"""Exact integer arithmetic: determinants, definiteness certificates,
block sums, Smith normal form, prime factorization.

Everything here runs on Python's arbitrary-precision integers.  The
Bareiss intermediates for a rank-19 Gram matrix already overflow 64 bits,
so no fixed-width shortcut is taken anywhere.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple

from .errors import DimensionError, DomainError


def parse_json(text, what):
    """``json.loads``; an integer too long for ``int()`` is refused by name."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        # int() raises a bare ValueError past sys.get_int_max_str_digits()
        raise DomainError(
            f"{what} holds an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None


def strict_int(value, what):
    """A JSON integer; booleans, fractional numbers, strings and null are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return value


def strict_int_rows(value, what):
    """A matrix of JSON integers as a tuple of row tuples.

    Rows must be lists (or tuples) and entries pass ``strict_int``, so a
    float, even an integral one, is refused rather than truncated.
    """
    if not isinstance(value, (list, tuple)):
        raise DomainError(f"{what} must be a list of rows, got {value!r}")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, (list, tuple)):
            raise DomainError(f"{what} row {i} must be a list, got {row!r}")
        if not all(type(x) is int for x in row):
            for j, x in enumerate(row):
                strict_int(x, f"{what} entry [{i}][{j}]")
        rows.append(tuple(row))
    return tuple(rows)


class IntMatrix:
    """Immutable integer matrix stored row-major as nested tuples.

    >>> IntMatrix([[1, 2], [3, 4]]).shape
    (2, 2)
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = strict_int_rows(rows, "IntMatrix")
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows in matrix literal")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def _unchecked(cls, rows):
        """Wrap a tuple of equal-length int tuples that intmat computed
        itself from validated ints; the public constructor's checks would
        only repeat what the arithmetic already guarantees."""
        m = object.__new__(cls)
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else 0
        return m

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self):
        return self.nrows == self.ncols

    def is_symmetric(self):
        return self.is_square() and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )

    def transpose(self):
        return IntMatrix._unchecked(tuple(zip(*self.rows)))

    def mul(self, other):
        if self.ncols != other.nrows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        return _mul_columns(self.rows, list(zip(*other.rows)))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def to_lists(self):
        return [list(r) for r in self.rows]


class SmithForm(namedtuple("SmithForm", "d u v")):
    """Diagonalization u @ a @ v = diag(d) with u, v unimodular.

    The diagonal ``d`` (a tuple) has length min(nrows, ncols); entries are
    nonnegative and each divides the next.  ``u`` and ``v`` are IntMatrix.
    """

    __slots__ = ()


def _identity_lists(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mul_columns(rows, cols) -> IntMatrix:
    """The matrix with rows ``rows`` times the matrix with columns ``cols``."""
    return IntMatrix._unchecked(
        tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in rows))


def fraction_free_rows(rows):
    """Bareiss fraction-free elimination of a square list of int rows, in place.

    Returns (swaps, rows) with the rows upper triangular.  Without swaps,
    the diagonal entry of row k is the (k+1)-th leading principal minor.
    A column with no nonzero pivot left makes ``swaps`` None: singular.
    """
    n = len(rows)
    swaps = 0
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    swaps += 1
                    break
            else:
                return None, rows
        row_k = rows[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = rows[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return swaps, rows


def positive_pivots(rows):
    """``fraction_free_rows`` of a square list of int rows if every leading
    principal minor is positive (row k's pivot is the (k+1)-th), else None."""
    swaps, u = fraction_free_rows(rows)
    return u if swaps == 0 and all(u[k][k] > 0 for k in range(len(u))) else None


def block_diagonal(blocks):
    """Square blocks on the diagonal and zero elsewhere, as a list of rows.

    Entries keep their type, so Fraction blocks give a Fraction sum.
    """
    blocks = list(blocks)
    total = sum(map(len, blocks))
    out = []
    for b in blocks:
        off = len(out)
        out.extend([0] * off + list(row) + [0] * (total - off - len(b)) for row in b)
    return out


def det_exact(a: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    The empty 0x0 matrix has determinant 1 (empty product).
    """
    if not a.is_square():
        raise DimensionError(f"determinant needs a square matrix, got {a.shape}")
    if a.nrows == 0:
        return 1
    swaps, m = fraction_free_rows(a.to_lists())
    return 0 if swaps is None else (-1) ** swaps * m[-1][-1]


def _find_pivot(m, start, nrows, ncols):
    """Smallest-magnitude nonzero entry in the trailing submatrix."""
    best = None
    best_pos = None
    for i in range(start, nrows):
        row = m[i]
        for j in range(start, ncols):
            x = row[j]
            if x != 0:
                ax = -x if x < 0 else x
                if best is None or ax < best:
                    best = ax
                    best_pos = (i, j)
                    if ax == 1:
                        return best_pos
    return best_pos


def _snf_inplace(m, nrows, ncols, u=None, v=None):
    """Diagonalize ``m`` by elementary operations; mirror them on u, v."""
    k = 0
    bound = min(nrows, ncols)
    while k < bound:
        pos = _find_pivot(m, k, nrows, ncols)
        if pos is None:
            break
        i, j = pos
        if i != k:
            m[k], m[i] = m[i], m[k]
            if u is not None:
                u[k], u[i] = u[i], u[k]
        if j != k:
            for row in m:
                row[k], row[j] = row[j], row[k]
            if v is not None:
                for row in v:
                    row[k], row[j] = row[j], row[k]
        # Clear column k, then row k; retry from pivot selection whenever a
        # division leaves a remainder (the remainder is strictly smaller, so
        # this terminates).
        dirty = False
        pivot = m[k][k]
        for i in range(k + 1, nrows):
            x = m[i][k]
            if x == 0:
                continue
            q = x // pivot
            if q:
                row_i, row_k = m[i], m[k]
                for t in range(k, ncols):
                    row_i[t] -= q * row_k[t]
                if u is not None:
                    urow_i, urow_k = u[i], u[k]
                    for t in range(len(urow_i)):
                        urow_i[t] -= q * urow_k[t]
            if m[i][k] != 0:
                dirty = True
        if dirty:
            continue
        for j in range(k + 1, ncols):
            x = m[k][j]
            if x == 0:
                continue
            q = x // pivot
            if q:
                for row in m:
                    row[j] -= q * row[k]
                if v is not None:
                    for row in v:
                        row[j] -= q * row[k]
            if m[k][j] != 0:
                dirty = True
        if dirty:
            continue
        # Pivot must divide every remaining entry for the divisibility chain;
        # if not, fold the offending row in and retry.
        offender = None
        for i in range(k + 1, nrows):
            row = m[i]
            for j in range(k + 1, ncols):
                if row[j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_o, row_k = m[offender], m[k]
            for t in range(k, ncols):
                row_k[t] += row_o[t]
            if u is not None:
                urow_o, urow_k = u[offender], u[k]
                for t in range(len(urow_k)):
                    urow_k[t] += urow_o[t]
            continue
        if pivot < 0:
            for t in range(k, ncols):
                m[k][t] = -m[k][t]
            if u is not None:
                u[k] = [-x for x in u[k]]
        k += 1
    return [m[i][i] for i in range(bound)]


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form with unimodular transforms.

    >>> smith_normal_form(IntMatrix([[2, 0], [0, 2]])).d
    (2, 2)
    """
    nrows, ncols = a.nrows, a.ncols
    m = a.to_lists()
    u = _identity_lists(nrows)
    v = _identity_lists(ncols)
    d = _snf_inplace(m, nrows, ncols, u, v)
    return SmithForm(tuple(d), IntMatrix._unchecked(tuple(map(tuple, u))),
                     IntMatrix._unchecked(tuple(map(tuple, v))))


def invariant_factors(a: IntMatrix) -> tuple:
    """Diagonal of the Smith form only; skips the transform bookkeeping."""
    m = a.to_lists()
    return tuple(_snf_inplace(m, a.nrows, a.ncols))


def column_space_basis(a: IntMatrix) -> IntMatrix:
    """Square basis matrix of the lattice spanned by the columns of ``a``.

    Requires the columns to span a full-rank lattice.
    """
    sf = smith_normal_form(a)
    r = sum(1 for x in sf.d if x != 0)
    if r != a.nrows:
        raise DomainError("columns do not span a full-rank lattice")
    # u a v = [D 0], so the first r columns of a v are u^-1 D.
    return _mul_columns(a.rows, list(zip(*sf.v.rows))[:r])


def factorize(n: int) -> dict:
    """Prime factorization {p: e} of a positive integer, primes ascending.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    """
    strict_int(n, "number to factorize")
    if n < 1:
        raise DomainError(f"only positive integers factorize, got {n}")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1
    if n > 1:
        out[n] = 1
    return out
