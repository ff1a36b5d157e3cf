import itertools
import json
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from det_reference import leibniz_det
from k3lat.errors import DimensionError, DomainError
from k3lat.intmat import (
    IntMatrix,
    column_space_basis,
    det_exact,
    factorize,
    invariant_factors,
    parse_json,
    smith_normal_form,
)


def test_det_examples():
    assert det_exact(IntMatrix([[-2]])) == -2
    assert det_exact(IntMatrix([[-2, 1], [1, -2]])) == 3
    assert det_exact(IntMatrix([])) == 1


def test_det_requires_square():
    with pytest.raises(DimensionError):
        det_exact(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_zero_and_bigint():
    assert det_exact(IntMatrix([[1, 2], [2, 4]])) == 0
    n = 10**30
    assert det_exact(IntMatrix([[n, 0], [0, n]])) == n * n


def test_snf_examples():
    assert smith_normal_form(IntMatrix([[2, 0], [0, 2]])).d == (2, 2)
    assert smith_normal_form(IntMatrix([[0]])).d == (0,)
    # negative-definite A3 Cartan matrix
    a3 = IntMatrix([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert smith_normal_form(a3).d == (1, 1, 4)


def test_snf_transforms_reconstruct():
    m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    sf = smith_normal_form(m)
    assert sf.u.mul(m).mul(sf.v) == IntMatrix.diagonal(sf.d)
    assert det_exact(sf.u) in (1, -1)
    assert det_exact(sf.v) in (1, -1)
    for a, b in zip(sf.d, sf.d[1:]):
        assert b % a == 0 if a else b == 0


def test_snf_rectangular():
    m = IntMatrix([[2, 0], [0, 3], [0, 0]])
    sf = smith_normal_form(m)
    assert sf.d == (1, 6)
    assert sf.u.mul(m).mul(sf.v) == IntMatrix([[1, 0], [0, 6], [0, 0]])


def _entries_are_ints(m):
    return (len(m.rows) == m.nrows and all(len(row) == m.ncols for row in m.rows)
            and all(type(x) is int for row in m.rows for x in row))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_smith_normal_form_certificates(data):
    # u, v and the products below come out of intmat unvalidated, so the
    # arithmetic itself has to keep them exact ints of the stated shape
    r = data.draw(st.integers(1, 4))
    c = data.draw(st.integers(1, 6))
    a = IntMatrix(data.draw(st.lists(st.lists(st.integers(-20, 20), min_size=c, max_size=c),
                                     min_size=r, max_size=r)))
    sf = smith_normal_form(a)
    uav = sf.u.mul(a).mul(sf.v)
    assert uav == IntMatrix([[sf.d[i] if i == j else 0 for j in range(c)] for i in range(r)])
    assert det_exact(sf.u) in (1, -1)
    assert det_exact(sf.v) in (1, -1)
    assert len(sf.d) == min(r, c) and all(x >= 0 for x in sf.d)
    for x, y in zip(sf.d, sf.d[1:]):
        assert y % x == 0 if x else y == 0
    assert all(type(x) is int for x in sf.d)
    assert sf.u.shape == (r, r) and sf.v.shape == (c, c)
    for m in (sf.u, sf.v, uav, sf.u.mul(a), a.transpose(), a.mul(sf.v)):
        assert _entries_are_ints(m)


def test_column_space_basis_full_rank():
    m = IntMatrix([[2, 0, 4], [0, 3, 3]])
    basis = column_space_basis(m)
    assert abs(det_exact(basis)) == 6


@pytest.mark.parametrize("rows", [[[2.9, 1], [1, 2]], [[True]], [[2, 1], [1, "2"]]])
def test_intmatrix_entries_are_strict_integers(rows):
    with pytest.raises(DomainError, match="IntMatrix entry"):
        IntMatrix(rows)


def _is_prime(p):
    return p > 1 and all(p % k for k in range(2, int(p**0.5) + 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**4))
def test_factorize_multiplies_back(n):
    f = factorize(n)
    assert prod(p**e for p, e in f.items()) == n
    assert list(f) == sorted(f)
    assert all(_is_prime(p) and e >= 1 for p, e in f.items())


@pytest.mark.parametrize("n", [0, -4, True, 2.0])
def test_factorize_refuses_non_positive_and_non_integers(n):
    with pytest.raises(DomainError):
        factorize(n)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_column_space_basis_spans_the_columns(data):
    r = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(r, r + 3))
    entries = st.integers(-6, 6)
    a = IntMatrix(data.draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                                     min_size=r, max_size=r)))
    # det of the column lattice: gcd of the maximal minors (0 if not full rank)
    minors = [det_exact(IntMatrix([[row[j] for j in cols] for row in a.rows]))
              for cols in itertools.combinations(range(c), r)]
    covolume = gcd(*minors)
    if covolume == 0:
        with pytest.raises(DomainError):
            column_space_basis(a)
        return
    basis = column_space_basis(a)
    assert basis.shape == (r, r)
    assert abs(det_exact(basis)) == covolume
    # every input column is an integer combination of the basis: by Cramer's
    # rule, each minor with one basis column swapped for it is a multiple of det B
    b = [list(row) for row in basis.rows]
    det_b = leibniz_det(b)
    for j in range(c):
        for i in range(r):
            swapped = [row[:i] + [a.rows[k][j]] + row[i + 1:] for k, row in enumerate(b)]
            assert leibniz_det(swapped) % det_b == 0


def test_parse_json_refuses_an_overlong_integer_by_name():
    assert parse_json('{"gram": [[2]]}', "gram file") == {"gram": [[2]]}
    with pytest.raises(DomainError, match="^gram file holds an integer of more than 4300 digits$"):
        parse_json(f'{{"gram": [[{"9" * 5000}]]}}', "gram file")
    # malformed JSON keeps its own error
    with pytest.raises(json.JSONDecodeError):
        parse_json("[1", "gram file")
