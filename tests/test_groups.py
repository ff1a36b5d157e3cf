import itertools
import time

import pytest
from h3_reference import cochain_h3, compose_is_zero
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import groups
from k3lat.errors import DomainError, ResourceLimitError
from k3lat.groups import (
    ASSOC_VALIDATION_LIMIT,
    FiniteGroup,
    _boundary,
    _eliminate_units,
    _is_associative,
    _rank_exact_sparse,
    h3_bar_resolution,
    order_census,
)

S4 = FiniteGroup.from_cycles(["(1,2)", "(1,2,3,4)"])
V4 = FiniteGroup.from_cycles(["(1,2)", "(3,4)"])
S3 = FiniteGroup.from_cycles(["(1,2)", "(1,2,3)"])


def gl32():
    """GL(3, F2) acting on the 7 nonzero vectors, as a permutation group."""
    def perm(mat):
        imgs = []
        for v in range(1, 8):
            bits = [(v >> k) & 1 for k in range(3)]
            w = [sum(mat[i][j] * bits[j] for j in range(3)) % 2 for i in range(3)]
            imgs.append((w[0] | (w[1] << 1) | (w[2] << 2)) - 1)
        return tuple(imgs)

    return FiniteGroup.from_permutations([
        perm([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        perm([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    ])


def mathieu20():
    """The affine group 2^4 : A5 on the 16 points of F4^2."""
    def f4mul(x, y):
        a, b = x & 1, x >> 1
        c, d = y & 1, y >> 1
        return ((a * c + b * d) % 2) | ((((a * d) + (b * c) + (b * d)) % 2) << 1)

    points = [(x, y) for x in range(4) for y in range(4)]
    index = {p: i for i, p in enumerate(points)}

    def affine(mat, shift):
        out = []
        for (x, y) in points:
            nx = f4mul(mat[0][0], x) ^ f4mul(mat[0][1], y) ^ shift[0]
            ny = f4mul(mat[1][0], x) ^ f4mul(mat[1][1], y) ^ shift[1]
            out.append(index[(nx, ny)])
        return tuple(out)

    return FiniteGroup.from_permutations([
        affine([[1, 1], [0, 1]], (0, 0)),
        affine([[1, 2], [0, 1]], (0, 0)),
        affine([[0, 1], [1, 0]], (0, 0)),
        affine([[1, 0], [0, 1]], (1, 0)),
    ])


def test_cyclic_and_census():
    assert order_census(FiniteGroup.cyclic(2)) == {2: 1}
    assert order_census(FiniteGroup.cyclic(6)) == {2: 1, 3: 2, 6: 2}
    assert order_census(S4) == {2: 9, 3: 8, 4: 6}


@pytest.mark.parametrize("n", [2.0, True, "2"])
def test_cyclic_refuses_a_non_integer_order(n):
    with pytest.raises(DomainError, match="cyclic group order must be an integer"):
        FiniteGroup.cyclic(n)


def test_census_rejects_large_orders():
    with pytest.raises(DomainError):
        order_census(FiniteGroup.cyclic(9))


def test_census_counts_sum():
    for g in (S4, S3, V4, FiniteGroup.cyclic(8)):
        assert sum(order_census(g).values()) == g.order - 1


def test_permutation_groups():
    assert S4.order == 24
    assert V4.order == 4
    assert S3.order == 6
    assert gl32().order == 168


def test_shipped_census_values_from_explicit_groups():
    assert order_census(gl32()) == {2: 21, 3: 56, 4: 42, 7: 48}
    a5 = FiniteGroup.from_cycles(["(1,2,3)", "(3,4,5)"])
    assert order_census(a5) == {2: 15, 3: 20, 5: 24}
    a6 = FiniteGroup.from_cycles(["(1,2,3)", "(2,3,4,5,6)"])
    assert a6.order == 360
    assert order_census(a6) == {2: 45, 3: 80, 4: 90, 5: 144}
    m20 = mathieu20()
    assert m20.order == 960
    assert order_census(m20) == {2: 75, 3: 320, 4: 180, 5: 384}


def test_cayley_validation():
    FiniteGroup([[0, 1], [1, 0]])
    with pytest.raises(DomainError):
        FiniteGroup([[1, 0], [0, 1]])  # 0 not the identity
    with pytest.raises(DomainError):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square
    # latin square with identity but not associative (order 5 loop)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(DomainError):
        FiniteGroup(loop)


def test_closure_limit():
    with pytest.raises(ResourceLimitError):
        FiniteGroup.from_cycles(["(1,2)", "(1,2,3,4,5,6,7,8,9,10)"])


def test_cycle_parsing():
    g = FiniteGroup.from_cycles(["(1,2)(3,4)"])
    assert g.order == 2
    with pytest.raises(DomainError):
        FiniteGroup.from_cycles(["(1,2)(2,3)"])
    with pytest.raises(DomainError):
        FiniteGroup.from_cycles(["1,2"])


def test_h3_cyclic_groups_trivial():
    for n in range(2, 9):
        assert h3_bar_resolution(FiniteGroup.cyclic(n)) == ()


def test_h3_examples():
    assert h3_bar_resolution(V4) == (2,)
    assert h3_bar_resolution(S3) == ()


def test_h3_dihedral_order12():
    # largest default-cap case; multiplier of the order-12 dihedral group is Z/2
    d6 = FiniteGroup.from_cycles(["(1,2,3,4,5,6)", "(2,6)(3,5)"])
    assert d6.order == 12
    assert h3_bar_resolution(d6) == (2,)


def test_h3_more_known_multipliers():
    # quaternion group: trivial multiplier; dihedral of order 8 and the
    # alternating group A4: multiplier Z/2
    q8 = FiniteGroup.from_cycles(["(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"])
    assert q8.order == 8
    assert h3_bar_resolution(q8) == ()
    d4 = FiniteGroup.from_cycles(["(1,2,3,4)", "(1,3)"])
    assert d4.order == 8
    assert h3_bar_resolution(d4) == (2,)
    a4 = FiniteGroup.from_cycles(["(1,2,3)", "(1,2)(3,4)"])
    assert a4.order == 12
    assert h3_bar_resolution(a4) == (2,)


def test_oracle_confirms_shipped_cyclic_h3_orders():
    from k3lat.pipeline import shipped_records

    for rec in shipped_records():
        if 2 <= rec.group_order <= 8 and rec.name.startswith("C"):
            factors = h3_bar_resolution(FiniteGroup.cyclic(rec.group_order))
            size = 1
            for f in factors:
                size *= f
            assert size == rec.h3_order


def test_h3_cap():
    with pytest.raises(ResourceLimitError):
        h3_bar_resolution(S4)
    with pytest.raises(ResourceLimitError):
        h3_bar_resolution(FiniteGroup.cyclic(8), cap=6)


@pytest.mark.parametrize("cap", [2.5, 24.0, True, "24"])
def test_h3_cap_is_a_strict_integer(cap):
    with pytest.raises(DomainError, match="cohomology cap must be an integer"):
        h3_bar_resolution(FiniteGroup.cyclic(2), cap=cap)


def test_coboundary_composition_is_zero():
    for g in (S3, V4, FiniteGroup.cyclic(5)):
        assert compose_is_zero(_boundary(g.table, 3), _boundary(g.table, 2))


def test_h3_matches_schur_multiplier_orders():
    # |H3(G, Z)| equals the Schur multiplier order for finite groups
    multipliers = {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
    for n, want in multipliers.items():
        factors = h3_bar_resolution(FiniteGroup.cyclic(n))
        size = 1
        for f in factors:
            size *= f
        assert size == want
    assert h3_bar_resolution(V4) == (2,)  # multiplier of C2 x C2 is Z/2


def test_rank_exact_sparse():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {2: 5}]
    assert _rank_exact_sparse(rows) == 2
    assert _rank_exact_sparse([{0: 6, 1: 10}, {0: 15, 1: 25}]) == 1
    assert _rank_exact_sparse([{}]) == 0


def test_boundary_shapes():
    # (n-1)^3 cells of at most 4 terms, indexed into (n-1)^2 rows
    d3 = _boundary(S3.table, 3)
    assert len(d3) == 5 ** 3
    assert all(len(col) <= 4 and all(0 <= r < 25 for r in col) for col in d3)
    # [a|b] -> [b] - [ab] + [a]; in C2 the product term drops out
    assert _boundary(FiniteGroup.cyclic(2).table, 2) == [{0: 2}]


def test_eliminate_units_modulo_a_composite():
    # 12 * 12 = 0 mod 144, so an update may cancel an entry that was never
    # there; e_0 = v1 - 12 v2 + 144 e_2 lies in the span
    pivots, rest = _eliminate_units([{0: 1, 1: 12}, {1: 1, 2: 12}, {0: 12}, {2: 6}], 144)
    assert pivots == {0: {0: 1}, 1: {1: 1, 2: 12}}
    assert rest == [{2: 6}]
    # over a prime field every nonzero entry is a unit
    pivots, rest = _eliminate_units([{0: 2, 1: 4}, {0: 1, 1: 2}, {2: 5}], 7)
    assert (len(pivots), rest) == (2, [])


def relabel(table, perm):
    """Table of the same group with element i renamed perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def dicyclic(k):
    """Dic_k of order 4k: elements a^i x^e with x^2 = a^k, x a x^-1 = a^-1."""
    n = 2 * k

    def mul(p, q):
        (i1, e1), (i2, e2) = p, q
        if e1 == 0:
            return ((i1 + i2) % n, e2)
        if e2 == 0:
            return ((i1 - i2) % n, 1)
        return ((i1 - i2 + k) % n, 0)

    elems = [(i, e) for e in (0, 1) for i in range(n)]
    index = {x: i for i, x in enumerate(elems)}
    return FiniteGroup([[index[mul(p, q)] for q in elems] for p in elems])


# groups of order <= 6, one per isomorphism class
SMALL_GROUPS = [FiniteGroup.cyclic(n) for n in range(1, 7)] + [V4, S3]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_h3_routes_agree_under_relabelling(data):
    g = data.draw(st.sampled_from(SMALL_GROUPS))
    perm = [0] + data.draw(st.permutations(range(1, g.order)))
    h = FiniteGroup(relabel(g.table, perm))
    assert h3_bar_resolution(h) == cochain_h3(h) == cochain_h3(g)


def test_h3_known_multipliers_of_products_and_dicyclic():
    c2_cubed = FiniteGroup.from_cycles(["(1,2)", "(3,4)", "(5,6)"])
    c3_squared = FiniteGroup.from_cycles(["(1,2,3)", "(4,5,6)"])
    c2_c6 = FiniteGroup.from_cycles(["(1,2)", "(3,4,5,6,7,8)"])
    dic3 = dicyclic(3)
    assert (c2_cubed.order, c3_squared.order, c2_c6.order, dic3.order) == (8, 9, 12, 12)
    assert h3_bar_resolution(c2_cubed) == (2, 2, 2)
    assert h3_bar_resolution(c3_squared) == (3,)
    assert h3_bar_resolution(c2_c6) == (2,)
    assert h3_bar_resolution(dic3) == ()


def test_h3_exact_rank_fallback(monkeypatch):
    # Over F_2 the rank of d3 drops by the Z/2 in H_2(V4), so no prime
    # certifies the free rank and the exact sparse ranks decide.
    calls = []

    def exact(rows):
        calls.append(len(rows))
        return _rank_exact_sparse(rows)

    monkeypatch.setattr(groups, "_RANK_PRIMES", (2,))
    monkeypatch.setattr(groups, "_rank_exact_sparse", exact)
    assert h3_bar_resolution(V4) == (2,)
    assert calls == [9, 27]


@pytest.mark.parametrize("table, what", [
    ([[0, 1.0], [1, 0]], "entry [0][1]"),
    ([[0, 1], [1, 0.2]], "entry [1][1]"),
    ([[0, True], [True, 0]], "entry [0][1]"),
    ([[0, 1], "10"], "row 1"),
    (5, "list of rows"),
])
def test_cayley_entries_are_strict_integers(table, what):
    with pytest.raises(DomainError, match=what.replace("[", r"\[").replace("]", r"\]")):
        FiniteGroup(table)


@pytest.mark.parametrize("perms", [[(1.0, 0)], [(1, 0), (0, True, 2)], [(0, 1), "10"]])
def test_permutation_images_are_strict_integers(perms):
    with pytest.raises(DomainError, match="permutation images"):
        FiniteGroup.from_permutations(perms)


def brute_force_associative(table):
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def intercalates(table):
    """2x2 Latin subsquares off the identity row and column."""
    n = len(table)
    return [(i, k, j, l)
            for i, k in itertools.combinations(range(1, n), 2)
            for j, l in itertools.combinations(range(1, n), 2)
            if table[i][j] == table[k][l] and table[i][l] == table[k][j]]


GROUPS_UP_TO_8 = SMALL_GROUPS + [
    FiniteGroup.cyclic(7),
    FiniteGroup.cyclic(8),
    FiniteGroup.from_cycles(["(1,2)", "(3,4,5,6)"]),
    FiniteGroup.from_cycles(["(1,2)", "(3,4)", "(5,6)"]),
    FiniteGroup.from_cycles(["(1,2,3,4)", "(1,3)"]),
    dicyclic(2),
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_light_test_matches_brute_force(data):
    g = data.draw(st.sampled_from(GROUPS_UP_TO_8))
    perm = [0] + data.draw(st.permutations(range(1, g.order)))
    table = relabel(g.table, perm)
    # flipping an intercalate keeps a Latin square with identity 0, and
    # usually breaks associativity
    for _ in range(data.draw(st.integers(0, 3))):
        spots = intercalates(table)
        if not spots:
            break
        i, k, j, l = data.draw(st.sampled_from(spots))
        table[i][j], table[i][l] = table[i][l], table[i][j]
        table[k][j], table[k][l] = table[k][l], table[k][j]
    rows = tuple(map(tuple, table))
    expected = brute_force_associative(rows)
    assert _is_associative(rows) == expected
    if expected:
        assert FiniteGroup(table).order == g.order
    else:
        with pytest.raises(DomainError, match="not associative"):
            FiniteGroup(table)


def test_raw_table_at_the_validation_limit():
    # C2^10 as bit vectors under xor: a raw table of the largest order
    # whose associativity is still checked
    n = ASSOC_VALIDATION_LIMIT
    assert n == 1 << 10
    t0 = time.monotonic()
    g = FiniteGroup([[a ^ b for b in range(n)] for a in range(n)])
    elapsed = time.monotonic() - t0
    assert g.order == n
    print(f"validated a raw order-{n} Cayley table in {elapsed:.2f}s")
