import itertools
import random
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from det_reference import leibniz_det
from genus_reference import reference_classes
from k3lat import genus
from k3lat.discforms import are_isomorphic, disc_form, negate
from k3lat.errors import DimensionError, DomainError, K3latError, ResourceLimitError
from k3lat.genus import (
    GenusSpec,
    ReducedForm,
    enumerate_reduced,
    genus_class_count,
    is_isometric,
    norm_of,
    short_vectors,
    vector_counts,
)
from k3lat.lattices import ADEConfig, config_lattice


def test_enumerate_rank1():
    assert [f.gram for f in enumerate_reduced(1, 2)] == [((2,),)]
    assert enumerate_reduced(1, 5) == []


def test_enumerate_rank2_examples():
    assert [f.gram for f in enumerate_reduced(2, 3)] == [((2, 1), (1, 2))]
    assert [f.gram for f in enumerate_reduced(2, 4)] == [((2, 0), (0, 2))]


def test_enumerate_resource_bound():
    with pytest.raises(ResourceLimitError):
        enumerate_reduced(3, 200_000)
    with pytest.raises(DomainError):
        enumerate_reduced(4, 10)


def test_reduced_form_validation():
    ReducedForm(((2, 1), (1, 4)))
    with pytest.raises(DomainError):
        ReducedForm(((2, 2), (2, 4)))  # off-diagonal too large
    with pytest.raises(DomainError):
        ReducedForm(((4, 0), (0, 2)))  # diagonal not ascending
    with pytest.raises(DomainError):
        ReducedForm(((3, 0), (0, 4)))  # odd diagonal
    with pytest.raises(DomainError):
        ReducedForm(((2, 1), (1, 0)))


@pytest.mark.parametrize("gram, what", [
    (((2.7,),), r"entry \[0\]\[0\]"),
    (((2, 1), (True, 2)), r"entry \[1\]\[0\]"),
    (((2,), 2), "row 1"),
])
def test_reduced_form_entries_are_strict_integers(gram, what):
    with pytest.raises(DomainError, match=what):
        ReducedForm(gram)


def test_short_vectors_a2():
    gram = ((2, 1), (1, 2))
    vs = short_vectors(gram, 2)
    assert len(vs) == 6  # the six roots of a hexagonal lattice
    assert all(norm_of(gram, v) == 2 for v in vs)
    assert vector_counts(gram, 4) == ((2, 6),)


def test_short_vectors_against_box_oracle():
    # brute-force box enumeration as an independent oracle; reduced forms
    # of small determinant have no norm-8 vectors outside the box
    import itertools
    import random

    rng = random.Random(11)
    pool = [f.gram for det in range(2, 20) for f in enumerate_reduced(2, det)]
    pool += [f.gram for det in range(2, 16) for f in enumerate_reduced(3, det)]
    for gram in rng.sample(pool, min(40, len(pool))):
        n = len(gram)
        box = 15 if n == 2 else 9
        brute = {
            v
            for v in itertools.product(range(-box, box + 1), repeat=n)
            if any(v) and norm_of(gram, v) <= 8
        }
        assert set(short_vectors(gram, 8)) == brute


@st.composite
def definite_grams(draw):
    """A positive-definite Gram of rank <= 3 (not necessarily even or
    reduced) in a seeded unimodular basis."""
    n = draw(st.integers(1, 3))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(st.integers(1, 8))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    assume(all(leibniz_det([row[:k] for row in g[:k]]) > 0 for k in range(1, n + 1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in p:
            row[j] += c * row[i]
    return tuple(tuple(sum(p[a][i] * g[a][b] * p[b][j] for a in range(n) for b in range(n))
                       for j in range(n)) for i in range(n))


@settings(max_examples=100, deadline=None)
@given(definite_grams(), st.data())
def test_short_vectors_match_box_oracle_in_any_basis(gram, data):
    n = len(gram)
    bound = data.draw(st.integers(-1, 2 * max(gram[i][i] for i in range(n))))
    # Q(x) <= B forces x_i^2 <= B * (G^-1)_ii = B * minor_ii / det
    det = leibniz_det(gram)
    box = [isqrt(max(bound, 0) * leibniz_det([[gram[a][b] for b in range(n) if b != i]
                                               for a in range(n) if a != i]) // det)
           for i in range(n)]
    brute = {v for v in itertools.product(*(range(-r, r + 1) for r in box))
             if any(v) and norm_of(gram, v) <= bound}
    found = short_vectors(gram, bound)
    assert len(found) == len(set(found))
    assert set(found) == brute


@pytest.mark.parametrize("gram", [
    ((0,),),
    ((-2,),),
    ((2, 3), (3, 2)),  # (1, -1) has norm -2
    ((0, 1), (1, 0)),
    ((2, 1, 0), (1, 2, 1), (0, 1, 0)),
    ((2, 1), (0, 2)),  # not symmetric
])
def test_short_vectors_refuse_grams_that_are_not_positive_definite(gram):
    with pytest.raises(DomainError):
        short_vectors(gram, 4)


def test_short_vectors_read_a_list_gram_like_a_tuple_gram():
    assert short_vectors([[2, 1], [1, 2]], 2) == short_vectors(((2, 1), (1, 2)), 2)
    assert vector_counts([[2, 1], [1, 2]], 4) == vector_counts(((2, 1), (1, 2)), 4)


@pytest.mark.parametrize("function", [short_vectors, vector_counts])
@pytest.mark.parametrize("gram, bound, error, match", [
    (((2.0, 1), (1, 2)), 2, DomainError, "entry \\[0\\]\\[0\\] must be an integer"),
    (((True,),), 2, DomainError, "entry \\[0\\]\\[0\\] must be an integer"),
    (((2, 1), (1,)), 2, DimensionError, "ragged"),
    (((2, 1), (1, 2)), 2.5, DomainError, "short-vector bound must be an integer"),
    (((2, 1, 0), (1, 2, 0)), 2, DomainError, "symmetric"),
], ids=["float entry", "bool entry", "ragged", "float bound", "not square"])
def test_short_vectors_refuse_malformed_input_by_name(function, gram, bound, error, match):
    with pytest.raises(error, match=match) as info:
        function(gram, bound)
    assert isinstance(info.value, K3latError)


@pytest.mark.parametrize("rank, det, match", [
    (True, 4, "rank must be an integer, got True"),
    (3, 84.0, "determinant must be an integer, got 84.0"),
    (2.0, 3, "rank must be an integer, got 2.0"),
])
def test_enumerate_reduced_refuses_non_integer_arguments(rank, det, match):
    with pytest.raises(DomainError, match=match):
        enumerate_reduced(rank, det)


def test_is_isometric_examples():
    f = ReducedForm(((2, 0), (0, 4)))
    assert is_isometric(f, f)
    # conjugating diag(2,4) by [[1,1],[0,1]] gives [[2,2],[2,6]]; its
    # reduced representative is diag(2,4) again
    assert is_isometric(f, ReducedForm(((2, 0), (0, 4))))
    assert not is_isometric(ReducedForm(((2, 0), (0, 2))), ReducedForm(((2, 1), (1, 2))))
    with pytest.raises(DomainError):
        is_isometric(f, ReducedForm(((2,),)))


def test_is_isometric_signed_variant():
    f = ReducedForm(((2, 1, 0), (1, 4, 1), (0, 1, 6)))
    g = ReducedForm(((2, -1, 0), (-1, 4, 1), (0, 1, 6)))  # flip e1 then e23 pairing
    assert f.det == g.det
    assert is_isometric(f, g)


def test_genus_rank2_det3():
    spec = GenusSpec(2, 3, disc_form(ReducedForm(((2, 1), (1, 2))).lattice()))
    count, reps = genus_class_count(spec)
    assert count == 1
    assert reps[0].gram == ((2, 1), (1, 2))


def test_genus_spec_validates_disc_order():
    with pytest.raises(DomainError):
        GenusSpec(2, 5, disc_form(ReducedForm(((2, 1), (1, 2))).lattice()))


def test_enumeration_is_complete_for_small_dets():
    # root lattices of rank 2/3 must appear among the enumerated classes
    a2 = ((2, 1), (1, 2))
    assert any(is_isometric(r, ReducedForm(a2)) for r in enumerate_reduced(2, 3))
    a3 = ((2, 1, 0), (1, 2, 1), (0, 1, 2))
    reps = enumerate_reduced(3, 4)
    assert any(is_isometric(r, ReducedForm(a3)) for r in reps)
    assert len(reps) == 1  # the rank-3 root lattice is alone in det 4


@pytest.mark.parametrize("det,count", [
    (3, 1), (4, 1), (7, 1), (8, 1), (11, 1), (12, 2), (15, 2), (16, 2),
])
def test_binary_class_counts(det, count):
    # hand enumeration over the reduced domain 2|g12| <= g11 <= g22,
    # e.g. det 15 gives [[2,1],[1,8]] and [[4,1],[1,4]]
    assert len(enumerate_reduced(2, det)) == count


SHIPPED_COMPLEMENTS = [
    ("A6,2*A3,3*A2,A1", 6048, 2),
    ("2*A4,2*A3,2*A2,A1", 7200, 2),
    ("D4,2*A4,3*A2,A1", 5400, 1),
]


@pytest.mark.parametrize("cfg,det,expected", SHIPPED_COMPLEMENTS + [
    # both used to hang in the isometry dedup the enumeration now avoids
    ("A5,A4,2*A3,2*A2", 4320, 2),
    ("A5,2*A4,2*A3", 2400, 2),
])
def test_rank19_complement_genus_counts(cfg, det, expected):
    lat = config_lattice(ADEConfig.parse(cfg))
    assert abs(lat.det) == det
    spec = GenusSpec(3, det, negate(disc_form(lat)))
    count, reps = genus_class_count(spec)
    assert count == expected
    # closure: every representative realizes the requested genus
    for r in reps:
        assert are_isomorphic(disc_form(r.lattice()), spec.disc)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not is_isometric(reps[i], reps[j])


def _flip_first(gram):
    """The Gram in the basis with e1 negated, isometric but not equal
    unless e1 is orthogonal to the rest."""
    n = len(gram)
    sign = [-1] + [1] * (n - 1)
    return tuple(tuple(sign[i] * sign[j] * gram[i][j] for j in range(n)) for i in range(n))


def test_is_isometric_terminates_on_canonical_forms():
    forms = [f for d in range(1, 301) for f in enumerate_reduced(2, d)]
    forms += [f for d in (84, 216, 288) for f in enumerate_reduced(3, d)]
    for f in forms:
        assert is_isometric(f, f)
        assert is_isometric(f, ReducedForm(_flip_first(f.gram)))


def test_rank2_counts_match_reduced_triples():
    # GL2(Z) classes of [[2a, b], [b, 2c]] with 4ac - b^2 = d are the
    # triples 0 <= b <= a <= c
    top = 3000
    triples = [0] * (top + 1)
    a = 1
    while 3 * a * a <= top:
        for b in range(a + 1):
            c = a
            while 4 * a * c - b * b <= top:
                triples[4 * a * c - b * b] += 1
                c += 1
        a += 1
    for d in range(1, top + 1):
        assert len(enumerate_reduced(2, d)) == triples[d], d


@pytest.mark.parametrize("rank", [2, 3])
def test_enumeration_matches_isometry_dedup(rank):
    # 102, 232, 328, 352, 438 and 494 are the least determinants at which
    # the conditions b = -2r, b = 2r, a = 2t, a + b + 2(r+s+t) >= 0,
    # a = 2s and a + b + 2(r+s+t) = 0 first decide between two Grams of
    # one class; the other conditions do so below 61
    dets = list(range(1, 61)) + [84, 102, 216, 232, 288, 328, 352, 438, 494]
    for d in dets:
        forms = enumerate_reduced(rank, d)
        reference = reference_classes(rank, d)
        assert len(forms) == len(reference), d
        for r in reference:
            assert sum(is_isometric(r, f) for f in forms) == 1, (d, r.gram)


def test_rank3_forms_are_eisenstein_reduced():
    for d in range(1, 301):
        for f in enumerate_reduced(3, d):
            (a, t, s), (_, b, r), (_, _, c) = f.gram
            assert a <= b <= c
            assert 2 * abs(t) <= a and 2 * abs(s) <= a and 2 * abs(r) <= b
            assert min(r, s, t) > 0 or max(r, s, t) <= 0
            assert a + b + 2 * (r + s + t) >= 0


def test_genus_path_never_tests_isometry(monkeypatch):
    def refuse(*args):
        raise AssertionError("isometry test on the genus path")

    for name in ("is_isometric", "short_vectors", "vector_counts"):
        monkeypatch.setattr(genus, name, refuse)
    for cfg, det, expected in SHIPPED_COMPLEMENTS:
        lat = config_lattice(ADEConfig.parse(cfg))
        count, _ = genus_class_count(GenusSpec(3, det, negate(disc_form(lat))))
        assert count == expected
    for rank in (1, 2, 3):
        for d in range(1, 301):
            enumerate_reduced(rank, d)
            genus_class_count(GenusSpec(rank, d))
