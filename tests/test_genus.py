import pytest

from k3lat.discforms import are_isomorphic, disc_form, negate
from k3lat.errors import DomainError, ResourceLimitError
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


@pytest.mark.parametrize("cfg,det,expected", [
    ("A6,2*A3,3*A2,A1", 6048, 2),
    ("2*A4,2*A3,2*A2,A1", 7200, 2),
    ("D4,2*A4,3*A2,A1", 5400, 1),
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
