import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from det_reference import leibniz_det
from k3lat.discforms import disc_form
from k3lat.errors import DegenerateLatticeError, DomainError
from k3lat.intmat import IntMatrix, det_exact
from k3lat.lattices import (
    CONFIG_RANK_CAP,
    ADEConfig,
    GramLattice,
    RootComponent,
    ade_lattice,
    config_det,
    config_lattice,
    det_sign,
    direct_sum,
    disc_group,
    is_negative_definite,
    is_positive_definite,
    rescale,
    stabilizer_order,
)


def test_ade_examples():
    assert ade_lattice(RootComponent("A", 1)).gram == IntMatrix([[-2]])
    assert ade_lattice(RootComponent("E", 8)).det == 1
    d4 = ade_lattice(RootComponent("D", 4))
    assert d4.det == 4
    assert disc_group(d4) == (2, 2)


@pytest.mark.parametrize("kind,n,det", [
    ("A", 1, -2), ("A", 2, 3), ("A", 3, -4), ("A", 6, 7),
    ("D", 4, 4), ("D", 5, -4), ("D", 6, 4),
    ("E", 6, 3), ("E", 7, -2), ("E", 8, 1),
])
def test_ade_determinants(kind, n, det):
    lat = ade_lattice(RootComponent(kind, n))
    assert lat.det == det
    assert lat.even
    assert is_negative_definite(lat)
    assert det_sign(0, n) == (1 if det > 0 else -1)


@pytest.mark.parametrize("kind,n", [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("B", 2)])
def test_bad_components_rejected(kind, n):
    with pytest.raises(DomainError):
        RootComponent(kind, n)


@pytest.mark.parametrize("n", [1.0, True, "1"])
def test_root_component_rank_is_a_strict_integer(n):
    with pytest.raises(DomainError, match="root-system rank n must be an integer"):
        RootComponent("A", n)
    with pytest.raises(DomainError, match="root-system rank n must be an integer"):
        RootComponent("A", 1)._replace(n=n)


def test_direct_sum_examples():
    k_s4 = config_lattice(ADEConfig.parse("2*A3,3*A2,5*A1"))
    assert k_s4.rank == 17
    assert k_s4.det == -13824
    k_l27 = config_lattice(ADEConfig.parse("A6,2*A3,3*A2,A1"))
    assert k_l27.rank == 19
    assert k_l27.det == -6048
    empty = direct_sum([])
    assert empty.rank == 0
    assert empty.det == 1


def test_disc_group_examples():
    assert disc_group(ade_lattice(RootComponent("A", 1))) == (2,)
    assert disc_group(ade_lattice(RootComponent("E", 8))) == ()
    m_a5 = config_lattice(ADEConfig.parse("2*A4,3*A2,4*A1"))
    assert m_a5.rank == 18
    assert disc_group(m_a5) == (2, 6, 30, 30)


def test_disc_group_singular():
    for gram in ([[2, 2], [2, 2]], [[0]], [[2, 1, 3], [1, 2, 3], [3, 3, 6]]):
        with pytest.raises(DegenerateLatticeError):
            disc_group(GramLattice(gram))
        with pytest.raises(DegenerateLatticeError):
            disc_form(GramLattice(gram))


def test_rescale():
    a1 = ade_lattice(RootComponent("A", 1))
    assert rescale(a1, 1).gram == a1.gram
    assert rescale(a1, 2).gram == IntMatrix([[-4]])
    e8 = ade_lattice(RootComponent("E", 8))
    assert rescale(e8, 2).det == 2**8
    with pytest.raises(DomainError):
        rescale(a1, 0)


@pytest.mark.parametrize("k", [1.5, 2.0, True, "2"])
def test_rescale_factor_is_a_strict_integer(k):
    with pytest.raises(DomainError, match="scale factor"):
        rescale(ade_lattice(RootComponent("A", 1)), k)


def test_det_sign():
    assert det_sign(3, 2) == 1
    assert det_sign(0, 17) == -1
    assert det_sign(0, 0) == 1
    with pytest.raises(DomainError):
        det_sign(-1, 0)


@pytest.mark.parametrize("p,q,name", [(1.5, 0, "p"), (0, 1.0, "q"), (True, 0, "p"), (0, "19", "q")])
def test_det_sign_counts_are_strict_integers(p, q, name):
    with pytest.raises(DomainError, match=f"signature count {name} must be an integer"):
        det_sign(p, q)


@pytest.mark.parametrize("kind,n,order", [
    ("A", 1, 2), ("A", 6, 7), ("D", 4, 8), ("D", 5, 12),
    ("E", 6, 24), ("E", 7, 48), ("E", 8, 120),
])
def test_stabilizer_orders(kind, n, order):
    assert stabilizer_order(RootComponent(kind, n)) == order


def test_config_parsing():
    cfg = ADEConfig.parse("2*A3, 3*A2 ,5*A1")
    assert cfg.rank == 17
    assert str(cfg) == "2*A3,3*A2,5*A1"
    assert ADEConfig.parse(str(cfg)) == cfg
    assert ADEConfig.parse("A6").count("A", 6) == 1
    assert ADEConfig.parse("") == ADEConfig(())
    with pytest.raises(DomainError):
        ADEConfig.parse("2xA3")
    with pytest.raises(DomainError):
        ADEConfig.parse("A3+A2")


@pytest.mark.parametrize("text", ["9" * 5000 + "*A1", "A" + "9" * 5000, "9" * 101 + "*A1"])
def test_parse_refuses_an_overlong_number_by_name(text):
    # int() would raise a bare ValueError past 4300 digits
    with pytest.raises(DomainError, match="has a number of more than 100 digits"):
        ADEConfig.parse(text)


def test_config_multiset_equality():
    assert ADEConfig.parse("A1,A2") == ADEConfig.parse("A2,A1")
    assert ADEConfig.parse("2*A1") != ADEConfig.parse("A1")


def test_config_rank_cap():
    assert ADEConfig.parse("21*A1").rank == 21
    with pytest.raises(DomainError):
        ADEConfig.parse("22*A1")
    # refused from the multiplicities, before a billion components are built
    start = time.perf_counter()
    with pytest.raises(DomainError, match="rank 1000000002 exceeds the cap 21"):
        ADEConfig.parse("1000000000*A1,A2")
    assert time.perf_counter() - start < 0.5


ROOT_COMPONENTS = [
    *(RootComponent("A", n) for n in range(1, 22)),
    *(RootComponent("D", n) for n in range(4, 22)),
    *(RootComponent("E", n) for n in (6, 7, 8)),
]


@pytest.mark.parametrize("component", ROOT_COMPONENTS, ids=str)
def test_config_det_closed_form_per_component(component):
    config = ADEConfig((component,))
    assert config_det(config) == det_exact(config_lattice(config).gram)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(ROOT_COMPONENTS), max_size=12))
def test_config_det_closed_form_matches_bareiss(drawn):
    # keep the drawn components that still fit under the rank cap
    comps = []
    for c in drawn:
        if sum(x.n for x in comps) + c.n <= CONFIG_RANK_CAP:
            comps.append(c)
    config = ADEConfig(tuple(comps))
    assert config_det(config) == det_exact(config_lattice(config).gram)


def test_direct_sum_det_multiplicative():
    a2 = ade_lattice(RootComponent("A", 2))
    d5 = ade_lattice(RootComponent("D", 5))
    both = direct_sum([a2, d5])
    assert both.det == a2.det * d5.det


def test_definiteness_checks():
    e6 = ade_lattice(RootComponent("E", 6))
    assert is_negative_definite(e6)
    assert not is_positive_definite(e6)
    pos = GramLattice([[2, 1], [1, 2]])
    assert is_positive_definite(pos)
    assert not is_negative_definite(pos)
    assert not is_positive_definite(GramLattice([[2, 3], [3, 2]]))
    # a zero leading minor makes the elimination swap rows
    hyperbolic = GramLattice([[0, 1], [1, 0]])
    assert not is_positive_definite(hyperbolic)
    assert not is_negative_definite(hyperbolic)
    assert not is_positive_definite(GramLattice([[2, 2], [2, 2]]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_definiteness_matches_leading_minors(entries):
    n = len(entries)
    # a tripled diagonal makes definite matrices common, zero stays possible
    g = [[entries[max(i, j)][min(i, j)] * (3 if i == j else 1) for j in range(n)]
         for i in range(n)]
    for sign, test in ((1, is_positive_definite), (-1, is_negative_definite)):
        minors = [leibniz_det([[sign * x for x in row[:k]] for row in g[:k]])
                  for k in range(1, n + 1)]
        assert test(GramLattice(g)) == all(m > 0 for m in minors)


def test_gram_must_be_symmetric():
    with pytest.raises(DomainError):
        GramLattice([[0, 1], [2, 0]])
