import itertools
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from det_reference import leibniz_det
from k3lat import discforms
from k3lat.cli import main
from k3lat.discforms import (
    FiniteQuadraticForm,
    are_isomorphic,
    disc_form,
    element_fingerprint,
    isotropic_subgroups,
    negate,
    orthogonal_sum,
    overlattice_disc,
    p_primary_parts,
)
from k3lat.errors import DomainError, InconsistentDataError, ResourceLimitError
from k3lat.intmat import IntMatrix
from k3lat.lattices import (
    ADEConfig,
    GramLattice,
    RootComponent,
    ade_lattice,
    config_lattice,
    direct_sum,
)

A1 = ade_lattice(RootComponent("A", 1))
A2 = ade_lattice(RootComponent("A", 2))
E8 = ade_lattice(RootComponent("E", 8))
Q_A1 = disc_form(A1)
Q_A2 = disc_form(A2)


def test_disc_form_examples():
    assert Q_A1.orders == (2,)
    assert Q_A1.q_of((1,)) == Fraction(3, 2)
    assert Q_A2.orders == (3,)
    assert Q_A2.q_of((1,)) == Fraction(4, 3)
    assert disc_form(E8).orders == ()


def test_disc_form_rejects_odd_and_singular():
    with pytest.raises(DomainError):
        disc_form(GramLattice([[1]]))
    with pytest.raises(DomainError):
        disc_form(GramLattice([[2, 2], [2, 2]]))


def test_negate():
    assert negate(disc_form(E8)).orders == ()
    assert negate(Q_A1).q_of((1,)) == Fraction(1, 2)
    assert negate(negate(Q_A2)) == Q_A2


def test_orthogonal_sum():
    total = orthogonal_sum([Q_A1] * 8)
    assert total.orders == (2,) * 8
    assert orthogonal_sum([]).orders == ()
    combined = disc_form(direct_sum([A2, A1]))
    assert are_isomorphic(combined, orthogonal_sum([Q_A2, Q_A1]))


def test_p_primary_parts():
    assert p_primary_parts(Q_A1) == {2: Q_A1}
    assert p_primary_parts(disc_form(E8)) == {}
    # a Z/6 form splits over {2, 3}
    q6 = FiniteQuadraticForm((6,), ((Fraction(1, 6),),))
    parts = p_primary_parts(q6)
    assert sorted(parts) == [2, 3]
    assert parts[2].orders == (2,)
    assert parts[3].orders == (3,)
    assert are_isomorphic(orthogonal_sum([parts[2], parts[3]]), q6)


def test_are_isomorphic_basics():
    assert are_isomorphic(Q_A2, Q_A2)
    d4_part = disc_form(ade_lattice(RootComponent("D", 4)))
    assert not are_isomorphic(Q_A1, d4_part)
    assert not are_isomorphic(Q_A2, negate(Q_A2))


def test_isomorphism_search_stays_within_budget():
    # A search that checks only at the leaves that the images generate the
    # group spent SEARCH_NODE_BUDGET on this order-1024 form against itself.
    f1 = FiniteQuadraticForm([4, 4, 2], [[Fraction(3, 2), 0, 0], [0, Fraction(3, 4), 0],
                                         [0, 0, 1]])
    f2 = FiniteQuadraticForm([4, 4, 2], [[Fraction(1, 2), 0, 0], [0, Fraction(3, 2), Fraction(1, 2)],
                                         [0, Fraction(1, 2), 0]])
    t = orthogonal_sum([f1, f2])
    assert are_isomorphic(t, t)
    assert are_isomorphic(orthogonal_sum([f2, f1]), t)
    # Mapping a small-order generator first spent the budget on this form.
    zero = FiniteQuadraticForm([2, 2, 4, 2, 4], [[0] * 5 for _ in range(5)])
    assert are_isomorphic(zero, zero)


def test_isomorphic_after_regluing_generators():
    # same group presented with swapped generators
    q = orthogonal_sum([Q_A1, Q_A2])
    swapped = orthogonal_sum([Q_A2, Q_A1])
    assert are_isomorphic(q, swapped)
    assert element_fingerprint(q) == element_fingerprint(swapped)


def test_isotropic_subgroups_trivial_form():
    trivial = disc_form(E8)
    assert isotropic_subgroups(trivial, 1) == [frozenset({()})]


def test_isotropic_subgroups_eight_a1():
    q = orthogonal_sum([Q_A1] * 8)
    subs = isotropic_subgroups(q, 2)
    # any 2-torsion vector of weight divisible by 4 is isotropic:
    # C(8,4) of weight 4 plus the single weight-8 vector
    brute = [
        x for x in itertools.product(range(2), repeat=8)
        if any(x) and q.q_of(x) == 0
    ]
    assert len(brute) == 71
    assert len(subs) == 71
    assert sorted({sum(next(iter(s - {q.zero}))) for s in subs}) == [4, 8]


def test_isotropic_subgroup_order_divides():
    with pytest.raises(DomainError):
        isotropic_subgroups(Q_A1, 3)


def test_isotropic_subgroups_s4_glue_exists():
    q_k = disc_form(config_lattice(ADEConfig.parse("2*A3,3*A2,5*A1")))
    subs = isotropic_subgroups(q_k, 2)
    assert subs
    ov = overlattice_disc(q_k, subs[0])
    assert ov.group_order == 13824 // 4


def test_overlattice_trivial_subgroup():
    q = orthogonal_sum([Q_A1, Q_A2])
    assert overlattice_disc(q, [q.zero]) == q


def test_overlattice_eight_a1():
    q = orthogonal_sum([Q_A1] * 8)
    sub = next(s for s in isotropic_subgroups(q, 2)
               if sum(next(iter(s - {q.zero}))) == 4)
    ov = overlattice_disc(q, sub)
    assert ov.group_order == 2**8 // 4


def test_overlattice_rejects_non_isotropic():
    q = orthogonal_sum([Q_A1, Q_A1])
    with pytest.raises(DomainError):
        overlattice_disc(q, [q.zero, (1, 0)])


def test_materialization_bound():
    big = orthogonal_sum([Q_A1] * 14)  # 2^14 elements
    with pytest.raises(ResourceLimitError):
        big.elements()
    with pytest.raises(ResourceLimitError):
        isotropic_subgroups(big, 2)
    with pytest.raises(ResourceLimitError):
        are_isomorphic(big, orthogonal_sum([Q_A1] * 14))


def test_form_validation():
    with pytest.raises(DomainError):
        FiniteQuadraticForm((1,), ((Fraction(0),),))
    with pytest.raises(DomainError):
        # q = 1/4 is too fine for Z/2
        FiniteQuadraticForm((2,), ((Fraction(1, 4),),))


def test_bilinear_polarization_small():
    # 2 b(x, y) = q(x+y) - q(x) - q(y) mod 2 on a whole small group
    forms = [
        orthogonal_sum([Q_A2, Q_A1]),
        disc_form(_seeded_basis(config_lattice(ADEConfig.parse("4*A1")), 0)),
        disc_form(_seeded_basis(config_lattice(ADEConfig.parse("A5,A2")), 4)),
    ]
    for q in forms:
        for x in q.elements():
            for y in q.elements():
                lhs = (q.q_of(q.add(x, y)) - q.q_of(x) - q.q_of(y)) % 2
                assert lhs == (2 * q.b_of(x, y)) % 2


@pytest.mark.parametrize("kind,n", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7),
])
def test_gauss_sum_signature_law(kind, n):
    # Milgram: sum of exp(i pi q(x)) has argument 2*pi*sig/8 and modulus
    # sqrt(|A|); for a negative-definite lattice sig = -rank.  Floating
    # point is fine here, the angles are eighths of a turn.
    import cmath

    q = disc_form(ade_lattice(RootComponent(kind, n)))
    total = sum(cmath.exp(1j * cmath.pi * float(q.q_of(x))) for x in q.elements())
    assert abs(abs(total) - q.group_order ** 0.5) < 1e-9
    angle = cmath.phase(total) / (2 * cmath.pi) * 8
    assert abs((angle + n) % 8) < 1e-9 or abs(((angle + n) % 8) - 8) < 1e-9


def test_weight4_glue_gives_d4_block():
    # gluing four A1 summands along half their sum is the D4 overlattice
    q = orthogonal_sum([Q_A1] * 4)
    glue = frozenset({(0, 0, 0, 0), (1, 1, 1, 1)})
    ov = overlattice_disc(q, glue)
    d4 = disc_form(ade_lattice(RootComponent("D", 4)))
    assert ov.group_order == 4
    assert are_isomorphic(ov, d4)


def test_disc_form_of_sum_matches_sum_of_forms():
    import random

    rng = random.Random(7)
    pool = [
        ade_lattice(RootComponent("A", 1)),
        ade_lattice(RootComponent("A", 2)),
        ade_lattice(RootComponent("A", 3)),
        ade_lattice(RootComponent("D", 4)),
        ade_lattice(RootComponent("E", 6)),
    ]
    for _ in range(50):
        parts = rng.choices(pool, k=rng.randint(1, 3))
        combined = disc_form(direct_sum(parts))
        blockwise = orthogonal_sum([disc_form(p) for p in parts])
        assert are_isomorphic(combined, blockwise)


def test_form_orders_are_strict_integers():
    with pytest.raises(DomainError, match="order 0"):
        FiniteQuadraticForm((2.5,), ((Fraction(1, 2),),))
    with pytest.raises(DomainError, match="order 1"):
        FiniteQuadraticForm((2, True), ((0, 0), (0, 0)))


@pytest.mark.parametrize("orders,gram,fragment", [
    # 3 * 1/3 is an integer, but 3^2 * 1/3 is odd, so q(3 g) would not vanish
    ((3,), ((Fraction(1, 3),),), "not well defined"),
    ((2, 2), ((0, Fraction(1, 2)), (0, 0)), "differ mod 1"),
    ((2,), ((Fraction(1, 4),),), "too fine"),
    ((2, 4), ((0, Fraction(-1, 4)), (Fraction(-1, 4), 0)), "too fine"),
])
def test_form_values_well_defined_and_symmetric(orders, gram, fragment):
    with pytest.raises(DomainError, match=fragment):
        FiniteQuadraticForm(orders, gram)


@pytest.mark.parametrize("entry", [0.5, "1/2", True])
def test_form_entries_are_ints_or_fractions(entry):
    with pytest.raises(DomainError, match=r"entry \[0\]\[1\]"):
        FiniteQuadraticForm((2, 2), ((0, entry), (entry, 0)))


@pytest.mark.parametrize("element,fragment", [
    ((1.9, 1.2, 1.0, True), "coordinate 0"),
    ((1, 1, 1, True), "coordinate 3"),
    ((1, 1, 1, 1, 0), "tuple of 4"),
    ([1, 1, 1, 1], "tuple of 4"),
])
def test_overlattice_elements_are_strict(element, fragment):
    q = orthogonal_sum([Q_A1] * 4)
    with pytest.raises(DomainError, match=fragment):
        overlattice_disc(q, [q.zero, element])


@pytest.mark.parametrize("element", [
    (1, 1, 1, 1, 1), (1, 1, 1), (0.5, 0, 0, 0), (True, 0, 0, 0), ("1", 0, 0, 0), 5,
])
def test_form_evaluation_refuses_non_elements(element):
    # a fifth coordinate used to be dropped and a float to escape as TypeError
    q = orthogonal_sum([Q_A1] * 4)
    for call in (lambda: q.q_of(element), lambda: q.b_of(element, q.zero),
                 lambda: q.b_of(q.zero, element), lambda: q.reduce(element),
                 lambda: q.add(element, q.zero), lambda: q.add(q.zero, element),
                 lambda: q.neg(element), lambda: q.order_of(element)):
        with pytest.raises(DomainError, match="not an element"):
            call()
    assert q.q_of([1, 1, 1, 1]) == 0 and q.add((1, 0, 1, 0), (1, 1, 0, 0)) == (0, 1, 1, 0)


def test_search_node_budget_is_enforced(monkeypatch, capsys):
    monkeypatch.setattr(discforms, "SEARCH_NODE_BUDGET", 2)
    q = orthogonal_sum([Q_A1] * 8)
    with pytest.raises(ResourceLimitError, match="SEARCH_NODE_BUDGET = 2"):
        isotropic_subgroups(q, 2)
    with pytest.raises(ResourceLimitError, match="SEARCH_NODE_BUDGET = 2"):
        are_isomorphic(q, q)
    q4 = disc_form(_seeded_basis(config_lattice(ADEConfig.parse("4*A3,2*A1")), 3))
    with pytest.raises(ResourceLimitError, match="SEARCH_NODE_BUDGET = 2"):
        isotropic_subgroups(q4, 4)
    # each order-2 subgroup costs one node, so a budget of exactly their
    # number finishes the order-2 search, and stops the order-4 search in
    # its second step
    lines = sum(1 for x in q4.elements() if q4.order_of(x) == 2 and q4.q_of(x) == 0)
    monkeypatch.setattr(discforms, "SEARCH_NODE_BUDGET", lines)
    assert len(isotropic_subgroups(q4, 2)) == lines
    with pytest.raises(ResourceLimitError, match=f"SEARCH_NODE_BUDGET = {lines}"):
        isotropic_subgroups(q4, 4)
    code = main(["genus", "--rank", "3", "--det", "6048",
                 "--disc-from-config", "A6,2*A3,3*A2,A1"])
    assert code == 3
    assert "SEARCH_NODE_BUDGET" in capsys.readouterr().err


@st.composite
def small_forms(draw, max_order=48):
    """A form on one to three cyclic factors of mixed orders, |A| <= max_order."""
    orders = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9]), min_size=1, max_size=3))
    assume(prod(orders) <= max_order)
    gram = [[0] * len(orders) for _ in orders]
    for i, d in enumerate(orders):
        # q_i = m / d is well defined on Z/d when d * m is even
        m = draw(st.integers(0, 2 * d - 1))
        gram[i][i] = Fraction(m - m % 2 if d % 2 else m, d)
        for j in range(i):
            g = gcd(d, orders[j])
            gram[i][j] = gram[j][i] = Fraction(draw(st.integers(0, g - 1)), g)
    return FiniteQuadraticForm(orders, gram)


_HALF_ON_1_2 = [[0, 0, 0], [0, 0, Fraction(1, 2)], [0, Fraction(1, 2), 0]]


@settings(max_examples=60, deadline=None)
@given(small_forms(), small_forms())
# degenerate, order 1024: unless each unit vector is tried first, the search exhausts its budget
@example(FiniteQuadraticForm([2, 8, 2], _HALF_ON_1_2), FiniteQuadraticForm([8, 2, 2], _HALF_ON_1_2))
def test_integer_gram_bookkeeping(f1, f2):
    total = orthogonal_sum([f1, f2])
    for x in f1.elements():
        for y in f2.elements():
            assert total.q_of(x + y) == (f1.q_of(x) + f2.q_of(y)) % 2
    assert are_isomorphic(orthogonal_sum(p_primary_parts(total).values()), total)
    k = len(total.orders)
    units = [tuple(int(i == t) for t in range(k)) for i in range(k)]
    rebuilt = FiniteQuadraticForm(total.orders, [
        [total.q_of(x) if i == j else total.b_of(x, y) for j, y in enumerate(units)]
        for i, x in enumerate(units)])
    # entries are read mod 2 on the diagonal and mod 1 off it
    shifted = FiniteQuadraticForm(total.orders, [
        [total.q_of(x) - 2 if i == j else total.b_of(x, y) + i - j
         for j, y in enumerate(units)] for i, x in enumerate(units)])
    assert rebuilt == shifted == total


# -- independent references for the Smith-transform constructions ------------

@st.composite
def even_lattices(draw, max_det=30):
    """(Gram in a seeded unimodular basis, det) of an even nondegenerate
    lattice of rank <= 3 with |det| <= max_det."""
    n = draw(st.integers(1, 3))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    det = leibniz_det(g)
    assume(det != 0 and abs(det) <= max_det)
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in p:
            row[j] += c * row[i]
    gram = [[sum(p[a][i] * g[a][b] * p[b][j] for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]
    return gram, det


def _brute_disc_fingerprint(gram, det):
    """(order, y^T G y mod 2) over y in G^-1 Z^n / Z^n, and the group order.

    G^-1 = adj(G) / det, so every class has a representative in
    (1/|det|) Z^n with coordinates in [0, 1); no Smith transform is used.
    """
    n, m = len(gram), abs(det)
    items = []
    for y in itertools.product(range(m), repeat=n):
        if any(sum(row[k] * y[k] for k in range(n)) % m for row in gram):
            continue
        v = [Fraction(c, m) for c in y]
        norm = sum(v[i] * gram[i][k] * v[k] for i in range(n) for k in range(n))
        items.append((lcm(1, *(x.denominator for x in v)), norm % 2))
    return tuple(sorted(items)), len(items)


@settings(max_examples=150, deadline=None)
@given(even_lattices())
def test_disc_form_matches_brute_force(lattice):
    gram, det = lattice
    q = disc_form(GramLattice(gram))
    fingerprint, order = _brute_disc_fingerprint(gram, det)
    assert order == abs(det)
    assert q.group_order == abs(det)
    assert element_fingerprint(q) == fingerprint


@settings(max_examples=60, deadline=None)
@given(even_lattices(), even_lattices())
def test_disc_form_of_direct_sum_is_orthogonal_sum(l1, l2):
    lats = [GramLattice(l1[0]), GramLattice(l2[0])]
    combined = disc_form(direct_sum(lats))
    assert are_isomorphic(combined, orthogonal_sum([disc_form(l) for l in lats]))


def _brute_quotient_fingerprint(q, h):
    """(order, q value) over the cosets of h in h_perp, by enumeration."""
    h = set(h)
    perp = [x for x in q.elements() if all(q.b_of(x, y) == 0 for y in h)]
    reps = {}
    for x in perp:
        reps.setdefault(min(q.add(x, y) for y in h), x)
    items = []
    for x in reps.values():
        k, cur = 1, x
        while cur not in h:
            cur, k = q.add(cur, x), k + 1
        items.append((k, q.q_of(x)))
    return tuple(sorted(items))


def _seeded_basis(lat, seed):
    rng = random.Random(seed)
    n = lat.rank
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        for row in p:
            row[j] += row[i]
    pm = IntMatrix(p)
    return GramLattice(pm.transpose().mul(lat.gram).mul(pm))


@pytest.mark.parametrize("config,seed", [
    ("4*A1", 0), ("2*A3", 1), ("3*A2", 2), ("A3,2*A1", 3), ("A5,A2", 4), ("D4,2*A1", 5),
])
def test_overlattice_disc_matches_brute_force(config, seed):
    q = disc_form(_seeded_basis(config_lattice(ADEConfig.parse(config)), seed))
    nontrivial = 0
    for order in range(2, q.group_order + 1):
        if q.group_order % (order * order):
            continue
        for h in isotropic_subgroups(q, order):
            induced = overlattice_disc(q, h)
            assert induced.group_order * order * order == q.group_order
            assert element_fingerprint(induced) == _brute_quotient_fingerprint(q, h)
            nontrivial += 1
    assert nontrivial


# the shipped records with glue index > 1 (C2..C8 and S4): configuration of
# K, the glue index [M : K], and the number of isotropic subgroups of that order
RECORD_GLUE = [("8*A1", 2, 71), ("6*A2", 3, 112), ("4*A3,2*A1", 4, 91), ("4*A4", 5, 36),
               ("2*A5,2*A2,2*A1", 6, 80), ("3*A6", 7, 8), ("2*A7,A3,A1", 8, 7),
               ("2*A3,3*A2,5*A1", 2, 31)]


@pytest.mark.parametrize("config,glue,count", RECORD_GLUE,
                         ids=[f"{config}-{glue}" for config, glue, _ in RECORD_GLUE])
def test_overlattice_induced_forms_are_basis_independent(config, glue, count):
    lat = config_lattice(ADEConfig.parse(config))
    multisets = []
    for seed in (0, 1):
        q = disc_form(_seeded_basis(lat, seed))
        subs = isotropic_subgroups(q, glue)
        assert len(subs) == count
        prints = []
        for h in subs:
            induced = overlattice_disc(q, h)
            assert induced.group_order * len(h) ** 2 == q.group_order
            # the parts' fingerprints determine the whole form's, at a
            # fraction of the cost on S4's order-3456 quotient
            prints.append([element_fingerprint(part)
                           for _, part in sorted(p_primary_parts(induced).items())])
        multisets.append(sorted(prints))
    assert multisets[0] == multisets[1]


def _span(q, gens):
    group = {q.zero}
    for g in gens:
        while True:
            grown = group | {q.add(h, g) for h in group}
            if grown == group:
                break
            group = grown
    return frozenset(group)


def _isotropic_subgroups_brute(q):
    """{order: isotropic subgroups}, with no search: a subgroup of a group
    with k cyclic factors is spanned by at most k elements, so the spans of
    all tuples of at most k elements are every subgroup."""
    elems = q.elements()
    spans = {frozenset({q.zero})}
    found = set(spans)
    for _ in q.orders:
        spans = {_span(q, h | {x}) for h in spans for x in elems}
        found |= spans
    out = {}
    for h in found:
        if all(q.q_of(x) == 0 for x in h):
            out.setdefault(len(h), set()).add(h)
    return out


@pytest.mark.parametrize("config", ["A5,A2", "2*A3", "A3,2*A1", "D4,2*A1", "A7,A1"])
@pytest.mark.parametrize("seed", [0, 1])
def test_isotropic_subgroups_are_complete(config, seed):
    q = disc_form(_seeded_basis(config_lattice(ADEConfig.parse(config)), seed))
    brute = _isotropic_subgroups_brute(q)
    for order in range(1, q.group_order + 1):
        if q.group_order % (order * order):
            continue
        subs = isotropic_subgroups(q, order)
        assert subs == sorted(subs, key=sorted)
        assert len(set(subs)) == len(subs)
        assert set(subs) == brute.get(order, set())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["A1", "A2", "A3", "D4"]), min_size=1, max_size=3),
       st.integers(0, 2**32))
def test_overlattice_disc_matches_brute_force_in_random_bases(summands, seed):
    lat = config_lattice(ADEConfig.parse(",".join(summands)))
    q = disc_form(_seeded_basis(lat, seed) if lat.rank > 1 else lat)
    for order in range(2, q.group_order + 1):
        if q.group_order % (order * order):
            continue
        for h in isotropic_subgroups(q, order):
            induced = overlattice_disc(q, h)
            assert induced.group_order * order * order == q.group_order
            assert element_fingerprint(induced) == _brute_quotient_fingerprint(q, h)


def test_glue_path_never_solves_over_q():
    q = disc_form(_seeded_basis(config_lattice(ADEConfig.parse("4*A3,2*A1")), 3))
    subs = isotropic_subgroups(q, 4)
    assert len(subs) == 91
    for h in subs:
        assert overlattice_disc(q, h).group_order * 16 == q.group_order


def _with_reversed_v(monkeypatch):
    """Make discforms see Smith forms whose v has its columns reversed."""
    real = discforms.smith_normal_form

    def corrupted(a):
        sf = real(a)
        return sf._replace(v=IntMatrix([row[::-1] for row in sf.v.rows]))

    monkeypatch.setattr(discforms, "smith_normal_form", corrupted)


def test_disc_form_guard_rejects_a_corrupted_transform(monkeypatch):
    _with_reversed_v(monkeypatch)
    with pytest.raises(InconsistentDataError, match="dual lattice"):
        disc_form(A2)


def test_overlattice_guard_rejects_a_corrupted_transform(monkeypatch):
    q = disc_form(_seeded_basis(config_lattice(ADEConfig.parse("4*A1")), 0))
    h = isotropic_subgroups(q, 2)[0]
    _with_reversed_v(monkeypatch)
    with pytest.raises(InconsistentDataError, match="not integral"):
        overlattice_disc(q, h)
