from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3lat.errors import ChainInconsistencyError, DomainError, InconsistentDataError
from k3lat.lattices import (
    CONFIG_RANK_CAP,
    ADEConfig,
    config_lattice,
    disc_group,
    stabilizer_order,
)
from k3lat.pipeline import (
    DEFAULT_FIXED_POINT_PROFILE,
    ActionRecord,
    _euler_phi,
    derive_fixed_point_profile,
    discriminant_chain,
    factored,
    glue_quotient_order,
    rank_from_config,
    rank_from_group,
    record_from_dict,
    record_to_dict,
    records_from_json,
    records_to_json,
    shipped_records,
    tables_disjoint,
    torus_quotient_tables,
    xiao_consistency,
)

RECORDS = {r.name: r for r in shipped_records()}


def test_rank_from_config():
    assert rank_from_config(ADEConfig.parse("2*A3,3*A2,5*A1")) == 17
    assert rank_from_config(ADEConfig.parse("")) == 0
    assert rank_from_config(ADEConfig.parse("A6,2*A3,3*A2,A1")) == 19


def test_rank_from_group_examples():
    assert rank_from_group({2: 9, 3: 8, 4: 6}, 24) == 17
    assert rank_from_group({}, 1) == 0
    assert rank_from_group({2: 1}, 2, {2: 8}) == 8


def test_rank_from_group_errors():
    # non-integral average
    with pytest.raises(InconsistentDataError):
        rank_from_group({2: 1, 3: 1}, 5)
    # invariant rank below 4 is impossible data: (24 + 6*2)/12 = 3
    with pytest.raises(InconsistentDataError):
        rank_from_group({6: 6}, 12)


def test_xiao_consistency_examples():
    assert xiao_consistency(ADEConfig.parse("2*A3,3*A2,5*A1"), 24)
    assert xiao_consistency(ADEConfig.parse("A6,2*A3,3*A2,A1"), 168)
    assert not xiao_consistency(ADEConfig.parse("8*A1"), 4)
    assert xiao_consistency(ADEConfig.parse(""), 1)


def test_fixed_point_profile():
    profile = derive_fixed_point_profile(shipped_records())
    assert profile == {2: 8, 3: 6, 4: 4, 5: 4, 6: 2, 7: 3, 8: 2}
    assert profile == DEFAULT_FIXED_POINT_PROFILE


def test_profile_requires_all_cyclic_records():
    partial = [r for r in shipped_records() if r.name != "C5"]
    with pytest.raises(InconsistentDataError):
        derive_fixed_point_profile(partial)


@pytest.mark.parametrize("mutated_config", ["7*A1", "9*A1", "8*A1,A2"])
def test_profile_rejects_perturbed_c2(mutated_config):
    records = [
        r if r.name != "C2" else r.with_values(config=ADEConfig.parse(mutated_config))
        for r in shipped_records()
    ]
    with pytest.raises(InconsistentDataError):
        derive_fixed_point_profile(records)


def test_profile_rejects_perturbed_c4():
    # 12*A1 satisfies the stabilizer count for order 4 but fails the
    # rank cross-check, so the joint validation still rejects it
    records = [
        r if r.name != "C4" else r.with_values(config=ADEConfig.parse("12*A1"))
        for r in shipped_records()
    ]
    assert xiao_consistency(ADEConfig.parse("12*A1"), 4)
    with pytest.raises(InconsistentDataError):
        derive_fixed_point_profile(records)


EXPECTED_CHAINS = {
    "C2": (8, 256, 64, -256, -256, 256),
    "C3": (12, 729, 81, -729, -729, 729),
    "C4": (14, 1024, 64, -1024, -1024, 1024),
    "C5": (16, 625, 25, -625, -625, 625),
    "C6": (16, 1296, 36, -1296, -1296, 1296),
    "C7": (18, 343, 7, -343, -343, 343),
    "C8": (18, 512, 8, -512, -512, 512),
    "S4": (17, -13824, -3456, 2304, 576, -576),
    "L2(7)": (19, -6048, -6048, 784, 196, -196),
    "A5": (18, 10800, 10800, -1200, -300, 300),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_CHAINS))
def test_discriminant_chains(name):
    rep = discriminant_chain(RECORDS[name])
    rank, d_k, d_m, d_j, d_h2g, d_sg = EXPECTED_CHAINS[name]
    assert rep.rank_sg == rank
    assert (rep.d_k, rep.d_m, rep.d_j, rep.d_h2g, rep.d_sg) == (d_k, d_m, d_j, d_h2g, d_sg)
    assert rep.xiao_ok and rep.sign_ok and rep.rank_cross_ok
    assert abs(rep.d_sg) == abs(rep.d_h2g)
    assert rep.rank_h2g == 22 - rank


def test_chain_trivial_group():
    rec = ActionRecord("trivial", 1, {}, ADEConfig.parse(""), 1, 1, "")
    rep = discriminant_chain(rec)
    assert (rep.d_k, rep.d_m, rep.d_j, rep.d_h2g, rep.d_sg) == (1, 1, -1, -1, 1)
    assert rep.rank_sg == 0


def test_chain_signs():
    for name in EXPECTED_CHAINS:
        rep = discriminant_chain(RECORDS[name])
        r = rep.rank_sg
        assert (1 if rep.d_k > 0 else -1) == (-1) ** r
        assert (1 if rep.d_j > 0 else -1) == (-1) ** (19 - r)


def test_chain_refuses_incomplete_records():
    for name in ("A6", "M20"):
        with pytest.raises(ChainInconsistencyError) as info:
            discriminant_chain(RECORDS[name])
        assert "h3_order unknown" in str(info.value)


def test_chain_with_user_supplied_h3():
    # completing the A6 record with the classical multiplier order Z/6
    rec = RECORDS["A6"].with_values(h3_order=6)
    rep = discriminant_chain(rec)
    assert (rep.d_k, rep.d_j, rep.d_h2g, rep.d_sg) == (-7200, 6480, 180, -180)


def test_l27_discrepancy_note():
    rep = discriminant_chain(RECORDS["L2(7)"])
    assert any("784" in note and "2^4*7" in note for note in rep.notes)


def test_c2_involution_anchor():
    rep = discriminant_chain(RECORDS["C2"])
    assert abs(rep.d_sg) == 256


@pytest.mark.parametrize("name,field,value", [
    ("C2", "glue_index", 3),
    ("C3", "glue_index", 2),
    ("C5", "glue_index", 4),
    ("C7", "glue_index", 6),
    ("L2(7)", "h3_order", 3),
    ("C7", "h3_order", 2),
])
def test_mutated_records_rejected(name, field, value):
    # the guard fires either at record validation (glue^2 must divide d(K))
    # or at the corresponding chain division
    rec = RECORDS[name]
    with pytest.raises(InconsistentDataError):
        discriminant_chain(rec.with_values(**{field: value}))


@pytest.mark.parametrize("name,value,step", [
    ("L2(7)", 3, "d_h2g"),
    ("C7", 2, "d_h2g"),
])
def test_chain_names_failing_step(name, value, step):
    rec = RECORDS[name]
    mutated = rec.with_values(h3_order=value)
    with pytest.raises(ChainInconsistencyError) as info:
        discriminant_chain(mutated)
    assert info.value.step == step


def test_record_invariant_glue_divides():
    with pytest.raises(InconsistentDataError):
        RECORDS["S4"].with_values(glue_index=5)


def test_record_census_invariant():
    with pytest.raises(InconsistentDataError):
        RECORDS["S4"].with_values(census={2: 9, 3: 8, 4: 5})


def test_record_rank_invariant():
    with pytest.raises(InconsistentDataError):
        ActionRecord("big", 2, None, ADEConfig.parse("20*A1"), 1, 1, "").validate()


@pytest.mark.parametrize("order", [11, 2 * 13, 10**9 + 7])
def test_record_refuses_a_prime_above_seven_in_the_group_order(order):
    # symplectic elements have order <= 8, so by Cauchy no larger prime divides |G|
    rec = ActionRecord("big prime", order, None, ADEConfig.parse("16*A1"), 1, 1, "")
    with pytest.raises(InconsistentDataError, match="prime factor above 7"):
        rec.validate()


@pytest.mark.parametrize("order", [2**13000, 1920], ids=["2^13000", "1920"])
def test_record_refuses_a_group_order_above_mukais_bound(order):
    rec = ActionRecord("big", order, None, ADEConfig.parse("16*A1"), 1, 1, "")
    with pytest.raises(InconsistentDataError, match="group order exceeds 960"):
        rec.validate()


def _xiao_by_fractions(config, group_order):
    """The stabilizer count in exact rationals: the oracle for the integer one."""
    rhs = Fraction(24 * (group_order - 1), group_order)
    for c in config.components:
        n_i = stabilizer_order(c)
        rhs -= Fraction(n_i - 1, n_i)
    return Fraction(config.rank) == rhs


COMPONENT_TERMS = [
    *((f"A{n}", n) for n in range(1, CONFIG_RANK_CAP + 1)),
    *((f"D{n}", n) for n in range(4, CONFIG_RANK_CAP + 1)),
    *((f"E{n}", n) for n in (6, 7, 8)),
]


@st.composite
def config_texts(draw):
    """Configuration text of drawn components, cut off at the rank cap."""
    terms, rank = [], 0
    for term, n in draw(st.lists(st.sampled_from(COMPONENT_TERMS), max_size=CONFIG_RANK_CAP)):
        if rank + n <= CONFIG_RANK_CAP:
            terms.append(term)
            rank += n
    return ",".join(terms)


@settings(max_examples=300, deadline=None)
@given(config_texts(), st.integers(1, 960))
@example("8*A1", 2)
@example("A6,2*A3,3*A2,A1", 168)
@example("D4,2*A4,3*A2,A1", 960)
def test_xiao_count_matches_the_fraction_formula(text, order):
    config = ADEConfig.parse(text)
    assert xiao_consistency(config, order) == _xiao_by_fractions(config, order)


def test_glue_quotient_order():
    assert glue_quotient_order(RECORDS["L2(7)"]) == 1
    assert glue_quotient_order(RECORDS["S4"]) == 2
    assert glue_quotient_order(RECORDS["A5"]) == 1


def test_glue_indices_realized_by_isotropic_subgroups():
    # every shipped glue index must correspond to an actual isotropic
    # subgroup of the configuration's discriminant form, and gluing along
    # it must produce a group of exactly |d(M)| elements
    from k3lat.discforms import disc_form, isotropic_subgroups, overlattice_disc
    from k3lat.lattices import config_lattice

    for rec in shipped_records():
        if rec.glue_index is None or rec.glue_index == 1:
            continue
        q_k = disc_form(config_lattice(rec.config))
        subs = isotropic_subgroups(q_k, rec.glue_index)
        assert subs, rec.name
        ov = overlattice_disc(q_k, subs[0])
        assert ov.group_order == q_k.group_order // rec.glue_index**2, rec.name


def test_a5_disc_group_matches():
    assert disc_group(config_lattice(RECORDS["A5"].config)) == (2, 6, 30, 30)


def test_torus_tables_content():
    torus, perfect = torus_quotient_tables()
    torus_map = {}
    for name, cfg in torus:
        torus_map.setdefault(name, []).append(cfg)
    assert torus_map["C2"] == [ADEConfig.parse("16*A1")]
    assert len(torus_map["T24"]) == 2
    assert dict(perfect)["M20"] == ADEConfig.parse("D4,2*A4,3*A2,A1")
    assert len(torus) == 8 and len(perfect) == 4


def test_tables_disjoint():
    assert tables_disjoint()
    assert tables_disjoint([r.config for r in shipped_records()])
    assert not tables_disjoint([ADEConfig.parse("16*A1")])


def test_record_roundtrip():
    records = shipped_records()
    text = records_to_json(records)
    again = records_from_json(text)
    assert [record_to_dict(r) for r in again] == [record_to_dict(r) for r in records]


def test_record_schema_rejects_unknown_fields():
    from k3lat.errors import DomainError

    base = record_to_dict(RECORDS["C2"])
    base["extra"] = 1
    with pytest.raises(DomainError):
        record_from_dict(base)
    missing = record_to_dict(RECORDS["C2"])
    del missing["provenance"]
    with pytest.raises(DomainError):
        record_from_dict(missing)


def test_record_file_rejects_non_object_records():
    with pytest.raises(DomainError, match="JSON object"):
        records_from_json("[1]")


def test_record_file_refuses_an_overlong_integer_by_name():
    with pytest.raises(DomainError, match="record file holds an integer of more than"):
        records_from_json(f'[{{"group_order": {"9" * 5000}}}]')


@pytest.mark.parametrize("field, value", [
    ("group_order", 24.9),
    ("group_order", True),
    ("group_order", None),
    ("group_order", "24"),
    ("glue_index", 2.5),
    ("glue_index", False),
    ("h3_order", 2.7),
    ("census", {"2": 9.7, "3": 8, "4": 6}),
    ("census", {"2": 9, "3": 8, "4": 6, "04": 6}),
    ("census", {"2": 9, "03": 8, "4": 6}),
    ("census", {"2": 9, "+3": 8, "4": 6}),
    ("census", {"2": 9, "0_3": 8, "4": 6}),
    ("census", {"2": 9, " 3 ": 8, "4": 6}),
    ("census", [9, 8, 6]),
    ("name", None),
    ("name", 4),
    ("config", 7),
    ("provenance", None),
])
def test_record_schema_rejects_coercible_values(field, value):
    obj = record_to_dict(RECORDS["S4"])
    obj[field] = value
    with pytest.raises(DomainError, match=field):
        record_from_dict(obj)


def test_factored():
    assert factored(-13824) == "-2^9*3^3"
    assert factored(196) == "2^2*7^2"
    assert factored(1) == "1"
    assert factored(-1) == "-1"
    assert factored(0) == "0"
    assert factored(7) == "7"


def test_euler_phi_counts_coprime_residues():
    for n in range(1, 301):
        assert _euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
