"""Verification engine for symplectic-action lattice records.

Each record carries a group order, an element-order census, the ADE
configuration of the quotient's exceptional curves, the glue index
[M : K] of the primitive closure, and |H^3(G, Z)|.  From these the
discriminant chain walks

    d(K) -> d(M) -> d(J) -> d(H^2(X)^G) -> d(S_G)

with every division required to be exact, and the independent counting
formulas (stabilizer-weighted point counts, invariant-cohomology rank)
serve as cross-checks.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from math import lcm

from .errors import ChainInconsistencyError, DomainError, InconsistentDataError
from .intmat import factorize, parse_json, strict_int
from .lattices import ADEConfig, config_det, det_sign, stabilizer_order

K3_RANK = 22
TOTAL_COHOMOLOGY_RANK = 24

# Fixed-point count of an automorphism, by its order.  Each value is the
# unique exact-rational solution of the stabilizer-weighted point count on
# the corresponding cyclic record; derive_fixed_point_profile recomputes
# and cross-validates them from record data.
DEFAULT_FIXED_POINT_PROFILE = {2: 8, 3: 6, 4: 4, 5: 4, 6: 2, 7: 3, 8: 2}

COKERNEL_INDEX_ASSUMPTION = (
    "index [H2(X)^G : J] taken equal to |H3(G,Z)| (exact transfer sequence)"
)

# the order of a finite group acting symplectically on a K3 surface is at
# most 960 (Mukai); M20 attains it
MAX_GROUP_ORDER = 960


class ActionRecord(namedtuple(
    "ActionRecord",
    "name group_order census config glue_index h3_order provenance",
    defaults=("",),
)):
    """One group's symplectic-action data, as shipped or user-supplied.

    ``census`` (element order -> count), ``glue_index`` and ``h3_order``
    may be None; ``config`` is an ADEConfig.
    """

    __slots__ = ()

    def validate(self):
        if self.group_order < 1:
            raise InconsistentDataError(f"{self.name}: group order must be positive")
        # symplectic elements have order <= 8, so by Cauchy no prime above 7 divides |G|
        rest = self.group_order
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest != 1:
            raise InconsistentDataError(
                f"{self.name}: group order {self.group_order} has a prime factor above 7"
            )
        if self.group_order > MAX_GROUP_ORDER:
            raise InconsistentDataError(
                f"{self.name}: group order exceeds {MAX_GROUP_ORDER}, the largest "
                f"order of a finite symplectic group (Mukai)"
            )
        if self.config.rank > 19:
            raise InconsistentDataError(
                f"{self.name}: configuration rank {self.config.rank} exceeds 19"
            )
        if self.census is not None:
            for n, m in self.census.items():
                if not (2 <= n <= 8) or m < 1:
                    raise InconsistentDataError(
                        f"{self.name}: census entry {n}: {m} out of range"
                    )
            total = sum(self.census.values())
            if total != self.group_order - 1:
                raise InconsistentDataError(
                    f"{self.name}: census counts {total} non-identity elements, "
                    f"expected {self.group_order - 1}"
                )
        if self.glue_index is not None:
            if self.glue_index < 1:
                raise InconsistentDataError(f"{self.name}: glue index must be positive")
            d_k = config_det(self.config)
            if d_k % self.glue_index**2:
                raise InconsistentDataError(
                    f"{self.name}: glue_index^2 = {self.glue_index**2} does not "
                    f"divide |d(K)| = {abs(d_k)}"
                )
        if self.h3_order is not None and self.h3_order < 1:
            raise InconsistentDataError(f"{self.name}: h3_order must be positive")
        return self

    def with_values(self, **kwargs) -> "ActionRecord":
        return self._replace(**kwargs).validate()


class InvariantReport(namedtuple(
    "InvariantReport",
    "name rank_sg rank_h2g d_k d_m d_j d_h2g d_sg xiao_ok rank_cross_ok sign_ok notes "
    "assumption",
    defaults=(COKERNEL_INDEX_ASSUMPTION,),
)):
    """Computed discriminant chain plus consistency flags for one record.

    ``rank_cross_ok`` is None without a census; ``notes`` is a tuple of
    strings.
    """

    __slots__ = ()

    def all_ok(self) -> bool:
        return self.xiao_ok and self.sign_ok and self.rank_cross_ok is not False

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "rank_sg": self.rank_sg, "rank_h2g": self.rank_h2g}
        for key in ("d_k", "d_m", "d_j", "d_h2g", "d_sg"):
            val = getattr(self, key)
            out[key] = {"value": str(val), "factored": factored(val)}
        out["xiao_ok"] = self.xiao_ok
        out["rank_cross_ok"] = self.rank_cross_ok
        out["sign_ok"] = self.sign_ok
        out["notes"] = list(self.notes)
        out["assumption"] = self.assumption
        return out


def factored(n: int) -> str:
    """Prime factorization string, e.g. -13824 -> '-2^9*3^3'."""
    if n == 0:
        return "0"
    sign = "-" if n < 0 else ""
    parts = [f"{p}^{e}" if e > 1 else f"{p}" for p, e in factorize(abs(n)).items()]
    return sign + ("*".join(parts) or "1")


def rank_from_config(config: ADEConfig) -> int:
    """Rank of the co-invariant sublattice: total curve count of the config."""
    return config.rank


def rank_from_group(census: dict, group_order: int, profile: dict | None = None) -> int:
    """Rank of the co-invariant sublattice from the element-order census.

    Averages fixed-point counts over the group: the invariant part of the
    full cohomology has rank (24 + sum m(n) f(n)) / |G|, and subtracting
    it from 24 leaves the co-invariant rank.
    """
    if group_order < 1:
        raise DomainError("group order must be positive")
    if profile is None:
        profile = DEFAULT_FIXED_POINT_PROFILE
    total = TOTAL_COHOMOLOGY_RANK
    for n, m in sorted(census.items()):
        if not (2 <= n <= 8):
            raise DomainError(f"census order {n} outside 2..8")
        if n not in profile:
            raise InconsistentDataError(f"no fixed-point count for order {n}")
        total += m * profile[n]
    if total % group_order:
        raise InconsistentDataError(
            f"fixed-point total {total} is not divisible by the group order "
            f"{group_order}; census and profile disagree"
        )
    rank_invariant = total // group_order
    if rank_invariant < 4:
        raise InconsistentDataError(
            f"invariant cohomology rank {rank_invariant} below the minimum 4"
        )
    return TOTAL_COHOMOLOGY_RANK - rank_invariant


def xiao_consistency(config: ADEConfig, group_order: int) -> bool:
    """Exact stabilizer count: does the config fit the group order?

    Each component is one singular point whose stabilizer order n_i is
    read off the singularity type; the count
    rank = 24 (|G| - 1) / |G| - sum (n_i - 1) / n_i
    is compared in integers over the common denominator |G| lcm(n_i).
    """
    if group_order < 1:
        raise DomainError("group order must be positive")
    orders = [stabilizer_order(c) for c in config.components]
    den = group_order * lcm(*orders)
    rhs = 24 * (group_order - 1) * (den // group_order)
    return config.rank * den == rhs - sum((n_i - 1) * (den // n_i) for n_i in orders)


def _euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def _cyclic_census(n: int) -> dict:
    return {d: _euler_phi(d) for d in range(2, n + 1) if n % d == 0}


def derive_fixed_point_profile(records) -> dict:
    """Fixed-point counts f(2)..f(8) from the cyclic records.

    f(n) is the number of A_{n-1} components in the order-n cyclic record
    (points with full stabilizer).  The result must satisfy both counting
    formulas on every cyclic record or the data is rejected.
    """
    cyclic = {}
    for rec in records:
        n = rec.group_order
        if 2 <= n <= 8 and rec.census is not None and rec.census == _cyclic_census(n):
            if n in cyclic:
                raise InconsistentDataError(f"two cyclic records of order {n}")
            cyclic[n] = rec
    missing = [n for n in range(2, 9) if n not in cyclic]
    if missing:
        raise InconsistentDataError(
            f"cyclic records missing for orders {missing}; cannot derive the profile"
        )
    profile = {n: cyclic[n].config.count("A", n - 1) for n in range(2, 9)}
    for n, rec in sorted(cyclic.items()):
        if not xiao_consistency(rec.config, n):
            raise InconsistentDataError(
                f"cyclic record {rec.name!r} fails the stabilizer count"
            )
        if rank_from_group(rec.census, n, profile) != rank_from_config(rec.config):
            raise InconsistentDataError(
                f"cyclic record {rec.name!r} fails the rank cross-check"
            )
    return profile


def rank_cross_check(rec: ActionRecord, profile: dict | None = None):
    """(ok, error): does the census rank match the configuration rank?

    ``ok`` is None without a census.  A census the profile cannot average
    gives (False, the reason).
    """
    if rec.census is None:
        return None, None
    try:
        rank = rank_from_group(rec.census, rec.group_order, profile)
    except InconsistentDataError as exc:
        return False, str(exc)
    return rank == rank_from_config(rec.config), None


def _sign(x: int) -> int:
    return 1 if x > 0 else -1


def discriminant_chain(rec: ActionRecord, profile: dict | None = None) -> InvariantReport:
    """Walk d(K) -> d(M) -> d(J) -> d(H^2^G) -> d(S_G) with exact divisions.

    Any inexact division aborts with the failing step named; that signals
    a wrong glue_index or h3_order.
    """
    rec.validate()
    r = rank_from_config(rec.config)
    d_k = config_det(rec.config)
    if rec.glue_index is None:
        raise ChainInconsistencyError(
            "d_m", f"{rec.name}: glue_index unknown; supply it to run the chain"
        )
    if rec.h3_order is None:
        raise ChainInconsistencyError(
            "d_h2g", f"{rec.name}: h3_order unknown; supply it to run the chain"
        )
    d_m = d_k // rec.glue_index**2
    power = rec.group_order ** (K3_RANK - r)
    if power % d_m:
        raise ChainInconsistencyError(
            "d_j",
            f"{rec.name}: |G|^{K3_RANK - r} = {power} not divisible by d(M) = {d_m}",
        )
    d_j = -(power // d_m)
    h3_sq = rec.h3_order**2
    if d_j % h3_sq:
        raise ChainInconsistencyError(
            "d_h2g", f"{rec.name}: d(J) = {d_j} not divisible by h3_order^2 = {h3_sq}"
        )
    d_h2g = d_j // h3_sq
    d_sg = det_sign(0, r) * abs(d_h2g)
    expected_sign = det_sign(3, 19 - r)
    sign_ok = _sign(d_j) == expected_sign and _sign(d_h2g) == expected_sign
    xiao_ok = xiao_consistency(rec.config, rec.group_order)
    notes = []
    rank_cross_ok, cross_error = rank_cross_check(rec, profile)
    if cross_error is not None:
        notes.append(f"rank cross-check failed: {cross_error}")
    if rec.group_order == 168 and abs(d_j) == 784:
        notes.append(
            "d(J) = 784 = 2^4*7^2; an often-quoted 2^4*7 drops the square and "
            "contradicts d(J)*d(M) = -|G|^3, so the chain keeps 784"
        )
    return InvariantReport(
        name=rec.name,
        rank_sg=r,
        rank_h2g=K3_RANK - r,
        d_k=d_k,
        d_m=d_m,
        d_j=d_j,
        d_h2g=d_h2g,
        d_sg=d_sg,
        xiao_ok=xiao_ok,
        rank_cross_ok=rank_cross_ok,
        sign_ok=sign_ok,
        notes=tuple(notes),
    )


def glue_quotient_order(rec: ActionRecord) -> int:
    """[M : K] for the record; 1 marks a primitively embedded configuration."""
    rec.validate()
    if rec.glue_index is None:
        raise ChainInconsistencyError(
            "glue_index", f"{rec.name}: glue_index unknown"
        )
    return rec.glue_index


# -- built-in classification tables ---------------------------------------

_TORUS_TABLE = (
    ("C2", "16*A1"),
    ("C3", "9*A2"),
    ("C4", "4*A3,6*A1"),
    ("C6", "A5,4*A2,5*A1"),
    ("Q8", "4*D4,3*A1"),
    ("Q12", "D5,3*A3,2*A2,A1"),
    ("T24", "A5,2*A3,4*A2"),
    ("T24", "E6,D4,4*A2,A1"),
)

_PERFECT_TABLE = (
    ("A5", "2*A4,3*A2,4*A1"),
    ("L2(7)", "A6,2*A3,3*A2,A1"),
    ("A6", "2*A4,2*A3,2*A2,A1"),
    ("M20", "D4,2*A4,3*A2,A1"),
)


def torus_quotient_tables():
    """(torus-quotient configs, perfect-group configs), as printed lists."""
    torus = tuple((name, ADEConfig.parse(cfg)) for name, cfg in _TORUS_TABLE)
    perfect = tuple((name, ADEConfig.parse(cfg)) for name, cfg in _PERFECT_TABLE)
    return torus, perfect


def tables_disjoint(extra_configs=()) -> bool:
    """No torus-quotient config reappears among the symplectic configs."""
    torus, perfect = torus_quotient_tables()
    torus_set = {cfg for _, cfg in torus}
    symplectic = {cfg for _, cfg in perfect} | set(extra_configs)
    return not (torus_set & symplectic)


# -- record file format ----------------------------------------------------


def _strict_str(value, what):
    if not isinstance(value, str):
        raise DomainError(f"{what} must be a string, got {value!r}")
    return value


def record_from_dict(obj: dict) -> ActionRecord:
    if not isinstance(obj, dict):
        raise DomainError("each record must be a JSON object")
    unknown = set(obj) - set(ActionRecord._fields)
    if unknown:
        raise DomainError(f"unknown record fields: {sorted(unknown)}")
    missing = set(ActionRecord._fields) - set(obj)
    if missing:
        raise DomainError(f"missing record fields: {sorted(missing)}")
    name = _strict_str(obj["name"], "name")
    census = obj["census"]
    if census is not None:
        if not isinstance(census, dict):
            raise DomainError(f"{name}: census must map orders to counts")
        for k in census:
            # one spelling per order: "04" or "+4" next to "4" would merge
            if not (type(k) is str and k.isdecimal() and str(int(k)) == k):
                raise DomainError(f"{name}: census key {k!r} is not a canonical decimal")
        census = {
            int(k): strict_int(v, f"{name}: census count for order {k}")
            for k, v in census.items()
        }

    def optional_int(field):
        value = obj[field]
        return None if value is None else strict_int(value, f"{name}: {field}")

    rec = ActionRecord(
        name=name,
        group_order=strict_int(obj["group_order"], f"{name}: group_order"),
        census=census,
        config=ADEConfig.parse(_strict_str(obj["config"], f"{name}: config")),
        glue_index=optional_int("glue_index"),
        h3_order=optional_int("h3_order"),
        provenance=_strict_str(obj["provenance"], f"{name}: provenance"),
    )
    return rec.validate()


def record_to_dict(rec: ActionRecord) -> dict:
    return {
        "name": rec.name,
        "group_order": rec.group_order,
        "census": None
        if rec.census is None
        else {str(k): v for k, v in sorted(rec.census.items())},
        "config": str(rec.config),
        "glue_index": rec.glue_index,
        "h3_order": rec.h3_order,
        "provenance": rec.provenance,
    }


def records_from_json(text: str) -> list:
    data = parse_json(text, "record file")
    if not isinstance(data, list):
        raise DomainError("record file must be a JSON array")
    return [record_from_dict(obj) for obj in data]


def records_to_json(records) -> str:
    return json.dumps([record_to_dict(r) for r in records], indent=2) + "\n"


def shipped_records() -> list:
    """The record set bundled with the package."""
    path = os.path.join(os.path.dirname(__file__), "data", "records.json")
    with open(path, encoding="utf-8") as fh:
        return records_from_json(fh.read())
