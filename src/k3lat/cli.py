"""Command-line front end.

Subcommands: ``invariants`` (discriminant chains over a record file),
``verify`` (consistency matrix), ``genus`` (definite-lattice class
counts), ``h3`` (degree-3 cohomology oracle for small groups), and
``tables`` (built-in classification tables).

Exit codes: 0 success, 1 usage or malformed input, 2 mathematical
inconsistency, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import pipeline
from .errors import (
    ChainInconsistencyError,
    DomainError,
    InconsistentDataError,
    K3latError,
    ResourceLimitError,
)
from .intmat import IntMatrix, det_exact, parse_json, smith_normal_form, strict_int_rows
from .lattices import ADEConfig, GramLattice, config_lattice

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap to the documented code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="k3lat",
        description="Exact lattice invariants of symplectic group actions on K3 surfaces.",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized self-check in 'verify'")
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("invariants", help="run discriminant chains")
    pi.add_argument("file", nargs="?", default=None,
                    help="record file (JSON array); default: shipped records")
    pi.add_argument("--name", default=None,
                    help="only records whose name contains this substring")
    pi.set_defaults(run=cmd_invariants)

    pv = sub.add_parser("verify", help="consistency matrix over a record file")
    pv.add_argument("file", nargs="?", default=None,
                    help="record file (JSON array); default: shipped records")
    pv.set_defaults(run=cmd_verify)

    pg = sub.add_parser("genus", help="count classes of definite even lattices")
    pg.add_argument("--rank", type=int, required=True)
    pg.add_argument("--det", type=int, required=True)
    pg.add_argument("--disc-from-config", default=None, metavar="CONFIG",
                    help="use the negated discriminant form of this ADE config")
    pg.add_argument("--disc-from-gram", default=None, metavar="FILE",
                    help='use the discriminant form of {"gram": [[...]]} in FILE')
    pg.set_defaults(run=cmd_genus)

    ph = sub.add_parser("h3", help="H^3(G, Z) for a small group")
    ph.add_argument("group_file",
                    help='JSON with {"cayley": [[...]]} or {"perm_generators": [...]}')
    # None stands for groups.H3_DEFAULT_CAP, read in cmd_h3 so that building
    # the parser does not import groups
    ph.add_argument("--cap", type=int, default=None,
                    help="largest group order the oracle will attempt")
    ph.set_defaults(run=cmd_h3)

    pt = sub.add_parser("tables", help="print the built-in classification tables")
    pt.set_defaults(run=cmd_tables)
    return p


def _load_records(path):
    if path is None:
        return pipeline.shipped_records()
    with open(path, "r", encoding="utf-8") as fh:
        return pipeline.records_from_json(fh.read())


def _print_table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip())


def _flag(value):
    if value is None:
        return "-"
    return "pass" if value else "FAIL"


def cmd_invariants(args) -> int:
    records = _load_records(args.file)
    if args.name is not None:
        records = [r for r in records if args.name in r.name]
    reports = []
    failures = []
    for rec in records:
        try:
            reports.append(pipeline.discriminant_chain(rec))
        except ChainInconsistencyError as exc:
            failures.append({"name": rec.name, "step": exc.step, "error": str(exc)})
    if args.json:
        out = {
            "reports": [r.to_json_dict() for r in reports],
            "failures": failures,
        }
        print(json.dumps(out, indent=2))
    else:
        rows = []
        for r in reports:
            rows.append([
                r.name, r.rank_sg,
                pipeline.factored(r.d_k), pipeline.factored(r.d_m),
                pipeline.factored(r.d_j), pipeline.factored(r.d_h2g),
                pipeline.factored(r.d_sg),
                _flag(r.xiao_ok), _flag(r.rank_cross_ok), _flag(r.sign_ok),
            ])
        _print_table(rows, ["name", "rank", "d(K)", "d(M)", "d(J)", "d(H2G)",
                            "d(SG)", "xiao", "rank", "sign"])
        for r in reports:
            for note in r.notes:
                print(f"note [{r.name}]: {note}")
        for f in failures:
            print(f"FAILED [{f['name']}] at {f['step']}: {f['error']}")
    bad_flags = any(not r.all_ok() for r in reports)
    return EXIT_INCONSISTENT if failures or bad_flags else EXIT_OK


def _selfcheck_snf(seed, cases=50):
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        sf = smith_normal_form(m)
        prod = 1
        for d in sf.d:
            prod *= d
        if prod != abs(det_exact(m)):
            return False
        if sf.u.mul(m).mul(sf.v) != IntMatrix.diagonal(sf.d):
            return False
    return True


def cmd_verify(args) -> int:
    records = _load_records(args.file)
    try:
        profile = pipeline.derive_fixed_point_profile(records)
        profile_error = None
    except InconsistentDataError as exc:
        profile = None
        profile_error = str(exc)
    rows = []
    for rec in records:
        xiao = pipeline.xiao_consistency(rec.config, rec.group_order)
        cross, _ = pipeline.rank_cross_check(rec, profile)
        rows.append({"name": rec.name, "xiao_ok": xiao, "rank_cross_ok": cross})
    disjoint = pipeline.tables_disjoint([r.config for r in records])
    selfcheck = _selfcheck_snf(args.seed)
    if args.json:
        print(json.dumps({
            "records": rows,
            "profile": profile,
            "profile_error": profile_error,
            "tables_disjoint": disjoint,
            "selfcheck_snf": selfcheck,
        }, indent=2))
    else:
        _print_table(
            [[r["name"], _flag(r["xiao_ok"]), _flag(r["rank_cross_ok"])] for r in rows],
            ["name", "xiao", "rank-cross"],
        )
        if profile is not None:
            print(f"fixed-point profile: {profile}")
        else:
            print(f"fixed-point profile: FAILED ({profile_error})")
        print(f"disjoint: {'true' if disjoint else 'false'}")
        print(f"selfcheck(snf/det, seed={args.seed}): {_flag(selfcheck)}")
    return EXIT_OK


def cmd_genus(args) -> int:
    from . import genus as genusmod
    from .discforms import disc_form, negate

    if args.disc_from_config and args.disc_from_gram:
        raise DomainError("give at most one of --disc-from-config / --disc-from-gram")
    disc = None
    if args.disc_from_config:
        disc = negate(disc_form(config_lattice(ADEConfig.parse(args.disc_from_config))))
    elif args.disc_from_gram:
        with open(args.disc_from_gram, "r", encoding="utf-8") as fh:
            data = parse_json(fh.read(), "gram file")
        if not isinstance(data, dict) or "gram" not in data:
            raise DomainError('gram file must be JSON {"gram": [[...]]}')
        disc = disc_form(GramLattice(IntMatrix(strict_int_rows(data["gram"], "gram"))))
    spec = genusmod.GenusSpec(args.rank, args.det, disc)
    count, reps = genusmod.genus_class_count(spec)
    if args.json:
        print(json.dumps({
            "rank": args.rank,
            "det": args.det,
            "disc": None if disc is None else disc.to_json_dict(),
            "count": count,
            "representatives": [[list(row) for row in r.gram] for r in reps],
        }, indent=2))
    else:
        print(f"classes: {count}")
        for r in reps:
            print("  " + "; ".join(" ".join(str(x) for x in row) for row in r.gram))
    return EXIT_OK


def _group_from_file(path):
    from .groups import FiniteGroup

    with open(path, "r", encoding="utf-8") as fh:
        data = parse_json(fh.read(), "group file")
    if not isinstance(data, dict):
        raise DomainError("group file must be a JSON object")
    if "cayley" in data and "perm_generators" in data:
        raise DomainError("group file must give either cayley or perm_generators")
    if "cayley" in data:
        return FiniteGroup(data["cayley"])
    if "perm_generators" in data:
        gens = data["perm_generators"]
        if not isinstance(gens, list) or not all(isinstance(x, str) for x in gens):
            raise DomainError(
                f"perm_generators must be a list of cycle strings, got {gens!r}"
            )
        return FiniteGroup.from_cycles(gens)
    raise DomainError("group file needs a 'cayley' table or 'perm_generators'")


def _factors_str(factors) -> str:
    if not factors:
        return "trivial"
    return " x ".join(f"Z/{d}" for d in factors)


def cmd_h3(args) -> int:
    from .groups import H3_DEFAULT_CAP, h3_bar_resolution

    g = _group_from_file(args.group_file)
    factors = h3_bar_resolution(g, cap=H3_DEFAULT_CAP if args.cap is None else args.cap)
    if args.json:
        print(json.dumps({"order": g.order, "h3_invariant_factors": list(factors)}))
    else:
        print(f"H3 invariant factors: {_factors_str(factors)}")
    return EXIT_OK


def cmd_tables(args) -> int:
    torus, perfect = pipeline.torus_quotient_tables()
    if args.json:
        print(json.dumps({
            "torus_quotients": [[name, str(cfg)] for name, cfg in torus],
            "perfect_groups": [[name, str(cfg)] for name, cfg in perfect],
            "disjoint": pipeline.tables_disjoint(),
        }, indent=2))
    else:
        print("torus quotients:")
        _print_table([[name, str(cfg)] for name, cfg in torus], ["group", "config"])
        print("perfect groups:")
        _print_table([[name, str(cfg)] for name, cfg in perfect], ["group", "config"])
        print(f"disjoint: {'true' if pipeline.tables_disjoint() else 'false'}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ResourceLimitError as exc:
        print(f"error (resource bound): {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ChainInconsistencyError as exc:
        print(f"error (inconsistent at {exc.step}): {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except InconsistentDataError as exc:
        print(f"error (inconsistent data): {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (OSError, json.JSONDecodeError, K3latError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
