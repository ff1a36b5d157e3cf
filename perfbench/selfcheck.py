"""Self-checks of the benchmark itself.

usage: python3 perfbench/selfcheck.py      (from the root of a source checkout)

Runs every query generator at a tiny size, shows that each workload's
correctness gate accepts a real answer and rejects deliberately corrupted
ones, exercises the tracer on a module binding and on a missing name, and
checks that BENCHMARK.json names exactly the metrics the runner reports.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import random
import sys

import reference as ref
import run
import tracer as tr
from workloads import HERE, ROOT, SRC, WORKLOADS

CHECKS = []


def check(name):
    def register(fn):
        CHECKS.append((name, fn))
        return fn
    return register


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def first_round(wname, seed):
    return next(WORKLOADS[wname]().rounds(random.Random(seed)))


def answer_for(wl, q):
    os.makedirs(run.WORK_DIR, exist_ok=True)
    wl.prepare(q, run.WORK_DIR)
    return wl.run(q, 0)


# -- generators ------------------------------------------------------------------


@check("generators are deterministic in the seed and vary with it")
def _():
    for wname in WORKLOADS:
        a, b, c = (first_round(wname, s) for s in (7, 7, 8))
        expect([(q.label, q.args) for q in a] == [(q.label, q.args) for q in b],
               f"{wname}: same seed, different queries")
        expect([(q.label, q.args) for q in a] != [(q.label, q.args) for q in c],
               f"{wname}: seeds 7 and 8 give the same queries")


@check("configuration enumeration at tiny rank, and the complements pool")
def _():
    expect(len(ref.all_configs(4)) == 6, "rank 4: A4, D4, A3+A1, 2A2, A2+2A1, 4A1")
    expect(len(ref.all_configs(19)) == 2207, "rank-19 configuration count")
    pool = {ref.config_text(c) for c in ref.all_configs(19)
            if ref.invariant_factor_count(c) <= 3
            and 2000 <= abs(ref.config_det(c)) <= 10800}
    data = json.load(open(os.path.join(HERE, "data", "complements.json")))
    expect(pool == set(data["pool"]) | set(data["cliffs"]), "pool differs from the enumeration")
    pool, draw = data["pool"], data["draw"]
    shipped = set(WORKLOADS["complements"].SHIPPED.values())
    expect(len(set(draw)) == len(draw), "the drawn configurations are distinct")
    expect(set(draw) <= set(pool) - shipped, "drawn from the pool, not shipped")
    expect(max(pool[c]["seconds"] for c in draw) < min(pool[c]["seconds"] for c in shipped),
           "a round sorts as draw < shipped")
    rounds = WORKLOADS["complements"]().rounds(random.Random(3))
    first = [next(rounds) for _ in range(3)]
    expect(all(len(r) == 4 for r in first), "3 shipped + one drawn")
    expect(len({q.label for r in first for q in r}) == 3 + 3, "no draw repeats in a run")


@check("h3 catalogue: valid tables, relabelling keeps identity at 0")
def _():
    for gname, (table, _) in ref.h3_catalogue().items():
        expect(ref.is_group_table(table), f"{gname} is not a group table")
    for q in first_round("h3", 1):
        expect(ref.is_group_table(q.args), f"relabelled {q.label} is not a group table")


@check("glue inputs: seeded bases keep the determinant")
def _():
    import k3lat.intmat as im

    for q in first_round("glue", 1):
        gram, _ = q.args
        expect(abs(im.det_exact(im.IntMatrix(gram))) == q.expect["order"], q.label)


@check("cli record files: A6/M20 get chain-consistent h3_order")
def _():
    for seed in range(5):
        for q in first_round("cli", seed):
            for r in q.expect.get("records", []):
                if r["h3_order"] is not None:
                    d = ref.chain(ref.parse_config(r["config"]), r["group_order"],
                                  r["glue_index"], r["h3_order"])
                    expect(d is not None, f"{r['name']} h3_order {r['h3_order']}")


# -- gates -------------------------------------------------------------------------


def _bites(wl, q, answer, corruptions):
    expect(wl.check(q, answer), f"{wl.name}: the gate rejects a correct answer ({q.label})")
    for what, bad in corruptions:
        expect(not run._checked(wl, q, bad), f"{wl.name}: the gate accepts {what}")


def _with_json(answer, edit, code=None):
    c, text = answer
    out = json.loads(text)
    edit(out)
    return (c if code is None else code), json.dumps(out)


def _other_genus(det, target):
    """An even positive-definite Gram of the given determinant whose
    discriminant form differs from the target."""
    for a in range(2, 40, 2):
        for b in range(a // 2 + 1):
            g2 = a * a - b * b
            if g2 > 0 and det % g2 == 0 and (det // g2) % 2 == 0:
                g = [[a, b, 0], [b, a, 0], [0, 0, det // g2]]
                if ref.gram_q_histogram(g) != target:
                    return g
    raise AssertionError("no Gram of another genus found")


@check("complements gate rejects corrupted answers")
def _():
    wl = WORKLOADS["complements"]()
    q = wl._query("seeded", "A6,2*A4,A3,A2")  # five classes, about half a second
    answer = answer_for(wl, q)
    reps = json.loads(answer[1])["representatives"]

    def count(out):
        out["count"] += 1

    def duplicate(out):
        out["representatives"][1] = out["representatives"][0]

    def isometric_copy(out):
        g = out["representatives"][0]  # swap basis vectors 0 and 1
        out["representatives"][1] = [[g[1][1], g[1][0], g[1][2]], [g[0][1], g[0][0], g[0][2]],
                                     [g[2][1], g[2][0], g[2][2]]]

    def other_genus(out):
        out["representatives"][0] = _other_genus(q.expect["det"], q.expect["target"])

    def entry(out):
        out["representatives"][0][2][2] += 2

    expect(len(reps) == 5, "A6,2*A4,A3,A2 has five classes")
    _bites(wl, q, answer, [
        ("a wrong count", _with_json(answer, count)),
        ("a repeated representative", _with_json(answer, duplicate)),
        ("two isometric representatives", _with_json(answer, isometric_copy)),
        ("a representative of another genus", _with_json(answer, other_genus)),
        ("a representative of the wrong determinant", _with_json(answer, entry)),
        ("a failing exit code", (3, answer[1])),
    ])


@check("glue gate rejects corrupted answers")
def _():
    wl = WORKLOADS["glue"]()
    q = wl._query("C7", random.Random(0))
    order, subs, induced = answer_for(wl, q)
    _bites(wl, q, (order, subs, induced), [
        ("a missing subgroup", (order, subs[:-1], induced[:-1])),
        ("a wrong induced order", (order, subs, [induced[0] * 7] + induced[1:])),
        ("a wrong subgroup order", (order, [1] + subs[1:], induced)),
        ("a wrong group order", (order * 7, subs, induced)),
    ])


@check("h3 gate rejects corrupted answers")
def _():
    wl = WORKLOADS["h3"]()
    q = wl._query("D4", random.Random(0))
    answer = answer_for(wl, q)

    def factors(out):
        out["h3_invariant_factors"] = []

    def order(out):
        out["order"] = 4

    _bites(wl, q, answer, [
        ("a trivial multiplier for D4", _with_json(answer, factors)),
        ("a wrong order", _with_json(answer, order)),
        ("a failing exit code", (1, answer[1])),
        ("unparsable output", (0, "H3 invariant factors: Z/2")),
    ])


@check("cli gate rejects corrupted answers")
def _():
    wl = WORKLOADS["cli"]()
    rnd = first_round("cli", 4)
    by_kind = {q.label.split(":")[0]: q for q in rnd}
    q = by_kind["invariants-file"]
    answer = answer_for(wl, q)

    def d_sg(out):
        out["reports"][0]["d_sg"]["value"] = str(int(out["reports"][0]["d_sg"]["value"]) + 1)

    def drop(out):
        out["reports"].pop()

    _bites(wl, q, answer, [
        ("a wrong d(S_G)", _with_json(answer, d_sg)),
        ("a missing report", _with_json(answer, drop)),
        ("exit code 2 on consistent records", (2, answer[1])),
    ])
    q = by_kind["tables"]
    answer = answer_for(wl, q)

    def torus(out):
        out["torus_quotients"][0][1] = "15*A1"

    _bites(wl, q, answer, [("a wrong table row", _with_json(answer, torus))])
    q = by_kind["verify"]
    answer = answer_for(wl, q)

    def profile(out):
        out["profile"]["2"] = 7

    _bites(wl, q, answer, [("a wrong fixed-point profile", _with_json(answer, profile))])


# -- tracer and report ----------------------------------------------------------


@check("tracer wraps module bindings, restores them, and reports absent names")
def _():
    import k3lat
    import k3lat.discforms as df
    import k3lat.genus as gm

    original = df.are_isomorphic
    t = tr.Tracer()
    t.install()
    try:
        expect(gm.are_isomorphic is df.are_isomorphic is k3lat.are_isomorphic,
               "every binding of are_isomorphic is rebound")
        expect(gm.are_isomorphic is not original, "are_isomorphic is wrapped")
        t.qid = 0
        spec = gm.GenusSpec(2, 3, None)
        k3lat.genus_class_count(spec)
    finally:
        t.uninstall()
    expect(df.are_isomorphic is original and gm.are_isomorphic is original, "uninstall")
    expect(any(s[3] == "genus.genus_class_count" for s in t.spans), "span recorded")
    metrics, absent = tr.aggregate(t.spans, t.wrapped - {"discforms.are_isomorphic"}, 1)
    expect("discforms.are_isomorphic" in absent, "a missing name is reported absent")
    expect(set(metrics) | set(tr.RUNNER_METRICS) == set(tr.metric_units()), "metric set")


@check("tail percentile keeps ten samples above it")
def _():
    expect(run.tail(list(range(11))) == (0, 9), "n=11")
    expect(run.tail(list(range(100))) == (89, 90), "n=100")
    for n in (11, 15, 24, 64, 300):
        value, _ = run.tail(list(range(n)))
        expect(n - 1 - value >= 10, f"n={n}")


@check("BENCHMARK.json names the metrics the runner reports")
def _():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS,
           "end_to_end")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == tr.metric_units(), "per_layer")
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workloads")


def main() -> int:
    sys.path.insert(0, SRC)
    failed = 0
    try:
        for name, fn in CHECKS:
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL  {name}: {exc}")
            else:
                print(f"ok    {name}")
    finally:
        import shutil

        shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    print(f"selfcheck: {len(CHECKS) - failed} of {len(CHECKS)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
