"""The four workloads: query generators, the call into k3lat, and the gates.

A workload turns a seeded ``random.Random`` into an endless sequence of
rounds.  Every round holds the same mix of query kinds, so a run that
stops at a round boundary measures the same mix whatever the seed; the
seed only picks inputs within each kind.  ``prepare`` builds a query's
input files before the clock starts, ``run`` is the timed call, and
``check`` compares the answer with the independent references in
``reference.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORDS_FILE = os.path.join(SRC, "k3lat", "data", "records.json")


def load_data(name):
    with open(os.path.join(HERE, "data", name), "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Query:
    label: str
    args: list
    expect: dict = field(default_factory=dict)
    path: str | None = None


def _call_main(argv):
    """k3lat.cli.main in this process; (exit code, stdout)."""
    import k3lat.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = k3lat.cli.main(argv)
    return code, out.getvalue()


def _json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


# -- complements -------------------------------------------------------------


class Complements:
    """``genus --rank 3 --det |d(K)| --disc-from-config K`` for rank-19
    configurations.  A round is the three shipped perfect groups plus one
    seeded configuration from the ``draw`` list of the pool, ten that cost
    about half a shipped query.  Sorted, a round reads draw < M20, A6 <
    L2(7), so over the three rounds a run needs for its eleven queries the
    median (6th and 7th of 12) falls in the middle of the six M20 and A6
    samples and the tail rank (2nd) among the three drawn ones, whatever
    the seed draws."""

    name = "complements"
    in_process = True
    SHIPPED = {"L2(7)": "A6,2*A3,3*A2,A1", "A6": "2*A4,2*A3,2*A2,A1",
               "M20": "2*A4,D4,3*A2,A1"}

    def __init__(self):
        data = load_data("complements.json")
        self.classes = {c: e["classes"] for c, e in data["pool"].items()}
        self.draw = data["draw"]
        if set(self.SHIPPED.values()) & set(self.draw):
            raise ValueError("shipped configurations are not drawn")

    def rounds(self, rng):
        draw = rng.sample(self.draw, len(self.draw))
        turn = 0
        while True:
            picks = list(self.SHIPPED.items()) + [("seeded", draw[turn % len(draw)])]
            rng.shuffle(picks)
            yield [self._query(name, cfg) for name, cfg in picks]
            turn += 1

    def _query(self, name, cfg):
        comps = ref.parse_config(cfg)
        det = abs(ref.config_det(comps))
        return Query(
            label=f"{name}:{cfg}",
            args=["--json", "genus", "--rank", "3", "--det", str(det),
                  "--disc-from-config", cfg],
            expect={"det": det, "classes": self.classes[cfg], "components": comps},
        )

    def prepare(self, q, workdir):
        q.expect["target"] = ref.disc_q_histogram(q.expect["components"], negate=True)

    def run(self, q, qid):
        return _call_main(q.args)

    def check(self, q, answer):
        code, text = answer
        out = _json_or_none(text)
        if code != 0 or not isinstance(out, dict):
            return False
        reps = out.get("representatives")
        if out.get("count") != q.expect["classes"] or not isinstance(reps, list):
            return False
        if len(reps) != q.expect["classes"]:
            return False
        for g in reps:
            if not ref.is_even_positive_definite(g) or ref.det3(g) != q.expect["det"]:
                return False
            if ref.gram_q_histogram(g) != q.expect["target"]:
                return False
        return not any(ref.isometric(a, b)
                       for i, a in enumerate(reps) for b in reps[i + 1:])


# -- glue ----------------------------------------------------------------------


class Glue:
    """Primitive closure K in M: the isotropic subgroups of order [M : K] of
    disc(K), and the induced form on h_perp / h for each, with K given in a
    seeded random basis.  A round covers every shipped record with
    glue_index > 1."""

    name = "glue"
    in_process = True
    # record -> (configuration, glue index, number of isotropic subgroups)
    RECORDS = {
        "C2": ("8*A1", 2, 71), "C3": ("6*A2", 3, 112), "C4": ("4*A3,2*A1", 4, 91),
        "C5": ("4*A4", 5, 36), "C6": ("2*A5,2*A2,2*A1", 6, 80), "C7": ("3*A6", 7, 8),
        "C8": ("2*A7,A3,A1", 8, 7), "S4": ("2*A3,3*A2,5*A1", 2, 31),
    }

    # Copies per round (15 queries).  Six queries cost less than C6 (C7, C8,
    # C5 twice, S4 twice) and six more (C2, C3, C4 four times), so the median
    # falls in the middle of the C6 block, three per round because the cost
    # of C6 moves with the basis.  C2, C3 and C4 are the costliest records
    # (0.4-0.5 s); C4 comes four times, so for any run of 3 to 10 rounds the
    # tail rank (eleventh largest) falls inside the C2..C4 block, and for
    # more than 3 inside the C4 samples.
    COPIES = {"C2": 1, "C3": 1, "C4": 4, "C5": 2, "C6": 3, "C7": 1, "C8": 1, "S4": 2}
    ROUND = [name for name, k in sorted(COPIES.items()) for _ in range(k)]

    def rounds(self, rng):
        while True:
            names = rng.sample(self.ROUND, len(self.ROUND))
            yield [self._query(name, rng) for name in names]

    def _query(self, name, rng):
        cfg, glue, count = self.RECORDS[name]
        comps = ref.parse_config(cfg)
        g = ref.root_gram(comps)
        u = _unimodular(len(g), rng)
        gram = [[sum(u[a][i] * g[a][b] * u[b][j] for a in range(len(g)) for b in range(len(g)))
                 for j in range(len(g))] for i in range(len(g))]
        return Query(label=f"{name}:{cfg}", args=[gram, glue],
                     expect={"order": abs(ref.config_det(comps)), "subgroups": count})

    def prepare(self, q, workdir):
        pass

    def run(self, q, qid):
        import k3lat.discforms as df
        import k3lat.intmat as im
        import k3lat.lattices as lat

        gram, glue = q.args
        form = df.disc_form(lat.GramLattice(im.IntMatrix(gram)))
        subs = df.isotropic_subgroups(form, glue)
        induced = [df.overlattice_disc(form, h) for h in subs]
        return form.group_order, [len(h) for h in subs], [f.group_order for f in induced]

    def check(self, q, answer):
        order, sub_orders, induced = answer
        glue = q.args[1]
        return (order == q.expect["order"]
                and len(sub_orders) == q.expect["subgroups"]
                and all(s == glue for s in sub_orders)
                and all(o * glue * glue == order for o in induced))


def _unimodular(n, rng):
    """Product of n seeded elementary column operations col_j += +-col_i."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for r in range(n):
            u[r][j] += c * u[r][i]
    return u


# -- h3 --------------------------------------------------------------------------


class H3:
    """``h3`` on a Cayley table relabelled by the seed, identity kept at 0.

    A round is the whole catalogue of groups of order <= 12 in seeded order,
    each query under its own relabelling (49 queries).  The eight costliest
    groups (order 12, C11, C10, D5; 0.7-6 s) come once.  Below them C9
    (0.4-0.56 s) comes five times, so the tail rank (eleventh largest) is
    the middle C9 sample.  The order-8 groups (0.2 s) come four times each,
    and below them C1..C4 once and the other small groups twice (14
    queries), so the median falls in the middle of the 20 order-8 samples;
    C3xC3 (0.35-0.47 s) comes twice.  Relabelling moves the cost of a
    query by up to 25% at order 8 and 9, and by up to 2x at order 10 and
    12; blocks of one group or of groups of equal cost keep the median and
    the tail rank steady from seed to seed.
    """

    name = "h3"
    in_process = True

    # queries per round of each group that does not come once
    COPIES = {"C9": 5, "C3xC3": 2, "C8": 4, "C2^3": 4, "C2xC4": 4, "D4": 4, "Q8": 4,
              "C2xC2": 2, "C5": 2, "S3": 2, "C6": 2, "C7": 2}

    def __init__(self):
        self.catalogue = ref.h3_catalogue()
        self.round = [g for g in sorted(self.catalogue) for _ in range(self.COPIES.get(g, 1))]

    def rounds(self, rng):
        while True:
            names = rng.sample(self.round, len(self.round))
            yield [self._query(gname, rng) for gname in names]

    def _query(self, gname, rng):
        table, factors = self.catalogue[gname]
        perm = [0] + rng.sample(range(1, len(table)), len(table) - 1)
        return Query(label=gname, args=ref.relabel(table, perm),
                     expect={"order": len(table), "factors": list(factors)})

    def prepare(self, q, workdir):
        q.path = os.path.join(workdir, "group.json")
        with open(q.path, "w", encoding="utf-8") as fh:
            json.dump({"cayley": q.args}, fh)

    def run(self, q, qid):
        return _call_main(["--json", "h3", q.path])

    def check(self, q, answer):
        code, text = answer
        out = _json_or_none(text)
        return (code == 0 and isinstance(out, dict)
                and out.get("order") == q.expect["order"]
                and out.get("h3_invariant_factors") == q.expect["factors"])


# -- cli ---------------------------------------------------------------------------


class Cli:
    """One fresh ``python -m k3lat.cli`` process per query: ``invariants`` on
    a seeded record file, ``invariants --name``, ``verify`` and ``tables``."""

    name = "cli"
    in_process = False
    # Values of h3_order for which every division of the chain is exact.
    H3_CHOICES = {"A6": (1, 2, 3, 4, 6, 9, 12), "M20": (1, 2, 4, 8)}
    NAME_FILTERS = ("C", "A", "S4", "L2", "A5", "A6", "M20", "C8", "7")
    FIXED_POINT_PROFILE = {"2": 8, "3": 6, "4": 4, "5": 4, "6": 2, "7": 3, "8": 2}

    def __init__(self):
        with open(RECORDS_FILE, "r", encoding="utf-8") as fh:
            self.records = json.load(fh)
        self.tables = load_data("tables.json")
        self.span_dir = None  # set for a traced run: children write spans here

    def rounds(self, rng):
        while True:
            kinds = ["file", "name", "verify", "tables"]
            rng.shuffle(kinds)
            yield [self._query(kind, rng) for kind in kinds]

    def _query(self, kind, rng):
        if kind == "file":
            recs = [dict(r) for r in self.records]
            for r in recs:
                if r["name"] in self.H3_CHOICES:
                    r["h3_order"] = rng.choice(self.H3_CHOICES[r["name"]])
            rng.shuffle(recs)
            return Query(label="invariants-file", args=["--json", "invariants", None],
                         expect={"records": recs})
        if kind == "name":
            sub = rng.choice(self.NAME_FILTERS)
            recs = [r for r in self.records if sub in r["name"]]
            return Query(label=f"invariants-name:{sub}",
                         args=["--json", "invariants", "--name", sub],
                         expect={"records": recs})
        if kind == "verify":
            return Query(label="verify", args=["--json", "--seed", str(rng.randrange(10**6)),
                                               "verify"])
        return Query(label="tables", args=["--json", "tables"])

    def prepare(self, q, workdir):
        if q.label == "invariants-file":
            q.path = os.path.join(workdir, "records.json")
            with open(q.path, "w", encoding="utf-8") as fh:
                json.dump(q.expect["records"], fh)
            q.args[-1] = q.path

    def command(self, q, qid):
        if self.span_dir is None:
            return [sys.executable, "-m", "k3lat.cli"] + q.args
        spans = os.path.join(self.span_dir, f"spans-{qid}.json")
        return [sys.executable, os.path.join(HERE, "cli_child.py"), spans, str(qid)] + q.args

    def run(self, q, qid):
        proc = subprocess.run(self.command(q, qid), cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        return proc.returncode, proc.stdout

    def check(self, q, answer):
        code, text = answer
        out = _json_or_none(text)
        if not isinstance(out, dict):
            return False
        if q.label.startswith("invariants"):
            return self._check_invariants(q.expect["records"], code, out)
        if q.label == "verify":
            names = [r["name"] for r in self.records]
            return (code == 0 and out.get("profile") == self.FIXED_POINT_PROFILE
                    and out.get("tables_disjoint") is True
                    and out.get("selfcheck_snf") is True
                    and [r.get("name") for r in out.get("records", [])] == names
                    and all(r.get("xiao_ok") is True and r.get("rank_cross_ok") is True
                            for r in out["records"]))
        return (code == 0 and out.get("disjoint") is True
                and out.get("torus_quotients") == self.tables["torus_quotients"]
                and out.get("perfect_groups") == self.tables["perfect_groups"])

    def _check_invariants(self, recs, code, out):
        expected, unknown = {}, set()
        for r in recs:
            if r["h3_order"] is None:
                unknown.add(r["name"])
                continue
            comps = ref.parse_config(r["config"])
            d = ref.chain(comps, r["group_order"], r["glue_index"], r["h3_order"])
            if d is None:
                return False
            expected[r["name"]] = (22 - sum(n for _, n in comps), d)
        if code != (2 if unknown else 0):
            return False
        reports = out.get("reports", [])
        if {f.get("name") for f in out.get("failures", [])} != unknown:
            return False
        if sorted(r.get("name") for r in reports) != sorted(expected):
            return False
        for rep in reports:
            rank, d = expected[rep["name"]]
            if rep.get("rank_h2g") != rank:
                return False
            if any(rep.get(k, {}).get("value") != str(v) for k, v in d.items()):
                return False
            if not (rep.get("xiao_ok") and rep.get("sign_ok") and rep.get("rank_cross_ok")):
                return False
        return True


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (Complements, Glue, H3, Cli)}
