import json

import pytest

from genus_reference import reference_classes
from k3lat.cli import _group_from_file, main
from k3lat.errors import DomainError
from k3lat.pipeline import discriminant_chain, record_to_dict, shipped_records


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_records(tmp_path, records, mutate=None):
    objs = [record_to_dict(r) for r in records]
    if mutate:
        mutate(objs)
    path = tmp_path / "records.json"
    path.write_text(json.dumps(objs))
    return str(path)


def test_invariants_s4_filter(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--name", "S4")
    assert code == 0
    assert "-2^9*3^3" in out and "-2^7*3^3" in out
    assert "2^8*3^2" in out and "-2^6*3^2" in out


def test_invariants_l27_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "invariants", "--name", "L2(7)")
    assert code == 0
    data = json.loads(out)
    (rep,) = data["reports"]
    assert rep["d_h2g"]["value"] == "196"
    assert rep["d_sg"]["factored"] == "-2^2*7^2"
    assert rep["rank_h2g"] == 3
    assert any("784" in n for n in rep["notes"])


def test_invariants_full_file_exit_two(capsys):
    # A6 and M20 ship without h3_order, so their chains cannot run
    code, out, _ = run_cli(capsys, "invariants")
    assert code == 2
    assert "h3_order unknown" in out


def test_invariants_bad_glue_exits_two(tmp_path, capsys):
    # 25 does not divide |d(K)| = 13824 for the S4 configuration
    def mutate(objs):
        for o in objs:
            if o["name"] == "S4":
                o["glue_index"] = 5

    path = write_records(tmp_path, shipped_records(), mutate)
    code, out, err = run_cli(capsys, "invariants", path, "--name", "S4")
    assert code == 2
    assert "glue_index^2" in err


def test_invariants_inexact_chain_step_named(tmp_path, capsys):
    def mutate(objs):
        for o in objs:
            if o["name"] == "C2":
                o["glue_index"] = 3

    path = write_records(tmp_path, shipped_records(), mutate)
    code, out, err = run_cli(capsys, "invariants", path, "--name", "C2")
    assert code == 2
    assert "does not divide" in err or "not divisible" in err


def test_invariants_group_order_with_a_large_prime_exits_two(tmp_path, capsys):
    # 10^9 + 7 is prime, and no symplectic automorphism has an order above 8
    def mutate(objs):
        for o in objs:
            if o["name"] == "C2":
                o["group_order"], o["census"] = 10**9 + 7, None

    path = write_records(tmp_path, shipped_records(), mutate)
    code, out, err = run_cli(capsys, "invariants", path, "--name", "C2")
    assert code == 2
    assert "prime factor above 7" in err


@pytest.mark.parametrize("order", [2**13000, 1920, 960], ids=["2^13000", "1920", "960"])
def test_invariants_group_order_above_mukais_bound_exits_two(tmp_path, capsys, order):
    # a finite symplectic group has order at most 960 (Mukai); the JSON report
    # of 2^13000 used to fail in str(d_j), d_j having more than 4300 digits
    record = {"name": "big", "group_order": order, "census": None, "config": "16*A1",
              "glue_index": 1, "h3_order": 1, "provenance": ""}
    path = tmp_path / "records.json"
    path.write_text(json.dumps([record]))
    code, out, err = run_cli(capsys, "--json", "invariants", str(path))
    if order > 960:
        assert (code, out) == (2, "")
        assert err.startswith("error (inconsistent data): big: group order exceeds 960")
        assert err.count("\n") == 1
    else:
        assert err == ""
        assert [r["name"] for r in json.loads(out)["reports"]] == ["big"]


def test_verify_shipped_all_pass(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify")
    assert code == 0
    data = json.loads(out)
    assert all(r["xiao_ok"] for r in data["records"])
    assert all(r["rank_cross_ok"] for r in data["records"])
    assert data["profile"] == {"2": 8, "3": 6, "4": 4, "5": 4, "6": 2, "7": 3, "8": 2}
    assert data["tables_disjoint"] is True
    assert data["selfcheck_snf"] is True


def test_rank_cross_check_failure_in_chain_and_verify(tmp_path, capsys):
    # 24 + 5 * 8 = 64 fixed points do not average over a group of order 6
    def mutate(objs):
        for o in objs:
            if o["name"] == "C6":
                o["census"] = {"2": 5}

    path = write_records(tmp_path, shipped_records(), mutate)
    code, out, _ = run_cli(capsys, "--json", "verify", path)
    assert code == 0
    rows = {r["name"]: r["rank_cross_ok"] for r in json.loads(out)["records"]}
    assert rows["C6"] is False and rows["C5"] is True
    rec = next(r for r in shipped_records() if r.name == "C6").with_values(census={2: 5})
    report = discriminant_chain(rec)
    assert report.rank_cross_ok is False
    assert report.notes[0].startswith("rank cross-check failed: fixed-point total 64")


def test_verify_tampered_c3(tmp_path, capsys):
    def mutate(objs):
        for o in objs:
            if o["name"] == "C3":
                o["config"] = "7*A2"
                o["glue_index"] = 1

    path = write_records(tmp_path, shipped_records(), mutate)
    code, out, _ = run_cli(capsys, "--json", "verify", path)
    assert code == 0  # verify reports failures as content
    data = json.loads(out)
    bad = next(r for r in data["records"] if r["name"] == "C3")
    assert bad["xiao_ok"] is False
    assert data["profile"] is None


def test_verify_text_disjoint_line(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "disjoint: true" in out


def test_genus_rank1(capsys):
    code, out, _ = run_cli(capsys, "genus", "--rank", "1", "--det", "2")
    assert code == 0
    assert "classes: 1" in out


def test_genus_l27_disc_from_config(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "genus", "--rank", "3", "--det", "6048",
        "--disc-from-config", "A6,2*A3,3*A2,A1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert len(data["representatives"]) == 2


@pytest.mark.parametrize("rank,det", [(2, 256), (3, 84)])
def test_genus_terminates_on_former_hangs(capsys, rank, det):
    # both used to loop for ever in the short-vector scan of the old
    # isometry dedup
    code, out, _ = run_cli(capsys, "--json", "genus", "--rank", str(rank), "--det", str(det))
    assert code == 0
    assert json.loads(out)["count"] == len(reference_classes(rank, det)) == 7


def test_genus_resource_bound(capsys):
    code, _, err = run_cli(capsys, "genus", "--rank", "3", "--det", "200000")
    assert code == 3
    assert "bound" in err


def test_genus_disc_from_gram(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[2, 1], [1, 2]]}))
    code, out, _ = run_cli(capsys, "genus", "--rank", "2", "--det", "3",
                           "--disc-from-gram", str(path))
    assert code == 0
    assert "classes: 1" in out


def test_h3_commands(tmp_path, capsys):
    v4 = tmp_path / "v4.json"
    v4.write_text(json.dumps({"perm_generators": ["(1,2)", "(3,4)"]}))
    code, out, _ = run_cli(capsys, "h3", str(v4))
    assert code == 0
    assert "Z/2" in out

    c2 = tmp_path / "c2.json"
    c2.write_text(json.dumps({"cayley": [[0, 1], [1, 0]]}))
    code, out, _ = run_cli(capsys, "h3", str(c2))
    assert code == 0
    assert "trivial" in out

    s4 = tmp_path / "s4.json"
    s4.write_text(json.dumps({"perm_generators": ["(1,2)", "(1,2,3,4)"]}))
    code, _, err = run_cli(capsys, "h3", str(s4))
    assert code == 3
    assert "h3_order" in err


@pytest.mark.parametrize("payload, fragment", [
    ({"cayley": [[0, 1.9], [1, 0.2]]}, "Cayley table entry [0][1] must be an integer"),
    ({"cayley": 5}, "Cayley table must be a list of rows"),
    ({"perm_generators": [5]}, "perm_generators must be a list of cycle strings"),
    ({"perm_generators": "(1,2)"}, "perm_generators must be a list of cycle strings"),
])
def test_h3_rejects_malformed_group_exit_one(tmp_path, capsys, payload, fragment):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "h3", str(path))
    assert code == 1
    assert out == ""
    assert fragment in err


@pytest.mark.parametrize("payload, fragment", [
    ({"gram": [[2.9, 1], [1, 2]]}, "gram entry [0][0] must be an integer"),
    ({"gram": 5}, "gram must be a list of rows"),
])
def test_genus_rejects_non_integer_gram_exit_one(tmp_path, capsys, payload, fragment):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "genus", "--rank", "2", "--det", "3",
                             "--disc-from-gram", str(path))
    assert code == 1
    assert out == ""
    assert fragment in err


NINES = "9" * 5000


@pytest.mark.parametrize("config", [f"{NINES}*A1", f"A{NINES}"])
def test_genus_refuses_an_overlong_config_number_exit_one(capsys, config):
    code, out, err = run_cli(capsys, "genus", "--rank", "1", "--det", "2",
                             "--disc-from-config", config)
    assert code == 1
    assert out == ""
    assert err.startswith("error: configuration term") and err.count("\n") == 1


@pytest.mark.parametrize("argv, payload, what", [
    (["h3"], f'{{"cayley": [[{NINES}]]}}', "group file"),
    (["genus", "--rank", "1", "--det", "2", "--disc-from-gram"],
     f'{{"gram": [[{NINES}]]}}', "gram file"),
    (["invariants"], f'[{{"group_order": {NINES}}}]', "record file"),
])
def test_json_readers_refuse_an_overlong_integer_exit_one(tmp_path, capsys, argv, payload, what):
    path = tmp_path / "input.json"
    path.write_text(payload)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {what} holds an integer of more than 4300 digits\n"


def test_group_file_refuses_an_overlong_integer(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(f'{{"cayley": [[{NINES}]]}}')
    with pytest.raises(DomainError, match="group file holds an integer"):
        _group_from_file(str(path))


def test_tables_output(capsys):
    code, out, _ = run_cli(capsys, "--json", "tables")
    assert code == 0
    data = json.loads(out)
    assert ["C2", "16*A1"] in data["torus_quotients"]
    assert len(data["torus_quotients"]) == 8
    assert len(data["perfect_groups"]) == 4
    assert data["disjoint"] is True


def test_schema_rejection_exit_one(tmp_path, capsys):
    def mutate(objs):
        objs[0]["surprise"] = True

    path = write_records(tmp_path, shipped_records(), mutate)
    code, _, err = run_cli(capsys, "invariants", path)
    assert code == 1
    assert "unknown record fields" in err


@pytest.mark.parametrize("value", [24.9, True, None])
def test_non_integer_group_order_exit_one(tmp_path, capsys, value):
    def mutate(objs):
        for o in objs:
            if o["name"] == "S4":
                o["group_order"] = value

    path = write_records(tmp_path, shipped_records(), mutate)
    code, _, err = run_cli(capsys, "invariants", path, "--name", "S4")
    assert code == 1
    assert "group_order must be an integer" in err


def test_missing_file_exit_one(capsys):
    code, _, err = run_cli(capsys, "invariants", "/nonexistent/file.json")
    assert code == 1


def test_json_report_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--json", "invariants", "--name", "C")
    code2, out2, _ = run_cli(capsys, "--json", "invariants", "--name", "C")
    assert code1 == code2 == 0
    assert out1 == out2


def test_roundtrip_shipped_records(tmp_path, capsys):
    path = write_records(tmp_path, shipped_records())
    code1, out1, _ = run_cli(capsys, "--json", "verify")
    code2, out2, _ = run_cli(capsys, "--json", "verify", path)
    assert out1 == out2


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["genus", "--rank", "3"])  # --det missing
    assert info.value.code == 1


def test_verify_seed_flag(capsys):
    code, out, _ = run_cli(capsys, "--seed", "5", "verify")
    assert code == 0
    assert "selfcheck(snf/det, seed=5): pass" in out


def test_threads_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--threads", "2", "genus", "--rank", "3", "--det", "48"])
    assert info.value.code == 1
