"""Command-line interface: specs, reports, exit codes, determinism."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from modsocle.cli import (
    analysis_document,
    dumps_canonical,
    group_from_spec,
    main,
)
from modsocle.constructors import dihedral_group
from modsocle.errors import ParseError

from .oracles import group_to_document


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_from_spec_grammar():
    assert group_from_spec("cyclic:5").order == 5
    assert group_from_spec("abelian:2x4").order == 8
    assert group_from_spec("dihedral:16").order == 16
    assert group_from_spec("semidihedral:16").order == 16
    assert group_from_spec("quaternion:32").order == 32
    assert group_from_spec("extraspecial:27").order == 27
    assert group_from_spec("heisenberg:5").order == 125
    assert group_from_spec("holomorph-c8").order == 32
    assert group_from_spec("holomorph:4").order == 8
    assert group_from_spec("name:D8*D8").order == 32
    with pytest.raises(ParseError):
        group_from_spec("nonsense")
    with pytest.raises(ParseError):
        group_from_spec("name:NotAGroupName")


def test_group_from_file_and_semidirect_spec(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(group_to_document(group_from_spec("cyclic:4"))))
    assert group_from_spec(f"file:{path}").order == 4
    sd = tmp_path / "s3.json"
    sd.write_text(json.dumps({
        "normal": "cyclic:3",
        "complement": "cyclic:2",
        "action": [[0, 1, 2], [0, 2, 1]],
        "name": "S3",
    }))
    g = group_from_spec(f"semidirect:@{sd}")
    assert g.order == 6 and g.conjugacy_classes.count == 3


def test_analyze_dihedral_16(capsys):
    code, out, _ = run_cli(capsys, "analyze", "dihedral:16", "--prime", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["socle_ideal"] is True
    assert doc["verdicts"]["reynolds_ideal"] is True
    assert doc["criteria"]["two_element_class_criterion"] is True


def test_analyze_holomorph(capsys):
    code, out, _ = run_cli(capsys, "analyze", "holomorph-c8", "--prime", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimensions"]["socle_center"] == 10
    assert doc["dimensions"]["jacobson_center"] == 10
    assert doc["verdicts"]["socle_ideal"] is False


def test_analyze_semisimple_cyclic5(capsys):
    code, out, _ = run_cli(capsys, "analyze", "cyclic:5", "--prime", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["semisimple"] is True
    assert doc["dimensions"]["socle_center"] == doc["dimensions"]["center"] == 5
    assert doc["verdicts"]["socle_ideal"] is True  # abelian


@pytest.mark.parametrize("spec, prime", [("dihedral:16", "1000003"), ("quaternion:16", "1000003"),
                                         ("name:S4", "1000003"), ("name:E27", "1000003"),
                                         ("dihedral:16", "759250111")])
def test_analyze_at_a_large_prime_is_semisimple(capsys, spec, prime):
    """The prime divides no order here: the radical of the center is 0, the
    socle, Reynolds ideal and center all have the class count as dimension
    (Burnside: commuting pairs over |G|), and both verdicts say whether G is
    abelian. 759250111 is the largest prime with (p-1)^2 * 16 < 2^63."""
    code, out, _ = run_cli(capsys, "analyze", spec, "--prime", prime)
    assert code == 0
    table = np.asarray(group_from_spec(spec).table)
    classes = int(np.count_nonzero(table == table.T)) // len(table)
    abelian = bool(np.array_equal(table, table.T))
    doc = json.loads(out)
    dims, verdicts = doc["dimensions"], doc["verdicts"]
    assert dims["jacobson_center"] == 0
    assert dims["socle_center"] == dims["reynolds"] == dims["center"] == classes
    assert verdicts["socle_ideal"] is abelian and verdicts["reynolds_ideal"] is abelian


def test_analyze_above_the_int64_bound_of_the_group_exits_1(capsys):
    code, out, err = run_cli(capsys, "analyze", "dihedral:16", "--prime", "759250133")
    assert code == 1 and out == "" and "too large" in err


def test_analyze_markdown(capsys):
    code, out, _ = run_cli(capsys, "analyze", "dihedral:8", "--prime", "2",
                           "--format", "md")
    assert code == 0
    assert "## verdicts" in out and "socle_ideal: True" in out


def test_analyze_bad_spec_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "no-such:thing", "--prime", "2")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("spec, document", [
    ("file", {"format": "cayley", "table": [[0, 1], [1, 0.9]]}),
    ("file", {"format": "cayley", "table": [[False, True], [True, False]]}),
    ("file", {"format": "cayley", "table": [["0", "1"], ["1", "0"]]}),
    ("file", {"format": "perm", "generators": [[1, 0.0, 2]]}),
    ("semidirect", {"normal": "cyclic:3", "complement": "cyclic:2",
                    "action": [["a", "b", "c"], [0, 2, 1]]}),
    ("cyclic:0", None), ("dihedral:7", None), ("holomorph:1", None),
    ("quaternion:8", None), ("semidihedral:12", None), ("heisenberg:0", None),
    ("abelian:0", None), ("abelian:2x0", None),
    ("file", {"format": "cayley", "table": [[0, 1], [0, 1]]}),
    ("semidirect", {"normal": "quaternion:8", "complement": "cyclic:2",
                    "action": [[0, 1], [0, 1]]}),
    ("catalog", {"format": "cayley", "table": [[0, 1], [0, 1]]}),
    ("semidirect", {"normal": "cyclic:4", "complement": "cyclic:2",
                    "action": [[0, 1, 2, 3], [1, 0, 2, 3]]}),
    ("semidirect", {"normal": "cyclic:4", "complement": "cyclic:2",
                    "action": [[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3]]}),
    ("semidirect", {"normal": "cyclic:3", "complement": "cyclic:4",
                    "action": [[0, 1, 2], [0, 2, 1], [0, 2, 1], [0, 2, 1]]}),
    ("semidirect", {"normal": "cyclic:3", "complement": "cyclic:2",
                    "action": [[0, 1, 2], [0, 2, 1]], "name": 5}),
    ("semidirect", {"normal": "cyclic:3", "complement": "cyclic:2",
                    "action": [[0, 1, 2], [0, 2, 1]], "name": ["x"]}),
    ("manifest", {"id": "order32", "tags": "order32-complete"}),
    ("manifest", {"id": "order32", "tags": ["order32-complete", 32]}),
    ("manifest", {"id": 5, "tags": []}),
    ("file", {"format": "perm", "generators": [[]]}),
    ("file", {"format": "cayley", "order": True, "table": [[0]]}),
    ("catalog", {"format": "perm", "generators": [[]]})])
def test_malformed_input_is_a_parse_error(tmp_path, capsys, spec, document):
    """Only JSON integers are accepted, never coerced, and a descriptor's name
    and a catalog manifest's id must be JSON strings and its tags a list of
    them; a constructor's ValueError, OrderTooSmallError,
    NotAGroupError or InvalidActionError is a parse error too, not a
    traceback or a claim failure."""
    argv = ["analyze", spec, "--prime", "2"]
    if spec == "catalog":
        (tmp_path / "input.json").write_text(json.dumps(document))
        argv = ["census", "--prime", "2", "--catalog", str(tmp_path)]
    elif spec == "manifest":
        (tmp_path / "catalog.json").write_text(json.dumps(document))
        c2 = group_to_document(group_from_spec("cyclic:2"))
        (tmp_path / "c2.json").write_text(json.dumps(c2))
        argv = ["census", "--prime", "2", "--catalog", str(tmp_path)]
    elif document is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        argv[1] = f"file:{path}" if spec == "file" else f"semidirect:@{path}"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_analyze_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "dihedral:16", "--prime", "2")
    _, out2, _ = run_cli(capsys, "analyze", "dihedral:16", "--prime", "2")
    assert out1 == out2


def test_report_round_trip():
    doc = analysis_document(dihedral_group(8), 2)
    assert json.loads(dumps_canonical(doc)) == doc


def test_verify_suite_isoclinism(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "isoclinism", "--prime", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 6
    assert all(doc["all_agree"] for doc in lines)


@pytest.mark.parametrize("prime", [2, 3])
def test_verify_suite_a_exit_zero(capsys, prime):
    code, out, _ = run_cli(capsys, "verify", "--suite", "A", "--prime", str(prime))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 52
    assert all(doc["all_agree"] for doc in lines)


def test_verify_suite_b(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "B", "--prime", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(doc["all_agree"] for doc in lines)
    names = {doc["group"]["name"] for doc in lines}
    assert "C3wrC3" in names


def test_verify_corrupted_catalog_exit_2(tmp_path, capsys):
    (tmp_path / "bad.json").write_text("{broken")
    code, _, err = run_cli(capsys, "verify", "--suite", "A", "--prime", "2",
                           "--catalog", str(tmp_path))
    assert code == 2 and "error" in err


def test_census_builtin(capsys):
    code, out, _ = run_cli(capsys, "census", "--prime", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_agree"] is True
    assert doc["group_count"] == 52


def test_census_catalog_dir(tmp_path, capsys):
    for spec in ("cyclic:4", "dihedral:8"):
        g = group_from_spec(spec)
        (tmp_path / f"{g.name}.json").write_text(json.dumps(group_to_document(g)))
    code, out, _ = run_cli(capsys, "census", "--prime", "2", "--catalog", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["group_count"] == 2 and doc["counts"]["socle_ideal"] == 2


def test_census_false_complete_tag_exit_1(tmp_path, capsys):
    for spec in ("cyclic:4", "dihedral:8"):
        g = group_from_spec(spec)
        (tmp_path / f"{g.name}.json").write_text(json.dumps(group_to_document(g)))
    (tmp_path / "catalog.json").write_text(json.dumps(
        {"id": "bogus", "tags": ["order32-complete"]}))
    code, _, err = run_cli(capsys, "census", "--prime", "2", "--catalog", str(tmp_path))
    assert code == 1 and "census assertion failed" in err


def test_census_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "census", "--prime", "3")
    _, out2, _ = run_cli(capsys, "census", "--prime", "3")
    assert out1 == out2


@pytest.mark.parametrize("command", [["analyze", "dihedral:8"], ["verify", "--suite", "B"],
                                     ["census"]])
@pytest.mark.parametrize("prime", ["4", "1", "0", "-3"])
def test_non_prime_is_a_usage_error(capsys, command, prime):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--prime", prime])
    assert exc.value.code == 2
    assert "--prime" in capsys.readouterr().err


def test_prime_too_large_for_int64_is_a_usage_error(capsys):
    # 2^61 - 1 is prime; trial division up to its square root would not return
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "cyclic:2", "--prime", "2305843009213693951"])
    assert exc.value.code == 2
    assert "--prime" in (err := capsys.readouterr().err) and "too large" in err


GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


@pytest.mark.parametrize("argv", [("verify", "--suite", "all", "--prime", "2"),
                                  ("verify", "--suite", "all", "--prime", "3"),
                                  ("census", "--prime", "2"),
                                  ("census", "--prime", "3")])
def test_verify_and_census_stdout_match_recorded_digests(capsys, monkeypatch, argv):
    monkeypatch.delenv("MODSOCLE_CATALOG", raising=False)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["cli"][" ".join(argv)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


def test_smallgroup_216_86_analysis_matches_recorded_digest():
    """Pins the 216-86 table, which its written-down automorphism builds."""
    text = dumps_canonical(analysis_document(group_from_spec("smallgroup:216-86"), 3))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "90e7b732513c8e3b7688788b1ae1a9c30f6ca5460c4126a59c2020372ded4879")


@pytest.mark.parametrize("spec, p", [("dihedral:512", 2), ("quaternion:512", 2),
                                     ("holomorph:15", 2), ("dihedral:96", 3),
                                     ("dihedral:16", 100003), ("quaternion:16", 100003),
                                     ("name:S4", 100003), ("name:E27", 100003)])
def test_analysis_document_matches_recorded_digests(spec, p):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["jobs"][f"analyze:{spec}:p{p}"]
    text = dumps_canonical(analysis_document(group_from_spec(spec), p))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected
