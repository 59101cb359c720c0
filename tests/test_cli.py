"""Command-line interface: exit codes, formats, and option handling."""

import io
import json
import subprocess
import sys

import pytest

from ellchow import IntPolynomial, smyth
from ellchow.cli import run


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


# -- hilbert ---------------------------------------------------------------------


def test_hilbert_text():
    code, text = invoke("hilbert", "--n", "2")
    assert code == 0
    assert text == "1 2 1\n"


def test_hilbert_space_and_degree():
    code, text = invoke("hilbert", "--n", "2", "--space", "lp", "--degree", "3")
    assert code == 0
    assert text == "1 1 1 0\n"


def test_hilbert_negative_degree(capsys):
    code, text = invoke("hilbert", "--n", "3", "--degree", "-1")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_hilbert_json():
    code, text = invoke("hilbert", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["ranks"] == [1, 2, 1]
    assert payload["space"] == "qstable(2,dm)"


# -- class -----------------------------------------------------------------------


def test_class_text_matches_library():
    from ellchow import ell_class, s_min

    code, text = invoke("class", "--n", "3", "--ell", "1 2 3")
    assert code == 0
    assert text.strip() == ell_class(3, s_min(3)).text()


def test_class_json_round_trips():
    code, text = invoke(
        "class", "--n", "2", "--nod", "1|2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["kind"] == "nod"
    assert payload["partition"] == "1|2"
    value = IntPolynomial.from_json_obj(payload["class"])
    from ellchow import nod_class, s_max

    assert value == nod_class(2, s_max(2))


def test_class_needs_exactly_one_kind(capsys):
    code, _ = invoke("class", "--n", "3")
    assert code == 2
    code, _ = invoke("class", "--n", "3", "--ell", "1 2 3", "--nod", "1 2 3")
    assert code == 2
    assert "error:" in capsys.readouterr().err


# -- restrict --------------------------------------------------------------------


def test_restrict_whole_block_divisor():
    code, text = invoke(
        "restrict", "--n", "4", "--partition", "1 2|3 4", "t{1,2}"
    )
    assert code == 0
    assert text.strip() == "-l"


def test_restrict_to_singular_model():
    code, text = invoke(
        "restrict", "--n", "4", "--partition", "1 2|3 4", "--ell", "t{1,2}"
    )
    assert code == 0
    assert text.strip() == "0"


@pytest.mark.parametrize("poly", ["t{7,8}", "t{1,7}", "t{1,2,7}"])
@pytest.mark.parametrize("ell", [False, True])
def test_restrict_marking_outside_ground_set(poly, ell, capsys):
    argv = ["restrict", "--n", "3", "--partition", "1 2|3", poly]
    code, text = invoke(*argv, *(["--ell"] if ell else []))
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == "error: element 7 not in ground set\n"


def test_restrict_bad_polynomial(capsys):
    code, _ = invoke("restrict", "--n", "3", "--partition", "1 2|3", "l +")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_restrict_nu_to_singular_model(capsys):
    code, text = invoke(
        "restrict", "--n", "6", "--partition", "1 2 3 4 5 6", "--ell", "nu"
    )
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_restrict_no_singular_model_over_open_stratum():
    code, _ = invoke(
        "restrict", "--n", "3", "--partition", "1|2|3", "--ell", "l"
    )
    assert code == 2


# -- present ---------------------------------------------------------------------


def test_present_text():
    code, text = invoke("present", "--n", "2")
    assert code == 0
    assert "qstable(2,dm)" in text
    assert "generators: l t{1,2}" in text


def test_present_json_lists_relations():
    code, text = invoke("present", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["symbols"] == ["l", "t{1,2}"]
    assert payload["deleted"] == []
    assert payload["relations"]  # at least the normal-bundle relation


def test_present_qfile(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(smyth(3, 1).to_json_obj()))
    code, text = invoke(
        "present", "--n", "3", "--space", f"qfile:{path}", "--format", "json"
    )
    assert code == 0
    assert json.loads(text)["name"] == "qstable(3,smyth:1)"


def test_present_missing_qfile():
    code, _ = invoke("present", "--n", "3", "--space", "qfile:/nonexistent.json")
    assert code == 2


def test_present_unknown_space():
    code, _ = invoke("present", "--n", "3", "--space", "banana")
    assert code == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"allowed": []},
        [],
        {"n": 3, "allowed": 5},
        {"n": 3, "allowed": [[1, 2]]},
        {"n": [3]},
    ],
)
def test_present_malformed_qfile(tmp_path, spec, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(spec))
    code, text = invoke("present", "--n", "3", "--space", f"qfile:{path}")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


# -- verify ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "target,n",
    [
        ("counts", "4"),
        ("duality", "3"),
        ("relations", "3"),
        ("appendix", "3"),
        ("torsion", "3"),
        ("getzler", "4"),
    ],
)
def test_verify_suites_pass(target, n):
    code, text = invoke("verify", target, "--n", n)
    assert code == 0, text
    lines = text.strip().splitlines()
    total = len(lines) - 1
    assert lines[-1] == f"passed {total}/{total}"


def test_verify_json_format():
    code, text = invoke("verify", "counts", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["passed"] is True
    assert all(c["status"] == "ok" for c in payload["checks"])
    assert {c["name"] for c in payload["checks"]} == {
        f"counts:genus-zero:{k}" for k in (4, 5, 6, 7)
    }


def test_verify_rejects_jobs_option():
    code, text = invoke("verify", "appendix", "--n", "3", "--jobs", "2")
    assert code == 2
    assert text == ""


def test_verify_detects_wrong_fixtures(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"1": {"1": "23*l^2"}}))
    code, text = invoke(
        "verify", "appendix", "--n", "1", "--fixtures", str(path)
    )
    assert code == 1
    assert "FAIL" in text


@pytest.mark.parametrize("table", [[1, 2], {"1": [1]}, {"1": {"1": 5}}])
def test_verify_malformed_fixtures(tmp_path, table, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, text = invoke(
        "verify", "appendix", "--n", "1", "--fixtures", str(path)
    )
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_getzler_reports_the_discrepancy_line():
    code, text = invoke("verify", "getzler")
    assert code == 0
    assert "getzler:coefficient-discrepancy" in text
    assert "getzler:boundary-expression" in text


# -- argument errors ---------------------------------------------------------------


def test_unknown_command_exits_two():
    code, _ = invoke("frobnicate")
    assert code == 2


def test_missing_required_marking_count():
    code, _ = invoke("present")
    assert code == 2


def test_unknown_verify_target():
    code, _ = invoke("verify", "everything")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "relations", "--n", "9"),
        ("verify", "appendix", "--n", "7"),
        ("hilbert", "--n", "0", "--space", "dm"),
        ("class", "--n", "7", "--ell", "1 2"),
    ],
)
def test_marking_count_out_of_range_exits_two(argv, capsys):
    code, _ = invoke(*argv)
    assert code == 2
    assert "out of range" in capsys.readouterr().err


# -- console entry point -------------------------------------------------------------


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ellchow.cli", "hilbert", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 1"
