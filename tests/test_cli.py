"""Command-line interface: exit codes, formats, and option handling."""

import hashlib
import io
import itertools
import json
import shlex
import subprocess
import sys

import pytest

from ellchow import nod_class, s_max
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


def test_hilbert_negative_degree(monkeypatch, capsys):
    # rejected before the presentation is built
    def build(*args):
        raise AssertionError("presentation built")

    monkeypatch.setattr("ellchow.cli.qstable_presentation", build)
    code, text = invoke("hilbert", "--n", "3", "--degree", "-1")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == "error: degree -1 is negative\n"


@pytest.mark.parametrize("n, degree", [(3, 128), (4, 200)])
def test_hilbert_degree_past_the_largest_monomial_degree(monkeypatch, capsys, n, degree):
    # rejected before the presentation is built, not after the lower degrees
    def build(*args):
        raise AssertionError("presentation built")

    monkeypatch.setattr("ellchow.cli.qstable_presentation", build)
    code, text = invoke("hilbert", "--n", str(n), "--degree", str(degree))
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        f"error: degree {degree} exceeds 127, the largest monomial degree\n"
    )


def test_hilbert_at_the_largest_monomial_degree():
    code, text = invoke("hilbert", "--n", "1", "--space", "lp", "--degree", "127")
    assert code == 0
    assert text == "1 1" + " 0" * 126 + "\n"


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
    assert payload["class"] == nod_class(2, s_max(2)).to_json_obj()


@pytest.mark.parametrize(
    "argv",
    [
        ("class", "--n", "3", "--ell", "1 1|2 3"),
        ("restrict", "--n", "3", "--partition", "1 1|2 3", "l"),
    ],
)
def test_repeated_marking_in_a_partition_exits_two(argv, capsys):
    code, text = invoke(*argv)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "error: marking 1 repeated in block (1, 1)\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (("class", "--n", "3", "--ell", "1 2|3|"), "block 3 of partition '1 2|3|'"),
        (("class", "--n", "3", "--ell", ""), "block 1 of partition ''"),
        (("class", "--n", "3", "--nod", "|1 2 3"), "block 1 of partition '|1 2 3'"),
        (
            ("restrict", "--n", "3", "--partition", "1 2||3", "l"),
            "block 2 of partition '1 2||3'",
        ),
    ],
)
def test_empty_block_in_a_partition_exits_two(argv, message, capsys):
    code, text = invoke(*argv)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == f"error: {message} is empty\n"


def test_empty_block_in_a_qfile_exits_two(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"n": 3, "allowed": ["1 2 3", "1 2|"]}))
    code, text = invoke("present", "--n", "3", "--space", f"qfile:{path}")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "error: block 2 of partition '1 2|' is empty\n"
    )


def test_empty_block_in_a_fixture_file_exits_two(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"3": {"1 2|3|": "24*l^2"}}))
    code, text = invoke(
        "verify", "appendix", "--n", "3", "--fixtures", str(path)
    )
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "error: block 3 of partition '1 2|3|' is empty\n"
    )


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


@pytest.mark.parametrize(
    "partition,name,ell",
    [
        ("1|2|3|4", "t{3}", False),
        ("1 2|3 4", "t{1}", False),
        ("1 2|3 4", "t{1}", True),
        ("1 2|3|4", "t{3}", True),
    ],
)
def test_restrict_rejects_single_marking_divisors(partition, name, ell, capsys):
    argv = ["restrict", "--n", "4", "--partition", partition, name]
    code, text = invoke(*argv, *(["--ell"] if ell else []))
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        f"error: not an ambient generator: {name!r}\n"
    )


def test_restrict_bad_polynomial(capsys):
    code, _ = invoke("restrict", "--n", "3", "--partition", "1 2|3", "l +")
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "poly, message",
    [
        # a leading zero would make t{1,02} a second name of t{1,2}
        ("t{1,02} - t{1,2}", "malformed symbol name: 't{1,02}'"),
        ("t{0,1}", "element 0 not in ground set"),
        ("l^-1", "negative exponent -1 of l in 'l^-1'"),
        ("l^+1", "malformed factor 'l^+1' in 'l^+1'"),
    ],
)
def test_restrict_names_a_bad_symbol_or_exponent(poly, message, capsys):
    code, text = invoke("restrict", "--n", "4", "--partition", "1 2 3|4", poly)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    "poly, expected", [("-l", "-l\n"), ("-l*t{1,2}", "-l*d{2,3}\n")]
)
def test_restrict_reads_a_leading_minus_as_the_polynomial(poly, expected):
    # class text starts with '-' when its leading coefficient is negative,
    # so it can be fed back with or without '--'
    argv = ("restrict", "--n", "4", "--partition", "1 2 3|4")
    assert invoke(*argv, poly) == (0, expected)
    assert invoke(*argv, "--", poly) == (0, expected)


@pytest.mark.parametrize(
    "extra, code, stream, message",
    [
        (("-h",), 0, "out", "usage: ellchow restrict"),
        (("--bogus", "l"), 2, "err", "unrecognized arguments: --bogus"),
        (("--bogus",), 2, "err", "the following arguments are required: poly"),
        ((), 2, "err", "the following arguments are required: poly"),
    ],
)
def test_restrict_options_keep_their_exit_status(extra, code, stream, message, capsys):
    argv = ("restrict", "--n", "4", "--partition", "1 2 3|4") + extra
    assert invoke(*argv) == (code, "")
    assert message in getattr(capsys.readouterr(), stream)


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
    path.write_text(json.dumps({"n": 3, "allowed": ["1 2 3"]}))
    code, text = invoke(
        "present", "--n", "3", "--space", f"qfile:{path}", "--format", "json"
    )
    assert code == 0
    assert json.loads(text)["name"] == "qstable(3,smyth:1)"


def test_present_qfile_rejects_repeated_marking(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"n": 3, "allowed": ["1 2 3", "1 1 2 3"]}))
    code, text = invoke("present", "--n", "3", "--space", f"qfile:{path}")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "error: marking 1 repeated in block (1, 1, 2, 3)\n"
    )


def test_qfile_refuses_a_key_given_twice(tmp_path, capsys):
    # json keeps the last value of a repeated key: without the check this
    # file would be read as four markings, and hilbert would print the DM ranks
    path = tmp_path / "space.json"
    path.write_text('{"n": 3, "n": 4, "allowed": []}')
    code, text = invoke("hilbert", "--n", "4", "--space", f"qfile:{path}")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        'error: a singularity specification gives the key "n" twice\n'
    )


@pytest.mark.parametrize("command", ["restrict", "class", "qfile"])
def test_non_numeric_marking_names_token_and_partition(command, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"n": 3, "allowed": ["1 2 3", "1 x|2 3"]}))
    argv, token, partition = {
        "restrict": (
            ["restrict", "--n", "3", "--partition", "a|2 3", "l"], "a", "a|2 3"
        ),
        "class": (["class", "--n", "3", "--ell", "1 b|3"], "b", "1 b|3"),
        "qfile": (
            ["present", "--n", "3", "--space", f"qfile:{path}"], "x", "1 x|2 3"
        ),
    }[command]
    code, text = invoke(*argv)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        f"error: marking {token!r} of partition {partition!r} is not an integer\n"
    )


def test_present_missing_qfile():
    code, _ = invoke("present", "--n", "3", "--space", "qfile:/nonexistent.json")
    assert code == 2


def test_present_unknown_space():
    code, _ = invoke("present", "--n", "3", "--space", "banana")
    assert code == 2


def test_unparsable_smyth_bound_is_an_unknown_space(capsys):
    code, text = invoke("hilbert", "--n", "3", "--space", "smyth:x")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == "error: unknown space 'smyth:x'\n"


def test_present_lp_five_is_the_single_hodge_relation():
    # the only library presentation with a unit power relation, l^6
    code, text = invoke("present", "--n", "5", "--space", "lp")
    assert code == 0
    deleted = sorted(
        "t{" + ",".join(map(str, b)) + "}"
        for k in range(2, 6)
        for b in itertools.combinations(range(1, 6), k)
    )
    assert text == (
        "qstable(5,lp)\n"
        "generators: l\n"
        f"deleted: {' '.join(deleted)}\n"
        "  l^6\n"
    )


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


@pytest.mark.parametrize(
    "option,data,argv,message",
    [
        (
            "--space",
            {"n": "x", "allowed": []},
            ["present", "--n", "3"],
            'the marking count "n" of a singularity specification is "x", '
            "not an integer",
        ),
        (
            "--space",
            {"n": True, "allowed": []},
            ["present", "--n", "1"],
            'the marking count "n" of a singularity specification is true, '
            "not an integer",
        ),
        (
            "--space",
            {"n": 3, "convention": "BKN", "allowed": []},
            ["present", "--n", "3"],
            "unknown singularity convention 'BKN'",
        ),
        (
            "--fixtures",
            {"x": {}},
            ["verify", "appendix", "--n", "3"],
            "a fixture file's marking count is \"x\", not an integer",
        ),
        (
            "--fixtures",
            {"3": {}, "03": {}},
            ["verify", "appendix", "--n", "3"],
            "a fixture file lists marking count 3 twice",
        ),
        # the entry read would depend on the order
        (
            "--fixtures",
            {"2": {"1|2": "24*l^3", "2|1": "7*l^3"}},
            ["verify", "appendix", "--n", "2"],
            "a fixture file lists partition 1|2 twice for marking count 2",
        ),
        (
            "--fixtures",
            {"2": {"2|1": "7*l^3", "1|2": "24*l^3"}},
            ["verify", "appendix", "--n", "2"],
            "a fixture file lists partition 1|2 twice for marking count 2",
        ),
        # the check reads one entry of each shape
        (
            "--fixtures",
            {"3": {"1 3|2": "24*l^3", "1 2|3": "5*l^3"}},
            ["verify", "appendix", "--n", "3"],
            "a fixture file lists partitions 1 3|2 and 1 2|3 of one shape "
            "for marking count 3",
        ),
    ],
    ids=[
        "qfile-count-text",
        "qfile-count-bool",
        "qfile-convention",
        "fixtures-count-text",
        "fixtures-count-repeated",
        "fixtures-partition-repeated",
        "fixtures-partition-repeated-first",
        "fixtures-shape-repeated",
    ],
)
def test_bad_field_in_a_json_file_exits_two(
    tmp_path, option, data, argv, message, capsys
):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    value = f"qfile:{path}" if option == "--space" else str(path)
    code, text = invoke(*argv, option, value)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_verify_fixtures_with_zero_exponents(tmp_path):
    # t{1,2}^0 is 1, so this is the correct class of the one-block partition
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps(
            {"2": {"1 2": "24*l^2*t{1,2}^0", "1|2": "24*l^3 + 24*l^2*t{1,2}"}}
        )
    )
    code, text = invoke(
        "verify", "appendix", "--n", "2", "--fixtures", str(path)
    )
    assert code == 0, text
    assert text.endswith("passed 2/2\n")


def test_verify_refuses_a_fixture_key_given_twice(tmp_path, capsys):
    # json keeps the last value of a repeated key, so the first went unread
    path = tmp_path / "table.json"
    path.write_text('{"2": {"1 2": "24*l^2", "1|2": "7*l^3", "1|2": "24*l^3 + 24*l^2*t{1,2}"}}')
    code, text = invoke("verify", "appendix", "--n", "2", "--fixtures", str(path))
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == 'error: a fixture file gives the key "1|2" twice\n'


def test_verify_empty_fixtures_fail_every_class(tmp_path):
    # an empty table is a table, not a request for the packaged fixtures
    path = tmp_path / "empty.json"
    path.write_text("{}")
    code, text = invoke(
        "verify", "appendix", "--n", "3", "--fixtures", str(path)
    )
    assert code == 1
    assert text.count("FAIL") == 5
    assert text.endswith("passed 0/5\n")


def test_verify_fails_a_fixture_class_the_core_table_lacks(tmp_path):
    # the all-singleton class does not exist with six markings: its check
    # fails, where an error would end the suite with status 2
    path = tmp_path / "six.json"
    path.write_text(json.dumps({"6": {"1|2|3|4|5|6": "l^6"}}))
    code, text = invoke("verify", "appendix", "--n", "6", "--fixtures", str(path))
    assert code == 1
    assert "class:6:1|2|3|4|5|6  fixture   FAIL\n" in text
    assert text.endswith("passed 0/203\n")


def test_verify_empty_fixtures_path_is_unreadable(capsys):
    # an empty path names no file; it does not select the packaged table
    code, text = invoke("verify", "appendix", "--n", "3", "--fixtures", "")
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err == "error: [Errno 2] No such file or directory: ''\n"


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


@pytest.mark.parametrize("n", ["3", "6"])
def test_verify_getzler_rejects_other_marking_counts(n, capsys):
    code, text = invoke("verify", "getzler", "--n", n)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        f"error: the getzler suite is on four markings only (got --n {n})\n"
    )


@pytest.mark.parametrize(
    "target", ["counts", "duality", "getzler", "relations", "torsion"]
)
def test_fixtures_apply_to_verify_appendix_only(target, capsys):
    code, text = invoke("verify", target, "--fixtures", "missing.json")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "error: --fixtures applies to verify appendix only\n"
    )


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


# -- pinned output -------------------------------------------------------------------

_EMPTY = hashlib.sha256(b"").hexdigest()

# command, exit status, sha256 of stdout, sha256 of stderr.  Every
# `--format json` output is one indented object, `hilbert` included; the
# test also pins the parsed `hilbert` payload.
_PINNED = [
    (
        "present --n 4 --space smyth:2",
        0,
        "f81c51d5b465ca9b95f25b73d4d43f76ec5da35d3e58aa2106302e6fcbd3b8b9",
        _EMPTY,
    ),
    (
        "present --n 3 --space dm --format json",
        0,
        "c3a445697875481630370ebc764a48f2426f36ecf52a40a95169532740a23f7c",
        _EMPTY,
    ),
    (
        "present --n 2 --space lp",
        0,
        "a38f77ff3c12e22f679986d49ed5db5327b47e671c97bf7911689808892e1623",
        _EMPTY,
    ),
    (
        "class --n 4 --ell '1 2|3 4'",
        0,
        "fd74e9bfc776797b2daca7c16ab228e3c2214b23c9da27e7b0e180f1c5320ff9",
        _EMPTY,
    ),
    (
        "class --n 4 --nod '1 2|3 4' --format json",
        0,
        "5144459753c39556b8a3cdb377505bf3ed572a44b228c287efbe067e9a55ba6f",
        _EMPTY,
    ),
    (
        "hilbert --n 4 --space dm",
        0,
        "51d5a641e382349b2caf8b209e5d2488b129598e0a42d00de3928d144e5e8f6a",
        _EMPTY,
    ),
    (
        "hilbert --n 3 --space smyth:1 --degree 2 --format json",
        0,
        "4fc1daa19f5f288faaafe9a99609e7d76698b984a4dd635f0d40b70173245bbc",
        _EMPTY,
    ),
    (
        "restrict --n 5 --partition '1 2 3|4 5' 'l*t{1,2,3} + t{1,2}^2'",
        0,
        "b2fcdafe5a4fea498e1fade8de2c56fcadbe80b4d0deac4bcff7e903024a4818",
        _EMPTY,
    ),
    (
        "restrict --n 4 --ell --partition '1 2 3|4' 'l*t{1,2,3} + t{1,2}^2' --format json",
        0,
        "e8a3ce15fe67bef98308e190a5b3a1e05154e30d2390c48f3f290f800ca01e40",
        _EMPTY,
    ),
    (
        "verify getzler",
        0,
        "add24c269a5de3ea2c1b28d2ab14e7f2c011f27b99919b6552f5e37841d678a3",
        _EMPTY,
    ),
    (
        "verify relations --n 3 --format json",
        0,
        "99cfad182095945567ab9eee01f11a4a0ad759c0442bc4f60804d8bd294e92c7",
        _EMPTY,
    ),
    (
        "verify torsion --n 4",
        0,
        "d6274f32b101a73726d2a2569ce2e77f2569f6be38f49045f5bade337341665d",
        _EMPTY,
    ),
    (
        "verify duality --n 4 --format json",
        0,
        "0697fd6f17adb9dc06e3dd21a2a728e8be0cc0719a84edd75113632b03543587",
        _EMPTY,
    ),
    (
        "verify appendix --n 4",
        0,
        "f5b92d2a6fb05b66a4652fce6ba0d4f51912d6eeceaaa5f55a4bc6a1795fed97",
        _EMPTY,
    ),
    (
        "restrict --n 3 --partition '1 2|3' 't{1,7}'",
        2,
        _EMPTY,
        "a7596b19d4be0a07a8972b9e58519e5e30a5ab0909ec470c5796256e5dd7c0d3",
    ),
    (
        "present --n 3 --space smyth:9",
        2,
        _EMPTY,
        "2e61d999755c512712e8a5010c3c285f3a64cb4d40da3097e4ba791b6160855c",
    ),
    (
        "hilbert --n 3 --degree -1",
        2,
        _EMPTY,
        "a000d12f66a18cbc4818849593f903f6e56b3c8baca8c2e06d1550e941d10c22",
    ),
    (
        "class --n 3",
        2,
        _EMPTY,
        "d097c0f70561f83d02d377f8f64d4d234e1bfa5417ed51450ca82282d37f9092",
    ),
]


def test_cli_output_is_pinned(capsys):
    for command, code, out_sha, err_sha in _PINNED:
        capsys.readouterr()
        status, text = invoke(*shlex.split(command))
        err = capsys.readouterr().err
        assert (
            status,
            hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest(),
        ) == (code, out_sha, err_sha), (command, text, err)
    _, text = invoke(
        "hilbert", "--n", "3", "--space", "smyth:1", "--degree", "2",
        "--format", "json",
    )
    assert json.loads(text) == {
        "space": "qstable(3,smyth:1)",
        "ranks": [1, 4, 4],
    }


# -- console entry point -------------------------------------------------------------


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ellchow.cli", "hilbert", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 1"
