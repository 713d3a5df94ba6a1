import json

import pytest

from rankforge.catalog import (
    char2_quartic,
    counterexample_poly,
    parse_family_arg,
    parse_hyperplane,
    parse_poly_arg,
)
from rankforge.cli import main
from rankforge.errors import InputError
from rankforge.gf import PrimeField


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_named_constructors():
    P = parse_poly_arg("xn:d=2,n=2,q=3")
    assert P.n == 4 and P.field.p == 3
    assert parse_poly_arg("counterexample") == counterexample_poly()
    assert parse_poly_arg("char2-quartic").degree() == 4
    assert len(char2_quartic(5).terms) == 5


def test_parse_json_and_file(tmp_path):
    doc = {"q": 5, "n": 2, "terms": [{"c": 1, "e": [1, 1]}]}
    P = parse_poly_arg(json.dumps(doc))
    assert P.eval((2, 3)) == 1
    path = tmp_path / "p.json"
    path.write_text(json.dumps([doc, doc]))
    fam = parse_family_arg(f"@{path}")
    assert fam.c == 2


def test_parse_errors():
    with pytest.raises(InputError):
        parse_poly_arg("no-such-constructor")
    with pytest.raises(InputError):
        parse_poly_arg('{"q": 5, "n":')
    with pytest.raises(InputError):
        parse_hyperplane("1,2", PrimeField(3), 2)
    with pytest.raises(InputError):
        parse_hyperplane("1:0", PrimeField(3), 2)
    with pytest.raises(InputError):
        parse_hyperplane("3,0:1", PrimeField(3), 2)  # zero functional mod 3


def test_cli_gowers(capsys):
    code, out, _ = run_cli(
        capsys, "gowers", "--poly", '{"q":2,"n":2,"terms":[{"c":1,"e":[1,1]}]}', "--d", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["norm_pow_num_den"] == "1/4"


def test_cli_exit_codes(capsys):
    # malformed JSON: input error
    code, _, err = run_cli(capsys, "gowers", "--poly", '{"q":2,', "--d", "2")
    assert code == 2
    # over budget: refusal with the cost estimate
    code, _, err = run_cli(
        capsys, "gowers", "--poly", "xn:d=2,n=3,q=3", "--d", "2", "--budget", "100"
    )
    assert code == 3
    assert "estimate" in err
    # negative property result
    code, out, _ = run_cli(capsys, "star", "--family", "counterexample", "--a", "1")
    assert code == 1
    assert not json.loads(out)["holds"]


def test_cli_extend_counterexample(capsys):
    code, out, _ = run_cli(
        capsys,
        "extend",
        "--family",
        "counterexample",
        "--a",
        "1",
        "--named-function",
        "counterexample",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False and "dual_certificate" in doc


@pytest.mark.parametrize("family", ["xn:d=2,n=2,q=7", "xn:d=2,n=1,q=7"])
@pytest.mark.parametrize("command", ["weaktest", "extend"])
def test_cli_counterexample_function_only_on_its_variety(capsys, command, family):
    code, out, err = run_cli(capsys, command, "--family", family, "--a", "1", "--named-function", "counterexample")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and "zero set" in doc["detail"]


def test_cli_rank_certificate(capsys):
    code, out, _ = run_cli(capsys, "rank", "--poly", "xn:d=2,n=2,q=2", "--rmax", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "2"
    assert len(doc["certificate"]) == 2


def test_cli_census_and_points(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--family", "xn:d=2,n=2,q=3", "--m", "1", "--hyperplane", "1,0,0,0:0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio_num_den"] == "17/23"
    code, out, _ = run_cli(capsys, "points", "--family", "counterexample")
    assert code == 0
    assert json.loads(out)["count"] == 13


def test_cli_census_reads_large_coefficients_mod_p(capsys):
    # 3 * 2^62 + 1 and 2^62 + 2 are 1 and 0 mod 3, past int64 and near 2^62
    outs = []
    for spec in ("1,0,0,0:0", f"{3 * 2**62 + 1},{2**62 + 2},0,0:{3 * 2**70}"):
        code, out, _ = run_cli(
            capsys, "census", "--family", "xn:d=2,n=2,q=3", "--m", "1", "--hyperplane", spec
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_cli_census_rejects_zero_functional(capsys):
    for spec in ("0,0,0,0:0", "3,0,-6,0:1"):
        code, out, err = run_cli(
            capsys, "census", "--family", "xn:d=2,n=2,q=3", "--m", "1", "--hyperplane", spec
        )
        assert code == 2 and out == ""
        assert "nonzero" in err


def test_cli_equidist_csv(capsys):
    code, out, _ = run_cli(
        capsys, "equidist", "--family", "xn:d=2,n=1,q=3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "value_index,count"


_XSQ = '{"q":5,"n":1,"terms":[{"c":1,"e":[2]}]}'
_X = '{"q":5,"n":1,"terms":[{"c":1,"e":[1]}]}'
_BILINEAR = '{"q":2,"n":4,"terms":[{"c":1,"e":[1,0,1,0]},{"c":1,"e":[0,1,0,1]}]}'
_X0_F7 = '{"q":7,"n":4,"terms":[{"c":1,"e":[1,0,0,0]}]}'


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--values", ["weaktest", "--family", "counterexample", "--a", "1", "--values", "0,1,x"]),
        ("--target", ["count", "--family", "xn:d=2,n=1,q=3", "--target", "0,a"]),
        ("--blocks", ["prank", "--poly", _BILINEAR, "--blocks", "2,two", "--rmax", "1"]),
        ("--slices", ["extend", "--family", "xn:d=2,n=2,q=7", "--a", "1", "--from-poly", _X0_F7, "--slices", "1,0,0,0.5"]),
        ("--cofactor-caps", ["nullsatz", "--family", _XSQ, "--r", _X, "--cap", "2", "--cofactor-caps", "1,"]),
    ],
    ids=["values", "target", "blocks", "slices", "cofactor-caps"],
)
def test_cli_non_integer_list_is_an_input_error(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and doc["detail"].startswith(f"{flag} expects comma-separated integers")


@pytest.mark.parametrize("spec", ["xn:d=2,n", "xn:d=2,n=x,q=3", "char2-quartic:n=x", "char2-quartic:n"])
def test_cli_malformed_named_constructor_is_an_input_error(capsys, spec):
    code, out, err = run_cli(capsys, "bias", "--poly", spec)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and doc["detail"].startswith(f"constructor {spec!r}: expected key=integer")


def test_cli_universal_negative(capsys):
    code, out, _ = run_cli(
        capsys,
        "universal",
        "--family",
        '{"q":2,"n":2,"terms":[{"c":1,"e":[1,1]}]}',
        "--m",
        "2",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["universal"] is False and doc["missed_count"] > 0


def test_cli_nullsatz(capsys):
    code, out, _ = run_cli(
        capsys,
        "nullsatz",
        "--family",
        '{"q":5,"n":1,"terms":[{"c":1,"e":[2]}]}',
        "--r",
        '{"q":5,"n":1,"terms":[{"c":1,"e":[1]}]}',
        "--cap",
        "2",
    )
    assert code == 1
    assert json.loads(out)["member"] is False


def test_cli_xn_ops(capsys):
    code, out, _ = run_cli(capsys, "xn", "--d", "2", "--n", "1", "--q", "2", "--op", "bias")
    assert code == 0
    assert json.loads(out)["magnitude_num_den"] == "1/2"
    code, out, _ = run_cli(
        capsys, "xn", "--d", "2", "--n", "2", "--q", "7", "--m", "3", "--op", "strata"
    )
    assert code == 0
    sizes = json.loads(out)["strata_sizes"]
    assert sum(sizes.values()) == 385


def test_cli_suite_single(capsys):
    code, out, _ = run_cli(capsys, "suite", "--only", "grid-vanishing")
    assert code == 0
    assert "PASS" in out


def test_cli_output_file(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(
        capsys, "bias", "--poly", "xn:d=2,n=1,q=2", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["magnitude_num_den"] == "1/2"


def test_cli_values_json_document(capsys):
    import json as _json

    from rankforge.catalog import counterexample_function, counterexample_variety

    X = counterexample_variety()
    f = counterexample_function(X)
    doc = _json.dumps({"values": [int(v) for v in f.values]})
    code, out, _ = run_cli(
        capsys, "weaktest", "--family", "counterexample", "--a", "1", "--values", doc
    )
    assert code == 0
    assert _json.loads(out)["weakly_polynomial"] is True


def test_nonprime_field_rejected(capsys):
    code, _, err = run_cli(
        capsys, "bias", "--poly", '{"q":4,"n":1,"terms":[{"c":1,"e":[1]}]}'
    )
    assert code == 2
    assert "prime" in err
