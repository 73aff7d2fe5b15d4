"""End-to-end tests for the command-line interface.

Each test drives `cli.main(argv)` in-process and checks the exit code, the
exact stdout bytes for the stable text formats, the JSON report fields
(every report embeds "version" and "config"), and the output-routing rules
(--out beats $PFANSATZ_OUT_DIR beats stdout).
"""

import json
import time
from fractions import Fraction

import pytest

from pfansatz import __version__, cli, poly
from pfansatz.guessing import Table, table_to_json_dict
from pfansatz.pfaffian import SkewMatrix
from pfansatz.poly import parse_poly
from pfansatz.sequences import family_from_descriptor


@pytest.fixture(autouse=True)
def _no_out_dir(monkeypatch):
    # keep stdout routing deterministic regardless of the ambient environment
    monkeypatch.delenv("PFANSATZ_OUT_DIR", raising=False)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# pfaffian


def test_pfaffian_family_text_value(capsys):
    code, out, _ = run(capsys, "pfaffian", "--family", "motzkin", "--dim", "4")
    assert code == 0
    assert out == "5\n"


def test_pfaffian_symbolic_family(capsys):
    code, out, _ = run(capsys, "pfaffian", "--family", "narayana:x=sym", "--dim", "2")
    assert code == 0
    assert out == "x\n"


def test_pfaffian_dense_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[0, 7], [-7, 0]]))
    code, out, _ = run(capsys, "pfaffian", "--file", str(path))
    assert code == 0
    assert out == "7\n"


def test_pfaffian_object_file(tmp_path, capsys):
    fam = family_from_descriptor("motzkin")
    A = SkewMatrix.from_family(fam, 4)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(A.to_json_dict()))
    code, out, _ = run(capsys, "pfaffian", "--file", str(path))
    assert code == 0
    assert out == "5\n"


def test_pfaffian_prints_an_entry_above_the_int_text_limit(tmp_path, capsys):
    # 10^5000 has 5001 digits; str() of an int refuses more than 4300
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "upper": [[1, 2, "(10^500)^10"]]}))
    code, out, err = run(capsys, "pfaffian", "--file", str(path))
    assert (code, out, err) == (0, "1" + "0" * 5000 + "\n", "")


def test_pfaffian_all_algorithms_text(capsys):
    code, out, _ = run(
        capsys, "pfaffian", "--family", "motzkin", "--dim", "4", "--all-algorithms"
    )
    assert code == 0
    assert out.splitlines() == [
        "5",
        "  naive: 5",
        "  eliminate: 5",
        "  laplace: 5",
        "agreement: PASS",
    ]


def test_pfaffian_all_algorithms_drops_naive_when_large(capsys):
    code, out, _ = run(
        capsys, "pfaffian", "--family", "motzkin", "--dim", "16", "--all-algorithms"
    )
    assert code == 0
    assert "naive" not in out
    assert "agreement: PASS" in out


def test_pfaffian_naive_guard_is_usage_error(capsys):
    code, _, err = run(
        capsys, "pfaffian", "--family", "motzkin", "--dim", "16", "--algorithm", "naive"
    )
    assert code == 2
    assert err.startswith("error:")
    assert "naive" in err


def test_pfaffian_laplace_guard_is_usage_error(capsys):
    code, out, err = run(
        capsys, "pfaffian", "--family", "motzkin", "--dim", "24", "--algorithm", "laplace"
    )
    assert code == 2
    assert out == ""
    assert err == "error: the laplace expansion is capped at dimension 22; use eliminate\n"


def test_pfaffian_all_algorithms_drops_laplace_above_its_limit(capsys):
    code, out, _ = run(capsys, "pfaffian", "--family", "motzkin", "--dim", "24",
                       "--all-algorithms", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["algorithms"] == ["eliminate"]
    code, out, _ = run(capsys, "pfaffian", "--family", "motzkin", "--dim", "18",
                       "--all-algorithms", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["algorithms"] == ["eliminate", "laplace"]


def test_pfaffian_usage_errors(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[0, 1], [-1, 0]]))
    # both sources
    assert run(capsys, "pfaffian", "--family", "motzkin", "--dim", "2",
               "--file", str(path))[0] == 2
    # neither source
    assert run(capsys, "pfaffian")[0] == 2
    # odd dimension
    assert run(capsys, "pfaffian", "--family", "motzkin", "--dim", "3")[0] == 2
    # missing --dim
    assert run(capsys, "pfaffian", "--family", "motzkin")[0] == 2
    # unknown family
    assert run(capsys, "pfaffian", "--family", "nosuch", "--dim", "2")[0] == 2


def test_pfaffian_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    assert run(capsys, "pfaffian", "--file", str(bad))[0] == 2
    assert run(capsys, "pfaffian", "--file", str(tmp_path / "absent.json"))[0] == 2
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    assert run(capsys, "pfaffian", "--file", str(scalar))[0] == 2


@pytest.mark.parametrize("text, detail", [
    ('{"dim": 2, "upper": [5]}', "TypeError: object of type 'int' has no len()"),
    ('{"dim": 2, "upper": 5}', "TypeError: 'int' object is not iterable"),
    ("[1, 2]", "TypeError: 'int' object is not iterable"),
    ('{"dim": 2.9, "upper": [[1, 2, "3"]]}', "TypeError: expected an integer, got 2.9"),
    ('{"dim": 2, "upper": [[1.7, 2, "3"]]}', "TypeError: expected an integer, got 1.7"),
])
def test_pfaffian_malformed_matrix_is_named(tmp_path, capsys, text, detail):
    # a float dim or index is refused, not truncated to 2 or 1
    path = tmp_path / "m.json"
    path.write_text(text)
    assert run(capsys, "pfaffian", "--file", str(path)) == (
        2, "", f"error: malformed matrix in {path} ({detail})\n")


@pytest.mark.parametrize("form", ["dense", "object"])
@pytest.mark.parametrize("value", ["true", "null", "1.5", "[3]"])
def test_pfaffian_refuses_an_entry_that_is_no_integer_or_text(tmp_path, capsys, form, value):
    # a JSON boolean is not read as the number 1, nor null as text "None"
    text = (f"[[0, {value}], [-1, 0]]" if form == "dense"
            else f'{{"dim": 2, "upper": [[1, 2, {value}]]}}')
    path = tmp_path / "m.json"
    path.write_text(text)
    got = repr(json.loads(value))
    assert run(capsys, "pfaffian", "--file", str(path)) == (
        2, "", f"error: malformed matrix in {path} "
               f"(TypeError: expected an integer or entry text, got {got})\n")


def test_pfaffian_file_entries_are_integers_or_text(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('[[0, -3], [3, 0]]')
    assert run(capsys, "pfaffian", "--file", str(path)) == (0, "-3\n", "")
    path.write_text('[[0, "x/2"], ["-x/2", 0]]')
    assert run(capsys, "pfaffian", "--file", str(path)) == (0, "1/2*x\n", "")
    path.write_text('{"dim": 2, "upper": [[1, 2, -3]]}')
    assert run(capsys, "pfaffian", "--file", str(path)) == (0, "-3\n", "")
    path.write_text('{"dim": 2, "upper": [[1, 2, "x/2"]]}')
    assert run(capsys, "pfaffian", "--file", str(path)) == (0, "1/2*x\n", "")


def test_pfaffian_dimension_cap(tmp_path, capsys, monkeypatch):
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 100000000, "upper": []}')
    code, out, err = run(capsys, "pfaffian", "--file", str(huge))
    assert (code, out) == (2, "")
    assert err == "error: matrix dimension 100000000 is above the cap of 400\n"
    # an empty upper triangle at the cap has Pfaffian 0 at the first pivot
    empty = tmp_path / "empty.json"
    empty.write_text('{"dim": 400, "upper": []}')
    assert run(capsys, "pfaffian", "--file", str(empty))[:2] == (0, "0\n")

    def no_build(cls, family, dim):
        raise AssertionError("built a matrix above the cap")

    monkeypatch.setattr(SkewMatrix, "from_family", classmethod(no_build))
    code, _, err = run(capsys, "pfaffian", "--family", "motzkin", "--dim", "402")
    assert code == 2
    assert err == "error: matrix dimension 402 is above the cap of 400\n"


@pytest.mark.parametrize("entry", ["9^9^9", "((9^999)^999)^999", "((x+1)^999)^999", "x^1001"])
def test_pfaffian_file_refuses_oversized_powers(tmp_path, capsys, entry):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "upper": [[1, 2, entry]]}))
    code, out, err = run(capsys, "pfaffian", "--file", str(path))
    assert (code, out) == (2, "")
    assert "above the caps on polynomial text" in err


@pytest.mark.parametrize("entry", ["(a+b+c+d)^40", "*".join(["(a+b+c)"] * 150)])
def test_pfaffian_file_refuses_too_many_terms_at_once(tmp_path, capsys, entry):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "upper": [[1, 2, entry]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "pfaffian", "--file", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "above the cap on polynomial text: 2000 terms" in err


@pytest.mark.parametrize("terms", [2000, 20000])
def test_pfaffian_file_refuses_text_nested_too_deeply(tmp_path, capsys, terms):
    # a long sum is a deep chain of additions, for the parser or for the
    # conversion to a polynomial
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "upper": [[1, 2, "+".join(["x"] * terms)]]}))
    code, out, err = run(capsys, "pfaffian", "--file", str(path))
    assert (code, out) == (2, "")
    assert "cannot parse polynomial" in err


def test_pfaffian_file_power_at_the_cap(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "upper": [[1, 2, "x^1000"]]}))
    assert run(capsys, "pfaffian", "--file", str(path))[:2] == (0, "x^1000\n")
    # a dense power: 1000 terms, degree 999
    path.write_text(json.dumps({"dim": 2, "upper": [[1, 2, "(x+1)^999"]]}))
    code, out, _ = run(capsys, "pfaffian", "--file", str(path))
    assert (code, out) == (0, str(parse_poly("(x+1)^999")) + "\n")


@pytest.mark.parametrize("form", ["object", "dense"])
def test_pfaffian_file_parse_work_is_bounded_per_file(tmp_path, capsys, monkeypatch, form):
    # each entry alone parses (see above); the file's shared budget refuses
    # the second of 79 800 before computing it
    dim, entry = 400, "(x+1)^999"
    if form == "object":
        data = {"dim": dim, "upper": [[i, j, entry] for i in range(1, dim + 1)
                                      for j in range(i + 1, dim + 1)]}
    else:
        data = [[0 if i == j else entry if i < j else f"-({entry})" for j in range(dim)]
                for i in range(dim)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    parsed = []
    original = poly.parse_poly

    def counted(text, *args, **kwargs):
        parsed.append(text)
        return original(text, *args, **kwargs)

    monkeypatch.setattr(poly, "parse_poly", counted)
    start = time.perf_counter()
    code, out, err = run(capsys, "pfaffian", "--file", str(path))
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert "above the cap on parse work" in err
    assert len(parsed) == 2


def test_pfaffian_json_report(capsys):
    code, out, _ = run(
        capsys, "pfaffian", "--family", "motzkin", "--dim", "6", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"] == "pfaffian"
    assert data["version"] == __version__
    assert data["config"]["family"] == "motzkin"
    assert data["config"]["dim"] == 6
    assert data["value"] == "45"
    assert data["by_algorithm"] == {"eliminate": "45"}
    assert data["agree"] is True


@pytest.mark.parametrize("entry, message", [
    ("1/0", "error: division by zero in polynomial text\n"),
    ("x/0", "error: division by zero in polynomial text\n"),
])
def test_pfaffian_file_zero_denominator_is_usage_error(tmp_path, capsys, entry, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "upper": [[1, 2, entry]]}))
    assert run(capsys, "pfaffian", "--file", str(path)) == (2, "", message)


# ---------------------------------------------------------------------------
# certify


def test_certify_text_certified(capsys):
    code, out, _ = run(capsys, "certify", "--family", "motzkin", "--n-max", "4")
    assert code == 0
    assert out.startswith("certification")
    assert "verdict: certified-at-scale" in out


def test_certify_refuted_with_wrong_override(capsys):
    code, out, _ = run(
        capsys, "certify", "--family", "motzkin", "--n-max", "3",
        "--closed-form", "prod(4*k+2)",
    )
    assert code == 1
    assert "verdict: refuted" in out


def test_certify_witness_prints_a_closed_form_above_the_int_text_limit(capsys):
    code, out, _ = run(
        capsys, "certify", "--family", "motzkin", "--n-max", "3",
        "--closed-form", "pow(1e5000, n^2)",
    )
    assert code == 1
    assert ('  witness: {"check": "closed-form-product", "lhs": "1", "n": 1, '
            f'"rhs": "1{"0" * 5000}"}}\n') in out


def test_certify_singular_family_is_diagnostic(capsys):
    code, out, _ = run(capsys, "certify", "--family", "genmotzkin:k=2", "--n-max", "4",
                       "--closed-form", "prod(4*k+1)")
    assert code == 3
    assert "verdict: inapplicable" in out


# what a --closed-form error adds to the reason
CLOSED_FORM_HINT = ("; --closed-form takes a built-in name "
                    "(delannoy, motzkin, narayana, schroeder) or closed-form text\n")


def test_certify_without_builtin_closed_form_hints_override(capsys):
    code, out, err = run(capsys, "certify", "--family", "genmotzkin:k=1", "--n-max", "2")
    assert (code, out) == (2, "")
    assert err == "error: no built-in closed form named 'genmotzkin'" + CLOSED_FORM_HINT


@pytest.mark.parametrize("text, message", [
    ("1/0", "error: zero denominator in '1/0'\n"),
    ("pow(1/0, n^2)", "error: zero denominator in '1/0'\n"),
    ("prod(k/0)", "error: division by zero in polynomial text\n"),
])
def test_certify_override_zero_denominator_is_usage_error(capsys, text, message):
    assert run(capsys, "certify", "--family", "motzkin", "--n-max", "2",
               "--closed-form", text) == (2, "", message[:-1] + CLOSED_FORM_HINT)


@pytest.mark.parametrize("value, reason", [
    ("catalan", "Invalid literal for Fraction: 'catalan'"),
    ("prod(4*k+1", "Invalid literal for Fraction: 'prod(4*k+1'"),
    ("pow(2, n)", "pow factor must be pow(<rational>, n^2): 'pow(2, n)'"),
])
def test_certify_closed_form_neither_name_nor_text(capsys, value, reason):
    assert run(capsys, "certify", "--family", "motzkin", "--n-max", "2",
               "--closed-form", value) == (2, "", f"error: {reason}{CLOSED_FORM_HINT}")


@pytest.mark.parametrize("family, value, description", [
    ("motzkin", "motzkin", "prod_{k<n} (4k+1)"),
    ("narayana:x=1", "narayana", "x^(n^2) * prod_{k<n} (4k+1) at x=1"),
    ("motzkin", "prod(4*k+1)", "prod(4*k+1)"),
])
def test_certify_closed_form_takes_a_name_or_text(capsys, family, value, description):
    code, out, _ = run(capsys, "certify", "--family", family, "--n-max", "3",
                       "--closed-form", value, "--format", "json")
    assert code == 0
    assert json.loads(out)["closed_form"] == description


def test_certify_has_no_override_flag(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["certify", "--family", "motzkin", "--closed-form-override", "1"])
    assert e.value.code == 2
    assert "unrecognized arguments: --closed-form-override" in capsys.readouterr().err


@pytest.mark.parametrize("family, n_max, uncovered", [
    ("motzkin", "1", {"c-mixed-order-1", "c-row-order-2", "c-column-order-3",
                      "g-mixed-order-1", "r-order-2"}),
    ("motzkin", "2", {"c-row-order-2", "r-order-2"}),
    ("delannoy", "1", {"c-row-order-1"}),
])
def test_certify_catalog_entry_without_a_point_is_not_verified(capsys, family, n_max, uncovered):
    code, out, _ = run(capsys, "certify", "--family", family, "--n-max", n_max,
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "certified-at-scale"
    catalog = data["operators"]["catalog"]
    assert catalog["ok"] is False
    for entry in catalog["entries"]:
        if entry["name"] in uncovered:
            assert entry["ok"] is False
            assert entry["detail"] == "no point has full data coverage for this support"
        else:
            assert entry["ok"] is True and entry["detail"] != "0 residuals"
    assert uncovered <= {entry["name"] for entry in catalog["entries"]}


def test_certify_json_reports_are_byte_identical(capsys):
    args = ("certify", "--family", "motzkin", "--n-max", "4", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["report"] == "certification"
    assert data["version"] == __version__
    assert data["verdict"] == "certified-at-scale"
    assert "config" in data


# ---------------------------------------------------------------------------
# guess


def test_guess_builtin_sequence(capsys):
    code, out, _ = run(capsys, "guess", "--source", "seq:motzkin")
    assert code == 0
    assert "operators" in out


def test_guess_json_report(capsys):
    code, out, _ = run(capsys, "guess", "--source", "seq:motzkin", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["report"] == "guess"
    assert data["version"] == __version__
    assert data["config"]["source"] == "seq:motzkin"
    assert data["status"] == "ok"
    assert data["operators"]
    assert data["operators"][0]["vars"] == ["n"]


def test_guess_file_table_roundtrip(tmp_path, capsys):
    table = Table.from_sequence([Fraction(1)] * 20)
    doc = table_to_json_dict(table)
    doc["vars"] = ["m"]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "guess", "--source", str(path), "--order", "1",
                       "--degree", "0", "--margin", "2")
    assert code == 0
    assert "S_m" in out


def test_guess_underdetermined_is_diagnostic_exit(tmp_path, capsys):
    table = Table.from_sequence([Fraction(v) for v in (1, 2, 3, 4)])
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(table_to_json_dict(table)))
    code, out, _ = run(capsys, "guess", "--source", str(path))
    assert code == 3
    assert out.startswith("diagnostic:")

    code, out, _ = run(capsys, "guess", "--source", str(path), "--format", "json")
    assert code == 3
    data = json.loads(out)
    assert data["status"] == "diagnostic"
    assert data["detail"]


@pytest.mark.parametrize("argv, detail", [
    # 4 shifts times C(1502, 2) monomials, plus the margin of 10
    (("--source", "c:motzkin", "--n-max", "3", "--degree", "1500", "--order", "1"),
     "underdetermined: 7 usable equations for 4509014 required"),
    # 200 001 shifts on a table of 41 terms
    (("--source", "seq:motzkin", "--order", "200000", "--degree", "0"),
     "degenerate data: all sampled values are zero"),
])
def test_guess_checks_the_class_against_the_data_before_listing_it(capsys, argv, detail):
    start = time.monotonic()
    code, out, _ = run(capsys, "guess", *argv)
    assert time.monotonic() - start < 1
    assert (code, out) == (3, f"diagnostic: {detail}\n")


def test_guess_no_fit_exits_one(tmp_path, capsys):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    table = Table.from_sequence([Fraction(p) for p in primes])
    path = tmp_path / "primes.json"
    path.write_text(json.dumps(table_to_json_dict(table)))
    code, out, _ = run(capsys, "guess", "--source", str(path), "--order", "1",
                       "--degree", "1", "--margin", "2")
    assert code == 1
    assert "no operator in this class fits the data" in out


def test_guess_flag_conflicts_and_bad_values(capsys):
    assert run(capsys, "guess", "--source", "seq:motzkin", "--order", "1",
               "--support", "0;1")[0] == 2
    assert run(capsys, "guess", "--source", "seq:motzkin", "--support", "0,0;x")[0] == 2
    assert run(capsys, "guess", "--source", "seq:motzkin", "--support", "0,0;1,1")[0] == 2
    assert run(capsys, "guess", "--source", "seq:nosuch")[0] == 2
    assert run(capsys, "guess", "--source", "seq:motzkin", "--order", "1,2")[0] == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--degree", "-1", "error: degree must be >= 0, got -1\n"),
    ("--margin", "-2", "error: margin must be >= 0, got -2\n"),
])
def test_guess_negative_bounds_fail_before_any_solve(capsys, flag, value, message):
    code, out, err = run(capsys, "guess", "--source", "c:motzkin", "--n-max", "8", flag, value)
    assert code == 2
    assert out == ""
    assert err == message  # no cofactor system was solved first


def test_guess_ratio_source(capsys):
    code, out, _ = run(capsys, "guess", "--source", "r:motzkin", "--n-max", "12",
                       "--order", "1", "--degree", "1", "--margin", "2")
    assert code == 0
    assert "4*n" in out


def test_guess_symbolic_family_rejected(capsys):
    code, _, _ = run(capsys, "guess", "--source", "c:narayana:x=sym", "--n-max", "6")
    assert code == 2


@pytest.mark.parametrize("kind", ["c", "g", "r"])
def test_guess_symbolic_family_rejected_before_any_solve(capsys, kind):
    code, out, err = run(capsys, "guess", "--source", f"{kind}:narayana:x=sym", "--n-max", "4")
    assert code == 2
    assert out == ""
    assert err == "error: guessing operates on rational tables only\n"
    assert "cofactor system" not in err


@pytest.mark.parametrize("argv", [
    ("certify", "--family", "motzkin"),
    ("conjecture", "--k", "2"),
    ("guess", "--source", "c:motzkin"),
    ("guess", "--source", "g:delannoy"),
    ("guess", "--source", "r:schroeder"),
])
def test_n_max_above_the_cap_fails_before_any_solve(capsys, argv):
    code, out, err = run(capsys, *argv, "--n-max", "201")
    assert code == 2
    assert out == ""
    assert err == "error: matrix dimension 402 is above the cap of 400\n"
    assert "cofactor system" not in err


def refuse(*args, **kwargs):
    raise AssertionError("a term or a system was computed")


@pytest.mark.parametrize("source", ["seq:motzkin", "c:motzkin", "g:delannoy", "r:schroeder"])
@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_generated_sources_refuse_n_max_below_one(capsys, monkeypatch, source, n_max):
    monkeypatch.setattr(cli, "c_table", refuse)
    monkeypatch.setitem(cli.PLAIN_SEQUENCES, "motzkin", (refuse, 3))
    code, out, err = run(capsys, "guess", "--source", source, "--n-max", n_max)
    assert (code, out, err) == (2, "", "error: --n-max must be >= 1\n")


def test_sequence_source_refuses_n_max_above_its_cap(capsys, monkeypatch):
    monkeypatch.setitem(cli.PLAIN_SEQUENCES, "motzkin", (refuse, 3))
    code, out, err = run(capsys, "guess", "--source", "seq:motzkin",
                         "--n-max", str(cli.SEQUENCE_TERM_LIMIT + 1))
    assert (code, out) == (2, "")
    assert err == "error: --n-max 10001 is above the cap of 10000 for seq: sources\n"


@pytest.mark.parametrize("source", ["c:motzkin", "g:delannoy"])
@pytest.mark.parametrize("flag, value, message", [
    ("--support", "0;1", "error: shift '0' needs 2 entries for this table\n"),
    ("--order", "1,2,3", "error: --order needs 2 entries for this table, got '1,2,3'\n"),
])
def test_guess_checks_the_shifts_against_the_source_arity_before_any_solve(
        capsys, monkeypatch, source, flag, value, message):
    monkeypatch.setattr(cli, "c_table", refuse)
    code, out, err = run(capsys, "guess", "--source", source, "--n-max", "200", flag, value)
    assert (code, out, err) == (2, "", message)


def test_guess_table_zero_denominator_is_usage_error(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"arity": 1, "values": [[0, "1"], [1, "1/0"]]}')
    code, out, err = run(capsys, "guess", "--source", f"file:{path}")
    assert (code, out, err) == (2, "", "error: zero denominator in '1/0'\n")


HUGE_EXPONENT = "1e999999999"
HUGE_EXPONENT_ERROR = (f"error: decimal exponent above {poly.RATIONAL_EXPONENT_LIMIT} "
                       f"in '{HUGE_EXPONENT}'\n")


@pytest.mark.parametrize("argv", [
    ["pfaffian", "--family", f"narayana:x={HUGE_EXPONENT}", "--dim", "2"],
    ["certify", "--family", f"narayana:x={HUGE_EXPONENT}", "--n-max", "2"],
    ["certify", "--family", "motzkin", "--n-max", "2", "--closed-form", HUGE_EXPONENT],
    ["certify", "--family", "motzkin", "--n-max", "2",
     "--closed-form", f"pow({HUGE_EXPONENT}, n^2)"],
])
def test_oversized_decimal_exponent_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    message = HUGE_EXPONENT_ERROR
    if "--closed-form" in argv:
        message = message[:-1] + CLOSED_FORM_HINT
    assert run(capsys, *argv) == (2, "", message)
    assert time.perf_counter() - start < 1


def test_certify_closed_form_reads_a_constant_of_5000_digits(capsys):
    argv = ("certify", "--family", "motzkin", "--n-max", "2", "--format", "json")
    reports = []
    for text in ("1" + "0" * 4999, "1e4999"):
        code, out, _ = run(capsys, *argv, "--closed-form", text)
        assert code == 1
        report = json.loads(out)
        assert report.pop("closed_form") == report["config"].pop("closed_form") == text
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["witness"]["rhs"] == "1" + "0" * 4999


def test_certify_closed_form_refuses_a_run_of_10001_digits_at_once(capsys):
    start = time.perf_counter()
    assert run(capsys, "certify", "--family", "motzkin", "--n-max", "2",
               "--closed-form", "7" * 10001) == (
        2, "", "error: a run of 10001 digits is above the cap of 10000" + CLOSED_FORM_HINT)
    assert time.perf_counter() - start < 1


def test_guess_table_oversized_decimal_exponent_is_refused_at_once(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"arity": 1, "values": [[0, "1"], [1, "%s"]]}' % HUGE_EXPONENT)
    start = time.perf_counter()
    assert run(capsys, "guess", "--source", f"file:{path}") == (2, "", HUGE_EXPONENT_ERROR)
    assert time.perf_counter() - start < 1


def test_guess_unknown_sequence_names_the_built_in_ones(capsys):
    code, out, err = run(capsys, "guess", "--source", "seq:nosuch")
    assert (code, out) == (2, "")
    assert err == ("error: unknown sequence 'nosuch'; "
                   "choose from ['delannoy', 'motzkin', 'schroeder']\n")


@pytest.mark.parametrize("values, error", [
    ('[{"point": [null], "value": "1"}]', "TypeError"),
    ('[{"value": "1"}]', "KeyError"),
    ('[7]', "TypeError"),
])
def test_guess_malformed_table_file_is_named(tmp_path, capsys, values, error):
    path = tmp_path / "t.json"
    path.write_text('{"arity": 1, "values": %s}' % values)
    code, out, err = run(capsys, "guess", "--source", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: malformed table in {path} ({error}: ")
    assert "symbolic" not in err


@pytest.mark.parametrize("doc, detail", [
    ('{"arity": 1, "vars": 5, "values": [[0, "1"]]}',
     "TypeError: vars must be a list of 1 strings, got 5"),
    ('{"arity": 2, "vars": ["n", 1], "values": [[0, 0, "1"]]}',
     "TypeError: vars must be a list of 2 strings, got ['n', 1]"),
    ('{"arity": 1, "vars": ["n", "i"], "values": [[0, "1"]]}',
     "TypeError: vars must be a list of 1 strings, got ['n', 'i']"),
    ('{"arity": 1.9, "values": [[0, "1"]]}', "TypeError: expected an integer, got 1.9"),
    ('{"arity": 1, "values": [[0.7, "1"]]}', "TypeError: expected an integer, got 0.7"),
    ('{"arity": 1, "values": [{"point": [true], "value": "1"}]}',
     "TypeError: expected an integer, got True"),
    ('{"arity": 1, "values": [[0, 1.5]]}',
     "TypeError: expected an integer or rational text, got 1.5"),
    ('{"arity": 1, "values": [[0, false]]}',
     "TypeError: expected an integer or rational text, got False"),
])
def test_guess_table_file_is_read_as_strictly_as_a_matrix_file(tmp_path, capsys, doc, detail):
    path = tmp_path / "t.json"
    path.write_text(doc)
    assert run(capsys, "guess", "--source", f"file:{path}") == (
        2, "", f"error: malformed table in {path} ({detail})\n")


def test_guess_table_file_takes_integer_and_text_values(tmp_path, capsys):
    rows = [[k, 2 ** k if k % 2 else f"{2 ** k}"] for k in range(20)]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"arity": 1, "vars": ["m"], "values": rows}))
    code, out, _ = run(capsys, "guess", "--source", f"file:{path}", "--order", "1",
                       "--degree", "0", "--margin", "2")
    assert code == 0
    assert "S_m + (-2)" in out


def test_guess_ratio_source_default_bound_fits_default_class(capsys):
    code, out, err = run(capsys, "guess", "--source", "r:motzkin")
    assert code == 0
    assert "cofactor system n=28\n" in err and "n=29" not in err
    assert "(2*n)*S_n^2 + (-3)*S_n + (-2*n - 1)" in out


# ---------------------------------------------------------------------------
# minor-sum / okinawa


def test_minor_sum_text(capsys):
    code, out, _ = run(capsys, "minor-sum", "--n", "2")
    assert code == 0
    assert out == "5 = 5, PASS\n"


def test_minor_sum_json(capsys):
    code, out, _ = run(capsys, "minor-sum", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["report"] == "minor-sum"
    assert data["version"] == __version__
    assert [t["partition"] for t in data["terms"]] == [[], [2, 2], [2, 2, 2, 2]]
    assert data["terms"][-1]["running_sum"] == "5"
    assert data["sum"] == "5"
    assert data["pfaffian"] == "5"
    assert data["equal"] is True


def test_minor_sum_rejects_nonpositive_n(capsys):
    assert run(capsys, "minor-sum", "--n", "0")[0] == 2


def test_minor_sum_refuses_n_above_its_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "theorem4_terms", refuse)
    code, out, err = run(capsys, "minor-sum", "--n", str(cli.MINOR_SUM_N_LIMIT + 1))
    assert (code, out, err) == (2, "", "error: --n 10 is above the cap of 9\n")


def test_okinawa_default_grid_text(capsys):
    code, out, _ = run(capsys, "okinawa")
    assert code == 0
    assert out == "169/169 PASS\n"


def test_okinawa_json(capsys):
    code, out, _ = run(capsys, "okinawa", "--i-max", "2", "--j-max", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["report"] == "okinawa"
    assert data["config"] == {"i_max": 2, "j_max": 3}
    assert data["checked"] == 12
    assert data["failures"] == []
    assert data["all_equal"] is True


def test_okinawa_rejects_negative_bounds(capsys):
    assert run(capsys, "okinawa", "--i-max", "-1")[0] == 2


@pytest.mark.parametrize("argv", [("--i-max", "61"), ("--i-max", "0", "--j-max", "61")])
def test_okinawa_refuses_a_grid_above_its_cap(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "verify_okinawa", refuse)
    code, out, err = run(capsys, "okinawa", *argv)
    assert (code, out, err) == (2, "", "error: --i-max/--j-max 61 is above the cap of 60\n")


# ---------------------------------------------------------------------------
# conjecture


def test_conjecture_text(capsys):
    code, out, _ = run(capsys, "conjecture", "--k", "2", "--n-max", "4")
    assert code == 0
    assert "status: verified at scale" in out
    assert "pf=-8" in out  # the n=2 row carries a negative Pfaffian


def test_conjecture_json(capsys):
    code, out, _ = run(capsys, "conjecture", "--k", "2", "--variant", "ii",
                       "--n-max", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["report"] == "conjecture"
    assert data["version"] == __version__
    assert data["config"] == {"k": 2, "variant": "ii", "n_max": 4}
    assert data["all_match"] is True
    assert len(data["rows"]) == 4
    for row in data["rows"]:
        assert row["match"] is True
        assert row["pfaffian"] == row["predicted"] or row["predicted"] == "0"


def test_conjecture_rejects_bad_parameters(capsys):
    assert run(capsys, "conjecture", "--k", "0")[0] == 2
    assert run(capsys, "conjecture", "--k", "2", "--n-max", "0")[0] == 2


# ---------------------------------------------------------------------------
# selftest


def test_selftest_text(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "selftest seed=7"
    assert sum(1 for l in lines if l.startswith("[PASS]")) == 6
    assert lines[-1] == "all suites passed"


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert [r["name"] for r in data["results"]] == [
        "pfaffian-agreement",
        "pfaffian-square-is-determinant",
        "relabeling-sign",
        "cofactor-orthogonality",
        "guess-roundtrip",
        "minor-summation",
    ]


# ---------------------------------------------------------------------------
# output routing


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "minor-sum", "--n", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert f"wrote {target}" in err
    assert target.read_text() == "1 = 1, PASS\n"


def test_out_dir_env_supplies_default_name(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PFANSATZ_OUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "okinawa", "--i-max", "1", "--j-max", "1",
                       "--format", "json")
    assert code == 0
    assert out == ""
    target = tmp_path / "okinawa-i1-j1.json"
    assert target.exists()
    data = json.loads(target.read_text())
    assert data["report"] == "okinawa"
    assert data["checked"] == 4


def test_out_flag_overrides_env_dir(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    monkeypatch.setenv("PFANSATZ_OUT_DIR", str(env_dir))
    target = tmp_path / "explicit.txt"
    code, out, _ = run(capsys, "minor-sum", "--n", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.exists()
    assert list(env_dir.iterdir()) == []


# ---------------------------------------------------------------------------
# parser-level behaviour


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"pfansatz {__version__}\n"


def test_unknown_flag_is_argparse_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pfaffian", "--bogus"])
    assert exc.value.code == 2


def test_missing_subcommand_is_argparse_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
