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
        "--closed-form-override", "prod(4*k+2)",
    )
    assert code == 1
    assert "verdict: refuted" in out


def test_certify_singular_family_is_diagnostic(capsys):
    code, out, _ = run(capsys, "certify", "--family", "genmotzkin:k=2", "--n-max", "4",
                       "--closed-form-override", "prod(4*k+1)")
    assert code == 3
    assert "verdict: inapplicable" in out


def test_certify_without_builtin_closed_form_hints_override(capsys):
    code, _, err = run(capsys, "certify", "--family", "genmotzkin:k=1", "--n-max", "2")
    assert code == 2
    assert "--closed-form-override" in err


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
