"""Byte-for-byte regression of `certify`, `pfaffian`, `conjecture` and
`minor-sum` JSON reports.

The certify files under tests/data/ hold reports recorded from the
implementation that evaluated operators and guessing rows over Fractions,
and the pfaffian files one recorded from the Pfaffian routes that multiplied
Fraction entries one at a time and one from the Polynomial that stored every
coefficient as a Fraction.  The conjecture file was recorded from the check
that eliminated every A_2n on its own, and the minor-sum file from the sum
that eliminated every column minor of H on its own.  Each has its "version"
line removed; a report of this code, with its "version" line removed the
same way, must equal them byte for byte."""

import os

import pytest

from pfansatz import cli

DATA = os.path.join(os.path.dirname(__file__), "data")

GOLDEN = [
    ("motzkin", 10, "certify_motzkin.json"),
    ("motzkin", 20, "certify_motzkin_20.json"),
    ("motzkin", 40, "certify_motzkin_40.json"),
    ("delannoy", 8, "certify_delannoy.json"),
    ("narayana:x=3/7", 8, "certify_narayana_x_3_7.json"),
    ("narayana:x=sym", 6, "certify_narayana_x_sym.json"),
]


@pytest.fixture(autouse=True)
def _no_out_dir(monkeypatch):
    monkeypatch.delenv("PFANSATZ_OUT_DIR", raising=False)


@pytest.mark.parametrize("family, n_max, name", GOLDEN)
def test_certify_json_report_matches_golden(capsys, family, n_max, name):
    code = cli.main(["certify", "--family", family, "--n-max", str(n_max), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert sum(line.startswith('  "version": ') for line in lines) == 1
    report = "".join(line for line in lines if not line.startswith('  "version": '))
    with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
        assert report == fh.read()


def assert_report_matches(capsys, argv, name):
    code = cli.main(argv + ["--format", "json"])
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert code == 0
    assert sum(line.startswith('  "version": ') for line in lines) == 1
    report = "".join(line for line in lines if not line.startswith('  "version": '))
    with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
        assert report == fh.read()


def assert_pfaffian_report_matches(capsys, family, dim, name):
    assert_report_matches(capsys, ["pfaffian", "--family", family, "--dim", str(dim),
                                   "--all-algorithms"], name)


def test_pfaffian_json_report_matches_golden(capsys):
    # all three routes on a rational family: each scales its denominators its own way
    assert_pfaffian_report_matches(capsys, "narayana:x=3/7", 12,
                                   "pfaffian_narayana_x_3_7_dim_12.json")


def test_pfaffian_symbolic_json_report_matches_golden(capsys):
    # all three routes over Q[x], on polynomials with integer coefficients
    assert_pfaffian_report_matches(capsys, "narayana:x=sym", 10,
                                   "pfaffian_narayana_x_sym_dim_10.json")


def test_conjecture_json_report_matches_golden(capsys):
    # Pf(A_2n) = 0 at every n = 1 mod 3: the leading Pfaffians past each zero
    assert_report_matches(capsys, ["conjecture", "--k", "3", "--n-max", "24"],
                          "conjecture_k_3_n_24.json")


def test_minor_sum_json_report_matches_golden(capsys):
    assert_report_matches(capsys, ["minor-sum", "--n", "5"], "minor_sum_n_5.json")
