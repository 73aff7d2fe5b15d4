"""Byte-for-byte regression of `certify` and `pfaffian` JSON reports.

The certify files under tests/data/ hold reports recorded from the
implementation that evaluated operators and guessing rows over Fractions,
and the pfaffian files one recorded from the Pfaffian routes that multiplied
Fraction entries one at a time and one from the Polynomial that stored every
coefficient as a Fraction, each with the "version" line removed; a
report of this code, with its "version" line removed the same way, must
equal them byte for byte."""

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


def assert_pfaffian_report_matches(capsys, family, dim, name):
    code = cli.main(["pfaffian", "--family", family, "--dim", str(dim),
                     "--all-algorithms", "--format", "json"])
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert code == 0
    assert sum(line.startswith('  "version": ') for line in lines) == 1
    report = "".join(line for line in lines if not line.startswith('  "version": '))
    with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
        assert report == fh.read()


def test_pfaffian_json_report_matches_golden(capsys):
    # all three routes on a rational family: each scales its denominators its own way
    assert_pfaffian_report_matches(capsys, "narayana:x=3/7", 12,
                                   "pfaffian_narayana_x_3_7_dim_12.json")


def test_pfaffian_symbolic_json_report_matches_golden(capsys):
    # all three routes over Q[x], on polynomials with integer coefficients
    assert_pfaffian_report_matches(capsys, "narayana:x=sym", 10,
                                   "pfaffian_narayana_x_sym_dim_10.json")
