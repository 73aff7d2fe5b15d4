"""Reports do not depend on Python's string hash seed.

Each command runs in a fresh interpreter under PYTHONHASHSEED=0 and =1;
the two outputs must be byte-identical."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(argv, hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PFANSATZ_OUT_DIR", None)
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from pfansatz import cli; sys.exit(cli.main(sys.argv[1:]))",
         *argv],
        env=env, capture_output=True, check=False, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def two_variable_matrix(path):
    upper = [[i, j, f"{(i * j) % 5 - 2}*x + {(i + j) % 3 - 1}*y + {(i - j) % 4}*x*y"]
             for i in range(1, 7) for j in range(i + 1, 7)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": 6, "upper": upper}, fh)


@pytest.mark.parametrize("argv", [
    ["certify", "--family", "narayana:x=sym", "--n-max", "4", "--format", "json"],
    ["guess", "--source", "c:motzkin", "--n-max", "12", "--format", "json"],
    ["pfaffian", "--file", "{matrix}", "--all-algorithms", "--format", "json"],
])
def test_reports_are_byte_identical_across_hash_seeds(tmp_path, argv):
    matrix = str(tmp_path / "xy.json")
    two_variable_matrix(matrix)
    argv = [a.replace("{matrix}", matrix) for a in argv]
    first = run_cli(argv, 0)
    assert first
    assert run_cli(argv, 1) == first
