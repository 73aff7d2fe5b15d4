"""Self-checks of the benchmark: wrapper coverage, seeded inputs, and the
agreement between BENCHMARK.json and what run.py reports.

    python3 -m pytest -q perfbench
"""

import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, coverage_problems, skew_product_matrix  # noqa: E402

from pfansatz import cli  # noqa: E402
from pfansatz.pfaffian import SkewMatrix, pf_naive  # noqa: E402


@pytest.fixture
def work():
    """A scratch directory inside the checkout, as the benchmark uses."""
    os.makedirs(os.path.join(ROOT, run.WORK_DIR), exist_ok=True)
    path = tempfile.mkdtemp(dir=os.path.join(ROOT, run.WORK_DIR))
    yield path
    shutil.rmtree(path)


def test_install_rebinds_every_binding():
    modules = layers.pfansatz_modules()
    before = layers.unwrapped_bindings(modules)
    assert "pfansatz.cli.pf_eliminate" in before
    assert "pfansatz.cli._ALGORITHMS['eliminate']" in before
    assert "pfansatz.guessing.solve_linear" in before
    tracer = layers.install()
    try:
        assert layers.unwrapped_bindings(modules) == []
        assert hasattr(cli._ALGORITHMS["eliminate"], "__wrapped__")
        assert hasattr(cli.pf_eliminate, "__wrapped__")
    finally:
        tracer.restore()
    assert layers.unwrapped_bindings(modules) == before


def test_minor_sum_pfaffian_reaches_the_trace():
    tracer = layers.install()
    try:
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["minor-sum", "--n", "3"]) == 0
    finally:
        tracer.restore()
    assert out.getvalue() == "45 = 45, PASS\n"
    spans = tracer.summary()
    assert spans["pfaffian.pf_eliminate"]["calls"] == 1
    assert spans["minorsum.theorem4_terms"]["calls"] == 1
    assert spans["linalg.determinant"]["calls"] > 0
    assert spans["cli.main"]["calls"] == 1
    for stat in spans.values():
        assert stat["self_s"] >= 0


def test_every_span_is_predicted_on_some_workload():
    predicted = set().union(*(w.expected_spans for w in WORKLOADS.values()))
    assert predicted == set(layers.SPAN_NAMES)


def test_each_workload_fires_its_spans_and_no_other_guessing(work):
    runner = run.Runner(ROOT, work)
    for workload in WORKLOADS.values():
        jobs, _ = workload.build(3, work)
        rep = [runner.run(job.argv, True) for job in jobs]
        run.check_outputs(jobs, [rep])
        assert [r.problems for r in rep] == [[] for _ in rep], workload.name
        assert coverage_problems(workload, run._layer_totals(rep)) == [], workload.name


def test_skew_product_matrix_pfaffian_is_the_diagonal_product():
    rng = random.Random(7)
    for dim in (2, 4, 6, 8, 10):
        matrix, pf = skew_product_matrix(rng, dim)
        assert pf != 0
        assert pf_naive(SkewMatrix.from_json_dict(matrix)) == pf


def test_seeded_inputs_repeat(work):
    for workload in WORKLOADS.values():
        first = workload.build(5, work)
        again = workload.build(5, work)
        assert [j.argv for j in first[0]] == [j.argv for j in again[0]]
        assert first[1] == again[1]


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"wall_rel": "ratio", "cpu_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
    reported = {name: unit for name, (_, unit) in run.per_layer([[]], [[]]).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported


def test_refuses_a_directory_without_the_program(work):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "certify-rational", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_prints_its_fixed_digest():
    done = subprocess.run([sys.executable, run.REFERENCE], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith(run.REFERENCE_DIGEST)
