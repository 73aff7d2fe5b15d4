"""pfansatz benchmark: run one workload's CLI jobs for a fixed time and
report end-to-end metrics (untraced) or per-layer metrics (traced).

    python3 perfbench/run.py --workload certify-rational --seed 1 --seconds 60 --trace 0

Run it from the root of a pfansatz checkout.  Every job is a fresh
interpreter (`child.py`, equivalent to `python -m pfansatz.cli ...`), so
the memo tables start cold as they do for a user; jobs run one at a time.
One repetition runs every job of the workload once; repetitions continue
while another one fits in `--seconds`, and timings are medians over them.
Before every untraced job, and after the last, `reference.py` runs as a
yardstick of the machine's speed at that moment; the gated times
`wall_rel` and `cpu_rel` are the jobs' times divided by the mean time of
the two yardstick runs around each job, per repetition.
With `--trace 1` each repetition runs the jobs untraced and then traced,
and the traced run supplies the per-layer metrics.

The last line of stdout is a JSON object with keys correct, attempted,
failed and metrics; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

import layers
from workloads import WORKLOADS, coverage_problems

HERE = os.path.dirname(os.path.abspath(__file__))
JOB_TIMEOUT_S = 60  # a hung job is killed and fails, and the run still ends in time
REFERENCE = os.path.join(HERE, "reference.py")
REFERENCE_DIGEST = "414dcac925df5dfe"  # first hex digits of what reference.py prints
WORK_DIR = ".bench_work"


@dataclass
class JobRun:
    code: int
    wall_s: float
    cpu_s: float
    setup_s: Optional[float]
    maxrss_kb: int
    report: bytes
    problems: List[str] = field(default_factory=list)
    spans: Optional[dict] = None
    ref_wall_s: Optional[float] = None  # mean of the yardstick runs around this job
    ref_cpu_s: Optional[float] = None


@dataclass
class Yardstick:
    wall_s: float
    cpu_s: float
    ok: bool


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Spawns job processes in `work` and reads each one's own rusage."""

    def __init__(self, root: str, work: str):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "PFANSATZ_OUT_DIR"}
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def warm_up(self) -> None:
        """Import every module once, so bytecode caches exist before timing."""
        subprocess.run(
            [sys.executable, "-c", "import pfansatz.cli, pfansatz.catalog"],
            env=self.env, timeout=JOB_TIMEOUT_S,
        )

    def _spawn(self, cmd, out_file, err_file):
        """Run `cmd` to its end; return (exit code, start, wall time, its own rusage)."""
        with open(out_file, "wb") as out, open(err_file, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return code, start, end - start, usage

    def reference(self) -> Yardstick:
        """Run the yardstick; its times are those it reports for its own
        computation, without the interpreter's start-up."""
        out_file = os.path.join(self.work, "reference")
        code, _, wall, usage = self._spawn(
            [sys.executable, REFERENCE], out_file, os.path.join(self.work, "reference.err"))
        with open(out_file, encoding="utf-8", errors="replace") as fh:
            fields = fh.read().split()
        if code != 0 or len(fields) != 3 or not fields[0].startswith(REFERENCE_DIGEST):
            # a failed yardstick fails the jobs it brackets; its whole run stands in
            return Yardstick(wall, usage.ru_utime + usage.ru_stime, False)
        return Yardstick(float(fields[1]), float(fields[2]), True)

    def run(self, argv, traced: bool) -> JobRun:
        ready_file = os.path.join(self.work, "ready")
        spans_file = os.path.join(self.work, "spans.json")
        out_file = os.path.join(self.work, "stdout")
        err_file = os.path.join(self.work, "stderr")
        for path in (ready_file, spans_file):
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), ready_file,
               spans_file if traced else "-", *argv]
        code, start, wall, usage = self._spawn(cmd, out_file, err_file)
        with open(out_file, "rb") as fh:
            report = fh.read()
        setup = None
        if os.path.exists(ready_file):
            with open(ready_file, encoding="utf-8") as fh:
                setup = float(fh.read()) - start
        run = JobRun(code, wall, usage.ru_utime + usage.ru_stime, setup, usage.ru_maxrss, report)
        if code != 0:
            with open(err_file, encoding="utf-8", errors="replace") as fh:
                lines = fh.read().strip().splitlines()
            run.problems.append(f"{' '.join(argv)}: {lines[-1] if lines else 'no stderr'}")
        if setup is None:
            run.problems.append("the CLI never became ready")
        if traced:
            if os.path.exists(spans_file):
                with open(spans_file, encoding="utf-8") as fh:
                    run.spans = json.load(fh)
            else:
                run.problems.append("no span file written")
        return run


def run_workload(jobs, runner: Runner, seconds: float, trace: bool):
    """Repetitions of every job, untraced (and traced, with `trace`), while
    another repetition as long as the longest so far fits in `seconds`.
    Returns (untraced reps, traced reps)."""
    plain, traced, yardsticks = [], [], []
    longest = 0.0
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rep = []
        for job in jobs:
            yardsticks.append(runner.reference())
            rep.append(runner.run(job.argv, False))
        plain.append(rep)
        if trace:
            traced.append([runner.run(job.argv, True) for job in jobs])
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() - start + longest > seconds:
            break
    yardsticks.append(runner.reference())
    for run, before, after in zip((r for rep in plain for r in rep), yardsticks, yardsticks[1:]):
        run.ref_wall_s = (before.wall_s + after.wall_s) / 2
        run.ref_cpu_s = (before.cpu_s + after.cpu_s) / 2
        if not (before.ok and after.ok):
            run.problems.append("the reference computation failed or printed another digest")
    return plain, traced


def check_outputs(jobs, reps) -> None:
    """Record each run's output problems, and flag a report whose SHA-256
    differs from that job's first report (across repetitions, and between
    traced and untraced runs)."""
    first = [hashlib.sha256(run.report).hexdigest() for run in reps[0]]
    for rep in reps:
        for job, run, digest in zip(jobs, rep, first):
            run.problems.extend(job.check(run.code, run.report.decode("utf-8", "replace")))
            if hashlib.sha256(run.report).hexdigest() != digest:
                run.problems.append("report differs from the first run of this job")


def _rep_median(reps, time_of) -> float:
    return _median([sum(time_of(r) for r in rep) for rep in reps])


def _rel_median(reps, time_of, ref_of) -> float:
    """Median over repetitions of the jobs' summed time divided by the
    summed time of the yardstick runs that preceded them."""
    return _median([sum(map(time_of, rep)) / sum(map(ref_of, rep)) for rep in reps])


def end_to_end(reps) -> dict:
    runs = [run for rep in reps for run in rep]
    return {
        "wall_rel": (_rel_median(reps, lambda r: r.wall_s, lambda r: r.ref_wall_s), "ratio"),
        "cpu_rel": (_rel_median(reps, lambda r: r.cpu_s, lambda r: r.ref_cpu_s), "ratio"),
        "setup_s": (_median([r.setup_s for r in runs if r.setup_s is not None]), "s"),
        "peak_rss_mb": (max(r.maxrss_kb for r in runs) / 1024, "MB"),
    }


def raw_times(reps) -> dict:
    """Medians over repetitions of the summed job and yardstick times.  On a
    shared host these drift with the machine's speed, so they are printed
    but are not metrics of the JSON line."""
    return {
        "wall_s": (_rep_median(reps, lambda r: r.wall_s), "s"),
        "cpu_s": (_rep_median(reps, lambda r: r.cpu_s), "s"),
        "reference_wall_s": (_rep_median(reps, lambda r: r.ref_wall_s), "s"),
    }


def _layer_totals(rep) -> dict:
    """Span aggregates of one traced repetition, summed over its jobs
    (the largest value, for the max_* and *_max_bits counters)."""
    total = {name: {"calls": 0, "self_s": 0.0} for name in layers.SPAN_NAMES}
    for run in rep:
        for name, stat in (run.spans or {}).items():
            acc = total.setdefault(name, {"calls": 0, "self_s": 0.0})
            for key, value in stat.items():
                if key.startswith("max_") or key.endswith("_max_bits"):
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value
    return total


# Per-layer metric -> (span, counter) read from a traced repetition's totals.
SPAN_METRICS = {
    name: tuple(name.rsplit(".", 1))
    for name in (
        "sequences.from_family.calls", "sequences.from_family.self_s",
        "pfaffian.pf_eliminate.calls", "pfaffian.pf_eliminate.self_s",
        "pfaffian.pf_eliminate.max_dim", "pfaffian.pf_eliminate.result_max_bits",
        "pfaffian.pf_laplace.self_s", "pfaffian.pf_naive.self_s",
        "pfaffian.cofactor_vector.calls", "pfaffian.cofactor_vector.self_s",
        "linalg.solve_linear.calls", "linalg.solve_linear.self_s", "linalg.solve_linear.cells",
        "linalg.nullspace.calls", "linalg.nullspace.self_s", "linalg.nullspace.cells",
        "linalg.nullspace.kernel_dim",
        "linalg.determinant.calls", "linalg.determinant.self_s",
        "pipeline.c_table.self_s", "pipeline.check_identity2.self_s",
        "pipeline.ratio_sequence.self_s", "pipeline.certify.self_s",
        "pipeline.check_conjecture1.self_s",
        "guessing.guess_from_table.calls", "guessing.guess_from_table.self_s",
        "guessing.residual_at.calls", "guessing.residual_at.self_s",
        "guessing.apply_operator.self_s",
        "guessing.consequence_solve.calls", "guessing.consequence_solve.self_s",
        "guessing.leading_nonvanishing.calls", "guessing.leading_nonvanishing.self_s",
        "poly.eval.calls", "poly.eval.self_s", "poly.poly_gcd.calls", "poly.poly_gcd.self_s",
        "minorsum.theorem4_terms.self_s", "cli.main.self_s",
    )
}
SPAN_METRICS["sequences.entry_max_bits"] = ("sequences.from_family", "entry_max_bits")
for _key in ("unknowns", "data_rows", "validation_points", "rejected", "reduced_away"):
    SPAN_METRICS[f"guessing.{_key}"] = ("guessing.guess_from_table", _key)
UNITS = {"self_s": "s", "entry_max_bits": "bits", "result_max_bits": "bits"}


def per_layer(plain, traced) -> dict:
    """Medians over traced repetitions; `bench.trace_overhead_s` is the
    traced minus the untraced wall time of the same repetition."""
    totals = [_layer_totals(rep) for rep in traced]
    out = {
        name: (_median([t[span].get(key, 0) for t in totals]), UNITS.get(key, "count"))
        for name, (span, key) in SPAN_METRICS.items()
    }
    kept = []
    for t in totals:
        vectors = t["linalg.nullspace"].get("kernel_dim", 0)
        kept.append(t["guessing.guess_from_table"].get("operators", 0) / vectors if vectors else 0.0)
    out["guessing.kept_ratio"] = (_median(kept), "ratio")
    out["cli.report_bytes"] = (_median([sum(len(r.report) for r in rep) for rep in traced]), "bytes")
    overhead = [sum(r.wall_s for r in t) - sum(r.wall_s for r in p) for p, t in zip(plain, traced)]
    out["bench.trace_overhead_s"] = (_median(overhead), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pfansatz", "cli.py")):
        print("error: src/pfansatz not found; run from the root of a pfansatz checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # SIGTERM unwinds like Ctrl-C: the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        jobs, inputs = workload.build(args.seed, work)
        runner = Runner(root, work)
        runner.warm_up()
        plain, traced = run_workload(jobs, runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_outputs(jobs, plain + traced)
    runs = [run for rep in plain + traced for run in rep]
    failed = [run for run in runs if run.problems]
    coverage = [p for rep in traced for p in coverage_problems(workload, _layer_totals(rep))]
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)

    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()
    print(f"workload {workload.name} seed {args.seed}: {len(plain)} repetitions of "
          f"{len(jobs)} jobs{' (plus traced)' if args.trace else ''}")
    print(f"inputs sha256 {digest}"
          + "".join(f" {k}={v}" for k, v in inputs.items() if isinstance(v, str)))
    for name, (value, unit) in {**metrics, **({} if args.trace else raw_times(plain))}.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    # fail_ratio is 0 when all is well, so it is not a metric of the JSON
    # line, which carries it as failed / attempted.
    print(f"  {'fail_ratio':36s} {len(failed) / len(runs):.6g} ratio ({len(failed)}/{len(runs)} jobs)")
    for problem in sorted({p for run in failed for p in run.problems} | set(coverage)):
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": not failed and not coverage,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
