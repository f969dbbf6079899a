#!/usr/bin/env python3
"""Benchmark of the bruhatkl command line, one workload per run.

    python3 perfbench/run.py --workload verify-f4 --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout; it needs only the standard
library and ``src/``.  Each op is one in-process ``bruhatkl.cli.main(argv)``
call with stdout captured.  Every call builds its own ``CoxeterSystem``,
so each op starts as cold as a user's CLI invocation, minus interpreter
start-up.  Ops run one at a time (closed loop, one caller), in passes over
the workload's op list, until the next pass would end after ``--seconds``;
at least two passes run.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
medians over passes of wall and CPU time, the process's peak RSS, and the
median over fresh interpreters of the time to import ``bruhatkl.cli`` and
build its parser.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics, then probes two inputs known to end in a
traceback.  Every op's output is checked; a failed check counts against
``failed`` and never aborts the run.

The last stdout line is the result as one JSON object.  A fuller record
(environment, op list, per-pass times, every op's stdout, spans) is written
to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
from workloads import WORKLOADS, check_output, make_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
EXPECTED = BENCH / "expected_stdout.json"

DEFAULT_SEED = 0
MIN_PASSES = 2
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 20
# the program reads its default thread count from this variable; the
# benchmark measures the default, single-threaded configuration
THREADS_ENV = "BRUHATKL_THREADS"
SETUP_CODE = ("import time; t = time.perf_counter(); import bruhatkl.cli; "
              "bruhatkl.cli.build_parser(); "
              "print(repr(time.perf_counter() - t))")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_program():
    """Import bruhatkl from this checkout's src/, and nowhere else."""
    if not (SRC / "bruhatkl" / "cli.py").is_file():
        sys.exit("error: %s has no bruhatkl package; run from a source "
                 "checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import bruhatkl.cli
    from bruhatkl.coxeter import CoxeterSystem
    if Path(bruhatkl.__file__).resolve().parent != SRC / "bruhatkl":
        sys.exit("error: imported bruhatkl from %s, not %s"
                 % (bruhatkl.__file__, SRC))
    return bruhatkl.cli, CoxeterSystem


def measure_setup() -> list:
    """Seconds to import bruhatkl.cli and build its parser, each sample in
    a fresh interpreter so the import is cold."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(proc.stdout))
    return samples


# ---------------------------------------------------------------------------
# running ops


def run_op(cli, op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    # a fresh CLI process starts with no garbage: collect the previous
    # op's outside the timed region
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            error = traceback.format_exc()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    stdout = out.getvalue()
    if error is None:
        error = check_output(op, code, stdout)
    return {"wall_s": wall, "cpu_s": cpu, "exit_code": code,
            "stdout": stdout, "stderr": err.getvalue(), "error": error}


def run_pass(cli, ops, tracer=None) -> list:
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(cli, op))
    return results


def pass_totals(results) -> tuple:
    return (sum(r["wall_s"] for r in results),
            sum(r["cpu_s"] for r in results))


def check_bytes(passes, expected) -> None:
    """Stdout must repeat byte for byte across passes and, where bytes
    were recorded, match them.  Marks mismatching ops as failed."""
    first = [r["stdout"] for r in passes[0]]
    for results in passes:
        for i, r in enumerate(results):
            if r["error"] is not None:
                continue
            if expected is not None and r["stdout"] != expected[i]:
                r["error"] = "stdout differs from the recorded bytes"
            elif r["stdout"] != first[i]:
                r["error"] = "stdout differs from the first pass"


def expected_stdout(workload: str, seed: int):
    """Bytes recorded at the commit that defined the benchmark: for the
    sweeps at any seed (their inputs are fixed), for query-f4 at the
    default seed."""
    if workload == "query-f4" and seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED.read_text())[workload]


# ---------------------------------------------------------------------------
# robustness probe


def longest_f4_word(CoxeterSystem) -> str:
    F4 = CoxeterSystem.F4()
    w = F4.identity
    while w.rdesc != (1 << F4.rank) - 1:
        s = next(i for i in range(F4.rank) if not (w.rdesc >> i) & 1)
        w = F4.multiply_by_generator(w, s, "right")
    return w.label_str()


def run_probes(w0: str) -> list:
    """The two CLI calls on [e, w0] of F4 that end in a traceback at the
    commit that defined the benchmark, each in a fresh interpreter with the
    default recursion limit."""
    out = []
    for argv in (["matchings", "--group", "F4", "--w", w0,
                  "--format", "json"],
                 ["invariance", "--group", "F4", "--interval", ":" + w0,
                  "--format", "json"]):
        started = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "bruhatkl", *argv],
                                  cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, stderr = None, ""
        out.append({
            "argv": argv,
            "exit_code": code,
            "timed_out": code is None,
            "traceback": "Traceback (most recent call last)" in stderr,
            "stderr_tail": stderr.strip().splitlines()[-1:],
            "seconds": time.perf_counter() - started,
        })
    return out


# ---------------------------------------------------------------------------
# reporting


def git_commit():
    """The checked-out commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(args, ops) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": [op.argv for op in ops],
    }


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.environ.pop(THREADS_ENV, None)
    cli, CoxeterSystem = load_program()
    units = declared_metrics(bool(args.trace))
    ops = make_ops(args.workload, args.seed, CoxeterSystem)
    expected = expected_stdout(args.workload, args.seed)
    record = {"env": environment(args, ops)}
    gc.collect()

    if args.trace:
        passes = [run_pass(cli, ops)]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, ops, tracer))
        finally:
            tracer.uninstall()
        probes = run_probes(longest_f4_word(CoxeterSystem))
        values = tracer.metrics()
        values["cli.stdout_bytes"] = sum(
            len(r["stdout"].encode()) for r in passes[1])
        values["cli.tracebacks"] = sum(p["traceback"] for p in probes)
        values["cli.probe_timeouts"] = sum(p["timed_out"] for p in probes)
        values["trace.overhead_ratio"] = \
            pass_totals(passes[1])[0] / pass_totals(passes[0])[0]
        record["probes"] = probes
        record["spans"] = tracer.spans
    else:
        setup = measure_setup()
        passes = []
        started = time.perf_counter()
        while True:
            passes.append(run_pass(cli, ops))
            elapsed = time.perf_counter() - started
            if len(passes) >= MIN_PASSES and \
                    elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        walls, cpus = zip(*(pass_totals(p) for p in passes))
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        record["setup_samples_s"] = setup

    check_bytes(passes, expected)
    attempted = sum(len(p) for p in passes)
    failed = sum(r["error"] is not None for p in passes for r in p)
    missing = sorted(set(units) - set(values))
    if missing:
        sys.exit("error: no value measured for %s" % ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record.update(passes=passes, attempted=attempted, failed=failed,
                  metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / ("%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    out_path.write_text(json.dumps(record))

    env = record["env"]
    print("workload %s, seed %d, %d pass(es) of %d op(s), record in %s"
          % (args.workload, args.seed, len(passes), len(ops),
             out_path.relative_to(ROOT)))
    print("python %s on %s, %s cpus, commit %s"
          % (env["python"], env["platform"], env["nproc"],
             env["git_commit"]))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-40s %14.6g %s" % ("fail_ratio", failed / attempted, "ratio"))
    for p in passes:
        for op, r in zip(ops, p):
            if r["error"] is not None:
                print("  FAILED %s: %s" % (" ".join(op.argv),
                                           r["error"].strip()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
