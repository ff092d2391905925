#!/usr/bin/env python3
"""acuta benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --write-spec

Run from the root of a checkout; the package is imported from ``src/``. One
process, no worker threads: the BLAS pools are pinned to one thread and every
subprocess runs alone. Set-up (``import acuta`` in a fresh interpreter, and
the inputs made from the seed and files written) is timed apart from the
rounds of calls into the package. The end-to-end times are CPU seconds (user
plus system) of the benchmark process or of the CLI subprocess: the work is
single-threaded, so they equal the wall time the work would take on an idle
machine, and time the process spends waiting for a CPU held by another
process or tenant does not count. A run
repeats whole rounds until ``--seconds`` have passed, then checks the first
round against independent exact computations (``oracle.py``) and every later
round against the first. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 1`` the run makes one untraced and one traced round and reports
the per-layer metrics instead (wall times of one traced round), and writes
its spans to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_REPS = 5
CLI_TIMEOUT_S = 150

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "certify_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cli_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
WHY = {
    "ladder-dyadic": "sparse Dyadic path (dyadic_diff_sign under "
                     "ExactGram.min_dots): exact d=6,7,8 certificates plus "
                     "verdict and antipodal re-checks of d=6,7",
    "rational-files": "integer Gram, Fraction and file I/O, never Dyadic: "
                      "exact d=2..5, kicked and random rational sets saved, "
                      "loaded and checked",
    "float-screen": "numpy kernels and the float slab loop, no exact "
                    "arithmetic: random, design, baseline and translated "
                    "float64 sets",
}
RUN_SECONDS = 20


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WHY.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": k, "unit": u, "better": b}
                      for k, (u, b, _) in LAYERS.items()],
    }


def cli_command(argv) -> list:
    return [sys.executable, "-m", "acuta.cli", *argv]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_subprocess(cmd, cwd: Path):
    return subprocess.run(cmd, cwd=cwd, env=cli_env(), capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)


def children_cpu() -> float:
    """CPU seconds of every child process that has ended and been waited
    for; the benchmark runs one child at a time, so a difference of two
    readings is the CPU time of the children run between them."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_subprocess(cmd, cwd: Path):
    """``(completed process, wall start, wall end, CPU seconds)``."""
    cpu = children_cpu()
    start = time.perf_counter()
    proc = run_subprocess(cmd, cwd)
    end = time.perf_counter()
    return proc, start, end, children_cpu() - cpu


def import_times(reps: int) -> list:
    """``(wall start, wall end, CPU seconds)`` of ``python -c "import
    acuta"`` in fresh interpreters."""
    times = []
    for _ in range(reps):
        proc, start, end, cpu = timed_subprocess(
            [sys.executable, "-c", "import acuta"], ROOT)
        if proc.returncode:
            raise RuntimeError(f"import acuta failed: {proc.stderr[-500:]}")
        times.append((start, end, cpu))
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    import workloads
    from workloads import CLI_PER_ROUND, Recorder, Runs, judge

    wl = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    try:
        setup_times = []
        for rep in range(SETUP_REPS if not args.trace else 1):
            shutil.rmtree(work, ignore_errors=True)
            start = time.process_time()
            work.mkdir(parents=True)
            inputs = wl.setup(args.seed, work)
            setup_times.append(time.process_time() - start)
        setup_s = statistics.median(setup_times)
        if not args.trace:
            setup_s += statistics.median(
                cpu for _, _, cpu in import_times(SETUP_REPS))

        # Only the first round's results are kept; each later round is
        # compared with them as soon as it ends, so memory does not grow
        # with the number of rounds.
        runs = Runs()
        # CPU seconds for the end-to-end metrics, wall seconds for the
        # traced run, whose spans are timed by the wall clock.
        certify, certify_wall, cli_times = [], [], []
        tracer = None

        def one_round(traced: bool) -> None:
            rec = Recorder()
            if traced:
                tracer.install()
            try:
                cpu, start = time.process_time(), time.perf_counter()
                wl.round(inputs, rec)
                certify_wall.append(time.perf_counter() - start)
                certify.append(time.process_time() - cpu)
            finally:
                if traced:
                    tracer.uninstall()
            runs.add_round(rec)
            for _ in range(CLI_PER_ROUND):
                proc, _, _, cpu = timed_subprocess(
                    cli_command(wl.cli_argv(inputs)), work)
                cli_times.append(cpu)
                runs.cli.append((proc.returncode, proc.stdout))

        began = time.perf_counter()
        probe_outputs = []
        if args.trace:
            from spans import Tracer
            tracer = Tracer(f"{wl.name}-seed{args.seed}-pid{os.getpid()}")
            one_round(False)
            one_round(True)
            probe_outputs = cli_probes(tracer, wl, inputs)
        else:
            one_round(False)
            while time.perf_counter() - began < args.seconds:
                one_round(False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # Checks, outside every timed phase.
        checks_began = time.perf_counter()
        attempted, failed, problems, known = judge(wl, inputs, runs,
                                                   args.seed)
        for code, out in probe_outputs:      # measurement probes, not ops
            try:
                wl.check_cli(inputs, runs.first.results, code, out)
            except Exception as exc:
                problems.append(f"in-process cli.main: {exc}")
        for msg in known:
            print(f"known fault, {msg}", file=sys.stderr)
        if known:
            for key, why in wl.known_faults.items():
                print(f"  ({key}: {why})", file=sys.stderr)
        for msg in problems:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
        print(f"rounds {checks_began - began:.1f} s, checks "
              f"{time.perf_counter() - checks_began:.1f} s", file=sys.stderr)

        if args.trace:
            untraced, traced = certify_wall
            layers = tracer.layer_metrics(traced, untraced)
            tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json")
            print_layers(wl.name, layers)
            metrics = {k: metric(v, LAYERS[k][0]) for k, v in layers.items()}
        else:
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "certify_s": metric(statistics.median(certify), "s"),
                "cli_s": metric(statistics.median(cli_times), "s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
            }
            print(f"workload {wl.name}: {1 + len(runs.later)} rounds, "
                  f"{len(cli_times)} CLI runs, median round wall time "
                  f"{statistics.median(certify_wall):.4f} s")
            for k, m in metrics.items():
                print(f"  {k:12s} {m['value']:.4f} {m['unit']}")
        print(f"  attempted {attempted}, failed {failed}")
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cli_probes(tracer, wl, inputs, reps: int = 3) -> list:
    """cli.startup: a bare ``import acuta`` subprocess; cli.main: the
    workload's CLI command run in-process, output checked like the CLI's."""
    import contextlib
    import io

    from acuta import cli

    for start, end, _ in import_times(reps):
        tracer.record("cli.startup", start, end, phase="cli")
    outputs = []
    for _ in range(reps):
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(wl.cli_argv(inputs))
        tracer.record("cli.main", start, time.perf_counter(), phase="cli")
        outputs.append((code, buf.getvalue()))
    return outputs


def print_layers(name: str, layers: dict) -> None:
    print(f"per-layer metrics, workload {name} (one traced round)")
    print(f"  {'metric':26s} {'value':>14s} unit   should move")
    for key, value in layers.items():
        unit, _, moves = LAYERS[key]
        print(f"  {key:26s} {value:14.6g} {unit:6s} {moves}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WHY:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = m
        rows.append((name, res))
    keys = list(rows[0][1]["metrics"])
    print(f"{'workload':16s} " + " ".join(f"{k:>14s}" for k in keys)
          + "   attempted  failed")
    for name, res in rows:
        cells = " ".join(f"{res['metrics'][k]['value']:>11.4f} "
                         f"{res['metrics'][k]['unit']:2s}" for k in keys)
        print(f"{name:16s} {cells}   {res['attempted']:9d} "
              f"{res['failed']:7d}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from this file and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "acuta" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'acuta'}; run from the root of "
              "an acuta checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
