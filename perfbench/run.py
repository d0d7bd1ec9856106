"""Benchmark of the emgactions pipeline, run through the CLI's own entry point.

    python3 perfbench/run.py                      # every workload, summary table
    python3 perfbench/run.py --workload eval_auto --seed 3 --seconds 30 --trace 0

One workload per process, closed loop: one caller runs one command at a time
and starts the next when the last returns, for as many commands as fit in
``--seconds`` seconds of command time (at least two). With ``--trace 1``
untraced and traced commands alternate, and per-layer metrics are reported
instead of end-to-end ones. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

# Pinned before numpy loads: one BLAS thread, at or below nproc on any host.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(ROOT, ".perfbench_cache")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_STARTS = 9
SETUP_STARTS_PER_COMMAND = 2
MIN_REPS = 2
DEFAULT_SECONDS = 30


@dataclass(frozen=True)
class Workload:
    """One CLI command on generated input; ``{input}`` in argv is the input directory.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    argv: tuple
    spec: object
    check_spec: object
    config: dict = field(default_factory=dict)


_CHECK_CORPUS = inputs.Corpus(subjects=(1,), actions=(1, 2, 3))
_CHECK_MATRIX = inputs.Matrix(subjects=2, trials=5)
_EXTRACT = ("extract", "--manifest", "{input}")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("ingest_full", _EXTRACT, inputs.Corpus(), _CHECK_CORPUS),
        # Not in BENCHMARK.json: on a shared 2-core host its run-to-run
        # spread reached the largest bound allowed. Run it by name.
        Workload(
            "ingest_windowed", _EXTRACT, inputs.Corpus(subjects=(1,)), _CHECK_CORPUS, {"window": 128}
        ),
        Workload(
            "eval_auto",
            ("eval", "--features", "{input}/features.csv", "--selected", "reference"),
            inputs.Matrix(),
            _CHECK_MATRIX,
            {"runs": 2},
        ),
        Workload(
            "select_sfs",
            ("select", "--features", "{input}/features.csv"),
            inputs.Matrix(),
            _CHECK_MATRIX,
            {"max_features": 2},
        ),
    )
}


def environment() -> dict:
    """Facts a result depends on: revision, interpreter, BLAS and threads."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # A checkout that is not a repository must not report an enclosing one.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            capture_output=True,
            text=True,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure_setup(starts: int) -> list:
    """Wall times of fresh interpreters that import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import emgactions.cli as c; c.build_parser()"
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def write_config(path: str, config: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in config.items():
            fh.write(f"{key} = {value}\n")
    return path


def command(workload: Workload, input_dir: str, work: str, out: str) -> list:
    argv = [a.replace("{input}", input_dir) for a in workload.argv]
    config = write_config(os.path.join(work, "config.txt"), workload.config)
    return argv + ["--config", config, "--out", out]


def run_command(argv: list) -> tuple:
    """Run one CLI command in this process; returns (seconds, ok, stderr text)."""
    from emgactions import cli

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    ok = False
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ok = cli.main(argv) == 0
    except (Exception, SystemExit):
        err.write(traceback.format_exc())
    return time.perf_counter() - start, ok, err.getvalue()


def check_run(workload: Workload) -> tuple:
    """Run the workload's command once on its check input.

    Returns the output directory and a list with the failure, if any.
    """
    input_dir = inputs.ensure(workload.check_spec, checks.CHECK_SEED, CACHE_DIR, SRC)
    work = os.path.join(OUT_DIR, "work", f"{workload.name}-check-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "out")
    _, ok, err = run_command(command(workload, input_dir, work, out))
    return out, [] if ok else [f"check command failed: {err.strip()}"]


def check_outputs(workload: Workload, input_dir: str, rep_outs: list, check: tuple) -> tuple:
    """Run every output check; returns ({check: failures}, selection trace diff).

    ``check`` is what ``check_run`` returned.
    """
    from emgactions.experiment import ExperimentConfig

    results = {"identical_repeats": checks.identical_repeats([checks.digests(o) for o in rep_outs])}
    out = rep_outs[0]
    frozen = checks.load_frozen(workload.name)
    check_out, results["check_command"] = check
    diff_steps = 0
    if workload.argv[0] == "extract":
        spec = workload.spec
        patterns = len(spec.subjects) * len(spec.actions) * inputs.TRIALS
        results["registry"] = checks.registry_matches(out)
        results["features_shape"] = checks.feature_shape(out, patterns, frozen["header"])
        results["frozen_rows"] = checks.feature_rows_match(check_out, frozen)
    elif workload.argv[0] == "eval":
        results["frozen_eval"] = checks.eval_matches(check_out, frozen)
    else:
        defaults = ExperimentConfig()
        results["selection"] = checks.selection_consistent(
            out,
            os.path.join(input_dir, "features.csv"),
            k=defaults.sfs_folds,
            sigma=defaults.sfs_sigma,
            seed=defaults.seed,
            max_steps=workload.config["max_features"],
        )
        diff_steps = checks.trace_diff_steps(check_out, frozen)
    return results, diff_steps


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    input_dir = inputs.ensure(workload.spec, seed, CACHE_DIR, SRC)
    # The check command also warms the process: the first command run in a
    # process is measurably slower than later ones, even on another input.
    check = check_run(workload)

    work = os.path.join(OUT_DIR, "work", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    walls, traced_walls, rep_outs, errors, setup_times = [], [], [], [], []
    tracer = tracing.Tracer()
    while True:
        if not trace:
            # Interpreter starts are spread over the run, so the host's slow
            # spells weigh on setup_s as they do on wall_s.
            setup_times += measure_setup(SETUP_STARTS_PER_COMMAND)
        # A traced run alternates untraced and traced commands, so slow
        # spells of a shared host fall on both and cancel in the overhead.
        traced = trace and len(walls) > len(traced_walls)
        # Every repeat writes to the same path, so byte-identical outputs
        # can be compared; the directory is moved aside after timing.
        out = os.path.join(work, "out")
        argv = command(workload, input_dir, work, out)
        if traced:
            tracer.run = len(traced_walls)
            with tracer:
                seconds_taken, ok, err = run_command(argv)
            traced_walls.append(seconds_taken)
        else:
            seconds_taken, ok, err = run_command(argv)
            walls.append(seconds_taken)
        rep_outs.append(os.path.join(work, f"rep{len(rep_outs) + 1}"))
        if os.path.isdir(out):
            os.rename(out, rep_outs[-1])
        if not ok:
            errors.append(err)
        if trace and len(traced_walls) < len(walls):
            continue
        # Stop before a command (a pair of them when traced) that would take
        # the command time past --seconds, once the minimum has run.
        units = len(traced_walls) if trace else len(walls)
        measured = sum(walls) + sum(traced_walls)
        if units >= (1 if trace else MIN_REPS) and measured * (units + 1) / units > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        setup_times += measure_setup(max(0, SETUP_STARTS - len(setup_times)))

    results, diff_steps = check_outputs(workload, input_dir, rep_outs, check) if not errors else ({}, 0)
    if errors:
        results["commands"] = [e.strip().splitlines()[-1] if e.strip() else "failed" for e in errors]
    passed = sum(not failures for failures in results.values())
    correct = passed / len(results)
    attempted = len(walls) + len(traced_walls)

    if trace:
        layers = tracing.layer_metrics(tracer.spans, len(traced_walls))
        layers["selection.steps"] = (
            len(checks.read_selection(rep_outs[0]))
            if workload.argv[0] == "select" and not errors
            else 0
        )
        layers["selection.trace_diff_steps"] = diff_steps
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics = {k: {"value": float(v), "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "correct": {"value": correct, "unit": "fraction"},
        }

    env = environment()
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "walls_s": walls,
        "traced_walls_s": traced_walls,
        "checks": results,
        "error_rate": len(errors) / attempted,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        tracing.write_spans(stem + ".spans.tsv", tracer.spans)
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(os.path.dirname(check[0]), ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    for name, failures in results.items():
        for failure in failures:
            print(f"check {name} FAILED: {failure}")
    print(f"{workload.name} error_rate = {record['error_rate']!r} (commands failed / attempted)")
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']!r} {m['unit']}")
    ok = not errors and passed == len(results)
    summary = {
        "correct": ok,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if ok else 1


def _layer_unit(name: str) -> str:
    for suffix, unit in (
        ("_ms", "ms"),
        ("ms_per_pattern", "ms"),
        ("MB_per_s", "MB/s"),
        ("gflop", "gflop_computed"),
        ("gflop_per_s", "gflop_comp/s"),
        ("_pct", "percentile"),
        ("per_split", "ratio"),
        (".s", "s"),
        ("_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            print(f"{name}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            if not lines:
                continue
        result = json.loads(lines[-1])
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "fraction"))
        rows.extend((name, k, m["value"], m["unit"]) for k, m in result["metrics"].items())
    width = max(len(r[1]) for r in rows) if rows else 0
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:{width}s} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "emgactions", "cli.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
