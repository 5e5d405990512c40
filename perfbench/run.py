"""qwavesim benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ./src. The
seeded inputs are generated first, then set-up time is measured in fresh
interpreters, then the workload runs in a worker process of its own (see
worker.py). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. With --workload all every
workload runs in turn and a table of the end-to-end metrics is printed
instead. Everything is written under perfbench/_work and removed at exit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
TIMEOUT_S = 170.0  # the whole invocation; the worker gets what is left

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _environment(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = threads
    return env


def _setup_seconds(env: dict) -> list[float]:
    """Cold start: a fresh interpreter importing qwavesim.cli, several times.

    In a fresh checkout the first sample also compiles the bytecode; the
    median does not depend on that one slow sample.
    """
    command = [sys.executable, "-c", "import qwavesim.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}  q3 {q3:.4g}  n={len(values)}"


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Generate, time set-up, run the worker; return the summary."""
    deadline = time.monotonic() + TIMEOUT_S
    src = root / "src"
    work = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads.generate(name, seed, work / "tiny", "tiny")
        workloads.generate(name, seed, work, "full")
        env = _environment(src)
        setup = _setup_seconds(env)
        command = [sys.executable, str(HERE / "worker.py"), "--workload", name,
                   "--work", str(work), "--seconds", str(seconds), "--trace", str(int(trace))]
        try:
            proc = subprocess.run(command, env=env, cwd=root, stdout=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
            code = proc.returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            code = "timeout"
        result_path = work / "result.json"
        if code != 0 or not result_path.is_file():
            return {"attempted": 1, "failed": 1, "setup": setup, "worker_error": code}
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not Path(result["qwavesim"]).is_relative_to(src.resolve()):
        raise RuntimeError(f"qwavesim was imported from {result['qwavesim']}, not {src}")
    runs = result["runs"]
    result["attempted"] = len(runs)
    result["failed"] = sum(1 for r in runs if not r["ok"])
    result["setup"] = setup
    result["run_times"] = [r["seconds"] for r in runs
                           if r["size"] == "full" and not r["traced"] and r["ok"]]
    return result


def _report(name: str, seed: int, result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the metrics of the last line."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {seed}  runs {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.4g} (ratio)")
    if "worker_error" in result:
        print(f"  worker ended with {result['worker_error']}")
        return {}
    setup, times = result["setup"], result["run_times"]
    print(f"  setup_s      median {statistics.median(setup):.4f} s  {_quartiles(setup)}")
    if times:
        print(f"  run_s        median {statistics.median(times):.4f} s  {_quartiles(times)}")
        print(f"  run_s each   {' '.join(f'{t:.3f}' for t in times)}")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MiB")
    for file, digest in sorted(result["digests"].items()):
        print(f"  sha256 {digest}  {file}")
    recorded = json.loads((HERE / "digests.json").read_text())
    if recorded["seed"] == seed:
        same = recorded["workloads"][name] == result["digests"]
        print(f"  outputs {'match' if same else 'DIFFER from'} the digests recorded in digests.json")
    if not trace:
        if not times:
            return {}
        values = {"setup_s": statistics.median(setup), "run_s": statistics.median(times),
                  "peak_rss_mb": result["peak_rss_mb"]}
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    layers = result.get("layers", {})
    if not layers:
        return {}
    units = {**tracing.LAYER_METRICS, **tracing.RUN_METRICS}
    print("  per-layer, mean of traced runs (self times; layers not called are omitted):")
    for metric in units:
        if metric in result["called"] or metric in layers and metric == "trace.overhead_s":
            value = layers[metric]
            shown = f"{value:.6f}" if units[metric] == "s" else f"{value:.0f}"
            print(f"    {metric:34s} {shown} {units[metric]}")
    # the contract of the last line asks for every per-layer metric; a layer
    # this workload never calls reads 0
    return {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the child, and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "qwavesim" / "__init__.py").is_file():
        return _fail(f"no qwavesim source under {root / 'src'}; run from a checkout root")

    if args.workload == "all":
        rows = []
        for name in workloads.WORKLOADS:
            result = measure(name, args.seed, args.seconds, False, root)
            metrics = _report(name, args.seed, result, False)
            rows.append((name, result, metrics))
        print(f"\n{'workload':24s} {'setup_s/s':>9s} {'run_s/s':>9s} {'n':>3s} "
              f"{'peak_rss/MiB':>12s} {'error_rate':>11s}")
        for name, result, metrics in rows:
            cell = {k: metrics[k]["value"] if k in metrics else float("nan") for k in END_TO_END}
            print(f"{name:24s} {cell['setup_s']:9.4f} {cell['run_s']:9.4f} "
                  f"{len(result.get('run_times', [])):3d} {cell['peak_rss_mb']:12.1f} "
                  f"{result['failed'] / result['attempted']:11.4g}")
        return 0 if all(r["failed"] == 0 for _, r, _ in rows) else 1

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    metrics = _report(args.workload, args.seed, result, bool(args.trace))
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
