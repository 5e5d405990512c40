"""The process that runs one workload; started by run.py, one per invocation.

It imports qwavesim from the checkout, runs the workload once at its tiny
size so that lazy imports and thread pools start outside the timing,
computes the workload's oracle once, and then repeats the full-size run
until the measuring window is spent. Every run is checked, and the sha256
of every output file must repeat from run to run.

With --trace 1 untraced and traced runs alternate, so the trace overhead
is measured in the same process against the same inputs.

Usage: python3 perfbench/worker.py --workload NAME --work DIR --seconds S --trace 0|1
The result goes to DIR/result.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3  # untraced runs per window, even when the window is short


def _digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


class Runner:
    def __init__(self, q, name: str, work: Path):
        self.q = q
        self.workload = workloads.WORKLOADS[name]
        self.work = work
        self.spec = json.loads((work / "spec.json").read_text())
        self.runs: list[dict] = []
        self.layers: list[dict] = []
        self.digests: dict[str, str] | None = None

    def once(self, spec: dict, reference, tracer: tracing.Tracer | None = None,
             size: str = "full") -> float:
        """One checked run; returns its wall time."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        error = None
        result = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.workload.run(self.q, spec, out)
            else:
                tracer.reset()
                with tracing.installed(tracer, self.q):
                    result = self.workload.run(self.q, spec, out)
        except Exception:  # a failed run is counted, not fatal
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if error is None:
            try:
                self.workload.check(spec, out, result, reference)
                digests = _digests(out)
                if size == "full":
                    if self.digests is None:
                        self.digests = digests
                    elif digests != self.digests:
                        raise workloads.CheckFailed("output digests differ between runs")
            except (workloads.CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
                error = f"check failed: {exc}"
        if error is not None:
            print(f"worker: {size} run failed: {error}", file=sys.stderr)
        if tracer is not None and error is None:
            layers = tracer.finish()
            layers["trace.run_s"] = seconds
            layers["cli.other_s"] = seconds - sum(
                v for k, v in layers.items() if k.endswith("_s") and k in tracing.LAYER_METRICS
            )
            self.layers.append(layers)
        self.runs.append({"size": size, "traced": tracer is not None, "seconds": seconds,
                          "ok": error is None})
        return seconds


def _layer_means(runner: Runner) -> tuple[dict[str, float], list[str]]:
    """Per-layer means over the traced runs, and the metrics any run recorded."""
    if not runner.layers:
        return {}, []
    names = [*tracing.LAYER_METRICS, "cli.other_s", "trace.run_s"]
    means = {k: statistics.fmean(run.get(k, 0.0) for run in runner.layers) for k in names}
    plain = [r["seconds"] for r in runner.runs
             if r["size"] == "full" and not r["traced"] and r["ok"]]
    if plain:
        means["trace.overhead_s"] = means["trace.run_s"] - statistics.fmean(plain)
    return means, sorted({k for run in runner.layers for k in run})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import qwavesim
    import qwavesim.cli
    import qwavesim.io  # noqa: F401  (traced module)

    runner = Runner(qwavesim, args.workload, args.work)
    tiny_spec = json.loads((args.work / "tiny" / "spec.json").read_text())
    runner.once(tiny_spec, runner.workload.reference(qwavesim, tiny_spec), size="tiny")
    reference = runner.workload.reference(qwavesim, runner.spec)

    tracer = tracing.Tracer() if args.trace else None
    window = time.perf_counter()
    while True:
        plain = runner.once(runner.spec, reference)
        traced = runner.once(runner.spec, reference, tracer) if tracer else 0.0
        full = [r for r in runner.runs if r["size"] == "full"]
        elapsed = time.perf_counter() - window
        enough = bool(tracer) or len(full) >= MIN_RUNS
        if enough and elapsed + plain + traced > args.seconds:
            break

    result = {
        "qwavesim": str(Path(qwavesim.__file__).resolve()),
        "runs": runner.runs,
        "digests": runner.digests or {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"], result["called"] = _layer_means(runner)
    (args.work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
