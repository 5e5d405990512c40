"""Record the machine facts and the reference output digests of the benchmark.

    python3 perfbench/record.py

Run from the root of a checkout. Writes perfbench/machine.json (CPU count,
cache sizes, Python, numpy, scipy and OpenBLAS versions, the BLAS thread
count run.py sets, the workload seed) and perfbench/digests.json (the
sha256 of every output file of one full-size run of each workload at that
seed). run.py prints whether a run at that seed reproduces the recorded
digests; outputs that should stay byte-identical can be compared there.
"""
from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

RECORD_SEED = 1


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = (index / "size").read_text().strip()
    return sizes


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def machine_facts() -> dict:
    import numpy
    import scipy

    from run import _environment

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": int(_environment(Path("src"))["OPENBLAS_NUM_THREADS"]),
        "workload_seed": RECORD_SEED,
    }


def output_digests() -> dict[str, dict[str, str]]:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import qwavesim
    import qwavesim.cli  # noqa: F401

    import workloads
    from worker import _digests

    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            work = Path(tmp)
            spec = workloads.generate(name, RECORD_SEED, work, "full")
            out = work / "out"
            out.mkdir()
            result = workload.run(qwavesim, spec, out)
            workload.check(spec, out, result, workload.reference(qwavesim, spec))
            digests[name] = _digests(out)
    return digests


def main() -> int:
    if not (Path.cwd() / "src" / "qwavesim" / "__init__.py").is_file():
        print("record: run from the root of a checkout", file=sys.stderr)
        return 2
    for name, payload in (("machine.json", machine_facts()),
                          ("digests.json", {"seed": RECORD_SEED, "workloads": output_digests()})):
        (HERE / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"record: wrote {HERE / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
