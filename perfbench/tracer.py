"""Layer spans and counters recorded around calls into qwavesim.

The tracer wraps public functions of the package from outside: every
module attribute of ``qwavesim.*`` that refers to a traced function is
replaced for the duration of ``installed()``, so calls made through
``from .x import f`` bindings inside the package are seen too. The
program source is not touched.

Each wrapped call opens a span. A span's self time is its duration minus
the time covered by spans opened inside it, so the self times of one run
add up to the time spent inside traced calls, with no interval counted
twice. Counters are recorded at the same boundaries from arguments and
return values.
"""
from __future__ import annotations

import contextlib
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

# metric name -> unit; the order is the order of the report
LAYER_METRICS = {
    "scenario.load_s": "s",
    "discretize.material_s": "s",
    "discretize.assemble_s": "s",
    "discretize.unknowns": "count",
    "constraints.reduce_s": "s",
    "constraints.pinned": "count",
    "constraints.induced_source_s": "s",
    "constraints.induced_source_calls": "count",
    "reference.leapfrog_s": "s",
    "reference.leapfrog_steps": "count",
    "reference.cell_updates": "count",
    "reference.spectral_s": "s",
    "reference.spectral_calls": "count",
    "encoding.build_hamiltonian_s": "s",
    "encoding.build_hamiltonian_calls": "count",
    "encoding.eig_s": "s",
    "encoding.eig_calls": "count",
    "encoding.eig_max_dim": "count",
    "encoding.encode_s": "s",
    "evolution.build_s": "s",
    "evolution.evolve_s": "s",
    "evolution.evolve_calls": "count",
    "evolution.max_dim": "count",
    "sources.decompose_s": "s",
    "sources.slices": "count",
    "sources.assemble_s": "s",
    "measurement.augment_s": "s",
    "measurement.estimate_s": "s",
    "measurement.estimate_calls": "count",
    "measurement.strings": "count",
    "measurement.shots": "count",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "io.read_s": "s",
    "io.bytes_read": "bytes",
    "initcircuit.ray_s": "s",
    "initcircuit.circuit_s": "s",
    "initcircuit.direct_s": "s",
    "initcircuit.covariance_s": "s",
    "initcircuit.field_evals": "count",
}
# filled in by the worker from the traced and untraced run times
RUN_METRICS = {"cli.other_s": "s", "trace.run_s": "s", "trace.overhead_s": "s"}


class Tracer:
    """Span stack, self times and counters of one run."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.written: set[str] = set()
        self._stack: list[list] = []  # [start, time covered by child spans]

    def span(self, metric: str, fn, *args, **kwargs):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            self.values[metric] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def count(self, metric: str, amount: float = 1) -> None:
        self.values[metric] += amount

    def peak(self, metric: str, value: float) -> None:
        self.maxima[metric] = max(self.maxima[metric], value)

    def finish(self) -> dict[str, float]:
        """The run's metrics; files written count once each, at their final size."""
        if self.written:
            self.values["io.bytes_written"] = sum(os.path.getsize(p) for p in self.written)
        return {**self.values, **self.maxima}


class Hook(NamedTuple):
    """One traced call.

    owner is a module (the function is swapped wherever the package binds
    it) or a class (the method is swapped on the class). after(arguments,
    result) records counters; skip(arguments) marks calls that do no work;
    prepare(args) rewrites positional arguments before the call.
    """

    owner: object
    attr: str
    metric: str
    after: Callable | None = None
    skip: Callable | None = None
    prepare: Callable | None = None


def _hooks(tracer: Tracer, q) -> list[Hook]:
    def reduced(args, result):
        tracer.count("constraints.pinned", result.constrained_indices.size)
        induced = result.source

        def source(t):
            tracer.count("constraints.induced_source_calls")
            return tracer.span("constraints.induced_source_s", induced, t)

        object.__setattr__(result, "source", source)  # the dataclass is frozen

    def leapfrog(args, result):
        steps = int(round((float(result.times[-1]) - args.get("t_start", 0.0)) / args["dt"]))
        tracer.count("reference.leapfrog_steps", steps)
        tracer.count("reference.cell_updates", steps * len(args["w0"]))

    def eig(args, result):
        tracer.count("encoding.eig_calls")
        tracer.peak("encoding.eig_max_dim", args["self"].dim)

    def evolved(args, result):
        tracer.count("evolution.evolve_calls")
        tracer.peak("evolution.max_dim", args["ham"].dim)

    def estimated(args, result):
        strings = len(result.observable.strings)
        tracer.count("measurement.estimate_calls")
        tracer.count("measurement.strings", strings)
        tracer.count("measurement.shots", (result.shots or 0) * strings)

    def read(args, result):
        path = str(args["path"])
        tracer.count("io.bytes_read", os.path.getsize(path) + os.path.getsize(path + ".json"))

    def wrote(args, result):
        tracer.written.add(str(args["path"]))

    def calls(metric):
        return lambda args, result: tracer.count(metric)

    def count_field(args):
        field = args[0]
        if getattr(field, "_perfbench_counted", False):  # covariance_defect samples the ray too
            return args

        def counted(x):
            tracer.count("initcircuit.field_evals")
            return field(x)

        counted._perfbench_counted = True
        return (counted,) + args[1:]

    hooks = [
        Hook(q.scenario, "load_scenario", "scenario.load_s"),
        Hook(q.discretize.MaterialModel, "acoustic", "discretize.material_s"),
        Hook(q.discretize, "assemble_operator_pair", "discretize.assemble_s",
             lambda args, result: tracer.count("discretize.unknowns", result.n_total)),
        Hook(q.constraints, "reduce_system", "constraints.reduce_s", reduced),
        Hook(q.reference, "leapfrog_evolve", "reference.leapfrog_s", leapfrog),
        Hook(q.reference, "spectral_forced_solution", "reference.spectral_s",
             calls("reference.spectral_calls")),
        Hook(q.encoding, "build_hamiltonian", "encoding.build_hamiltonian_s",
             calls("encoding.build_hamiltonian_calls")),
        # the decomposition is memoized; a call that returns the cache does no work
        Hook(q.encoding.Hamiltonian, "eigendecomposition", "encoding.eig_s", eig,
             skip=lambda args: args[0]._eig is not None),
        Hook(q.encoding, "encode", "encoding.encode_s"),
        Hook(q.evolution, "build_sync_hamiltonian", "evolution.build_s"),
        Hook(q.evolution, "build_mult_hamiltonian", "evolution.build_s"),
        Hook(q.evolution, "evolve", "evolution.evolve_s", evolved),
        Hook(q.sources, "greens_decompose", "sources.decompose_s",
             lambda args, result: tracer.count("sources.slices", len(result))),
        Hook(q.sources, "assemble_multisource_state", "sources.assemble_s"),
        Hook(q.measurement, "augment_state", "measurement.augment_s"),
        Hook(q.measurement, "estimate", "measurement.estimate_s", estimated),
        Hook(q.io, "read_state", "io.read_s", read),
        Hook(q.initcircuit, "sample_reference_ray", "initcircuit.ray_s", prepare=count_field),
        Hook(q.initcircuit, "build_circuit", "initcircuit.circuit_s"),
        Hook(q.initcircuit, "simulate_circuit", "initcircuit.circuit_s"),
        Hook(q.initcircuit, "direct_polar_state", "initcircuit.direct_s", prepare=count_field),
        Hook(q.initcircuit, "covariance_defect", "initcircuit.covariance_s", prepare=count_field),
    ]
    hooks += [
        Hook(q.io, name, "io.write_s", wrote)
        for name, value in sorted(vars(q.io).items())
        if name.startswith("write_") and callable(value)
    ]
    return hooks


def _wrap(tracer: Tracer, original, hook: Hook):
    signature = inspect.signature(original)

    def traced(*args, **kwargs):
        if hook.prepare is not None:
            args = hook.prepare(args)
        if hook.skip is not None and hook.skip(args):
            return original(*args, **kwargs)
        result = tracer.span(hook.metric, original, *args, **kwargs)
        if hook.after is not None:
            hook.after(signature.bind(*args, **kwargs).arguments, result)
        return result

    traced.__wrapped__ = original
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, q):
    """Swap every traced function for its wrapper; restore on exit."""
    swapped = []  # (owner, attribute, original)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "qwavesim" or n.startswith("qwavesim.")]
    try:
        for hook in _hooks(tracer, q):
            owner, attr = hook.owner, hook.attr
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(tracer, raw.__func__, hook))
                else:
                    wrapped = _wrap(tracer, raw, hook)
                swapped.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = _wrap(tracer, original, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        swapped.append((module, name, original))
                        setattr(module, name, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(swapped):
            setattr(owner, attr, original)
