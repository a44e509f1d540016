"""One repetition of a workload, in a fresh interpreter.

Usage: python3 child.py <spawn-monotonic-time> <config.json>

The process imports selfsim (timed from the parent's spawn, so the
interpreter start counts), then calls ``selfsim.cli.main`` for each job
of the config and writes ``result.json`` next to the config.  A fresh
process per repetition keeps the cylinder-grid cache cold, as it is for
a CLI user.  With tracing on, the library entry points are wrapped
where their callers look them up, and spans stay in memory until the
jobs end.
"""

import sys
import time

SPAWNED = float(sys.argv[1])
import selfsim.cli  # noqa: E402  (the timed import)

SETUP_S = time.monotonic() - SPAWNED

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from math import comb  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402


class Trace:
    """Spans (name, start, end, parent index, run id) and named counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.stack = []
        self.run_id = None
        self.first_family_args = None

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, module, attr, name, on_result=None):
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        return inner


class CountingObservable:
    """Stands in for the renewal observable and counts how it is used.

    Monte Carlo calls ``apply_array`` once per chunk; the limit
    quadrature calls the observable once per evaluation point.
    """

    def __init__(self, inner, trace):
        self._inner = inner
        self._trace = trace

    def __call__(self, z):
        self._trace.count("renewal.limit.evals")
        return self._inner(z)

    def apply_array(self, z):
        self._trace.count("renewal.chunks")
        self._trace.count("renewal.samples", len(z))
        return self._inner.apply_array(z)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install(trace):
    """Wrap the layer entry points; returns the unwrapped stopping_words."""
    cli, fourier, renewal = selfsim.cli, selfsim.fourier, selfsim.renewal

    def on_family(args, kwargs, family):
        trace.count("ifs.stopping_words.calls")
        trace.count("ifs.words", len(family))
        if trace.first_family_args is None:
            trace.first_family_args = (args, kwargs)

    def on_scan(args, kwargs, result):
        samples, envelope = result
        trace.count("fourier.phase_evals", sum(s.cost for s in samples))
        trace.count("fourier.blocks", len(envelope))
        trace.count("fourier.bound_dominated_blocks",
                    sum(e.error_bound >= e.max_abs for e in envelope))

    def on_regularity(args, kwargs, report):
        size = args[0].size
        trace.count("measure.multisets", sum(comb(n + size - 1, size - 1)
                                             for n in range(1, report.depth + 1)))

    make_observable = cli.phase_test_function
    cli.phase_test_function = lambda s: CountingObservable(make_observable(s), trace)
    trace.wrap(cli, "main", "cli.main")
    trace.wrap(cli, "parse_spec", "cli.parse_spec")
    trace.wrap(cli, "dyadic_scan", "fourier.dyadic_scan", on_scan)
    trace.wrap(cli, "decay_fit", "fourier.decay_fit")
    family = trace.wrap(fourier, "stopping_words", "ifs.stopping_words", on_family)
    trace.wrap(cli, "weakly_diophantine_scan", "diophantine.scan",
               lambda a, k, r: trace.count("diophantine.rows", len(r.rows)))
    trace.wrap(cli, "renewal_expectation_mc", "renewal.mc")
    trace.wrap(renewal, "renewal_limit", "renewal.limit")
    trace.wrap(cli, "regularity_scan", "measure.regularity", on_regularity)
    trace.wrap(cli, "diagonal_mass", "measure.diagonal",
               lambda a, k, r: trace.count("measure.cylinders", a[0].size ** a[2]))
    trace.wrap(cli, "figure_intervals", "luroth.figure",
               lambda a, k, r: trace.count("luroth.intervals", len(r)))
    return family


def bytes_per_word(stopping_words, call):
    """tracemalloc peak of one stopping-family build, per word emitted."""
    args, kwargs = call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        family = stopping_words(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / max(1, len(family))


def main():
    config_path = Path(sys.argv[2])
    config = json.loads(config_path.read_text(encoding="utf-8"))
    src = Path(config["src"]).resolve()
    if src not in Path(selfsim.__file__).resolve().parents:
        print(f"selfsim was imported from {selfsim.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": SETUP_S,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__, "selfsim": selfsim.__version__}}
    trace = Trace() if config["trace"] else None
    stopping_words = install(trace) if trace else None
    outdir = Path(config["outdir"])
    jobs = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for name, argv in config["jobs"]:
        if trace:
            trace.run_id = f"{config['run_id']}.{name}"
        try:
            code = selfsim.cli.main(list(argv) + ["--out", str(outdir / f"{name}.csv")])
        except Exception:  # a crash counts as a failed job, the others still run
            traceback.print_exc()
            code = -1
        jobs.append({"name": name, "exit": code})
    result["wall_s"] = time.perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    result["maxrss_kb"] = cpu1.ru_maxrss
    result["jobs"] = jobs
    if trace:
        result["spans"] = trace.spans
        result["counters"] = trace.counters
        if config.get("bytes_per_word") and trace.first_family_args:
            result["bytes_per_word"] = bytes_per_word(stopping_words, trace.first_family_args)
    config_path.with_name("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
