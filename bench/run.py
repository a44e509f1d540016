"""Benchmark of the selfsim batch CLI: whole jobs end to end, layers by trace.

Usage, from the repository root:

    python3 bench/run.py --workload {spectral,resonance,renewal-mass,all}
                         --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Each repetition runs the workload's job list (bench/jobs.py) in one fresh
interpreter (bench/child.py) with SELFSIM_THREADS cleared, so caches start
cold as they do for a CLI user.  Repetitions follow each other, one
process at a time, until S seconds have passed; every metric is a median
over them.  Each repetition is also a sample of the set-up time; an
untraced run with fewer than five adds import-only processes.  Every
job's outputs are checked and then deleted.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
    wall_s       seconds to run the job list, set-up excluded
    setup_s      seconds from interpreter start until selfsim is imported
    peak_rss_mb  peak resident set of the repetition's process
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics: self time of each wrapped layer (its span's duration
minus what its child spans cover), the layer's work counts, and the
tracing overhead against the untraced repetitions.

The share of failed jobs (non-zero exit or a failed output check) is
printed per workload; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  Per-run records (machine,
every repetition, every problem found) and the spans of traced runs are
written under .bench_work/.

Workloads (why each one):
    spectral      fourier-scan and decay-fit on Luroth {2,3} at t=20, then
                  fourier-scan on the Cantor measure at t=18; time goes to
                  the stopping family and the phase sums, output is tiny.
                  The second scan reuses the cached grid, the third builds
                  a one-scale grid.
    resonance     dioph-scan on Luroth {2,3} and on the 9/10 system;
                  write-heavy: most time is CSV and sidecar formatting.
    renewal-mass  renewal Monte Carlo on both systems, regularity, diagonal
                  and luroth-figure; bypasses ifs and fourier.  The 9/10
                  walk's small minimum step sets the peak memory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as jobspec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = HERE / "child.py"

# Set-up samples per untraced run; import-only processes top up the
# repetitions when too few fit in the measured window.
SETUP_SAMPLES = 5
# Every run ends well inside the 180 s a benchmark invocation may take.
RUN_BUDGET_S = 165.0
SPAN_NAMES = ("cli.main", "cli.parse_spec", "fourier.dyadic_scan", "fourier.decay_fit",
              "ifs.stopping_words", "diophantine.scan", "renewal.mc", "renewal.limit",
              "measure.regularity", "measure.diagonal", "luroth.figure")
COUNTERS = ("ifs.stopping_words.calls", "ifs.words", "fourier.phase_evals", "fourier.blocks",
            "fourier.bound_dominated_blocks", "diophantine.rows", "renewal.samples",
            "renewal.chunks", "renewal.limit.evals", "measure.multisets",
            "measure.cylinders", "luroth.intervals")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SELFSIM_THREADS", None)
    # The load is one process with at most 2 threads: the CLI's own
    # --threads pool, each worker running single-threaded BLAS.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(rep_dir: Path, jobs, trace: bool, run_id: str, bytes_per_word: bool,
              timeout: float) -> dict:
    """Run one repetition in a fresh process and return its result record."""
    outdir = rep_dir / "out"
    outdir.mkdir(parents=True)
    config = rep_dir / "config.json"
    config.write_text(json.dumps({
        "src": str(SRC), "outdir": str(outdir), "trace": trace, "run_id": run_id,
        "bytes_per_word": bytes_per_word,
        "jobs": [[job.name, list(job.argv)] for job in jobs]}), encoding="utf-8")
    with open(rep_dir / "stdout.txt", "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), repr(time.monotonic()), str(config)],
                env=child_env(), stdout=out, stderr=err, timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{run_id}: killed after {timeout:.0f} s") from None
    result = rep_dir / "result.json"
    if proc.returncode != 0 or not result.is_file():
        tail = (rep_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{run_id}: exit {proc.returncode}\n{tail}")
    stderr = (rep_dir / "stderr.txt").read_text(errors="replace")
    if stderr:
        print(stderr, file=sys.stderr, end="")
    return json.loads(result.read_text(encoding="utf-8"))


def check_rep(jobs, result: dict, outdir: Path, seed: int, ref: dict) -> dict:
    """Problems per failed job name, from exit codes and output checks."""
    exits = {j["name"]: j["exit"] for j in result["jobs"]}
    problems = {}
    for job in jobs:
        if exits.get(job.name) != 0:
            problems[job.name] = [f"exit code {exits.get(job.name)}"]
            continue
        try:
            found = jobspec.check_job(job, outdir, seed, ref)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            problems[job.name] = found
    return problems


def output_stats(jobs, outdir: Path, ref: dict) -> dict:
    files = [p for p in outdir.iterdir() if p.is_file()]
    changed, compared = jobspec.csv_changes(jobs, outdir, ref)
    return {"bytes": sum(p.stat().st_size for p in files),
            "rows": sum(p.read_bytes().count(b"\n") - 1 for p in files if p.suffix == ".csv"),
            "csv_changed": changed, "csv_compared": compared}


def repetition(index: int, workload: str, jobs, seed: int, ref: dict, traced: bool,
               bytes_per_word: bool, timeout: float) -> dict:
    rep_dir = WORK / f"rep-{os.getpid()}-{index}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    run_id = f"{workload}.s{seed}.r{index}"
    try:
        try:
            result = run_child(rep_dir, jobs, traced, run_id, bytes_per_word, timeout)
        except ChildFailed as exc:
            print(f"repetition failed: {exc}", file=sys.stderr)
            return {"traced": traced, "crashed": True,
                    "problems": {job.name: ["process failed"] for job in jobs}}
        result["traced"] = traced
        if jobs:
            result["problems"] = check_rep(jobs, result, rep_dir / "out", seed, ref)
            result.update(output_stats(jobs, rep_dir / "out", ref))
        return result
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def self_times(spans) -> dict:
    """Per span name: total duration minus the time covered by child spans."""
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def grid_reuse(spans) -> float:
    scans = [i for i, s in enumerate(spans) if s[0] == "fourier.dyadic_scan"]
    built = {s[3] for s in spans if s[0] == "ifs.stopping_words"}
    return sum(i not in built for i in scans) / len(scans) if scans else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(plain, setups) -> dict:
    return {"wall_s": median([r["wall_s"] for r in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["maxrss_kb"] / 1024.0 for r in plain])}


def per_layer(plain, traced) -> dict:
    metrics = {}
    selfs = [self_times(r["spans"]) for r in traced]
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = median([s.get(name, 0.0) for s in selfs])
    for name in COUNTERS:
        metrics[name] = median([r["counters"].get(name, 0) for r in traced])
    metrics["ifs.bytes_per_word"] = next(
        (r["bytes_per_word"] for r in traced if "bytes_per_word" in r), 0.0)
    metrics["fourier.grid_reuse_ratio"] = median([grid_reuse(r["spans"]) for r in traced])
    metrics["cli.bytes_written"] = median([r["bytes"] for r in traced])
    metrics["cli.rows_written"] = median([r["rows"] for r in traced])
    metrics["cli.csv_changed_tables"] = median([r["csv_changed"] for r in traced])
    metrics["cli.tables_compared"] = median([r["csv_compared"] for r in traced])
    metrics["proc.cpu_s"] = median([r["cpu_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / median([r["wall_s"] for r in plain]) - 1.0
    metrics["trace.self_sum_frac"] = median(
        [sum(s.values()) / r["wall_s"] for s, r in zip(selfs, traced)])
    return metrics


def machine_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": "unknown", "ram_gb": None,
            "fs": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
        with open("/proc/meminfo", encoding="utf-8") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal"))
        info["ram_gb"] = round(kb / 2 ** 20, 2)
        with open("/proc/mounts", encoding="utf-8") as fh:
            mounts = [line.split()[1:3] for line in fh]
        best = max((m for m in mounts if str(WORK).startswith(m[0].rstrip("/") + "/")),
                   key=lambda m: len(m[0]), default=None)
        info["fs"] = best[1] if best else "unknown"
    except (OSError, StopIteration):
        pass
    return info


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload for ``seconds`` and return its metrics and record."""
    started = time.monotonic()
    budget_end = started + RUN_BUDGET_S
    jobs = jobspec.workload_jobs(workload, size, seed)
    ref = jobspec.load_reference(size)
    deadline = time.monotonic() + seconds
    reps = []
    last = 0.0
    while True:
        now = time.monotonic()
        need = (2 if trace else 1) - len(reps)
        if need <= 0 and (now >= deadline or now + last >= budget_end):
            break
        traced = trace and len(reps) % 2 == 1
        first_traced = traced and len(reps) == 1
        reps.append(repetition(len(reps), workload, jobs, seed, ref, traced, first_traced,
                               budget_end - now))
        last = time.monotonic() - now
    probes = [] if trace else [
        repetition(-k, workload, [], seed, ref, False, False, budget_end - time.monotonic())
        for k in range(1, SETUP_SAMPLES - len(reps) + 1)]
    ok = [r for r in reps if not r.get("crashed")]
    plain = [r for r in ok if not r["traced"]]
    traced_reps = [r for r in ok if r["traced"]]
    failed = sum(len(r["problems"]) for r in reps)
    attempted = len(jobs) * len(reps)
    setups = [r["setup_s"] for r in probes + reps if "setup_s" in r]
    if trace and plain and traced_reps:
        metrics = per_layer(plain, traced_reps)
    elif not trace and plain:
        metrics = end_to_end(plain, setups)
    else:
        metrics = {}
    versions = next((r["versions"] for r in probes + reps if "versions" in r), {})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "machine": {**machine_info(), **versions},
        "jobs": [[job.name] + list(job.argv) for job in jobs],
        "attempted": attempted, "failed": failed, "setup_samples": setups,
        "repetitions": [{k: v for k, v in r.items() if k not in ("spans", "versions")}
                        for r in reps],
        "metrics": metrics, "elapsed_s": time.monotonic() - started,
    }
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-{size}-seed{seed}-trace{int(trace)}"
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        spans = [s for r in traced_reps for s in r["spans"]]
        (runs / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return record


def report(record: dict, units: dict) -> None:
    m = record["machine"]
    reps = record["repetitions"]
    print(f"# machine: nproc={m['nproc']} cpu={m['cpu']!r} ram_gb={m['ram_gb']} fs={m['fs']} "
          + " ".join(f"{k}={m[k]}" for k in ("python", "numpy", "scipy") if k in m))
    traced = sum(bool(r.get("traced")) for r in reps)
    print(f"# {record['workload']} size={record['size']} seed={record['seed']}: "
          f"{len(reps)} repetitions ({traced} traced), {len(record['setup_samples'])} set-ups")
    plain = len(reps) - traced
    samples = {"wall_s": plain, "peak_rss_mb": plain, "proc.cpu_s": plain,
               "setup_s": len(record["setup_samples"])}
    for name, value in record["metrics"].items():
        n = samples.get(name, traced)
        print(f"#   {name:<34} {value:>14.6g} {units.get(name, '?'):<6} median of n={n}")
    share = record["failed"] / record["attempted"] if record["attempted"] else 0.0
    print(f"#   {'fail_share':<34} {share:>14.6g} {'share':<6} "
          f"{record['failed']} of {record['attempted']} jobs failed")
    for i, r in enumerate(reps):
        for job, problems in r.get("problems", {}).items():
            print(f"# FAILED repetition {i} {job}: {'; '.join(problems)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=jobspec.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(jobspec.SIZES), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "selfsim" / "cli.py").is_file():
        print(f"error: no selfsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    names = jobspec.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for workload in names:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.size)
        report(record, units)
        if set(record["metrics"]) != set(units):
            print(f"error: {workload} measured {sorted(record['metrics'])}, "
                  f"BENCHMARK.json names {sorted(units)}", file=sys.stderr)
            return 1
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = f"{workload}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in record["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
