"""Record bench/reference.json from the selfsim sources of this checkout.

Usage, from the repository root:  python3 bench/make_reference.py

For each size it runs every workload's jobs once, in a child process set
up exactly as the benchmark's, and keeps what the checks compare
against: the Luroth transform samples and envelope with their bounds,
the renewal limits, the diagonal bracket, and the sha256 of every CSV
table that does not depend on the seed.  Rerun it only when a change is
meant to alter these values, and say so with the change.
"""

import json
import shutil
import sys

import jobs as jobspec
import run


def record(size: str) -> dict:
    ref = {"csv_sha256": {}, "renewal_limits": {}}
    for workload in jobspec.WORKLOADS:
        jobs = jobspec.workload_jobs(workload, size, seed=0)
        rep_dir = run.WORK / f"reference-{workload}"
        shutil.rmtree(rep_dir, ignore_errors=True)
        try:
            result = run.run_child(rep_dir, jobs, False, "reference", False, timeout=600)
            out = rep_dir / "out"
            for job, outcome in zip(jobs, result["jobs"]):
                if outcome["exit"] != 0:
                    raise SystemExit(f"{job.name} exited with {outcome['exit']}")
                rows = jobspec.read_rows(out / f"{job.name}.csv")[1]
                if job.name == "luroth_scan":
                    env = jobspec.read_rows(out / "luroth_scan.envelope.csv")[1]
                    ref["luroth_scan"] = {
                        "samples": [[float(r[0]), float(r[1]), float(r[2]), float(r[4])]
                                    for r in rows],
                        "envelope": [[float(v) for v in r] for r in env]}
                elif job.name == "diagonal":
                    ref["diagonal"] = [float(rows[0][2]), float(rows[0][3])]
                elif job.seed_dependent:
                    ref["renewal_limits"][job.name] = [float(rows[0][4]), float(rows[0][5])]
                if not job.seed_dependent:
                    for path in jobspec.tables(job, out):
                        ref["csv_sha256"][path.name] = jobspec.sha256(path)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
    return ref


def main() -> int:
    doc = {size: record(size) for size in jobspec.SIZES}
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
