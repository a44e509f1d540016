"""Self-test of the benchmark at smoke size.

Run from the repository root:  python3 -m pytest bench
"""

import json
import shutil

import pytest

import jobs as jobspec
import run


def test_smoke_workloads_pass_and_report_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        for workload in jobspec.WORKLOADS:
            record = run.run_workload(workload, seed=5, seconds=0, trace=trace, size="smoke")
            assert record["attempted"] > 0 and record["failed"] == 0, record["repetitions"]
            assert set(record["metrics"]) == {m["name"] for m in spec[kind]}


def _edit_cell(path, row, column, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = edit(cells[column])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# (workload, table, row, column, edit): each case corrupts one output value.
CORRUPTIONS = [
    ("spectral", "cantor_scan.csv", 5, 1, lambda v: repr(float(v) + 0.1)),
    ("spectral", "luroth_scan.csv", 20, 2, lambda v: repr(float(v) - 0.1)),
    ("resonance", "luroth_dioph.csv", 10, 0, lambda v: repr(float(v) * 2)),
    ("renewal-mass", "luroth_renewal.csv", 0, 1, lambda v: repr(float(v) + 0.5)),
    ("renewal-mass", "diagonal.csv", 0, 2, lambda v: "0.9"),
    ("renewal-mass", "figure.csv", 3, 2, lambda v: "1"),
]


@pytest.mark.parametrize("workload,table,row,column,edit", CORRUPTIONS)
def test_corrupted_value_makes_fail_share_nonzero(workload, table, row, column, edit):
    jobs = jobspec.workload_jobs(workload, "smoke", seed=5)
    ref = jobspec.load_reference("smoke")
    rep_dir = run.WORK / f"selftest-{table}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    try:
        result = run.run_child(rep_dir, jobs, False, "selftest", False, timeout=120)
        outdir = rep_dir / "out"
        assert run.check_rep(jobs, result, outdir, 5, ref) == {}
        _edit_cell(outdir / table, row, column, edit)
        problems = run.check_rep(jobs, result, outdir, 5, ref)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    assert len(problems) / len(jobs) > 0
    assert table.split(".")[0] in problems
