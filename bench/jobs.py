"""Workloads of the selfsim benchmark and the checks on their outputs.

A workload is a fixed list of CLI jobs, each one ``selfsim.cli.main``
call writing a CSV table (plus any extra tables) and a JSON sidecar.
The workload seed drives only the Monte Carlo ``--seed`` values and the
rows picked for spot checks; the program sees nothing but the argv.

Checks use tolerances derived from the reported error bounds, never
byte equality, so a change that soundly tightens a bound still passes.
CSV byte identity against the reference commit is only counted.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

LUROTH = '{"luroth":[2,3]}'
CANTOR = '{"maps":[["1/3","0"],["1/3","2/3"]]}'
NINETY = '{"maps":[["9/10","0"],["1/20","19/20"]]}'

# Contraction ratios of the specs, for the independent checks.
RATIOS = {LUROTH: (1 / 2, 1 / 6), CANTOR: (1 / 3, 1 / 3), NINETY: (9 / 10, 1 / 20)}

# "full" is the measured size; "smoke" runs every job in a few seconds.
SIZES = {
    "full": dict(scan_t="20", cantor_t="18", xi_max="1e6", b_max="1e5",
                 renewal_t="30", samples="1000000", ninety_samples="200000",
                 reg_depth="200", diag_depth="16", level="14"),
    "smoke": dict(scan_t="8", cantor_t="8", xi_max="1e3", b_max="2e3",
                  renewal_t="10", samples="2000", ninety_samples="1000",
                  reg_depth="12", diag_depth="6", level="5"),
}

WORKLOADS = ("spectral", "resonance", "renewal-mass")

# Standard deviations an MC estimate may sit from the exact value.
MC_SIGMAS = 5.0
# Renewal limits and regularity exponents are deterministic quadrature or
# closed-form values; these are the agreed drifts.
LIMIT_TOL = 1e-9
ALPHA_TOL = 1e-12
# Recomputed resonance gaps: phases b*loc up to ~1e6 carry ~1e-10 of
# rounding each.
GAP_TOL = 1e-9
SPOT_ROWS = 200
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Job:
    """One CLI call; ``name`` keys its artifacts and reference data."""

    name: str
    argv: tuple[str, ...]

    @property
    def spec(self) -> str:
        return arg(self, "--spec")

    @property
    def seed_dependent(self) -> bool:
        return self.argv[0] == "renewal"


def workload_jobs(workload: str, size: str, seed: int) -> list[Job]:
    """The job list of a workload at a size, with seed-derived MC seeds."""
    z = SIZES[size]
    if workload == "spectral":
        scan = ("--xi-max", z["xi_max"], "--points-per-octave", "8", "--threads", "2")
        return [
            Job("luroth_scan", ("fourier-scan", "--spec", LUROTH, "--t", z["scan_t"]) + scan),
            Job("luroth_fit", ("decay-fit", "--spec", LUROTH, "--t", z["scan_t"]) + scan),
            Job("cantor_scan", ("fourier-scan", "--spec", CANTOR, "--t", z["cantor_t"]) + scan),
        ]
    if workload == "resonance":
        return [
            Job("luroth_dioph", ("dioph-scan", "--spec", LUROTH, "--b-max", z["b_max"])),
            Job("ninety_dioph", ("dioph-scan", "--spec", NINETY, "--l", "2",
                                 "--b-max", z["b_max"])),
        ]
    if workload == "renewal-mass":
        rng = random.Random(seed)
        mc1, mc2 = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
        return [
            Job("luroth_renewal", ("renewal", "--spec", LUROTH, "--t", z["renewal_t"],
                                   "--samples", z["samples"], "--seed", str(mc1))),
            Job("ninety_renewal", ("renewal", "--spec", NINETY, "--t", z["renewal_t"],
                                   "--samples", z["ninety_samples"], "--seed", str(mc2))),
            Job("regularity", ("regularity", "--spec", LUROTH, "--depth", z["reg_depth"])),
            Job("diagonal", ("diagonal", "--spec", LUROTH, "--delta", "1e-6",
                             "--depth", z["diag_depth"])),
            Job("figure", ("luroth-figure", "--spec", LUROTH, "--level", z["level"])),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def arg(job: Job, flag: str) -> str:
    return job.argv[job.argv.index(flag) + 1]


def tables(job: Job, outdir: Path) -> list[Path]:
    """The job's CSV tables: the main one first, then extras by name."""
    main = outdir / f"{job.name}.csv"
    return [main] + sorted(outdir.glob(f"{job.name}.*.csv"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def sidecar_summary(job: Job, outdir: Path) -> dict:
    with open(outdir / f"{job.name}.json", encoding="utf-8") as fh:
        return json.load(fh)["summary"]


# --- independent references -------------------------------------------------

def natural_dimension(ratios) -> float:
    """Root of sum(r^s) = 1 by bisection; the sum falls strictly in s."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if math.fsum(r ** mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def step_law(spec: str) -> tuple[list[float], list[float]]:
    """Atoms -log r carrying the natural weights r^s."""
    ratios = RATIOS[spec]
    s = natural_dimension(ratios)
    return [-math.log(r) for r in ratios], [r ** s for r in ratios]


def cantor_transform(xi: float) -> complex:
    """Middle-thirds transform as the product of (1 + e^{-4 pi i xi 3^-n}) / 2."""
    value = 1 + 0j
    n = 1
    while 4 * math.pi * abs(xi) * 3.0 ** -n > 1e-20:
        value *= 0.5 * (1 + cmath.exp(-4j * math.pi * xi * 3.0 ** -n))
        n += 1
    return value


def exact_overshoot(spec: str, t: float, s_phase: float) -> complex:
    """E g(overshoot at level t) for the two-atom walk, summed over step counts.

    g(z) = exp(-2 pi i s e^{-z}) is the CLI's default renewal observable.
    """
    (l1, l2), (p1, p2) = step_law(spec)

    def g(z):
        return cmath.exp(-2j * math.pi * s_phase * math.exp(-z))

    total = 0j
    i = 0
    while i * l1 < t:
        j = 0
        while i * l1 + j * l2 < t:
            pos = i * l1 + j * l2
            visit = math.exp(math.lgamma(i + j + 1) - math.lgamma(i + 1) - math.lgamma(j + 1)
                             + i * math.log(p1) + j * math.log(p2))
            if pos + l1 >= t:
                total += visit * p1 * g(pos + l1 - t)
            if pos + l2 >= t:
                total += visit * p2 * g(pos + l2 - t)
            j += 1
        i += 1
    return total


def matveev_power(a1: int, a2: int) -> float:
    """2 * degree - 2 for the two-logarithm degree of digits a1, a2."""
    w1, w2 = math.log(a1 * (a1 - 1)), math.log(a2 * (a2 - 1))
    degree = 387072.0 * math.exp(3.0) * (15.8 + 5.5 * math.log(2.0)) * w1 * w2 + 1.0
    return 2.0 * degree - 2.0


def rounding_slack(cost: float, xi: float) -> float:
    """Floating-point allowance of a cylinder sum, on top of its certified bound."""
    return 4.0 * EPS * (cost + 2.0 * math.pi * abs(xi))


# --- per-job checks ---------------------------------------------------------

def _check_samples(rows, ref) -> list[str]:
    if len(rows) != len(ref):
        return [f"{len(rows)} samples, reference has {len(ref)}"]
    problems = []
    for row, (xi_r, re_r, im_r, eb_r) in zip(rows, ref):
        xi, re, im, eb, cost = float(row[0]), float(row[1]), float(row[2]), float(row[4]), \
            float(row[6])
        if xi != xi_r:
            problems.append(f"frequency {xi!r} where the reference has {xi_r!r}")
        elif not (eb >= 0.0) or abs(complex(re, im) - complex(re_r, im_r)) > \
                eb + eb_r + 2 * rounding_slack(cost, xi):
            problems.append(f"xi={xi!r}: value off the reference beyond both bounds")
    return problems[:3]


def _check_envelope(rows, ref, new_bounds=None) -> list[str]:
    if [float(r[0]) for r in rows] != [e[0] for e in ref]:
        return ["envelope blocks differ from the reference"]
    problems = []
    for k, (row, (x, m_r, eb_r)) in enumerate(zip(rows, ref)):
        eb = float(row[2]) if new_bounds is None else new_bounds[k]
        if abs(float(row[1]) - m_r) > eb + eb_r + 1e-9:  # 1e-9: rounding of both sums
            problems.append(f"block {x!r}: max_abs off the reference beyond both bounds")
    return problems[:3]


def check_job(job: Job, outdir: Path, seed: int, ref: dict) -> list[str]:
    """Problems found in one job's outputs; empty when the job passes."""
    main = outdir / f"{job.name}.csv"
    if not main.is_file():
        return ["no output table"]
    _, rows = read_rows(main)
    kind = job.argv[0]
    if kind == "fourier-scan" and job.spec == LUROTH:
        _, env = read_rows(outdir / f"{job.name}.envelope.csv")
        return (_check_samples(rows, ref[job.name]["samples"])
                + _check_envelope(env, ref[job.name]["envelope"]))
    if kind == "fourier-scan":
        problems = []
        for row in rows:
            xi, value, eb = float(row[0]), complex(float(row[1]), float(row[2])), float(row[4])
            err = abs(value - cantor_transform(xi))
            if not (err <= eb + rounding_slack(float(row[6]), xi)):
                problems.append(f"xi={xi!r}: error {err:.3g} exceeds its bound {eb:.3g}")
        return problems[:3]
    if kind == "decay-fit":
        scan_env = outdir / "luroth_scan.envelope.csv"
        bounds = [float(r[2]) for r in read_rows(scan_env)[1]] if scan_env.is_file() else None
        if bounds is None or len(bounds) != len(rows):
            return ["no matching fourier-scan envelope to bound the fit input"]
        problems = _check_envelope(rows, ref["luroth_scan"]["envelope"], bounds)
        if not math.isfinite(sidecar_summary(job, outdir)["beta_hat"]):
            problems.append("beta_hat is not finite")
        return problems
    if kind == "dioph-scan":
        return _check_dioph(job, rows, seed)
    if kind == "renewal":
        return _check_renewal(job, rows, ref)
    if kind == "regularity":
        alpha = sidecar_summary(job, outdir)["alpha_hat"]
        s = natural_dimension(RATIOS[job.spec])
        problems = [] if abs(alpha - s) <= ALPHA_TOL else [
            f"alpha_hat {alpha!r} differs from the dimension {s!r}"]
        if len(rows) != int(arg(job, "--depth")):
            problems.append(f"{len(rows)} levels for depth {arg(job, '--depth')}")
        return problems
    if kind == "diagonal":
        lower, upper = float(rows[0][2]), float(rows[0][3])
        lo_r, up_r = ref["diagonal"]
        if not (0.0 <= lower <= upper <= 1.0):
            return [f"bracket [{lower!r}, {upper!r}] is not ordered inside [0,1]"]
        if lower > up_r or upper < lo_r:
            return [f"bracket [{lower!r}, {upper!r}] misses the reference [{lo_r!r}, {up_r!r}]"]
        return []
    if kind == "luroth-figure":
        return _check_figure(job, rows)
    return [f"no check for {kind}"]


def _check_dioph(job: Job, rows, seed: int) -> list[str]:
    b_max = float(arg(job, "--b-max"))
    bs = np.array([r[0] for r in rows], dtype=float)
    if len(bs) < 2 or not np.all(np.diff(bs) > 0) or bs[0] < 1.0 or bs[-1] > b_max:
        return ["frequencies are not strictly ascending inside [1, b_max]"]
    l = float(arg(job, "--l")) if "--l" in job.argv else matveev_power(2, 3)
    locs, masses = step_law(job.spec)
    rng = np.random.default_rng(seed)
    problems = []
    for i in sorted(rng.choice(len(rows), size=min(SPOT_ROWS, len(rows)), replace=False)):
        b, gap, scaled = float(rows[i][0]), float(rows[i][1]), float(rows[i][2])
        want = abs(1.0 - sum(m * cmath.exp(-1j * b * loc) for loc, m in zip(locs, masses)))
        if abs(gap - want) > GAP_TOL:
            problems.append(f"b={b!r}: gap {gap!r}, recomputed {want!r}")
            continue
        e = l * math.log(b) + math.log(gap) if gap > 0 else -math.inf
        if abs(e - 709.0) < 1e-6:
            continue
        expect = math.inf if e >= 709.0 else math.exp(e)
        if not (scaled == expect or abs(scaled - expect) <= 1e-12 * abs(expect)):
            problems.append(f"b={b!r}: scaled gap {scaled!r}, recomputed {expect!r}")
    return problems[:3]


def _check_renewal(job: Job, rows, ref: dict) -> list[str]:
    t_, mc_re, mc_im, stderr, lim_re, lim_im, n, seed_col, _ = rows[0]
    n_req = int(arg(job, "--samples"))
    problems = []
    if int(n) != n_req or int(seed_col) != int(arg(job, "--seed")):
        problems.append("sample count or seed differs from the request")
    stderr = float(stderr)
    if not (0.0 < stderr <= 1.0 / math.sqrt(n_req) * (1 + 1e-9)):
        problems.append(f"stderr {stderr!r} is outside (0, 1/sqrt(n)]")
    exact = exact_overshoot(job.spec, float(t_), 0.3)
    mc = complex(float(mc_re), float(mc_im))
    if abs(mc - exact) > MC_SIGMAS * stderr:
        problems.append(f"MC {mc!r} is {abs(mc - exact) / stderr:.1f} stderr from exact {exact!r}")
    lim = complex(float(lim_re), float(lim_im))
    if abs(lim - complex(*ref["renewal_limits"][job.name])) > LIMIT_TOL:
        problems.append(f"limit {lim!r} moved from the reference")
    return problems


def _check_figure(job: Job, rows) -> list[str]:
    level = int(arg(job, "--level"))
    if len(rows) != 2 ** level:
        return [f"{len(rows)} intervals, expected {2 ** level}"]
    prev_right = Fraction(0)
    for k, (_, left, right) in enumerate(rows):
        left, right = Fraction(left), Fraction(right)
        if not (prev_right <= left < right <= 1):
            return [f"interval {k} is empty, unsorted, overlapping or outside [0,1]"]
        prev_right = right
    return []


def csv_changes(jobs: list[Job], outdir: Path, ref: dict) -> tuple[int, int]:
    """(tables whose bytes differ from the reference commit, tables compared)."""
    changed = compared = 0
    for job in jobs:
        if job.seed_dependent:
            continue
        for path in tables(job, outdir):
            want = ref["csv_sha256"].get(path.name)
            compared += 1
            changed += not path.is_file() or want != sha256(path)
    return changed, compared


def load_reference(size: str) -> dict:
    with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[size]
