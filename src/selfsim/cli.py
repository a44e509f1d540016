"""Batch command-line front end.

Job specs arrive as small JSON documents describing a weighted system
either explicitly (maps plus optional weights, numbers as exact fraction
or decimal strings) or as a Luroth digit set.  Each subcommand prints a
one-line key=value summary on stdout and, when an output path is given,
writes a CSV artifact plus a JSON sidecar carrying the same rows and the
run metadata.  Exit status: 0 success, 2 input error, 3 resource cap,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .dimension import natural_weights, solve_moran
from .diophantine import (
    auxiliary_measure,
    classify_lattice,
    matveev_degree,
    matveev_log_constant,
    weakly_diophantine_scan,
)
from .errors import InputError, SelfsimError
from .fourier import decay_fit, dyadic_scan
from .ifs import DEFAULT_WORD_CAP, Similitude, WeightedIFS
from .luroth import (
    beta_prop10,
    beta_theorem4,
    figure_intervals,
    luroth_decode,
    luroth_encode,
    luroth_ifs,
)
from .measure import diagonal_mass, regularity_scan
from .renewal import phase_test_function, renewal_expectation_mc

THREADS_ENV = "SELFSIM_THREADS"


@dataclass(frozen=True)
class JobSpec:
    """Parsed job description: the system plus the hash of its source text."""

    ifs: WeightedIFS
    luroth_digits: tuple[int, ...] | None
    dimension: float | None
    sha256: str


def _exact_number(value, field: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError("booleans are not numbers")
        if isinstance(value, (int, str)):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"field {field!r}: cannot parse {value!r} as a number") from exc
    raise InputError(f"field {field!r}: cannot parse {value!r} as a number")


def parse_spec(text: str) -> JobSpec:
    """Parse and validate a JSON job spec.

    Exactly one of "maps" (list of [ratio, translation] pairs, optionally
    with "weights") or "luroth" (list of digits >= 2) must be present.
    Ratios, translations and weights are parsed exactly from fraction
    strings "p/q" or decimal strings.  When weights are omitted the system
    gets the natural weights at its solved dimension, which requires the
    disjointness precondition to hold.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("spec must be a JSON object")
    unknown = set(doc) - {"maps", "weights", "luroth"}
    if unknown:
        raise InputError(f"unknown spec field {sorted(unknown)[0]!r}")
    if ("maps" in doc) == ("luroth" in doc):
        raise InputError("spec needs exactly one of the fields 'maps' or 'luroth'")
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    luroth_digits = None
    if "luroth" in doc:
        if "weights" in doc:
            raise InputError("field 'weights': not allowed with a 'luroth' spec")
        digits = doc["luroth"]
        if not isinstance(digits, list) or not digits:
            raise InputError("field 'luroth': expected a non-empty digit list")
        for d in digits:
            if not isinstance(d, int) or isinstance(d, bool) or d < 2:
                raise InputError(f"field 'luroth': digits must be integers >= 2, got {d!r}")
        luroth_digits = tuple(sorted(set(digits)))
        base = luroth_ifs(luroth_digits)
    else:
        rows = doc["maps"]
        if not isinstance(rows, list) or not rows:
            raise InputError("field 'maps': expected a non-empty list of pairs")
        maps = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 2:
                raise InputError(f"field 'maps[{i}]': expected a [ratio, translation] pair")
            ratio = _exact_number(row[0], f"maps[{i}].ratio")
            trans = _exact_number(row[1], f"maps[{i}].translation")
            maps.append(Similitude(float(ratio), float(trans)))
        if "weights" in doc:
            wrow = doc["weights"]
            if not isinstance(wrow, list) or len(wrow) != len(maps):
                raise InputError("field 'weights': must list one weight per map")
            weights = tuple(float(_exact_number(w, f"weights[{i}]"))
                            for i, w in enumerate(wrow))
            ifs = WeightedIFS(tuple(range(len(maps))), tuple(maps), weights)
            return JobSpec(ifs, None, None, digest)
        base = WeightedIFS(tuple(range(len(maps))), tuple(maps),
                           tuple(1.0 / len(maps) for _ in maps))
    solution = solve_moran(base)
    ifs = natural_weights(base, solution.s_star)
    return JobSpec(ifs, luroth_digits, solution.s_star, digest)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _summary_line(command: str, items: dict) -> str:
    return command + " " + " ".join(f"{k}={_fmt(v)}" for k, v in items.items())


def _json_ready(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def _write_artifacts(out: str, command: str, args: argparse.Namespace,
                     spec_sha: str | None, summary: dict,
                     tables: dict[str, tuple[list[str], list[tuple]]],
                     started: float) -> None:
    """Write one CSV per table plus a JSON sidecar mirroring everything.

    The primary table lands at ``out``; any extra table is written next to
    it with its name inserted before the .csv suffix.
    """
    base, ext = os.path.splitext(out)
    if ext.lower() != ".csv":
        base, ext = out, ".csv"
    paths = {}
    for name, (header, rows) in tables.items():
        path = base + ext if name == "main" else f"{base}.{name}{ext}"
        paths[name] = path
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    sidecar = {
        "version": __version__,
        "command": command,
        "spec_sha256": spec_sha,
        "parameters": {
            k: _json_ready(v) for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "spec") and v is not None
        },
        "summary": {k: _json_ready(v) for k, v in summary.items()},
        "tables": {
            name: {
                "header": header,
                "rows": [[_json_ready(v) for v in row] for row in rows],
            }
            for name, (header, rows) in tables.items()
        },
        "wall_time_s": time.monotonic() - started,
    }
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1)
        fh.write("\n")


def _load_spec(args: argparse.Namespace) -> JobSpec:
    if not getattr(args, "spec", None):
        raise InputError("this command needs --spec pointing to a JSON job spec")
    text = args.spec
    if not text.lstrip().startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read spec file {args.spec!r}: {exc}") from exc
    return parse_spec(text)


def _luroth_spec(args: argparse.Namespace) -> JobSpec:
    spec = _load_spec(args)
    if spec.luroth_digits is None:
        raise InputError("this command needs a {'luroth': [...]} spec")
    return spec


def _thread_count(args: argparse.Namespace) -> int:
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise InputError(f"{THREADS_ENV} must be an integer, got {env!r}") from exc
    elif getattr(args, "threads", None) is not None:
        value = args.threads
    else:
        value = os.cpu_count() or 1
    if value < 1:
        raise InputError(f"thread count must be at least 1, got {value}")
    return value


def _emit(args, command, summary, tables, spec_sha, started) -> None:
    print(_summary_line(command, summary))
    if getattr(args, "out", None):
        _write_artifacts(args.out, command, args, spec_sha, summary, tables, started)


def _cmd_dim(args) -> int:
    started = time.monotonic()
    spec = _load_spec(args)
    solution = solve_moran(spec.ifs)
    summary = {
        "dim": solution.s_star,
        "residual": solution.residual,
        "iterations": solution.iterations,
    }
    tables = {"main": (["s_star", "residual", "iterations"],
                       [(solution.s_star, solution.residual, solution.iterations)])}
    _emit(args, "dim", summary, tables, spec.sha256, started)
    return 0


def _cmd_weights(args) -> int:
    started = time.monotonic()
    spec = _load_spec(args)
    solution = solve_moran(spec.ifs)
    nat = natural_weights(spec.ifs, solution.s_star)
    rows = [
        (sym, m.ratio, m.translation, w)
        for sym, m, w in zip(nat.symbols, nat.maps, nat.weights)
    ]
    summary = {"dim": solution.s_star,
               "weights": ",".join(_fmt(w) for w in nat.weights)}
    tables = {"main": (["symbol", "ratio", "translation", "weight"], rows)}
    _emit(args, "weights", summary, tables, spec.sha256, started)
    return 0


def _cmd_fourier_scan(args) -> int:
    started = time.monotonic()
    spec = _load_spec(args)
    samples, envelope = dyadic_scan(
        spec.ifs, args.xi_max, args.points_per_octave, args.t,
        cap=args.cap, threads=_thread_count(args))
    rows = [(s.xi, s.value.real, s.value.imag, abs(s.value), s.error_bound,
             s.method, s.cost) for s in samples]
    env_rows = [(e.x, e.max_abs, e.error_bound) for e in envelope]
    summary = {
        "t": float(args.t),
        "xi_max": float(args.xi_max),
        "samples": len(rows),
        "blocks": len(env_rows),
        "envelope_min": min(e.max_abs for e in envelope),
        "envelope_max": max(e.max_abs for e in envelope),
    }
    tables = {
        "main": (["xi", "re", "im", "abs", "error_bound", "method", "cost"], rows),
        "envelope": (["X", "max_abs", "error_bound"], env_rows),
    }
    _emit(args, "fourier-scan", summary, tables, spec.sha256, started)
    return 0


def _cmd_decay_fit(args) -> int:
    started = time.monotonic()
    spec = _load_spec(args)
    _, envelope = dyadic_scan(
        spec.ifs, args.xi_max, args.points_per_octave, args.t,
        cap=args.cap, threads=_thread_count(args))
    fit = decay_fit(envelope)
    rows = [(x, v) for x, v in fit.envelope]
    summary = {
        "beta_hat": fit.beta_hat,
        "log_c": fit.log_c,
        "window_lo": fit.window[0],
        "window_hi": fit.window[1],
        "residual_rms": fit.residual_rms,
    }
    tables = {"main": (["X", "max_abs"], rows)}
    _emit(args, "decay-fit", summary, tables, spec.sha256, started)
    return 0


def _cmd_regularity(args) -> int:
    started = time.monotonic()
    spec = _load_spec(args)
    report = regularity_scan(spec.ifs, args.depth, cap=args.cap)
    summary = {
        "alpha_hat": report.alpha_hat,
        "prefactor": report.prefactor,
        "min_scale": report.min_scale,
        "interval_constant": report.interval_constant,
        "depth": report.depth,
    }
    tables = {"main": (["level", "min_exponent", "max_exponent"], list(report.rows))}
    _emit(args, "regularity", summary, tables, spec.sha256, started)
    return 0


def _cmd_diagonal(args) -> int:
    started = time.monotonic()
    spec = _load_spec(args)
    lower, upper = diagonal_mass(spec.ifs, args.delta, args.depth, cap=args.cap)
    summary = {"lower": lower, "upper": upper,
               "delta": float(args.delta), "depth": args.depth}
    tables = {"main": (["delta", "depth", "lower", "upper"],
                       [(float(args.delta), args.depth, lower, upper)])}
    _emit(args, "diagonal", summary, tables, spec.sha256, started)
    return 0


def _cmd_dioph_scan(args) -> int:
    started = time.monotonic()
    spec = _load_spec(args)
    lam = auxiliary_measure(spec.ifs)
    if args.l is not None:
        power = args.l
        log_c = math.nan
    elif spec.luroth_digits is not None and len(spec.luroth_digits) >= 2:
        a1, a2 = spec.luroth_digits[0], spec.luroth_digits[1]
        power = 2.0 * matveev_degree(a1, a2) - 2.0
        log_c = matveev_log_constant(a1, a2)
    else:
        raise InputError("--l is required unless the spec is a multi-digit luroth set")
    report = weakly_diophantine_scan(lam, power, args.b_max, args.grid)
    summary = {
        "degree_l": report.degree_l,
        "scan_min": report.scan_min,
        "scan_argmin": report.scan_argmin,
        "lattice": report.lattice,
        "classification": classify_lattice(lam),
        "log_c": log_c,
        "points": len(report.rows),
    }
    tables = {"main": (["b", "gap", "scaled_gap"], list(report.rows))}
    _emit(args, "dioph-scan", summary, tables, spec.sha256, started)
    return 0


def _cmd_matveev(args) -> int:
    started = time.monotonic()
    degree = matveev_degree(args.a1, args.a2)
    log_c = matveev_log_constant(args.a1, args.a2)
    summary = {"a1": args.a1, "a2": args.a2, "degree": degree, "log_c": log_c}
    tables = {"main": (["a1", "a2", "degree", "log_c"],
                       [(args.a1, args.a2, degree, log_c)])}
    _emit(args, "matveev", summary, tables, None, started)
    return 0


def _cmd_luroth_encode(args) -> int:
    started = time.monotonic()
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--x: cannot parse {args.x!r} as a number") from exc
    digits = luroth_encode(x, args.n)
    rows = list(enumerate(digits.digits, start=1))
    summary = {
        "digits": ",".join(str(d) for d in digits.digits),
        "terminating": digits.terminating,
    }
    tables = {"main": (["index", "digit"], rows)}
    _emit(args, "luroth-encode", summary, tables, None, started)
    return 0


def _cmd_luroth_decode(args) -> int:
    started = time.monotonic()
    try:
        digits = tuple(int(part) for part in args.digits.split(","))
    except ValueError as exc:
        raise InputError(
            f"--digits: expected comma-separated integers, got {args.digits!r}") from exc
    value, tail = luroth_decode(digits, exact=True)
    summary = {"value": float(value), "tail_bound": float(tail),
               "value_exact": value, "tail_exact": tail}
    tables = {"main": (["value", "tail_bound", "value_exact", "tail_exact"],
                       [(float(value), float(tail), value, tail)])}
    _emit(args, "luroth-decode", summary, tables, None, started)
    return 0


def _cmd_luroth_figure(args) -> int:
    started = time.monotonic()
    spec = _luroth_spec(args)
    intervals = figure_intervals(spec.luroth_digits, args.level, cap=args.cap)
    rows = [(i, left, right) for i, (left, right) in enumerate(intervals)]
    summary = {"level": args.level, "count": len(intervals)}
    tables = {"main": (["index", "left", "right"], rows)}
    _emit(args, "luroth-figure", summary, tables, spec.sha256, started)
    return 0


def _cmd_beta(args) -> int:
    started = time.monotonic()
    spec = _luroth_spec(args)
    if len(spec.luroth_digits) < 2:
        raise InputError("beta needs at least two digits in the luroth spec")
    a1, a2 = spec.luroth_digits[0], spec.luroth_digits[1]
    b4 = beta_theorem4(spec.luroth_digits)
    b10 = beta_prop10(spec.luroth_digits)
    summary = {
        "dim": spec.dimension,
        "a1": a1,
        "a2": a2,
        "beta_thm4": b4,
        "beta_prop10": b10,
        "degree": matveev_degree(a1, a2),
    }
    tables = {"main": (["a1", "a2", "dim", "beta_thm4", "beta_prop10", "degree"],
                       [(a1, a2, spec.dimension, b4, b10, matveev_degree(a1, a2))])}
    _emit(args, "beta", summary, tables, spec.sha256, started)
    return 0


def _cmd_renewal(args) -> int:
    started = time.monotonic()
    spec = _load_spec(args)
    lam = auxiliary_measure(spec.ifs)
    g = phase_test_function(args.s)
    result = renewal_expectation_mc(lam, g, args.t, args.samples, args.seed)
    summary = {
        "t": result.t,
        "mc_re": result.mc_estimate.real,
        "mc_im": result.mc_estimate.imag,
        "stderr": result.mc_stderr,
        "limit_re": result.limit_value.real,
        "limit_im": result.limit_value.imag,
        "n_samples": result.n_samples,
        "lattice": result.lattice,
    }
    tables = {"main": (
        ["t", "mc_re", "mc_im", "mc_stderr", "limit_re", "limit_im",
         "n_samples", "seed", "lattice"],
        [(result.t, result.mc_estimate.real, result.mc_estimate.imag,
          result.mc_stderr, result.limit_value.real, result.limit_value.imag,
          result.n_samples, result.seed, result.lattice)])}
    _emit(args, "renewal", summary, tables, spec.sha256, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Self-similar measures: dimensions, Fourier decay, "
                    "diophantine scans, Luroth systems, renewal checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("--spec", help="path to a JSON job spec, or an inline JSON object")
        p.add_argument("--out", help="output CSV path; a JSON sidecar is written next to it")
        p.add_argument("--cap", type=int, default=DEFAULT_WORD_CAP,
                       help="enumeration cap (default %(default)s)")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads, at least 1; ${THREADS_ENV} overrides; "
                            "validated but currently unused: every command runs "
                            "single-threaded")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed (default %(default)s)")

    p = sub.add_parser("dim", help="solve the Moran equation")
    common(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("weights", help="natural weights at the solved dimension")
    common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("fourier-scan", help="transform values on a dyadic grid")
    common(p)
    p.add_argument("--t", type=float, default=12.0, help="stopping time (default %(default)s)")
    p.add_argument("--xi-max", type=float, default=1e4, dest="xi_max",
                   help="largest frequency (default %(default)s)")
    p.add_argument("--points-per-octave", type=int, default=8, dest="points_per_octave",
                   help="grid points per dyadic block (default %(default)s)")
    p.set_defaults(func=_cmd_fourier_scan)

    p = sub.add_parser("decay-fit", help="fit the envelope decay exponent")
    common(p)
    p.add_argument("--t", type=float, default=12.0, help="stopping time (default %(default)s)")
    p.add_argument("--xi-max", type=float, default=1e4, dest="xi_max",
                   help="largest frequency (default %(default)s)")
    p.add_argument("--points-per-octave", type=int, default=8, dest="points_per_octave",
                   help="grid points per dyadic block (default %(default)s)")
    p.set_defaults(func=_cmd_decay_fit)

    p = sub.add_parser("regularity", help="cylinder mass exponent scan")
    common(p)
    p.add_argument("--depth", type=int, default=8, help="scan depth (default %(default)s)")
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("diagonal", help="product-measure mass near the diagonal")
    common(p)
    p.add_argument("--delta", type=float, required=True, help="strip half-width")
    p.add_argument("--depth", type=int, default=6, help="cylinder depth (default %(default)s)")
    p.set_defaults(func=_cmd_diagonal)

    p = sub.add_parser("dioph-scan", help="resonance gap scan of the log spectrum")
    common(p)
    p.add_argument("--l", type=float, default=None,
                   help="power for the scaled gap; defaults to the two-digit "
                        "degree for luroth specs")
    p.add_argument("--b-max", type=float, default=1e4, dest="b_max",
                   help="largest frequency (default %(default)s)")
    p.add_argument("--grid", type=int, default=2048,
                   help="uniform grid size before refinement (default %(default)s)")
    p.set_defaults(func=_cmd_dioph_scan)

    p = sub.add_parser("matveev", help="two-logarithm degree and constant")
    common(p, spec=False)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.set_defaults(func=_cmd_matveev)

    p = sub.add_parser("luroth-encode", help="Luroth digits of a number")
    common(p, spec=False)
    p.add_argument("--x", required=True, help="number in (0,1], fraction or decimal string")
    p.add_argument("--n", type=int, default=30, help="digit count (default %(default)s)")
    p.set_defaults(func=_cmd_luroth_encode)

    p = sub.add_parser("luroth-decode", help="number with the given Luroth digits")
    common(p, spec=False)
    p.add_argument("--digits", required=True, help="comma-separated digits, each >= 2")
    p.set_defaults(func=_cmd_luroth_decode)

    p = sub.add_parser("luroth-figure", help="exact retained intervals at a level")
    common(p)
    p.add_argument("--level", type=int, default=3, help="construction level (default %(default)s)")
    p.set_defaults(func=_cmd_luroth_figure)

    p = sub.add_parser("beta", help="closed-form decay exponents for a digit set")
    common(p)
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("renewal", help="overshoot expectation against its limit")
    common(p)
    p.add_argument("--t", type=float, default=30.0, help="crossing level (default %(default)s)")
    p.add_argument("--samples", type=int, default=100000,
                   help="Monte Carlo sample count (default %(default)s)")
    p.add_argument("--s", type=float, default=0.3,
                   help="phase strength of the test observable (default %(default)s)")
    p.set_defaults(func=_cmd_renewal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SelfsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_status
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
