"""Batch command-line front end.

Job specs arrive as small JSON documents describing a weighted system
either explicitly (maps plus optional weights, numbers as exact fraction
or decimal strings) or as a Luroth digit set.  Every subcommand is one
entry of COMMANDS: a function (args, spec) -> (summary, tables), the kind
of spec it takes and its own flags.  One runner serves them all: it loads
the spec, prints the one-line key=value summary on stdout and, when an
output path is given, writes one CSV per table plus a JSON sidecar with
the run metadata and, per table, its header, row count and the sha256 of
the CSV bytes.  Exit status: 0 success, 2 input error, 3 resource cap,
4 internal invariant violation.

An invocation builds the argument parser of the command it names and no
other; only a bare ``selfsim``, ``selfsim -h`` or an unknown command
builds the tree of all commands.  A table is a triple (header, row
count, blocks) whose blocks yield the CSV bytes of its rows, so each
command renders its own rows and the writer only writes: tuple rows
through _table, whose cells are joined with commas and checked per block
to need no csv quoting, and the luroth-figure table from integer
cylinders (luroth._figure_csv).  No block is rendered unless --out is
given.

Library functions are called through this module's globals, looked up
at call time, so a tracer can replace them here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# The interpreter's own sha256, so that no command maps OpenSSL's libcrypto
# (about 3.5 MB) for two digests; hashlib only where neither module exists.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .dimension import natural_weights, solve_moran
from .diophantine import (
    auxiliary_measure,
    matveev_degree,
    matveev_log_constant,
    weakly_diophantine_scan,
)
from .errors import (
    DigitLimitError, InputError, InternalInvariantError, ResourceCapError, SelfsimError)
from .fourier import decay_fit, dyadic_scan
from .ifs import DEFAULT_WORD_CAP, Similitude, WeightedIFS
# figure_intervals is unused here; bench/child.py's tracer wraps it under this name.
from .luroth import (  # noqa: F401
    _figure_csv, _figure_cylinders, beta_prop10, beta_theorem4, figure_intervals,
    luroth_decode, luroth_encode, luroth_ifs)
from .measure import diagonal_mass, regularity_scan
from .renewal import phase_test_function, renewal_expectation_mc


@dataclass(frozen=True)
class JobSpec:
    """Parsed job description: the system plus the hash of its source text."""

    ifs: WeightedIFS
    luroth_digits: tuple[int, ...] | None
    dimension: float | None
    sha256: str


def _number(value, field: str) -> Fraction:
    """A spec number read exactly, checked to round to a finite float."""
    try:
        if isinstance(value, bool):
            raise ValueError("booleans are not numbers")
        if isinstance(value, (int, str, float)):
            # A float through its shortest repr; float() refuses a value past its range.
            exact = Fraction(str(value))
            float(exact)
            return exact
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"field {field!r}: cannot read {value!r} as a finite number") from exc
    raise InputError(f"field {field!r}: cannot read {value!r} as a finite number")


def parse_spec(text: str) -> JobSpec:
    """Parse and validate a JSON job spec.

    Exactly one of "maps" (list of [ratio, translation] pairs, optionally
    with "weights") or "luroth" (list of digits >= 2) must be present.
    Ratios, translations and weights are parsed exactly from fraction
    strings "p/q" or decimal strings; the maps keep their exact ratios,
    and the weights are rounded to floats.  When weights are omitted the
    system gets the natural weights at its solved dimension, which requires
    the disjointness precondition to hold.
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
    digest = sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    luroth_digits = None
    if "luroth" in doc:
        if "weights" in doc:
            raise InputError("field 'weights': not allowed with a 'luroth' spec")
        if not isinstance(doc["luroth"], list):
            raise InputError("field 'luroth': expected a digit list")
        base = luroth_ifs(doc["luroth"])
        luroth_digits = base.symbols
    else:
        rows = doc["maps"]
        if not isinstance(rows, list) or not rows:
            raise InputError("field 'maps': expected a non-empty list of pairs")
        maps = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 2:
                raise InputError(f"field 'maps[{i}]': expected a [ratio, translation] pair")
            maps.append(Similitude(_number(row[0], f"maps[{i}].ratio"),
                                   _number(row[1], f"maps[{i}].translation")))
        if "weights" in doc:
            wrow = doc["weights"]
            if not isinstance(wrow, list) or len(wrow) != len(maps):
                raise InputError("field 'weights': must list one weight per map")
            weights = tuple(float(_number(w, f"weights[{i}]")) for i, w in enumerate(wrow))
            ifs = WeightedIFS(tuple(range(len(maps))), tuple(maps), weights)
            return JobSpec(ifs, None, None, digest)
        base = WeightedIFS(tuple(range(len(maps))), tuple(maps),
                           tuple(1.0 / len(maps) for _ in maps))
    solution = solve_moran(base)
    ifs = natural_weights(base, solution.s_star)
    return JobSpec(ifs, luroth_digits, solution.s_star, digest)


def _fmt(value) -> str:
    # The exact types of nearly every cell first; subclasses such as
    # np.float64, bool and np.bool_ take the isinstance chain.
    kind = type(value)
    try:
        if kind is float:
            return format(value, ".17g")
        if kind is int or kind is str:
            return str(value)
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".17g")
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        return str(value)
    except ValueError as exc:
        # Python 3.11 on refuses to print an integer of more digits than
        # sys.get_int_max_str_digits(), such as a long exact Luroth decode.
        raise DigitLimitError() from exc


# Rows per encoded block of a CSV table.
_BLOCK_ROWS = 8192


def _unquoted(text: str, rows: int, columns: int) -> str:
    """``text``, once it is known to hold no cell that csv.writer would quote.

    csv.writer quotes a cell holding a comma, a quote or a line break.  A
    block of ``rows`` lines of ``columns`` cells joined by commas holds
    none when it has exactly rows * (columns - 1) commas, rows CRs and
    LFs and no quote; then it equals csv.writer's bytes.
    """
    if (text.count(",") != rows * (columns - 1) or text.count("\r") != rows
            or text.count("\n") != rows or '"' in text):
        raise InternalInvariantError(
            f"a CSV cell would need quoting in {text[:200]!r}")
    return text


def _tuple_blocks(rows, columns: int):
    """The CSV bytes of tuple rows, a block of _BLOCK_ROWS rows at a time.

    _fmt renders each cell and commas join them; _unquoted checks each
    block, so the bytes are csv.writer's.
    """
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        text = "".join([",".join(map(_fmt, row)) + "\r\n" for row in block])
        yield _unquoted(text, len(block), columns).encode()


def _table(header: list[str], rows) -> tuple:
    """A table of tuple rows: its header, row count and CSV byte blocks."""
    return header, len(rows), _tuple_blocks(rows, len(header))


def _write_artifacts(args: argparse.Namespace, spec_sha: str | None, summary: dict,
                     tables: dict[str, tuple[list[str], int, object]],
                     started: float) -> None:
    """Write one CSV per table plus a JSON sidecar describing the run.

    The primary table lands at ``args.out``; any extra table is written
    next to it with its name inserted before the .csv suffix.  A table is
    (header, row count, blocks): its checked header line is written, then
    the byte blocks as they come, so rows are rendered once and never
    held whole.  The sidecar records each table's header, row count and
    CSV sha256, not its rows; the hash is taken from the bytes as they are
    written, so no CSV is read back.  If any write raises (a cell past the
    digit limit, an unopenable sidecar), every file this call opened is
    removed, so none is left.
    """
    base, ext = os.path.splitext(args.out)
    if ext.lower() != ".csv":
        base, ext = args.out, ".csv"
    written, opened = {}, []
    try:
        for name, (header, count, blocks) in tables.items():
            path = base + ext if name == "main" else f"{base}.{name}{ext}"
            head = _unquoted(",".join(header) + "\r\n", 1, len(header)).encode()
            digest = sha256(head)
            with open(path, "wb") as fh:
                opened.append(path)
                fh.write(head)
                for data in blocks:
                    fh.write(data)
                    digest.update(data)
            written[name] = {"header": header, "rows": count, "sha256": digest.hexdigest()}
        sidecar = {
            "version": __version__,
            "command": args.command,
            "spec_sha256": spec_sha,
            "parameters": {k: v for k, v in sorted(vars(args).items())
                           if k not in ("out", "spec") and v is not None},
            "summary": summary,
            "tables": written,
            "wall_time_s": time.monotonic() - started,
        }
        with open(base + ".json", "w", encoding="utf-8") as fh:
            opened.append(base + ".json")
            # Fractions (exact Luroth values) are written as "p/q" strings.
            json.dump(sidecar, fh, indent=1, default=_fmt)
            fh.write("\n")
    except BaseException:
        for path in opened:
            os.remove(path)
        raise


def _load_spec(args: argparse.Namespace) -> JobSpec:
    if not args.spec:
        raise InputError("this command needs --spec pointing to a JSON job spec")
    text = args.spec
    if not text.lstrip().startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read spec file {args.spec!r}: {exc}") from exc
    return parse_spec(text)


def _one_row(summary: dict, header: list[str]) -> dict:
    """A main table holding the summary values named by ``header``."""
    return {"main": _table(header, [tuple(summary[k] for k in header)])}


def _dim(args, spec):
    solution = solve_moran(spec.ifs)
    summary = {
        "dim": solution.s_star,
        "residual": solution.residual,
        "iterations": solution.iterations,
    }
    return summary, {"main": _table(["s_star", "residual", "iterations"],
                                    [(solution.s_star, solution.residual, solution.iterations)])}


def _weights(args, spec):
    solution = solve_moran(spec.ifs)
    nat = natural_weights(spec.ifs, solution.s_star)
    rows = [
        (sym, m.ratio, m.translation, w)
        for sym, m, w in zip(nat.symbols, nat.maps, nat.weights)
    ]
    summary = {"dim": solution.s_star,
               "weights": ",".join(_fmt(w) for w in nat.weights)}
    return summary, {"main": _table(["symbol", "ratio", "translation", "weight"], rows)}


def _fourier_scan(args, spec):
    samples, envelope = dyadic_scan(
        spec.ifs, args.xi_max, args.points_per_octave, args.t, cap=args.cap)
    rows = [(s.xi, s.value.real, s.value.imag, abs(s.value), s.error_bound,
             "cylinder", s.cost) for s in samples]
    env_rows = [(e.x, e.max_abs, e.error_bound) for e in envelope]
    summary = {
        "t": float(args.t),
        "xi_max": float(args.xi_max),
        "samples": len(rows),
        "blocks": len(env_rows),
        "envelope_min": min(e.max_abs for e in envelope),
        "envelope_max": max(e.max_abs for e in envelope),
    }
    return summary, {
        "main": _table(["xi", "re", "im", "abs", "error_bound", "method", "cost"], rows),
        "envelope": _table(["X", "max_abs", "error_bound"], env_rows),
    }


def _decay_fit(args, spec):
    _, envelope = dyadic_scan(
        spec.ifs, args.xi_max, args.points_per_octave, args.t, cap=args.cap)
    fit = decay_fit(envelope)
    summary = {
        "beta_hat": fit.beta_hat,
        "log_c": fit.log_c,
        "window_lo": fit.window[0],
        "window_hi": fit.window[1],
        "residual_rms": fit.residual_rms,
    }
    return summary, {"main": _table(["X", "max_abs"], list(fit.envelope))}


def _regularity(args, spec):
    report = regularity_scan(spec.ifs, args.depth, cap=args.cap)
    summary = {
        "alpha_hat": report.alpha_hat,
        "interval_constant": report.interval_constant,
        "depth": report.depth,
    }
    return summary, {"main": _table(["level", "min_exponent", "max_exponent"], report.rows)}


def _diagonal(args, spec):
    lower, upper = diagonal_mass(spec.ifs, args.delta, args.depth, cap=args.cap)
    summary = {"lower": lower, "upper": upper,
               "delta": float(args.delta), "depth": args.depth}
    return summary, _one_row(summary, ["delta", "depth", "lower", "upper"])


def _dioph_scan(args, spec):
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
    report = weakly_diophantine_scan(lam, power, args.b_max, cap=args.cap)
    summary = {
        "degree_l": report.degree_l,
        "scan_min": report.scan_min,
        "scan_min_lower": report.scan_min_lower,
        "scan_argmin": report.scan_argmin,
        "lattice": report.lattice,
        "classification": report.classification,
        "log_c": log_c,
        "points": len(report.rows),
        "evaluations": report.evaluations,
    }
    return summary, {"main": _table(
        ["b", "gap", "scaled_gap", "gap_lower", "block_lo", "block_hi"], report.rows)}


def _matveev(args, spec):
    summary = {"a1": args.a1, "a2": args.a2,
               "degree": matveev_degree(args.a1, args.a2),
               "log_c": matveev_log_constant(args.a1, args.a2)}
    return summary, _one_row(summary, ["a1", "a2", "degree", "log_c"])


def _luroth_encode(args, spec):
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--x: cannot parse {args.x!r} as a number") from exc
    if args.n > args.cap:
        raise ResourceCapError(f"luroth-encode needs up to {args.n} digits, cap={args.cap}")
    digits = luroth_encode(x, args.n)
    summary = {
        "digits": ",".join(str(d) for d in digits.digits),
        "terminating": digits.terminating,
    }
    return summary, {"main": _table(["index", "digit"],
                                    list(enumerate(digits.digits, start=1)))}


def _luroth_decode(args, spec):
    try:
        digits = tuple(int(part) for part in args.digits.split(","))
    except ValueError as exc:
        raise InputError(
            f"--digits: expected comma-separated integers, got {args.digits!r}") from exc
    value, tail = luroth_decode(digits, exact=True)
    summary = {"value": float(value), "tail_bound": float(tail),
               "value_exact": value, "tail_exact": tail}
    return summary, _one_row(summary, ["value", "tail_bound", "value_exact", "tail_exact"])


def _luroth_figure(args, spec):
    cylinders = _figure_cylinders(spec.luroth_digits, args.level, args.cap)
    count = len(spec.luroth_digits) ** args.level
    return ({"level": args.level, "count": count},
            {"main": (["index", "left", "right"], count, _figure_csv(cylinders))})


def _beta(args, spec):
    if len(spec.luroth_digits) < 2:
        raise InputError("beta needs at least two digits in the luroth spec")
    a1, a2 = spec.luroth_digits[0], spec.luroth_digits[1]
    summary = {
        "dim": spec.dimension,
        "a1": a1,
        "a2": a2,
        "beta_thm4": beta_theorem4(spec.luroth_digits),
        "beta_prop10": beta_prop10(spec.luroth_digits),
        "degree": matveev_degree(a1, a2),
    }
    return summary, _one_row(
        summary, ["a1", "a2", "dim", "beta_thm4", "beta_prop10", "degree"])


def _renewal(args, spec):
    lam = auxiliary_measure(spec.ifs)
    g = phase_test_function(args.s)
    result = renewal_expectation_mc(lam, g, args.t, args.samples, args.seed,
                                    cap=args.cap, threads=args.threads)
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
    return summary, {"main": _table(
        ["t", "mc_re", "mc_im", "mc_stderr", "limit_re", "limit_im",
         "n_samples", "seed", "lattice"],
        [(result.t, result.mc_estimate.real, result.mc_estimate.imag,
          result.mc_stderr, result.limit_value.real, result.limit_value.imag,
          result.n_samples, result.seed, result.lattice)])}


@dataclass(frozen=True)
class Command:
    """One subcommand: what it does, which spec it takes, its own flags.

    ``spec`` is None (no --spec flag), "any" or "luroth" (a digit-set spec
    only).  Each flag is a (names, add_argument keywords) pair.
    """

    help: str
    spec: str | None
    run: Callable
    flags: tuple = ()


def _flag(*names, **kwargs):
    return names, kwargs


# Only the commands that bound what they build take --cap.
_CAP = _flag("--cap", type=int, default=DEFAULT_WORD_CAP,
             help="enumeration cap (default %(default)s)")
# Read by renewal; bench/jobs.py also passes it to the Fourier commands.
_THREADS = _flag("--threads", type=int, default=None,
                 help="worker threads, at least 1; renewal samples that many chunks at once, "
                      "at most the available CPUs (the default); no output depends on it")

_SCAN_FLAGS = (
    _flag("--t", type=float, default=12.0, help="stopping time (default %(default)s)"),
    _flag("--xi-max", type=float, default=1e4,
          help="largest frequency (default %(default)s)"),
    _flag("--points-per-octave", type=int, default=8,
          help="grid points per dyadic block (default %(default)s)"),
    _CAP,
    _THREADS,
)

COMMANDS = {
    "dim": Command("solve the Moran equation", "any", _dim),
    "weights": Command("natural weights at the solved dimension", "any", _weights),
    "fourier-scan": Command("transform values on a dyadic grid", "any", _fourier_scan,
                            _SCAN_FLAGS),
    "decay-fit": Command("fit the envelope decay exponent", "any", _decay_fit, _SCAN_FLAGS),
    "regularity": Command("cylinder mass exponent scan", "any", _regularity, (
        _flag("--depth", type=int, default=8, help="scan depth (default %(default)s)"),
        _CAP,
    )),
    "diagonal": Command("product-measure mass near the diagonal", "any", _diagonal, (
        _flag("--delta", type=float, required=True, help="strip half-width"),
        _flag("--depth", type=int, default=6, help="cylinder depth (default %(default)s)"),
        _CAP,
    )),
    "dioph-scan": Command("resonance gap scan of the log spectrum", "any", _dioph_scan, (
        _flag("--l", type=float, default=None,
              help="power for the scaled gap; for a luroth spec it defaults to "
                   "2*l - 2, l the matveev degree of its two smallest digits"),
        _flag("--b-max", type=float, default=1e4,
              help="largest frequency (default %(default)s)"),
        _CAP,
    )),
    "matveev": Command("two-logarithm degree and constant", None, _matveev, (
        _flag("--a1", type=int, required=True),
        _flag("--a2", type=int, required=True),
    )),
    "luroth-encode": Command("Luroth digits of a number", None, _luroth_encode, (
        _flag("--x", required=True, help="number in (0,1], fraction or decimal string"),
        _flag("--n", type=int, default=30, help="digit count (default %(default)s)"),
        _CAP,
    )),
    "luroth-decode": Command("number with the given Luroth digits", None, _luroth_decode, (
        _flag("--digits", required=True, help="comma-separated digits, each >= 2"),
    )),
    "luroth-figure": Command("exact retained intervals at a level", "luroth", _luroth_figure, (
        _flag("--level", type=int, default=3,
              help="construction level (default %(default)s)"),
        _CAP,
    )),
    "beta": Command("closed-form decay exponents for a digit set", "luroth", _beta),
    "renewal": Command("overshoot expectation against its limit", "any", _renewal, (
        _flag("--t", type=float, default=30.0, help="crossing level (default %(default)s)"),
        _flag("--samples", type=int, default=100000,
              help="Monte Carlo sample count (default %(default)s)"),
        _flag("--s", type=float, default=0.3,
              help="phase strength of the test observable (default %(default)s)"),
        _flag("--seed", type=int, default=0, help="random seed (default %(default)s)"),
        _CAP,
        _THREADS,
    )),
}


def _add_flags(parser: argparse.ArgumentParser, command: Command) -> None:
    """The flags every command shares, then the command's own."""
    if command.spec is not None:
        parser.add_argument("--spec", help="path to a JSON job spec, or an inline JSON object")
    parser.add_argument("--out", help="output CSV path; a JSON sidecar is written next to it")
    for names, kwargs in command.flags:
        parser.add_argument(*names, **kwargs)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, or with ``command=None`` the tree of all.

    A command's parser holds its flags alone, as the tree's subparser for
    it does, and gives the same help, namespace and exit codes; it saves
    building the other commands' flags on every invocation.  The tree
    serves a bare ``selfsim``, ``selfsim -h`` and unknown commands.
    """
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"selfsim {command}")
        parser.set_defaults(command=command)
        _add_flags(parser, COMMANDS[command])
        return parser
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Self-similar measures: dimensions, Fourier decay, "
                    "diophantine scans, Luroth systems, renewal checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=entry.help), entry)
    return parser


def _run(args: argparse.Namespace) -> int:
    """Run one parsed command: spec, summary line, then CSV and sidecar."""
    started = time.monotonic()
    if (threads := getattr(args, "threads", None)) is not None and threads < 1:
        raise InputError(f"thread count must be at least 1, got {threads}")
    command = COMMANDS[args.command]
    spec = None
    if command.spec is not None:
        spec = _load_spec(args)
        if command.spec == "luroth" and spec.luroth_digits is None:
            raise InputError("this command needs a {'luroth': [...]} spec")
    summary, tables = command.run(args, spec)
    # Formatted first and printed last, so a refused cell leaves no stdout line.
    line = args.command + " " + " ".join(f"{k}={_fmt(v)}" for k, v in summary.items())
    if args.out:
        try:
            _write_artifacts(args, spec.sha256 if spec else None, summary, tables, started)
        except OSError as exc:
            raise InputError(f"cannot write output: {exc}") from exc
    print(line)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        parser, argv = build_parser(argv[0]), argv[1:]
    else:
        parser = build_parser()
    try:
        return _run(parser.parse_args(argv))
    except SelfsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_status
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
