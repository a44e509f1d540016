import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfsim.cli
import selfsim.diophantine
from oracles import csv_bytes, luroth_cylinders
from selfsim import InputError, InternalInvariantError, auxiliary_measure, matveev_degree, weakly_diophantine_scan
from selfsim.cli import COMMANDS, build_parser, main, parse_spec

LUROTH_SPEC = '{"luroth": [2, 3]}'
CANTOR_SPEC = '{"maps": [["1/3", "0"], ["1/3", "2/3"]]}'
NINETY_SPEC = '{"maps": [["9/10", "0"], ["1/20", "19/20"]]}'


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_spec_luroth():
    spec = parse_spec(LUROTH_SPEC)
    assert spec.luroth_digits == (2, 3)
    assert spec.dimension == pytest.approx(0.6009668516136755, abs=1e-13)
    assert spec.ifs.weights == pytest.approx(
        (0.659311955892103, 0.340688044107897), abs=1e-13)
    assert len(spec.sha256) == 64


def test_parse_spec_maps_exact_fractions():
    spec = parse_spec('{"maps": [["1/4", "0.25"], ["1/2", "0.5"]]}'
                      .replace("0.25", "1/4"))
    ratios = [m.ratio for m in spec.ifs.maps]
    assert ratios == [0.25, 0.5]
    assert spec.ifs.maps[0].translation == float(Fraction(1, 4))
    # JSON floats are read through their shortest repr, so README's float
    # spec gives the maps of its fraction strings.
    floats = parse_spec('{"maps": [[0.25, 0.5], [0.5, 0.0]]}').ifs
    assert floats == parse_spec('{"maps": [["1/4", "1/2"], ["1/2", "0"]]}').ifs
    readme = parse_spec('{"maps": [[0.3333333333333333, 0.0],'
                        ' [0.3333333333333333, 0.6666666666666666]], "weights": [0.5, 0.5]}')
    assert readme.ifs.maps == parse_spec(CANTOR_SPEC).ifs.maps
    assert readme.ifs.weights == (0.5, 0.5)


def test_parse_spec_explicit_weights_kept():
    spec = parse_spec('{"maps": [["1/2", "0"], ["1/4", "3/4"]],'
                      ' "weights": ["0.9", "0.1"]}')
    assert spec.ifs.weights == (0.9, 0.1)
    assert spec.dimension is None


def test_parse_spec_natural_weights_by_default():
    spec = parse_spec(CANTOR_SPEC)
    assert spec.ifs.weights == pytest.approx((0.5, 0.5), abs=1e-13)


def test_parse_spec_rejects_bad_input(tmp_path, capsys):
    with pytest.raises(InputError, match="mapz"):
        parse_spec('{"mapz": []}')
    with pytest.raises(InputError):
        parse_spec('{"maps": [["1/2", "0"]], "luroth": [2]}')
    with pytest.raises(InputError):
        parse_spec('{}')
    with pytest.raises(InputError, match="weights"):
        parse_spec('{"luroth": [2, 3], "weights": ["1"]}')
    with pytest.raises(InputError):
        parse_spec('{"maps": [["1/0", "0"]]}')
    with pytest.raises(InputError):
        parse_spec('{"luroth": [2, 1]}')
    with pytest.raises(InputError):
        parse_spec('not json')
    # Overlapping maps without weights need the dimension, which requires
    # disjointness; the parse therefore fails up front.
    with pytest.raises(Exception, match="disjointness"):
        parse_spec('{"maps": [["1/2", "0"], ["2/3", "0"]]}')
    # Each refusal exits 2 and names the field it could not read; json reads
    # 1e999 and NaN as floats that no Fraction takes.  A spec file may hold
    # any JSON document.
    path = tmp_path / "spec.json"
    two = '["1/4", "3/4"]'
    for spec, field in [
        ('[1, 2]', "JSON object"),
        ('{"luroth": 3}', "'luroth'"),
        ('{"maps": []}', "'maps'"),
        ('{"maps": ["1/2"]}', "'maps[0]'"),
        (f'{{"maps": [{two}, ["1/2"]]}}', "'maps[1]'"),
        (f'{{"maps": [{two}, ["1/2", "0"]], "weights": ["1"]}}', "'weights'"),
        ('{"maps": [[1e999, "0"]]}', "'maps[0].ratio'"),
        ('{"maps": [["1/2", NaN]]}', "'maps[0].translation'"),
        ('{"maps": [[true, "0"]]}', "'maps[0].ratio'"),
        ('{"maps": [["1/2", null]]}', "'maps[0].translation'"),
        (f'{{"maps": [{two}, [[1], "0"]]}}', "'maps[1].ratio'"),
        (f'{{"maps": [{two}, ["1/2", "0"]], "weights": ["1/2", null]}}', "'weights[1]'"),
    ]:
        path.write_text(spec)
        code, _, err = run(["dim", "--spec", str(path)], capsys)
        assert code == 2 and field in err, (spec, err)


def test_dim_command(tmp_path, capsys):
    out = tmp_path / "dim.csv"
    code, stdout, _ = run(["dim", "--spec", LUROTH_SPEC,
                           "--out", str(out)], capsys)
    assert code == 0
    assert stdout.startswith("dim ")
    assert "dim=0.60096685161367547" in stdout
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["s_star", "residual", "iterations"]
    assert float(rows[1][0]) == pytest.approx(0.6009668516136755, abs=1e-15)
    sidecar = json.loads((tmp_path / "dim.json").read_text())
    assert sidecar["command"] == "dim"
    assert sidecar["version"]
    assert len(sidecar["spec_sha256"]) == 64
    assert "wall_time_s" in sidecar
    # An --out without the .csv suffix gets it, and the sidecar goes beside.
    code, _, _ = run(["dim", "--spec", LUROTH_SPEC, "--out", str(tmp_path / "bare")], capsys)
    assert code == 0
    assert (tmp_path / "bare.csv").read_bytes() == out.read_bytes()
    assert json.loads((tmp_path / "bare.json").read_text())["tables"] == sidecar["tables"]


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(["dim", "--spec", '{"mapz": []}'], capsys)
    assert code == 2 and "mapz" in err
    code, _, err = run(["luroth-figure", "--spec", LUROTH_SPEC,
                        "--level", "12", "--cap", "100"], capsys)
    assert code == 3 and "cap" in err
    code, _, err = run(["dim"], capsys)
    assert code == 2
    # Renewal walks are checked against --cap before any uniform is drawn.
    code, _, err = run(["renewal", "--spec", '{"maps":[["9/10","0"],["1/20","19/20"]]}',
                        "--t", "1e8", "--samples", "100"], capsys)
    assert code == 3 and "33380824 uniforms per walker" in err
    code, _, err = run(["renewal", "--spec", LUROTH_SPEC, "--t", "1e5",
                        "--samples", "1000000"], capsys)
    assert code == 3 and "55815 uniforms per walker" in err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_single_map_walk_stops_at_cap(capsys):
    # 3e7 steps to reach exp(-3): exit 3 at once instead of walking them.
    start = time.perf_counter()
    code, _, err = run(["fourier-scan", "--spec", '{"maps":[["0.9999999","0"]]}',
                        "--t", "3", "--xi-max", "4", "--cap", "1000000"], capsys)
    assert code == 3 and "needs up to 30000000 steps" in err
    assert time.perf_counter() - start < 0.5


def test_dioph_scan_stops_at_cap(capsys):
    # The initial evaluations of every block are counted against --cap
    # before any is made.
    code, _, err = run(["dioph-scan", "--spec", LUROTH_SPEC, "--b-max", "1e5",
                        "--cap", "1000"], capsys)
    assert code == 3 and "needs at least 281446 evaluations, cap=1000" in err


def test_dioph_scan_refuses_a_b_max_past_the_cap_before_any_evaluation(monkeypatch, capsys):
    def evaluated(*args):
        raise AssertionError("an evaluation was made")

    monkeypatch.setattr(selfsim.diophantine, "_gap_bounds", evaluated)
    started = time.monotonic()
    code, _, err = run(["dioph-scan", "--spec", LUROTH_SPEC, "--b-max", "1e300"], capsys)
    assert code == 3 and "evaluations, cap=50000000" in err
    assert time.monotonic() - started < 0.5


def test_fourier_scan_stops_at_cap(tmp_path, capsys):
    # 37 179 states stand for 18 474 280 208 words: the walk fits the
    # default cap, and a cap of 1e5 table entries refuses it at once.
    spec = '{"maps":[["999/1000","0"],["1/2000","1999/2000"]]}'
    out = tmp_path / "scan.csv"
    code, _, _ = run(["fourier-scan", "--spec", spec, "--t", "20", "--xi-max", "1e3",
                      "--out", str(out)], capsys)
    assert code == 0
    with open(out, newline="") as fh:
        assert {row["cost"] for row in csv.DictReader(fh)} == {"18474280208"}
    started = time.monotonic()
    code, _, err = run(["fourier-scan", "--spec", spec, "--t", "20", "--xi-max", "1e3",
                        "--cap", "100000"], capsys)
    assert code == 3 and "table entries" in err
    assert time.monotonic() - started < 1.0


def test_oversized_stopping_walk_is_refused_before_it_starts(capsys):
    # At least 1.40e7 states of 4 table entries each, 5.58e7 entries: past
    # the default cap before the walk takes a step.
    spec = ('{"maps":[["998/1000","0"],["1/1000","998/1000"],["1/1000","999/1000"]],'
            '"weights":["1/3","1/3","1/3"]}')
    started = time.monotonic()
    code, _, err = run(["fourier-scan", "--spec", spec, "--t", "200"], capsys)
    assert code == 3 and "at least 1.396e+07 states of 4 entries each" in err
    assert time.monotonic() - started < 0.5


@pytest.mark.parametrize("args, message", [
    # 20 octaves below 1e6 of 100 000 points each, counted before any block.
    (["fourier-scan", "--spec", LUROTH_SPEC, "--t", "4", "--xi-max", "1e6",
      "--points-per-octave", "100000"], "frequency grid needs up to 2000000 points, cap=100"),
    (["luroth-encode", "--x", "2/3", "--n", "3000000"],
     "luroth-encode needs up to 3000000 digits, cap=100"),
])
def test_grid_and_digits_hit_the_cap_before_they_are_built(args, message, capsys):
    started = time.monotonic()
    code, _, err = run(args + ["--cap", "100"], capsys)
    assert code == 3 and message in err
    assert time.monotonic() - started < 0.5


def test_fourier_scan_at_t30_fits_the_default_cap(tmp_path, capsys):
    # 393 states of 3 entries each; the 109 271 145 words are only counted.
    out = tmp_path / "scan.csv"
    args = ["fourier-scan", "--spec", LUROTH_SPEC, "--t", "30", "--xi-max", "1e6"]
    assert run(args + ["--out", str(out)], capsys)[0] == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 160 and {row["cost"] for row in rows} == {"109271145"}
    assert run(args + ["--cap", "1179"], capsys)[0] == 0
    code, _, err = run(args + ["--cap", "1178"], capsys)
    assert code == 3 and "needs more than cap=1178 table entries" in err


@pytest.mark.parametrize("args, code, message", [
    (["diagonal", "--spec", LUROTH_SPEC, "--delta", "1e-6", "--depth", "15000"],
     3, "needs 2^15000 level-15000 cylinders"),
    (["diagonal", "--spec", LUROTH_SPEC, "--delta", "1e-6", "--depth", "1000000000"],
     3, "needs 2^1000000000 level-1000000000 cylinders"),
    (["luroth-figure", "--spec", LUROTH_SPEC, "--level", "15000"],
     3, "level 15000 needs 2^15000 intervals"),
    (["luroth-figure", "--spec", '{"luroth":[2]}', "--level", "15000"],
     2, "the limit for integer string conversion"),
    (["luroth-decode", "--digits", ",".join(["3"] * 10000)],
     2, "the limit for integer string conversion"),
])
def test_huge_exact_values_exit_cleanly(tmp_path, capsys, args, code, message):
    # The counts are refused before K^depth is formed; an exact value too
    # long for str() is bad input, not a crash.  On Python 3.10, which has
    # no digit limit, the two long values print and exit 0.
    if code == 2 and not hasattr(sys, "get_int_max_str_digits"):
        code, message = 0, ""
    started = time.monotonic()
    got, _, err = run(args + ["--out", str(tmp_path / "t.csv")], capsys)
    assert got == code and message in err
    assert time.monotonic() - started < 1.0


def test_one_map_depth_is_capped(capsys):
    # One cylinder per level, but one refinement per level: depth > cap is refused.
    started = time.monotonic()
    code, _, err = run(["diagonal", "--spec", '{"maps":[["1/2","0"]]}', "--delta", "1e-6",
                        "--depth", "100000000"], capsys)
    assert code == 3 and "needs 1^100000000 level-100000000 cylinders, cap=50000000" in err
    assert time.monotonic() - started < 1.0


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer string conversion limit before Python 3.11")
def test_refused_cell_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "lf.csv"
    code, stdout, err = run(["luroth-figure", "--spec", '{"luroth":[2]}', "--level", "15000",
                             "--out", str(out)], capsys)
    assert code == 2 and "the limit for integer string conversion" in err
    assert stdout == ""
    assert not out.exists() and not (tmp_path / "lf.json").exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    # A missing directory fails at the CSV; a directory named like the
    # sidecar fails at the JSON, after the CSV is written; one named like
    # the envelope table fails after the main CSV.  No written file stays.
    (tmp_path / "x.json").mkdir()
    (tmp_path / "y.envelope.csv").mkdir()
    dim = ["dim", "--spec", LUROTH_SPEC]
    scan = ["fourier-scan", "--spec", LUROTH_SPEC, "--t", "8", "--xi-max", "100"]
    for argv, out, name in ((dim, tmp_path / "missing" / "x.csv", "x.csv"),
                            (dim, tmp_path / "x.csv", "x.json"),
                            (scan, tmp_path / "y.csv", "y.envelope.csv")):
        code, stdout, err = run(argv + ["--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: ") and name in err
        assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", "y.envelope.csv"]


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no integer string conversion limit")
def test_unprintable_figure_level_is_refused_before_its_loop(tmp_path, capsys, monkeypatch):
    # Level 300 000 of the one digit 2 has an end with a denominator of at
    # least 2^150000, far past the limit; building it took seconds.
    monkeypatch.chdir(tmp_path)
    base = ["luroth-figure", "--spec", '{"luroth":[2]}', "--level", "300000"]
    for extra in ([], ["--out", str(tmp_path / "lf.csv")]):
        start = time.perf_counter()
        code, stdout, err = run(base + extra, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "digit limit" in err and stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_figure_digit_rule_holds_without_an_interpreter_limit(tmp_path, capsys, monkeypatch):
    # Python 3.10 has no limit and PYTHONINTMAXSTRDIGITS=0 turns it off;
    # the figure then takes CPython's default of 4300 digits.
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, stdout, err = run(["luroth-figure", "--spec", '{"luroth":[2]}', "--level", "100000"],
                            capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "more than 4300 digits" in err and stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_spec_file_loading(tmp_path, capsys):
    spec_path = tmp_path / "job.json"
    spec_path.write_text(CANTOR_SPEC)
    code, stdout, _ = run(["dim", "--spec", str(spec_path)], capsys)
    assert code == 0
    summary = dict(part.split("=", 1) for part in stdout.split()[1:])
    assert float(summary["dim"]) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-13)
    code, _, err = run(["dim", "--spec", str(tmp_path / "absent.json")], capsys)
    assert code == 2 and "absent.json" in err


def test_fourier_scan_artifacts(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    args = ["fourier-scan", "--spec", LUROTH_SPEC, "--t", "8",
            "--xi-max", "64", "--points-per-octave", "2",
            "--out", str(out), "--threads", "1"]
    code, stdout, _ = run(args, capsys)
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["xi", "re", "im", "abs", "error_bound", "method", "cost"]
    assert all(r[5] == "cylinder" for r in rows[1:])
    env_rows = list(csv.reader((tmp_path / "scan.envelope.csv").open()))
    assert env_rows[0] == ["X", "max_abs", "error_bound"]
    assert [float(r[0]) for r in env_rows[1:]] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    first = out.read_bytes()
    # Same job on more threads must write identical bytes.
    run(args[:-1] + ["4"], capsys)
    assert out.read_bytes() == first


def test_threads_flag_validated_and_env_ignored(capsys, monkeypatch):
    monkeypatch.setenv("SELFSIM_THREADS", "0")
    code, _, _ = run(["fourier-scan", "--spec", LUROTH_SPEC, "--t", "6",
                      "--xi-max", "8"], capsys)
    assert code == 0
    code, _, err = run(["renewal", "--spec", LUROTH_SPEC, "--threads", "0"], capsys)
    assert code == 2 and "thread count" in err


def test_luroth_commands(tmp_path, capsys):
    code, stdout, _ = run(["luroth-encode", "--x", "2/3", "--n", "6"], capsys)
    assert code == 0 and "digits=2,4,2,2,2,2" in stdout
    code, stdout, _ = run(["luroth-decode", "--digits", "2,3,2"], capsys)
    assert code == 0 and "value_exact=17/24" in stdout
    out = tmp_path / "fig.csv"
    code, stdout, _ = run(["luroth-figure", "--spec", LUROTH_SPEC,
                           "--level", "3", "--out", str(out)], capsys)
    assert code == 0 and "count=8" in stdout
    rows = list(csv.reader(out.open()))
    assert rows[1][1:] == ["43/108", "29/72"]
    assert rows[-1][1:] == ["7/8", "1/1"]
    code, _, err = run(["luroth-decode", "--digits", "2,x"], capsys)
    assert code == 2 and "digits" in err


@pytest.mark.parametrize("digits, level", [((2, 3), 12), ((2, 3, 5, 7), 5), ((59, 60), 6),
                                           ((2,), 200)], ids=["2,3@12", "2,3,5,7@5", "59,60@6",
                                                              "2@200"])
def test_luroth_figure_csv_bytes_match_the_fraction_oracle(digits, level, tmp_path, capsys):
    out = tmp_path / "fig.csv"
    spec = json.dumps({"luroth": list(digits)})
    code, stdout, _ = run(["luroth-figure", "--spec", spec, "--level", str(level),
                           "--out", str(out)], capsys)
    assert code == 0
    want = [(i, left, right) for i, (left, right) in enumerate(luroth_cylinders(digits, level))]
    assert stdout == f"luroth-figure level={level} count={len(want)}\n"
    assert out.read_bytes() == csv_bytes(["index", "left", "right"], want)


# sha256 of the level-14 Luroth {2,3} figure: 16 384 rows, eight blocks.
FIGURE_14_SHA256 = "626d59a3cb103e5c8bb5d9ac6236b4b808dc02c111169fdf5ab8cebe95a40a60"


def test_luroth_figure_level14_digest(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert run(["luroth-figure", "--spec", LUROTH_SPEC, "--level", "14",
                "--out", str(out)], capsys)[0] == 0
    table = json.loads((tmp_path / "fig.json").read_text())["tables"]["main"]
    assert table["rows"] == 2 ** 14 > selfsim.luroth._FIGURE_BLOCK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == table["sha256"] == FIGURE_14_SHA256


# sha256 of figures written whole before the cylinders came in blocks of at
# most 2048: one block, a block's subtree split in K^b rows, and levels of
# 4, 8 and 512 blocks.
FIGURE_SHA256 = {
    ((2, 3), 1): "7b8e724481a6f66479ca3d30433abce417a8e5345a98cc995001f131591b5682",
    ((2, 3), 11): "c5c622c91757bace9898d19b543db4feeee99c3edf44f407038092d29177ac03",
    ((2, 3), 13): "45d6016a8c4ab637fcdf3258158e424d4f1be1df4909eae079051c83099e7cfa",
    ((2, 3), 20): "2c616b84404d10f9bff592decc85915d29c0969336524293e3410d5e1984f49c",
    ((2, 3, 5, 7), 5): "7bc198e88539616703d1ee69c008d0399ce11c2aea9dda8697702a98431e4e9c",
    ((2, 3, 5, 7), 6): "00943c5d700b3e825683fc5241b468fdb27f41523ce4aa1372b53ef0a28a53e7",
    ((3, 4, 9), 7): "82a342a3b740444de0ea3780fbb44d44a258f7b831f5499ac3c106b1a634ebc2",
    ((2, 5, 11), 9): "fc5c44ce0498ae076ee9121dd64503a6bddd6d4da914b5766edb8bec280e31da",
}


@pytest.mark.parametrize("digits, level", list(FIGURE_SHA256),
                         ids=[f"{','.join(map(str, d))}@{n}" for d, n in FIGURE_SHA256])
def test_luroth_figure_digests_across_blocks(digits, level, tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code, stdout, _ = run(["luroth-figure", "--spec", json.dumps({"luroth": list(digits)}),
                           "--level", str(level), "--out", str(out)], capsys)
    count = len(digits) ** level
    assert code == 0 and stdout == f"luroth-figure level={level} count={count}\n"
    table = json.loads((tmp_path / "fig.json").read_text())["tables"]["main"]
    assert table["rows"] == count
    digest = hashlib.sha256()
    with out.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    assert digest.hexdigest() == table["sha256"] == FIGURE_SHA256[digits, level]


def test_luroth_figure_memory_is_flat_in_the_level(tmp_path, capsys):
    # The cylinders come one block at a time, so the traced peak does not
    # grow with the 2^level rows: about 1.1 MB at levels 14, 16 and 18.
    # Holding them all took 4.8, 13 and 50 MB.  Level 16 keeps the test
    # short, as tracemalloc slows the row loop about fivefold.
    argv = ["luroth-figure", "--spec", LUROTH_SPEC, "--out", str(tmp_path / "fig.csv")]
    assert run(argv + ["--level", "3"], capsys)[0] == 0
    peaks = {}
    for level in (14, 16):
        tracemalloc.start()
        try:
            assert run(argv + ["--level", str(level)], capsys)[0] == 0
            peaks[level] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] < peaks[14] + 2 ** 19


def test_beta_and_matveev_commands(capsys):
    code, stdout, _ = run(["beta", "--spec", LUROTH_SPEC], capsys)
    assert code == 0
    assert "beta_thm4=1.5494002748488316e-11" in stdout
    assert "beta_prop10=9.0077678765346514e-11" in stdout
    code, stdout, _ = run(["matveev", "--a1", "2", "--a2", "3"], capsys)
    assert code == 0 and "degree=189369098.5872438" in stdout
    code, _, _ = run(["beta", "--spec", CANTOR_SPEC], capsys)
    assert code == 2  # beta needs a digit-set spec


def test_renewal_command_reproducible(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    base = ["renewal", "--spec", LUROTH_SPEC, "--t", "10",
            "--samples", "2000", "--s", "0.3", "--seed", "11"]
    assert run(base + ["--out", str(out1)], capsys)[0] == 0
    assert run(base + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    a = json.loads((tmp_path / "r1.json").read_text())
    b = json.loads((tmp_path / "r2.json").read_text())
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b
    # Nine chunks, the last one short: the bytes do not depend on how
    # many of them are sampled at once.
    base[base.index("2000")] = "140000"
    outs = []
    for threads in (["--threads", "1"], ["--threads", "2"], ["--threads", "3"], []):
        outs.append(tmp_path / f"t{len(outs)}.csv")
        assert run(base + threads + ["--out", str(outs[-1])], capsys)[0] == 0
    assert len({path.read_bytes() for path in outs}) == 1


def test_dioph_scan_command(capsys):
    code, stdout, _ = run(["dioph-scan", "--spec", LUROTH_SPEC, "--b-max", "200"], capsys)
    assert code == 0
    assert "lattice=false" in stdout
    summary = dict(part.split("=", 1) for part in stdout.split()[1:])
    assert float(summary["scan_min"]) > 0.0
    # Without --l a plain maps spec cannot infer the power.
    code, _, err = run(["dioph-scan", "--spec", CANTOR_SPEC, "--b-max", "50"], capsys)
    assert code == 2 and "--l" in err
    code, _, _ = run(["dioph-scan", "--spec", CANTOR_SPEC, "--l", "2", "--b-max", "50"], capsys)
    assert code == 0


def _edge_floats():
    """Floats where %.17g's digits or notation are hardest to get right."""
    values = []
    for k in range(-323, 309):
        ten = float(f"1e{k}")
        values += [ten, np.nextafter(ten, -math.inf), np.nextafter(ten, math.inf)]
    values += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    # 1 + 2**-17 = 1.00000762939453125 is a tie at 17 digits; E = 16 and 17
    # and -5 and -4 are where %g changes notation.
    values += [1 + 2 ** -17, 1e16, 1e17, 9.999999999999999e16, 1e-5, 9.99999999999999e-5,
               5e-324]
    values = [float(v) for v in values]
    return values + [-v for v in values]


def rows_bytes(header, rows):
    """csv.writer's bytes of the rows, without the header line."""
    return csv_bytes(header, rows).split(b"\r\n", 1)[1]


def test_csv_blocks_render_like_the_row_writer():
    header = ["a", "b", "c"]
    values = [[1.0, -0.0, math.inf], [-math.inf, math.nan, 0.1], [1e16, 5e-324, -2.5e-300],
              [1 / 3, 1e22, 123456789.0]]
    edges = _edge_floats()
    edges += [0.0] * (-len(edges) % 3)
    values += np.array(edges).reshape(-1, 3).tolist()
    _, count, blocks = selfsim.cli._table(header, values)
    assert count == len(values)
    assert b"".join(blocks) == rows_bytes(header, values)
    mixed = [(True, Fraction(2, 3), 7, "cylinder", 0.5, np.float64(0.1), np.int64(-3),
              np.bool_(True), -0.0, math.inf),
             (False, Fraction(-1, 4), 0, "x", math.nan, np.float64(-math.inf), np.int64(2 ** 40),
              np.bool_(False), 1e-310, -1 / 3)]
    header = [f"c{i}" for i in range(10)]
    _, count, blocks = selfsim.cli._table(header, mixed)
    assert count == len(mixed)
    assert b"".join(blocks) == rows_bytes(header, mixed)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(patterns=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_float_csv_bytes_match_the_row_writer_on_raw_bit_patterns(patterns, seed):
    # Any 64-bit pattern read as a float64: subnormals, infinities, nans
    # with payloads and both zeros among the normal floats.  The drawn
    # patterns sit at the start and across the first block boundary of a
    # table that spans two blocks; seeded random patterns fill the rest.
    rows = selfsim.cli._BLOCK_ROWS + 7
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=3 * rows, dtype=np.uint64)
    drawn = np.array(patterns, dtype=np.uint64)
    bits[:len(drawn)] = drawn
    middle = 3 * selfsim.cli._BLOCK_ROWS - len(drawn) // 2
    bits[middle:middle + len(drawn)] = drawn
    table = bits.view(np.float64).reshape(rows, 3)
    header = ["x", "y", "z"]
    data = b"".join(selfsim.cli._table(header, table.tolist())[2])
    assert data == rows_bytes(header, table.tolist())


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r"])
def test_csv_cell_that_needs_quoting_is_refused(cell):
    # csv.writer would quote these cells; joined plainly they would give
    # other bytes, so the block is refused instead.
    with pytest.raises(InternalInvariantError, match="quoting"):
        b"".join(selfsim.cli._table(["a", "b"], [(1, 2.0), (cell, 3)])[2])


def test_command_parser_help_matches_the_full_tree(capsys):
    tree = build_parser()
    for name in COMMANDS:
        with pytest.raises(SystemExit) as exc:
            tree.parse_args([name, "-h"])
        assert exc.value.code == 0
        want = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main([name, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == want and want.startswith(f"usage: selfsim {name} ")


@pytest.mark.parametrize("argv", [
    ["dim", "--spec", LUROTH_SPEC],
    ["weights", "--spec", CANTOR_SPEC, "--out", "w.csv"],
    ["fourier-scan", "--spec", LUROTH_SPEC, "--t", "8", "--xi-max", "64", "--threads", "2"],
    ["decay-fit", "--spec", LUROTH_SPEC, "--points-per-octave", "4", "--cap", "1000"],
    ["regularity", "--spec", LUROTH_SPEC, "--depth", "5"],
    ["diagonal", "--spec", CANTOR_SPEC, "--delta", "0.1"],
    ["dioph-scan", "--spec", CANTOR_SPEC, "--l", "2", "--b-max", "50"],
    ["matveev", "--a1", "2", "--a2", "3"],
    ["luroth-encode", "--x", "2/3"],
    ["luroth-decode", "--digits", "2,3,2"],
    ["luroth-figure", "--spec", LUROTH_SPEC, "--level", "4"],
    ["beta", "--spec", LUROTH_SPEC],
    ["renewal", "--spec", LUROTH_SPEC, "--t", "10", "--samples", "2000", "--s", "0.2"],
], ids=lambda argv: argv[0])
def test_command_parser_namespace_matches_the_full_tree(argv):
    assert build_parser(argv[0]).parse_args(argv[1:]) == build_parser().parse_args(argv)


# The commands that bound what they build, the only ones taking --cap;
# --seed belongs to renewal alone.
CAPPED = {"fourier-scan", "decay-fit", "regularity", "diagonal", "dioph-scan",
          "luroth-encode", "luroth-figure", "renewal"}


def test_cap_and_seed_belong_to_the_commands_that_read_them():
    for name in COMMANDS:
        dests = {action.dest for action in build_parser(name)._actions}
        assert ("cap" in dests) == (name in CAPPED), name
        assert ("seed" in dests) == (name == "renewal"), name


# renewal reads --threads; the benchmark passes it to the two Fourier commands.
THREADED = {"renewal", "fourier-scan", "decay-fit"}


def test_threads_belongs_to_renewal_and_the_fourier_commands():
    for name in COMMANDS:
        dests = {action.dest for action in build_parser(name)._actions}
        assert ("threads" in dests) == (name in THREADED), name


@pytest.mark.parametrize("argv", [
    ["dim", "--spec", LUROTH_SPEC, "--seed", "1"],
    ["matveev", "--a1", "2", "--a2", "3", "--cap", "5"],
    ["dim", "--spec", LUROTH_SPEC, "--threads", "2"],
    ["dioph-scan", "--spec", LUROTH_SPEC, "--grid", "64"],
], ids=["dim-seed", "matveev-cap", "dim-threads", "dioph-scan-grid"])
def test_a_flag_the_command_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_renewal_takes_seed_and_cap(capsys):
    code, out, _ = run(["renewal", "--spec", LUROTH_SPEC, "--t", "10", "--samples", "200",
                        "--seed", "7", "--cap", "1000000"], capsys)
    assert code == 0 and out.startswith("renewal ")


@pytest.mark.parametrize("argv,code", [
    ([], 2), (["-h"], 0), (["nosuch"], 2), (["dim", "--nosuch"], 2),
])
def test_top_level_and_unknown_flag_exits(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    if argv == ["nosuch"]:
        err = capsys.readouterr().err
        assert "invalid choice: 'nosuch'" in err
        assert all(f"'{name}'" in err for name in COMMANDS) and len(COMMANDS) == 13


@pytest.mark.parametrize("argv", [
    ["renewal", "--spec", NINETY_SPEC, "--t", "1e308", "--samples", "100"],
    ["fourier-scan", "--spec", '{"maps":[["0.9999999999999999","0"],["1/1000000000","1/2"]],'
                               '"weights":["1/2","1/2"]}', "--t", "1e300", "--xi-max", "4"],
], ids=["renewal", "fourier-scan"])
def test_overflowing_step_bounds_stop_at_the_cap(argv, capsys):
    # t / (smallest step) and t / -log(largest ratio) overflow to inf; the
    # bound is compared with the cap before it is rounded.
    started = time.monotonic()
    code, _, err = run(argv, capsys)
    assert code == 3 and "cap=" in err
    assert time.monotonic() - started < 5.0


@pytest.mark.parametrize("spec,power,b_max", [
    (LUROTH_SPEC, None, "2e4"),
    (NINETY_SPEC, 2.0, "3e3"),
], ids=["luroth", "ninety"])
def test_dioph_scan_csv_bytes_match_the_row_writer(spec, power, b_max, tmp_path, capsys):
    argv = ["dioph-scan", "--spec", spec, "--b-max", b_max, "--out", str(tmp_path / "d.csv")]
    if power is not None:
        argv += ["--l", str(power)]
    else:
        power = 2.0 * matveev_degree(2, 3) - 2.0
    assert run(argv, capsys)[0] == 0
    report = weakly_diophantine_scan(
        auxiliary_measure(parse_spec(spec).ifs), power, float(b_max))
    data = (tmp_path / "d.csv").read_bytes()
    assert data == csv_bytes(["b", "gap", "scaled_gap", "gap_lower", "block_lo", "block_hi"],
                             report.rows)
    table = json.loads((tmp_path / "d.json").read_text())["tables"]["main"]
    assert table["sha256"] == hashlib.sha256(data).hexdigest()
    assert table["rows"] == len(report.rows)


def test_single_map_regularity_prints_positive_zero(tmp_path, capsys):
    code, stdout, _ = run(["regularity", "--spec", '{"maps":[["1/2","0"]]}', "--depth", "3",
                           "--out", str(tmp_path / "r.csv")], capsys)
    assert code == 0 and "alpha_hat=0 " in stdout
    # The cells would read -0 without normalising.
    assert (tmp_path / "r.csv").read_bytes() == (
        b"level,min_exponent,max_exponent\r\n1,0,0\r\n2,0,0\r\n3,0,0\r\n")


def test_regularity_and_diagonal_commands(capsys):
    code, stdout, _ = run(["regularity", "--spec", LUROTH_SPEC,
                           "--depth", "5"], capsys)
    assert code == 0 and "alpha_hat=0.60096685161367558" in stdout
    code, stdout, _ = run(["diagonal", "--spec", CANTOR_SPEC,
                           "--delta", "0.1", "--depth", "5"], capsys)
    assert code == 0
    summary = dict(part.split("=", 1) for part in stdout.split()[1:])
    assert float(summary["lower"]) <= float(summary["upper"])


# Run in a fresh interpreter: the test modules themselves import scipy.
SCIPY_FREE_RUN = """
import sys
import selfsim
import selfsim.cli
out = sys.argv[1]
assert selfsim.cli.main(["renewal", "--spec", '{"luroth": [2, 3]}', "--t", "5",
                         "--samples", "200", "--out", out + "/renewal.csv"]) == 0
assert selfsim.cli.main(["fourier-scan", "--spec", '{"luroth": [2, 3]}', "--t", "6",
                         "--xi-max", "64", "--out", out + "/scan.csv"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_commands_run_without_importing_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# numpy 2's np.unique loads numpy.ma, about 15 ms in a fresh interpreter.
NUMPY_MA_FREE_RUN = """
import sys
import selfsim.cli
out = sys.argv[1]
for spec, extra in (('{"luroth": [2, 3]}', []), ('{"maps": [["9/10", "0"], ["1/20", "19/20"]]}',
                                                  ["--l", "2"])):
    assert selfsim.cli.main(["dioph-scan", "--spec", spec, "--b-max", "2000",
                             "--out", out + "/dioph.csv"] + extra) == 0
print("numpy.ma" in sys.modules)
"""


def test_dioph_scan_does_not_import_numpy_ma(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", NUMPY_MA_FREE_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
