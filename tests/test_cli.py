import csv
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from selfsim import InputError
from selfsim.cli import main, parse_spec

LUROTH_SPEC = '{"luroth": [2, 3]}'
CANTOR_SPEC = '{"maps": [["1/3", "0"], ["1/3", "2/3"]]}'


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


def test_parse_spec_explicit_weights_kept():
    spec = parse_spec('{"maps": [["1/2", "0"], ["1/4", "3/4"]],'
                      ' "weights": ["0.9", "0.1"]}')
    assert spec.ifs.weights == (0.9, 0.1)
    assert spec.dimension is None


def test_parse_spec_natural_weights_by_default():
    spec = parse_spec(CANTOR_SPEC)
    assert spec.ifs.weights == pytest.approx((0.5, 0.5), abs=1e-13)


def test_parse_spec_rejects_bad_input():
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


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(["dim", "--spec", '{"mapz": []}'], capsys)
    assert code == 2 and "mapz" in err
    code, _, err = run(["luroth-figure", "--spec", LUROTH_SPEC,
                        "--level", "12", "--cap", "100"], capsys)
    assert code == 3 and "cap" in err
    code, _, err = run(["dim"], capsys)
    assert code == 2
    # Renewal walks are checked against --cap before any step is drawn.
    code, _, err = run(["renewal", "--spec", '{"maps":[["9/10","0"],["1/20","19/20"]]}',
                        "--t", "1e8", "--samples", "100"], capsys)
    assert code == 3 and "949122161 steps per walker" in err
    code, _, err = run(["renewal", "--spec", LUROTH_SPEC, "--t", "1e5",
                        "--samples", "1000000"], capsys)
    assert code == 3 and "144272 steps per walker" in err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_fourier_scan_stops_at_cap(capsys):
    # The default cap of 5e7 words stands between this family and the
    # machine's memory; the scan must give up quickly, before allocating.
    started = time.monotonic()
    code, _, err = run(["fourier-scan", "--spec",
                        '{"maps":[["999/1000","0"],["1/2000","1999/2000"]]}',
                        "--t", "20", "--xi-max", "1e3"], capsys)
    assert code == 3 and "cap" in err
    assert time.monotonic() - started < 5.0


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
    code, _, err = run(["dim", "--spec", LUROTH_SPEC, "--threads", "0"], capsys)
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


def test_dioph_scan_command(capsys):
    code, stdout, _ = run(["dioph-scan", "--spec", LUROTH_SPEC,
                           "--b-max", "200", "--grid", "256"], capsys)
    assert code == 0
    assert "lattice=false" in stdout
    summary = dict(part.split("=", 1) for part in stdout.split()[1:])
    assert float(summary["scan_min"]) > 0.0
    # Without --l a plain maps spec cannot infer the power.
    code, _, err = run(["dioph-scan", "--spec", CANTOR_SPEC,
                        "--b-max", "50", "--grid", "64"], capsys)
    assert code == 2 and "--l" in err
    code, _, _ = run(["dioph-scan", "--spec", CANTOR_SPEC, "--l", "2",
                      "--b-max", "50", "--grid", "64"], capsys)
    assert code == 0


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
