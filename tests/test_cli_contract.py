"""The CLI contract: exit code, stdout line and CSV bytes of every subcommand.

Each of the 13 subcommands runs once at a small size, and dioph-scan
once more at a power that keeps its scaled column finite.  Expected values
were recorded before the command table replaced the per-command
functions, dioph-scan's once it reported one row per dyadic block; any
change to a summary line or a CSV byte fails here.  The renewal job uses
a fixed seed, and ``diagonal`` stays at depth 4 so that no BLAS
reduction is large enough to split across threads.
"""

import hashlib
import json

import pytest

import selfsim.cli
import selfsim.fourier
import selfsim.ifs
import selfsim.luroth
import selfsim.renewal

LUROTH = '{"luroth": [2, 3]}'
CANTOR = '{"maps": [["1/3", "0"], ["1/3", "2/3"]]}'
NINETY = '{"maps": [["9/10", "0"], ["1/20", "19/20"]]}'

ARGV = {
    "dim": ["dim", "--spec", LUROTH],
    "weights": ["weights", "--spec", CANTOR],
    "fourier-scan": ["fourier-scan", "--spec", LUROTH, "--t", "8", "--xi-max", "64",
                     "--points-per-octave", "2", "--threads", "2"],
    "decay-fit": ["decay-fit", "--spec", LUROTH, "--t", "8", "--xi-max", "1000",
                  "--points-per-octave", "4"],
    "regularity": ["regularity", "--spec", LUROTH, "--depth", "5"],
    "diagonal": ["diagonal", "--spec", CANTOR, "--delta", "0.1", "--depth", "4"],
    "dioph-scan": ["dioph-scan", "--spec", LUROTH, "--b-max", "200"],
    # At Luroth's own power every scaled gap is inf; at l = 2 the scaled
    # column is finite.
    "dioph-scan-l2": ["dioph-scan", "--spec", NINETY, "--l", "2", "--b-max", "200"],
    "matveev": ["matveev", "--a1", "2", "--a2", "3"],
    "luroth-encode": ["luroth-encode", "--x", "2/3", "--n", "6"],
    "luroth-decode": ["luroth-decode", "--digits", "2,3,2"],
    "luroth-figure": ["luroth-figure", "--spec", LUROTH, "--level", "3"],
    "beta": ["beta", "--spec", LUROTH],
    "renewal": ["renewal", "--spec", LUROTH, "--t", "10", "--samples", "2000",
                "--seed", "11"],
}

# command -> (stdout line, {CSV file name: sha256 of its bytes}).
EXPECTED = {
    'beta': (
        'beta dim=0.60096685161367547 a1=2 a2=3 beta_thm4=1.5494002748488316e-11'
        ' beta_prop10=9.0077678765346514e-11 degree=189369098.5872438',
        {
            'job.csv':
                '33b3295e5b5546ce2394ea5a456e66eb5e5b188714c732b15b1db09e03d23372',
        }),
    'decay-fit': (
        'decay-fit beta_hat=1.3476156893637072 log_c=-0.022938613993873425'
        ' window_lo=8 window_hi=512 residual_rms=0.10095204300828499',
        {
            'job.csv':
                '414c05be88f722ab6bc1cb5061a9b9d13e8293f1e6199eaf84cded33c989b0bf',
        }),
    'diagonal': (
        'diagonal lower=0.21875 upper=0.25 delta=0.10000000000000001 depth=4',
        {
            'job.csv':
                '1710fe7e26ab46438ed3e5064df2928e2463a254fc90367a4ca00e9f2db863f0',
        }),
    'dim': (
        'dim dim=0.60096685161367547 residual=0 iterations=58',
        {
            'job.csv':
                'ddea74858533e3f92ccdf16aa4be2e82a9e39d7be81d0049aa79ee1b42665d5f',
        }),
    'dioph-scan': (
        'dioph-scan degree_l=378738195.17448759 scan_min=0.00071448466520227145'
        ' scan_min_lower=0.00070281998793061463 scan_argmin=108.7374395718232'
        ' lattice=false classification=non-lattice log_c=-86305744.498959586'
        ' points=8 evaluations=1033',
        {
            'job.csv':
                '55e749291e22a34c2da8afc1f2b5fd53efb5d7747087d4172cee20446be895d9',
        }),
    'dioph-scan-l2': (
        'dioph-scan degree_l=2 scan_min=0.0024775284312717281'
        ' scan_min_lower=0.0024518929769707879 scan_argmin=119.4733297413793'
        ' lattice=false classification=non-lattice log_c=nan points=8'
        ' evaluations=795',
        {
            'job.csv':
                '55aa49beb7bf6f2833dc1a93f52d144c4cfa358e227f342ed78c91c1ed19ef00',
        }),
    'fourier-scan': (
        'fourier-scan t=8 xi_max=64 samples=12 blocks=6'
        ' envelope_min=0.16647591722078364 envelope_max=0.51667925467675835',
        {
            'job.csv':
                '820244c037df27d1c0e2da0264770391fd0ee4efa2c6d1b0701884996e6d320f',
            'job.envelope.csv':
                '7dd9039d9041ce558eb67dc58c49d5d2ac738cb409cacc727b02be1513cebc80',
        }),
    'luroth-decode': (
        'luroth-decode value=0.70833333333333337 tail_bound=0.041666666666666664'
        ' value_exact=17/24 tail_exact=1/24',
        {
            'job.csv':
                '9a06f842813d1fcdbe17e3c615c0945526d5d86c89de44bc0dff021e7a56b56c',
        }),
    'luroth-encode': (
        'luroth-encode digits=2,4,2,2,2,2 terminating=false',
        {
            'job.csv':
                '0efde001d7575d6abbedc582dba90c3f1abf13646b0824fca20a947c4ed3075a',
        }),
    'luroth-figure': (
        'luroth-figure level=3 count=8',
        {
            'job.csv':
                '63ba1d5df6f9e3f861e2f28b9a239f2190adf53d9ef225dc4dc9ba1f4280a898',
        }),
    'matveev': (
        'matveev a1=2 a2=3 degree=189369098.5872438 log_c=-86305744.498959586',
        {
            'job.csv':
                '7adc85d602d515cfb2692f20da136d4a06683801cf0c6126e24057fcce401f31',
        }),
    'regularity': (
        'regularity alpha_hat=0.60096685161367558 interval_constant=5.8704731046170613'
        ' depth=5',
        {
            'job.csv':
                '7511cc931d1d917a6734910364b51de9aade782d187544882aa400f2b4740045',
        }),
    'renewal': (
        'renewal t=10 mc_re=0.49032644966904954 mc_im=-0.76850553585128067'
        ' stderr=0.0091918228366543522 limit_re=0.42179233029839963'
        ' limit_im=-0.79842214704843428 n_samples=2000 lattice=false',
        {
            'job.csv':
                '850039e01d4f345875674c77da4019b2c8c7fbf7e9f9e2b065657be4067d5304',
        }),
    'weights': (
        'weights dim=0.63092975357145731 weights=0.5,0.5',
        {
            'job.csv':
                'fd3e65caed2d857113f52b86ec47ad997814f0abd858d989eb3678eef06ca1c6',
        }),
}


def _run(command, tmp_path, capsys):
    code = selfsim.cli.main(ARGV[command] + ["--out", str(tmp_path / "job.csv")])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(ARGV))
def test_cli_output_unchanged(command, tmp_path, capsys):
    code, stdout = _run(command, tmp_path, capsys)
    line, digests = EXPECTED[command]
    assert code == 0
    assert stdout == line + "\n"
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.csv")}
    assert written == digests


@pytest.mark.parametrize("command", sorted(ARGV))
def test_sidecar_points_at_its_csv(command, tmp_path, capsys):
    _run(command, tmp_path, capsys)
    sidecar = json.loads((tmp_path / "job.json").read_text(encoding="utf-8"))
    assert sidecar["command"] == ARGV[command][0]
    for name, entry in sidecar["tables"].items():
        path = tmp_path / ("job.csv" if name == "main" else f"job.{name}.csv")
        lines = path.read_bytes().splitlines()
        assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert entry["header"] == lines[0].decode().split(",")
        assert entry["rows"] == len(lines) - 1


# Names the benchmark's tracer replaces (bench/child.py), the command that
# reaches each one, and the module it is looked up in.
TRACED = [
    (selfsim.cli, "main", "dim"),
    (selfsim.cli, "parse_spec", "dim"),
    (selfsim.cli, "dyadic_scan", "fourier-scan"),
    (selfsim.cli, "decay_fit", "decay-fit"),
    (selfsim.cli, "weakly_diophantine_scan", "dioph-scan"),
    (selfsim.cli, "renewal_expectation_mc", "renewal"),
    (selfsim.cli, "regularity_scan", "regularity"),
    (selfsim.cli, "diagonal_mass", "diagonal"),
    (selfsim.cli, "_figure_cylinders", "luroth-figure"),
    (selfsim.cli, "phase_test_function", "renewal"),
    (selfsim.renewal, "renewal_limit", "renewal"),
]


@pytest.mark.parametrize("module,name,command", TRACED,
                         ids=[f"{m.__name__}.{n}" for m, n, _ in TRACED])
def test_traced_names_are_looked_up_at_call_time(module, name, command, monkeypatch,
                                                 tmp_path, capsys):
    inner = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    code, _ = _run(command, tmp_path, capsys)
    assert code == 0 and calls


def test_fourier_keeps_stopping_words_for_the_tracer():
    # The tracer wraps selfsim.fourier.stopping_words; no command calls it,
    # so the name only has to stay the enumerator itself.
    assert selfsim.fourier.stopping_words is selfsim.ifs.stopping_words


def test_cli_keeps_figure_intervals_for_the_tracer():
    # The tracer wraps selfsim.cli.figure_intervals; luroth-figure calls
    # _figure_cylinders, so the name only has to stay the public function.
    assert selfsim.cli.figure_intervals is selfsim.luroth.figure_intervals


BAD_INPUT = [
    ["fourier-scan", "--spec", LUROTH, "--t", "6", "--xi-max", "inf"],
    ["fourier-scan", "--spec", LUROTH, "--t", "6", "--xi-max", "1e400"],
    ["fourier-scan", "--spec", LUROTH, "--t", "6", "--xi-max", "1e308"],
    ["decay-fit", "--spec", LUROTH, "--t", "6", "--xi-max", "inf"],
    ["decay-fit", "--spec", LUROTH, "--t", "6", "--xi-max", "1e308"],
    ["fourier-scan", "--spec", LUROTH, "--t", "nan", "--xi-max", "8"],
    ["dioph-scan", "--spec", LUROTH, "--b-max", "inf"],
    ["renewal", "--spec", LUROTH, "--t", "10", "--samples", "200", "--s", "inf"],
    ["renewal", "--spec", LUROTH, "--t", "10", "--samples", "200", "--s", "nan"],
    ["dim", "--spec", '{"maps": [["1/3", "1e400"], ["1/3", "2/3"]]}'],
    ["dim", "--spec", '{"maps": [["1/3", "0"], ["1/3", "2/3"]], "weights": ["1e400", "1"]}'],
    ["dim", "--spec", '{"luroth": [2, %d]}' % 10 ** 400],
    ["dim", "--spec", '{"luroth": [[2]]}'],
    ["dim", "--spec", '{"luroth": ["a", 2]}'],
    ["dim", "--spec", '{"luroth": []}'],
    ["fourier-scan", "--spec", LUROTH, "--t", "6", "--xi-max", "8", "--threads", "0"],
    ["luroth-encode", "--x", "abc"],
    ["luroth-encode", "--x", "1/0"],
    ["luroth-encode", "--x", "1/2", "--n", "0"],
    ["beta", "--spec", '{"luroth": [2]}'],
    ["fourier-scan", "--spec", LUROTH, "--t", "6", "--xi-max", "8", "--points-per-octave", "0"],
    ["regularity", "--spec", LUROTH, "--depth", "0"],
    ["diagonal", "--spec", LUROTH, "--delta", "0.1", "--depth", "0"],
    ["dioph-scan", "--spec", LUROTH, "--b-max", "1"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=range(len(BAD_INPUT)))
def test_bad_input_exits_2(argv, capsys):
    assert selfsim.cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
