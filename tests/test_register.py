"""Register of outputs known to be false.

Each case asserts the true value and is marked xfail(strict=True): the
suite reports the defect as xfailed, and a change that mends it turns the
case into an unexpected pass, which fails the suite until the change also
removes the marker.  A mended case stays, unmarked, and must pass.
Together the cases take under 2 s.
"""

import mpmath
import pytest

import selfsim.cli
from selfsim import auxiliary_measure, classify_lattice, diagonal_mass, mu_hat_cylinder
from selfsim.cli import parse_spec
from selfsim.ifs import _stopping_states
from selfsim.luroth import luroth_natural_ifs

NINETY = '{"maps": [["9/10", "0"], ["1/20", "19/20"]]}'


def known_false(reason):
    """The register's marker: the case must fail, and by its assertion."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def mp_cylinder_fold(ifs, xi, t):
    """mu_hat_cylinder's midpoint sum over the same stopping states, in 60 digits.

    The states and their children are the library's; each state's ratio
    product is rebuilt exactly from the float ratios, and the fold
    V_s = sum_k p_k e(r_s*b_k) * V_child, or p_k e(r_s*(b_k + r_k/2)) where
    the child is a word, is taken in mpmath with e(x) = exp(-2*pi*i*xi*x).
    """
    levels, _ = _stopping_states(ifs, t, 10 ** 7)
    with mpmath.workdps(60):
        maps = [(mpmath.mpf(m.ratio), mpmath.mpf(m.translation), mpmath.mpf(p))
                for m, p in zip(ifs.maps, ifs.weights)]
        ratios = [[mpmath.mpf(1)]]
        for _, children in levels[:-1]:
            below = [None] * int(children.max() + 1)
            for i, row in enumerate(children):
                for k, child in enumerate(row):
                    if child >= 0 and below[child] is None:
                        below[child] = ratios[-1][i] * maps[k][0]
            ratios.append(below)
        scale = -2 * mpmath.pi * mpmath.mpf(xi)
        below = []
        for (_, children), level in zip(reversed(levels), reversed(ratios)):
            here = []
            for r, row in zip(level, children):
                value = mpmath.mpc(0)
                for (ratio, shift, p), child in zip(maps, row):
                    if child >= 0:
                        value += p * mpmath.expj(scale * r * shift) * below[child]
                    else:
                        value += p * mpmath.expj(scale * r * (shift + ratio / 2))
                here.append(value)
            below = here
        return complex(below[0])


@known_false("the fold's float phases are not in the bound")
@pytest.mark.parametrize("xi", [1e9 + 7, 1e12 + 7, 1e15 + 7], ids=["1e9", "1e12", "1e15"])
def test_cylinder_error_is_within_its_bound(xi):
    ifs, _ = luroth_natural_ifs((2, 3))
    sample = mu_hat_cylinder(ifs, xi, 60.0)
    assert abs(sample.value - mp_cylinder_fold(ifs, xi, 60.0)) <= sample.error_bound


def test_luroth_23_steps_are_non_lattice():
    ifs, _ = luroth_natural_ifs((2, 3))
    assert classify_lattice(auxiliary_measure(ifs)) == "non-lattice"


def test_renewal_on_an_irrational_step_ratio_is_non_lattice(capsys):
    spec = '{"maps": [["1/2", "0"], ["1099511627777/4398046511104", "1/2"]]}'
    assert selfsim.cli.main(["renewal", "--spec", spec, "--t", "10", "--samples", "200"]) == 0
    assert "lattice=false" in capsys.readouterr().out


@known_false("a depth-d family leaves wide cylinders undecided")
def test_diagonal_bracket_on_the_ninety_walk_is_informative():
    lower, upper = diagonal_mass(parse_spec(NINETY).ifs, 1e-6, 14)
    assert upper <= 10.0 * lower
