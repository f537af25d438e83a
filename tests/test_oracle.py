"""50-digit oracles for the closed-form worst-case rates and the printed tables.

Each closed form is evaluated in double precision; its oracle is an
independent expression of the same rate in 50-digit arithmetic, on the binary
values of the band endpoints. A first-order count of the rounded operations
in each closed form bounds its relative error by c·M·u, u = 2**-53; the
measured errors stay near 1·M·u. The cells that ``table2`` and ``table3``
print must be these 50-digit rates, and the exact rates on the analytic
spectra, rounded to 4 decimals.
"""

import json

import mpmath
import pytest
from click.testing import CliRunner

from speccon import SpectralBand
from speccon.cli import main
from speccon.filters import closed_rate_chebyshev, closed_rate_constant, closed_rate_lagrange

U = 2.0 ** -53
BAND = SpectralBand(0.2, 12.8)
ALPHA, BETA = mpmath.mpf(BAND.alpha), mpmath.mpf(BAND.beta)


def _lagrange(m):
    # M! / prod_{k=1..M} (k + shift) as a rising factorial
    shift = (m + 1) * ALPHA / (BETA - ALPHA)
    return mpmath.factorial(m) / mpmath.rf(1 + shift, m)


def _chebyshev(m):
    # 1 / |T_M(chi(0))| with T_M(x) = cosh(M acosh x) for x >= 1
    return 1 / mpmath.cosh(m * mpmath.acosh((BETA + ALPHA) / (BETA - ALPHA)))


def _constant(m):
    return ((BETA - ALPHA) / (BETA + ALPHA)) ** m


# (closed form, oracle, c). constant: three roundings in the base, amplified
# M times by the power, plus its own: (3M + 1)u <= 4Mu. lagrange: at most 3u
# in the shift, then per factor an addition, a division and a product, with
# the shift's error damped by shift / (k + shift): 6Mu. chebyshev: s =
# sqrt(beta / alpha) = 8 carries 1.5u, (s - 1) / (s + 1) and its reciprocal
# at most 6u each, amplified M times by their powers, then a sum and a
# reciprocal: (6M + 3)u <= 9Mu.
CASES = {
    "lagrange": (closed_rate_lagrange, _lagrange, 6),
    "chebyshev": (closed_rate_chebyshev, _chebyshev, 9),
    "constant": (closed_rate_constant, _constant, 4),
}


@pytest.mark.parametrize("method", sorted(CASES))
def test_closed_rate_is_within_c_m_u_of_the_50_digit_value(method):
    closed, oracle, c = CASES[method]
    with mpmath.workdps(50):
        for m in range(1, 41):
            exact = oracle(m)
            relative = float(abs(mpmath.mpf(closed(BAND, m)) - exact) / exact)
            assert relative <= c * m * U, f"M={m}: relative error {relative:.3g}"


# The filter roots of each design over the band, from its defining formula.
ROOTS = {
    "lagrange": lambda m: [ALPHA + (BETA - ALPHA) * (k + 1) / (m + 1) for k in range(m)],
    "chebyshev": lambda m: [(BETA - ALPHA) / 2 * mpmath.cos((2 * i - 1) * mpmath.pi / (2 * m))
                            + (BETA + ALPHA) / 2 for i in range(1, m + 1)],
    "constant": lambda m: [(ALPHA + BETA) / 2] * m,
}
# The distinct nonzero Laplacian eigenvalues of table 3's graphs, in closed form.
SPECTRA = {
    "star12": lambda: [mpmath.mpf(1), mpmath.mpf(12)],
    "cycle12": lambda: [2 - 2 * mpmath.cos(2 * mpmath.pi * k / 12) for k in range(1, 7)],
    "path6": lambda: [2 - 2 * mpmath.cos(mpmath.pi * k / 6) for k in range(1, 6)],
}


def _exact_rate(roots, eigenvalues):
    return max(abs(mpmath.fprod(1 - lam / r for r in roots)) for lam in eigenvalues)


def _table(command):
    result = CliRunner().invoke(main, [command, "--format", "json"], catch_exceptions=False)
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert (doc["alpha"], doc["beta"], doc["periods"]) == (BAND.alpha, BAND.beta, [2, 3, 4, 5])
    return doc["rates"]


def _assert_cells(cells, oracle):
    # a cell is its 50-digit value rounded to 4 decimals
    for m, cell in zip([2, 3, 4, 5], cells):
        assert round(cell * 10 ** 4) == int(mpmath.nint(oracle(m) * 10 ** 4)), f"M={m}: {cell}"


def test_table2_cells_are_the_50_digit_rates():
    rates = _table("table2")
    assert list(rates) == list(CASES)
    with mpmath.workdps(50):
        for method, cells in rates.items():
            _assert_cells(cells, CASES[method][1])


@pytest.mark.parametrize("graph", sorted(SPECTRA))
def test_table3_cells_are_the_50_digit_rates_on_the_analytic_spectrum(graph):
    rates = _table("table3")[graph]
    assert list(rates) == list(ROOTS)
    with mpmath.workdps(50):
        for method, cells in rates.items():
            _assert_cells(cells, lambda m: _exact_rate(ROOTS[method](m), SPECTRA[graph]()))
