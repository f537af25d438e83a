"""50-digit oracles for the closed-form worst-case rates and the printed tables.

Each closed form is evaluated in double precision; its oracle is an
independent expression of the same rate in 50-digit arithmetic, on the binary
values of the band endpoints. A first-order count of the rounded operations
in each closed form bounds its relative error by c·M·u, u = 2**-53; the
measured errors stay near 1·M·u. ``worst_case_rate`` lies within
(2M + 2·beta/(beta - alpha)·M^2)·u of the band maximum of |h| on its own
binary gains. The cells that ``table2`` and ``table3`` print must be these
50-digit rates, and the exact rates on the analytic spectra, rounded to 4
decimals; the published reference cells of acceptance criteria 01 and 02
are classified against the same values.
"""

import json
from collections import Counter

import mpmath
import pytest
from click.testing import CliRunner
from test_acceptance import REFERENCE_TABLE2, REFERENCE_TABLE3

from speccon import (SpectralBand, design_chebyshev, design_constant, design_lagrange,
                     worst_case_rate)
from speccon.cli import bundled_spectrum, main
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


DESIGNS = {
    "lagrange": lambda m: design_lagrange(BAND, m),
    "chebyshev": lambda m: design_chebyshev(BAND, m),
    "constant": lambda m: design_constant(BAND),  # one gain, iterated M times
}


def _band_max(seq, m):
    """Max of |h(lam, M)| over the band on the binary gains g_k of ``seq``,
    and the largest first-order bound, in units of u, on the relative error
    of |h| evaluated in double at its candidates.

    |h| is taken at alpha, at beta and at the one critical point between each
    pair of adjacent roots, where (log|h|)' = sum_k 1/(lam - r_k) vanishes.
    """
    gains = [mpmath.mpf(seq.gain_at(k)) for k in range(m)]
    roots = sorted({1 / g for g in gains})
    candidates = [ALPHA, BETA]
    for lo, hi in zip(roots, roots[1:]):
        inset = (hi - lo) * mpmath.mpf(10) ** -30  # both ends are poles of the slope
        c = mpmath.findroot(lambda lam: mpmath.fsum(1 / (lam - 1 / g) for g in gains),
                            (lo + inset, hi - inset), solver="anderson")
        assert lo < c < hi
        candidates.append(c)
    # eval_filter rounds g·lam, 1 - g·lam and the M - 1 products: each factor
    # is off by u·(1 + lam/|lam - r_k|) relative, r_k = 1/g_k, to first order.
    first_order = max(2 * m - 1 + mpmath.fsum(g * lam / abs(1 - g * lam) for g in gains)
                      for lam in candidates)
    return max(abs(mpmath.fprod(1 - g * lam for g in gains)) for lam in candidates), first_order


@pytest.mark.parametrize("method", sorted(DESIGNS))
def test_worst_case_rate_is_within_its_bound_of_the_50_digit_band_maximum(method):
    # The bisection stops at adjacent floats around each critical point,
    # where |h| is flat, so the candidates' placement adds only O(u^2). The
    # first-order sum is largest for chebyshev at beta: with the band mapped
    # onto [-1, 1], sum_k beta/(beta - r_k) = 2·beta/(beta - alpha)·T_M'(1)/T_M(1)
    # = 2·beta/(beta - alpha)·M^2. Hence the bound (2M + 2·beta/(beta - alpha)·M^2)·u,
    # one u above the first-order count; the measured worst is 1712u = 1.9e-13,
    # chebyshev at M = 40, against a bound of 3331u.
    with mpmath.workdps(50):
        for m in [*range(1, 21), 40, 60]:
            seq = DESIGNS[method](m)
            exact, first_order = _band_max(seq, m)
            relative = abs(mpmath.mpf(worst_case_rate(seq, BAND, m)) - exact) / exact
            assert relative <= first_order * U, f"M={m}: relative error {float(relative):.3g}"
            assert first_order <= 2 * m + 2 * BETA / (BETA - ALPHA) * m * m


def _rounding(cell, value):
    """How the 4-decimal ``cell`` rounds ``value``: "nearest", else "up" or
    "down" (directed rounding that is not also the nearest), else "none"."""
    scaled, digits = value * 10 ** 4, round(cell * 10 ** 4)
    for label, rounded in (("nearest", mpmath.nint), ("up", mpmath.ceil), ("down", mpmath.floor)):
        if digits == int(rounded(scaled)):
            return label
    return "none"


def test_reference_cells_are_classified_against_the_50_digit_rates():
    # Criteria 01 and 02 compare the tables with these published cells; each
    # is labelled against its 50-digit value, the small-world cells against
    # the exact rate on the bundled eigenvalues' binary values.
    spectra = {**SPECTRA, "smallworld12": lambda: [mpmath.mpf(v) for v in bundled_spectrum()[1:]]}
    with mpmath.workdps(50):
        table2 = Counter(_rounding(cell, CASES[method][1](m))
                         for method, cells in REFERENCE_TABLE2.items()
                         for m, cell in zip([2, 3, 4, 5], cells))
        table3 = {graph: Counter() for graph in spectra}
        for (graph, method), cells in REFERENCE_TABLE3.items():
            for m, cell in zip([2, 3, 4, 5], cells):
                table3[graph][_rounding(cell, _exact_rate(ROOTS[method](m), spectra[graph]()))] += 1
    assert table2 == {"nearest": 5, "up": 3, "down": 1, "none": 3}
    assert table3 == {"star12": {"nearest": 7, "up": 4, "none": 1},
                      "cycle12": {"nearest": 4, "up": 5, "down": 1, "none": 2},
                      "path6": {"nearest": 3, "up": 5, "down": 2, "none": 2},
                      "smallworld12": {"none": 12}}
