"""50-digit oracles for the closed-form worst-case rates.

Each closed form is evaluated in double precision; its oracle is an
independent expression of the same rate in 50-digit arithmetic, on the binary
values of the band endpoints. A first-order count of the rounded operations
in each closed form bounds its relative error by c·M·u, u = 2**-53; the
measured errors stay near 1·M·u.
"""

import mpmath
import pytest

from speccon import SpectralBand
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
