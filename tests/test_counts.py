"""The one count rule: every period, step count, order and horizon that the
library takes is read by ``graphs._integral``, so a count that is not an
integer at least its least value is a ParameterError that names it, and a
numpy integer count gives the int count's result bit for bit."""

import dataclasses
import math
import re

import numpy as np
import pytest

from speccon import (
    ControlSequence,
    ParameterError,
    SpectralBand,
    build_graph,
    cheby_on_band_at_zero,
    closed_rate_chebyshev,
    closed_rate_constant,
    closed_rate_lagrange,
    decaying_gain_residuals,
    design_chebyshev,
    design_lagrange,
    design_uniform_unknown,
    eval_filter,
    measured_period_ratios,
    rate_on_eigenvalues,
    simulate,
    spectrum,
    worst_case_rate,
)

BAND = SpectralBand(0.2, 12.8)
SEQ = ControlSequence((0.3, 0.07, 1.1))
STAR = build_graph("star", n=5)
TRACE = simulate(STAR, SEQ, np.arange(5.0), 9)

# Each public function that takes a count: the call of the count, its name
# and its least value.
COUNTS = [
    pytest.param(lambda c: eval_filter(SEQ, np.array([0.5, 2.0]), c), "steps", 0,
                 id="eval_filter"),
    pytest.param(lambda c: cheby_on_band_at_zero(BAND, c), "order", 0,
                 id="cheby_on_band_at_zero"),
    pytest.param(lambda c: closed_rate_lagrange(BAND, c), "period", 1, id="closed_rate_lagrange"),
    pytest.param(lambda c: closed_rate_chebyshev(BAND, c), "period", 1,
                 id="closed_rate_chebyshev"),
    pytest.param(lambda c: closed_rate_constant(BAND, c), "period", 1, id="closed_rate_constant"),
    pytest.param(lambda c: worst_case_rate(SEQ, BAND, c), "steps", 1, id="worst_case_rate"),
    pytest.param(lambda c: rate_on_eigenvalues(SEQ, [1.0, 2.0], c), "steps", 1,
                 id="rate_on_eigenvalues"),
    pytest.param(lambda c: decaying_gain_residuals("harmonic", spectrum(STAR), c), "horizon", 0,
                 id="decaying_gain_residuals"),
    pytest.param(lambda c: simulate(STAR, SEQ, np.arange(5.0), c), "steps", 0, id="simulate"),
    pytest.param(lambda c: measured_period_ratios(TRACE, c), "period", 1,
                 id="measured_period_ratios"),
    pytest.param(lambda c: design_lagrange(BAND, c), "period", 1, id="design_lagrange"),
    pytest.param(lambda c: design_chebyshev(BAND, c), "period", 1, id="design_chebyshev"),
    pytest.param(lambda c: design_uniform_unknown(13.0, c), "period", 1,
                 id="design_uniform_unknown"),
]


def _bits(x):
    """``x`` in a form equal for two results exactly when every bit is."""
    if dataclasses.is_dataclass(x):
        return type(x), tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if x is None or isinstance(x, str):
        return x
    a = np.asarray(x)
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, True, "least - 1"])
@pytest.mark.parametrize("call,name,least", COUNTS)
def test_a_count_outside_the_one_rule_is_refused_by_name(call, name, least, bad):
    bad = least - 1 if bad == "least - 1" else bad
    message = (f"{name} must be a number, got True" if bad is True
               else f"{name} must be an integer >= {least}, got {bad}")
    with pytest.raises(ParameterError, match="^" + re.escape(message) + "$"):
        call(bad)


@pytest.mark.parametrize("call,name,least", COUNTS)
def test_a_numpy_integer_count_gives_the_int_result(call, name, least):
    for count in (least, 3):
        assert _bits(call(np.int64(count))) == _bits(call(count))
