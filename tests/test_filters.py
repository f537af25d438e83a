import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from speccon import (
    ControlSequence,
    ParameterError,
    SpectralBand,
    cheby_on_band_at_zero,
    closed_rate_chebyshev,
    closed_rate_constant,
    closed_rate_lagrange,
    design_chebyshev,
    design_constant,
    design_finite_time,
    design_lagrange,
    design_uniform_unknown,
    eval_filter,
    sequence_from_dict,
    sequence_to_dict,
)
from speccon.cli import main
from speccon.filters import _band_gains

BAND = SpectralBand(0.2, 12.8)

# frozen from the closed forms, cross-checked against a dense grid
# maximization of |h| over the band (agreement to ~1e-15)
CLOSED_LAGRANGE = {2: 0.9323467230443975, 3: 0.8924778260947158,
                   4: 0.8512524559420962, 5: 0.8096580191398898}
CLOSED_CHEBYSHEV = {2: 0.885739790225396, 3: 0.7704540202437257,
                    4: 0.6454607582201595, 5: 0.5265949471005531}
CLOSED_CONSTANT = {2: 0.9394082840236688, 3: 0.9105034137460176,
                   4: 0.882487924092294, 5: 0.855334449504839}


def _random_band(rng):
    alpha = rng.uniform(0.05, 40.0)
    return SpectralBand(alpha, rng.uniform(alpha * 1.02 + 0.01, 100.0))


def test_sequence_invariants():
    with pytest.raises(ParameterError):
        ControlSequence(())
    with pytest.raises(ParameterError):
        ControlSequence((0.5, -0.1))
    with pytest.raises(ParameterError):
        ControlSequence((0.5,), method="bogus")
    # an int past the float range was a raw OverflowError
    with pytest.raises(ParameterError, match="^control gains must be positive and finite$"):
        ControlSequence((0.5, 10 ** 400))
    seq = ControlSequence((0.5, 0.25))
    assert seq.period == 2
    assert seq.roots == (2.0, 4.0)
    # a zero root has no gain: 1/0 would be a ZeroDivisionError. Of the CLI's
    # bands only a Chebyshev design reaches one, where the cosine of its last
    # root rounds to -1 (M from about 1.49e8) and beta/alpha passes 2**53.
    with pytest.raises(ParameterError, match="filter roots must be positive"):
        _band_gains(BAND, lambda a, z: [z, 0.0])


def test_eval_filter_normalization_and_annihilation():
    seq = ControlSequence((0.3, 0.07, 1.1))
    for steps in (0, 1, 5, 17):
        assert eval_filter(seq, 0.0, steps) == 1.0
    # range(-1) is empty: h would read 1
    with pytest.raises(ParameterError, match="steps must be an integer >= 0"):
        eval_filter(seq, 1.0, -1)
    assert eval_filter(ControlSequence((0.5,)), 2.0, 1) == 0.0
    cheb = design_chebyshev(BAND, 3)
    assert abs(eval_filter(cheb, 6.5, 3)) <= 1e-14


def test_eval_filter_periodic_powers():
    rng = np.random.default_rng(11)
    for _ in range(20):
        period = int(rng.integers(1, 6))
        seq = ControlSequence(tuple(rng.uniform(0.01, 1.0, period)))
        lam = rng.uniform(0.0, 20.0)
        base = eval_filter(seq, lam, period)
        for j in range(1, 9):
            full = eval_filter(seq, lam, j * period)
            assert abs(full - base ** j) <= 1e-12 * max(1.0, abs(base) ** j)


def test_eval_filter_vectorized_matches_scalar():
    seq = design_lagrange(BAND, 4)
    grid = np.linspace(0.0, 13.44, 97)
    vec = eval_filter(seq, grid, 4)
    assert np.array_equal(vec, np.array([eval_filter(seq, x, 4) for x in grid]))


def test_eval_filter_overflows_to_inf_without_a_warning():
    # three factors of about -1e150 each: |h| is past the float range
    cheb = design_chebyshev(SpectralBand(0.2, 20.0), 3)
    assert abs(eval_filter(cheb, 2e150, 3)) == math.inf
    assert np.isinf(eval_filter(cheb, np.array([1.0, 2e150]), 3)).tolist() == [False, True]


def test_eval_filter_zero_factor_after_an_overflow_is_zero():
    # h(2) = (1 - 2e160)^2 * (1 - 0.5 * 2): inf * 0 would be NaN
    seq = ControlSequence((1e160, 1e160, 0.5))
    assert eval_filter(seq, 2.0, 3) == 0.0
    assert eval_filter(seq, np.array([2.0, 1.0]), 3).tolist() == [0.0, math.inf]
    # a zero reached without an overflow keeps its sign
    assert math.copysign(1.0, eval_filter(ControlSequence((0.5, 2.0)), 2.0, 2)) == -1.0


def test_design_finite_time():
    seq = design_finite_time([1.0, 12.0])
    assert seq.period == 2
    assert seq.gains == (1.0, 1.0 / 12.0)
    assert seq.method == "finite_time"
    assert design_finite_time([5.0]).gains == (0.2,)
    k34 = design_finite_time([3.0, 4.0, 7.0])
    assert k34.gains == (1.0 / 3.0, 0.25, 1.0 / 7.0)
    for lam in (3.0, 4.0, 7.0):
        assert abs(eval_filter(k34, lam, 3)) <= 1e-10
    with pytest.raises(ParameterError):
        design_finite_time([2.0, -1.0])
    with pytest.raises(ParameterError, match="control sequence needs at least one gain"):
        design_finite_time([])


def test_design_constant():
    assert design_constant(BAND).gains == (1.0 / 6.5,)
    assert design_constant(SpectralBand(1.0, 1.0)).gains == (1.0,)
    assert design_constant(SpectralBand(2.0, 6.0)).gains == (0.25,)


def test_design_lagrange():
    seq = design_lagrange(BAND, 2)
    assert np.allclose(seq.roots, (4.4, 8.6), atol=1e-12)
    assert np.allclose(seq.gains, (1 / 4.4, 1 / 8.6), atol=1e-15)
    assert np.allclose(design_lagrange(BAND, 1).gains, design_constant(BAND).gains, rtol=1e-15)
    degenerate = design_lagrange(SpectralBand(3.0, 3.0), 2)
    assert degenerate.roots == (3.0, 3.0)
    for period in (0, -1):
        with pytest.raises(ParameterError, match="period must be an integer >= 1"):
            design_lagrange(BAND, period)


def test_design_chebyshev():
    seq = design_chebyshev(BAND, 3)
    assert np.allclose(seq.roots, (11.955960043841966, 6.5, 1.0440399561580351), atol=1e-12)
    assert np.allclose(seq.roots, (11.956, 6.5, 1.044), atol=5e-4)
    assert design_chebyshev(BAND, 1).roots == (6.5,)
    assert np.allclose(design_chebyshev(SpectralBand(1.0, 9.0), 2).roots,
                       (7.82842712474619, 2.17157287525381), atol=1e-12)
    with pytest.raises(ParameterError):
        design_chebyshev(SpectralBand(3.0, 3.0), 2)
    for period in (0, -1):
        with pytest.raises(ParameterError, match="period must be an integer >= 1"):
            design_chebyshev(BAND, period)


def test_design_chebyshev_roots_descend_within_band():
    rng = np.random.default_rng(3)
    for _ in range(10):
        band = _random_band(rng)
        for period in (1, 2, 3, 5, 8):
            roots = design_chebyshev(band, period).roots
            assert all(a > b for a, b in zip(roots, roots[1:]))
            assert all(band.alpha < r < band.beta for r in roots)


def test_design_uniform_unknown():
    assert design_uniform_unknown(13.0, 1).gains == (2.0 / 13.0,)
    seq = design_uniform_unknown(13.0, 3)
    assert np.allclose(seq.gains, (4 / 13, 2 / 13, 4 / 39), atol=1e-15)
    assert eval_filter(seq, 13.0 / 4.0, 3) == 0.0
    with pytest.raises(ParameterError):
        design_uniform_unknown(-1.0, 3)
    for period in (0, -1):
        with pytest.raises(ParameterError, match="period must be an integer >= 1"):
            design_uniform_unknown(13.0, period)


def _cheb_t(m, x):
    """T_m(x) by the three-term recursion, valid for any real x."""
    if m == 0:
        return 1.0
    prev, cur = 1.0, x
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def _band_chi(band, lam):
    """The affine map sending [alpha, beta] onto [-1, 1]."""
    return (2.0 * lam - (band.beta + band.alpha)) / (band.beta - band.alpha)


def test_cheby_t_examples_and_trig_oracle():
    assert _cheb_t(2, 0.5) == -0.5
    assert _cheb_t(4, 1.0) == 1.0
    assert abs(_cheb_t(3, math.cos(math.pi / 6))) <= 1e-15
    grid = np.linspace(-1.0, 1.0, 1001)
    for m in range(13):
        recursion = np.array([_cheb_t(m, x) for x in grid])
        trig = np.cos(m * np.arccos(grid))
        assert np.abs(recursion - trig).max() <= 1e-10


def test_cheby_on_band():
    assert abs(_cheb_t(1, _band_chi(BAND, 0.2)) + 1.0) <= 1e-12
    for m in (0, 1, 2, 5, 9):
        assert abs(_cheb_t(m, _band_chi(BAND, 12.8)) - 1.0) <= 1e-12
    assert abs(_cheb_t(2, _band_chi(BAND, 6.5)) + 1.0) <= 1e-12
    # agrees with the trigonometric form after the affine change of variable
    rng = np.random.default_rng(8)
    for _ in range(50):
        lam = rng.uniform(0.2, 12.8)
        chi = (2 * lam - 13.0) / 12.6
        for m in range(9):
            assert abs(_cheb_t(m, _band_chi(BAND, lam)) - math.cos(m * math.acos(chi))) <= 1e-12


def test_cheby_on_band_at_zero_closed_form():
    assert cheby_on_band_at_zero(BAND, 0) == 1.0
    assert abs(cheby_on_band_at_zero(BAND, 1) - (-13.0 / 12.6)) <= 1e-15
    assert abs(cheby_on_band_at_zero(BAND, 2) - 1.1289997480473672) <= 1e-12
    for m in range(31):
        closed = cheby_on_band_at_zero(BAND, m)
        rec = _cheb_t(m, _band_chi(BAND, 0.0))
        assert abs(closed - rec) <= 1e-10 * abs(rec)
    with pytest.raises(ParameterError):
        cheby_on_band_at_zero(SpectralBand(1.0, 1.0), 2)
    # a negative power would give T_1's value at m = -1
    with pytest.raises(ParameterError, match="order must be an integer >= 0"):
        cheby_on_band_at_zero(BAND, -1)
    # alpha < beta, but sqrt(beta/alpha) rounds to 1: the same error
    with pytest.raises(ParameterError, match="closed form requires alpha < beta"):
        cheby_on_band_at_zero(SpectralBand(1.0, 1.0000000000000002), 3)


def test_cheby_at_zero_magnitude_strictly_increases():
    rng = np.random.default_rng(21)
    for band in [BAND] + [_random_band(rng) for _ in range(5)]:
        mags = [abs(cheby_on_band_at_zero(band, m)) for m in range(1, 25)]
        assert all(b > a for a, b in zip(mags, mags[1:]))


def test_closed_rate_lagrange():
    for m, expected in CLOSED_LAGRANGE.items():
        assert abs(closed_rate_lagrange(BAND, m) - expected) <= 1e-14
    assert abs(closed_rate_lagrange(BAND, 1) - 12.6 / 13.0) <= 1e-15
    assert closed_rate_lagrange(SpectralBand(2.0, 2.0), 4) == 0.0
    assert 0.0 < closed_rate_lagrange(BAND, 30) < 1.0
    # the empty product would read 1.0, the rate of zero steps
    with pytest.raises(ParameterError, match="period must be an integer >= 1"):
        closed_rate_lagrange(BAND, 0)


def test_closed_rate_chebyshev():
    for m, expected in CLOSED_CHEBYSHEV.items():
        assert abs(closed_rate_chebyshev(BAND, m) - expected) <= 1e-14
    rates = [closed_rate_chebyshev(BAND, m) for m in range(1, 25)]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    assert all(0.0 < r < 1.0 for r in rates)
    with pytest.raises(ParameterError):
        closed_rate_chebyshev(SpectralBand(1.0, 1.0), 2)
    # 1/|T_0| would read 1.0, the rate of zero steps
    with pytest.raises(ParameterError, match="period must be an integer >= 1"):
        closed_rate_chebyshev(BAND, 0)


def test_closed_rate_chebyshev_underflows_to_zero():
    assert closed_rate_chebyshev(SpectralBand(1.0, 1.0 + 1e-9), 40000) == 0.0


def test_cheby_closed_form_past_the_float_range_is_its_limit():
    # beta/alpha overflows to inf; the value is the limit +/-1 that every
    # sqrt(beta/alpha) from 2**54 on gives (1e-150..1e150), not NaN
    for band in (SpectralBand(1e-300, 1e300), SpectralBand(0.2, 1e308),
                 SpectralBand(5e-324, 1.0), SpectralBand(1e-150, 1e150)):
        for m in (1, 2, 5, 400):
            assert cheby_on_band_at_zero(band, m) == (-1.0) ** m
            assert closed_rate_chebyshev(band, m) == 1.0


def test_closed_rate_constant():
    for m, expected in CLOSED_CONSTANT.items():
        assert abs(closed_rate_constant(BAND, m) - expected) <= 1e-14
    assert closed_rate_constant(SpectralBand(1.0, 1.0), 3) == 0.0
    # x ** 0 would read 1.0, the rate of zero steps
    with pytest.raises(ParameterError, match="period must be an integer >= 1"):
        closed_rate_constant(BAND, 0)


def test_lagrange_and_constant_closed_forms_are_scale_free():
    # a power-of-two scale of the band keeps every bit, from alpha in the
    # least normal binade to beta in the top one, where alpha + beta or
    # (M + 1)·alpha overflow
    for alpha, beta in ((0.2, 12.8), (1.0, 1.5), (1e-300, 1e-290), (3.0, 3.0000000000000004)):
        for k in (-1021 - math.frexp(alpha)[1], -1, 1, 1024 - math.frexp(beta)[1]):
            scaled = SpectralBand(math.ldexp(alpha, k), math.ldexp(beta, k))
            for m in (1, 2, 5, 16):
                for rate in (closed_rate_lagrange, closed_rate_constant):
                    assert rate(scaled, m) == rate(SpectralBand(alpha, beta), m)


def test_band_designs_are_scale_free():
    # a power-of-two scale of the band scales every gain by its inverse, bit
    # for bit while the gains stay normal floats: from alpha in the least
    # normal binade to beta in the top but two, where alpha + beta, the
    # Chebyshev center or (beta - alpha)·M overflow
    for alpha, beta in ((0.2, 12.8), (1.0, 1.5), (1e-300, 1e-290), (3.0, 3.0000000000000004)):
        band = SpectralBand(alpha, beta)
        for k in (-1021 - math.frexp(alpha)[1], -1, 1, 1021 - math.frexp(beta)[1]):
            scaled = SpectralBand(math.ldexp(alpha, k), math.ldexp(beta, k))
            pairs = [(design_constant(scaled), design_constant(band))]
            for m in (1, 2, 5, 16):
                pairs += [(design_lagrange(scaled, m), design_lagrange(band, m)),
                          (design_chebyshev(scaled, m), design_chebyshev(band, m))]
            for big, unit in pairs:
                assert big.gains == tuple(math.ldexp(g, -k) for g in unit.gains), (k, big.method)


def test_rate_ordering_dominance():
    rng = np.random.default_rng(17)
    for band in [BAND] + [_random_band(rng) for _ in range(10)]:
        for m in range(1, 11):
            cheb = closed_rate_chebyshev(band, m)
            lag = closed_rate_lagrange(band, m)
            const = closed_rate_constant(band, m)
            if m == 1:
                assert abs(cheb - lag) <= 1e-12 and abs(lag - const) <= 1e-12
            else:
                assert cheb < lag < const


def test_chebyshev_filter_matches_normalized_polynomial():
    rng = np.random.default_rng(5)
    for band in [BAND] + [_random_band(rng) for _ in range(5)]:
        for m in range(1, 9):
            seq = design_chebyshev(band, m)
            denom = cheby_on_band_at_zero(band, m)
            for lam in np.linspace(band.alpha, band.beta, 41):
                expected = _cheb_t(m, _band_chi(band, lam)) / denom
                assert abs(eval_filter(seq, lam, m) - expected) <= 1e-9


def test_chebyshev_equioscillation():
    for m in range(1, 9):
        seq = design_chebyshev(BAND, m)
        gamma = closed_rate_chebyshev(BAND, m)
        signs = []
        for i in range(m + 1):
            lam = 6.3 * math.cos(i * math.pi / m) + 6.5
            value = eval_filter(seq, lam, m)
            assert abs(abs(value) - gamma) <= 1e-9
            signs.append(math.copysign(1.0, value))
        assert all(a == -b for a, b in zip(signs, signs[1:]))


def test_sequence_json_roundtrip(tmp_path):
    seq = design_chebyshev(BAND, 3)
    doc = sequence_to_dict(seq)
    assert doc["period"] == 3
    assert doc["method"] == "chebyshev"
    assert doc["band"] == [0.2, 12.8]
    back = sequence_from_dict(doc)
    assert back.gains == seq.gains
    assert back.band == seq.band
    runner = CliRunner()
    designed = runner.invoke(main, ["design", "--band", "0.2,12.8", "--method", "chebyshev",
                                    "-M", "3"], catch_exceptions=False)
    assert json.loads(designed.stdout) == doc
    path = tmp_path / "seq.json"
    path.write_bytes(designed.stdout_bytes)
    run = ["simulate", "--graph", "ws:40,4,0.3", "--seed", "5", "--steps", "12"]
    from_file = runner.invoke(main, run + ["--sequence", str(path)], catch_exceptions=False)
    from_method = runner.invoke(main, run + ["--band", "0.2,12.8", "--method", "chebyshev",
                                               "-M", "3"], catch_exceptions=False)
    assert from_file.exit_code == 0
    assert from_file.stdout == from_method.stdout
    with pytest.raises(ParameterError):
        sequence_from_dict({"period": 2, "gains": [0.5], "method": "custom", "band": None})


def test_sequence_from_dict_reads_numpy_numbers():
    doc = {"period": np.int64(2), "gains": [np.float64(0.5), np.float32(0.25)],
           "band": [np.float64(0.2), np.int64(13)]}
    seq = sequence_from_dict(doc)
    assert seq.gains == (0.5, 0.25)
    assert seq.band == SpectralBand(0.2, 13)


@pytest.mark.parametrize("doc,message", [
    ({"gains": [0.5], "band": [math.nan, 1.0]}, "band requires finite endpoints"),
    ({"gains": [0.5], "band": [1.0, math.inf]}, "band requires finite endpoints"),
    ({"gains": [0.5], "period": math.nan}, "the period is not the number of gains, 1"),
    ({"gains": [0.5], "period": math.inf}, "the period is not the number of gains, 1"),
])
def test_sequence_document_errors_echo_no_non_finite_value(doc, message):
    # the error names the rule, not the NaN or inf it was given
    with pytest.raises(ParameterError) as info:
        sequence_from_dict(doc)
    assert str(info.value).endswith(message)
    assert not re.search(r"nan|inf\b", str(info.value))
