import json
import math

import numpy as np
import pytest

from speccon import (
    ControlSequence,
    ParameterError,
    SpectralBand,
    cheby_on_band,
    cheby_on_band_at_zero,
    cheby_t,
    closed_rate_chebyshev,
    closed_rate_constant,
    closed_rate_lagrange,
    design_chebyshev,
    design_constant,
    design_finite_time,
    design_lagrange,
    design_uniform_unknown,
    eval_filter,
    load_sequence,
    save_sequence,
    sequence_from_dict,
    sequence_to_dict,
)

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
    seq = ControlSequence((0.5, 0.25))
    assert seq.period == 2
    assert seq.roots == (2.0, 4.0)
    assert ControlSequence.from_roots((2.0, 4.0)).gains == (0.5, 0.25)


def test_eval_filter_normalization_and_annihilation():
    seq = ControlSequence((0.3, 0.07, 1.1))
    for steps in (0, 1, 5, 17):
        assert eval_filter(seq, 0.0, steps) == 1.0
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
    with pytest.raises(ParameterError):
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


def test_design_chebyshev():
    seq = design_chebyshev(BAND, 3)
    assert np.allclose(seq.roots, (11.955960043841966, 6.5, 1.0440399561580351), atol=1e-12)
    assert np.allclose(seq.roots, (11.956, 6.5, 1.044), atol=5e-4)
    assert design_chebyshev(BAND, 1).roots == (6.5,)
    assert np.allclose(design_chebyshev(SpectralBand(1.0, 9.0), 2).roots,
                       (7.82842712474619, 2.17157287525381), atol=1e-12)
    with pytest.raises(ParameterError):
        design_chebyshev(SpectralBand(3.0, 3.0), 2)


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
    with pytest.raises(ParameterError):
        design_uniform_unknown(13.0, 0)


def test_cheby_t_examples_and_trig_oracle():
    assert cheby_t(2, 0.5) == -0.5
    assert cheby_t(4, 1.0) == 1.0
    assert abs(cheby_t(3, math.cos(math.pi / 6))) <= 1e-15
    grid = np.linspace(-1.0, 1.0, 1001)
    for m in range(13):
        recursion = np.array([cheby_t(m, x) for x in grid])
        trig = np.cos(m * np.arccos(grid))
        assert np.abs(recursion - trig).max() <= 1e-10
    with pytest.raises(ParameterError):
        cheby_t(3, 1.1)
    with pytest.raises(ParameterError):
        cheby_t(-1, 0.0)


def test_cheby_on_band():
    assert abs(cheby_on_band(BAND, 1, 0.2) + 1.0) <= 1e-12
    for m in (0, 1, 2, 5, 9):
        assert abs(cheby_on_band(BAND, m, 12.8) - 1.0) <= 1e-12
    assert abs(cheby_on_band(BAND, 2, 6.5) + 1.0) <= 1e-12
    with pytest.raises(ParameterError):
        cheby_on_band(SpectralBand(2.0, 2.0), 3, 1.0)
    # agrees with the plain polynomial after the affine change of variable
    rng = np.random.default_rng(8)
    for _ in range(50):
        lam = rng.uniform(0.2, 12.8)
        chi = (2 * lam - 13.0) / 12.6
        for m in range(9):
            assert abs(cheby_on_band(BAND, m, lam) - cheby_t(m, chi)) <= 1e-12


def _g_zero_by_recursion(band, m):
    ratio = -(band.beta + band.alpha) / (band.beta - band.alpha)
    if m == 0:
        return 1.0
    prev, cur = 1.0, ratio
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * ratio * cur - prev
    return cur


def test_cheby_on_band_at_zero_closed_form():
    assert cheby_on_band_at_zero(BAND, 0) == 1.0
    assert abs(cheby_on_band_at_zero(BAND, 1) - (-13.0 / 12.6)) <= 1e-15
    assert abs(cheby_on_band_at_zero(BAND, 2) - 1.1289997480473672) <= 1e-12
    for m in range(31):
        closed = cheby_on_band_at_zero(BAND, m)
        rec = _g_zero_by_recursion(BAND, m)
        assert abs(closed - rec) <= 1e-10 * abs(rec)
    with pytest.raises(ParameterError):
        cheby_on_band_at_zero(SpectralBand(1.0, 1.0), 2)


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


def test_closed_rate_chebyshev():
    for m, expected in CLOSED_CHEBYSHEV.items():
        assert abs(closed_rate_chebyshev(BAND, m) - expected) <= 1e-14
    rates = [closed_rate_chebyshev(BAND, m) for m in range(1, 25)]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    assert all(0.0 < r < 1.0 for r in rates)
    with pytest.raises(ParameterError):
        closed_rate_chebyshev(SpectralBand(1.0, 1.0), 2)


def test_closed_rate_chebyshev_underflows_to_zero():
    assert closed_rate_chebyshev(SpectralBand(1.0, 1.0 + 1e-9), 40000) == 0.0


def test_closed_rate_constant():
    for m, expected in CLOSED_CONSTANT.items():
        assert abs(closed_rate_constant(BAND, m) - expected) <= 1e-14
    assert closed_rate_constant(SpectralBand(1.0, 1.0), 3) == 0.0


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
                expected = cheby_on_band(band, m, lam) / denom
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
    path = tmp_path / "seq.json"
    save_sequence(seq, path)
    assert load_sequence(path).gains == seq.gains
    assert json.loads(path.read_text())["period"] == 3
    with pytest.raises(ParameterError):
        sequence_from_dict({"period": 2, "gains": [0.5], "method": "custom", "band": None})
