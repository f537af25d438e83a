import dataclasses
import math
import warnings

import numpy as np
import pytest

from speccon import (
    ConnectivityError,
    ControlSequence,
    Graph,
    ParameterError,
    SpectralBand,
    build_graph,
    closed_rate_chebyshev,
    closed_rate_constant,
    closed_rate_lagrange,
    decaying_gain_residuals,
    design_chebyshev,
    design_constant,
    design_finite_time,
    design_lagrange,
    distinct_nonzero_eigenvalues,
    eval_filter,
    exact_rate,
    rate_on_eigenvalues,
    rates,
    spectral_state,
    spectrum,
    worst_case_rate,
)

BAND = SpectralBand(0.2, 12.8)
STAR12 = spectrum(build_graph("star", n=12))

# frozen: |h| evaluated at the star eigenvalues {1 (x10), 12}
STAR_LP3 = 0.5320607008798184
STAR_WO3 = 0.032707328721748995


def _random_band(rng):
    alpha = rng.uniform(0.05, 40.0)
    return SpectralBand(alpha, rng.uniform(alpha * 1.02 + 0.01, 100.0))


def _random_connected_spectrum(rng):
    n = int(rng.integers(5, 31))
    g = build_graph("random_connected", n=n, p=0.4, seed=int(rng.integers(2**32)))
    return spectrum(g)


def test_exact_rate_star12():
    lp = exact_rate(design_lagrange(BAND, 3), STAR12)
    assert abs(lp.exact_rate - STAR_LP3) <= 1e-12
    assert abs(lp.exact_rate - 0.5321) <= 5e-5
    assert abs(lp.argmax_eigenvalue - 1.0) <= 1e-9  # tie with lambda=12 resolved low
    wo = exact_rate(design_chebyshev(BAND, 3), STAR12)
    assert abs(wo.exact_rate - STAR_WO3) <= 1e-12


def test_exact_rate_finite_time_is_zero():
    for family, kwargs in [("star", dict(n=12)), ("cycle", dict(n=12)), ("path", dict(n=6))]:
        s = spectrum(build_graph(family, **kwargs))
        seq = design_finite_time(distinct_nonzero_eigenvalues(s))
        assert exact_rate(seq, s).exact_rate <= 1e-10


def test_exact_rate_requires_connected():
    two_components = Graph(4, [0, 2], [1, 3], [1.0, 1.0])  # edges (0, 1) and (2, 3)
    with pytest.raises(ConnectivityError):
        exact_rate(design_constant(BAND), spectrum(two_components))


def test_worst_case_matches_closed_forms_at_reference_band():
    assert abs(worst_case_rate(design_chebyshev(BAND, 4), BAND)
               - 0.6454607582201595) <= 1e-9
    assert abs(worst_case_rate(design_lagrange(BAND, 4), BAND)
               - 0.8512524559420962) <= 1e-9
    assert abs(worst_case_rate(design_constant(BAND), BAND, steps=3)
               - 0.9105034137460176) <= 1e-9
    # h over no step is 1 at both band ends: the rate would read 1.0
    with pytest.raises(ParameterError, match="steps must be >= 1"):
        worst_case_rate(design_constant(BAND), BAND, 0)


def test_worst_case_matches_closed_forms_random_bands():
    rng = np.random.default_rng(29)
    for _ in range(20):
        band = _random_band(rng)
        for m in range(1, 9):
            assert abs(worst_case_rate(design_lagrange(band, m), band)
                       - closed_rate_lagrange(band, m)) <= 1e-6
            assert abs(worst_case_rate(design_chebyshev(band, m), band)
                       - closed_rate_chebyshev(band, m)) <= 1e-6
            assert abs(worst_case_rate(design_constant(band), band, steps=m)
                       - closed_rate_constant(band, m)) <= 1e-6


def test_worst_case_rate_bisects_near_the_float_range_without_a_warning():
    # Chebyshev roots near 1e308: two of them sum past the float range, so the
    # bisection halves before it adds
    band = SpectralBand(0.2, 1e308)
    for m in (2, 5):
        assert abs(worst_case_rate(design_chebyshev(band, m), band) - 1.0) <= 1e-14


def test_worst_case_is_attained_in_band_and_bounds_dense_grid(monkeypatch):
    """Repeated roots, roots outside the band, steps that are not a multiple of
    the period, and two roots one ulp apart."""
    rng = np.random.default_rng(47)
    cases = [(ControlSequence(tuple(1.0 / r for r in [3.0, np.nextafter(3.0, 10.0), 5.0])),
              SpectralBand(1.0, 6.0), 3)]
    for _ in range(40):
        band = _random_band(rng)
        roots = rng.uniform(0.5 * band.alpha, 1.3 * band.beta, int(rng.integers(2, 9)))
        roots[1] = roots[0]
        cases.append((ControlSequence(tuple(1.0 / r for r in roots)), band,
                      int(rng.integers(1, 3 * roots.size + 1))))
    evaluated = []
    monkeypatch.setattr(rates, "eval_filter", lambda seq, lam, steps: (
        evaluated.append(np.asarray(lam)) or eval_filter(seq, lam, steps)))
    for seq, band, steps in cases:
        evaluated.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma = worst_case_rate(seq, band, steps)
        points = np.concatenate(evaluated)
        assert np.all((band.alpha <= points) & (points <= band.beta))
        assert points.size <= 1 + len({1.0 / seq.gain_at(k) for k in range(steps)})
        assert gamma == np.abs(eval_filter(seq, points, steps)).max()
        grid = np.linspace(band.alpha, band.beta, 200001)
        assert gamma >= np.abs(eval_filter(seq, grid, steps)).max() * (1.0 - 1e-12)


def test_lagrange_attains_worst_case_at_band_edges():
    rng = np.random.default_rng(31)
    for band in [BAND] + [_random_band(rng) for _ in range(5)]:
        for m in range(1, 9):
            seq = design_lagrange(band, m)
            gamma = closed_rate_lagrange(band, m)
            assert abs(abs(eval_filter(seq, band.alpha, m)) - gamma) <= 1e-9
            assert abs(abs(eval_filter(seq, band.beta, m)) - gamma) <= 1e-9


def test_perturbing_any_chebyshev_root_increases_worst_case():
    for m in (2, 3):
        base = design_chebyshev(BAND, m)
        gamma = worst_case_rate(base, BAND)
        for i in range(m):
            for factor in (0.99, 1.01):
                roots = list(base.roots)
                roots[i] *= factor
                perturbed = ControlSequence(tuple(1.0 / r for r in roots), "custom", BAND)
                assert worst_case_rate(perturbed, BAND) > gamma


def test_rates_invariant_under_gain_permutation():
    rng = np.random.default_rng(41)
    seq = design_chebyshev(BAND, 5)
    base_exact = exact_rate(seq, STAR12).exact_rate
    base_worst = worst_case_rate(seq, BAND)
    for _ in range(5):
        gains = tuple(rng.permutation(seq.gains))
        shuffled = ControlSequence(gains, "custom", BAND)
        assert abs(exact_rate(shuffled, STAR12).exact_rate - base_exact) <= 1e-12
        assert abs(worst_case_rate(shuffled, BAND) - base_worst) <= 1e-12


def test_report_carries_band_worst_case():
    # a report is its numbers; the band's worst case is worst_case_rate's
    report = exact_rate(design_chebyshev(BAND, 3), STAR12)
    assert [f.name for f in dataclasses.fields(report)] == ["exact_rate", "argmax_eigenvalue"]
    assert report.exact_rate == abs(eval_filter(design_chebyshev(BAND, 3),
                                                report.argmax_eigenvalue, 3))


def test_exact_below_worst_case_for_in_band_spectra():
    rng = np.random.default_rng(43)
    for _ in range(10):
        s = _random_connected_spectrum(rng)
        band = SpectralBand(s.lambda_2 * 0.9, s.lambda_max * 1.1)
        for seq, steps in [(design_lagrange(band, 4), 4),
                           (design_chebyshev(band, 4), 4),
                           (design_constant(band), 4)]:
            report = rate_on_eigenvalues(seq, s.eigenvalues[1:], steps=steps)
            assert report.exact_rate <= worst_case_rate(seq, band, steps) + 1e-9
    # h(lambda, 0) = h(0, T) = 1: either would read as a rate of 1.0
    with pytest.raises(ParameterError, match="steps must be >= 1"):
        rate_on_eigenvalues(design_constant(BAND), [1.0, 2.0], steps=0)
    with pytest.raises(ParameterError, match="eigenvalues must be positive"):
        rate_on_eigenvalues(design_constant(BAND), [0.0, 1.0])


def test_chebyshev_per_step_rate_approaches_limit():
    s = math.sqrt(BAND.beta / BAND.alpha)
    limit = (s - 1.0) / (s + 1.0)
    per_step = [closed_rate_chebyshev(BAND, m) ** (1.0 / m) for m in range(1, 21)]
    assert all(b < a for a, b in zip(per_step, per_step[1:]))
    assert per_step[-1] / limit <= 1.05
    assert per_step[-1] >= limit


def test_check_finite_time():
    # finite-time reach in K steps is an exact rate of zero at K steps
    seq = design_finite_time(distinct_nonzero_eigenvalues(STAR12))
    assert exact_rate(seq, STAR12, steps=2).exact_rate <= 1e-10
    cyc = spectrum(build_graph("cycle", n=12))
    seq6 = design_finite_time(distinct_nonzero_eigenvalues(cyc))
    assert seq6.period == 6
    assert exact_rate(seq6, cyc, steps=6).exact_rate <= 1e-10
    constant = ControlSequence((1.0 / 6.5,))
    assert exact_rate(constant, STAR12, steps=10).exact_rate >= (1.0 - 1.0 / 6.5) ** 10 - 1e-12


def test_decaying_gain_residuals_contracts():
    c3 = spectrum(build_graph("complete", n=3))
    assert decaying_gain_residuals("harmonic", c3, 0).tolist() == [1.0]
    assert decaying_gain_residuals("harmonic", c3, 100)[-1] <= 1e-2

    star = spectrum(build_graph("star", n=12))
    harmonic = decaying_gain_residuals("harmonic", star, 2000)
    positive = harmonic > 0.0
    assert np.all(np.diff(harmonic)[positive[:-1]] < 0.0)
    assert harmonic[-1] < harmonic[100] < harmonic[0]

    summable = decaying_gain_residuals("summable", star, 10000)
    assert summable[-1] > 0.5 * summable[5000]
    assert abs(summable[10000] - summable[1000]) <= 0.01 * summable[1000]
    with pytest.raises(ParameterError):
        decaying_gain_residuals("linear", star, 10)
    # an envelope of no entry: numpy's IndexError or ValueError otherwise
    with pytest.raises(ParameterError, match="horizon must be non-negative"):
        decaying_gain_residuals("harmonic", star, -1)


def test_spectral_state_validates_shape():
    with pytest.raises(ParameterError):
        spectral_state(STAR12, design_constant(BAND), np.ones(5), 3)
    values_only = spectrum(build_graph("star", n=12), vectors=False)
    with pytest.raises(ParameterError):
        spectral_state(values_only, design_constant(BAND), np.ones(12), 3)


@pytest.mark.parametrize("band", [SpectralBand(1e-6, 1.0), SpectralBand(0.2, 12.8)])
def test_round_off_dominated_chebyshev_designs_do_not_peak_at_beta(band):
    # At M = 1000 the interior maxima of |h| are round-off, far above |h(beta)|.
    # From the two ends alone, sweep --nodes 600 --edge-prob 0.04 --trials 2
    # --seed 1 -M 1000 prints rho_chebyshev 0.263 on [1e-6, 1], where the dense
    # path prints 4215.5, and every row on [0.2, 12.8], where the dense path
    # refuses one: this check is what sends such a run to the dense path.
    assert not rates._peaks_at_beta(design_chebyshev(band, 1000), band, 600, 1000)
