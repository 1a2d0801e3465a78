"""Spectrum of the linearization about zero."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from shbif.dynamics import Params, step
from shbif.errors import BandTooSmall
from shbif.linear_analysis import (
    coarse_domain,
    eigenfunction,
    growth_array,
    growth_rate,
    principal,
)
from shbif.spectral import Domain, Mode


def test_growth_rate_hand_values():
    d = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)
    # (1 - (pi/(pi/2))^2)^2 = 9
    assert_allclose(growth_rate(d, 1, 9.5), 0.5, rtol=1e-14)
    dp = Domain.make(2, 2 * math.pi, "periodic", grid_n=16, band=4)
    assert_allclose(growth_rate(dp, ("sin", (1, 1)), 0.0), -1.0, rtol=1e-14)
    # a raw integer wavevector names its sine mode, of either sign
    assert growth_rate(dp, (1, 1), 0.0) == growth_rate(dp, ("sin", (-1, -1)), 0.0)


def test_growth_zero_at_critical():
    for d in (Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16),
              Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=16, band=4)):
        s = principal(d)
        for m in s.critical_modes:
            assert abs(growth_rate(d, m, s.lambda_c)) <= 1e-12


def test_principal_dirichlet_unit():
    s = principal(Domain.make(1, math.pi, "dirichlet", grid_n=64, band=16))
    assert s.lambda_c == 0.0
    assert s.critical_modes == (Mode("sin", (1,)),)
    assert s.multiplicity == 1


def test_principal_dirichlet_second_mode_wins():
    # L = 5 pi / 2: P(4/5) = (9/25)^2 beats P(2/5) and P(6/5)
    s = principal(Domain.make(1, 5 * math.pi / 2, "dirichlet", grid_n=64, band=16))
    assert_allclose(s.lambda_c, (9 / 25) ** 2, rtol=1e-12)
    assert s.critical_modes == (Mode("sin", (2,)),)


def test_principal_periodic_2d_multiplicity():
    s = principal(Domain.make(2, 2 * math.pi, "periodic", grid_n=16, band=4))
    assert s.lambda_c == 0.0
    assert s.multiplicity == 4
    ks = {m.k for m in s.critical_modes}
    assert ks == {(1, 0), (0, 1)}
    kinds = sorted(m.kind for m in s.critical_modes)
    assert kinds == ["cos", "cos", "sin", "sin"]


def test_periodic_multiplicity_doubles_odd():
    for dim in (1, 2, 3):
        grid = {1: 64, 2: 16, 3: 8}[dim]
        band = {1: 16, 2: 4, 3: 2}[dim]
        so = principal(Domain.make(dim, 2 * math.pi, "odd-periodic",
                                   grid_n=grid, band=band))
        sp = principal(Domain.make(dim, 2 * math.pi, "periodic",
                                   grid_n=grid, band=band))
        assert sp.multiplicity == 2 * so.multiplicity == 2 * dim


def test_sign_structure_at_critical():
    d = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)
    s = principal(d)
    betas = growth_array(d, s.lambda_c)
    crit = {m.k[0] - 1 for m in s.critical_modes}
    for i, b in enumerate(betas):
        if i in crit:
            assert abs(b) <= 1e-12
        else:
            assert b < -1e-6


def test_eigenfunction_norm_and_symbol():
    d = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=16, band=4)
    f = eigenfunction(d, ("sin", (1, 0)))
    assert_allclose(f.norm(), 1.0, rtol=1e-14)
    # -(I+Lap)^2 phi + lam phi = beta phi exactly, mode by mode
    lam = 0.37
    g = growth_array(d, lam) * f.data
    b = growth_rate(d, ("sin", (1, 0)), lam)
    assert np.max(np.abs(g - b * f.data)) <= 1e-14


def test_linear_flow_matches_exponential():
    d = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)
    lam = 9.5
    b = growth_rate(d, 1, lam)
    # at amplitude 1e-8 the cubic term is 1e-16 of the linear one
    amp = 1e-8
    u = amp * eigenfunction(d, 1)
    dt = 1e-3
    for _ in range(1000):
        u = step(u, Params(lam), dt)
    assert_allclose(u.coeff(1) / amp, math.exp(b * 1.0), rtol=1e-10)


def test_dirichlet_lambda_c_vs_brute_force(rng):
    n = np.arange(1, 10**6 + 1, dtype=float)
    for _ in range(50):
        L = float(rng.uniform(0.5, 40.0))
        d = Domain.make(1, L, "dirichlet", grid_n=128, band=32)
        got = principal(d).lambda_c
        brute = float(np.min((1.0 - (n * math.pi / L) ** 2) ** 2))
        assert_allclose(got, brute, rtol=0, atol=1e-12)


def _brute_force_principal(d, shells):
    """(lambda_c, half-lattice minimizers) of (1-|kappa|^2)^2 over a box
    `shells` wider than the band, checked to hold every competing mode."""
    axes = [np.arange(-(b + shells), b + shells + 1) for b in d.band]
    k = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    k = k[k[np.arange(len(k)), np.argmax(k != 0, axis=1)] > 0]
    h = 2 * math.pi / np.asarray(d.length)
    vals = (1.0 - np.sum((k * h) ** 2, axis=1)) ** 2
    lam_c = float(vals.min())
    # a mode beating lam_c has |kappa|^2 <= 1 + sqrt(lam_c): the box holds them all
    assert np.all((np.asarray(d.band) + shells) * h > math.sqrt(1 + math.sqrt(lam_c)))
    return lam_c, sorted(map(tuple, k[vals <= lam_c + 1e-12 * (1 + lam_c)].tolist()))


def _assert_principal_matches_brute_force(d, shells=12):
    lam_c, winners = _brute_force_principal(d, shells)
    if any(abs(ki) > b for k in winners for ki, b in zip(k, d.band)):
        with pytest.raises(BandTooSmall):
            principal(d)
        return
    s = principal(d)
    assert_allclose(s.lambda_c, lam_c, rtol=0, atol=1e-12)
    kinds = ("sin", "cos") if d.bc.value == "periodic" else ("sin",)
    assert s.critical_modes == tuple(Mode(kind, k) for k in winners for kind in kinds)


@pytest.mark.parametrize("bc", ["odd-periodic", "periodic"])
@pytest.mark.parametrize("length,grid,band,ties,too_small", [
    ((2 * math.pi,) * 2, 16, (4, 4), 2, False),  # (1,0) and (0,1)
    ((2 * math.pi, 4 * math.pi), 32, (4, 8), 2, False),  # (1,0) and (0,2)
    ((7.3, 11.9), 32, (5, 8), 2, False),  # (1,1) and (1,-1)
    ((2 * math.pi,) * 3, 8, (2, 2, 2), 3, False),
    ((2 * math.pi, 4 * math.pi, 6 * math.pi), 16, (3, 6, 7), 3, False),
    # (0,5) ties (1,0) outside the band, beyond the first shell past it
    ((2 * math.pi, 10 * math.pi), 16, (4, 2), None, True),
    ((2 * math.pi, 2 * math.pi, 10 * math.pi), 16, (4, 2, 2), None, True),
    # (10,5) beats (7,8), the best mode within one shell of the band
    ((71.6307351524517, 64.29711122657748), 32, (7, 11), None, True),
    ((60.0,) * 3, 8, (3, 3, 3), None, True),
])
def test_principal_vs_brute_force(bc, length, grid, band, ties, too_small):
    d = Domain.make(len(length), length, bc, grid_n=grid, band=band)
    _assert_principal_matches_brute_force(d)
    if too_small:
        with pytest.raises(BandTooSmall):
            principal(d)
    else:
        assert len({m.k for m in principal(d).critical_modes}) == ties


def test_principal_vs_brute_force_random_boxes(rng):
    for _ in range(40):
        dim = int(rng.integers(2, 4))
        grid = {2: 32, 3: 16}[dim]
        band = tuple(int(b) for b in rng.integers(1, 7, size=dim))
        length = tuple(float(v) for v in rng.uniform(3.0, 40.0, size=dim))
        bc = ("odd-periodic", "periodic")[int(rng.integers(0, 2))]
        _assert_principal_matches_brute_force(Domain.make(dim, length, bc, grid_n=grid,
                                                          band=band))


def test_band_too_small():
    with pytest.raises(BandTooSmall):
        principal(Domain.make(1, 300.0, "dirichlet", grid_n=64, band=16))
    with pytest.raises(BandTooSmall):
        principal(Domain.make(1, 100.0, "periodic", grid_n=32, band=8))


def test_degenerate_length_reported():
    # P(pi/L) = P(2 pi/L) when L = pi sqrt(5/2)
    L = math.pi * math.sqrt(5 / 2)
    s = principal(Domain.make(1, L, "dirichlet", grid_n=64, band=16))
    assert s.degenerate
    assert {m.k[0] for m in s.critical_modes} == {1, 2}


@settings(max_examples=30, deadline=None)
@given(hst.floats(min_value=-0.5, max_value=0.5, allow_nan=False))
def test_criticality_sign(delta):
    d = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)
    s = principal(d)
    b = growth_rate(d, s.critical_modes[0], s.lambda_c + delta)
    assert b == pytest.approx(delta, abs=1e-12)


@pytest.mark.parametrize("length,band,want", [
    # K_c = 1: ceil(b / 4), at least 8, per axis
    (2 * math.pi, (64, 64), (16, 16)), (2 * math.pi, (16, 16), (8, 8)),
    (2 * math.pi, (8, 8), None), (2 * math.pi, (64, 8), (16, 8)),
    (2 * math.pi, (6, 40), (6, 10)),
    # K_c = 2 and 4: the band keeps 8 K_c
    (4 * math.pi, (32, 32), (16, 16)), (8 * math.pi, (64, 32), (32, 32)),
    (8 * math.pi, (32, 32), None),
    # K_c = (1, 4) on a 2 pi x 8 pi box
    ((2 * math.pi, 8 * math.pi), (64, 64), (16, 32)),
])
def test_coarse_domain_band_rule(length, band, want):
    d = Domain.make(2, length, "odd-periodic", grid_n=256, band=band)
    c = coarse_domain(d)
    assert c == (None if want is None else Domain(d.dim, d.length, d.bc, d.grid_n, want))


@pytest.mark.parametrize("band,want", [(48, None), (20, None), (128, 104), (12, None)])
def test_coarse_domain_keeps_the_long_dirichlet_critical_shell(band, want):
    # L = 40: the critical mode is n = 13, so the coarse band keeps 8 * 13;
    # at band 12 that mode lies outside the band and nothing is coarsened
    d = Domain.make(1, 40.0, "dirichlet", grid_n=256, band=band)
    c = coarse_domain(d)
    assert c == (None if want is None else Domain(d.dim, d.length, d.bc, d.grid_n, (want,)))
