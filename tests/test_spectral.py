"""Representation layer: transforms, products, inner products, export."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from shbif import linear_analysis, oracles, spectral
from shbif.dynamics import Params
from shbif.errors import DomainMismatch
from shbif.harness import write_csv_1d, write_pgm_2d
from shbif.linear_analysis import growth_array
from shbif.spectral import (
    Domain,
    GridField,
    Mode,
    SpectralField,
    _product_maps,
    cube,
    grid_coords,
    inner,
    max_translation_inner,
    multiply,
    random_field,
    resample,
    square,
    to_grid,
    to_spectral,
    translate,
    triple,
)
from shbif.steady import jacobian_apply

D_DIR = Domain.make(1, math.pi, "dirichlet", grid_n=64, band=16)
D_DIR_HALF = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)
ALL_DOMAINS = [
    D_DIR,
    Domain.make(1, 2 * math.pi, "odd-periodic", grid_n=64, band=16),
    Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=16, band=4),
    Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16),
    # odd-periodic products run on the parity half of the product grid: 9^3
    # points (an odd first-axis length and a middle axis), and 9 x 18 points
    Domain.make(3, 2 * math.pi, "odd-periodic", grid_n=8, band=2),
    Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=(8, 16), band=(2, 4)),
    Domain.make(2, 5.0, "periodic", grid_n=16, band=4),
    Domain.make(3, 2 * math.pi, "periodic", grid_n=8, band=2),
]


def _domain_id(d):
    bands = "" if len(set(d.band)) == 1 else "-band" + "x".join(map(str, d.band))
    return f"{d.bc.value}-{d.dim}d{bands}"


def test_single_mode_synthesis():
    f = SpectralField.from_modes(D_DIR, {1: 1.0})
    g = to_grid(f)
    x = grid_coords(D_DIR)[0]
    assert_allclose(g.values, math.sqrt(2 / math.pi) * np.sin(x), atol=1e-14)


def test_zero_field_transforms():
    f = SpectralField.zeros(D_DIR)
    assert np.all(to_grid(f).values == 0)
    assert to_spectral(to_grid(f)).norm() == 0.0
    assert np.all(cube(f).data == 0)


@pytest.mark.parametrize("domain", ALL_DOMAINS, ids=_domain_id)
def test_roundtrip_random_fields(domain, rng):
    for _ in range(10):
        f = random_field(domain, rng, 1.0, smooth=False)
        g = to_spectral(to_grid(f))
        assert np.max(np.abs(g.data - f.data)) <= 1e-12 * max(1.0, f.norm())


@pytest.mark.parametrize("domain", ALL_DOMAINS, ids=_domain_id)
def test_parseval(domain, rng):
    f = random_field(domain, rng, 1.0, smooth=False)
    assert abs(to_grid(f).norm() - f.norm()) <= 1e-10


def test_cube_sine_identity():
    # a sin(x) cubed: (3 a^3/4) sin(x) - (a^3/4) sin(3x)
    a = 1.3
    s = math.sqrt(2 / math.pi)
    f = SpectralField.from_modes(D_DIR, {1: a / s})
    c = cube(f)
    assert_allclose(c.coeff(1) * s, 3 * a**3 / 4, rtol=1e-13)
    assert_allclose(c.coeff(3) * s, -(a**3) / 4, rtol=1e-13)
    rest = [v for m, v in c.modes(1e-13).items() if m.k[0] not in (1, 3)]
    assert rest == []


@settings(max_examples=25, deadline=None)
@given(hst.data())
def test_cube_matches_convolution_oracle(data):
    domain = data.draw(hst.sampled_from(ALL_DOMAINS[:4]))
    probe = random_field(domain, np.random.default_rng(0), 1.0, smooth=False)
    modes = list(probe.modes(tol=-1.0).keys())
    chosen = data.draw(hst.lists(hst.sampled_from(modes), min_size=1, max_size=5,
                                 unique=True))
    amps = data.draw(hst.lists(
        hst.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=len(chosen), max_size=len(chosen)))
    f = SpectralField.from_modes(domain, dict(zip(chosen, amps)))
    assert oracles.compare_coeffs(cube(f), oracles.cube_oracle(f)) <= 1e-12


def _band_edge_field(domain, rng):
    """Unit-norm field on the modes with some |k_i| equal to the band."""
    probe = random_field(domain, rng, 1.0, smooth=False)
    edge = [m for m in probe.modes(tol=-1.0)
            if any(abs(k) == b for k, b in zip(m.k, domain.band))]
    f = SpectralField.from_modes(domain, {m: rng.uniform(-1.0, 1.0) for m in edge})
    return f * (1.0 / f.norm())


def _triple_oracle(f, g, h):
    rep = oracles.conv(oracles.conv(oracles.exp_rep(f), oracles.exp_rep(g)),
                       oracles.exp_rep(h))
    return oracles.rep_to_coeffs(rep, f.domain)


@pytest.mark.parametrize("domain", ALL_DOMAINS, ids=_domain_id)
def test_products_exact_at_band_edge(domain, rng):
    # cubic content of band-edge modes reaches 3 x band, the most the
    # product grid must keep from aliasing back onto the band
    f, g, h = (_band_edge_field(domain, rng) for _ in range(3))
    assert oracles.compare_coeffs(cube(f), oracles.cube_oracle(f)) <= 1e-12
    assert oracles.compare_coeffs(triple(f, g, h), _triple_oracle(f, g, h)) <= 1e-12
    sq = square(f)
    if domain.is_dirichlet:
        for n in range(1, domain.band[0] + 1):
            assert abs(sq.coeff(n) - oracles.square_quadrature_oracle(f, n)) <= 1e-12
    else:
        assert oracles.compare_coeffs(sq, oracles.square_oracle(f)) <= 1e-12


@pytest.mark.parametrize("domain", ALL_DOMAINS, ids=_domain_id)
def test_product_grid_depends_on_band_only(domain, rng):
    wide = Domain.make(domain.dim, domain.length, domain.bc,
                       grid_n=tuple(4 * n for n in domain.grid_n), band=domain.band)
    flat = random_field(domain, rng, 1.0, smooth=False).data
    a = cube(SpectralField(domain, flat)).data
    b = cube(SpectralField(wide, flat)).data
    assert np.array_equal(a, b)  # same product grid, so the same arithmetic


def _cube_on_fewer_points(f):
    """u^3 collocated on one point fewer per axis than the product grid bound."""
    d = f.domain
    if d.is_dirichlet:
        B, L = d.band[0], d.length[0]
        P = 2 * B - 1
        S = np.sin(np.outer(np.arange(1, P + 1), np.arange(1, B + 1)) * math.pi / (P + 1))
        s = math.sqrt(2.0 / L)
        u = S @ (f.data * s)
        return SpectralField(d, 2.0 / (P + 1) * (S.T @ u**3) / s)
    coarse = Domain.make(d.dim, d.length, d.bc, grid_n=tuple(4 * b for b in d.band),
                         band=d.band)
    u = to_grid(SpectralField(coarse, f.data)).values
    return SpectralField(d, to_spectral(GridField(coarse, u**3)).data)


@pytest.mark.parametrize("domain", ALL_DOMAINS, ids=_domain_id)
def test_product_grid_bound_is_tight(domain, rng):
    # 4b Fourier points (2b - 1 DST-I points) alias 3b content onto the band
    f = _band_edge_field(domain, rng)
    assert oracles.compare_coeffs(_cube_on_fewer_points(f), oracles.cube_oracle(f)) > 1e-6


@pytest.mark.parametrize("domain", ALL_DOMAINS, ids=_domain_id)
def test_product_maps_carry_batch_axes(domain, rng):
    # a (2, 3, n) stack of coefficient vectors maps member by member
    maps = [m for m in _product_maps(domain) if m is not None]
    x = np.stack([[random_field(domain, rng, 1.0, smooth=False).data for _ in range(3)]
                  for _ in range(2)])
    g = maps[0](x)
    assert g.shape[:2] == (2, 3)
    for i, j in np.ndindex(2, 3):
        assert_allclose(g[i, j], maps[0](x[i, j]), rtol=0, atol=1e-14 * np.abs(g).max())
        for project in maps[1:]:
            assert_allclose(project(g)[i, j], project(g[i, j]), rtol=0,
                            atol=1e-14 * np.abs(g).max())


@pytest.mark.parametrize("fine,band", [
    (Domain.make(1, math.pi, "dirichlet", grid_n=64, band=32), (8,)),
    (Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=(64, 32), band=(24, 12)), (8, 12)),
    (Domain.make(2, 5.0, "periodic", grid_n=64, band=(16, 20)), (8, 5)),
], ids=lambda v: _domain_id(v) if isinstance(v, Domain) else str(v))
def test_resample_is_exact_both_ways(fine, band, rng):
    coarse = Domain(fine.dim, fine.length, fine.bc, fine.grid_n, band)
    f = random_field(coarse, rng)
    up = SpectralField(fine, resample(f.data, coarse, fine))
    assert up.modes() == f.modes()  # each coefficient at its own mode, no others
    assert np.array_equal(resample(up.data, fine, coarse), f.data)
    g = random_field(fine, rng)
    down = SpectralField(coarse, resample(g.data, fine, coarse))
    assert down.modes() == {m: v for m, v in g.modes().items()
                            if all(abs(k) <= b for k, b in zip(m.k, coarse.band))}
    batch = np.stack([random_field(fine, rng).data for _ in range(3)])
    assert np.array_equal(resample(batch, fine, coarse),
                          np.stack([resample(x, fine, coarse) for x in batch]))
    with pytest.raises(DomainMismatch):
        resample(f.data, coarse, Domain.make(fine.dim, 7.0, fine.bc, fine.grid_n, fine.band))


def test_square_dirichlet_quadrature():
    # u = a sin(x) on (0, pi): even harmonics vanish, odd match quadrature
    a = 0.9
    s = math.sqrt(2 / math.pi)
    f = SpectralField.from_modes(D_DIR, {1: a / s})
    sq = square(f)
    assert abs(sq.coeff(2)) <= 1e-14
    assert abs(sq.coeff(4)) <= 1e-14
    for n in (1, 3, 5, 7):
        assert_allclose(sq.coeff(n), oracles.square_quadrature_oracle(f, n),
                        atol=1e-12)


def test_square_random_dirichlet_quadrature(rng):
    f = random_field(D_DIR_HALF, rng, 0.7, smooth=False)
    sq = square(f)
    for n in (1, 2, 3, 8):
        assert_allclose(sq.coeff(n), oracles.square_quadrature_oracle(f, n),
                        atol=1e-12)


def test_square_periodic_cos_identity():
    d = Domain.make(2, 2 * math.pi, "periodic", grid_n=32, band=8)
    f = SpectralField.from_modes(d, {("cos", (1, 0)): 1.0})
    sq = square(f)
    phys = math.sqrt(2 / d.volume)
    # cos^2 = 1/2 + cos(2 kappa x)/2 with the constant projected out
    assert_allclose(sq.coeff(("cos", (2, 0))) * phys, phys**2 / 2, rtol=1e-13)
    others = {m: v for m, v in sq.modes(1e-13).items() if m != Mode("cos", (2, 0))}
    assert others == {}


def test_square_odd_periodic_projects_to_zero(rng):
    d = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=16, band=4)
    f = random_field(d, rng, 1.0)
    assert np.max(np.abs(square(f).data)) == 0.0


def test_inner_orthonormality():
    f1 = SpectralField.from_modes(D_DIR, {1: 1.0})
    f2 = SpectralField.from_modes(D_DIR, {2: 1.0})
    assert_allclose(inner(f1, f1), 1.0, rtol=1e-14)
    assert abs(inner(f1, f2)) <= 1e-15


def test_inner_cube_value(inner_by_quadrature):
    # <phi1^3, phi1> = 3/(2L) = 3/pi at L = pi/2
    phi1 = SpectralField.from_modes(D_DIR_HALF, {1: 1.0})
    assert_allclose(inner(cube(phi1), phi1), 3 / math.pi, rtol=1e-13)
    ref = inner_by_quadrature(cube(phi1), phi1)
    assert_allclose(inner(cube(phi1), phi1), ref, rtol=1e-10)


def test_inner_domain_mismatch():
    f = SpectralField.from_modes(D_DIR, {1: 1.0})
    g = SpectralField.from_modes(D_DIR_HALF, {1: 1.0})
    with pytest.raises(DomainMismatch):
        inner(f, g)


def test_cube_odd_periodic_closure(rng):
    # cube of an odd-periodic field stays odd: antisymmetric grid values
    d = Domain.make(1, 2 * math.pi, "odd-periodic", grid_n=64, band=16)
    f = random_field(d, rng, 0.8)
    v = to_grid(cube(f)).values
    flipped = -np.concatenate(([v[0]], v[:0:-1]))  # u(-x) on the grid
    assert_allclose(v, flipped, atol=1e-13)


def test_multiply_bilinear(rng):
    d = Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16)
    f, g, h = (random_field(d, rng, 0.5) for _ in range(3))
    lhs = multiply(f + g, h)
    rhs = multiply(f, h) + multiply(g, h)
    assert np.max(np.abs(lhs.data - rhs.data)) <= 1e-13


def test_triple_matches_cube(rng):
    d = Domain.make(1, 2 * math.pi, "odd-periodic", grid_n=64, band=16)
    f = random_field(d, rng, 0.7)
    assert np.max(np.abs(triple(f, f, f).data - cube(f).data)) <= 1e-14


def test_products_exact_on_coarse_collocation_grid(rng):
    # products run on 2 x band points whatever grid_n is, so band = grid_n / 2 is fine
    d = Domain.make(1, math.pi, "dirichlet", grid_n=16, band=8)
    f = random_field(d, rng, 1.0, smooth=False, unit_norm=True)
    assert oracles.compare_coeffs(cube(f), oracles.cube_oracle(f)) <= 1e-12
    sq = square(f)
    for n in range(1, d.band[0] + 1):
        assert abs(sq.coeff(n) - oracles.square_quadrature_oracle(f, n)) <= 1e-12


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain.make(2, 1.0, "dirichlet")
    with pytest.raises(ValueError):
        Domain.make(1, 1.0, "dirichlet", grid_n=48)  # not a power of two
    with pytest.raises(ValueError):
        Domain.make(1, -1.0, "dirichlet")
    with pytest.raises(ValueError):
        Domain.make(1, 1.0, "nonsense")
    # on periodic axes +-band must not share the Nyquist bin of grid_n points
    for bc in ("periodic", "odd-periodic"):
        with pytest.raises(ValueError):
            Domain.make(1, 2 * math.pi, bc, grid_n=8, band=4)
        with pytest.raises(ValueError):
            Domain.make(2, 2 * math.pi, bc, grid_n=(16, 8), band=(4, 4))
        assert Domain.make(1, 2 * math.pi, bc, grid_n=8, band=3).band == (3,)
    assert Domain.make(1, 1.0, "dirichlet", grid_n=8, band=4).band == (4,)


def test_mode_normalization():
    d = Domain.make(2, 2 * math.pi, "periodic", grid_n=16, band=4)
    f = SpectralField.from_modes(d, {("sin", (-1, 2)): 0.5})
    assert_allclose(f.coeff(("sin", (1, -2))), -0.5, rtol=1e-14)
    assert_allclose(f.coeff(("sin", (-1, 2))), 0.5, rtol=1e-14)
    with pytest.raises(ValueError):
        SpectralField.from_modes(d, {("sin", (0, 0)): 1.0})
    do = Domain.make(1, 2 * math.pi, "odd-periodic", grid_n=16, band=4)
    with pytest.raises(ValueError):
        SpectralField.from_modes(do, {("cos", (1,)): 1.0})


def test_translate_periodic(rng):
    d = Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16)
    f = random_field(d, rng, 1.0)
    g = translate(f, (5,))
    assert abs(g.norm() - f.norm()) <= 1e-13
    # translated grid values equal rolled grid values
    assert_allclose(to_grid(g).values, np.roll(to_grid(f).values, 5), rtol=0, atol=1e-13)


def test_translate_periodic_2d(rng):
    d = Domain.make(2, (5.0, 3.0), "periodic", grid_n=(16, 32), band=(4, 7))
    f = random_field(d, rng, 1.0)
    g = translate(f, (3, -11))
    assert abs(g.norm() - f.norm()) <= 1e-13
    assert_allclose(to_grid(g).values, np.roll(to_grid(f).values, (3, -11), axis=(0, 1)),
                    rtol=0, atol=1e-13)


@pytest.mark.parametrize("domain", ALL_DOMAINS[:3], ids=_domain_id)
def test_translate_refuses_sine_bases(domain, rng):
    # a general shift of a sine series has cosine content the basis cannot hold
    with pytest.raises(ValueError):
        translate(random_field(domain, rng, 1.0), (3,) * domain.dim)


@pytest.mark.parametrize("domain", ALL_DOMAINS, ids=_domain_id)
def test_norm_and_inner_match_grid_quadrature(domain, rng):
    f, g = (random_field(domain, rng, 1.0, smooth=False) for _ in range(2))
    vf, vg = to_grid(f).values, to_grid(g).values
    if domain.is_dirichlet:
        w = domain.length[0] / (domain.grid_n[0] + 1)
    else:
        w = domain.volume / math.prod(domain.grid_n)
    assert abs(f.norm() - math.sqrt(w * float(np.sum(vf * vf)))) <= 1e-12 * f.norm()
    assert abs(f.norm() - to_grid(f).norm()) <= 1e-12 * f.norm()
    assert abs(inner(f, g) - w * float(np.sum(vf * vg))) <= 1e-12 * f.norm() * g.norm()


@pytest.mark.parametrize("bc", ["periodic", "odd-periodic"])
def test_roundtrip_3d_at_widest_band(bc, rng):
    # band = (grid_n - 1) / 2: the modes +-band sit in adjacent bins
    d = Domain.make(3, 2 * math.pi, bc, grid_n=8, band=3)
    for _ in range(5):
        f = random_field(d, rng, 1.0, smooth=False)
        g = to_spectral(to_grid(f))
        assert np.max(np.abs(g.data - f.data)) <= 1e-12 * max(1.0, f.norm())


@pytest.mark.parametrize("domain", ALL_DOMAINS, ids=_domain_id)
def test_storage_is_one_real_vector(domain, rng):
    half = (math.prod(2 * b + 1 for b in domain.band) - 1) // 2  # half the band box
    nflat = {"dirichlet": domain.band[0], "odd-periodic": half,
             "periodic": 2 * half}[domain.bc.value]
    f = random_field(domain, rng, 1.0)
    fields = [SpectralField.zeros(domain), f, cube(f), square(f), to_spectral(to_grid(f)),
              SpectralField.from_modes(domain, {next(iter(f.modes())): 1.0})]
    for g in fields:
        assert g.data.dtype == np.float64
        assert g.data.shape == (nflat,)


@settings(max_examples=20, deadline=None)
@given(hst.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       hst.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_field_arithmetic_parseval(a, b):
    f = SpectralField.from_modes(D_DIR, {1: a, 3: b})
    assert abs(f.norm() - math.hypot(a, b)) <= 1e-12 * (1 + math.hypot(a, b))
    g = -1.0 * f + 2.0 * f
    assert np.max(np.abs(g.data - f.data)) <= 1e-14


def test_snapshot_export(tmp_path, rng):
    f1 = random_field(D_DIR, rng, 1.0)
    p1 = tmp_path / "snap.csv"
    write_csv_1d(to_grid(f1), p1)
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == D_DIR.grid_n[0] + 1

    d2 = Domain.make(2, 2 * math.pi, "periodic", grid_n=16, band=4)
    f2 = random_field(d2, rng, 1.0)
    p2 = tmp_path / "snap.pgm"
    write_pgm_2d(to_grid(f2), p2)
    head = p2.read_text().splitlines()
    assert head[0] == "P2"
    assert head[1] == "16 16"
    vals = [int(v) for row in head[3:] for v in row.split()]
    assert min(vals) >= 0 and max(vals) <= 255


@pytest.mark.parametrize("domain", [
    Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16),
    Domain.make(2, 2 * math.pi, "periodic", grid_n=16, band=4),
])
def test_max_translation_inner_brute_force(domain, rng):
    a = random_field(domain, rng, 1.0)
    b = random_field(domain, rng, 1.0)
    shifts = itertools.product(*(range(n) for n in domain.grid_n))
    brute = max(inner(a, translate(b, s)) for s in shifts)
    assert abs(max_translation_inner(a, b) - brute) <= 1e-12 * a.norm() * b.norm()


# collocation grids with grid_n >= 4b + 1 on every axis, so products taken
# there are exact on the band; the product grids' first axes are 9, 9 and 45
FULL_GRID_REFERENCE_DOMAINS = [
    Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=(16, 32), band=(2, 7)),
    Domain.make(3, (2 * math.pi, 3.0, 5.0), "odd-periodic", grid_n=(16, 8, 16), band=(2, 1, 3)),
    Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=64, band=11),
]


@pytest.mark.parametrize("domain", FULL_GRID_REFERENCE_DOMAINS, ids=_domain_id)
def test_point_odd_products_match_full_grid_reference(domain, rng):
    # products on the parity half of the product grid, with real first-axis
    # transforms, against to_spectral of the pointwise product on the whole
    # collocation grid, which shares none of that code path
    u, v, w = (random_field(domain, rng, 1.0) for _ in range(3))
    gu, gv, gw = (to_grid(f).values for f in (u, v, w))

    def reference(values):
        return to_spectral(GridField(domain, values)).data

    p = Params(0.2)
    pairs = [
        (cube(u).data, reference(gu**3)),
        (triple(u, v, w).data, reference(gu * gv * gw)),
        (jacobian_apply(u, p, v).data,
         growth_array(domain, p.lam) * v.data - 3.0 * reference(gu * gu * gv)),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_domain_caches_stay_bounded(rng):
    # a sweep over many boxes must not keep every box's lattice, maps and spectrum
    for i in range(100):
        length = float(rng.uniform(0.8, 1.2))
        if i % 2:
            d = Domain.make(1, length * math.pi, "dirichlet", grid_n=32, band=8)
        else:
            d = Domain.make(2, length * 2 * math.pi, "periodic", grid_n=16, band=4)
        u = random_field(d, rng)
        cube(u)
        to_grid(u)
        resample(u.data, d, replace(d, band=tuple(b - 1 for b in d.band)))
        linear_analysis.principal(d)
    caches = [spectral._lattice, spectral._shared_slots, spectral._spectrum_slots,
              spectral._dirichlet_matrices, spectral._product_maps,
              linear_analysis.principal]
    for cache in caches:
        assert 0 < cache.cache_info().currsize <= spectral.DOMAIN_CACHE_SIZE
