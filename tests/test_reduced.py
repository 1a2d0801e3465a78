"""Reduced amplitude systems, tensors, fixed points, closed-form laws."""

import itertools
import math

import numpy as np
import pytest
import scipy.optimize as sopt
from numpy.testing import assert_allclose

from shbif.dynamics import Params, StepperConfig, integrate
from shbif.errors import ExplicitDegeneracy
from shbif.harness import transcritical_amplitude
from shbif.linear_analysis import eigenfunction, growth_rate
from shbif.reduced import (
    build_reduced,
    cubic_flow,
    reduced_fixed_points,
    slaved_mode_prediction,
    torus_points,
)
from shbif.spectral import Domain, cube, inner, translate
from shbif.steady import newton, residual

D_DIR = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)
D_ODD2 = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=32, band=8)
D_PER1 = Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16)


def test_cubic_tensor_dirichlet_values(inner_by_quadrature):
    T = build_reduced(D_DIR).cubic
    assert_allclose(T[0, 0, 0, 0], 3 / math.pi, rtol=1e-13)
    # third-harmonic entry against quadrature: -1/(2L)
    phi1 = eigenfunction(D_DIR, 1)
    phi3 = eigenfunction(D_DIR, 3)
    t13 = inner(cube(phi1), phi3)
    assert_allclose(t13, -1 / (2 * D_DIR.length[0]), rtol=1e-13)
    assert_allclose(t13, inner_by_quadrature(cube(phi1), phi3), rtol=1e-9)


def test_cubic_tensor_symmetry():
    sys = build_reduced(D_ODD2)
    T = sys.cubic
    for idx in itertools.product(range(2), repeat=4):
        j, k, l, i = idx
        for perm in itertools.permutations((j, k, l)):
            assert T[idx] == T[perm + (i,)]


def test_odd_periodic_tensor_pattern():
    sys = build_reduced(D_ODD2)
    v = D_ODD2.volume
    assert_allclose(sys.cubic[0, 0, 0, 0], 3 / (2 * v), rtol=1e-12)
    assert_allclose(sys.cubic[0, 1, 1, 0], 1 / v, rtol=1e-12)
    # flow-level coefficients: cross coupling is twice the self coupling
    y = np.array([1.0, 0.0])
    self_c = -cubic_flow(y, sys.lambda_c, sys)[0]
    cross_c = -cubic_flow(np.array([1e-3, 1.0]), sys.lambda_c, sys)[0] / 1e-3
    assert_allclose(cross_c / self_c, 2.0, rtol=1e-6)


def test_quadratic_tensor_zero_for_odd():
    sys = build_reduced(D_ODD2)
    assert np.max(np.abs(sys.quadratic)) < 1e-12


def test_quadratic_tensor_dirichlet_alpha():
    Q = build_reduced(D_DIR).quadratic
    alpha = 8 * math.sqrt(2) / (3 * math.pi * math.sqrt(D_DIR.length[0]))
    assert_allclose(Q[0, 0, 0], alpha, rtol=1e-12)


def test_odd_flow_basics():
    sys = build_reduced(D_ODD2)
    lam = 0.2
    assert np.all(cubic_flow(np.zeros(2), lam, sys) == 0)
    # permutation equivariance
    y = np.array([0.3, -0.7])
    f = cubic_flow(y, lam, sys)
    fp = cubic_flow(y[::-1], lam, sys)
    assert_allclose(f[::-1], fp, rtol=1e-12)
    # equal-amplitude point is a fixed point exactly at the predicted value
    a = math.sqrt(2 * D_ODD2.volume * lam / (3 * (2 * 2 - 1)))
    assert np.max(np.abs(cubic_flow(np.array([a, a]), lam, sys))) < 1e-12
    assert np.max(np.abs(cubic_flow(np.array([1.05 * a, a]), lam, sys))) > 1e-4


def test_reduced_fixed_points_census_and_kinds():
    sys = build_reduced(D_ODD2)
    fps = reduced_fixed_points(sys, 0.2)
    assert len(fps) == 9
    kinds = sorted(f.kind for f in fps)
    assert kinds.count("attractor") == 4
    assert kinds.count("saddle") == 4
    assert kinds.count("source") == 1
    mixed = [f for f in fps if np.all(np.abs(f.y) > 1e-8)]
    a = math.sqrt(2 * D_ODD2.volume * 0.2 / 9)
    for f in mixed:
        assert f.kind == "saddle"
        assert_allclose(np.abs(f.y), [a, a], rtol=1e-10)
    pures = [f for f in fps if f.kind == "attractor"]
    for f in pures:
        assert_allclose(np.max(np.abs(f.y)), math.sqrt(2 * D_ODD2.volume * 0.2 / 3),
                        rtol=1e-10)


def test_reduced_fixed_points_match_brute_force():
    sys = build_reduced(D_ODD2)
    lam = 0.2

    def flow(y):
        return cubic_flow(y, lam, sys)

    found = []
    a = math.sqrt(2 * D_ODD2.volume * lam / 3)
    for y0 in itertools.product(np.linspace(-1.2 * a, 1.2 * a, 7), repeat=2):
        sol, info, ier, _ = sopt.fsolve(flow, y0, full_output=True)
        if ier == 1 and np.linalg.norm(flow(sol)) < 1e-10:
            if not any(np.linalg.norm(sol - f) < 1e-6 for f in found):
                found.append(sol)
    assert len(found) == 9


@pytest.mark.parametrize("length", [math.pi / 2, 2.5])
def test_transcritical_amplitude_matches_reduced_tensors(length):
    sys = build_reduced(Domain.make(1, length, "dirichlet", grid_n=64, band=16))
    alpha3 = sys.cubic[0, 0, 0, 0]
    alpha2 = sys.quadratic[0, 0, 0]
    for mu in (1.0, 2.0):
        for beta1 in (-0.1, -0.02, 0.02, 0.1):
            # root through 0 of alpha3 x^2 - mu alpha2 x - beta1 = 0
            disc = (mu * alpha2) ** 2 + 4 * alpha3 * beta1
            x = (mu * alpha2 - math.sqrt(disc)) / (2 * alpha3)
            assert_allclose(x * math.sqrt(2 / length),
                            transcritical_amplitude(beta1, mu), rtol=1e-12)


def test_periodic_flow_subspace_and_rotation():
    sys = build_reduced(D_PER1)
    lam = 0.2
    sin_pos = [i for i, m in enumerate(sys.modes) if m.kind == "sin"]
    cos_pos = [i for i, m in enumerate(sys.modes) if m.kind == "cos"]
    assert len(sin_pos) == len(cos_pos) == 1

    def flow_yz(y, z):
        # (dy, dz) of the cubic flow with y on the sines, z on the cosines
        v = np.zeros(sys.m)
        v[sin_pos] = y
        v[cos_pos] = z
        out = cubic_flow(v, lam, sys)
        return out[sin_pos], out[cos_pos]

    y = np.array([0.4])
    z = np.array([0.0])
    dy, dz = flow_yz(y, z)
    assert abs(dz[0]) < 1e-14
    # pure sine flow agrees with the sine-restricted cubic balance
    L = D_PER1.length[0]
    expect = lam * 0.4 - (3 / (2 * L)) * 0.4**3
    assert_allclose(dy[0], expect, rtol=1e-12)
    # rotation invariance
    th = 1.1
    y2, z2 = np.array([0.3]), np.array([-0.5])
    dy2, dz2 = flow_yz(y2, z2)
    yr = y2 * math.cos(th) - z2 * math.sin(th)
    zr = y2 * math.sin(th) + z2 * math.cos(th)
    dyr, dzr = flow_yz(yr, zr)
    assert_allclose(dyr, dy2 * math.cos(th) - dz2 * math.sin(th), atol=1e-12)
    assert_allclose(dzr, dy2 * math.sin(th) + dz2 * math.cos(th), atol=1e-12)
    # the circle y^2 + z^2 = 2 L beta / 3 is fixed
    r = math.sqrt(2 * L * lam / 3)
    for ang in (0.0, 0.7, 2.9):
        dy3, dz3 = flow_yz(np.array([r * math.cos(ang)]),
                           np.array([r * math.sin(ang)]))
        assert max(abs(dy3[0]), abs(dz3[0])) < 1e-12


def test_reduced_fixed_points_dirichlet_pitchfork():
    sys = build_reduced(D_DIR)
    phys = math.sqrt(2 / D_DIR.volume)
    amps = sorted(f.y[0] * phys for f in reduced_fixed_points(sys, 9.5))
    a = math.sqrt(2 / 3)
    assert_allclose(amps, [-a, 0.0, a], rtol=1e-12, atol=0.0)
    at_critical = reduced_fixed_points(sys, sys.lambda_c)
    assert [f.y.tolist() for f in at_critical] == [[0.0]]


def test_equal_amplitude_point_vs_pde_integration():
    # the diagonal is invariant: a symmetric seed converges to the
    # equal-amplitude equilibrium of the reduced flow
    lam = 0.2
    sys = build_reduced(D_ODD2)
    (y,) = [f.y for f in reduced_fixed_points(sys, lam) if np.all(f.y > 0)]
    u0 = 0.3 * y[0] * (eigenfunction(D_ODD2, sys.modes[0])
                       + eigenfunction(D_ODD2, sys.modes[1]))
    rep = integrate(u0, Params(lam), StepperConfig(dt=5e-3, t_end=80.0,
                                                   sample_every=200))
    got = [rep.final_state.coeff(m) for m in sys.modes]
    assert_allclose(got, y, rtol=0.05)


def test_torus_points_phases():
    p = Params(0.2)
    pts = torus_points(D_PER1, p, [[0.0], [math.pi / 2]])
    assert abs(pts[0].coeff(("cos", (1,)))) < 1e-10
    assert pts[0].coeff(("sin", (1,))) > 0.5
    assert abs(pts[1].coeff(("sin", (1,)))) < 1e-10
    assert residual(pts[1], p).norm() < 1e-10


def test_torus_points_translation_orbit(rng):
    # grid-aligned random phases give states identical up to translation
    p = Params(0.2)
    n = D_PER1.grid_n[0]
    j1, j2 = rng.integers(0, n, size=2)
    th = [[2 * math.pi * j1 / n], [2 * math.pi * j2 / n]]
    a, b = torus_points(D_PER1, p, th)
    assert abs(a.norm() - b.norm()) < 1e-10
    best = min((a - translate(b, (s,))).norm() for s in range(n))
    assert best < 1e-8


def test_slaved_mode_prediction():
    assert slaved_mode_prediction(D_DIR, 9.2, 0.0) == 0.0
    lam = 9.2
    s = newton(0.45 * eigenfunction(D_DIR, 1), Params(lam))
    x1 = s.state.coeff(1)
    x3 = s.state.coeff(3)
    pred = slaved_mode_prediction(D_DIR, lam, x1)
    assert abs(x3 - pred) / abs(pred) <= 0.02
    # sign follows the tensor entry and beta3 < 0
    t13 = inner(cube(eigenfunction(D_DIR, 1)), eigenfunction(D_DIR, 3))
    assert math.copysign(1, pred) == math.copysign(
        1, t13 * x1**3 / growth_rate(D_DIR, 3, lam))


def test_build_reduced_degenerate_length():
    L = math.pi * math.sqrt(5 / 2)
    d = Domain.make(1, L, "dirichlet", grid_n=64, band=16)
    with pytest.raises(ExplicitDegeneracy):
        build_reduced(d)


def test_reduced_fixed_points_transcritical():
    # lambda = 8.9, mu = 1 on the dirichlet box: trivial attractor, the
    # small root of T y^2 - mu Q y - beta1 = 0 (a source) and the large one
    fps = reduced_fixed_points(build_reduced(D_DIR), 8.9, mu=1.0)
    phys = math.sqrt(2 / D_DIR.length[0])
    (trivial, small, large) = sorted(fps, key=lambda f: float(f.y[0]))
    assert trivial.y[0] == 0.0 and trivial.kind == "attractor"
    assert small.kind == "source"
    assert_allclose(phys * small.y[0], transcritical_amplitude(-0.1, 1.0), rtol=1e-12)
    assert large.kind == "attractor"
    assert_allclose(phys * large.y[0], 0.998, atol=5e-4)
