"""Newton solves, stability and census."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from shbif import steady
from shbif.dynamics import Params
from shbif.errors import DegenerateState, EigsNoConvergence, NoConvergence, SingularJacobian
from shbif.linear_analysis import eigenfunction, growth_array, growth_rate, principal
from shbif.spectral import (
    BoundaryCondition,
    Domain,
    SpectralField,
    _box_symmetries,
    cube,
    inner,
    lattice_symbol,
    random_field,
    resample,
    to_grid,
    translate,
    triple,
)
from shbif.steady import (
    WEYL_TOL,
    SteadyState,
    _Jacobian,
    _is_image,
    _minres,
    _residual,
    _solve_newton_system,
    _weyl_bound,
    default_seed_scale,
    find_all,
    index_sum,
    jacobian_apply,
    newton,
    orbit_distance,
    residual,
    stability,
)

D = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)
P95 = Params(9.5)


def test_residual_zero_state():
    assert residual(SpectralField.zeros(D), P95).norm() == 0.0


def test_residual_leading_order_scaling():
    # seeded at the predicted amplitude the residual is the slaved-mode
    # feedback, O(delta^(3/2)), far below the amplitude itself
    lam = 9.01
    x1 = math.sqrt(2 * D.length[0] * (lam - 9.0) / 3.0)
    f = residual(x1 * eigenfunction(D, 1), Params(lam))
    t13 = inner(cube(eigenfunction(D, 1)), eigenfunction(D, 3))
    assert f.norm() <= 0.02 * x1
    assert_allclose(f.norm(), abs(t13) * x1**3, rtol=1e-6)


def test_jacobian_diagonal_at_zero(rng):
    v = random_field(D, rng, 1.0)
    jv = jacobian_apply(SpectralField.zeros(D), P95, v)
    betas = np.array([growth_rate(D, n, 9.5) for n in range(1, 17)])
    assert np.max(np.abs(jv.data - betas * v.data)) <= 1e-12


# odd-periodic Jacobians of dim >= 2 run on the parity half of the product grid
D_ODD_2D = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=16, band=4)
D_ODD_3D = Domain.make(3, 2 * math.pi, "odd-periodic", grid_n=8, band=2)
JACOBIAN_CASES = pytest.mark.parametrize(
    "domain, p", [(D, Params(9.4, 0.3)), (D_ODD_2D, Params(0.2))],
    ids=["dirichlet", "odd-periodic-2d"])


@JACOBIAN_CASES
def test_jacobian_symmetry(domain, p, rng):
    u = random_field(domain, rng, 0.6)
    v = random_field(domain, rng, 0.6)
    w = random_field(domain, rng, 0.6)
    assert abs(inner(jacobian_apply(u, p, v), w)
               - inner(v, jacobian_apply(u, p, w))) <= 1e-10


@JACOBIAN_CASES
def test_jacobian_finite_difference(domain, p, rng):
    u = random_field(domain, rng, 0.5)
    v = random_field(domain, rng, 0.5)
    jv = jacobian_apply(u, p, v)
    errs = []
    hs = (1e-1, 1e-2, 1e-3)
    for h in hs:
        fd = (residual(u + h * v, p) - residual(u + (-h) * v, p)) * (1 / (2 * h))
        errs.append((fd - jv).norm())
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.2


@pytest.mark.parametrize("domain", [D_ODD_2D, D_ODD_3D], ids=["2d", "3d"])
def test_jacobian_is_linear_part_minus_triple(domain, rng):
    # J(u) v = beta v - 3 u^2 v at mu = 0
    u, v = (random_field(domain, rng, 1.0, smooth=False) for _ in range(2))
    p = Params(0.2)
    ref = growth_array(domain, p.lam) * v.data - 3.0 * triple(u, u, v).data
    assert np.max(np.abs(jacobian_apply(u, p, v).data - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_newton_trivial_fixed_point():
    s = newton(SpectralField.zeros(D), P95)
    assert s.norm == 0.0
    assert s.residual == 0.0


def test_newton_pitchfork_amplitude():
    s = newton(0.8 * eigenfunction(D, 1), P95)
    amp = s.state.coeff(1) * math.sqrt(2 / D.length[0])
    assert s.residual < 1e-10
    assert abs(amp - math.sqrt(4 / 3 * 0.5)) <= 3e-2


def test_newton_gsh_amplitudes():
    mu = 1.0
    d = D
    phys = math.sqrt(2 / d.length[0])
    # asymptotic regime: the linear law holds tightly
    s = newton((3 * math.pi / 8) * 0.01 / phys * eigenfunction(d, 1), Params(8.99, mu))
    amp = s.state.coeff(1) * phys
    assert abs(amp - (3 * math.pi / 8) * 0.01) / ((3 * math.pi / 8) * 0.01) <= 0.02
    # at delta = 0.1 the exact quadratic-cubic balance sets the amplitude
    s2 = newton((3 * math.pi / 8) * 0.1 / phys * eigenfunction(d, 1), Params(8.9, mu))
    alpha2 = 8 * math.sqrt(2) / (3 * math.pi * math.sqrt(d.length[0]))
    alpha3 = 3 / (2 * d.length[0])
    disc = (mu * alpha2) ** 2 - 4 * alpha3 * 0.1
    x_exact = (mu * alpha2 - math.sqrt(disc)) / (2 * alpha3)
    assert abs(s2.state.coeff(1) - x_exact) <= 1e-2 * x_exact


def test_newton_no_convergence(monkeypatch):
    monkeypatch.setattr(steady, "NEWTON_MAX_ITER", 2)
    with pytest.raises(NoConvergence):
        newton(5.0 * eigenfunction(D, 1), P95)


def _singular(jac, rhs, rtol):
    return np.zeros_like(rhs), np.zeros(len(rhs), bool)  # no row is solved


def _zero_step(jac, rhs, rtol):
    return np.zeros_like(rhs), np.ones(len(rhs), bool)  # no step length lowers the residual


@pytest.mark.parametrize("solve,error", [(_singular, SingularJacobian),
                                         (_zero_step, NoConvergence)],
                         ids=["singular-jacobian", "line-search"])
def test_newton_collapse_routes(monkeypatch, solve, error):
    # near zero either stall collapses to the exact trivial state; far
    # from it the same stall is raised
    monkeypatch.setattr(steady, "_solve_newton_system", solve)
    s = newton(1e-4 * eigenfunction(D, 1), P95)
    assert np.all(s.state.data == 0.0)
    assert s.residual == 0.0
    with pytest.raises(error):
        newton(0.5 * eigenfunction(D, 1), P95)


def test_stability_trivial_state():
    s_sub = stability(newton(SpectralField.zeros(D), Params(8.0)))
    assert s_sub.morse_index == 0
    assert max(s_sub.leading_eigs) < 0
    s_sup = stability(newton(SpectralField.zeros(D), P95))
    assert s_sup.morse_index == 1


def test_stability_2d_rolls_and_mixed():
    d = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=64, band=16)
    p = Params(0.2)
    v = d.volume
    roll = newton(math.sqrt(2 * v * 0.2 / 3) * eigenfunction(d, ("sin", (1, 0))), p)
    assert stability(roll).morse_index == 0
    mix_seed = math.sqrt(2 * v * 0.2 / 9) * (
        eigenfunction(d, ("sin", (1, 0))) + eigenfunction(d, ("sin", (0, 1))))
    mixed = newton(mix_seed, p)
    assert stability(mixed).morse_index == 1


def _bookkeeping_by_loops(evals, periodic):
    """stability's leading, neutral and Morse index as plain loops: the reference."""
    neutral = tuple(float(e) for e in evals if periodic and abs(e) < steady.NEUTRAL_TOL)
    effective = [float(e) for e in evals if not (periodic and abs(e) < steady.NEUTRAL_TOL)]
    morse = sum(1 for e in effective if e > steady.POS_TOL)
    leading = tuple(sorted((float(e) for e in evals), reverse=True)[:steady.N_EIGS])
    return leading, neutral, morse


@pytest.mark.parametrize("case", ["periodic-roll", "dirichlet-pitchfork", "census-box-trivial"])
def test_stability_bookkeeping_matches_loops(case):
    if case == "periodic-roll":  # dense, one neutral translation mode
        d, p = Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16), Params(0.2)
        s = newton(math.sqrt(2 * d.length[0] * 0.2 / 3) * eigenfunction(d, ("sin", (1,))), p)
    elif case == "dirichlet-pitchfork":  # dense
        d, p = D, P95
        s = newton(0.8 * eigenfunction(D, 1), p)
    else:  # the sorted growth rates of all 8320 modes
        d, p = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=256, band=64), Params(0.2)
        s = SteadyState(SpectralField.zeros(d), 0.0, p.lam, p.mu)
    if s.norm > 0:
        evals = np.linalg.eigvalsh(steady._dense(_Jacobian(s.state, p)))
    else:
        evals = np.sort(growth_array(d, p.lam))
    out = stability(s)
    periodic = d.bc is BoundaryCondition.PERIODIC
    assert (out.leading_eigs, out.neutral_eigs, out.morse_index) == \
        _bookkeeping_by_loops(evals, periodic)
    assert all(type(e) is float for e in out.leading_eigs + out.neutral_eigs)
    assert type(out.morse_index) is int


def test_sign_equivariance():
    s = newton(0.8 * eigenfunction(D, 1), P95)
    mirrored = SpectralField(D, -s.state.data)
    assert residual(mirrored, P95).norm() < 1e-10
    e1 = stability(s).leading_eigs
    e2 = stability(SteadyState(mirrored, s.residual, 9.5, 0.0)).leading_eigs
    assert_allclose(e1, e2, atol=1e-8)


CENSUS_BOX = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=256, band=64)


@pytest.mark.parametrize("d,order", [
    (Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=32, band=8), 8),
    (Domain.make(3, 2 * math.pi, "odd-periodic", grid_n=16, band=4), 48),
    (Domain.make(2, (2 * math.pi, 4 * math.pi), "odd-periodic", grid_n=32, band=8), 4),
    (D, 2),
], ids=["square", "cube", "unequal-lengths", "dirichlet"])
def test_box_symmetry_group_order(d, order):
    src, sign = _box_symmetries(d)
    assert src.shape == sign.shape == (order, len(lattice_symbol(d)))
    assert np.array_equal(src[0], np.arange(src.shape[1])) and np.all(sign[0] == 1.0)
    # the table is a group: closed under composition, every element distinct
    x = np.arange(1.0, src.shape[1] + 1)
    table = {tuple(g * x[i]) for i, g in zip(src, sign)}
    assert len(table) == order
    assert all(tuple(h * (g * x[i])[j]) in table
               for i, g in zip(src, sign) for j, h in zip(src, sign))


@pytest.mark.parametrize("d,p", [
    (Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=32, band=8), Params(0.2)),
    (Domain.make(3, 2 * math.pi, "odd-periodic", grid_n=16, band=4), Params(0.2)),
    (Domain.make(2, 5.0, "periodic", grid_n=32, band=8), Params(0.2)),
    (Domain.make(3, 2 * math.pi, "periodic", grid_n=16, band=4), Params(0.2)),
    (D, Params(9.4, 0.3)),
], ids=["odd-periodic-2d", "odd-periodic-3d", "periodic-2d", "periodic-3d", "dirichlet-mu"])
def test_box_symmetries_commute_with_the_equation(d, p, rng):
    u = random_field(d, rng, 0.6)
    cu, fu = cube(u).data, residual(u, p).data
    for i, g in zip(*_box_symmetries(d)):
        gu = SpectralField(d, g * u.data[i])
        assert np.array_equal(lattice_symbol(d)[i], lattice_symbol(d))
        assert gu.norm() == pytest.approx(u.norm(), rel=1e-15)
        assert np.abs(cube(gu).data - g * cu[i]).max() <= 1e-12
        assert np.abs(residual(gu, p).data - g * fu[i]).max() <= 1e-12


@pytest.fixture(scope="module")
def census_states():
    return find_all(CENSUS_BOX, Params(0.2), n_seeds=100, rng_seed=3)


def test_find_all_shares_stability_across_box_images(monkeypatch):
    p = Params(0.2)
    calls = _count_lobpcg_calls(monkeypatch)
    states = find_all(CENSUS_BOX, p, n_seeds=100, rng_seed=3)
    nz = [s for s in states if s.norm > 1e-6]
    assert len(nz) == 4 and len(calls) == 2  # rolls in x and y, and two mirror squares
    images = {(i, r) for i, s in enumerate(states) for r in range(i)
              if _is_image(s, states[r], p)}
    assert images == {(2, 1), (4, 3)}
    for i, r in images:
        s = states[i]
        assert (s.leading_eigs, s.neutral_eigs, s.morse_index) == \
            (states[r].leading_eigs, states[r].neutral_eigs, states[r].morse_index)
        direct = stability(replace(s, leading_eigs=None, neutral_eigs=None, morse_index=None))
        assert (direct.morse_index, len(direct.neutral_eigs)) == (s.morse_index,
                                                                    len(s.neutral_eigs))
        assert_allclose(s.leading_eigs, direct.leading_eigs, rtol=0, atol=1e-10)


def test_find_all_shares_stability_over_the_cube_table(monkeypatch):
    # 48 signed axis permutations: single-mode attractors, two-mode and
    # three-mode saddles, one eigensolve per orbit
    d = Domain.make(3, 2 * math.pi, "odd-periodic", grid_n=16, band=4)
    calls, real = [], steady.stability
    monkeypatch.setattr(steady, "stability", lambda s: calls.append(s) or real(s))
    nz = [s for s in find_all(d, Params(0.2), 40, rng_seed=0, dedup="exact") if s.norm > 1e-6]
    assert len(nz) == 11 and len(calls) == 3
    assert sorted({round(s.norm, 4) for s in nz}) == [4.5378, 4.7153, 5.7539]
    for s in nz:
        direct = real(replace(s, leading_eigs=None, neutral_eigs=None, morse_index=None))
        assert direct.morse_index == s.morse_index


def test_perturbed_image_gets_its_own_eigensolve(census_states):
    p = Params(0.2)
    i = next(i for i, s in enumerate(census_states)
             if any(_is_image(s, r, p) for r in census_states[:i]))
    s = census_states[i]
    moved = replace(s, state=s.state + 1e-9 * eigenfunction(CENSUS_BOX, (1, 2)))
    assert not any(_is_image(moved, r, p) for r in census_states[:i])


def test_only_mu_zero_shares_across_a_sign_flip():
    u = newton(0.8 * eigenfunction(D, 1), P95)
    flipped = replace(u, state=-u.state)
    assert _is_image(flipped, u, P95)
    assert not _is_image(flipped, u, Params(9.5, 0.3))


def test_translation_equivariance_periodic():
    d = Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16)
    p = Params(0.2)
    r = math.sqrt(2 * d.length[0] * 0.2 / 3)
    s = newton(r * eigenfunction(d, ("sin", (1,))), p)
    for shift in (3, 17, 40):
        assert residual(translate(s.state, (shift,)), p).norm() < 1e-9
    st = stability(s)
    assert len(st.neutral_eigs) == 1
    assert st.morse_index == 0


def test_find_all_pitchfork_counts():
    states = find_all(D, P95, n_seeds=40, rng_seed=7, dedup="exact")
    nz = [s for s in states if s.norm > 1e-6]
    assert len(nz) == 2
    assert (nz[0].state + nz[1].state).norm() <= 1e-8
    assert index_sum(nz) == 2
    states_sym = find_all(D, P95, n_seeds=40, rng_seed=7, dedup="symmetry")
    assert len([s for s in states_sym if s.norm > 1e-6]) == 1


def test_find_all_subcritical_only_trivial():
    states = find_all(D, Params(8.5), n_seeds=20, rng_seed=3)
    assert len(states) == 1
    assert states[0].norm <= 1e-8


@pytest.mark.parametrize("n_seeds", [0, 1])
def test_find_all_with_zero_or_one_seed(n_seeds):
    states = find_all(D, P95, n_seeds=n_seeds, rng_seed=3)
    assert len(states) == n_seeds


def test_find_all_seed_count_stability():
    a = find_all(D, P95, n_seeds=100, rng_seed=11, dedup="exact")
    b = find_all(D, P95, n_seeds=200, rng_seed=12, dedup="exact")
    assert len(a) == len(b)


def test_find_all_2d_census_small_band():
    d = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=64, band=16)
    states = find_all(d, Params(0.2), n_seeds=40, rng_seed=5)
    nz = [s for s in states if s.norm > 1e-6]
    assert len(nz) == 4
    morses = sorted(s.morse_index for s in nz)
    assert morses == [0, 0, 1, 1]
    assert index_sum(nz) == 0


@pytest.mark.parametrize("d,p,n_levels", [
    (Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=256, band=64), Params(0.2), 3),
    (D, P95, 2),
    (Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=32, band=8), Params(0.2), 1),
], ids=["census-box", "dirichlet-band16", "one-level"])
def test_seeds_are_the_full_band_draw_restricted(d, p, n_levels):
    # the census sample: the full-band draw of critical amplitudes and
    # random_field noise, cut down to the coarsest band
    start = steady._levels(d)[0]
    assert len(steady._levels(d)) == n_levels
    scale = default_seed_scale(d, p)
    rng = np.random.default_rng(3)
    full = []
    for _ in range(7):
        f = SpectralField.zeros(d)
        for m in principal(d).critical_modes:
            f = f + float(rng.normal(0.0, scale)) * eigenfunction(d, m)
        full.append((f + random_field(d, rng, 0.01 * scale, smooth=True)).data)
    seeds = steady._seeds(d, p, 7, 3)
    assert seeds.domain == start
    assert np.array_equal(seeds.data, resample(np.array(full), d, start))


def test_find_all_solves_each_distinct_state_once_on_the_full_band(monkeypatch):
    d = D2_BAND16
    converged, full_band = [], []
    newton_rows, newton_full = steady._newton_rows, steady.newton

    def counted_rows(u, p):
        out = newton_rows(u, p)
        if u.domain != d:
            converged.append(sum(not isinstance(s, Exception) for s in out))
        return out

    def counted_newton(u0, p):
        full_band.append(u0.domain)
        return newton_full(u0, p)

    monkeypatch.setattr(steady, "_newton_rows", counted_rows)
    monkeypatch.setattr(steady, "newton", counted_newton)
    states = find_all(d, Params(0.2), n_seeds=40, rng_seed=5)
    assert len([s for s in states if s.norm > 1e-6]) == 4
    assert full_band == [d] * len(full_band)
    assert len(full_band) <= 2 * 4 + 1  # every sign of each class, and zero
    assert converged[0] >= 3 * len(full_band)


def test_index_sum_empty_and_degenerate():
    assert index_sum([]) == 0
    s = stability(newton(SpectralField.zeros(D), Params(9.0)))  # beta1 = 0 exactly
    with pytest.raises(DegenerateState):
        index_sum([s])


def test_orbit_distance_translation():
    d = Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16)
    p = Params(0.2)
    r = math.sqrt(2 * d.length[0] * 0.2 / 3)
    s = newton(r * eigenfunction(d, ("sin", (1,))), p)
    shifted = translate(s.state, (13,))
    assert orbit_distance(s.state, shifted, p) <= 1e-10
    assert orbit_distance(s.state, shifted, p, "exact") > 0.1
    assert orbit_distance(s.state, -1.0 * s.state, p) <= 1e-12


INNER_SOLVE_CASES = pytest.mark.parametrize("case", ["dirichlet-saddle", "odd-periodic-mixed"])


def _inner_solve_case(case):
    if case == "dirichlet-saddle":
        return D, Params(8.9, 1.0), 0.12 * eigenfunction(D, 1)  # near the mu = 1 saddle
    d = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=64, band=16)
    return d, Params(0.2), math.sqrt(2 * d.volume * 0.2 / 9) * (
        eigenfunction(d, ("sin", (1, 0))) + eigenfunction(d, ("sin", (0, 1))))


@INNER_SOLVE_CASES
def test_inner_solve_meets_newton_bound(case):
    # The bound newton relies on: the inner solve returns a step delta with
    # |J delta + F| <= |F| / 2, or reports the row unsolved (a singular
    # Jacobian).  MINRES stops on its rtol = eta in the preconditioned norm,
    # so eta itself does not bound the Euclidean residual; the step must
    # still cut the residual.
    d, p, u = _inner_solve_case(case)
    f = residual(u, p)
    eta = min(0.1, max(1e-4, f.norm()))  # the forcing term newton passes
    jac = _Jacobian(SpectralField(d, u.data[None]), p)
    steps, solved = _solve_newton_system(jac, -f.data[None], np.array([eta]))
    delta = steps[0]
    assert solved[0]
    assert np.linalg.norm(jac.apply(delta[None])[0] + f.data) <= 0.5 * f.norm()
    assert residual(u + SpectralField(d, delta), p).norm() < 0.1 * f.norm()


@INNER_SOLVE_CASES
def test_minres_port_matches_scipy(case, rng):
    d, p, u = _inner_solve_case(case)
    f = residual(u, p).data
    eta = min(0.1, max(1e-4, float(np.linalg.norm(f))))
    maxiter = max(steady.KRYLOV_MAXITER, 2 * len(f))
    single = _Jacobian(u, p)
    iterates = []
    want, info = spla.minres(single.as_linear_operator(), -f, rtol=eta, maxiter=maxiter,
                             M=single.preconditioner(), callback=iterates.append)
    assert info == 0
    x, itn = _minres(_Jacobian(SpectralField(d, u.data[None]), p), -f[None],
                     np.array([eta]), maxiter)
    assert itn[0] == len(iterates)
    assert np.linalg.norm(x[0] - want) <= 1e-12 * np.linalg.norm(want)
    # a second right-hand side of the same Jacobian: a batch of two returns
    # each row's batch-of-one result, bit for bit where the transforms are
    # FFTs; a dirichlet batch of one multiplies by the product matrices in a
    # BLAS matrix-vector call, which rounds differently from a matrix product
    g = random_field(d, rng, 1.0).data
    pair = _Jacobian(SpectralField(d, np.stack([u.data, u.data])), p)
    both, itn2 = _minres(pair, np.stack([-f, g]), np.array([eta, 1e-3]), maxiter)
    x_g, itn_g = _minres(_Jacobian(SpectralField(d, u.data[None]), p), g[None],
                         np.array([1e-3]), maxiter)
    alone = np.concatenate([x, x_g])
    assert list(itn2) == [itn[0], itn_g[0]]
    if d.is_dirichlet:
        assert np.max(np.abs(both - alone)) <= 1e-13 * np.max(np.abs(alone))
    else:
        assert np.array_equal(both, alone)


def _newton_status(s):
    if isinstance(s, Exception):
        return type(s).__name__
    return "collapsed" if s.residual == 0.0 and not s.state.data.any() else "converged"


def _scalar_newton(u, p):
    """(status, state) of the one-seed Newton loop with scipy's MINRES."""
    x, (f, gu) = u.data, _residual(u, p)
    nf = float(np.linalg.norm(f))
    for _ in range(steady.NEWTON_MAX_ITER):
        if nf <= steady.NEWTON_TOL:
            return "converged", x
        if not nf <= 1e8:
            return "NoConvergence", None
        jac = _Jacobian(SpectralField(u.domain, x), p, gu)
        dv, _info = spla.minres(jac.as_linear_operator(), -f, rtol=min(0.1, max(1e-4, nf)),
                                maxiter=max(steady.KRYLOV_MAXITER, 2 * len(x)),
                                M=jac.preconditioner())
        if np.linalg.norm(jac.apply(dv) + f) > 0.5 * nf:
            stall = "SingularJacobian"
        else:
            stall = "NoConvergence"
            for step in 0.5 ** np.arange(11):
                f_try, gu_try = _residual(SpectralField(u.domain, x + step * dv), p)
                if np.linalg.norm(f_try) < nf:
                    x, f, gu, nf = x + step * dv, f_try, gu_try, float(np.linalg.norm(f_try))
                    stall = None
                    break
        if stall:
            return ("collapsed", 0.0 * x) if np.linalg.norm(x) < 1e-3 else (stall, None)
    return ("converged", x) if nf <= steady.NEWTON_TOL else ("NoConvergence", None)


def test_lockstep_newton_matches_batches_of_one(rng):
    # at lambda_c = 0 the census's coarse domain has seeds that converge, seeds
    # whose inner solve stagnates and seeds that collapse onto u = 0; each
    # row must match its batch of one bit for bit, and the scalar loop with
    # scipy's MINRES to rounding
    seeds = np.stack([random_field(D2_BAND16, rng, scale).data
                      for scale in np.geomspace(1e-4, 1.0, 24)])
    p = Params(0.0)
    lockstep = steady._newton_rows(SpectralField(D2_BAND16, seeds), p)
    status = [_newton_status(s) for s in lockstep]
    assert {"converged", "collapsed", "SingularJacobian"} <= set(status)
    for seed, s, st in zip(seeds, lockstep, status):
        alone = steady._newton_rows(SpectralField(D2_BAND16, seed[None]), p)[0]
        assert _newton_status(alone) == st
        ref_status, ref_state = _scalar_newton(SpectralField(D2_BAND16, seed), p)
        assert ref_status == st
        if st in ("converged", "collapsed"):
            assert np.array_equal(alone.state.data, s.state.data)
            assert alone.residual == s.residual
            assert np.max(np.abs(s.state.data - ref_state)) <= 1e-12


def test_order_key_ignores_the_sign_of_rounded_zeros(rng):
    # coefficients at noise level round to -0.0 or +0.0; the census order
    # must not depend on which
    u = random_field(D, rng, 1.0)
    u.data[::2] = 1e-17
    flipped = SpectralField(D, u.data.copy())
    flipped.data[::2] = -1e-17
    a, b = (SteadyState(v, 0.0, 9.5, 0.0) for v in (u, flipped))
    assert steady._order_key(a) == steady._order_key(b)


@pytest.mark.parametrize("domain,p", [
    (D, Params(9.3, 0.5)),
    (Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16), Params(0.2)),
    (Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=32, band=8), Params(0.2)),
])
def test_jacobian_batched_rows_match_single_applies(domain, p, rng):
    # stability's dense path applies J to every unit vector in one call
    jac = _Jacobian(random_field(domain, rng, 0.5), p)
    xs = np.stack([random_field(domain, rng, 1.0).data for _ in range(5)])
    batched = jac.apply(xs)
    for x, row in zip(xs, batched):
        single = jac.apply(x)
        assert np.linalg.norm(row - single) <= 1e-14 * np.linalg.norm(single)


@pytest.mark.parametrize("domain,p", [
    (D, Params(9.3, 0.5)),
    (Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16), Params(0.2)),
    (Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=32, band=8), Params(0.2)),
])
def test_jacobian_from_residual_grid_is_bit_identical(domain, p, rng):
    # newton builds J(u) from the grid values its residual already computed
    u = random_field(domain, rng, 0.5)
    data, gu = _residual(u, p)
    assert np.array_equal(data, residual(u, p).data)
    xs = np.stack([random_field(domain, rng, 1.0).data for _ in range(3)])
    assert np.array_equal(_Jacobian(u, p, gu).apply(xs), _Jacobian(u, p).apply(xs))


D2_BAND16 = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=64, band=16)  # n = 544


def _scaled_state(norm, rng):
    u = random_field(D2_BAND16, rng, 1.0, unit_norm=True) * norm
    return SteadyState(u, 0.0, 0.2, 0.0)


def _count_lobpcg_calls(monkeypatch):
    calls = []  # (band, k) per LOBPCG run
    real = steady._lobpcg

    def counted(jac, k):
        calls.append((jac.domain.band, k))
        return real(jac, k)

    monkeypatch.setattr(steady, "_lobpcg", counted)
    return calls


def test_stability_weyl_shortcut_matches_lobpcg(rng, monkeypatch):
    calls = _count_lobpcg_calls(monkeypatch)
    s = _scaled_state(1e-17, rng)
    assert 0.0 < _weyl_bound(s.state, s.mu) < WEYL_TOL
    short = stability(s)
    assert calls == []  # beta is taken as the spectrum, no eigensolver runs
    monkeypatch.setattr(steady, "WEYL_TOL", 0.0)
    iterated = stability(s)
    assert calls  # the same state through LOBPCG
    assert short.morse_index == iterated.morse_index == 2
    assert_allclose(short.leading_eigs, iterated.leading_eigs, rtol=0, atol=1e-7)


def test_stability_small_nonzero_state_still_iterates(rng, monkeypatch):
    calls = _count_lobpcg_calls(monkeypatch)
    s = _scaled_state(1e-3, rng)
    assert _weyl_bound(s.state, s.mu) >= WEYL_TOL
    assert stability(s).morse_index == 2
    assert calls


def _morse_and_neutral(evals, periodic):
    neutral = [e for e in evals if periodic and abs(e) < steady.NEUTRAL_TOL]
    return sum(1 for e in evals if e > steady.POS_TOL and e not in neutral), len(neutral)


@pytest.mark.parametrize("d,lam", [
    (D2_BAND16, 0.2),
    (Domain.make(2, 4 * math.pi, "odd-periodic", grid_n=64, band=24), 0.3),  # window 12-14
    (Domain.make(2, 2 * math.pi, "periodic", grid_n=32, band=12), 0.2),  # translation modes
], ids=["2pi-band16", "4pi-band24", "periodic-band12"])
def test_one_lobpcg_pass_holds_every_positive_and_neutral_eigenvalue(d, lam, monkeypatch):
    states = [s for s in find_all(d, Params(lam), n_seeds=8) if s.norm > 1e-6][:3]
    assert states
    calls = _count_lobpcg_calls(monkeypatch)
    periodic = d.bc is BoundaryCondition.PERIODIC
    for s in states:
        calls.clear()
        got = stability(s)
        jac = _Jacobian(s.state, Params(s.lam, s.mu))
        w = _weyl_bound(s.state, s.mu)
        k = max(steady.N_EIGS, int(np.count_nonzero(jac.beta > -(w + steady.NEUTRAL_TOL))))
        assert calls == [(d.band, k)]
        mat = jac.apply(np.eye(jac.n))
        full = np.linalg.eigvalsh(0.5 * (mat + mat.T))[::-1]  # the whole spectrum, descending
        assert (got.morse_index, len(got.neutral_eigs)) == _morse_and_neutral(full, periodic)
        assert_allclose(got.leading_eigs, full[:steady.N_EIGS], rtol=0, atol=1e-7)
        assert full[k] <= -steady.NEUTRAL_TOL  # nothing above the window is missed


@pytest.mark.parametrize("failure", ["raises", "nan"])
def test_stability_raises_when_lobpcg_fails(failure, rng, monkeypatch):
    def failing_lobpcg(a, x0, **kwargs):
        if failure == "raises":
            raise np.linalg.LinAlgError("forced failure")
        return np.full(x0.shape[1], np.nan), x0

    monkeypatch.setattr(steady.spla, "lobpcg", failing_lobpcg)
    with pytest.raises(EigsNoConvergence):
        stability(_scaled_state(1e-3, rng))


L1_BOUND_DOMAINS = [
    D,
    Domain.make(1, 2 * math.pi, "odd-periodic", grid_n=64, band=16),
    Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=32, band=8),
    Domain.make(3, 2 * math.pi, "odd-periodic", grid_n=16, band=4),
    Domain.make(1, 5.0, "periodic", grid_n=64, band=16),
    Domain.make(2, 5.0, "periodic", grid_n=32, band=8),
    Domain.make(3, 2 * math.pi, "periodic", grid_n=16, band=4),
]


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from(L1_BOUND_DOMAINS), hst.integers(0, 2**32 - 1), hst.booleans(),
       hst.booleans())
def test_l1_coefficient_norm_bounds_the_grid_maximum(domain, seed, smooth, single_mode):
    # every basis function is bounded by sqrt(2 / V), the bound _weyl_bound uses
    rng = np.random.default_rng(seed)
    u = random_field(domain, rng, 1.0, smooth=smooth)
    if single_mode:  # a lone mode meets the bound where the grid hits its peak
        keep = rng.integers(u.data.size)
        u = SpectralField(domain, np.where(np.arange(u.data.size) == keep, u.data, 0.0))
    sup = math.sqrt(2.0 / domain.volume) * np.abs(u.data).sum()
    assert np.abs(to_grid(u).values).max() <= sup * (1.0 + 1e-12)


@JACOBIAN_CASES
def test_weyl_bound_holds_for_the_dense_nonlinear_part(domain, p, rng):
    u = random_field(domain, rng, 0.6)
    jac = _Jacobian(u, p)
    mat = jac.apply(np.eye(jac.n))
    nonlinear = 0.5 * (mat + mat.T) - np.diag(jac.beta)
    assert np.linalg.norm(nonlinear, 2) <= _weyl_bound(u, p.mu)


@pytest.mark.parametrize("d,lam", [
    (D2_BAND16, 0.2),
    # K_c = 2: the coarsest level has band 16, 544 modes, so the dense start
    # runs on its half
    (Domain.make(2, 4 * math.pi, "odd-periodic", grid_n=64, band=24), 0.3),
], ids=["2pi-band16", "4pi-band24"])
def test_warm_started_lobpcg_matches_cold_start(d, lam, monkeypatch):
    assert steady._start_level(d).band == (8, 8)
    states = find_all(d, Params(lam), n_seeds=20)
    calls = _count_lobpcg_calls(monkeypatch)
    steps, real = [], spla.lobpcg

    def recorded(*args, **kwargs):
        evals, vecs, history = real(*args, retResidualNormsHistory=True, **kwargs)
        steps.append(len(history))
        return evals, vecs

    monkeypatch.setattr(steady.spla, "lobpcg", recorded)
    warm = [stability(s) for s in states if s.norm > 1e-6]
    assert {s.morse_index for s in warm} == {0, 1}
    assert [band for band, _ in calls] == [d.band] * len(warm)  # one full-band pass each
    assert max(steps) <= 6
    monkeypatch.setattr(steady, "_start_level", lambda domain: None)  # unit vectors
    calls.clear()
    steps.clear()
    cold = [stability(s) for s in states if s.norm > 1e-6]
    assert {band for band, _ in calls} == {d.band}
    assert min(steps) > 6
    for w, c in zip(warm, cold):
        assert w.morse_index == c.morse_index
        assert_allclose(w.leading_eigs, c.leading_eigs, rtol=0, atol=1e-10)


@pytest.mark.parametrize("d,lam", [
    (Domain.make(2, 4 * math.pi, "odd-periodic", grid_n=128, band=32), 0.1),
    # three levels: bands 8, 10 and 40
    (Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=128, band=40), 0.2),
    # long boxes, critical index 13 and 8: coarse bands 104 and 64, and
    # none at band 48, which cannot hold 8 * 13
    (Domain.make(1, 40.0, "dirichlet", grid_n=256, band=128), 0.05),
    (Domain.make(1, 40.0, "dirichlet", grid_n=128, band=48), 0.01),
    (Domain.make(1, 16 * math.pi, "odd-periodic", grid_n=512, band=128), 0.1),
    (Domain.make(1, 16 * math.pi, "periodic", grid_n=512, band=128), 0.1),
], ids=["odd-periodic-2d", "odd-periodic-2d-three-levels", "dirichlet-long",
        "dirichlet-long-band48", "odd-periodic-long", "periodic-long"])
def test_sequenced_census_finds_every_plain_state(d, lam, monkeypatch):
    # nested iteration may reach states plain Newton misses from the same
    # seeds, but it must lose none, and it accepts on the full band only
    p = Params(lam)
    sequenced = find_all(d, p, n_seeds=40)
    for q in sequenced:
        assert q.state.domain == d
        assert residual(q.state, p).norm() <= steady.NEWTON_TOL
    monkeypatch.setattr(steady, "_levels", lambda domain: [domain])
    plain = find_all(d, p, n_seeds=40)
    assert any(s.norm > 1e-6 for s in plain)
    for s in plain:
        if d.bc is BoundaryCondition.PERIODIC:
            # a translation circle is closed by no grid shift, which is all
            # orbit_distance tries; the states on it share their norm
            assert min(abs(s.norm - q.norm) for q in sequenced) <= 1e-10
        else:
            assert min(orbit_distance(s.state, q.state, p) for q in sequenced) <= 1e-10
