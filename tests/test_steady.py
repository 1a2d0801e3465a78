"""Newton solves, stability, census, continuation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shbif import steady
from shbif.dynamics import Params
from shbif.errors import DegenerateState, NoConvergence
from shbif.linear_analysis import coarse_domain, eigenfunction, growth_array, growth_rate
from shbif.spectral import (
    BoundaryCondition,
    Domain,
    SpectralField,
    cube,
    inner,
    random_field,
    translate,
    triple,
)
from shbif.steady import (
    WEYL_TOL,
    SteadyState,
    _Jacobian,
    _residual,
    _solve_newton_system,
    _weyl_bound,
    continue_branch,
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


def test_newton_no_convergence():
    with pytest.raises(NoConvergence):
        newton(5.0 * eigenfunction(D, 1), P95, max_iter=2)


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


def test_sign_equivariance():
    s = newton(0.8 * eigenfunction(D, 1), P95)
    mirrored = SpectralField(D, -s.state.data)
    assert residual(mirrored, P95).norm() < 1e-10
    e1 = stability(s).leading_eigs
    e2 = stability(SteadyState(mirrored, s.residual, 9.5, 0.0)).leading_eigs
    assert_allclose(e1, e2, atol=1e-8)


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


def test_find_all_seed_count_stability():
    a = find_all(D, P95, n_seeds=100, rng_seed=11, dedup="exact", with_stability=False)
    b = find_all(D, P95, n_seeds=200, rng_seed=12, dedup="exact", with_stability=False)
    assert len(a) == len(b)


def test_find_all_2d_census_small_band():
    d = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=64, band=16)
    states = find_all(d, Params(0.2), n_seeds=40, rng_seed=5, jobs=2)
    nz = [s for s in states if s.norm > 1e-6]
    assert len(nz) == 4
    morses = sorted(s.morse_index for s in nz)
    assert morses == [0, 0, 1, 1]
    assert index_sum(nz) == 0


def test_find_all_pool_matches_serial():
    # with jobs > 1 one pool runs the Newton solves and then the stability calls
    d = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=64, band=16)
    serial, pooled = (find_all(d, Params(0.2), n_seeds=12, rng_seed=5, jobs=jobs)
                      for jobs in (1, 2))
    assert len(serial) == len(pooled) >= 3
    for a, b in zip(serial, pooled):
        assert np.array_equal(a.state.data, b.state.data)
        assert a.leading_eigs == b.leading_eigs
        assert a.morse_index == b.morse_index


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


def test_continue_branch_detects_crossing():
    start = stability(newton(SpectralField.zeros(D), Params(8.7)))
    br = continue_branch(start, 9.4, 0.1)
    assert br.stop_reason == "bifurcation"
    assert abs(br.crossing_lambda - 9.0) <= 0.1 + 1e-12


def test_continue_branch_pitchfork_slope():
    start = stability(newton(0.8 * eigenfunction(D, 1), P95))
    br = continue_branch(start, 9.05, 0.05, stop_at_crossing=False)
    assert br.stop_reason == "reached-end"
    lams = np.array([lam for lam, _ in br.points])
    amps2 = np.array([(s.state.coeff(1) * math.sqrt(2 / D.length[0])) ** 2
                      for _, s in br.points])
    slope = np.polyfit(lams - 9.0, amps2, 1)[0]
    assert abs(slope - 4 / 3) <= 0.03 * 4 / 3
    # consecutive points stay close along the branch
    norms = [s.norm for _, s in br.points]
    assert max(abs(np.diff(norms))) < 0.5


def test_continue_branch_gsh_through_critical():
    p = Params(8.9, mu=1.0)
    s0 = stability(newton(0.12 * eigenfunction(D, 1), p))
    assert s0.morse_index == 1
    br = continue_branch(s0, 9.1, 0.05, stop_at_crossing=False)
    assert br.stop_reason == "reached-end"
    assert br.crossing_lambda is not None
    amps = {round(lam, 5): s.state.coeff(1) for lam, s in br.points}
    assert amps[8.9] > 0
    assert abs(amps[9.0]) <= 1e-5  # branch passes through the trivial state
    assert amps[9.1] < 0
    final = stability(br.points[-1][1])
    assert final.morse_index == 0


@pytest.mark.parametrize("case", ["dirichlet-saddle", "odd-periodic-mixed"])
def test_inner_solve_meets_newton_bound(case):
    # The bound newton relies on: the inner solve returns a step delta with
    # |J delta + F| <= |F| / 2, or raises SingularJacobian.  MINRES stops on
    # its rtol = eta in the preconditioned norm, so eta itself does not bound
    # the Euclidean residual; the step must still cut the residual.
    if case == "dirichlet-saddle":
        d, p = D, Params(8.9, 1.0)
        u = 0.12 * eigenfunction(D, 1)  # near the mu = 1, lambda = 8.9 saddle
    else:
        d, p = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=64, band=16), Params(0.2)
        u = math.sqrt(2 * d.volume * 0.2 / 9) * (
            eigenfunction(d, ("sin", (1, 0))) + eigenfunction(d, ("sin", (0, 1))))
    f = residual(u, p)
    eta = min(0.1, max(1e-4, f.norm()))  # the forcing term newton passes
    jac = _Jacobian(u, p)
    delta = _solve_newton_system(jac, -f.data, eta)
    assert np.linalg.norm(jac.apply(delta) + f.data) <= 0.5 * f.norm()
    assert residual(u + SpectralField(d, delta), p).norm() < 0.1 * f.norm()


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
    calls = []  # (band, k) per LOBPCG run, coarse warm starts included
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


def test_stability_warns_at_the_window_cap(rng, monkeypatch):
    # a spectrum whose leading eigenvalues are all positive never ends the
    # k-doubling loop on a negative one; the cap of 64 stops it
    seen = []

    def all_positive(jac, k):
        seen.append(k)
        return np.linspace(1.0, 2.0, k), np.eye(jac.n, k)

    monkeypatch.setattr(steady, "_leading_eigs_lobpcg", all_positive)
    with pytest.warns(RuntimeWarning, match="Morse index may be truncated"):
        s = stability(_scaled_state(1e-3, rng))
    assert seen == [10, 20, 40, 64]
    assert s.morse_index == 64


@pytest.mark.parametrize("d,lam", [
    (D2_BAND16, 0.2),
    (Domain.make(2, 4 * math.pi, "odd-periodic", grid_n=64, band=24), 0.3),  # K_c = 2
], ids=["2pi-band16", "4pi-band24"])
def test_warm_started_lobpcg_matches_cold_start(d, lam, monkeypatch):
    states = find_all(d, Params(lam), n_seeds=20, with_stability=False)
    calls = _count_lobpcg_calls(monkeypatch)
    warm = [stability(s) for s in states if s.norm > 1e-6]
    assert {s.morse_index for s in warm} == {0, 1}
    assert (coarse_domain(d).band, 10) in calls  # the block was seeded from there
    monkeypatch.setattr(steady, "coarse_domain", lambda domain: None)
    calls.clear()
    cold = [stability(s) for s in states if s.norm > 1e-6]
    assert {band for band, _ in calls} == {d.band}
    for w, c in zip(warm, cold):
        assert w.morse_index == c.morse_index
        assert_allclose(w.leading_eigs, c.leading_eigs, rtol=0, atol=1e-7)


@pytest.mark.parametrize("d,lam", [
    (Domain.make(2, 4 * math.pi, "odd-periodic", grid_n=128, band=32), 0.1),
    # long boxes, critical index 13 and 8: coarse bands 104 and 64, and
    # none at band 48, which cannot hold 8 * 13
    (Domain.make(1, 40.0, "dirichlet", grid_n=256, band=128), 0.05),
    (Domain.make(1, 40.0, "dirichlet", grid_n=128, band=48), 0.01),
    (Domain.make(1, 16 * math.pi, "odd-periodic", grid_n=512, band=128), 0.1),
    (Domain.make(1, 16 * math.pi, "periodic", grid_n=512, band=128), 0.1),
], ids=["odd-periodic-2d", "dirichlet-long", "dirichlet-long-band48",
        "odd-periodic-long", "periodic-long"])
def test_sequenced_census_finds_every_plain_state(d, lam, monkeypatch):
    # nested iteration may reach states plain Newton misses from the same
    # seeds, but it must lose none, and it accepts on the full band only
    p = Params(lam)
    sequenced = find_all(d, p, n_seeds=40, with_stability=False)
    for q in sequenced:
        assert q.state.domain == d
        assert residual(q.state, p).norm() <= steady.NEWTON_TOL
    monkeypatch.setattr(steady, "coarse_domain", lambda domain: None)
    plain = find_all(d, p, n_seeds=40, with_stability=False)
    assert any(s.norm > 1e-6 for s in plain)
    for s in plain:
        if d.bc is BoundaryCondition.PERIODIC:
            # a translation circle is closed by no grid shift, which is all
            # orbit_distance tries; the states on it share their norm
            assert min(abs(s.norm - q.norm) for q in sequenced) <= 1e-10
        else:
            assert min(orbit_distance(s.state, q.state, p) for q in sequenced) <= 1e-10


def test_stability_warns_on_arpack_fallback(rng, monkeypatch):
    s = _scaled_state(1e-3, rng)
    want = stability(s)

    def failing_lobpcg(*args, **kwargs):
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(steady.spla, "lobpcg", failing_lobpcg)
    with pytest.warns(RuntimeWarning, match="falling back to ARPACK"):
        got = stability(s)
    assert got.morse_index == want.morse_index
    assert_allclose(got.leading_eigs, want.leading_eigs, rtol=0, atol=1e-6)
