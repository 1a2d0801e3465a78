"""Time stepping, decay-bound monitors, Lyapunov functional, basins."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shbif import dynamics
from shbif.dynamics import (
    Params,
    StepperConfig,
    basin_probe,
    integrate,
    lyapunov,
    step,
)
from shbif.errors import NonFinite, RangeError
from shbif.linear_analysis import eigenfunction, growth_array, growth_rate, principal
from shbif.spectral import (
    Domain,
    SpectralField,
    _product_maps,
    cube,
    inner,
    lattice_symbol,
    random_field,
    square,
)
from shbif.steady import default_seed_scale, newton

D = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)


def test_zero_state_invariant():
    u = SpectralField.zeros(D)
    out = step(u, Params(9.5), 1e-2)
    assert np.all(out.data == 0)


def test_single_mode_linear_step_exact():
    # at amplitude 1e-8 the cubic term is 1e-16 of the linear one
    amp = 1e-8
    u = amp * eigenfunction(D, 2)
    dt = 7e-3
    out = step(u, Params(9.5), dt)
    b = growth_rate(D, 2, 9.5)
    assert_allclose(out.coeff(2) / amp, math.exp(b * dt), rtol=1e-14)


def test_step_odd_symmetry(rng):
    u = random_field(D, rng, 0.7)
    p = Params(9.5)
    a = step(-1.0 * u, p, 1e-3)
    b = -1.0 * step(u, p, 1e-3)
    assert (a - b).norm() <= 1e-12


def test_small_amplitude_linear_regime(rng):
    u = random_field(D, rng, 1.0, unit_norm=True) * 1e-6
    p = Params(9.0)
    dt = 1e-3
    out = step(u, p, dt)
    lin = np.exp(dt * growth_array(D, p.lam)) * u.data
    # nonlinear correction is cubic in the amplitude
    assert np.linalg.norm(out.data - lin) <= 10 * (1e-6) ** 3


def test_mu_requires_dirichlet():
    dp = Domain.make(1, 2 * math.pi, "periodic", grid_n=32, band=8)
    u = SpectralField.zeros(dp)
    with pytest.raises(RangeError):
        step(u, Params(1.0, mu=0.5), 1e-3)
    with pytest.raises(RangeError):
        Params(1.0, mu=-0.2)


def test_scheme_validation():
    # ETDRK2 is the only scheme
    for scheme in ("rk4", "etd1"):
        with pytest.raises(RangeError):
            StepperConfig(dt=1e-3, t_end=1.0, scheme=scheme)
    with pytest.raises(RangeError):
        StepperConfig(dt=-1e-3, t_end=1.0)


@pytest.mark.parametrize("t_end", [0.0, -5.0])
def test_stepper_rejects_nonpositive_t_end(t_end):
    with pytest.raises(RangeError):
        StepperConfig(t_end=t_end)


def test_integrate_subcritical_bound(rng):
    p = Params(8.0)
    u0 = random_field(D, rng, 1.0, unit_norm=True)
    rep = integrate(u0, p, StepperConfig(dt=1e-3, t_end=2.0, sample_every=100))
    assert rep.bound_check.regime == "subcritical"
    assert rep.bound_check.worst_ratio <= 1.0 + 1e-6
    assert not rep.bound_check.violated


def test_integrate_supercritical_bound(rng):
    p = Params(9.5)
    cap = (9.5 - 9.0) * D.volume
    for _ in range(50):
        u0 = random_field(D, rng, 1.0, unit_norm=True) * float(rng.uniform(0.3, 1.5))
        rep = integrate(u0, p, StepperConfig(dt=2e-3, t_end=4.0, sample_every=100))
        assert rep.bound_check.regime == "supercritical"
        psi = rep.l2_norms**2
        assert np.all(psi <= max(psi[0], cap) + 1e-9)
        assert rep.bound_check.worst_ratio <= 1.0 + 1e-9


def test_integrate_converges_to_newton_branch():
    p = Params(9.5)
    u0 = 0.1 * eigenfunction(D, 1)
    rep = integrate(u0, p, StepperConfig(dt=2e-3, t_end=60.0, sample_every=100))
    target = newton(0.7 * eigenfunction(D, 1), p)
    assert abs(rep.l2_norms[-1] - target.norm) <= 1e-6


def test_integrate_steady_detection():
    p = Params(9.5)
    u0 = 0.5 * eigenfunction(D, 1)
    rep = integrate(u0, p, StepperConfig(dt=2e-3, t_end=500.0, sample_every=100))
    assert rep.stopped_steady
    assert rep.times[-1] < 500.0


def test_lyapunov_zero_and_decrease(rng):
    p = Params(9.3, 0.4)
    assert lyapunov(SpectralField.zeros(D), p) == 0.0
    u = random_field(D, rng, 0.8, smooth=True)
    f_prev = lyapunov(u, p)
    for _ in range(50):
        u = step(u, p, 1e-3)
        f_new = lyapunov(u, p)
        assert f_new <= f_prev + 1e-10
        f_prev = f_new


@pytest.mark.parametrize("grid_n,band", [(64, 16), (32, 16), (16, 8)])
def test_lyapunov_quartic_quadrature_exact(rng, grid_n, band):
    d = Domain.make(1, 2.3, "dirichlet", grid_n=grid_n, band=band)
    u = random_field(d, rng, 3.0, smooth=False)
    sym = lattice_symbol(d)
    for mu in (0.0, 0.5):
        p = Params(9.0, mu)
        ref = (0.5 * float(sym @ u.data**2) - 0.5 * p.lam * float(u.data @ u.data)
               + 0.25 * inner(cube(u), u) - (mu / 3.0) * inner(square(u), u))
        assert lyapunov(u, p) == pytest.approx(ref, rel=1e-12)


def test_energy_monitor_catches_wrong_cube(monkeypatch):
    # a stepper whose cube projection is 20 % too large is still a gradient
    # flow, of the wrong energy; the monitor must not share its operator
    synthesize, odd, even = _product_maps(D)
    monkeypatch.setattr(dynamics, "_product_maps",
                        lambda d: (synthesize, lambda v: 1.2 * odd(v), even))
    u0 = random_field(D, np.random.default_rng(1), 1.0, unit_norm=True)
    cfg = StepperConfig(dt=1e-3, t_end=10.0, sample_every=50)
    rep = integrate(u0, Params(9.5), cfg)
    assert np.max(np.diff(rep.lyapunov_values)) > 1e-6


def test_lyapunov_negative_at_bifurcated_state():
    p = Params(9.5)
    s = newton(0.7 * eigenfunction(D, 1), p)
    assert lyapunov(s.state, p) < 0.0


def _report_deviation(rep, solo):
    """Largest relative deviation of a batch member's report from its solo run."""
    assert rep.stopped_steady == solo.stopped_steady
    assert rep.bound_check.regime == solo.bound_check.regime
    np.testing.assert_array_equal(rep.times, solo.times)

    def rel(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))

    return max(rel(rep.l2_norms, solo.l2_norms),
               rel(rep.lyapunov_values, solo.lyapunov_values),
               rel(rep.bound_check.worst_ratio, solo.bound_check.worst_ratio),
               rel(rep.bound_check.worst_ratio_printed, solo.bound_check.worst_ratio_printed),
               rel(rep.final_state.data, solo.final_state.data))


def test_overflow_raises_nonfinite():
    # 8 phi1 at dt = 0.05 overflows at the fourth step: between samples for
    # sample_every 2 and 3, at a sample for 1
    dt = 0.05
    u0 = 8.0 * eigenfunction(D, 1)
    finite = 3.0 * eigenfunction(D, 1)
    for mu in (0.0, 0.5):
        p = Params(9.5, mu)
        u = u0
        with pytest.raises(NonFinite):
            for _ in range(4):
                u = step(u, p, dt)
        for sample_every in (1, 2, 3):
            cfg = StepperConfig(dt=dt, t_end=1.0, sample_every=sample_every)
            with pytest.raises(NonFinite):
                integrate(u0, p, cfg)
            with pytest.raises(NonFinite):
                integrate([finite, u0], p, cfg)
            assert integrate([finite], p, cfg)[0].times[-1] == pytest.approx(1.0)


def _settled(d, p):
    mode = principal(d).critical_modes[0]
    return newton(default_seed_scale(d, p) * eigenfunction(d, mode), p).state


@pytest.mark.parametrize("case", ["dirichlet-mu0", "dirichlet-mu0.5", "odd-periodic-2d-band8"])
def test_batch_matches_solo_runs(case):
    if case.startswith("dirichlet"):
        d, p = D, Params(9.5, 0.5 if case.endswith("0.5") else 0.0)
        cfg = StepperConfig(dt=2e-3, t_end=4.0, sample_every=50)
    else:  # the reduced-shadowing domain
        d, p = Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=32, band=8), Params(0.01)
        cfg = StepperConfig(dt=5e-3, t_end=4.0, sample_every=40)
    rng = np.random.default_rng(7)
    # the steady state settles after 10 samples and the perturbed one a few
    # samples later, from another row, while the others keep running
    steady = _settled(d, p)
    fields = [random_field(d, rng, 1.0, unit_norm=True) * float(a) for a in (0.2, 0.6, 1.2)]
    fields[1:1] = [steady, steady + 1e-8 * random_field(d, rng, 1.0, unit_norm=True)]
    reports = integrate(fields, p, cfg)
    solos = [integrate(f, p, cfg) for f in fields]
    assert [r.stopped_steady for r in solos] == [False, True, True, False, False]
    assert solos[1].times[-1] < solos[2].times[-1] < cfg.t_end
    worst = max(_report_deviation(r, s) for r, s in zip(reports, solos))
    assert worst <= 1e-12


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_integrate_matches_repeated_steps(mu, rng):
    # integrate and step advance through the same kernel
    p = Params(9.5, mu)
    u0 = random_field(D, rng, 1.0, unit_norm=True)
    n, dt = 300, 2e-3
    rep = integrate(u0, p, StepperConfig(dt=dt, t_end=n * dt, sample_every=40))
    u = u0
    for _ in range(n):
        u = step(u, p, dt)
    assert rep.times[-1] == pytest.approx(n * dt)
    assert np.max(np.abs(rep.final_state.data - u.data)) <= 1e-14


def test_basin_probe_pitchfork():
    p = Params(9.5)
    eps = 0.05
    phi = eigenfunction(D, 1)
    u1 = newton(default_seed_scale(D, p) * phi, p).state
    references = {"trivial": SpectralField.zeros(D), "u1": u1, "u2": -1.0 * u1}
    seeds = [eps * phi, -eps * phi, SpectralField.zeros(D)]
    assert basin_probe(seeds, p, references) == ["u1", "u2", "trivial"]


def test_basin_probe_gsh_labels():
    p = Params(9.1, mu=1.0)
    phi = eigenfunction(D, 1)
    lam_c = principal(D).lambda_c
    amp = -(p.lam - lam_c) / (p.mu * inner(square(phi), phi))
    references = {"attractor": newton(amp * phi, p).state, "trivial": SpectralField.zeros(D)}
    # 0.2 phi1 crosses the stable manifold of 0 and settles on no reference
    seeds = [-0.05 * phi, 0.2 * phi]
    assert basin_probe(seeds, p, references, t_max=120.0) == ["attractor", "unresolved"]
