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
from shbif.linear_analysis import eigenfunction, growth_rate
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
from shbif.steady import newton

D = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)


def test_zero_state_invariant():
    u = SpectralField.zeros(D)
    out = step(u, Params(9.5), 1e-2)
    assert np.all(out.data == 0)


def test_single_mode_linear_step_exact():
    u = eigenfunction(D, 2)
    dt = 7e-3
    out = step(u, Params(9.5), dt, include_nonlinear=False)
    b = growth_rate(D, 2, 9.5)
    assert_allclose(out.coeff(2), math.exp(b * dt), rtol=1e-14)


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
    lin = step(u, p, dt, include_nonlinear=False)
    # nonlinear correction is cubic in the amplitude
    assert (out - lin).norm() <= 10 * (1e-6) ** 3


def test_mu_requires_dirichlet():
    dp = Domain.make(1, 2 * math.pi, "periodic", grid_n=32, band=8)
    u = SpectralField.zeros(dp)
    with pytest.raises(RangeError):
        step(u, Params(1.0, mu=0.5), 1e-3)
    with pytest.raises(RangeError):
        Params(1.0, mu=-0.2)


def test_scheme_validation():
    with pytest.raises(RangeError):
        StepperConfig(dt=1e-3, t_end=1.0, scheme="rk4")
    with pytest.raises(RangeError):
        StepperConfig(dt=-1e-3, t_end=1.0)


def test_etd1_first_order():
    p = Params(9.5)
    u0 = 0.4 * eigenfunction(D, 1)
    t_end = 0.2

    def run(n):
        u = u0
        for _ in range(n):
            u = step(u, p, t_end / n, scheme="etd1")
        return u

    ref = run(20000)
    errs = [(run(n) - ref).norm() for n in (50, 200, 800)]
    slope = np.polyfit(np.log([t_end / n for n in (50, 200, 800)]), np.log(errs), 1)[0]
    assert abs(slope - 1.0) <= 0.25


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


def test_nonfinite_carries_partial_report():
    u0 = 5.0 * eigenfunction(D, 1)
    for mu in (0.0, 0.5):
        with pytest.raises(NonFinite) as exc:
            integrate(u0, Params(9.5, mu), StepperConfig(dt=50.0, t_end=500.0, sample_every=1))
        report = exc.value.report
        assert report is not None
        assert len(report.times) >= 1
        assert np.all(np.isfinite(report.final_state.data))  # the last state before overflow


@pytest.mark.parametrize("scheme", ["etd1", "etdrk2"])
@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_integrate_matches_repeated_steps(scheme, mu, rng):
    # integrate and step advance through the same kernel
    p = Params(9.5, mu)
    u0 = random_field(D, rng, 1.0, unit_norm=True)
    n, dt = 300, 2e-3
    rep = integrate(u0, p, StepperConfig(dt=dt, t_end=n * dt, scheme=scheme, sample_every=40))
    u = u0
    for _ in range(n):
        u = step(u, p, dt, scheme=scheme)
    assert rep.times[-1] == pytest.approx(n * dt)
    assert np.max(np.abs(rep.final_state.data - u.data)) <= 1e-14


def test_basin_probe_pitchfork():
    p = Params(9.5)
    eps = 0.05
    phi = eigenfunction(D, 1)
    seeds = [eps * phi, -eps * phi, SpectralField.zeros(D)]
    labels, refs = basin_probe(p, seeds)
    assert labels[0] == "u1"
    assert labels[1] == "u2"
    assert labels[2] == "trivial"
    assert (refs["u1"] + refs["u2"]).norm() <= 1e-10


def test_basin_probe_gsh_labels():
    p = Params(9.1, mu=1.0)
    phi = eigenfunction(D, 1)
    seeds = [-0.05 * phi, 0.2 * phi]
    labels, _refs = basin_probe(p, seeds, t_max=120.0)
    assert labels[0] == "attractor"
    assert labels[1] == "divergent-side"
