"""Time stepping, decay-bound monitors, Lyapunov functional, basins."""

import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shbif import dynamics
from shbif.dynamics import (
    DECAY_TOL,
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


def test_bound_check_reports_margin_after_start(rng):
    # worst_ratio is floored at its t = 0 value; the margin below it is
    # the largest psi / bound over the samples after t = 0
    p = Params(8.0)
    u0 = random_field(D, rng, 1.0, unit_norm=True)
    rep = integrate(u0, p, StepperConfig(dt=1e-3, t_end=2.0, sample_every=100))
    bc = rep.bound_check
    psi = rep.l2_norms**2
    bound = psi[0] * np.exp(2.0 * (p.lam - 9.0) * rep.times)
    assert bc.worst_ratio == 1.0
    assert bc.worst_ratio_after_start == pytest.approx(np.max(psi[1:] / bound[1:]), rel=1e-12)
    assert 0.0 < bc.worst_ratio_after_start < 1.0
    assert bc.as_dict()["worst_ratio_after_start"] == bc.worst_ratio_after_start


# _bound_check on hand-built series: psi = r * bound at t > 0, so the
# derived ratios are r by construction
LAM_C, T = 9.0, np.array([0.0, 0.5, 1.0, 2.0])


def _closed_form_bounds(regime, lam, psi0, vol):
    """(derived, printed-constant) bound on psi at the times T."""
    if regime == "subcritical":
        b = psi0 * np.exp(2.0 * (lam - LAM_C) * T)
        return b, b
    if regime == "critical":
        return psi0 / (2.0 / vol * psi0 * T + 1.0), psi0 / (2.0 * vol * psi0 * T + 1.0)
    return (np.full(T.shape, max(psi0, (lam - LAM_C) * vol)),
            np.full(T.shape, max(psi0, (lam - LAM_C) / vol)))


@pytest.mark.parametrize("lam,regime", [(8.0, "subcritical"), (9.0, "critical"),
                                        (9.5, "supercritical")])
@pytest.mark.parametrize("r", [[1.0, 0.5, 0.9, 0.7], [1.0, 0.5, 1.2, 0.7]],
                         ids=["holds", "broken"])
def test_bound_check_matches_closed_forms(lam, regime, r):
    psi0, vol = 0.25, D.volume  # below both supercritical caps
    derived, printed = _closed_form_bounds(regime, lam, psi0, vol)
    psi = np.asarray(r) * derived
    psi[0] = psi0
    bc = dynamics._bound_check(T, np.sqrt(psi), lam, LAM_C, vol)
    assert bc.regime == regime
    assert bc.worst_ratio_after_start == pytest.approx(max(r[1:]), rel=1e-12)
    assert bc.worst_ratio == pytest.approx(max(r), rel=1e-12)
    expected_p = max(1.0, np.max(psi[1:] / printed[1:]))
    assert bc.worst_ratio_printed == pytest.approx(expected_p, rel=1e-12)
    if regime != "subcritical":
        assert bc.worst_ratio_printed != pytest.approx(bc.worst_ratio, rel=1e-6)
    assert bc.violated == (max(r) > 1.0 + DECAY_TOL[regime])


@pytest.mark.parametrize("lam", [8.0, 9.0, 9.5])
def test_bound_check_degenerate_series(lam):
    zero = dynamics._bound_check(T, np.array([0.0, 0.1, 0.2, 0.3]), lam, LAM_C, D.volume)
    assert (zero.worst_ratio, zero.worst_ratio_printed, zero.worst_ratio_after_start) == (0, 0, 0)
    one = dynamics._bound_check(T[:1], np.array([0.7]), lam, LAM_C, D.volume)
    assert (one.worst_ratio, one.worst_ratio_printed, one.worst_ratio_after_start) == (1, 1, 0)


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
    assert basin_probe(seeds, p, references) == ["attractor", "unresolved"]


def _reference_etdrk2(x, d, p, dt, steps):
    """ETDRK2 on the rows of x from the public products and the phi weights."""
    E, f1, f2 = dynamics._weights(d, p.lam, dt)

    def nonlinear(y):
        rows = [SpectralField(d, r) for r in np.reshape(y, (-1, y.shape[-1]))]
        out = [p.mu * square(f).data - cube(f).data for f in rows]
        return np.reshape(out, y.shape)

    for _ in range(steps):
        nx = nonlinear(x)
        a = E * x + f1 * nx
        x = a + f2 * (nonlinear(a) - nx)
    return x


# the one step loop on every boundary condition: 0.5 above lambda_c
@pytest.mark.parametrize("d,lam,mu", [
    (D, 9.5, 0.0),
    (D, 9.5, 0.5),
    (Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=32, band=8), 0.5, 0.0),
    (Domain.make(1, 4 * math.pi, "periodic", grid_n=64, band=16), 0.5, 0.0),
    (Domain.make(1, math.pi / 2, "dirichlet", grid_n=512, band=128), 9.5, 0.5),
], ids=["0.0", "0.5", "odd-periodic-2d", "periodic-1d", "dirichlet-band128"])
@pytest.mark.parametrize("batch", [None, 3])
def test_dirichlet_advance_matches_reference(d, lam, mu, batch, rng):
    p, dt = Params(lam, mu), 1e-3
    fields = [random_field(d, rng, 1.0, unit_norm=True) for _ in range(batch or 1)]
    x = fields[0].data if batch is None else np.stack([f.data for f in fields])
    x_in = x.copy()
    out = dynamics._etd_kernel(_product_maps(d), d, p, dt)(x, 500)
    ref = _reference_etdrk2(x, d, p, dt, 500)
    np.testing.assert_array_equal(x, x_in)
    assert out.shape == x.shape
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_dirichlet_advance_memory_flat_in_steps(rng):
    # the step loop runs on buffers made once per call: the peak does not
    # grow with the number of steps
    advance = dynamics._etd_kernel(_product_maps(D), D, Params(9.5, 0.5), 1e-3)
    for x in (random_field(D, rng, 1.0).data, rng.standard_normal((3, D.band[0])) * 0.1):
        advance(x, 1)
        peaks = []
        for steps in (20, 2000):
            tracemalloc.start()
            try:
                advance(x, steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4096


_KERNEL_DOMAINS = [D, Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=32, band=8)]


@pytest.mark.parametrize("d", _KERNEL_DOMAINS, ids=["dirichlet", "odd-periodic-2d"])
@pytest.mark.parametrize("batch", [None, 3])
def test_advance_zero_steps_returns_a_copy(d, batch, rng):
    fields = [random_field(d, rng, 1.0) for _ in range(batch or 1)]
    x = fields[0].data if batch is None else np.stack([f.data for f in fields])
    out = dynamics._etd_kernel(_product_maps(d), d, Params(0.5), 1e-3)(x, 0)
    np.testing.assert_array_equal(out, x)
    assert not np.shares_memory(out, x)


@pytest.mark.parametrize("d,mu", [(D, 0.0), (D, 0.5), (_KERNEL_DOMAINS[1], 0.0)],
                         ids=["dirichlet-mu0", "dirichlet-mu0.5", "odd-periodic-2d"])
def test_advance_ignores_memory_layout(d, mu, rng):
    # a Fortran-ordered batch, a row-strided batch and a strided row step
    # bit-identically to their C-contiguous copies
    advance = dynamics._etd_kernel(_product_maps(d), d, Params(0.5, mu), 1e-3)
    wide = np.stack([random_field(d, rng, 1.0).data for _ in range(6)])
    for x in (np.asfortranarray(wide[:3]), wide[::2], np.asfortranarray(wide)[4]):
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(advance(x, 50), advance(np.ascontiguousarray(x), 50))


@pytest.mark.parametrize("mu", [0.0, 0.5])
@pytest.mark.parametrize("batch", [None, 3])
def test_dirichlet_step_call_budget(monkeypatch, mu, batch, rng):
    # a step at band 16 is bound by its calls into numpy: counting wrappers
    # stand in for the ufuncs and np.dot, and a profile hook counts the
    # builtin calls (such as a matrix's bound dot) the step loop makes
    calls = Counter()

    def counting(f):
        def wrapper(*args, **kwargs):
            calls[f.__name__] += 1
            return f(*args, **kwargs)
        return wrapper

    def hook(frame, event, arg):
        if event == "c_call" and frame.f_code.co_name == "advance":
            calls[arg.__qualname__] += 1

    for name in ("dot", "multiply", "add", "subtract"):
        monkeypatch.setattr(np, name, counting(getattr(np, name)))
    dynamics._etd_kernel.cache_clear()
    try:
        advance = dynamics._etd_kernel(_product_maps(D), D, Params(9.5, mu), 1e-3)
        x = random_field(D, rng, 1.0).data if batch is None else (
            np.stack([random_field(D, rng, 1.0).data for _ in range(batch)]))
        counts = []
        for steps in (10, 20):
            calls.clear()
            sys.setprofile(hook)
            try:
                advance(x, steps)
            finally:
                sys.setprofile(None)
            counts.append(sum(calls.values()))
    finally:
        dynamics._etd_kernel.cache_clear()  # no kernel keeps the wrappers
    assert (counts[1] - counts[0]) / 10 <= 8


@pytest.mark.parametrize("steps", [1, 5])
def test_fourier_advance_synthesizes_twice_a_step(steps, rng):
    # each stage synthesizes its values once; the last step's x+ is not
    d = _KERNEL_DOMAINS[1]
    synthesize, odd, even = _product_maps(d)
    calls = []

    def counted(x):
        calls.append(x.shape)
        return synthesize(x)

    advance = dynamics._etd_kernel((counted, odd, even), d, Params(0.5), 1e-3)
    x = random_field(d, rng, 1.0).data
    plain = dynamics._etd_kernel(_product_maps(d), d, Params(0.5), 1e-3)
    np.testing.assert_array_equal(advance(x, steps), plain(x, steps))
    assert len(calls) == 2 * steps
