"""Time integration of u_t = -(I+Laplace)^2 u + lambda u + mu u^2 - u^3.

The linear part is diagonal in the spectral basis and integrated exactly by
its exponential; the nonlinear part uses exponential time differencing with
the phi-function weights of Cox & Matthews (J. Comput. Phys. 176, 2002):

    ETD1:   u+ = E u + dt phi1 N(u)
    ETDRK2: a  = E u + dt phi1 N(u),  u+ = a + dt phi2 (N(a) - N(u))

with E = exp(dt beta), phi1(z) = (e^z - 1)/z, phi2(z) = (e^z - 1 - z)/z^2.
Stability is not limited by the stiff linear part, only accuracy by dt.

Runtime monitors check the L2 comparison bounds obtained from
d/dt |u|^2 <= 2(lambda - lambda_c)|u|^2 - (2/|Omega|)|u|^4 in the three
regimes of lambda vs lambda_c.  The printed-constant variants of those
bounds (with 2|Omega| in the critical denominator and sqrt((lambda -
lambda_c)/|Omega|) in the supercritical cap) are tracked alongside for
reference; the derived constants are the ones that follow from the energy
identity and are the ones tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFinite, RangeError
from .linear_analysis import principal
from .spectral import (
    BoundaryCondition,
    Domain,
    SpectralField,
    _product_maps,
    cube,
    inner,
    lattice_symbol,
    square,
    to_grid,
)

SCHEMES = ("etd1", "etdrk2")


@dataclass(frozen=True)
class Params:
    """Control parameter lambda and quadratic coefficient mu (0 = plain SH)."""

    lam: float
    mu: float = 0.0

    def __post_init__(self):
        if self.mu < 0:
            raise RangeError("mu must be >= 0")


def check_params(domain: Domain, p: Params):
    if p.mu > 0 and domain.bc is not BoundaryCondition.DIRICHLET:
        raise RangeError("mu > 0 requires the dirichlet boundary condition")


@dataclass(frozen=True)
class StepperConfig:
    dt: float = 1e-3
    t_end: float = 10.0
    scheme: str = "etdrk2"
    sample_every: int = 100

    def __post_init__(self):
        if self.dt <= 0:
            raise RangeError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise RangeError(f"scheme must be one of {SCHEMES}")
        if self.sample_every < 1:
            raise RangeError("sample_every must be >= 1")


def _phi1(z):
    small = np.abs(z) < 1e-5
    zs = np.where(small, 1.0, z)
    out = np.expm1(zs) / zs
    series = 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    return np.where(small, series, out)


def _phi2(z):
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = (np.expm1(zs) - zs) / (zs * zs)
    series = 0.5 + z / 6.0 + z * z / 24.0 + z * z * z / 120.0
    return np.where(small, series, out)


@lru_cache(maxsize=64)
def _weights(domain: Domain, lam: float, dt: float):
    z = dt * (lam - lattice_symbol(domain))
    return np.exp(z), dt * _phi1(z), dt * _phi2(z)


def _etd_kernel(domain: Domain, p: Params, dt: float, scheme: str):
    """The one ETD step, on coefficient arrays: x -> x advanced by dt.

    step and integrate both advance through it.  Overflow is not checked
    here; callers test the result with isfinite under np.errstate.
    """
    E, f1, f2 = _weights(domain, p.lam, dt)
    synthesize, odd, even = _product_maps(domain)
    mu = p.mu

    def nonlinear(x):
        g = synthesize(x)
        n = -odd(g * g * g)
        if mu != 0.0:
            n = n + mu * even(g * g)
        return n

    def etd1(x):
        return E * x + f1 * nonlinear(x)

    def etdrk2(x):
        nx = nonlinear(x)
        a = E * x + f1 * nx
        return a + f2 * (nonlinear(a) - nx)

    return etd1 if scheme == "etd1" else etdrk2


def step(u: SpectralField, p: Params, dt: float, *, scheme: str = "etdrk2",
         include_nonlinear: bool = True) -> SpectralField:
    """Advance one time step. include_nonlinear=False gives the pure linear flow."""
    check_params(u.domain, p)
    if not include_nonlinear:
        E, _, _ = _weights(u.domain, p.lam, dt)
        return SpectralField(u.domain, E * u.data)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _etd_kernel(u.domain, p, dt, scheme)(u.data)
    if not np.all(np.isfinite(out)):
        raise NonFinite("state overflowed during time step")
    return SpectralField(u.domain, out)


def lyapunov(u: SpectralField, p: Params) -> float:
    """Free energy F[u] = int 1/2 ((I+Lap)u)^2 - 1/2 lam u^2 - mu/3 u^3 + 1/4 u^4.

    The flow is the L2 gradient flow of F, so F decreases along trajectories.
    """
    flat = u.to_flat()
    d = u.domain
    sym = lattice_symbol(d)
    if d.is_dirichlet:
        quad = 0.5 * float(sym @ (u.data**2)) - 0.5 * p.lam * float(flat @ flat)
        # int u^4 by the DST-I quadrature on the collocation grid, exact for
        # band <= grid_n / 2 and independent of the product matrices that
        # step uses, so the energy monitor also checks the stepper's cube
        v2 = to_grid(u).values ** 2
        quart = 0.25 * d.length[0] / (d.grid_n[0] + 1) * float(v2 @ v2)
    else:
        quad = 0.5 * d.volume * float(np.sum(sym * np.abs(u.data) ** 2))
        quad -= 0.5 * p.lam * float(flat @ flat)
        quart = 0.25 * inner(cube(u), u)
    cub = 0.0
    if p.mu != 0.0:
        cub = -(p.mu / 3.0) * inner(square(u), u)
    return quad + cub + quart


@dataclass
class BoundCheck:
    """Worst observed/bound ratio for the regime-appropriate decay bound."""

    regime: str
    worst_ratio: float
    worst_ratio_printed: float

    @property
    def violated(self) -> bool:
        return self.worst_ratio > 1.0 + 1e-9

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "worst_ratio": self.worst_ratio,
            "worst_ratio_printed_constants": self.worst_ratio_printed,
            "violated": self.violated,
        }


@dataclass
class RunReport:
    """Trajectory samples plus bound monitors."""

    times: np.ndarray
    l2_norms: np.ndarray
    lyapunov_values: np.ndarray
    bound_check: BoundCheck
    final_state: SpectralField
    lambda_c: float
    params: Params
    stopped_steady: bool = False

    def as_dict(self) -> dict:
        return {
            "lambda": self.params.lam,
            "mu": self.params.mu,
            "lambda_c": self.lambda_c,
            "n_samples": int(len(self.times)),
            "t_final": float(self.times[-1]),
            "l2_final": float(self.l2_norms[-1]),
            "lyapunov_final": float(self.lyapunov_values[-1]),
            "stopped_steady": self.stopped_steady,
            "bound_check": self.bound_check.as_dict(),
        }


def _bound_ratios(regime, lam, lam_c, vol, psi0, t, psi):
    """(derived ratio, printed-constant ratio) of observed vs bound at time t."""
    if regime == "subcritical":
        b = psi0 * math.exp(2.0 * (lam - lam_c) * t)
        return psi / b, psi / b
    if regime == "critical":
        b = psi0 / ((2.0 / vol) * psi0 * t + 1.0)
        bp = psi0 / (2.0 * vol * psi0 * t + 1.0)
        return psi / b, psi / bp
    b = max(psi0, (lam - lam_c) * vol)
    bp = max(psi0, (lam - lam_c) / vol)
    return psi / b, psi / bp


def integrate(u0: SpectralField, p: Params, cfg: StepperConfig) -> RunReport:
    """Integrate to t_end with sampling and bound monitors.

    Stops early when |du/dt| stays below 1e-9 for 10 consecutive samples.
    A NonFinite blow-up propagates with the partial report attached.
    """
    check_params(u0.domain, p)
    lam_c = principal(u0.domain).lambda_c
    if abs(p.lam - lam_c) < 1e-12:
        regime = "critical"
    elif p.lam < lam_c:
        regime = "subcritical"
    else:
        regime = "supercritical"
    vol = u0.domain.volume
    psi0 = u0.norm() ** 2

    times = [0.0]
    norms = [u0.norm()]
    lyap = [lyapunov(u0, p)]
    worst = 1.0 if psi0 > 0 else 0.0
    worst_p = worst

    domain = u0.domain
    advance = _etd_kernel(domain, p, cfg.dt, cfg.scheme)
    x = u0.data
    nsteps = max(1, int(round(cfg.t_end / cfg.dt)))
    sample_dt = cfg.dt * cfg.sample_every
    quiet = 0
    stopped = False
    prev_sample = u0

    def finish(u):
        bc = BoundCheck(regime, worst, worst_p)
        return RunReport(
            np.asarray(times), np.asarray(norms), np.asarray(lyap),
            bc, u, lam_c, p, stopped_steady=stopped,
        )

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, nsteps + 1):
            nxt = advance(x)
            if not np.all(np.isfinite(nxt)):
                err = NonFinite("state overflowed during time step")
                err.report = finish(SpectralField(domain, x))
                raise err
            x = nxt
            if k % cfg.sample_every == 0 or k == nsteps:
                u = SpectralField(domain, x)
                t = k * cfg.dt
                times.append(t)
                norms.append(u.norm())
                lyap.append(lyapunov(u, p))
                if psi0 > 0:
                    r, rp = _bound_ratios(regime, p.lam, lam_c, vol, psi0, t, norms[-1] ** 2)
                    worst = max(worst, r)
                    worst_p = max(worst_p, rp)
                dudt = (u - prev_sample).norm() / sample_dt
                prev_sample = u
                quiet = quiet + 1 if dudt < 1e-9 else 0
                if quiet >= 10:
                    stopped = True
                    break
    return finish(SpectralField(domain, x))


def basin_probe(p: Params, seeds, *, references=None, t_max: float = 400.0,
                dt: float = 2e-3, tol: float = 1e-4):
    """Integrate each seed and label it by the steady state it approaches.

    Returns (labels, references) where references maps label -> SteadyState
    (or field) used for the distance test.  For mu = 0 the labels are
    'u1'/'u2'/'trivial'; for mu > 0 they are 'attractor'/'divergent-side'
    /'trivial'; anything unresolved within t_max is labelled 'unresolved'.
    """
    from . import steady as _steady  # local import: steady depends on spectral only

    if not seeds:
        return [], {}
    domain = seeds[0].domain
    check_params(domain, p)
    if references is None:
        references = {"trivial": SpectralField.zeros(domain)}
        summ = principal(domain)
        phi_c = SpectralField.from_modes(domain, {summ.critical_modes[0]: 1.0})
        if p.mu == 0.0:
            if p.lam > summ.lambda_c:
                amp = _steady.default_seed_scale(domain, p)
                s1 = _steady.newton(amp * phi_c, p)
                ref1 = s1.state if inner(s1.state, phi_c) > 0 else -1.0 * s1.state
                references["u1"] = ref1
                references["u2"] = -1.0 * ref1
        else:
            amp = -(p.lam - summ.lambda_c) / (
                p.mu * inner(square(phi_c), phi_c))
            if amp != 0.0:
                references["attractor"] = _steady.newton(amp * phi_c, p).state
    ref_items = [(k, v.state if hasattr(v, "state") else v) for k, v in references.items()]
    big = 2.0 * max((f.norm() for _, f in ref_items), default=1.0) + 1.0

    labels = []
    chunk = StepperConfig(dt=dt, t_end=20.0, scheme="etdrk2", sample_every=100)
    for seed in seeds:
        u = seed
        label = "unresolved"
        t = 0.0
        while t < t_max:
            try:
                rep = integrate(u, p, chunk)
            except NonFinite:
                label = "divergent-side" if p.mu > 0 else "unresolved"
                break
            u = rep.final_state
            t += chunk.t_end
            dists = [(name, (u - f).norm()) for name, f in ref_items]
            name, dmin = min(dists, key=lambda kv: kv[1])
            if dmin < tol:
                label = name
                break
            if p.mu > 0 and u.norm() > big:
                label = "divergent-side"
                break
            if rep.stopped_steady:
                # settled on a steady state away from every reference: for
                # the quadratic equation that is the far side of the stable
                # manifold of 0 (only one local attractor exists)
                if p.mu > 0:
                    label = "divergent-side"
                break
        labels.append(label)
    return labels, dict(ref_items)
