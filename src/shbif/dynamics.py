"""Time integration of u_t = -(I+Laplace)^2 u + lambda u + mu u^2 - u^3.

The linear part is diagonal in the spectral basis and integrated exactly by
its exponential; the nonlinear part uses the two-stage exponential time
differencing scheme ETDRK2 with the phi-function weights of Cox & Matthews
(J. Comput. Phys. 176, 2002):

    a = E u + dt phi1 N(u),  u+ = a + dt phi2 (N(a) - N(u))

with E = exp(dt beta), phi1(z) = (e^z - 1)/z, phi2(z) = (e^z - 1 - z)/z^2.
Stability is not limited by the stiff linear part, only accuracy by dt.

One loop advances every trajectory.  It steps coefficient arrays of shape
(m, n), one row per member of a batch of fields on one domain, so on
dirichlet domains each stage is one matrix product for all members; a
single field is the m = 1 case and steps as its (n,) vector.  A trajectory
is its samples.  Finiteness is checked at samples only: E >= 0 and 0 * inf
= nan, so an entry that overflows stays non-finite until the next sample,
which then raises NonFinite.  Each sample scores the free energy of every
live row in one call, and members leave the batch at the sample where they
settle.

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
    _grid_values,
    _product_maps,
    cube,  # noqa: F401  test_traced_runs_repeat_exact_counts checks this binding is restored
    lattice_symbol,
)

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
    scheme: str = "etdrk2"  # ETDRK2 is the only scheme
    sample_every: int = 100

    def __post_init__(self):
        if self.dt <= 0:
            raise RangeError("dt must be positive")
        if self.t_end <= 0:
            raise RangeError("t_end must be positive")
        if self.scheme != "etdrk2":
            raise RangeError("scheme must be 'etdrk2'")
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


def _etd_kernel(domain: Domain, p: Params, dt: float):
    """The one ETDRK2 step on coefficient arrays of shape (..., n): x -> x + dt.

    Leading axes are a batch, broadcast by E, f1 and f2; the product maps
    act on the trailing axis.  The stages use C(x) = -N(x) = P(g^3) -
    mu P(g^2) with the weights -f1 and -f2, which rounds exactly as N with
    f1 and f2 does, and form the products and stage differences in place.
    The input is never written.  Overflow is not checked here; callers test
    the result with isfinite under np.errstate.
    """
    E, f1, f2 = _weights(domain, p.lam, dt)
    nf1, nf2 = -f1, -f2
    synthesize, odd, even = _product_maps(domain)
    mu = p.mu

    def minus_nonlinear(x):
        g = synthesize(x)
        c = g * g
        s = even(c) if mu != 0.0 else None
        c *= g
        c = odd(c)
        if s is not None:
            s *= mu
            c -= s
        return c

    def etdrk2(x):
        cx = minus_nonlinear(x)
        a = E * x
        a += nf1 * cx
        ca = minus_nonlinear(a)
        ca -= cx
        ca *= nf2
        a += ca
        return a

    return etdrk2


def step(u: SpectralField, p: Params, dt: float) -> SpectralField:
    """Advance one time step."""
    check_params(u.domain, p)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _etd_kernel(u.domain, p, dt)(u.data)
    if not np.all(np.isfinite(out)):
        raise NonFinite("state became non-finite during time step")
    return SpectralField(u.domain, out)


def lyapunov(u: SpectralField, p: Params) -> float:
    """Free energy F[u] = int 1/2 ((I+Lap)u)^2 - 1/2 lam u^2 - mu/3 u^3 + 1/4 u^4.

    The flow is the L2 gradient flow of F, so F decreases along trajectories.
    """
    check_params(u.domain, p)
    return float(_free_energy(u.data, u.domain, p))


def _free_energy(x: np.ndarray, d: Domain, p: Params) -> np.ndarray:
    """Free energy of each row of coefficients x: shape (..., n) -> (...)."""
    quad = 0.5 * np.vecdot(x * x, lattice_symbol(d)) - 0.5 * p.lam * np.vecdot(x, x)
    if d.is_dirichlet:
        # int u^4 by the DST-I quadrature on the collocation grid, exact for
        # band <= grid_n / 2 and independent of the product matrices that
        # step uses, so the energy monitor also checks the stepper's cube
        v2 = _grid_values(x, d) ** 2
        quart = 0.25 * d.length[0] / (d.grid_n[0] + 1) * np.vecdot(v2, v2)
    else:
        synthesize, odd, _ = _product_maps(d)
        g = synthesize(x)
        quart = 0.25 * np.vecdot(odd(g * g * g), x)
    cub = 0.0
    if p.mu != 0.0:  # mu > 0 requires the dirichlet condition
        synthesize, _, even = _product_maps(d)
        g = synthesize(x)
        cub = -(p.mu / 3.0) * np.vecdot(even(g * g), x)
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


def integrate(u0, p: Params, cfg: StepperConfig):
    """Integrate to t_end with sampling and bound monitors.

    u0 is one field, or a sequence of fields on one domain that advance
    together as a batch and give one RunReport each.  A member stops early
    when |du/dt| stays below 1e-9 for 10 consecutive samples, and leaves the
    batch at that sample.  Finiteness is checked at samples only, and a
    non-finite sample of any member raises NonFinite.  Each sample's free
    energies are scored in one call over the live rows.  A member's report
    equals its solo run up to the rounding of the batched matrix products.
    """
    single = isinstance(u0, SpectralField)
    members = [u0] if single else list(u0)
    if not members:
        return []
    domain = members[0].domain
    for f in members[1:]:
        members[0]._check(f)
    check_params(domain, p)
    lam_c = principal(domain).lambda_c
    if abs(p.lam - lam_c) < 1e-12:
        regime = "critical"
    elif p.lam < lam_c:
        regime = "subcritical"
    else:
        regime = "supercritical"
    vol = domain.volume

    x = u0.data if single else np.stack([f.data for f in members])
    n = x.shape[-1]
    times = [0.0]
    norms = [[f.norm()] for f in members]
    lyap = [[e] for e in np.reshape(_free_energy(x, domain, p), -1).tolist()]
    psi0 = [nrm[0] ** 2 for nrm in norms]
    worst = [1.0 if q > 0 else 0.0 for q in psi0]
    worst_p = list(worst)
    quiet = [0] * len(members)
    reports = [None] * len(members)

    def finish(i, state, stopped=False):
        reports[i] = RunReport(
            np.asarray(times[: len(norms[i])]), np.asarray(norms[i]), np.asarray(lyap[i]),
            BoundCheck(regime, worst[i], worst_p[i]), SpectralField(domain, state),
            lam_c, p, stopped_steady=stopped,
        )

    advance = _etd_kernel(domain, p, cfg.dt)
    nsteps = max(1, int(round(cfg.t_end / cfg.dt)))
    sample_dt = cfg.dt * cfg.sample_every
    live = list(range(len(members)))  # the member in each row of x
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live and k < nsteps:
            last, k0, k = x, k, min(k + cfg.sample_every, nsteps)
            for _ in range(k - k0):
                x = advance(x)
            if not np.isfinite(x).all():
                raise NonFinite(f"state became non-finite by t = {k * cfg.dt:g}")
            times.append(k * cfg.dt)
            rows, prev = x.reshape(-1, n), last.reshape(-1, n)
            energies = np.reshape(_free_energy(x, domain, p), -1).tolist()
            running = []
            for r, i in enumerate(live):
                norms[i].append(float(np.linalg.norm(rows[r])))
                lyap[i].append(energies[r])
                if psi0[i] > 0:
                    ratio, ratio_p = _bound_ratios(regime, p.lam, lam_c, vol, psi0[i],
                                                   times[-1], norms[i][-1] ** 2)
                    worst[i] = max(worst[i], ratio)
                    worst_p[i] = max(worst_p[i], ratio_p)
                dudt = float(np.linalg.norm(rows[r] - prev[r])) / sample_dt
                quiet[i] = quiet[i] + 1 if dudt < 1e-9 else 0
                if quiet[i] >= 10:
                    finish(i, rows[r], stopped=True)
                else:
                    running.append(r)
            if len(running) < len(live):
                x = rows[running]
                live = [live[r] for r in running]
    for r, i in enumerate(live):
        finish(i, x.reshape(-1, n)[r])
    return reports[0] if single else reports


BASIN_T_MAX = 400.0  # basin_probe integrates every seed to this time at most


def basin_probe(seeds, p: Params, references: dict) -> list[str]:
    """Integrate the seeds to BASIN_T_MAX and label each by the state it reaches.

    One integrate call advances every seed as a batch; a seed leaves it
    when it settles.  references maps a name to a state the caller has
    solved.  A seed takes the name of the reference nearest its final state
    when that lies within 1e-4, and 'unresolved' otherwise.
    """
    labels = []
    for rep in integrate(seeds, p, StepperConfig(2e-3, BASIN_T_MAX, sample_every=100)):
        dist, name = min(((rep.final_state - f).norm(), name)
                         for name, f in references.items())
        labels.append(name if dist < 1e-4 else "unresolved")
    return labels
