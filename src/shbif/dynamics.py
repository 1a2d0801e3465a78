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
dirichlet domains a step is four matrix products for all members, with the
phi weights folded into the projection matrices, run on buffers made once
per sample interval; a single field is the m = 1 case and steps as its
(n,) vector.  A trajectory is its samples.  Finiteness is checked at
samples only: E >= 0 and 0 * inf = nan, so an entry that overflows stays
non-finite until the next sample, which then raises NonFinite.  Each
sample scores the free energy and the norms of every live row in one call
each, and members leave the batch at the sample where they settle.

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
    DOMAIN_CACHE_SIZE,
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


@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def _etd_kernel(maps, domain: Domain, p: Params, dt: float):
    """advance(x, steps): ETDRK2 steps on coefficient arrays of shape (..., n).

    maps is _product_maps(domain) and a key of the cache, so a replaced map
    gets its own kernel.  Leading axes of x are a batch.  The stages use
    C(x) = -N(x) = P(g^3) - mu P(g^2) with the weights -f1 and -f2.  On
    dirichlet domains the maps, applied to identities, give matrices: x St
    is the product-grid values g, and v Q projects v = [g^3 | g^2 if mu]
    with Q = [odd; -mu even].  With the weights folded in, F1 = Q (-f1) and
    F2 = Q (-f2),

        a = E x + v(x) F1,  x+ = a + (v(a) - v(x)) F2

    runs on buffers made once per call: a step is twelve numpy calls
    (fourteen when mu > 0), four of them matrix products, and allocates
    nothing.  E stays elementwise: as a diagonal block of F1 it would
    add n^2 flops per member, more than the two calls it saves once a batch
    grows.  Fourier domains step through the maps.  The input is never
    written.  Overflow is not checked here; callers test the result with
    isfinite under np.errstate.
    """
    E, f1, f2 = _weights(domain, p.lam, dt)
    nf1, nf2 = -f1, -f2
    synthesize, odd, even = maps
    mu = p.mu
    if domain.is_dirichlet:
        St = synthesize(np.eye(E.size))  # x St = values on the P product points
        P = St.shape[1]
        Q = odd(np.eye(P))
        if mu != 0.0:
            Q = np.vstack([Q, -mu * even(np.eye(P))])
        F1, F2 = Q * nf1, Q * nf2
        # bound once and given their output positionally: the loop is call-bound
        dot, mul, add, sub = np.dot, np.multiply, np.add, np.subtract

        def advance(x, steps):
            x = x.copy()
            g, a, t = np.empty((*x.shape[:-1], P)), np.empty_like(x), np.empty_like(x)
            vx = np.empty((*x.shape[:-1], Q.shape[0]))
            va = np.empty_like(vx)
            cx, sx, ca, sa = vx[..., :P], vx[..., P:], va[..., :P], va[..., P:]
            for _ in range(steps):  # the last argument of each call is its output
                dot(x, St, g)
                mul(g, g, cx)
                if mu != 0.0:
                    mul(g, g, sx)
                mul(cx, g, cx)
                dot(vx, F1, a)
                mul(x, E, t)
                add(a, t, a)
                dot(a, St, g)
                mul(g, g, ca)
                if mu != 0.0:
                    mul(g, g, sa)
                mul(ca, g, ca)
                sub(va, vx, va)
                dot(va, F2, t)
                add(a, t, x)
            return x

        return advance

    def minus_nonlinear(x):  # mu > 0 requires the dirichlet condition
        g = synthesize(x)
        c = g * g
        c *= g
        return odd(c)

    def advance(x, steps):
        for _ in range(steps):
            cx = minus_nonlinear(x)
            a = E * x
            a += nf1 * cx
            ca = minus_nonlinear(a)
            ca -= cx
            ca *= nf2
            a += ca
            x = a
        return x

    return advance


def step(u: SpectralField, p: Params, dt: float) -> SpectralField:
    """Advance one time step."""
    check_params(u.domain, p)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _etd_kernel(_product_maps(u.domain), u.domain, p, dt)(u.data, 1)
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
    """Worst observed/bound ratio for the regime-appropriate decay bound.

    worst_ratio starts at the t = 0 ratio, 1, so it reads 1 whenever the
    bound holds; worst_ratio_after_start is the unfloored maximum over the
    samples with t > 0, the margin the bound kept.
    """

    regime: str
    worst_ratio: float
    worst_ratio_printed: float
    worst_ratio_after_start: float

    @property
    def violated(self) -> bool:
        return self.worst_ratio > 1.0 + 1e-9

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "worst_ratio": self.worst_ratio,
            "worst_ratio_printed_constants": self.worst_ratio_printed,
            "worst_ratio_after_start": self.worst_ratio_after_start,
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
    after_start = [0.0] * len(members)
    quiet = [0] * len(members)
    reports = [None] * len(members)

    def finish(i, state, stopped=False):
        reports[i] = RunReport(
            np.asarray(times[: len(norms[i])]), np.asarray(norms[i]), np.asarray(lyap[i]),
            BoundCheck(regime, worst[i], worst_p[i], after_start[i]),
            SpectralField(domain, state), lam_c, p, stopped_steady=stopped,
        )

    advance = _etd_kernel(_product_maps(domain), domain, p, cfg.dt)
    nsteps = max(1, int(round(cfg.t_end / cfg.dt)))
    sample_dt = cfg.dt * cfg.sample_every
    live = list(range(len(members)))  # the member in each row of x
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live and k < nsteps:
            last, k0, k = x, k, min(k + cfg.sample_every, nsteps)
            x = advance(x, k - k0)
            if not np.isfinite(x).all():
                raise NonFinite(f"state became non-finite by t = {k * cfg.dt:g}")
            times.append(k * cfg.dt)
            rows, prev = x.reshape(-1, n), last.reshape(-1, n)
            energies = np.reshape(_free_energy(x, domain, p), -1).tolist()
            row_norms = np.sqrt(np.vecdot(rows, rows)).tolist()
            change = rows - prev
            dudts = (np.sqrt(np.vecdot(change, change)) / sample_dt).tolist()
            running = []
            for r, i in enumerate(live):
                norms[i].append(row_norms[r])
                lyap[i].append(energies[r])
                if psi0[i] > 0:
                    ratio, ratio_p = _bound_ratios(regime, p.lam, lam_c, vol, psi0[i],
                                                   times[-1], norms[i][-1] ** 2)
                    worst[i] = max(worst[i], ratio)
                    after_start[i] = max(after_start[i], ratio)
                    worst_p[i] = max(worst_p[i], ratio_p)
                quiet[i] = quiet[i] + 1 if dudts[r] < 1e-9 else 0
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
