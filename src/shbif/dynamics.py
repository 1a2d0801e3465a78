"""Time integration of u_t = -(I+Laplace)^2 u + lambda u + mu u^2 - u^3.

The linear part is diagonal in the spectral basis and integrated exactly by
its exponential; the nonlinear part uses the two-stage exponential time
differencing scheme ETDRK2 with the phi-function weights of Cox & Matthews
(J. Comput. Phys. 176, 2002):

    a = E u + dt phi1 N(u),  u+ = a + dt phi2 (N(a) - N(u))

with E = exp(dt beta), phi1(z) = (e^z - 1)/z, phi2(z) = (e^z - 1 - z)/z^2.
Stability is not limited by the stiff linear part, only accuracy by dt.

One step loop advances every trajectory on every boundary condition.  It
steps coefficient arrays of shape (m, n), one row per member of a batch of
fields on one domain; a single field is the m = 1 case and steps as its
(n,) vector.  On dirichlet domains a step is four matrix products for all
members, the phi weights folded into the projection matrices, on buffers
made once per sample interval.  Finiteness is checked at samples only:
E >= 0 and 0 * inf = nan, so an entry that overflows stays non-finite
until the next sample, which then raises NonFinite.  A trajectory is its
samples: the norms and free energies of the live rows go into (members,
samples) arrays, members leave the batch at the sample where they settle,
and the bound monitors are computed from a member's norms afterwards.

Runtime monitors check the L2 comparison bounds obtained from
d/dt |u|^2 <= 2(lambda - lambda_c)|u|^2 - (2/|Omega|)|u|^4 in the three
regimes of lambda vs lambda_c.  The printed-constant variants of those
bounds (with 2|Omega| in the critical denominator and sqrt((lambda -
lambda_c)/|Omega|) in the supercritical cap) are tracked alongside for
reference; the derived constants are the ones that follow from the energy
identity and are the ones tested.
"""

from __future__ import annotations

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
    _read_only,
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
    return _read_only(np.exp(z), dt * _phi1(z), dt * _phi2(z))


@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def _etd_kernel(maps, domain: Domain, p: Params, dt: float):
    """advance(x, steps): ETDRK2 steps on coefficient arrays of shape (..., n).

    maps is _product_maps(domain) and a key of the cache, so a replaced map
    gets its own kernel.  Leading axes of x are a batch.  One loop serves
    every boundary condition, with C = -N = P(g^3) - mu P(g^2) and W = -f:

        a = E x + project(v(x), W1),  x+ = a + project(v(a) - v(x), W2)

    The boundary condition chooses only how the product-grid values v are
    formed and how they are projected; the stage difference is taken on v.
    Dirichlet maps, applied to identities, give matrices: g = x St,
    v = [g^3 | g^2 if mu], and project is a matrix product with the weights
    folded into Q = [odd; -mu even].  A step is twelve numpy calls (fourteen
    when mu > 0), four of them matrix products, on buffers made once per
    call, and allocates nothing.  E stays elementwise: as a diagonal block
    of W1 it would add n^2 flops per member, more than the two calls it
    saves once a batch grows.  Fourier domains cube synthesize(y) and
    project by odd(v) W: two synthesize, two odd and ten ufunc calls a step.
    The input is never written.  Overflow is not checked here; callers test
    the result with isfinite under np.errstate.
    """
    E, f1, f2 = _weights(domain, p.lam, dt)
    synthesize, odd, even = maps
    mu = p.mu
    # bound once and given their output positionally: the loop is call-bound
    dot, mul, add, sub = np.dot, np.multiply, np.add, np.subtract
    if domain.is_dirichlet:
        St = synthesize(np.eye(E.size))  # x St = values on the P product points
        P = St.shape[1]
        Q = odd(np.eye(P))
        if mu != 0.0:
            Q = np.vstack([Q, -mu * even(np.eye(P))])
        W1, W2, project = Q * -f1, Q * -f2, dot

        def stage(lead):  # v(y) into a buffer of its own
            g, v = np.empty((*lead, P)), np.empty((*lead, Q.shape[0]))
            c, s = v[..., :P], v[..., P:]

            def values(y):
                dot(y, St, g)
                mul(g, g, c)
                if mu != 0.0:
                    mul(g, g, s)
                mul(c, g, c)
                return v

            return values
    else:  # mu > 0 requires the dirichlet condition
        W1, W2 = -f1, -f2

        def project(v, w, out):
            mul(odd(v), w, out)

        def values(y):
            g = synthesize(y)
            c = g * g
            c *= g
            return c

        def stage(lead):
            return values

    def advance(x, steps):
        x = x.copy()
        a, t = np.empty_like(x), np.empty_like(x)
        vx_of, va_of = stage(x.shape[:-1]), stage(x.shape[:-1])
        for _ in range(steps):  # the last argument of each call is its output
            vx = vx_of(x)
            project(vx, W1, a)
            mul(x, E, t)
            add(a, t, a)
            va = va_of(a)
            sub(va, vx, va)
            project(va, W2, t)
            add(a, t, x)
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


# per regime, how far observed/bound may exceed 1: read by violated and the harness
DECAY_TOL = {"subcritical": 1e-6, "critical": 1e-9, "supercritical": 1e-9}


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
        return self.worst_ratio > 1.0 + DECAY_TOL[self.regime]

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


def _bound_check(times, norms, lam: float, lam_c: float, volume: float) -> BoundCheck:
    """Observed psi = |u|^2 against the decay bound of lam's regime at every sample.

    Ratios are taken at t > 0 only; the bound starts at psi0, so t = 0 adds
    ratio 1.  psi0 = 0 gives zeros.  The printed-constant ratio differs from
    the derived one in the critical and supercritical regimes only.
    """
    psi = norms**2
    psi0, t, psi = psi[0], times[1:], psi[1:]
    if abs(lam - lam_c) < 1e-12:
        regime = "critical"
        bounds = (psi0 / ((2.0 / volume) * psi0 * t + 1.0),
                  psi0 / (2.0 * volume * psi0 * t + 1.0))
    elif lam < lam_c:
        regime = "subcritical"
        bounds = (psi0 * np.exp(2.0 * (lam - lam_c) * t),) * 2
    else:
        regime = "supercritical"
        bounds = (max(psi0, (lam - lam_c) * volume), max(psi0, (lam - lam_c) / volume))
    if psi0 == 0:
        return BoundCheck(regime, 0.0, 0.0, 0.0)
    after, after_p = (float(np.max(psi / b, initial=0.0)) for b in bounds)
    return BoundCheck(regime, max(1.0, after), max(1.0, after_p), after)


def integrate(u0, p: Params, cfg: StepperConfig):
    """Integrate to t_end with sampling and bound monitors.

    u0 is one field, or a sequence of fields on one domain that advance
    together as a batch and give one RunReport each.  A member stops early
    when |du/dt| stays below 1e-9 for 10 consecutive samples, and leaves the
    batch at that sample.  Finiteness is checked at samples only, and a
    non-finite sample of any member raises NonFinite.  Norms and free
    energies go into (members, samples) arrays, each sample's in one call
    over the live rows, and the bound monitor reads a member's norms once
    its run is over.  A member's report equals its solo run up to the
    rounding of the batched matrix products.
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

    x = u0.data if single else np.stack([f.data for f in members])
    n = x.shape[-1]
    nsteps = max(1, int(round(cfg.t_end / cfg.dt)))
    ks = [*range(0, nsteps, cfg.sample_every), nsteps]  # step count at each sample
    times = np.array(ks) * cfg.dt
    norms = np.empty((len(members), len(ks)))
    energies = np.empty_like(norms)
    norms[:, 0] = [f.norm() for f in members]
    energies[:, 0] = np.reshape(_free_energy(x, domain, p), -1)
    ends = np.full(len(members), len(ks))  # samples each member took
    stopped = np.zeros(len(members), dtype=bool)
    final = np.empty((len(members), n))
    live = np.arange(len(members))  # the member in each row of x
    quiet = np.zeros(len(members), dtype=int)  # quiet samples in a row, per row of x

    advance = _etd_kernel(_product_maps(domain), domain, p, cfg.dt)
    sample_dt = cfg.dt * cfg.sample_every
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, len(ks)):
            if not live.size:
                break
            last, x = x, advance(x, ks[s] - ks[s - 1])
            if not np.isfinite(x).all():
                raise NonFinite(f"state became non-finite by t = {times[s]:g}")
            rows, change = x.reshape(-1, n), (x - last).reshape(-1, n)
            norms[live, s] = np.sqrt(np.vecdot(rows, rows))
            energies[live, s] = np.reshape(_free_energy(x, domain, p), -1)
            still = np.sqrt(np.vecdot(change, change)) / sample_dt < 1e-9
            quiet = np.where(still, quiet + 1, 0)
            if quiet.max() >= 10:
                settled = quiet >= 10
                done = live[settled]
                final[done], ends[done], stopped[done] = rows[settled], s + 1, True
                x, live, quiet = rows[~settled], live[~settled], quiet[~settled]
    final[live] = x.reshape(-1, n)
    reports = [
        RunReport(times[:e], norms[i, :e], energies[i, :e],
                  _bound_check(times[:e], norms[i, :e], p.lam, lam_c, domain.volume),
                  SpectralField(domain, final[i]), lam_c, p, stopped_steady=bool(stopped[i]))
        for i, e in enumerate(ends)
    ]
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
