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
single field is the m = 1 case and steps as its (n,) vector.  Finiteness
is checked at samples only: E >= 0 and 0 * inf = nan, so an overflowed
entry stays non-finite until the next sample, and the steps since the
previous sample are then replayed one at a time to find the last finite
state.  Members leave the batch at the sample where they settle or
overflow.

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
        raise NonFinite("state overflowed during time step")
    return SpectralField(u.domain, out)


def lyapunov(u, p: Params):
    """Free energy F[u] = int 1/2 ((I+Lap)u)^2 - 1/2 lam u^2 - mu/3 u^3 + 1/4 u^4.

    The flow is the L2 gradient flow of F, so F decreases along trajectories.
    A sequence of fields (a batch) gives the list of their energies, each
    member evaluated on its own.
    """
    if isinstance(u, SpectralField):
        return _free_energy(u, p)
    return [_free_energy(f, p) for f in u]


def _free_energy(u: SpectralField, p: Params) -> float:
    d = u.domain
    x = u.data
    quad = 0.5 * float(lattice_symbol(d) @ (x**2)) - 0.5 * p.lam * float(x @ x)
    if d.is_dirichlet:
        # int u^4 by the DST-I quadrature on the collocation grid, exact for
        # band <= grid_n / 2 and independent of the product matrices that
        # step uses, so the energy monitor also checks the stepper's cube
        v2 = to_grid(u).values ** 2
        quart = 0.25 * d.length[0] / (d.grid_n[0] + 1) * float(v2 @ v2)
    else:
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
    overflowed: bool = False

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
            "overflowed": self.overflowed,
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
    batch at that sample.  Finiteness is checked at samples only: a
    non-finite entry stays non-finite under the step, so the steps since
    the last sample are then replayed one at a time to find each overflowed
    member's last finite state.  Its report holds the samples before the
    overflow, that state and `overflowed`; for a single field, NonFinite
    propagates with that report attached.  A member's report equals its
    solo run up to the rounding of the batched matrix products.
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

    times = [0.0]
    norms = [[f.norm()] for f in members]
    lyap = [[v] for v in lyapunov(members, p)]
    psi0 = [nrm[0] ** 2 for nrm in norms]
    worst = [1.0 if q > 0 else 0.0 for q in psi0]
    worst_p = list(worst)
    quiet = [0] * len(members)
    reports = [None] * len(members)

    def finish(i, x, stopped=False, overflowed=False):
        reports[i] = RunReport(
            np.asarray(times[: len(norms[i])]), np.asarray(norms[i]), np.asarray(lyap[i]),
            BoundCheck(regime, worst[i], worst_p[i]), SpectralField(domain, x),
            lam_c, p, stopped_steady=stopped, overflowed=overflowed,
        )

    advance = _etd_kernel(domain, p, cfg.dt)
    nsteps = max(1, int(round(cfg.t_end / cfg.dt)))
    sample_dt = cfg.dt * cfg.sample_every
    x = u0.data if single else np.stack([f.data for f in members])
    n = x.shape[-1]
    live = list(range(len(members)))  # the member in each row of x
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live and k < nsteps:
            last, k0, k = x, k, min(k + cfg.sample_every, nsteps)
            for _ in range(k - k0):
                x = advance(x)
            rows = x.reshape(-1, n)
            finite = np.isfinite(rows).all(axis=1)
            if not finite.all():
                # replay the same arithmetic step by step from the last sample
                lost, y = {}, last
                for _ in range(k - k0):
                    nxt = advance(y)
                    for r in np.flatnonzero(~np.isfinite(nxt.reshape(-1, n)).all(axis=1)):
                        lost.setdefault(r, y.reshape(-1, n)[r])
                    y = nxt
                for r in np.flatnonzero(~finite):
                    finish(live[r], lost[r], overflowed=True)
                if single:
                    raise NonFinite("state overflowed during time step", reports[0])
            times.append(k * cfg.dt)
            alive = np.flatnonzero(finite)
            prev = last.reshape(-1, n)
            energies = lyapunov([SpectralField(domain, rows[r]) for r in alive], p)
            running = []
            for r, energy in zip(alive, energies):
                i = live[r]
                norms[i].append(float(np.linalg.norm(rows[r])))
                lyap[i].append(energy)
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


def basin_probe(p: Params, seeds, *, t_max: float = 400.0):
    """Integrate the seeds to t_max and label each by where it ends.

    One integrate call advances every seed as a batch; a seed leaves it
    when it settles.  Returns (labels, references) where references maps
    label -> field; a seed takes the label of the reference nearest its
    final state when that lies within 1e-4.  For mu = 0 the labels are
    'u1'/'u2'/'trivial'; for mu > 0 they are 'attractor'/'trivial', and
    'divergent-side' for a seed that overflowed or settled away from every
    reference: for the quadratic equation that is the far side of the
    stable manifold of 0 (only one local attractor exists).  Any other seed
    is 'unresolved'.
    """
    from . import steady as _steady  # local import: steady depends on spectral only

    if not seeds:
        return [], {}
    domain = seeds[0].domain
    check_params(domain, p)
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

    labels = []
    for rep in integrate(seeds, p, StepperConfig(2e-3, t_max, "etdrk2", 100)):
        dist, name = min(((rep.final_state - f).norm(), name)
                         for name, f in references.items())
        if dist < 1e-4 and not rep.overflowed:
            labels.append(name)
        elif p.mu > 0 and (rep.overflowed or rep.stopped_steady):
            labels.append("divergent-side")
        else:
            labels.append("unresolved")
    return labels, references
