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
(n,) vector.  On dirichlet domains a step is two matrix products for all
members, one per stage, with E, the phi weights and the synthesis folded
in: eight numpy calls.  Fourier domains synthesize and project each stage
on its own.  Buffers are made once per sample interval.  Finiteness is
checked at samples only: E >= 0 and 0 * inf = nan, so an entry that
overflows stays non-finite until the next sample, which then raises
NonFinite.  A trajectory is its samples: the norms and free energies of
the live rows go into (members, samples) arrays, members leave the batch
at the sample where they settle, and the bound monitors are computed from
a member's norms afterwards.

Runtime monitors check the L2 comparison bounds obtained from
d/dt |u|^2 <= 2(lambda - lambda_c)|u|^2 - (2/|Omega|)|u|^4 in the three
regimes of lambda vs lambda_c.  The printed-constant variants of those
bounds (with 2|Omega| in the critical denominator and sqrt((lambda -
lambda_c)/|Omega|) in the supercritical cap) are tracked alongside for
reference; the derived constants are the ones that follow from the energy
identity and are the ones tested.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import NamedTuple

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


class _Buffers(NamedTuple):
    """What one advance call steps on.  x and a are the buffers (g, s, c, v)
    of each stage: its values g on the product grid, their square s = g g
    and cube c = s g, and v, the values C projects: [s; c] when mu > 0,
    else c, with the square formed in place in it.  Each step calls
    stage1(h, y), which leaves a and its values, stage2(v_a - v_x, d) and
    update(y, d, out), which leaves x+ and its values; the last step calls
    `last` in place of update.  result() gives the coefficients of x,
    never x itself."""

    x: tuple
    a: tuple
    h: np.ndarray
    y: np.ndarray
    d: np.ndarray
    out: np.ndarray
    stage1: Callable
    stage2: Callable
    update: Callable
    last: Callable
    result: Callable


@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def _etd_kernel(maps, domain: Domain, p: Params, dt: float):
    """advance(x, steps): ETDRK2 steps on coefficient arrays of shape (..., n).

    maps is _product_maps(domain) and a key of the cache, so a replaced map
    gets its own kernel.  Leading axes of x are a batch.  One loop serves
    every boundary condition, with C = -N = P(g^3) - mu P(g^2) and W = -f:

        a = E x + W1 C(x),  x+ = a + W2 (C(a) - C(x))

    The loop forms each stage's square and cube and the difference of the
    two v, and calls the stage maps and the update of the boundary
    condition's _Buffers directly.  Dirichlet maps, applied to identities,
    give matrices: the synthesis S and the projection Q = [-mu even | odd],
    so C = Q v.  Each stage is stacked as [v; x; g] with one column per
    member, and each stage map is one bound matrix product with E, the
    weights and the synthesis folded in:

        [a; S a] = M1 [v; x],  M1 = [L1; S L1],  L1 = [W1 Q | diag E]
        [x+; g+] = [a; S a] + M2 (v_a - v_x),  M2 = [L2; S L2],  L2 = W2 Q

    A step is eight numpy calls for either mu and allocates nothing.  At
    band B it costs a member 15 B^2 multiply-adds (27 B^2 when mu > 0),
    where synthesizing and projecting each stage on its own costs 8 B^2
    (12 B^2) in twelve calls (fourteen), so the fold pays while a step is
    bound by its calls.  Measured from one BLAS thread it breaks even at
    B = 16 near 100 members with mu = 0 (past 100 when mu > 0), at B = 32
    between 1 and 20, and from B = 64 at one field at most.  Fourier
    domains step rows of the shape of x: each stage synthesizes its values
    afresh into a buffer and projects them by odd(v) W, two synthesize,
    two odd, ten ufunc calls and two copies a step, and the last step of
    a call does not synthesize x+.  The input is never written.  Overflow
    is not checked here; callers test the result with isfinite under
    np.errstate.
    """
    E, f1, f2 = _weights(domain, p.lam, dt)
    synthesize, odd, even = maps
    mu = p.mu
    # bound once, called directly and given their output positionally: the
    # loop is call-bound
    mul, add, sub = np.multiply, np.add, np.subtract
    if domain.is_dirichlet:
        n = E.size
        St = synthesize(np.eye(n))  # x St = values on the P product points
        S, P = np.ascontiguousarray(St.T), St.shape[1]
        Q = odd(np.eye(P)).T
        if mu != 0.0:
            Q = np.hstack([-mu * even(np.eye(P)).T, Q])  # the square rows of v go first
        V = Q.shape[1]
        L1 = np.hstack([-f1[:, None] * Q, np.diag(E)])
        M1, M2 = (np.vstack([L, S @ L]) for L in (L1, -f2[:, None] * Q))

        def layout(x):
            """[v; x; g] a stage, one column per member.  stage2 writes
            into [x; g], which update then overwrites with [x+; g+]."""
            cols = (x.size // n,) if x.ndim > 1 else ()
            bx, ba = np.empty((V + n + P, *cols)), np.empty((V + n + P, *cols))
            xs, gx, out = bx[V:V + n], bx[V + n:], bx[V:]
            xs[...] = x.reshape(-1, n).T if cols else x
            np.dot(S, xs, gx)
            vx, va = bx[:V], ba[:V]
            (sx, cx), (sa, ca) = (((vx[:P], vx[P:]), (va[:P], va[P:])) if mu
                                  else ((vx, vx), (va, va)))
            return _Buffers(x=(gx, sx, cx, vx), a=(ba[V + n:], sa, ca, va), h=bx[:V + n], y=ba[V:],
                            d=out, out=out, stage1=M1.dot, stage2=M2.dot, update=add, last=add,
                            result=lambda: xs.T.reshape(x.shape).copy())
    else:  # mu > 0 requires the dirichlet condition
        W1, W2 = -f1, -f2

        def layout(x):
            """Buffers of the shape of x and of its values: the two stages
            share g, which each synthesizes afresh."""
            x = x.copy()
            a, t = np.empty_like(x), np.empty_like(x)
            g = synthesize(x)

            def stage1(v, out):
                mul(odd(v), W1, out)
                mul(x, E, t)
                add(out, t, out)
                g[...] = synthesize(out)

            def stage2(v, out):
                mul(odd(v), W2, out)

            def update(y, dy, out):
                add(y, dy, out)
                g[...] = synthesize(out)

            cx, ca = np.empty_like(g), np.empty_like(g)
            return _Buffers(x=(g, cx, cx, cx), a=(g, ca, ca, ca), h=cx, y=a, d=t, out=x,
                            stage1=stage1, stage2=stage2, update=update, last=add,
                            result=lambda: x)

    def advance(x, steps):
        b = layout(x)
        (gx, sx, cx, vx), (ga, sa, ca, va) = b.x, b.a
        h, y, d, out, stage1, stage2 = b.h, b.y, b.d, b.out, b.stage1, b.stage2
        updates = chain(repeat(b.update, steps - 1), (b.last,)) if steps > 0 else ()
        for update in updates:  # the last argument of each call is its output
            mul(gx, gx, sx)
            mul(sx, gx, cx)
            stage1(h, y)
            mul(ga, ga, sa)
            mul(sa, ga, ca)
            sub(va, vx, va)
            stage2(va, d)
            update(y, d, out)
        return b.result()

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
