"""Independent brute-force references for the verification suite.

Everything here deliberately avoids the FFT pathway of ``spectral``:
products are dense convolutions of complex-exponential representations and
inner products fall back to adaptive quadrature.  Slow, but exact on fields
supported on a handful of modes.
"""

from __future__ import annotations

import math

import scipy.integrate as sintegrate

from .spectral import BoundaryCondition, Domain, Mode, SpectralField


def exp_rep(f: SpectralField) -> dict:
    """Complex-exponential representation {k: coefficient} of a field.

    For dirichlet the integers k index exp(i k pi x / L) on the odd
    extension; for the periodic variants they index exp(i (2 pi / L) k.x).
    """
    rep: dict = {}
    a_d = math.sqrt(2.0 / f.domain.volume)
    for mode, c in f.modes(tol=0.0).items():
        k = mode.k
        mk = tuple(-v for v in k)
        if mode.kind == "sin":
            rep[k] = rep.get(k, 0.0) + c * a_d * (-0.5j)
            rep[mk] = rep.get(mk, 0.0) + c * a_d * (0.5j)
        else:
            rep[k] = rep.get(k, 0.0) + c * a_d * 0.5
            rep[mk] = rep.get(mk, 0.0) + c * a_d * 0.5
    return rep


def conv(r1: dict, r2: dict) -> dict:
    out: dict = {}
    for k1, c1 in r1.items():
        for k2, c2 in r2.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


def rep_to_coeffs(rep: dict, domain: Domain) -> dict:
    """Project an exponential representation back to basis coefficients.

    Pairs k with -k into sine/cosine content, truncates to the retained
    band, drops the zero mode, and (for sine-only bases) reports any
    leftover cosine content under a 'cos' key so callers can assert on it.
    """
    a_d = math.sqrt(2.0 / domain.volume)
    out: dict = {}
    seen = set()
    for k in rep:
        if k in seen or all(v == 0 for v in k):
            continue
        mk = tuple(-v for v in k)
        seen.add(k)
        seen.add(mk)
        first = next(v for v in k if v != 0)
        kpos = k if first > 0 else mk
        kneg = tuple(-v for v in kpos)
        cp = rep.get(kpos, 0.0)
        cn = rep.get(kneg, 0.0)
        cos_phys = cp + cn
        sin_phys = 1j * (cp - cn)
        if any(abs(v) > b for v, b in zip(kpos, domain.band)):
            continue
        if domain.is_dirichlet and kpos[0] > domain.band[0]:
            continue
        sin_c = complex(sin_phys / a_d)
        cos_c = complex(cos_phys / a_d)
        if abs(sin_c.imag) > 1e-10 or abs(cos_c.imag) > 1e-10:
            raise AssertionError("oracle produced a non-real coefficient")
        if abs(sin_c.real) > 0:
            out[Mode("sin", kpos)] = out.get(Mode("sin", kpos), 0.0) + sin_c.real
        if abs(cos_c.real) > 0:
            out[Mode("cos", kpos)] = out.get(Mode("cos", kpos), 0.0) + cos_c.real
    return out


def cube_oracle(f: SpectralField) -> dict:
    """Coefficients of u^3 on the retained band by dense triple convolution."""
    r = exp_rep(f)
    return rep_to_coeffs(conv(conv(r, r), r), f.domain)


def square_oracle(f: SpectralField) -> dict:
    """Coefficients of u^2 on the retained band by dense convolution.

    Odd-periodic squares are projected onto the odd phase space (the sine
    content of an even product, identically zero); dirichlet callers should
    use square_quadrature_oracle for the half-range re-expansion instead.
    """
    out = rep_to_coeffs(conv(exp_rep(f), exp_rep(f)), f.domain)
    if f.domain.bc is BoundaryCondition.ODD_PERIODIC:
        out = {m: v for m, v in out.items() if m.kind == "sin"}
    return out


def field_callable(f: SpectralField):
    """Pointwise evaluator u(x) built from the mode list (1-d only)."""
    if f.domain.dim != 1:
        raise ValueError("field_callable is 1-d only")
    L = f.domain.length[0]
    a_d = math.sqrt(2.0 / L)
    terms = []
    for mode, c in f.modes(tol=0.0).items():
        k = mode.k[0]
        w = k * math.pi / L if f.domain.is_dirichlet else 2.0 * math.pi * k / L
        terms.append((mode.kind, w, c * a_d))

    def u(x):
        tot = 0.0
        for kind, w, amp in terms:
            tot += amp * (math.sin(w * x) if kind == "sin" else math.cos(w * x))
        return tot

    return u


def square_quadrature_oracle(f: SpectralField, n: int) -> float:
    """<u^2, phi_n> on a 1-d dirichlet domain by adaptive quadrature."""
    if not f.domain.is_dirichlet:
        raise ValueError("quadrature oracle targets the dirichlet basis")
    L = f.domain.length[0]
    u = field_callable(f)
    a_d = math.sqrt(2.0 / L)
    val, _err = sintegrate.quad(
        lambda x: u(x) ** 2 * a_d * math.sin(n * math.pi * x / L),
        0.0, L, limit=400, epsabs=1e-13, epsrel=1e-13,
    )
    return val


def compare_coeffs(field: SpectralField, oracle: dict) -> float:
    """Max absolute coefficient difference between a field and an oracle map."""
    keys = set(oracle)
    keys.update(field.modes(tol=0.0))
    worst = 0.0
    for m in keys:
        if m.kind == "cos" and (
            field.domain.is_dirichlet
            or field.domain.bc is BoundaryCondition.ODD_PERIODIC
        ):
            impl = 0.0
        else:
            impl = field.coeff(m)
        worst = max(worst, abs(impl - oracle.get(m, 0.0)))
    return worst
