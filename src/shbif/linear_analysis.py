"""Spectrum of the linearization about zero: growth rates and critical modes.

The linear operator is -(I+Laplace)^2 + lambda, diagonal in the basis of
``spectral``; mode K grows at rate beta_K(lambda) = lambda - (1-|kappa|^2)^2.
The principal eigenvalue lambda_c of (I+Laplace)^2 is the bifurcation
threshold for lambda.

Note on the wavevector convention: periodic and odd-periodic modes use
kappa = 2 pi k / L per axis (the wavenumber of an L-periodic wave), and
dirichlet modes use kappa = k pi / L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import BandTooSmall
from .spectral import (
    BoundaryCondition,
    Domain,
    Mode,
    SpectralField,
    _coerce_mode,
    lattice_symbol,
    wavevector,
)

_TIE_TOL = 1e-12


def growth_rate(domain: Domain, mode, lam: float) -> float:
    """beta_k(lambda) = lambda - (1 - |kappa|^2)^2 for one mode or wavevector."""
    kap = wavevector(domain, _coerce_mode(domain, mode)[0].k)
    return lam - float((1.0 - np.dot(kap, kap)) ** 2)


def growth_array(domain: Domain, lam: float) -> np.ndarray:
    """beta over the flat coefficient vector of SpectralField.data."""
    return lam - lattice_symbol(domain)


def eigenfunction(domain: Domain, mode) -> SpectralField:
    """Unit-coefficient field on one mode (an L2-normalized eigenfunction)."""
    return SpectralField.from_modes(domain, {mode: 1.0})


@dataclass(frozen=True)
class EigenSummary:
    """Principal eigenvalue of (I+Laplace)^2 and its critical mode set."""

    domain: Domain
    lambda_c: float
    critical_modes: tuple[Mode, ...]
    multiplicity: int

    def beta(self, mode, lam: float) -> float:
        return growth_rate(self.domain, mode, lam)

    @property
    def degenerate(self) -> bool:
        """True when the minimum is attained at distinct |kappa|^2 values."""
        kap2 = {
            round(float(np.dot(wavevector(self.domain, m.k), wavevector(self.domain, m.k))), 9)
            for m in self.critical_modes
        }
        return len(kap2) > 1

    def as_dict(self, lam: float | None = None) -> dict:
        out = {
            "lambda_c": self.lambda_c,
            "multiplicity": self.multiplicity,
            "critical_modes": [
                {"kind": m.kind, "k": list(m.k)} for m in self.critical_modes
            ],
        }
        if lam is not None:
            out["betas"] = {
                f"{m.kind}{list(m.k)}": self.beta(m, lam) for m in self.critical_modes
            }
        return out


@lru_cache(maxsize=None)
def principal(domain: Domain) -> EigenSummary:
    """Minimize the quartic symbol over the retained mode lattice.

    Raises BandTooSmall when the minimizer of (1-|kappa|^2)^2 over the full
    integer lattice falls outside the retained band (checked by scanning one
    extra shell beyond the band).
    """
    if domain.is_dirichlet:
        L = domain.length[0]
        B = domain.band[0]
        n = np.arange(1, B + 2, dtype=float)
        vals = (1.0 - (n * math.pi / L) ** 2) ** 2
        lam_c = float(vals.min())
        atol = _TIE_TOL * (1.0 + abs(lam_c))
        winners = np.nonzero(vals <= lam_c + atol)[0] + 1
        if winners.max() > B:
            raise BandTooSmall(
                f"critical dirichlet mode n={winners.max()} exceeds band {B}"
            )
        modes = tuple(Mode("sin", (int(n),)) for n in winners)
        return EigenSummary(domain, lam_c, modes, len(modes))

    # periodic variants: scan the band extended by one shell per axis
    axes = [np.arange(-(b + 1), b + 2) for b in domain.band]
    grids = np.meshgrid(*axes, indexing="ij")
    kap2 = np.zeros(grids[0].shape)
    for g, L in zip(grids, domain.length):
        kap2 += (2.0 * math.pi * g / L) ** 2
    vals = (1.0 - kap2) ** 2
    center = tuple(b + 1 for b in domain.band)
    vals[center] = np.inf  # zero mode excluded
    lam_c = float(vals.min())
    atol = _TIE_TOL * (1.0 + abs(lam_c))
    winners = np.argwhere(vals <= lam_c + atol)
    ks = []
    for w in winners:
        k = tuple(int(wi - (b + 1)) for wi, b in zip(w, domain.band))
        if any(abs(ki) > b for ki, b in zip(k, domain.band)):
            raise BandTooSmall(f"critical mode {k} exceeds band {domain.band}")
        first = next(v for v in k if v != 0)
        if first > 0:
            ks.append(k)
    ks = sorted(set(ks))
    if domain.bc is BoundaryCondition.PERIODIC:
        modes = []
        for k in ks:
            modes.append(Mode("sin", k))
            modes.append(Mode("cos", k))
        modes = tuple(modes)
    else:
        modes = tuple(Mode("sin", k) for k in ks)
    return EigenSummary(domain, lam_c, modes, len(modes))


def coarse_domain(domain: Domain) -> Domain | None:
    """The same box and grid_n on a coarser band that holds the critical shell.

    Per axis the band is the largest of ceil(b / 4), 8 and 8 K_c, K_c the
    largest index on that axis of a mode with |kappa| = |kappa_c|: it holds
    the critical modes, the modes near them and their first odd harmonics.
    Returns None when no axis gets coarser or when the band misses the
    critical modes (BandTooSmall).  Product maps depend on the band alone.
    """
    try:
        crit = principal(domain).critical_modes
    except BandTooSmall:
        return None
    kappa_c = max(float(np.linalg.norm(wavevector(domain, m.k))) for m in crit)
    spacing = wavevector(domain, (1,) * domain.dim)
    band = tuple(min(b, max(-(-b // 4), 8, 8 * math.ceil(kappa_c / h - 1e-9)))
                 for b, h in zip(domain.band, spacing))
    return None if band == domain.band else replace(domain, band=band)
