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
    DOMAIN_CACHE_SIZE,
    Domain,
    Mode,
    SpectralField,
    _Lattice,
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
                f"{m.kind}{list(m.k)}": growth_rate(self.domain, m, lam)
                for m in self.critical_modes
            }
        return out


@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def principal(domain: Domain) -> EigenSummary:
    """Minimize the quartic symbol over the retained mode lattice.

    Any mode whose symbol (1-|kappa|^2)^2 is at most s, the least symbol on
    the band, has |kappa|^2 <= 1 + sqrt(s).  So the mode lattice of the same
    box is scanned with each band widened to hold every such mode, plus one
    shell (grid_n enlarged so that the wider band is valid); in more than
    one dimension one shell past the band alone can miss a better mode.
    lambda_c is the least symbol there, and the critical modes are every
    kind on each wavevector within _TIE_TOL of it.  Raises BandTooSmall when
    one of those wavevectors lies outside the retained band.
    """
    radius = math.sqrt(1.0 + math.sqrt(float(lattice_symbol(domain).min())))
    band = tuple(max(b, math.floor(radius / h)) + 1
                 for b, h in zip(domain.band, wavevector(domain, (1,) * domain.dim)))
    wide = _Lattice(replace(domain, band=band,
                            grid_n=tuple(1 << (2 * b + 2).bit_length() for b in band)))
    vals = wide.symbol[: wide.nhalf]
    lam_c = float(vals.min())
    tie = lam_c + _TIE_TOL * (1.0 + abs(lam_c))
    winners = sorted(map(tuple, wide.kvecs[vals <= tie].tolist()))
    for k in winners:
        if any(abs(ki) > b for ki, b in zip(k, domain.band)):
            raise BandTooSmall(f"critical mode {k} exceeds band {domain.band}")
    modes = tuple(Mode(kind, k) for k in winners for kind in wide.kinds)
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


def _levels(domain: Domain) -> list[Domain]:
    """The coarse_domain chain of domain, coarsest first and domain last."""
    chain = [domain]
    while (coarse := coarse_domain(chain[0])) is not None:
        chain.insert(0, coarse)
    return chain
