"""Spectral representation layer: domains, mode lattices, transforms, products.

Fields are stored in the orthonormal eigenbasis of (I + Laplace)^2 on the box
(0, L)^n:

* ``dirichlet`` (1-d only): phi_n = sqrt(2/L) sin(n pi x / L), n >= 1.
* ``odd-periodic``: phi_K = sqrt(2/V) sin((2 pi / L) K.x), K in a half
  lattice (first nonzero component positive), V = box volume.
* ``periodic``: phi_K together with psi_K = sqrt(2/V) cos((2 pi / L) K.x);
  the zero mode (constants) is excluded throughout.

A field is stored as one real vector of basis coefficients for every
boundary condition: y_n over n = 1..B, y_K over the half lattice, or (y_K,
z_K) of phi_K and psi_K.  The basis is orthonormal, so norms and inner
products are those of the vector.  Fourier transforms scatter the vector
into the last-axis columns 0..b of an rfftn half-spectrum, with complex
coefficient c_K = (z_K - i y_K) / sqrt(2V) at K and its conjugate at -K,
and gather it back from there; the real part of a transformed real field
and its parity need no separate symmetrisation.  This layout is decoded
here only: other modules reach it through SpectralField, the product maps,
resample, translate and max_translation_inner.

Nonlinear products are evaluated pointwise on a product grid sized from the
band alone and projected back onto the retained band; they are exact there.
A cubic product of Fourier content in [-b, b] reaches 3b, and on M points a
wavenumber k aliases to k +- M, which misses [-b, b] once M >= 4b + 1: Fourier
axes use real FFTs on next_fast_len(4b + 1) points.  Dirichlet products use
P = 2b points, where the sine series aliases k to 2(P + 1) - k > b for k <= 3b,
and three dense matrices built in closed form per (band, length), cheaper than
an FFT call at these sizes: the synthesis S[j, n] = sqrt(2/L) sin(pi j n /
(P + 1)), the odd projection (the inverse of S on the band) for cubes, and the
even projection for squares, which re-expands the product's finite cosine
series in the half-range sine series, so square() returns the exact L^2
projection rather than an interpolant.

Odd-periodic fields of dim >= 2 are odd under point reflection, u(-x) = -u(x),
and so is every product the solvers project: u^3, u v w and u^2 v.  Their
products are therefore evaluated on the rows j0 = 0..M0 // 2 of the product
grid's first axis only.  This is exact, not an approximation: those rows are
the full grid's rows, and once the other axes are transformed, row M0 - j0
of a real point-odd field is -conj of row j0.  So i times each first-axis
column is Hermitian, and the first-axis transforms are real ones of length
M0, even or odd (Cooley, Lewis & Welch 1970): synthesis runs ihfft on the
real array of the sine coefficients' imaginary parts, which yields exactly
the rows 0..M0 // 2, and analysis runs hfft on i times those rows, whose
real output is minus the imaginary part of the spectrum.  No row is
mirrored.  Squares and other even products have no sine content there and
are zero without any transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial

import numpy as np
import scipy.fft as sfft

from .errors import DomainMismatch

_DEFAULT_GRID = {1: 512, 2: 256, 3: 128}
# entries of every cache keyed by domains, so a process that visits many
# boxes keeps a bounded set; a census touches 3 domains per box
DOMAIN_CACHE_SIZE = 32


class BoundaryCondition(str, Enum):
    DIRICHLET = "dirichlet"
    ODD_PERIODIC = "odd-periodic"
    PERIODIC = "periodic"

    @classmethod
    def coerce(cls, value) -> "BoundaryCondition":
        if isinstance(value, cls):
            return value
        key = str(value).strip().lower().replace("_", "-")
        for bc in cls:
            if bc.value == key:
                return bc
        raise ValueError(f"unknown boundary condition {value!r}")


def _per_axis(value, dim, cast):
    if np.isscalar(value):
        return tuple(cast(value) for _ in range(dim))
    out = tuple(cast(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} per-axis values, got {len(out)}")
    return out


@dataclass(frozen=True)
class Domain:
    """Box (0,L)^dim with a boundary condition, collocation grid and band."""

    dim: int
    length: tuple[float, ...]
    bc: BoundaryCondition
    grid_n: tuple[int, ...]
    band: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.bc is BoundaryCondition.DIRICHLET and self.dim != 1:
            raise ValueError("dirichlet boundary condition requires dim = 1")
        if any(l <= 0 for l in self.length):
            raise ValueError("length must be positive")
        for n in self.grid_n:
            if n < 8 or (n & (n - 1)) != 0:
                raise ValueError("grid_n must be a power of two >= 8")
        for b, n in zip(self.band, self.grid_n):
            if b < 1:
                raise ValueError("band must be >= 1")
            if self.bc is BoundaryCondition.DIRICHLET and b > n // 2:
                raise ValueError("band must not exceed grid_n / 2")
            # on grid_n points the modes +-band share one bin at band = grid_n / 2
            if self.bc is not BoundaryCondition.DIRICHLET and 2 * b + 1 > n:
                raise ValueError("band must be below grid_n / 2 on periodic axes")

    @staticmethod
    def make(dim, length, bc, grid_n=None, band=None) -> "Domain":
        if dim not in _DEFAULT_GRID:
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        bc = BoundaryCondition.coerce(bc)
        length = _per_axis(length, dim, float)
        if grid_n is None:
            grid_n = _DEFAULT_GRID[dim]
        grid_n = _per_axis(grid_n, dim, int)
        if band is None:
            band = tuple(n // 4 for n in grid_n)
        else:
            band = _per_axis(band, dim, int)
        return Domain(dim, length, bc, grid_n, band)

    @property
    def volume(self) -> float:
        return float(np.prod(self.length))

    @property
    def is_dirichlet(self) -> bool:
        return self.bc is BoundaryCondition.DIRICHLET


@dataclass(frozen=True, order=True)
class Mode:
    """One basis function: kind 'sin' or 'cos' plus an integer wavevector."""

    kind: str
    k: tuple[int, ...]


def _coerce_mode(domain: Domain, m):
    """Accept Mode, int, tuple of ints or (kind, tuple); return (Mode, sign)."""
    if isinstance(m, Mode):
        kind, k = m.kind, m.k
    elif isinstance(m, int):
        kind, k = "sin", (m,)
    elif isinstance(m, tuple) and m and isinstance(m[0], str):
        kind, k = m[0], tuple(int(v) for v in m[1])
    else:
        kind, k = "sin", tuple(int(v) for v in m)
    if kind not in ("sin", "cos"):
        raise ValueError(f"mode kind must be 'sin' or 'cos', got {kind!r}")
    if len(k) != domain.dim:
        raise ValueError(f"mode {k} has wrong dimension for domain")
    if domain.is_dirichlet:
        if kind != "sin":
            raise ValueError("dirichlet basis has sine modes only")
        if k[0] < 1:
            raise ValueError("dirichlet mode index must be >= 1")
        return Mode("sin", k), 1.0
    if domain.bc is BoundaryCondition.ODD_PERIODIC and kind != "sin":
        raise ValueError("odd-periodic basis has sine modes only")
    if all(v == 0 for v in k):
        raise ValueError("zero mode is excluded")
    first = next(v for v in k if v != 0)
    if first < 0:
        k = tuple(-v for v in k)
        sign = -1.0 if kind == "sin" else 1.0
    else:
        sign = 1.0
    return Mode(kind, k), sign


def wavevector(domain: Domain, k: tuple[int, ...]) -> np.ndarray:
    """Physical wavevector kappa for integer mode k."""
    k = np.asarray(k, dtype=float)
    L = np.asarray(domain.length)
    if domain.is_dirichlet:
        return k * math.pi / L
    return 2.0 * math.pi * k / L


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cache shares them with every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _Lattice:
    """Cached index machinery for one domain: the modes of the flat layout.

    kvecs lists the stored wavevectors in order: n = 1..B for dirichlet, the
    half lattice (first nonzero component positive, row-major over the band
    box) for the Fourier variants.  The flat vector holds one coefficient
    per row of kvecs, sines first and then, for periodic, the cosines.
    """

    def __init__(self, domain: Domain):
        if domain.is_dirichlet:
            kvecs = np.arange(1, domain.band[0] + 1)[:, None]
            kappa = kvecs * math.pi / domain.length[0]
            self.scale = math.sqrt(2.0 / domain.length[0])
        else:
            axes = [np.arange(-b, b + 1) for b in domain.band]
            k = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
            first = k[np.arange(len(k)), np.argmax(k != 0, axis=1)]
            kvecs = k[first > 0]
            kappa = 2.0 * math.pi * kvecs / np.asarray(domain.length)
            self.cscale = math.sqrt(2.0 * domain.volume)  # c_K = (z_K - i y_K) / cscale
        symbol = (1.0 - np.sum(kappa**2, axis=1)) ** 2
        self.kinds = ("sin", "cos") if domain.bc is BoundaryCondition.PERIODIC else ("sin",)
        self.kvecs, self.symbol = _read_only(kvecs, np.tile(symbol, len(self.kinds)))
        self.nhalf = len(kvecs)
        self.nflat = self.nhalf * len(self.kinds)
        self.mode_pos = {tuple(kv): j for j, kv in enumerate(kvecs.tolist())}


@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def _lattice(domain: Domain) -> _Lattice:
    return _Lattice(domain)


def lattice_symbol(domain: Domain) -> np.ndarray:
    """(1-|kappa|^2)^2 over the flat coefficient vector (read-only)."""
    return _lattice(domain).symbol


@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def _shared_slots(src: Domain, dst: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions (in src, in dst) of the modes both bands retain."""
    a, b = _lattice(src), _lattice(dst)
    pairs = [(i, b.mode_pos[k]) for i, k in enumerate(map(tuple, a.kvecs.tolist()))
             if k in b.mode_pos]
    i, j = np.array(pairs).T
    kinds = range(len(a.kinds))  # periodic cosines sit nhalf after their sines
    return _read_only(np.concatenate([i + w * a.nhalf for w in kinds]),
                      np.concatenate([j + w * b.nhalf for w in kinds]))


def resample(x: np.ndarray, src: Domain, dst: Domain) -> np.ndarray:
    """Coefficients x of shape (..., n) on src, moved to dst's band.

    The domains may differ in band only.  Modes both bands retain are
    copied and the others are zero, so restriction followed by prolongation
    keeps exactly the shared modes, and prolongation is an isometry.
    """
    if replace(src, band=dst.band) != dst:
        raise DomainMismatch("resample: domains must differ in band only")
    i, j = _shared_slots(src, dst)
    out = np.zeros((*x.shape[:-1], _lattice(dst).nflat))
    out[..., j] = x[..., i]
    return out


@dataclass(eq=False)
class SpectralField:
    """Real field as coefficients in the orthonormal basis.

    Treat instances as immutable values; operations return new fields.
    Storage, for every boundary condition, is one real float64 vector of
    length nflat: dirichlet holds the coefficients of phi_1..phi_B,
    odd-periodic those of the sines phi_K over the half lattice, periodic
    the sines and then the cosines psi_K over the half lattice.  Norms and
    inner products are the Euclidean ones of this vector.
    """

    domain: Domain
    data: np.ndarray

    # -- constructors ------------------------------------------------
    @staticmethod
    def zeros(domain: Domain) -> "SpectralField":
        return SpectralField(domain, np.zeros(_lattice(domain).nflat))

    @staticmethod
    def from_modes(domain: Domain, coeffs: dict) -> "SpectralField":
        lat = _lattice(domain)
        data = np.zeros(lat.nflat)
        for m, val in coeffs.items():
            mode, sign = _coerce_mode(domain, m)
            pos = lat.mode_pos.get(mode.k)
            if pos is None:
                raise ValueError(f"mode {mode.k} outside retained band")
            data[pos + lat.kinds.index(mode.kind) * lat.nhalf] += sign * float(val)
        return SpectralField(domain, data)

    # -- accessors ---------------------------------------------------
    def coeff(self, m) -> float:
        mode, sign = _coerce_mode(self.domain, m)
        lat = _lattice(self.domain)
        pos = lat.mode_pos.get(mode.k)
        if pos is None:
            return 0.0
        return float(sign * self.data[pos + lat.kinds.index(mode.kind) * lat.nhalf])

    def modes(self, tol: float = 0.0) -> dict:
        """Map Mode -> coefficient for all entries with |coeff| > tol."""
        out = {}
        lat = _lattice(self.domain)
        for j, kvec in enumerate(lat.kvecs.tolist()):
            for which, kind in enumerate(lat.kinds):
                v = self.data[j + which * lat.nhalf]
                if abs(v) > tol:
                    out[Mode(kind, tuple(kvec))] = float(v)
        return out

    def norm(self) -> float:
        """L2 norm via Parseval."""
        return float(np.linalg.norm(self.data))

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "SpectralField"):
        if self.domain != other.domain:
            raise DomainMismatch("fields live on different domains")

    def __add__(self, other):
        self._check(other)
        return SpectralField(self.domain, self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return SpectralField(self.domain, self.data - other.data)

    def __neg__(self):
        return SpectralField(self.domain, -self.data)

    def __mul__(self, a):
        return SpectralField(self.domain, self.data * float(a))

    __rmul__ = __mul__


@dataclass(eq=False)
class GridField:
    """Real field sampled on the collocation grid."""

    domain: Domain
    values: np.ndarray

    def norm(self) -> float:
        """L2 norm by the grid quadrature (exact for band-limited data)."""
        d = self.domain
        if d.is_dirichlet:
            h = d.length[0] / (d.grid_n[0] + 1)
            return math.sqrt(h * float(np.sum(self.values**2)))
        w = d.volume / float(np.prod(d.grid_n))
        return math.sqrt(w * float(np.sum(self.values**2)))


def grid_coords(domain: Domain) -> list[np.ndarray]:
    """Per-axis collocation coordinates."""
    out = []
    for L, N in zip(domain.length, domain.grid_n):
        if domain.is_dirichlet:
            out.append(np.arange(1, N + 1) * L / (N + 1))
        else:
            out.append(np.arange(N) * L / N)
    return out


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def _spectrum_slots(domain: Domain, sizes: tuple[int, ...]):
    """Where the flat vector lives in a pruned half-spectrum on `sizes`.

    The half-spectrum is the rfftn array on the grid `sizes` cut to the
    band's last-axis columns 0..b.  A stored K sits at K if its last
    component is >= 0, else at -K with the conjugate coefficient.  Returns
    (shape, cell, dst, coef, plane, mirror): viewed as float pairs (re, im),
    spectrum[dst] = flat * coef with c_K = (z_K - i y_K) / cscale, and the
    complex cells `mirror` (the -K of last component 0) hold the conjugates
    of the cells `plane`.  `cell` is the complex cell of each sine slot,
    where an odd-periodic spectrum, purely imaginary, is handled as the real
    array of its imaginary parts (flat * coef at cell, negated at mirror).
    """
    lat = _lattice(domain)
    k = lat.kvecs
    shape = (*sizes[:-1], domain.band[-1] + 1)

    def cells(kv):
        return np.ravel_multi_index(tuple((kv % np.asarray(sizes)).T), shape)

    sign = np.where(k[:, -1] < 0, -1, 1)
    cell = cells(k * sign[:, None])
    dst, coef = [2 * cell + 1], [-sign / lat.cscale]  # sines: imaginary parts
    if len(lat.kinds) == 2:  # cosines: real parts
        dst.append(2 * cell)
        coef.append(np.full(lat.nhalf, 1.0 / lat.cscale))
    on_plane = k[:, -1] == 0
    return (shape, *_read_only(cell, np.concatenate(dst), np.concatenate(coef),
                               cell[on_plane], cells(-k[on_plane])))


def _fourier_synthesis(x: np.ndarray, domain: Domain, sizes, half: bool = False) -> np.ndarray:
    """Grid values on `sizes` of the flat Fourier vectors x, shape (..., n).

    Leading axes of x are a batch and lead the result.  The non-last axes
    are transformed over the b + 1 columns that hold data only, and irfft
    pads them with zeros.  With `half` (odd-periodic, dim >= 2) only the
    rows j0 = 0..M0 // 2 of axis 0 are returned: the spectrum is i times a
    real array, whose axis-0 inverse transform is Hermitian, so a real ihfft
    yields exactly those rows, and only they go on through the middle axes
    into the half-spectrum.
    """
    shape, cell, dst, coef, plane, mirror = _spectrum_slots(domain, sizes)
    dim = domain.dim
    lead = x.shape[:-1]
    if half:
        imag = np.zeros((*lead, math.prod(shape)))
        imag[..., cell] = x * coef
        imag[..., mirror] = -imag[..., plane]
        spec = sfft.ihfft(imag.reshape(*lead, *shape), n=sizes[0], axis=-dim,
                          norm="forward")
        if dim == 3:
            spec = sfft.ifft(spec, axis=-2, norm="forward", overwrite_x=True)
        spec *= 1j
    else:
        spec = np.zeros((*lead, 2 * math.prod(shape)))
        spec[..., dst] = x * coef
        spec = spec.view(complex)
        spec[..., mirror] = spec[..., plane].conj()
        spec = sfft.ifftn(spec.reshape(*lead, *shape), axes=range(-dim, -1),
                          norm="forward", overwrite_x=True)
    return sfft.irfft(spec, n=sizes[-1], norm="forward")


def _fourier_analysis(values: np.ndarray, domain: Domain, sizes) -> np.ndarray:
    """Flat Fourier vectors of the band content of real grid values on `sizes`.

    Leading axes of `values` beyond the grid's are a batch.  `values` may
    hold only the rows j0 = 0..M0 // 2 of axis 0 of a field odd under point
    reflection.  Once the other axes are transformed, i times those rows is
    the first half of a column that is Hermitian along axis 0, so a real
    hfft of length M0 completes it: its output is minus the imaginary part
    of the spectrum, which holds the sine coefficients.
    """
    shape, cell, dst, coef, _, _ = _spectrum_slots(domain, sizes)
    dim = domain.dim
    spec = sfft.rfft(values, norm="forward")[..., : shape[-1]]
    if values.shape[-dim] == sizes[0]:
        spec = sfft.fftn(spec, axes=range(-dim, -1), norm="forward", overwrite_x=True)
        lead = spec.shape[:-dim]
        return np.ascontiguousarray(spec).view(float).reshape(*lead, -1)[..., dst] / coef
    if dim == 3:
        spec = sfft.fft(spec, axis=-2, norm="forward", overwrite_x=True)
    spec *= 1j
    minus_imag = sfft.hfft(spec, n=sizes[0], axis=-dim, norm="forward")
    lead = minus_imag.shape[:-dim]
    return minus_imag.reshape(*lead, -1)[..., cell] / -coef


def _grid_values(x: np.ndarray, domain: Domain) -> np.ndarray:
    """Values on the collocation grid of coefficients x of shape (..., n)."""
    if domain.is_dirichlet:
        a = np.zeros((*x.shape[:-1], domain.grid_n[0]))
        a[..., : domain.band[0]] = x * _lattice(domain).scale
        return sfft.dst(a, type=1) / 2.0
    return _fourier_synthesis(x, domain, domain.grid_n)


def to_grid(f: SpectralField) -> GridField:
    """Evaluate the field on the collocation grid."""
    return GridField(f.domain, _grid_values(f.data, f.domain))


def to_spectral(g: GridField) -> SpectralField:
    """Exact inverse of to_grid on band-limited data."""
    d = g.domain
    if d.is_dirichlet:
        N, B = d.grid_n[0], d.band[0]
        a = sfft.dst(g.values, type=1) / (N + 1)
        return SpectralField(d, a[:B] / _lattice(d).scale)
    return SpectralField(d, _fourier_analysis(g.values, d, d.grid_n))


# ---------------------------------------------------------------------------
# dealiased products
# ---------------------------------------------------------------------------

def _sine_projection_matrix(band: int, length: float) -> np.ndarray:
    """R[q, n-1] = <cos(q pi x / L), phi_n> for the half-range re-expansion."""
    q = np.arange(0, 2 * band + 1)[:, None].astype(float)
    n = np.arange(1, band + 1)[None, :].astype(float)
    odd = (q + n) % 2 == 1
    R = np.zeros((2 * band + 1, band))
    denom = np.where(odd, n**2 - q**2, 1.0)
    R[odd] = (math.sqrt(2.0 / length) * (length / math.pi) * 2.0 * n / denom)[odd]
    return R


@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def _dirichlet_matrices(band: int, length: float):
    """(S, odd, even) for dirichlet products on P = 2 band DST-I points.

    S (P x B) synthesises the field at x_j = j L / (P + 1); odd (B x P)
    projects sine content back onto phi_1..phi_B; even (B x P) takes the
    cosine series of an even product (q = 0..2B, q = 0 halved) and
    re-expands it in the half-range sine series.
    """
    P = 2 * band
    j = np.arange(1, P + 1)
    # reduce j n and q j mod 2(P + 1) so sin and cos see small arguments
    sines = np.sin(math.pi * (np.outer(j, np.arange(1, band + 1)) % (2 * P + 2)) / (P + 1))
    S = math.sqrt(2.0 / length) * sines
    odd = S.T * (length / (P + 1))  # S.T S = (P + 1) / L on the band
    C = np.cos(math.pi * (np.outer(np.arange(2 * band + 1), j) % (2 * P + 2)) / (P + 1))
    C *= 2.0 / (P + 1)
    C[0] *= 0.5
    even = _sine_projection_matrix(band, length).T @ C
    return _read_only(S, odd, even)


@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def _product_maps(domain: Domain):
    """(synthesize, project_odd, project_even) between band coefficients and
    values on the product grid, whose size depends on the band alone.

    Each map acts on the trailing axes and carries leading batch axes
    through, so coefficients of shape (..., n) give values of shape
    (..., *grid) and back.  Dirichlet maps are the products of x with S.T,
    of v with odd.T and of v with even.T.  Fourier axes get next_fast_len(4b + 1) points, so
    the content of a cubic product (up to 3b) aliases outside [-b, b].
    'odd' projects a product that extends oddly (a cube, or a field times an
    even weight), 'even' one that extends evenly (a square).  Odd-periodic
    domains have no 'even' map (None): an even product has no sine content,
    and mu > 0 requires the dirichlet condition.  On odd-periodic domains of
    dim >= 2 the grid values are the parity half rows j0 = 0..M0 // 2 only,
    which 'odd' completes by point reflection.
    """
    if domain.is_dirichlet:
        matrices = _dirichlet_matrices(domain.band[0], domain.length[0])
        return tuple(partial(np.dot, b=m.T) for m in matrices)
    sizes = tuple(sfft.next_fast_len(4 * b + 1, real=True) for b in domain.band)
    odd_periodic = domain.bc is BoundaryCondition.ODD_PERIODIC
    synthesize = partial(_fourier_synthesis, domain=domain, sizes=sizes,
                         half=odd_periodic and domain.dim > 1)
    project = partial(_fourier_analysis, domain=domain, sizes=sizes)
    return synthesize, project, None if odd_periodic else project


def cube(f: SpectralField) -> SpectralField:
    """Spectral coefficients of u^3, exact on the retained band."""
    synthesize, odd, _ = _product_maps(f.domain)
    g = synthesize(f.data)
    return SpectralField(f.domain, odd(g * g * g))


def square(f: SpectralField) -> SpectralField:
    """Spectral coefficients of u^2 projected onto the retained basis."""
    if f.domain.bc is BoundaryCondition.ODD_PERIODIC:
        return SpectralField.zeros(f.domain)  # an even product has no sine content
    synthesize, _, even = _product_maps(f.domain)
    g = synthesize(f.data)
    return SpectralField(f.domain, even(g * g))


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Projection of the pointwise product f*g."""
    f._check(g)
    if f.domain.bc is BoundaryCondition.ODD_PERIODIC:
        return SpectralField.zeros(f.domain)  # an even product has no sine content
    synthesize, _, even = _product_maps(f.domain)
    return SpectralField(f.domain, even(synthesize(f.data) * synthesize(g.data)))


def triple(f: SpectralField, g: SpectralField, h: SpectralField) -> SpectralField:
    """Projection of the pointwise product f*g*h (exact on the band)."""
    f._check(g)
    f._check(h)
    synthesize, odd, _ = _product_maps(f.domain)
    return SpectralField(f.domain, odd(synthesize(f.data) * synthesize(g.data)
                                       * synthesize(h.data)))


def inner(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product <f, g>."""
    f._check(g)
    return float(f.data @ g.data)


def translate(f: SpectralField, shifts: tuple[int, ...]) -> SpectralField:
    """Translate a periodic field by integer grid shifts per axis.

    The shift rotates each (y_K, z_K) pair by the phase 2 pi K.s / grid_n.
    Dirichlet and odd-periodic fields raise: a general shift leaves the
    sine basis.
    """
    d = f.domain
    if d.bc is not BoundaryCondition.PERIODIC:
        raise ValueError("translation is only defined for periodic domains")
    lat = _lattice(d)
    theta = lat.kvecs @ (2.0 * math.pi * np.asarray(shifts) / np.asarray(d.grid_n))
    y, z = f.data[: lat.nhalf], f.data[lat.nhalf :]
    c, s = np.cos(theta), np.sin(theta)
    return SpectralField(d, np.concatenate([c * y + s * z, c * z - s * y]))


def max_translation_inner(a: SpectralField, b: SpectralField) -> float:
    """max over grid shifts s of <a, translate(b, s)> for periodic fields.

    The correlation over shifts has complex coefficients a_K conj(b_K); the
    (y, z) pairs of q encode cscale times them, so its grid synthesis is
    cscale times the correlation.
    """
    d = a.domain
    lat = _lattice(d)
    n = lat.nhalf
    ya, za, yb, zb = a.data[:n], a.data[n:], b.data[:n], b.data[n:]
    q = np.concatenate([ya * zb - za * yb, za * zb + ya * yb])
    return d.volume / lat.cscale * float(_fourier_synthesis(q, d, d.grid_n).max())


def random_field(domain: Domain, rng: np.random.Generator, scale: float = 1.0,
                 smooth: bool = True, unit_norm: bool = False) -> SpectralField:
    """Random field with independent Gaussian coefficients.

    With smooth=True the coefficients are damped by 1/(1 + (1-|kappa|^2)^2)
    so the field is dominated by large-scale content.
    """
    flat = rng.standard_normal(_lattice(domain).nflat) * scale
    if smooth:
        flat = flat / (1.0 + lattice_symbol(domain))
    f = SpectralField(domain, flat)
    if unit_norm:
        n = f.norm()
        if n > 0:
            f = f * (1.0 / n)
    return f
