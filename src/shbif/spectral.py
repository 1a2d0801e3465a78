"""Spectral representation layer: domains, mode lattices, transforms, products.

Fields are stored in the orthonormal eigenbasis of (I + Laplace)^2 on the box
(0, L)^n:

* ``dirichlet`` (1-d only): phi_n = sqrt(2/L) sin(n pi x / L), n >= 1.
* ``odd-periodic``: phi_K = sqrt(2/V) sin((2 pi / L) K.x), K in a half
  lattice (first nonzero component positive), V = box volume.
* ``periodic``: phi_K together with psi_K = sqrt(2/V) cos((2 pi / L) K.x);
  the zero mode (constants) is excluded throughout.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np
import scipy.fft as sfft

from .errors import DomainMismatch

_DEFAULT_GRID = {1: 512, 2: 256, 3: 128}


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


class _Lattice:
    """Cached index machinery for one domain."""

    def __init__(self, domain: Domain):
        self.domain = domain
        if domain.is_dirichlet:
            B = domain.band[0]
            n = np.arange(1, B + 1, dtype=float)
            kappa2 = (n * math.pi / domain.length[0]) ** 2
            self.symbol = (1.0 - kappa2) ** 2
            self.kappa2 = kappa2
            self.shape = (B,)
            self.nflat = B
            self.scale = math.sqrt(2.0 / domain.length[0])
            return
        axes = [np.arange(-b, b + 1) for b in domain.band]
        self.shape = tuple(2 * b + 1 for b in domain.band)
        grids = np.meshgrid(*axes, indexing="ij")
        kappa2 = np.zeros(self.shape)
        for g, L in zip(grids, domain.length):
            kappa2 += (2.0 * math.pi * g / L) ** 2
        self.kgrids = grids
        self.kappa2 = kappa2
        self.symbol = (1.0 - kappa2) ** 2
        # half lattice: first nonzero component positive
        half = np.zeros(self.shape, dtype=bool)
        undecided = np.ones(self.shape, dtype=bool)
        for g in grids:
            half |= undecided & (g > 0)
            undecided &= g == 0
        self.half_mask = half
        self.half_idx = np.nonzero(half)
        self.nhalf = int(half.sum())
        self.nflat = self.nhalf * (2 if domain.bc is BoundaryCondition.PERIODIC else 1)
        self.cscale = math.sqrt(2.0 * domain.volume)  # y = -cscale*Im(c), z = cscale*Re(c)
        self.mode_pos = {}
        for j, idx in enumerate(zip(*self.half_idx)):
            kvec = tuple(int(g[idx]) for g in grids)
            self.mode_pos[kvec] = j


@lru_cache(maxsize=None)
def _lattice(domain: Domain) -> _Lattice:
    return _Lattice(domain)


def lattice_symbol(domain: Domain) -> np.ndarray:
    """(1-|kappa|^2)^2 over the stored band, in storage layout."""
    return _lattice(domain).symbol


def symbol_flat(domain: Domain) -> np.ndarray:
    """(1-|kappa|^2)^2 over the flat real coefficient layout."""
    lat = _lattice(domain)
    if domain.is_dirichlet:
        return lat.symbol.copy()
    half = lat.symbol[lat.half_idx]
    if domain.bc is BoundaryCondition.PERIODIC:
        return np.concatenate([half, half])
    return half.copy()


@dataclass(eq=False)
class SpectralField:
    """Real field as coefficients in the orthonormal basis.

    Treat instances as immutable values; operations return new fields.
    Storage: dirichlet uses a real vector over modes 1..B, the periodic
    variants a centered hermitian complex cube over the band lattice.
    """

    domain: Domain
    data: np.ndarray

    # -- constructors ------------------------------------------------
    @staticmethod
    def zeros(domain: Domain) -> "SpectralField":
        lat = _lattice(domain)
        if domain.is_dirichlet:
            return SpectralField(domain, np.zeros(lat.shape))
        return SpectralField(domain, np.zeros(lat.shape, dtype=complex))

    @staticmethod
    def from_modes(domain: Domain, coeffs: dict) -> "SpectralField":
        lat = _lattice(domain)
        if domain.is_dirichlet:
            data = np.zeros(lat.shape)
            for m, val in coeffs.items():
                mode, sign = _coerce_mode(domain, m)
                n = mode.k[0]
                if n > domain.band[0]:
                    raise ValueError(f"mode {n} outside retained band")
                data[n - 1] += sign * float(val)
            return SpectralField(domain, data)
        y = np.zeros(lat.nhalf)
        z = np.zeros(lat.nhalf)
        for m, val in coeffs.items():
            mode, sign = _coerce_mode(domain, m)
            pos = lat.mode_pos.get(mode.k)
            if pos is None:
                raise ValueError(f"mode {mode.k} outside retained band")
            if mode.kind == "sin":
                y[pos] += sign * float(val)
            else:
                z[pos] += sign * float(val)
        return _field_from_half(domain, y, z)

    @staticmethod
    def from_flat(domain: Domain, flat: np.ndarray) -> "SpectralField":
        lat = _lattice(domain)
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (lat.nflat,):
            raise ValueError("flat vector has wrong length")
        if domain.is_dirichlet:
            return SpectralField(domain, flat.copy())
        if domain.bc is BoundaryCondition.PERIODIC:
            y, z = flat[: lat.nhalf], flat[lat.nhalf :]
        else:
            y, z = flat, np.zeros(lat.nhalf)
        return _field_from_half(domain, y, z)

    # -- accessors ---------------------------------------------------
    def coeff(self, m) -> float:
        mode, sign = _coerce_mode(self.domain, m)
        lat = _lattice(self.domain)
        if self.domain.is_dirichlet:
            n = mode.k[0]
            return float(sign * self.data[n - 1]) if n <= self.domain.band[0] else 0.0
        pos = lat.mode_pos.get(mode.k)
        if pos is None:
            return 0.0
        c = self.data[tuple(ix[pos] for ix in lat.half_idx)]
        if mode.kind == "sin":
            return float(sign * (-lat.cscale) * c.imag)
        return float(sign * lat.cscale * c.real)

    def modes(self, tol: float = 0.0) -> dict:
        """Map Mode -> coefficient for all entries with |coeff| > tol."""
        out = {}
        lat = _lattice(self.domain)
        if self.domain.is_dirichlet:
            for i, v in enumerate(self.data):
                if abs(v) > tol:
                    out[Mode("sin", (i + 1,))] = float(v)
            return out
        flat = self.to_flat()
        kinds = ("sin",) if self.domain.bc is BoundaryCondition.ODD_PERIODIC else ("sin", "cos")
        for j, kvec in enumerate(zip(*[g[lat.half_idx] for g in lat.kgrids])):
            for which, kind in enumerate(kinds):
                v = flat[j + which * lat.nhalf]
                if abs(v) > tol:
                    out[Mode(kind, tuple(int(x) for x in kvec))] = float(v)
        return out

    def to_flat(self) -> np.ndarray:
        lat = _lattice(self.domain)
        if self.domain.is_dirichlet:
            return self.data.copy()
        c = self.data[lat.half_idx]
        y = -lat.cscale * c.imag
        if self.domain.bc is BoundaryCondition.PERIODIC:
            z = lat.cscale * c.real
            return np.concatenate([y, z])
        return y

    def norm(self) -> float:
        """L2 norm via Parseval."""
        if self.domain.is_dirichlet:
            return float(np.linalg.norm(self.data))
        return math.sqrt(self.domain.volume * float(np.sum(np.abs(self.data) ** 2)))

    def copy(self) -> "SpectralField":
        return SpectralField(self.domain, self.data.copy())

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


def _field_from_half(domain: Domain, y: np.ndarray, z: np.ndarray) -> SpectralField:
    lat = _lattice(domain)
    c = np.zeros(lat.shape, dtype=complex)
    c[lat.half_idx] = (z - 1j * y) / lat.cscale
    c = c + np.conj(np.flip(c))
    return SpectralField(domain, c)


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

def _embed_indices(band, n_target):
    return [np.arange(-b, b + 1) % m for b, m in zip(band, n_target)]


def _half_indices(band, sizes):
    """Index of the band's half-spectrum (last wavenumber 0..b) in an rfftn array."""
    return np.ix_(*_embed_indices(band[:-1], sizes[:-1]), np.arange(band[-1] + 1))


def _fourier_synthesis(data: np.ndarray, domain: Domain, sizes) -> np.ndarray:
    H = np.zeros((*sizes[:-1], sizes[-1] // 2 + 1), dtype=complex)
    H[_half_indices(domain.band, sizes)] = data[..., domain.band[-1]:]
    return sfft.irfftn(H, s=sizes) * float(np.prod(sizes))


def _fourier_analysis(values: np.ndarray, domain: Domain) -> np.ndarray:
    h = (sfft.rfftn(values) / values.size)[_half_indices(domain.band, values.shape)]
    c = np.concatenate((np.conj(np.flip(h[..., 1:])), h), axis=-1)
    c = 0.5 * (c + np.conj(np.flip(c)))
    center = tuple(b for b in domain.band)
    c[center] = 0.0
    if domain.bc is BoundaryCondition.ODD_PERIODIC:
        c = 1j * c.imag
    return c


def to_grid(f: SpectralField) -> GridField:
    """Evaluate the field on the collocation grid."""
    d = f.domain
    if d.is_dirichlet:
        N, B = d.grid_n[0], d.band[0]
        a = np.zeros(N)
        a[:B] = f.data * _lattice(d).scale
        return GridField(d, sfft.dst(a, type=1) / 2.0)
    return GridField(d, _fourier_synthesis(f.data, d, d.grid_n))


def to_spectral(g: GridField) -> SpectralField:
    """Exact inverse of to_grid on band-limited data."""
    d = g.domain
    if d.is_dirichlet:
        N, B = d.grid_n[0], d.band[0]
        a = sfft.dst(g.values, type=1) / (N + 1)
        return SpectralField(d, a[:B] / _lattice(d).scale)
    return SpectralField(d, _fourier_analysis(g.values, d))


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


@lru_cache(maxsize=None)
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
    for m in (S, odd, even):
        m.flags.writeable = False  # shared by every caller through the cache
    return S, odd, even


@lru_cache(maxsize=None)
def _product_maps(domain: Domain):
    """(synthesize, project_odd, project_even) between band coefficients and
    values on the product grid, whose size depends on the band alone.

    Fourier axes get next_fast_len(4b + 1) points, so the content of a cubic
    product (up to 3b) aliases outside [-b, b].  'odd' projects a product
    that extends oddly (a cube, or a field times an even weight), 'even' one
    that extends evenly (a square); the even part of an odd-periodic product
    lies outside the sine basis and projects to zero.
    """
    if domain.is_dirichlet:
        S, odd, even = _dirichlet_matrices(domain.band[0], domain.length[0])
        return (lambda x: S @ x), (lambda v: odd @ v), (lambda v: even @ v)
    sizes = tuple(sfft.next_fast_len(4 * b + 1, real=True) for b in domain.band)
    synthesize = partial(_fourier_synthesis, domain=domain, sizes=sizes)
    project = partial(_fourier_analysis, domain=domain)
    if domain.bc is BoundaryCondition.ODD_PERIODIC:
        shape = _lattice(domain).shape
        return synthesize, project, lambda v: np.zeros(shape, dtype=complex)
    return synthesize, project, project


def cube(f: SpectralField) -> SpectralField:
    """Spectral coefficients of u^3, exact on the retained band."""
    synthesize, odd, _ = _product_maps(f.domain)
    g = synthesize(f.data)
    return SpectralField(f.domain, odd(g * g * g))


def square(f: SpectralField) -> SpectralField:
    """Spectral coefficients of u^2 projected onto the retained basis."""
    synthesize, _, even = _product_maps(f.domain)
    g = synthesize(f.data)
    return SpectralField(f.domain, even(g * g))


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Projection of the pointwise product f*g."""
    f._check(g)
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
    if f.domain.is_dirichlet:
        return float(f.data @ g.data)
    return float(f.domain.volume * np.real(np.vdot(f.data, g.data)))


def translate(f: SpectralField, shifts: tuple[int, ...]) -> SpectralField:
    """Translate a periodic field by integer grid shifts per axis."""
    d = f.domain
    if d.is_dirichlet:
        raise ValueError("translation is only defined for periodic domains")
    lat = _lattice(d)
    phase = np.zeros(lat.shape)
    for g, s, n in zip(lat.kgrids, shifts, d.grid_n):
        phase = phase + (-2.0 * math.pi * s / n) * g
    return SpectralField(d, f.data * np.exp(1j * phase))


def random_field(domain: Domain, rng: np.random.Generator, scale: float = 1.0,
                 smooth: bool = True, unit_norm: bool = False) -> SpectralField:
    """Random field with independent Gaussian coefficients.

    With smooth=True the coefficients are damped by 1/(1 + (1-|kappa|^2)^2)
    so the field is dominated by large-scale content.
    """
    flat = rng.standard_normal(_lattice(domain).nflat) * scale
    if smooth:
        flat = flat / (1.0 + symbol_flat(domain))
    f = SpectralField.from_flat(domain, flat)
    if unit_norm:
        n = f.norm()
        if n > 0:
            f = f * (1.0 / n)
    return f


# ---------------------------------------------------------------------------
# snapshot export
# ---------------------------------------------------------------------------

def write_csv_1d(g: GridField, path):
    """CSV snapshot with columns x,u."""
    if g.domain.dim != 1:
        raise ValueError("CSV snapshot export is 1-d only")
    x = grid_coords(g.domain)[0]
    with open(path, "w") as fh:
        fh.write("x,u\n")
        for xv, uv in zip(x, g.values):
            fh.write(f"{xv!r},{uv!r}\n")


def write_pgm_2d(g: GridField, path):
    """Grayscale PGM snapshot, values linearly rescaled to 0..255."""
    if g.domain.dim != 2:
        raise ValueError("PGM snapshot export is 2-d only")
    v = g.values
    lo, hi = float(v.min()), float(v.max())
    if hi - lo < 1e-300:
        pix = np.full(v.shape, 128, dtype=int)
    else:
        pix = np.rint((v - lo) / (hi - lo) * 255.0).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{v.shape[1]} {v.shape[0]}\n255\n")
        for row in pix:
            fh.write(" ".join(str(p) for p in row) + "\n")
