"""Steady states: Newton-Krylov solves, stability and census.

The steady equation -(I+Laplace)^2 u + lambda u + mu u^2 - u^3 = 0 is solved
by Newton iteration with matrix-free inner solves.  The Jacobian

    J(u) v = (lambda - (1-|kappa|^2)^2) v + 2 mu u v - 3 u^2 v

is self-adjoint but indefinite (its high modes are strongly negative, and
saddles add positive directions), so the inner solver is MINRES with the
diagonal preconditioner 1/(|beta_k| + 1).  Stability takes the growth
rates beta themselves when Weyl's inequality bounds the nonlinear part below
WEYL_TOL (the trivial state), and otherwise uses dense symmetric
eigendecomposition for small systems and a preconditioned block iteration
(LOBPCG, ARPACK fallback) for larger ones.

Census solves and LOBPCG use nested iteration (grid sequencing; Kelley,
Solving Nonlinear Equations with Newton's Method, 2003, sec. 1.9): the
problem is solved first on linear_analysis.coarse_domain, whose band per
axis is the largest of ceil(b / 4), 8 and 8 K_c (K_c the critical shell's
index on that axis), and the zero-padded result starts the solve on the
full band.  States bifurcated from zero decay fast in |K|, so near onset
that start is already converged; a state the coarse band does not resolve
costs full-band Newton steps.  Only the full band decides: a state is
accepted when its full-band residual meets NEWTON_TOL, and every reported
eigenvalue comes from a full-band LOBPCG, dense or Weyl evaluation.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft  # noqa: F401  bench/tracing.py counts transforms through this name
import scipy.sparse.linalg as spla

from .dynamics import Params, check_params
from .errors import (
    DegenerateState,
    EigsNoConvergence,
    NoConvergence,
    SingularJacobian,
)
from .linear_analysis import coarse_domain, eigenfunction, growth_array, principal
from .spectral import (
    BoundaryCondition,
    Domain,
    SpectralField,
    _product_maps,
    cube,
    inner,
    max_translation_inner,
    random_field,
    resample,
)

NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50  # Newton steps before NoConvergence
N_EIGS = 10  # leading eigenvalues stability() reports
POS_TOL = 1e-8
NEUTRAL_TOL = 1e-6
DEDUP_TOL = 1e-6
KRYLOV_MAXITER = 500  # MINRES iterations per Newton step, at least 2n
DENSE_LIMIT = 400  # stability() takes dense eigenvalues up to this size
WEYL_TOL = 1e-12  # stability() takes beta as the spectrum below this bound on |J - diag(beta)|


@dataclass
class SteadyState:
    """A converged steady state with optional stability data."""

    state: SpectralField
    residual: float
    lam: float
    mu: float
    leading_eigs: tuple | None = None
    neutral_eigs: tuple | None = None
    morse_index: int | None = None

    @property
    def norm(self) -> float:
        return self.state.norm()

    def as_dict(self) -> dict:
        out = {
            "lambda": self.lam,
            "mu": self.mu,
            "residual": self.residual,
            "l2_norm": self.norm,
            "morse_index": self.morse_index,
        }
        if self.leading_eigs is not None:
            out["leading_eigs"] = list(self.leading_eigs)
            out["neutral_eigs"] = list(self.neutral_eigs or ())
        return out


def _residual(u: SpectralField, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Residual coefficients and the product-grid values of u they used."""
    check_params(u.domain, p)
    synthesize, odd, even = _product_maps(u.domain)
    gu = synthesize(u.data)
    data = growth_array(u.domain, p.lam) * u.data - odd(gu * gu * gu)
    if p.mu != 0.0:
        data = data + p.mu * even(gu * gu)
    return data, gu


def residual(u: SpectralField, p: Params) -> SpectralField:
    """-(I+Laplace)^2 u + lambda u + mu u^2 - u^3 as a spectral field."""
    return SpectralField(u.domain, _residual(u, p)[0])


class _Jacobian:
    """Matrix-free J(u) with the grid of u cached across applies.

    gu, when given, is u's product-grid values as _residual returned them;
    otherwise u is synthesised here.  minv = 1/(|beta| + 1) is the diagonal
    preconditioner of both MINRES and LOBPCG.
    """

    def __init__(self, u: SpectralField, p: Params, gu: np.ndarray | None = None):
        self.u = u
        self.domain = u.domain
        self.n = len(u.data)
        self.p = p
        self.beta = growth_array(u.domain, p.lam)
        self.minv = 1.0 / (np.abs(self.beta) + 1.0)
        self.synthesize, self.odd, self.even = _product_maps(u.domain)
        if gu is None:
            gu = self.synthesize(u.data)
        self.w_odd = -3.0 * gu * gu
        self.w_even = 2.0 * p.mu * gu if p.mu != 0.0 else None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """J x on coefficient arrays of shape (..., n), row by row."""
        gx = self.synthesize(x)
        even = None if self.w_even is None else self.even(self.w_even * gx)
        gx *= self.w_odd  # in place: one product-grid array fewer alive
        out = self.beta * x + self.odd(gx)
        return out if even is None else out + even

    def as_linear_operator(self) -> spla.LinearOperator:
        # scipy hands matvec (n,) vectors or (n, 1) columns
        return spla.LinearOperator((self.n, self.n), dtype=float,
                                   matvec=lambda v: self.apply(v.reshape(-1)))

    def preconditioner(self) -> spla.LinearOperator:
        return spla.LinearOperator((self.n, self.n), dtype=float,
                                   matvec=lambda v: (self.minv * v.reshape(-1)).reshape(v.shape))


def jacobian_apply(u: SpectralField, p: Params, v: SpectralField) -> SpectralField:
    """Directional derivative of the steady residual at u in direction v."""
    return SpectralField(u.domain, _Jacobian(u, p).apply(v.data))


def _solve_newton_system(jac: _Jacobian, rhs: np.ndarray, rtol: float) -> np.ndarray:
    x, _info = spla.minres(jac.as_linear_operator(), rhs, rtol=max(rtol, 1e-12),
                           maxiter=max(KRYLOV_MAXITER, 2 * jac.n), M=jac.preconditioner())
    res = float(np.linalg.norm(jac.apply(x) - rhs))
    if res > 0.5 * float(np.linalg.norm(rhs)):
        raise SingularJacobian("inner solver stagnated (singular Jacobian)")
    return x


def newton(u0: SpectralField, p: Params) -> SteadyState:
    """Newton iteration from u0 to a residual norm of NEWTON_TOL.

    Raises NoConvergence after NEWTON_MAX_ITER steps, or SingularJacobian.
    """
    u = u0
    f, gu = _residual(u, p)
    nf = float(np.linalg.norm(f))
    for _ in range(NEWTON_MAX_ITER):
        if nf <= NEWTON_TOL:
            return SteadyState(u, nf, p.lam, p.mu)
        if not np.isfinite(nf) or nf > 1e8:
            raise NoConvergence(f"residual diverged ({nf:.3g})")
        jac = _Jacobian(u, p, gu)
        eta = min(0.1, max(1e-4, nf))
        try:
            dv = SpectralField(u.domain, _solve_newton_system(jac, -f, eta))
            s = 1.0
            for _ in range(11):
                u_try = u + s * dv
                f_try, gu_try = _residual(u_try, p)
                nf_try = float(np.linalg.norm(f_try))
                if nf_try < nf:
                    break
                s *= 0.5
            else:
                raise NoConvergence("line search could not reduce the residual")
        except (SingularJacobian, NoConvergence):
            # iterates collapsing onto the trivial branch stall on a singular
            # Jacobian (double root at the bifurcation point) or a line search
            # that cannot lower the residual; the limit is the exact state u = 0
            if u.norm() < 1e-3:
                return SteadyState(SpectralField.zeros(u.domain), 0.0, p.lam, p.mu)
            raise
        u, f, gu, nf = u_try, f_try, gu_try, nf_try
    if nf <= NEWTON_TOL:
        return SteadyState(u, nf, p.lam, p.mu)
    raise NoConvergence(f"no convergence after {NEWTON_MAX_ITER} Newton steps (|F|={nf:.3g})")


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def _lobpcg_start(jac: _Jacobian, k: int) -> np.ndarray:
    """Initial LOBPCG block of k columns for jac.

    The coarse Jacobian's leading Ritz vectors, zero-padded to the full
    band (Knyazev, SISC 23, 2001), when coarse_domain, which keeps the
    critical shell and the modes near it, gives a problem that LOBPCG
    iterates on (scipy's size rule, n >= 5 k) and that iteration
    succeeds.  Otherwise unit vectors on the least-damped modes plus a
    little fixed noise.
    """
    coarse = coarse_domain(jac.domain)
    if coarse is not None:
        u = SpectralField(coarse, resample(jac.u.data, jac.domain, coarse))
        pairs = _lobpcg(_Jacobian(u, jac.p), k) if len(u.data) >= 5 * k else None
        if pairs is not None:
            return resample(pairs[1].T, coarse, jac.domain).T
    x0 = np.zeros((jac.n, k))
    x0[np.argsort(-jac.beta)[:k], np.arange(k)] = 1.0
    return x0 + 1e-3 * np.random.default_rng(0).standard_normal(x0.shape)


def _lobpcg(jac: _Jacobian, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """LOBPCG's k leading eigenpairs of jac, or None when it fails.

    Plain Lanczos stalls on the huge spectral spread of (I+Laplace)^2, so
    the block iteration is preconditioned with 1/(|beta|+1) and started
    from _lobpcg_start.
    """
    x0 = _lobpcg_start(jac, k)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evals, vecs = spla.lobpcg(jac.as_linear_operator(), x0, M=jac.preconditioner(),
                                      largest=True, tol=1e-7, maxiter=100)
    except (np.linalg.LinAlgError, ValueError):
        return None
    return (np.asarray(evals), vecs) if np.all(np.isfinite(evals)) else None


def _leading_eigs_lobpcg(jac: _Jacobian, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest algebraic Jacobian eigenvalues and their eigenvectors, matrix-free.

    Returns (evals, vecs) with vecs of shape (n, k), from _lobpcg, or from
    ARPACK with a warning when LOBPCG fails.
    """
    pairs = _lobpcg(jac, k)
    if pairs is not None:
        return pairs
    warnings.warn(f"stability: LOBPCG failed for the leading {k} eigenvalues; "
                  "falling back to ARPACK", RuntimeWarning, stacklevel=3)
    try:
        return spla.eigsh(jac.as_linear_operator(), k=k, which="LA", maxiter=400 * k)
    except spla.ArpackNoConvergence as err:
        raise EigsNoConvergence(str(err)) from err


def _weyl_bound(u: SpectralField, mu: float) -> float:
    """Bound on the operator norm of J(u) - diag(beta) from u's coefficients.

    That difference projects multiplication by 2 mu u - 3 u^2, so its norm
    is at most 3 s^2 + 2 |mu| s with s = sup |u|.  Every basis function is
    bounded by sqrt(2 / V), so s <= sqrt(2 n / V) |u| by Cauchy-Schwarz.
    """
    sup = math.sqrt(2.0 * len(u.data) / u.domain.volume) * u.norm()
    return 3.0 * sup * sup + 2.0 * abs(mu) * sup


def stability(s: SteadyState) -> SteadyState:
    """Fill the N_EIGS leading Jacobian eigenvalues and the Morse index.

    For periodic domains, eigenvalues with |e| < 1e-6 are reported as neutral
    translation modes and excluded from the Morse index.  When _weyl_bound
    puts |J(u) - diag(beta)| below WEYL_TOL, as at the trivial state, Weyl's
    inequality places each eigenvalue within that bound of the sorted beta,
    which are taken as the eigenvalues with no eigensolver run.  Otherwise
    small systems are diagonalised densely; larger ones run LOBPCG on k =
    N_EIGS leading eigenvalues, doubling k up to a cap of 64 (and n - 2) until one
    lies below -1e-6, and warn when the cap stops them: the Morse index may
    be truncated.  LOBPCG starts from the leading Ritz vectors of the
    Jacobian on coarse_domain and still runs to its tolerance on the full
    band, so the eigenvalues are full-band ones.
    """
    periodic = s.state.domain.bc is BoundaryCondition.PERIODIC
    if _weyl_bound(s.state, s.mu) < WEYL_TOL:
        evals = np.sort(growth_array(s.state.domain, s.lam))
    else:
        jac = _Jacobian(s.state, Params(s.lam, s.mu))
        n = jac.n
        if n <= DENSE_LIMIT:
            mat = jac.apply(np.eye(n))  # row i is J e_i: the transpose of J
            evals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        else:
            cap = min(64, n - 2)
            k = min(N_EIGS, cap)
            while True:
                evals = np.sort(_leading_eigs_lobpcg(jac, k)[0])
                if evals[0] < -NEUTRAL_TOL:
                    break
                if k >= cap:
                    warnings.warn(f"stability: all {k} leading eigenvalues lie above "
                                  f"{-NEUTRAL_TOL:g}; the Morse index may be truncated",
                                  RuntimeWarning, stacklevel=2)
                    break
                k = min(2 * k, cap)
    neutral = tuple(float(e) for e in evals if periodic and abs(e) < NEUTRAL_TOL)
    effective = [float(e) for e in evals if not (periodic and abs(e) < NEUTRAL_TOL)]
    morse = sum(1 for e in effective if e > POS_TOL)
    leading = tuple(sorted((float(e) for e in evals), reverse=True)[:N_EIGS])
    return replace(s, leading_eigs=leading, neutral_eigs=neutral, morse_index=morse)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def default_seed_scale(domain: Domain, p: Params) -> float:
    """Basis-coefficient scale of the expected bifurcated states."""
    summ = principal(domain)
    beta1 = p.lam - summ.lambda_c
    phi = eigenfunction(domain, summ.critical_modes[0])
    t_self = inner(cube(phi), phi)
    if beta1 > 0 and t_self > 0:
        return float(np.sqrt(beta1 / t_self))
    return 0.3


def orbit_distance(a: SpectralField, b: SpectralField, p: Params,
                   mode: str = "symmetry") -> float:
    """L2 distance between a and the orbit of b under the symmetry group.

    mode 'symmetry': sign flip (mu = 0 only) and, for periodic domains,
    discrete grid translations.  mode 'exact': plain distance.
    """
    d0 = (a - b).norm()
    if mode == "exact":
        return d0
    best = d0
    signs = (1.0, -1.0) if p.mu == 0.0 else (1.0,)
    if a.domain.bc is BoundaryCondition.PERIODIC:
        na2, nb2 = a.norm() ** 2, b.norm() ** 2
        for sgn in signs:
            m = max_translation_inner(a, sgn * b)
            best = min(best, float(np.sqrt(max(0.0, na2 + nb2 - 2.0 * m))))
    elif -1.0 in signs:
        best = min(best, (a + b).norm())
    return best


def _newton_task(task):
    seed, p = task
    coarse = coarse_domain(seed.domain)
    try:
        if coarse is not None:
            s = newton(SpectralField(coarse, resample(seed.data, seed.domain, coarse)), p)
            seed = SpectralField(seed.domain, resample(s.state.data, coarse, seed.domain))
        return newton(seed, p)
    except (NoConvergence, SingularJacobian):
        return None


def find_all(domain: Domain, p: Params, n_seeds: int = 100, *, rng_seed: int = 0,
             jobs: int = 1, dedup: str = "symmetry") -> list[SteadyState]:
    """Newton from random critical-mode seeds, deduplicated.

    Seeds are random combinations of the critical eigenfunctions plus small
    noise on the slaved modes.  dedup 'symmetry' identifies states equal up
    to a global sign flip (mu = 0) and, for periodic domains, grid
    translations; 'exact' keeps every distinct state.  Each seed is solved
    on coarse_domain first when the band exceeds what that holds (8 K_c per
    axis and more), and its zero-padded result is solved again on the full
    band; only that full-band solve accepts a state (residual <=
    NEWTON_TOL), and a coarse failure fails the seed.  This pays off when
    the states are resolved within the coarse band, as near onset.  Every
    kept state is returned with its stability.  With jobs > 1 one fork pool of that size runs the Newton solves and
    then the stability calls.
    """
    check_params(domain, p)
    seed_scale = default_seed_scale(domain, p)
    summ = principal(domain)
    rng = np.random.default_rng(rng_seed)
    crit = [eigenfunction(domain, m) for m in summ.critical_modes]
    seeds = []
    for _ in range(n_seeds):
        f = SpectralField.zeros(domain)
        for phi in crit:
            f = f + float(rng.normal(0.0, seed_scale)) * phi
        f = f + random_field(domain, rng, 0.01 * seed_scale, smooth=True)
        seeds.append(f)
    with contextlib.ExitStack() as stack:
        run = map
        if jobs > 1:
            run = stack.enter_context(multiprocessing.get_context("fork").Pool(jobs)).map
        results = run(_newton_task, [(s, p) for s in seeds])
        states = [s for s in results if s is not None]
        states.sort(key=lambda s: (round(s.norm, 9), np.round(s.state.data, 9).tobytes()))
        kept: list[SteadyState] = []
        for s in states:
            if all(orbit_distance(s.state, k.state, p, dedup) >= DEDUP_TOL for k in kept):
                kept.append(s)
        kept = list(run(stability, kept))
    return kept


def index_sum(states: list[SteadyState]) -> int:
    """Sum of (-1)^morse over the given states.

    Over all the nonzero steady states of an attractor bifurcated from a
    critical eigenvalue of multiplicity m (find_all with dedup='exact') the
    sum is 2 when m is odd and 0 when m is even.  Over sign classes
    (dedup='symmetry') it can differ: in the 3-d odd-periodic census it is
    2 over all states and 1 over classes.  Raises DegenerateState when a
    non-neutral eigenvalue sits within 1e-8 of zero.
    """
    total = 0
    for s in states:
        if s.leading_eigs is None or s.morse_index is None:
            raise ValueError("run stability() before index_sum()")
        neutral = set(s.neutral_eigs or ())
        for e in s.leading_eigs:
            if e in neutral:
                continue
            if abs(e) < POS_TOL:
                raise DegenerateState(f"eigenvalue {e:.3g} too close to zero")
        total += (-1) ** s.morse_index
    return total

