"""Steady states: Newton-Krylov solves, stability and census.

The steady equation -(I+Laplace)^2 u + lambda u + mu u^2 - u^3 = 0 is solved
by Newton iteration with matrix-free inner solves.  The Jacobian

    J(u) v = (lambda - (1-|kappa|^2)^2) v + 2 mu u v - 3 u^2 v

is self-adjoint but indefinite (its high modes are strongly negative, and
saddles add positive directions), so the inner solver is MINRES with the
diagonal preconditioner 1/(|beta_k| + 1).  Stability bounds the nonlinear
part |J - diag(beta)| by w from the l1 norm of u's coefficients.  It takes
the growth rates beta themselves when w < WEYL_TOL (the trivial state), and
otherwise a dense symmetric eigendecomposition for small systems or one
preconditioned block iteration (LOBPCG) for larger ones.  By Weyl's
inequality that iteration's window of max(N_EIGS, #{beta > -(w +
NEUTRAL_TOL)}) eigenvalues holds every positive and every neutral one, so
one pass gives the Morse index.  The pass stops at its first Rayleigh-Ritz
when the warm start meets LOBPCG_TOL already, as on the 2-d census box; a
pass that fails or ends above LOBPCG_TOL raises EigsNoConvergence.

Newton runs in lockstep on a batch of states, one per row: each step takes
one batched residual, one batched MINRES and a line search that halves its
step length per row, and a row leaves the batch when it converges, fails or
collapses.  newton is the batch of one.  The MINRES is a row-wise port of
scipy's (Paige & Saunders, SINUM 12, 1975), with its recurrences and
stopping tests, so a row's iterates match scipy's to rounding.  Every
per-row reduction ignores the other rows, so on Fourier domains a row's
result does not depend on its batch; a dirichlet batch of one multiplies by
the product matrices in a BLAS matrix-vector call, which rounds differently
from a matrix product.

Census solves and LOBPCG use nested iteration (grid sequencing; Kelley,
Solving Nonlinear Equations with Newton's Method, 2003, sec. 1.9) down the
chain linear_analysis._levels: coarse_domain, whose band per axis is the
largest of ceil(b / 4), 8 and 8 K_c (K_c the critical shell's index on
that axis), applied until the band stops shrinking.  A census seed is
solved first on the coarsest level, and each zero-padded result starts the
solve on the next level, up to the full band.  States bifurcated from zero
decay fast in |K|, so near onset each start is already converged; a state
a coarse band does not resolve costs finer Newton steps.  LOBPCG starts
from the leading eigenvectors of the dense Jacobian on the coarsest level,
its band halved until it holds at most DENSE_LIMIT modes.  Only the full
band decides: a state is accepted when its full-band residual meets
NEWTON_TOL, and every reported eigenvalue comes from a full-band LOBPCG,
dense or Weyl evaluation.  The census draws its seeds on the coarsest
level as one batch, which takes its steps below the full band in
lockstep.  After each of those levels the rows within plain distance
DEDUP_TOL of an earlier row are merged into it, so each distinct state
moves up once: on the 2-d census box 100 seeds leave 9 rows for the
band-16 level and 9 full-band solves.  The full-band solve is one newton
per row: near onset it is a single residual with no Newton step, and
the batched band-64 solve measured slower per row than single ones.

find_all then passes once over its states in census order.  A state that
_is_image of a representative so far, a signed image under
spectral._box_symmetries within the Weyl bound WEYL_TOL, copies its
eigenvalues; any other runs stability and becomes a representative.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft  # noqa: F401  bench/tracing.py counts transforms through this name
import scipy.sparse.linalg as spla

from .dynamics import Params, check_params
from .errors import (
    BandTooSmall,
    DegenerateState,
    EigsNoConvergence,
    NoConvergence,
    SingularJacobian,
)
from .linear_analysis import _levels, eigenfunction, growth_array, principal
from .spectral import (
    BoundaryCondition,
    Domain,
    SpectralField,
    _box_symmetries,
    _product_maps,
    _shared_slots,
    cube,
    inner,
    lattice_symbol,
    max_translation_inner,
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
LOBPCG_TOL = 1e-7  # residual norm |J v - theta v| of every converged Ritz pair
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
    preconditioner of both MINRES and LOBPCG.  u.data of shape (m, n) is a
    batch of m states, and row i of a batch Jacobian's argument is applied
    with the i-th state.
    """

    def __init__(self, u: SpectralField, p: Params, gu: np.ndarray | None = None):
        self.u = u
        self.domain = u.domain
        self.n = u.data.shape[-1]
        self.p = p
        self.beta = growth_array(u.domain, p.lam)
        self.minv = 1.0 / (np.abs(self.beta) + 1.0)
        self.synthesize, self.odd, self.even = _product_maps(u.domain)
        if gu is None:
            gu = self.synthesize(u.data)
        self.w_odd = -3.0 * gu * gu
        self.w_even = 2.0 * p.mu * gu if p.mu != 0.0 else None

    def apply(self, x: np.ndarray, rows=slice(None)) -> np.ndarray:
        """J x on coefficient arrays of shape (..., n), row by row.

        On a batch Jacobian, x holds one row for each state u.data[rows].
        """
        gx = self.synthesize(x)
        even = None if self.w_even is None else self.even(self.w_even[rows] * gx)
        gx *= self.w_odd[rows]  # in place: one product-grid array fewer alive
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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _minres(jac: _Jacobian, b: np.ndarray, rtol: np.ndarray,
            maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """MINRES (Paige & Saunders, SINUM 12, 1975) on each row of J x = b from x = 0.

    A row-wise port of scipy.sparse.linalg.minres without shift, with the
    preconditioner jac.minv: row i, solved with the i-th state of the batch
    Jacobian jac, keeps that function's recurrences and its stopping tests
    at rtol[i], and leaves the batch when they stop it.  Returns x and the
    iteration count per row.
    """
    eps = np.finfo(float).eps
    x_out, itn_out = np.zeros_like(b), np.zeros(len(b), dtype=int)
    y = jac.minv * b
    beta1 = np.sqrt(_rowdot(b, y))
    rows = np.flatnonzero(beta1 > 0.0)  # b = 0 is solved by x = 0
    r1 = r2 = b[rows]
    y, beta1, rtol = y[rows], beta1[rows], rtol[rows]
    x, w, w2 = (np.zeros_like(r1) for _ in range(3))
    beta, phibar = beta1, beta1
    oldb, dbar, epsln, tnorm2, gmax, sn = (np.zeros(len(rows)) for _ in range(6))
    gmin, cs = np.full(len(rows), np.finfo(float).max), np.full(len(rows), -1.0)
    itn = 0
    while rows.size:
        itn += 1
        # Lanczos step on the preconditioned operator
        v = (1.0 / beta)[:, None] * y
        y = jac.apply(v, rows)
        if itn >= 2:
            y = y - (beta / oldb)[:, None] * r1
        alfa = _rowdot(v, y)
        y = y - (alfa / beta)[:, None] * r2
        r1, r2 = r2, y
        y = jac.minv * r2
        oldb, beta = beta, np.sqrt(_rowdot(r2, y))
        tnorm2 = tnorm2 + alfa**2 + oldb**2 + beta**2
        # previous plane rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.sqrt(gbar**2 + dbar**2)
        gamma = np.maximum(np.sqrt(gbar**2 + beta**2), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps[:, None] * w1 - delta[:, None] * w2) * (1.0 / gamma)[:, None]
        x = x + phi[:, None] * w
        gmax, gmin = np.maximum(gmax, gamma), np.minimum(gmin, gamma)
        anorm = np.sqrt(tnorm2)
        ynorm = np.linalg.norm(x, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            test1 = phibar / (anorm * ynorm)  # |r| / (|A| |x|)
            test2 = root / anorm  # |A r| / (|A| |r|)
        stop = ((test1 <= rtol) | (test2 <= rtol) | (1.0 + test1 <= 1.0) | (1.0 + test2 <= 1.0)
                | (anorm * ynorm * eps >= beta1) | (gmax / gmin >= 0.1 / eps) | (itn >= maxiter))
        if itn == 1:
            stop |= beta / beta1 <= 10 * eps  # b and x are eigenvectors
        if stop.any():  # compact the batch only when a row leaves it
            x_out[rows[stop]], itn_out[rows[stop]] = x[stop], itn
            go = ~stop
            (rows, rtol, beta1, r1, r2, y, x, w, w2, beta, oldb, dbar, epsln, phibar, tnorm2,
             gmax, gmin, cs, sn) = (a[go] for a in (rows, rtol, beta1, r1, r2, y, x, w, w2,
                                                    beta, oldb, dbar, epsln, phibar, tnorm2,
                                                    gmax, gmin, cs, sn))
    return x_out, itn_out


def _solve_newton_system(jac: _Jacobian, rhs: np.ndarray,
                         rtol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MINRES steps x for the rows of J x = rhs, and which rows they solve.

    A row is solved when its step meets |J x - rhs| <= |rhs| / 2; otherwise
    the inner solver stagnated on a singular Jacobian.
    """
    x, _itn = _minres(jac, rhs, rtol, max(KRYLOV_MAXITER, 2 * jac.n))
    res = np.linalg.norm(jac.apply(x) - rhs, axis=1)
    return x, ~(res > 0.5 * np.linalg.norm(rhs, axis=1))


def _newton_rows(u: SpectralField,
                 p: Params) -> list[SteadyState | NoConvergence | SingularJacobian]:
    """Lockstep Newton on the rows of u.data, shape (m, n), to NEWTON_TOL.

    Every step takes one batched residual, one batched MINRES and a line
    search that halves s per row.  A row leaves the batch when it
    converges, fails or collapses: iterates collapsing onto the trivial
    branch stall on a singular Jacobian (double root at the bifurcation
    point) or a line search that cannot lower the residual, so a row that
    stalls below |u| < 1e-3 returns the exact state u = 0.  Returns each
    row's SteadyState, or the NoConvergence or SingularJacobian that ended it.
    """
    d = u.domain
    out = [None] * len(u.data)
    rows, x = np.arange(len(u.data)), u.data
    f, gu = _residual(u, p)
    nf = np.linalg.norm(f, axis=1)
    for it in range(NEWTON_MAX_ITER + 1):
        conv = nf <= NEWTON_TOL
        for i in np.flatnonzero(conv):
            out[rows[i]] = SteadyState(SpectralField(d, x[i].copy()), float(nf[i]), p.lam, p.mu)
        if it == NEWTON_MAX_ITER:
            for i in np.flatnonzero(~conv):
                out[rows[i]] = NoConvergence(f"no convergence after {NEWTON_MAX_ITER} "
                                             f"Newton steps (|F|={nf[i]:.3g})")
            break
        diverged = ~conv & ~(nf <= 1e8)  # nan and inf too
        for i in np.flatnonzero(diverged):
            out[rows[i]] = NoConvergence(f"residual diverged ({nf[i]:.3g})")
        go = ~(conv | diverged)
        rows, x, f, gu, nf = rows[go], x[go], f[go], gu[go], nf[go]
        if not rows.size:
            break
        dv, solved = _solve_newton_system(_Jacobian(SpectralField(d, x), p, gu), -f,
                                          np.clip(nf, 1e-4, 0.1))
        s, searching = np.ones(len(rows)), solved.copy()
        new = [np.empty_like(a) for a in (x, f, gu, nf)]
        for _ in range(11):
            idx = np.flatnonzero(searching)
            if not idx.size:
                break
            x_try = x[idx] + s[idx, None] * dv[idx]
            f_try, gu_try = _residual(SpectralField(d, x_try), p)
            nf_try = np.linalg.norm(f_try, axis=1)
            lower = nf_try < nf[idx]
            for a, a_try in zip(new, (x_try, f_try, gu_try, nf_try)):
                a[idx[lower]] = a_try[lower]
            searching[idx[lower]] = False
            s[idx[~lower]] *= 0.5
        stalled = ~solved | searching
        for i in np.flatnonzero(stalled):
            if np.linalg.norm(x[i]) < 1e-3:
                out[rows[i]] = SteadyState(SpectralField.zeros(d), 0.0, p.lam, p.mu)
            elif solved[i]:
                out[rows[i]] = NoConvergence("line search could not reduce the residual")
            else:
                out[rows[i]] = SingularJacobian("inner solver stagnated (singular Jacobian)")
        go = ~stalled
        rows, (x, f, gu, nf) = rows[go], (a[go] for a in new)
    return out


def newton(u0: SpectralField, p: Params) -> SteadyState:
    """Newton iteration from u0 to a residual norm of NEWTON_TOL.

    The batch of one of _newton_rows.  Raises NoConvergence after
    NEWTON_MAX_ITER steps, or SingularJacobian.
    """
    out = _newton_rows(SpectralField(u0.domain, u0.data[None]), p)[0]
    if isinstance(out, Exception):
        raise out
    return out


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def _dense(jac: _Jacobian) -> np.ndarray:
    """The Jacobian as a dense symmetric matrix."""
    mat = jac.apply(np.eye(jac.n))  # row i is J e_i: the transpose of J
    return 0.5 * (mat + mat.T)


def _start_level(domain: Domain) -> Domain | None:
    """Where _lobpcg_start diagonalises: the coarsest of _levels(domain), its
    band halved per axis until it holds at most DENSE_LIMIT modes, or None
    when that band misses the critical shell.  Halving keeps the cubic cost
    of the dense eigh small: on the 4 pi band-24 box a band-8 start takes
    4-5 LOBPCG steps, and band 13, the largest that fits, takes 3 at more
    than twice the time."""
    level = _levels(domain)[0]
    while len(lattice_symbol(level)) > DENSE_LIMIT:
        half = replace(level, band=tuple(-(-b // 2) for b in level.band))
        if half == level:
            return None
        level = half
    with contextlib.suppress(BandTooSmall):
        principal(level)
        return level
    return None


def _lobpcg_start(jac: _Jacobian, k: int) -> np.ndarray:
    """Initial LOBPCG block of k columns for jac.

    Nested iteration (Knyazev, SISC 23, 2001): the k leading eigenvectors of
    the dense Jacobian on _start_level, which keeps the critical shell and
    the modes near it, zero-padded to the full band.  Unit vectors on the
    least-damped modes plus a little fixed noise when that level has fewer
    than k modes or there is none.
    """
    level = _start_level(jac.domain)
    if level is not None and k <= len(lattice_symbol(level)):
        u = resample(jac.u.data, jac.domain, level)
        vecs = np.linalg.eigh(_dense(_Jacobian(SpectralField(level, u), jac.p)))[1][:, -k:]
        return resample(vecs.T, level, jac.domain).T
    x0 = np.zeros((jac.n, k))
    x0[np.argsort(-jac.beta)[:k], np.arange(k)] = 1.0
    return x0 + 1e-3 * np.random.default_rng(0).standard_normal(x0.shape)


def _lobpcg(jac: _Jacobian, k: int) -> np.ndarray:
    """LOBPCG's k leading eigenvalues of jac, in ascending order.

    Plain Lanczos stalls on the huge spectral spread of (I+Laplace)^2, so
    the block iteration is preconditioned with 1/(|beta|+1) and started
    from _lobpcg_start.  Iteration 0 runs here, one apply per column: when
    every Ritz pair of the orthonormalized start meets |J v - theta v| <=
    LOBPCG_TOL, scipy's own test, the Ritz values are returned, as scipy
    would return them; otherwise scipy's lobpcg goes on from the Ritz
    vectors.  Raises EigsNoConvergence when LOBPCG fails, returns
    non-finite values or ends above LOBPCG_TOL.
    """
    try:
        x = np.linalg.qr(np.asarray_chkfinite(_lobpcg_start(jac, k)))[0]  # qr hides a nan
        jx = np.stack([jac.apply(v) for v in x.T], axis=1)  # single applies beat a batched one
        gram = x.T @ jx
        evals, rot = np.linalg.eigh(0.5 * (gram + gram.T))
        x = x @ rot
        if not np.all(np.linalg.norm(jx @ rot - x * evals, axis=0) <= LOBPCG_TOL):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a residual past the tolerance raises below
                evals, _, history = spla.lobpcg(
                    jac.as_linear_operator(), x, M=jac.preconditioner(), largest=True,
                    tol=LOBPCG_TOL, maxiter=100, retResidualNormsHistory=True)
            if not np.all(history[-1] <= LOBPCG_TOL):
                raise EigsNoConvergence(f"LOBPCG missed its tolerance for the leading {k} "
                                        f"eigenvalues: residuals up to {np.max(history[-1]):.3g}")
    except (np.linalg.LinAlgError, ValueError) as err:
        raise EigsNoConvergence(f"LOBPCG failed for the leading {k} eigenvalues: {err}") from err
    if not np.all(np.isfinite(evals)):
        raise EigsNoConvergence(f"LOBPCG returned non-finite eigenvalues for k = {k}")
    return np.sort(evals)


def _sup_bound(x: np.ndarray, domain: Domain) -> np.ndarray:
    """sqrt(2 / V) |x|_1 over the last axis: every basis function is bounded
    by sqrt(2 / V), so this bounds sup |u| of the coefficients x."""
    return math.sqrt(2.0 / domain.volume) * np.abs(x).sum(axis=-1)


def _weyl_bound(u: SpectralField, mu: float) -> float:
    """Bound on the operator norm of J(u) - diag(beta) from u's coefficients.

    That difference projects multiplication by 2 mu u - 3 u^2, so its norm
    is at most 3 s^2 + 2 |mu| s with s = sup |u| <= _sup_bound(u).
    """
    sup = float(_sup_bound(u.data, u.domain))
    return 3.0 * sup * sup + 2.0 * abs(mu) * sup


def stability(s: SteadyState) -> SteadyState:
    """Fill the N_EIGS leading Jacobian eigenvalues and the Morse index.

    For periodic domains, eigenvalues with |e| < NEUTRAL_TOL are reported
    as neutral translation modes and excluded from the Morse index.  Weyl's
    inequality puts the i-th largest eigenvalue of J(u) within w =
    _weyl_bound of the i-th largest beta.  When w < WEYL_TOL, as at the
    trivial state, the sorted beta are taken as the eigenvalues with no
    eigensolver run.  Otherwise one _lobpcg runs on k = max(N_EIGS, m)
    leading eigenvalues, where m counts the beta above -(w + NEUTRAL_TOL):
    the (k+1)-th eigenvalue then lies at or below -NEUTRAL_TOL, so every
    positive and every neutral eigenvalue is among the k.  A converged warm
    start makes that k full-band applies.  Systems of at most DENSE_LIMIT
    or fewer than 5 k modes, too few for LOBPCG's block, are diagonalised
    densely.  A failed LOBPCG raises EigsNoConvergence.  find_all calls
    this once per box-symmetry orbit, on its first state; a later state
    that _is_image of it copies the result.
    """
    periodic = s.state.domain.bc is BoundaryCondition.PERIODIC
    w = _weyl_bound(s.state, s.mu)
    if w < WEYL_TOL:
        evals = np.sort(growth_array(s.state.domain, s.lam))
    else:
        jac = _Jacobian(s.state, Params(s.lam, s.mu))
        k = max(N_EIGS, int(np.count_nonzero(jac.beta > -(w + NEUTRAL_TOL))))
        if jac.n <= DENSE_LIMIT or jac.n < 5 * k:
            evals = np.linalg.eigvalsh(_dense(jac))
        else:
            evals = _lobpcg(jac, k)
    is_neutral = (np.abs(evals) < NEUTRAL_TOL) & periodic
    morse = int(np.count_nonzero(evals[~is_neutral] > POS_TOL))
    leading = tuple(np.sort(evals)[::-1][:N_EIGS].tolist())
    return replace(s, leading_eigs=leading, neutral_eigs=tuple(evals[is_neutral].tolist()),
                   morse_index=morse)


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
    shifts by whole grid points only.  mode 'exact': plain distance.
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


def _merge(x: np.ndarray) -> np.ndarray:
    """The rows of x, shape (m, n), at plain distance >= DEDUP_TOL from every earlier one kept."""
    keep: list[int] = []
    for r, xr in enumerate(x):
        if np.linalg.norm(x[keep] - xr, axis=1).min(initial=np.inf) >= DEDUP_TOL:
            keep.append(r)
    return x[keep]


def _order_key(s: SteadyState) -> tuple:
    """Census order: by rounded norm, then by the nonzero rounded coefficients.

    Those compare as (index, -value) pairs, so of u and -u the state whose
    first nonzero coefficient is positive comes first, and a coefficient
    that rounds to zero takes no part, whatever the sign of its noise.
    """
    r = np.round(s.state.data, 9)
    i = np.flatnonzero(r)
    return round(s.norm, 9), tuple(zip(i.tolist(), (-r[i]).tolist()))


def _seeds(domain: Domain, p: Params, n_seeds: int, rng_seed: int) -> SpectralField:
    """find_all's seeds, one per row, on the coarsest of _levels(domain).

    Each row draws a critical-mode amplitude per critical eigenfunction and
    then random_field's full-band noise, which keeps the rng stream of a
    full-band draw; only the modes the coarsest band shares with domain are
    kept, so the rows equal the full-band seeds restricted to that band.
    """
    seed_scale = default_seed_scale(domain, p)
    rng = np.random.default_rng(rng_seed)
    start = _levels(domain)[0]
    crit = [eigenfunction(start, m) for m in principal(domain).critical_modes]
    i, j = _shared_slots(domain, start)
    nflat, damp = len(lattice_symbol(domain)), 1.0 + lattice_symbol(domain)[i]
    seeds = np.empty((n_seeds, len(j)))
    for row in seeds:
        f = SpectralField.zeros(start)
        for phi in crit:
            f = f + float(rng.normal(0.0, seed_scale)) * phi
        row[:] = f.data
        row[j] += rng.standard_normal(nflat)[i] * (0.01 * seed_scale) / damp
    return SpectralField(start, seeds)


def _is_image(s: SteadyState, r: SteadyState, p: Params) -> bool:
    """Whether s is a box-symmetry image of r, within the Weyl bound WEYL_TOL.

    s is an image of r when an element g of _box_symmetries and a sign t
    (+-1 at mu = 0, +1 otherwise) give w = (3 (s_r + s_s) + 2 |mu|) s_D
    < WEYL_TOL, where D = s - t g r and each s_* is the _sup_bound of its
    coefficients.  J(t g r) = G J(r) G^T has the spectrum of J(r), and w
    bounds |J(s) - J(t g r)|, so by Weyl's inequality the eigenvalues of
    J(s) lie within w of those of J(r).
    """
    d = s.state.domain
    src, sign = _box_symmetries(d)
    sup_s, sup_r = (float(_sup_bound(u.state.data, d)) for u in (s, r))
    scale = 3.0 * (sup_r + sup_s) + 2.0 * abs(p.mu)
    ts = (1.0, -1.0) if p.mu == 0.0 else (1.0,)
    # every g keeps the l1 norm, so s_D >= |s_s - s_r|: a cheap test first
    return scale * abs(sup_s - sup_r) < WEYL_TOL and any(
        scale * _sup_bound(s.state.data - t * sign * r.state.data[src], d).min() < WEYL_TOL
        for t in ts)


def find_all(domain: Domain, p: Params, n_seeds: int = 100, *, rng_seed: int = 0,
             dedup: str = "symmetry") -> list[SteadyState]:
    """Newton from random critical-mode seeds, deduplicated.

    Seeds are random combinations of the critical eigenfunctions plus small
    noise on the slaved modes.  dedup 'symmetry' identifies states equal up
    to a global sign flip (mu = 0) and, on periodic domains, shifts by whole
    grid points only, so one translation circle yields many states (ROADMAP
    items 8, 9); 'exact' keeps every distinct state.  The seeds are drawn
    on the coarsest of _levels(domain) (_seeds) as one batch.  On each level
    below the full band the batch takes its Newton steps in lockstep, a row
    that fails there is dropped, and the rest are merged (_merge) and
    zero-padded to the next level, which keeps their distances.  Only the
    full-band newton of each distinct row accepts a state (residual <=
    NEWTON_TOL).  This pays off when the states are resolved within the
    coarse bands, as near onset.  On a one-level domain every seed gets its
    own full-band solve.  Every kept state is returned with its stability,
    run once per box-symmetry orbit: a state that _is_image of an earlier
    representative keeps its own state and residual and takes that one's
    leading_eigs, neutral_eigs and morse_index.
    """
    check_params(domain, p)
    levels = _levels(domain)
    x = _seeds(domain, p, n_seeds, rng_seed).data
    for level, finer in zip(levels, levels[1:]):
        if len(x):  # every row may have failed on a coarser level
            solved = _newton_rows(SpectralField(level, x), p)
            x = _merge(np.array([s.state.data for s in solved if not isinstance(s, Exception)])
                       .reshape(-1, x.shape[1]))
        x = resample(x, level, finer)
    states = []
    for xr in x:
        with contextlib.suppress(NoConvergence, SingularJacobian):
            states.append(newton(SpectralField(domain, xr), p))
    kept, reps = [], []  # reps: the first state of each orbit, with its stability
    for s in sorted(states, key=_order_key):
        if any(orbit_distance(s.state, k.state, p, dedup) < DEDUP_TOL for k in kept):
            continue
        rep = next((r for r in reps if _is_image(s, r, p)), None)
        if rep is None:
            rep = stability(s)
            reps.append(rep)
        kept.append(replace(rep, state=s.state, residual=s.residual))
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

