"""Reduced amplitude equations on the critical eigenspace.

The flow restricted to the critical modes, with slaved modes eliminated at
leading order, is

    dy_i/dt = beta1(lambda) y_i + mu sum_jk Q[j,k,i] y_j y_k
                                 - sum_jkl T[j,k,l,i] y_j y_k y_l

where T[j,k,l,i] = <phi_j phi_k phi_l, phi_i> and Q[j,k,i] =
<phi_j phi_k, phi_i> are computed from dealiased spectral products, never
from hand-coded coefficient tables.  All contractions run over ordered index
tuples, so no multinomial factors appear explicitly.  cubic_flow evaluates
this field for every boundary condition; on periodic domains y lists the
sine and cosine partners in the order of ReducedSystem.modes.

Closed-form consequences used by the verification suites:

* dirichlet pitchfork: nontrivial roots x = +-sqrt(beta1 / T1111), physical
  sine amplitude sqrt(2/L) x = sqrt(4 beta1 / 3) for the first mode.
* quadratic (mu > 0) branch: the nonzero equilibria are the roots of
  T y^2 - mu Q y - beta1 = 0 (T = T[0,0,0,0], Q = Q[0,0,0] = <phi_c^2, phi_c>);
  the linear law y = -beta1 / (mu Q) is the leading term of the root that
  vanishes at beta1 = 0.
* odd-periodic n modes: the all-modes-active equilibria have equal squares
  a^2 = beta1 / (T_self + (n-1) C_cross) = 2 V beta1 / (3 (2n-1)) with
  V = L^n; single-mode equilibria have a^2 = 2 V beta1 / 3.
* periodic: per-axis rotation invariance; the n=1 equilibria fill the circle
  y^2 + z^2 = 2 L beta1 / 3, realized as translates of the sine state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Params
from .errors import ExplicitDegeneracy
from .linear_analysis import eigenfunction, growth_rate, principal
from .spectral import (
    BoundaryCondition,
    Domain,
    Mode,
    SpectralField,
    cube,
    inner,
    multiply,
    triple,
)
from .steady import newton

_STRUCT_TOL = 1e-10


@dataclass
class ReducedSystem:
    """Tensors of the reduced flow on the critical eigenspace."""

    domain: Domain
    lambda_c: float
    modes: tuple[Mode, ...]
    cubic: np.ndarray  # T[j,k,l,i]
    quadratic: np.ndarray  # Q[j,k,i]

    @property
    def m(self) -> int:
        return len(self.modes)

    def beta1(self, lam: float) -> float:
        return lam - self.lambda_c

    def as_dict(self) -> dict:
        return {
            "lambda_c": self.lambda_c,
            "modes": [{"kind": m.kind, "k": list(m.k)} for m in self.modes],
            "cubic_tensor": self.cubic.tolist(),
            "quadratic_tensor": self.quadratic.tolist(),
        }


def _symmetric_tensor(domain: Domain, modes, order: int) -> np.ndarray:
    """A[j_1..j_order, i] = <phi_j_1 ... phi_j_order, phi_i>, dealiased.

    Order 3 gives the cubic tensor T[j,k,l,i], order 2 the quadratic tensor
    Q[j,k,i] (identically zero for odd-periodic).  The product is symmetric
    in its factors, so it is evaluated once per sorted index tuple and
    copied to every permutation.
    """
    product = {3: triple, 2: multiply}[order]
    fields = [eigenfunction(domain, m) for m in modes]
    m = len(fields)
    A = np.zeros((m,) * (order + 1))
    for idx in itertools.combinations_with_replacement(range(m), order):
        w = product(*(fields[j] for j in idx))
        for i in range(m):
            val = inner(w, fields[i])
            for perm in set(itertools.permutations(idx)):
                A[perm + (i,)] = val
    return A


def build_reduced(domain: Domain) -> ReducedSystem:
    """Reduced system on the critical eigenspace of the domain.

    Raises ExplicitDegeneracy when the critical eigenvalue is attained at
    distinct |kappa|^2 shells (the reduction assumes a clean eigenspace).
    """
    summ = principal(domain)
    if summ.degenerate:
        raise ExplicitDegeneracy(
            f"critical modes {summ.critical_modes} span distinct |kappa|^2 shells"
        )
    modes = summ.critical_modes
    return ReducedSystem(
        domain, summ.lambda_c, modes,
        _symmetric_tensor(domain, modes, 3), _symmetric_tensor(domain, modes, 2),
    )


def cubic_flow(y: np.ndarray, lam: float, sys: ReducedSystem,
               mu: float = 0.0) -> np.ndarray:
    """Evaluate the reduced vector field at amplitude vector y."""
    y = np.asarray(y, dtype=float)
    out = sys.beta1(lam) * y - np.einsum("jkli,j,k,l->i", sys.cubic, y, y, y)
    if mu != 0.0:
        out = out + mu * np.einsum("jki,j,k->i", sys.quadratic, y, y)
    return out


def reduced_jacobian(y: np.ndarray, lam: float, sys: ReducedSystem,
                     mu: float = 0.0) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    jac = sys.beta1(lam) * np.eye(sys.m)
    jac = jac - 3.0 * np.einsum("qkli,k,l->iq", sys.cubic, y, y)
    if mu != 0.0:
        jac = jac + 2.0 * mu * np.einsum("qki,k->iq", sys.quadratic, y)
    return jac


@dataclass
class ReducedFixedPoint:
    y: np.ndarray
    eigenvalues: np.ndarray
    kind: str  # 'attractor' | 'saddle' | 'source' | 'degenerate'

    def as_dict(self) -> dict:
        return {
            "y": self.y.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "kind": self.kind,
        }


def _coupling_matrix(sys: ReducedSystem) -> np.ndarray:
    """C[i,j] with flow_i = y_i (beta1 - sum_j C[i,j] y_j^2), if structured."""
    m = sys.m
    C = np.zeros((m, m))
    scale = max(1.0, float(np.abs(sys.cubic).max()))
    for i in range(m):
        C[i, i] = sys.cubic[i, i, i, i]
        for j in range(m):
            if j != i:
                C[i, j] = 3.0 * sys.cubic[i, j, j, i]
    # entries fitting the y_i (beta - sum C y_j^2) pattern have every index
    # an even number of times in the multiset {j,k,l,i}
    for idx in itertools.product(range(m), repeat=4):
        multiset = sorted(idx)
        paired = all(multiset.count(v) % 2 == 0 for v in set(multiset))
        if abs(sys.cubic[idx]) > _STRUCT_TOL * scale and not paired:
            raise ExplicitDegeneracy(
                "cubic tensor couples modes outside the diagonal pattern; "
                "fixed-point enumeration by support is not applicable"
            )
    return C


def reduced_fixed_points(sys: ReducedSystem, lam: float,
                         mu: float = 0.0) -> list[ReducedFixedPoint]:
    """All equilibria of the reduced flow, classified.

    For mu = 0 it enumerates support patterns: on each support S the
    squared amplitudes solve the linear system sum_j C[i,j] a_j^2 = beta1,
    i in S.  For mu != 0 there is one critical mode, and the nonzero
    equilibria are the real roots of T y^2 - mu Q y - beta1 = 0.
    Candidates are verified against the full tensor flow before
    classification.
    """
    beta1 = sys.beta1(lam)
    m = sys.m
    sols = [np.zeros(m)]
    if mu != 0.0:
        if m != 1:
            raise ExplicitDegeneracy("mu != 0 needs a single critical mode")
        t, q = sys.cubic[0, 0, 0, 0], mu * sys.quadratic[0, 0, 0]
        disc = q * q + 4.0 * t * beta1
        if disc >= 0:
            roots = {(q + sgn * math.sqrt(disc)) / (2.0 * t) for sgn in (1.0, -1.0)}
            sols.extend(np.array([r]) for r in sorted(roots))
    else:
        C = _coupling_matrix(sys)
        for r in range(1, m + 1):
            for support in itertools.combinations(range(m), r):
                sub = C[np.ix_(support, support)]
                try:
                    sq = np.linalg.solve(sub, np.full(r, beta1))
                except np.linalg.LinAlgError:
                    continue
                if np.any(sq <= 0):
                    continue
                amps = np.sqrt(sq)
                for signs in itertools.product((1.0, -1.0), repeat=r):
                    y = np.zeros(m)
                    y[list(support)] = amps * np.asarray(signs)
                    sols.append(y)
    scale = max(1.0, abs(beta1))
    out = []
    for y in sols:
        if np.linalg.norm(cubic_flow(y, lam, sys, mu)) > 1e-9 * scale:
            continue
        jac = reduced_jacobian(y, lam, sys, mu)
        eigs = np.linalg.eigvalsh(0.5 * (jac + jac.T))
        if np.any(np.abs(eigs) < 1e-8):
            kind = "degenerate"
        elif np.all(eigs < 0):
            kind = "attractor"
        elif np.all(eigs > 0):
            kind = "source"
        else:
            kind = "saddle"
        out.append(ReducedFixedPoint(y, eigs, kind))
    return out


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------

def slaved_mode_prediction(domain: Domain, lam: float, x1: float) -> float:
    """Third-harmonic coefficient slaved to the critical amplitude x1.

    x3 = <phi_1^3, phi_3> x1^3 / beta_3, with the inner product taken from
    the dealiased cube (for the dirichlet basis it equals -1/(2L) exactly).
    """
    if not domain.is_dirichlet:
        raise ValueError("slaved third-harmonic prediction is dirichlet-only")
    phi1 = eigenfunction(domain, 1)
    phi3 = eigenfunction(domain, 3)
    t = inner(cube(phi1), phi3)
    beta3 = growth_rate(domain, 3, lam)
    return t * x1**3 / beta3


def torus_points(domain: Domain, p: Params, thetas) -> list[SpectralField]:
    """Steady states on the invariant torus at the given phase vectors.

    Each phase vector theta (one entry per axis) gives the leading-order
    state sum_j r [cos(theta_j) phi_j + sin(theta_j) psi_j], refined by
    Newton to residual < 1e-10.
    """
    if domain.bc is not BoundaryCondition.PERIODIC:
        raise ValueError("torus states require the periodic boundary condition")
    sys = build_reduced(domain)
    beta1 = sys.beta1(p.lam)
    if beta1 <= 0:
        raise ValueError("no torus below the critical value")
    by_k = {}
    for m in sys.modes:
        by_k.setdefault(m.k, {})[m.kind] = m
    # per-axis radius from the radial system: restricting to the sine
    # subspace (all phases zero) removes the rotational degeneracy
    sin_idx = [i for i, m in enumerate(sys.modes) if m.kind == "sin"]
    C = _coupling_matrix(sys)[np.ix_(sin_idx, sin_idx)]
    sq = np.linalg.solve(C, np.full(len(sin_idx), beta1))
    r = math.sqrt(float(sq[0]))
    out = []
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != len(by_k):
        raise ValueError("need one phase per critical wavevector")
    for th in thetas:
        coeffs = {}
        for (k, pair), t in zip(sorted(by_k.items()), th):
            coeffs[pair["sin"]] = r * math.cos(t)
            coeffs[pair["cos"]] = r * math.sin(t)
        u0 = SpectralField.from_modes(domain, coeffs)
        out.append(newton(u0, p).state)
    return out
