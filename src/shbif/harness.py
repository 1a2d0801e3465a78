"""Experiment harness: configs, verification scenarios, reports, CSV and
snapshot export.

Each scenario reproduces one closed-form claim about the bifurcation
structure of the equation and reports every number with its tolerance and
provenance.  SCENARIOS registers each id once, with its function and its
config overrides; default_config builds a new config from it on every call.
parse_config leaves each range rule to the type that owns it (Domain,
Params, StepperConfig).  Every CSV in the package is written by write_csv.
Both censuses run _census, which always reports nonzero-state-count,
amplitudes-match-reduced, every-reduced-state-found, stability-split and
index-sum; a new census gives it a dedup and its closed-form claims, then
appends its own checks.  Scenario ids:

    decay-subcritical     exponential L2 decay below the critical value
    decay-critical        algebraic L2 decay at the critical value
    decay-supercritical   logistic L2 cap above the critical value
    pitchfork-amplitude   square-root amplitude law of the dirichlet pitchfork
    pitchfork-census      census of two attractors, u2 = -u1, basins resolved
    gsh-transcritical     quadratic branch: saddle/attractor pair, quadratic-cubic
                          balance, order of the linear law's error
    odd-periodic-census   2-d census: four sign classes, 2+2 stability, runtime
    periodic-torus        circle of steady states under periodic conditions
    slaved-mode           third-harmonic slaving law
    reduced-shadowing     reduced amplitude flow shadows the full dynamics
    infrastructure        transforms, oracles, scheme order, energy decay

Bound constants: the decay monitors test the constants that follow from the
energy identity (see dynamics); the printed-constant variants are recorded
in every report for reference.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import scipy.integrate as sintegrate
from scipy.optimize import linear_sum_assignment

from . import oracles
from .dynamics import (
    DECAY_TOL,
    Params,
    StepperConfig,
    basin_probe,
    check_params,
    integrate,
)
from .errors import ParseError, RangeError, UsageError
from .linear_analysis import eigenfunction, principal
from .reduced import (
    build_reduced,
    cubic_flow,
    reduced_fixed_points,
    slaved_mode_prediction,
    torus_points,
)
from .spectral import (
    Domain,
    GridField,
    SpectralField,
    cube,
    grid_coords,
    inner,
    random_field,
    square,
    to_grid,
    to_spectral,
)
from .steady import (
    SteadyState,
    default_seed_scale,
    find_all,
    index_sum,
    jacobian_apply,
    newton,
    residual,
    stability,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    scenario: str = ""
    dim: int = 1
    bc: str = "dirichlet"
    length: float = math.pi / 2
    grid_n: int | None = None
    band: int | None = None
    lam: float = 9.5
    mu: float = 0.0
    dt: float = 1e-3
    t_end: float = 20.0
    sample_every: int = 50
    n_seeds: int | None = 100  # None: `shbif steady` solves once, without a census
    rng_seed: int = 12345
    jobs: int = 1
    out_dir: str = "out"

    def domain(self) -> Domain:
        try:
            return Domain.make(self.dim, self.length, self.bc,
                               grid_n=self.grid_n, band=self.band)
        except ValueError as err:
            raise RangeError(str(err)) from err

    def params(self) -> Params:
        return Params(self.lam, self.mu)

    def stepper(self) -> StepperConfig:
        return StepperConfig(self.dt, self.t_end, sample_every=self.sample_every)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


_KEY_ALIASES = {"lambda": "lam"}
# each key's value type, from its field's annotation (int | None reads as int)
_KEY_TYPES = {name: (typing.get_args(hint) or (hint,))[0]
              for name, hint in typing.get_type_hints(ExperimentConfig).items()}


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse plain key=value lines (# comments) into an ExperimentConfig.

    Unknown keys raise ParseError with the line number; out-of-range values
    raise RangeError.  Empty text returns the defaults (rng seed included).
    """
    cfg = dataclasses.replace(base) if base is not None else ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        key = _KEY_ALIASES.get(key, key)
        if key not in _KEY_TYPES:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        try:
            setattr(cfg, key, _KEY_TYPES[key](value))
        except ValueError as err:
            raise ParseError(f"bad value for {key}: {value!r}", line=lineno) from err
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    """Each rule lives in the type that owns it; build those types."""
    check_params(cfg.domain(), cfg.params())
    cfg.stepper()
    if cfg.n_seeds is not None and cfg.n_seeds < 1:
        raise RangeError("n_seeds must be >= 1")
    if cfg.jobs < 1:
        raise RangeError("jobs must be >= 1")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    expected: float
    observed: float
    tolerance: float
    passed: bool
    provenance: str
    detail: str = ""

    def __post_init__(self):
        self.expected = self.expected if isinstance(self.expected, int) else float(self.expected)
        self.observed = self.observed if isinstance(self.observed, int) else float(self.observed)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.passed)


@dataclass
class VerificationReport:
    scenario: str
    checks: list
    metadata: dict
    artifacts: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def summary_lines(self):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            yield (f"[{status}] {self.scenario}/{c.name}: observed={c.observed:.6g} "
                   f"expected={c.expected:.6g} tol={c.tolerance:.3g} ({c.provenance})")


def _metadata(cfg: ExperimentConfig) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "rng_seed": cfg.rng_seed,
        "jobs": cfg.jobs,
        "config": cfg.as_dict(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def write_csv(path: Path, header: str, rows) -> str:
    """Write a header line and one line per row; floats (numpy ones too) as repr."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    return str(path)


def write_csv_1d(g: GridField, path) -> str:
    """CSV snapshot with columns x,u."""
    if g.domain.dim != 1:
        raise ValueError("CSV snapshot export is 1-d only")
    return write_csv(path, "x,u", zip(grid_coords(g.domain)[0], g.values))


def write_pgm_2d(g: GridField, path) -> str:
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
    return str(path)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

# integrate's bound regime -> (check name, provenance of its bound), at DECAY_TOL
_DECAY_CHECKS = {
    "subcritical": ("l2-within-exponential-envelope",
                    "comparison bound psi <= exp(2 (lambda-lambda_c) t) psi0"),
    "critical": ("l2sq-within-algebraic-envelope",
                 "comparison bound psi <= psi0 / ((2/V) psi0 t + 1), derived constant"),
    "supercritical": ("l2sq-within-logistic-cap",
                      "comparison bound psi <= max(psi0, (lambda-lambda_c) V), "
                      "derived constant"),
}


def _scenario_decay(cfg: ExperimentConfig, out: Path):
    """Decay bound of the regime integrate monitored, over random unit seeds.

    The check is named for that regime, not for the scenario id, so a
    config that moves lambda across lambda_c gets the bound it ran against.
    """
    d = cfg.domain()
    rng = np.random.default_rng(cfg.rng_seed)
    seeds = [random_field(d, rng, 1.0, smooth=True, unit_norm=True)
             for _ in range(cfg.n_seeds)]
    reports = integrate(seeds, cfg.params(), cfg.stepper())
    regime = reports[0].bound_check.regime
    name, provenance = _DECAY_CHECKS[regime]
    tol = DECAY_TOL[regime]
    worst = max(rep.bound_check.worst_ratio for rep in reports)
    worst_p = max(rep.bound_check.worst_ratio_printed for rep in reports)
    after = max(rep.bound_check.worst_ratio_after_start for rep in reports)
    checks = [CheckResult(name, 1.0, worst, tol, worst <= 1.0 + tol, provenance,
                          f"printed-constant variant ratio {worst_p:.6g}; "
                          f"ratio after t = 0 {after:.6g}")]
    if regime == "critical":
        worst_final = max(rep.l2_norms[-1] / rep.l2_norms[0] for rep in reports)
        checks.append(CheckResult(
            "final-norm-halved", 0.5, worst_final, 0.0, worst_final < 0.5,
            f"algebraic decay implies |u({cfg.t_end:g})| < 0.5 |u0|",
        ))
    rows = [(run, t, l2) for run, rep in enumerate(reports)
            for t, l2 in zip(rep.times, rep.l2_norms)]
    return checks, [write_csv(out / f"{cfg.scenario}-series.csv", "run,t,l2", rows)]


def _scenario_pitchfork_amplitude(cfg: ExperimentConfig, out: Path):
    d = cfg.domain()
    lam_c = principal(d).lambda_c
    lams = [9.05, 9.1, 9.2, 9.35, 9.5]
    phys = math.sqrt(2.0 / d.volume)
    phi1 = eigenfunction(d, 1)
    amps = []
    rows = []
    profile_cos = None
    for lam in lams:
        p = Params(lam)
        s = newton(default_seed_scale(d, p) * phi1, p)
        a = s.state.coeff(1) * phys
        amps.append(a)
        rows.append((lam, a, a * a, lam - lam_c))
        if lam == lams[0]:
            profile_cos = inner(s.state, phi1) / s.state.norm()
    beta = np.asarray(lams) - lam_c
    slope = float(np.polyfit(beta, np.asarray(amps) ** 2, 1)[0])
    artifacts = [write_csv(out / "pitchfork-amplitude.csv",
                           "lambda,amplitude,amplitude_sq,beta", rows)]
    checks = [
        CheckResult(
            "amplitude-sq-slope", 4.0 / 3.0, slope, 0.03 * 4.0 / 3.0,
            abs(slope - 4.0 / 3.0) <= 0.03 * 4.0 / 3.0,
            "amplitude law sqrt(4 beta1 / 3): slope of a^2 vs (lambda - lambda_c)",
        ),
        CheckResult(
            "profile-cosine-similarity", 1.0, float(profile_cos), 1e-3,
            profile_cos >= 0.999,
            "bifurcated profile is the first sine mode at leading order",
        ),
    ]
    return checks, artifacts


def _census(cfg: ExperimentConfig, out: Path, dedup: str, count: int,
            split: tuple[int, int], index: int, why: tuple[str, str, str]):
    """find_all, matched one-to-one with the reduced flow; every check always reported.

    The classes are the nonzero reduced fixed points, y and -y one class when
    dedup folds the sign.  linear_sum_assignment pairs them with the nonzero
    states at cost max |y - f| / max |f| over the critical modes, least over
    the folded signs, modes never permuted; a state left unpaired reads inf.
    count, split (attractors, saddles) and index are the closed-form claims,
    why their provenance.  Returns the nonzero states, the checks and the CSV.
    """
    d = cfg.domain()
    p = cfg.params()
    nz = [s for s in find_all(d, p, n_seeds=cfg.n_seeds, rng_seed=cfg.rng_seed,
                              jobs=cfg.jobs, dedup=dedup) if s.norm > 1e-6]
    sys = build_reduced(d)
    signs = (1.0, -1.0) if dedup == "symmetry" and p.mu == 0.0 else (1.0,)
    classes = []
    for f in reduced_fixed_points(sys, p.lam, p.mu):
        if np.linalg.norm(f.y) > 1e-8 and not any(
                np.allclose(sgn * f.y, c) for sgn in signs[1:] for c in classes):
            classes.append(f.y)
    ys = np.array([[s.state.coeff(m) for m in sys.modes] for s in nz]).reshape(-1, sys.m)
    cost = np.array([[min(np.max(np.abs(y - sgn * c)) for sgn in signs) / np.max(np.abs(c))
                      for c in classes] for y in ys]).reshape(len(nz), len(classes))
    paired = cost[linear_sum_assignment(cost)]
    worst = float(paired.max(initial=0.0)) if len(paired) == len(nz) else math.inf
    missing = len(classes) - int(np.count_nonzero(paired <= 0.05))
    n_attr, n_saddle = (sum(1 for s in nz if s.morse_index == k) for k in (0, 1))
    total = index_sum(nz)
    checks = [
        CheckResult("nonzero-state-count", count, len(nz), 0, len(nz) == count, why[0]),
        CheckResult("amplitudes-match-reduced", 0.0, worst, 0.05, worst <= 0.05,
                    "per-mode amplitudes match the reduced fixed points, paired "
                    "one-to-one modulo the census symmetry",
                    f"{len(nz)} states, {len(classes)} reduced classes"),
        CheckResult("every-reduced-state-found", 0, missing, 0, missing == 0,
                    "every reduced class has its own census state within 0.05"),
        CheckResult("stability-split", split[0], n_attr, 0, (n_attr, n_saddle) == split,
                    why[1], f"attractors={n_attr}, saddles={n_saddle}"),
        CheckResult("index-sum", index, total, 0, total == index, why[2]),
    ]
    header = ",".join(["state", *(f"y{j + 1}" for j in range(sys.m)), "l2_norm", "morse_index"])
    rows = [(i, *y, s.norm, s.morse_index) for i, (s, y) in enumerate(zip(nz, ys))]
    return nz, checks, write_csv(out / f"{cfg.scenario}.csv", header, rows)


def _scenario_pitchfork_census(cfg: ExperimentConfig, out: Path):
    nz, checks, csv = _census(cfg, out, "exact", 2, (2, 0), 2, (
        "pitchfork: the attractor consists of exactly two steady states",
        "pitchfork: both nontrivial steady states are attractors",
        "index formula: sum of (-1)^morse equals 2 for odd multiplicity",
    ))
    mirror = (nz[0].state + nz[1].state).norm() if len(nz) == 2 else math.nan
    checks.append(CheckResult(
        "states-are-mirror-pair", 0.0, mirror, 1e-8, mirror <= 1e-8,
        "odd symmetry: u2 = -u1",
    ))
    d = cfg.domain()
    rng = np.random.default_rng(cfg.rng_seed + 1)
    seeds = [random_field(d, rng, 1.0, smooth=True, unit_norm=True)
             for _ in range(50)]
    references = {"trivial": SpectralField.zeros(d)}
    for s in nz:
        references["u1" if s.state.coeff(1) > 0 else "u2"] = s.state
    labels = basin_probe(seeds, cfg.params(), references)
    unresolved = sum(1 for l in labels if l not in ("u1", "u2"))
    checks.append(CheckResult(
        "basin-labels-resolved", 0, unresolved, 0, unresolved == 0,
        "stable manifold of 0 separates the two basins; every seed resolves",
        f"labels: u1={labels.count('u1')}, u2={labels.count('u2')}",
    ))
    return checks, [csv]


def transcritical_amplitude(beta1: float, mu: float) -> float:
    """Physical first-sine amplitude of the dirichlet transcritical branch.

    The root through 0 of the quadratic-cubic reduced balance
    alpha3 x^2 - mu alpha2 x - beta1 = 0 (alpha2 = 8 sqrt(2) / (3 pi sqrt(L)),
    alpha3 = 3 / (2 L)) in physical units a = sqrt(2/L) x, where the length
    drops out: (3/4) a^2 - (8 mu / (3 pi)) a - beta1 = 0.  Its leading term
    is the linear law -(3 pi / (8 mu)) beta1.  Real up to the fold at
    beta1 = -c^2 / 3, c = 8 mu / (3 pi).
    """
    c = 8.0 * mu / (3.0 * math.pi)
    return -2.0 * beta1 / (c + math.sqrt(c * c + 3.0 * beta1))


def _scenario_gsh_transcritical(cfg: ExperimentConfig, out: Path):
    d = cfg.domain()
    lam_c = principal(d).lambda_c
    mu = cfg.mu
    phys = math.sqrt(2.0 / d.volume)
    phi1 = eigenfunction(d, 1)

    def law(lam):
        return (3.0 * math.pi / (8.0 * mu)) * (lam_c - lam)

    def balance(lam):
        return transcritical_amplitude(lam - lam_c, mu)

    checks = []
    solved = {}  # lambda -> (state, amplitude); the sweep reuses 8.9 and 9.1

    def solve_at(lam):
        if lam not in solved:
            s = newton((law(lam) / phys) * phi1, Params(lam, mu))
            solved[lam] = s, s.state.coeff(1) * phys
        return solved[lam]

    for lam, want_index in ((8.9, 1), (9.1, 0)):
        state, amp = solve_at(lam)
        s = stability(state)
        want = balance(lam)
        rel = abs(amp - want) / abs(want)
        side = "saddle" if want_index == 1 else "attractor"
        checks.append(CheckResult(
            f"morse-index-{side}", want_index, s.morse_index, 0,
            s.morse_index == want_index,
            f"quadratic branch is a Morse-index-{want_index} state at lambda={lam}",
        ))
        checks.append(CheckResult(
            f"amplitude-law-{side}", want, amp, 1e-4,
            rel <= 1e-4,
            "quadratic-cubic reduced balance "
            "(3/4) a^2 - (8 mu / 3 pi) a - (lambda - lambda_c) = 0",
            f"relative deviation {rel:.3g}; leading-order law "
            f"(3 pi / 8 mu)(lambda_c - lambda) = {law(lam):.6g}",
        ))
    deltas = [-0.1, -0.08, -0.05, -0.02, 0.02, 0.05, 0.08, 0.1]
    lams = [lam_c + dl for dl in deltas]
    amps = np.array([solve_at(lam)[1] for lam in lams])
    beta = np.asarray(lams) - lam_c
    coeffs = np.polyfit(beta, amps, 1)
    fit = np.polyval(coeffs, beta)
    lin_resid = float(np.max(np.abs(amps - fit)) / np.max(np.abs(amps)))
    checks.append(CheckResult(
        "amplitude-linearity", 0.0, lin_resid, 0.10, lin_resid <= 0.10,
        "amplitude vs (lambda - lambda_c) is linear to leading order",
        f"fit slope {coeffs[0]:.5f} vs -3 pi / 8 = {-3 * math.pi / 8:.5f}",
    ))
    # Relative error of the linear law, (a - a_lin) / a_lin, is
    # -(27 pi^2 / (256 mu^2)) beta1 + O(beta1^2) by the balance above.
    lin_law = np.array([law(lam) for lam in lams])
    _, _, slope, intercept = np.polyfit(beta, (amps - lin_law) / lin_law, 3)
    want_slope = -27.0 * math.pi ** 2 / (256.0 * mu * mu)
    slope_rel = abs(slope - want_slope) / abs(want_slope)
    checks.append(CheckResult(
        "amplitude-law-order", want_slope, slope, 0.02,
        abs(intercept) <= 1e-3 and slope_rel <= 0.02,
        "linear law is exact as lambda -> lambda_c and its relative error is "
        "-(27 pi^2 / 256 mu^2)(lambda - lambda_c) at first order",
        f"cubic fit of the relative error: intercept {intercept:.3g} (bound 1e-3), "
        f"slope relative deviation {slope_rel:.3g}",
    ))
    rows = sorted((lam, amp, law(lam), balance(lam)) for lam, (_s, amp) in solved.items())
    return checks, [write_csv(out / "gsh-transcritical.csv",
                              "lambda,amplitude,law,balance", rows)]


def _scenario_odd_periodic_census(cfg: ExperimentConfig, out: Path):
    t0 = time.perf_counter()
    _, checks, csv = _census(cfg, out, "symmetry", 4, (2, 2), 0, (
        "2-d census: 2^n = 4 steady-state classes modulo sign",
        "two minimal attractors and two saddles on the invariant circle",
        "index formula: sum of (-1)^morse equals 0 for even multiplicity",
    ))
    elapsed = time.perf_counter() - t0
    checks.append(CheckResult(
        "runtime-seconds", 300.0, elapsed, 0.0, elapsed <= 300.0,
        "census completes within five minutes at the stated resolution",
    ))
    return checks, [csv]


def _scenario_periodic_torus(cfg: ExperimentConfig, out: Path):
    d = cfg.domain()
    p = cfg.params()
    thetas = [[2.0 * math.pi * j / 16.0] for j in range(16)]
    pts = torus_points(d, p, thetas)
    res = [residual(f, p).norm() for f in pts]
    norms = [f.norm() for f in pts]
    neutral_counts = []
    top_nonneutral = []
    for f, r in zip(pts, res):
        s = stability(SteadyState(f, r, p.lam, p.mu))
        neutral_counts.append(len(s.neutral_eigs))
        top_nonneutral.append(max(e for e in s.leading_eigs if e not in s.neutral_eigs))
    checks = [
        CheckResult(
            "max-residual", 0.0, max(res), 1e-10, max(res) <= 1e-10,
            "all sixteen torus phases refine to steady states",
        ),
        CheckResult(
            "norm-spread", 0.0, max(norms) - min(norms), 1e-6,
            max(norms) - min(norms) <= 1e-6,
            "translation orbit: equal L2 norm around the torus",
        ),
        CheckResult(
            "neutral-mode-count", 1, max(neutral_counts), 0,
            all(c == 1 for c in neutral_counts),
            "exactly one translation zero mode per state",
        ),
        CheckResult(
            "no-positive-eigenvalue", 0.0, max(top_nonneutral), 1e-6,
            max(top_nonneutral) <= 1e-6,
            "torus states are stable transverse to the translation orbit",
        ),
    ]
    rows = [(t[0], n, r, c) for t, n, r, c in zip(thetas, norms, res, neutral_counts)]
    return checks, [write_csv(out / "periodic-torus.csv",
                              "theta,l2_norm,residual,neutral_count", rows)]


def _scenario_slaved_mode(cfg: ExperimentConfig, out: Path):
    d = cfg.domain()
    p = cfg.params()
    s = newton(default_seed_scale(d, p) * eigenfunction(d, 1), p)
    x1 = s.state.coeff(1)
    x3 = s.state.coeff(3)
    measured = x3 / x1**3
    predicted = slaved_mode_prediction(d, p.lam, 1.0)
    rel = abs(measured - predicted) / abs(predicted)
    checks = [CheckResult(
        "slaved-third-harmonic-ratio", predicted, measured,
        0.02, rel <= 0.02,
        "x3 = <phi1^3, phi3> x1^3 / beta3 from the quadrature tensor",
        f"relative deviation {rel:.4f}",
    )]
    return checks, []


def _scenario_reduced_shadowing(cfg: ExperimentConfig, out: Path):
    d = cfg.domain()
    lam = cfg.lam
    sys = build_reduced(d)
    mixed = [f for f in reduced_fixed_points(sys, lam)
             if np.all(np.abs(f.y) > 1e-8)]
    a = float(np.abs(mixed[0].y[0]))
    y0 = np.array([0.5 * a, 0.35 * a])
    u = SpectralField.zeros(d)
    for c, m in zip(y0, sys.modes):
        u = u + float(c) * eigenfunction(d, m)
    n_per = max(1, int(round(0.5 / cfg.dt)))
    chunk = StepperConfig(cfg.dt, n_per * cfg.dt, sample_every=n_per)
    t_samples = [0.0]
    ys_pde = [np.array([u.coeff(m) for m in sys.modes])]
    t = 0.0
    while t < cfg.t_end - 1e-9:
        u = integrate(u, Params(lam), chunk).final_state
        t += n_per * cfg.dt
        t_samples.append(t)
        ys_pde.append(np.array([u.coeff(m) for m in sys.modes]))
    sol = sintegrate.solve_ivp(
        lambda _t, y: cubic_flow(y, lam, sys),
        (0.0, t_samples[-1]), y0, t_eval=t_samples, rtol=1e-10, atol=1e-12,
    )
    ys_red = sol.y.T
    rel = np.abs(np.asarray(ys_pde) - ys_red) / np.abs(ys_red)
    worst = float(rel.max())
    checks = [CheckResult(
        "critical-amplitude-shadowing", 0.0, worst, 0.10, worst <= 0.10,
        "reduced amplitude flow tracks the full dynamics to 10% over [0,50]",
    )]
    rows = [(t, yp[0], yp[1], yr[0], yr[1]) for t, yp, yr in zip(t_samples, ys_pde, ys_red)]
    return checks, [write_csv(out / "reduced-shadowing.csv",
                              "t,y1_pde,y2_pde,y1_reduced,y2_reduced", rows)]


def _roundtrip_worst(rng) -> float:
    combos = [
        Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16),
        Domain.make(1, 2 * math.pi, "odd-periodic", grid_n=64, band=16),
        Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=16, band=4),
        Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16),
        Domain.make(2, 2 * math.pi, "periodic", grid_n=16, band=4),
        Domain.make(3, 2 * math.pi, "periodic", grid_n=8, band=2),
    ]
    worst = 0.0
    for d in combos:
        for _ in range(100):
            f = random_field(d, rng, 1.0, smooth=False)
            g = to_spectral(to_grid(f))
            err = float(np.max(np.abs(g.data - f.data))) / max(1.0, f.norm())
            worst = max(worst, err)
    return worst


def _product_oracle_worst(rng) -> float:
    combos = [
        Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16),
        Domain.make(1, 1.7, "dirichlet", grid_n=64, band=16),
        Domain.make(1, 2 * math.pi, "odd-periodic", grid_n=64, band=16),
        Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=16, band=4),
        Domain.make(1, 2 * math.pi, "periodic", grid_n=64, band=16),
        Domain.make(2, 5.0, "periodic", grid_n=16, band=4),
    ]
    worst = 0.0
    for d in combos:
        probe = random_field(d, rng, 1.0, smooth=False)
        all_modes = list(probe.modes(tol=-1.0).keys())
        for _ in range(6):
            chosen = rng.choice(len(all_modes), size=min(5, len(all_modes)),
                                replace=False)
            f = SpectralField.from_modes(
                d, {all_modes[i]: float(rng.uniform(-1, 1)) for i in chosen})
            worst = max(worst, oracles.compare_coeffs(cube(f), oracles.cube_oracle(f)))
            if d.is_dirichlet:
                sq = square(f)
                for n in (1, 2, 3, 7):
                    ref = oracles.square_quadrature_oracle(f, n)
                    worst = max(worst, abs(sq.coeff(n) - ref))
            else:
                worst = max(worst, oracles.compare_coeffs(square(f), oracles.square_oracle(f)))
    return worst


def _fd_slope(rng) -> float:
    d = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)
    p = Params(9.3, 0.4)
    u = random_field(d, rng, 0.5)
    v = random_field(d, rng, 0.5)
    jv = jacobian_apply(u, p, v)
    hs = np.logspace(-1, -3, 5)
    errs = []
    for h in hs:
        fd = (residual(u + h * v, p) - residual(u + (-h) * v, p)) * (1.0 / (2.0 * h))
        errs.append((fd - jv).norm())
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def _etdrk2_slope() -> float:
    d = Domain.make(1, math.pi, "dirichlet", grid_n=16, band=4)
    p = Params(0.5)
    u0 = SpectralField.from_modes(d, {1: 0.6, 2: 0.1})
    t_end = 0.5
    # step counts chosen so every dt divides t_end exactly
    steps_list = [50, 160, 500, 1600, 5000]
    dts = [t_end / n for n in steps_list]

    def run(dt, n):
        return integrate(u0, p, StepperConfig(dt, t_end, sample_every=n)).final_state

    ref = run(t_end / 25000, 25000)
    errs = [(run(dt, n) - ref).norm() for dt, n in zip(dts, steps_list)]
    return float(np.polyfit(np.log(dts), np.log(errs), 1)[0])


def _lyapunov_violations(rng) -> tuple[float, int]:
    """Largest one-step rise of F over 100 trajectories, and steps examined.

    integrate stops a trajectory early once it has settled, so the step
    count can fall below 100 x 100.
    """
    d = Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16)
    every_step = StepperConfig(1e-3, 0.1, sample_every=1)
    worst = -np.inf
    steps = 0
    for i in range(100):
        lam = float(rng.choice([8.0, 9.0, 9.5, 10.0]))
        mu = float(rng.choice([0.0, 0.0, 0.5]))
        u = random_field(d, rng, 0.8, smooth=True)
        rises = np.diff(integrate(u, Params(lam, mu), every_step).lyapunov_values)
        worst = max(worst, float(rises.max()))
        steps += len(rises)
    return float(worst), steps


def _scenario_infrastructure(cfg: ExperimentConfig, out: Path):
    rng = np.random.default_rng(cfg.rng_seed)
    rt = _roundtrip_worst(rng)
    orc = _product_oracle_worst(rng)
    fd = _fd_slope(rng)
    order = _etdrk2_slope()
    lyap, lyap_steps = _lyapunov_violations(rng)
    checks = [
        CheckResult("transform-roundtrip", 0.0, rt, 1e-12, rt <= 1e-12,
                    "to_spectral(to_grid(f)) = f on the retained band"),
        CheckResult("products-vs-convolution-oracle", 0.0, orc, 1e-12,
                    orc <= 1e-12,
                    "cube/square equal the dense convolution / quadrature oracle"),
        CheckResult("jacobian-fd-slope", 2.0, fd, 0.2, abs(fd - 2.0) <= 0.2,
                    "central differences of the residual converge at order 2"),
        CheckResult("etdrk2-order", 2.0, order, 0.2, abs(order - 2.0) <= 0.2,
                    "two-stage exponential integrator is second order"),
        CheckResult("lyapunov-monotone", 0.0, lyap, 1e-10, lyap <= 1e-10,
                    "free energy decreases along 100 random trajectories",
                    f"{lyap_steps} steps examined"),
    ]
    return checks, []


_DIRICHLET_16 = dict(dim=1, bc="dirichlet", length=math.pi / 2, grid_n=64, band=16)
_DECAY = dict(_DIRICHLET_16, n_seeds=20)
_ODD_PERIODIC_2D = dict(dim=2, bc="odd-periodic", length=2 * math.pi)

# scenario id -> (scenario function, overrides of the ExperimentConfig defaults)
SCENARIOS = {
    "decay-subcritical": (_scenario_decay, dict(_DECAY, lam=8.0)),
    "decay-critical": (_scenario_decay, dict(_DECAY, lam=9.0)),
    "decay-supercritical": (_scenario_decay, dict(_DECAY, lam=9.5)),
    "pitchfork-amplitude": (_scenario_pitchfork_amplitude, dict(_DIRICHLET_16, lam=9.5)),
    "pitchfork-census": (_scenario_pitchfork_census,
                         dict(_DIRICHLET_16, lam=9.5, n_seeds=100)),
    "gsh-transcritical": (_scenario_gsh_transcritical,
                          dict(_DIRICHLET_16, lam=8.9, mu=1.0)),
    "odd-periodic-census": (_scenario_odd_periodic_census,
                            dict(_ODD_PERIODIC_2D, grid_n=256, band=64, lam=0.2,
                                 n_seeds=100, jobs=min(2, os.cpu_count() or 1))),
    "periodic-torus": (_scenario_periodic_torus,
                       dict(dim=1, bc="periodic", length=2 * math.pi, grid_n=512,
                            band=128, lam=0.2)),
    "slaved-mode": (_scenario_slaved_mode, dict(_DIRICHLET_16, lam=9.2)),
    "reduced-shadowing": (_scenario_reduced_shadowing,
                          dict(_ODD_PERIODIC_2D, grid_n=32, band=8, lam=0.01,
                               dt=5e-3, t_end=50.0)),
    "infrastructure": (_scenario_infrastructure, {}),
}


def _scenario(name: str):
    try:
        return SCENARIOS[name]
    except KeyError:
        raise UsageError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}") from None


def default_config(name: str) -> ExperimentConfig:
    """A new config holding the scenario's defaults."""
    return ExperimentConfig(scenario=name, **_scenario(name)[1])


def run_suite(name: str, cfg: ExperimentConfig | None = None,
              out_dir: str | None = None) -> VerificationReport:
    """Run one scenario and emit its report (JSON) and CSV artifacts."""
    run = _scenario(name)[0]
    if cfg is None:
        cfg = default_config(name)
    cfg.scenario = name
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    checks, artifacts = run(cfg, out)
    report = VerificationReport(name, checks, _metadata(cfg), artifacts)
    report.metadata["wall_seconds"] = time.perf_counter() - t0
    path = out / f"{name}-report.json"
    path.write_text(report.to_json())
    report.artifacts.append(str(path))
    return report
