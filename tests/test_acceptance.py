"""Acceptance suite: one test per verification scenario, stated tolerances.

Each test runs the corresponding harness scenario with its default
configuration and prints one PASS/FAIL line per check (run with -s to see
them on success).  The planted-census tests pass find_all's states through
a defect and assert which checks fail.
"""

import dataclasses
import math

import pytest

from shbif import harness
from shbif.harness import default_config, run_suite
from shbif.linear_analysis import principal

# The report schema: each scenario's check names, in report order.  A
# refactor must not rename, drop or reorder a check silently.
CHECK_NAMES = {
    "decay-subcritical": ["l2-within-exponential-envelope"],
    "decay-critical": ["l2sq-within-algebraic-envelope", "final-norm-halved"],
    "decay-supercritical": ["l2sq-within-logistic-cap"],
    "pitchfork-amplitude": ["amplitude-sq-slope", "profile-cosine-similarity"],
    "pitchfork-census": ["nonzero-state-count", "amplitudes-match-reduced",
                         "every-reduced-state-found", "stability-split", "index-sum",
                         "states-are-mirror-pair", "basin-labels-resolved"],
    "gsh-transcritical": ["morse-index-saddle", "amplitude-law-saddle",
                          "morse-index-attractor", "amplitude-law-attractor",
                          "amplitude-linearity", "amplitude-law-order"],
    "odd-periodic-census": ["nonzero-state-count", "amplitudes-match-reduced",
                            "every-reduced-state-found", "stability-split", "index-sum",
                            "runtime-seconds"],
    "periodic-torus": ["max-residual", "norm-spread", "neutral-mode-count",
                       "no-positive-eigenvalue"],
    "slaved-mode": ["slaved-third-harmonic-ratio"],
    "reduced-shadowing": ["critical-amplitude-shadowing"],
    "infrastructure": ["transform-roundtrip", "products-vs-convolution-oracle",
                       "jacobian-fd-slope", "etdrk2-order", "lyapunov-monotone"],
}


def _run(name, tmp_path):
    report = run_suite(name, out_dir=str(tmp_path))
    status = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status}")
    for line in report.summary_lines():
        print("  " + line)
    assert [c.name for c in report.checks] == CHECK_NAMES[name]
    detail = "\n".join(report.summary_lines())
    assert report.passed, f"scenario {name} failed:\n{detail}"


def test_c01_subcritical_decay(tmp_path):
    _run("decay-subcritical", tmp_path)


def test_c02_critical_algebraic_decay(tmp_path):
    _run("decay-critical", tmp_path)


def test_c03_supercritical_bound(tmp_path):
    _run("decay-supercritical", tmp_path)


def test_c04_pitchfork_amplitude_law(tmp_path):
    _run("pitchfork-amplitude", tmp_path)


def test_c05_two_states_and_basins(tmp_path):
    _run("pitchfork-census", tmp_path)


def test_c06_gsh_transcritical(tmp_path):
    _run("gsh-transcritical", tmp_path)


def test_c07_odd_periodic_census(tmp_path):
    _run("odd-periodic-census", tmp_path)


def test_c08_periodic_torus(tmp_path):
    _run("periodic-torus", tmp_path)


def test_c09_slaved_mode_law(tmp_path):
    _run("slaved-mode", tmp_path)


def test_c10_reduced_shadowing(tmp_path):
    _run("reduced-shadowing", tmp_path)


def test_c11_infrastructure(tmp_path):
    _run("infrastructure", tmp_path)


def _planted_census(name, tmp_path, monkeypatch, plant):
    """The census scenario at jobs = 1 with find_all's states passed through plant."""
    real = harness.find_all
    monkeypatch.setattr(harness, "find_all", lambda *a, **k: plant(real(*a, **k)))
    cfg = default_config(name)
    cfg.jobs = 1
    report = run_suite(name, cfg, out_dir=str(tmp_path))
    assert [c.name for c in report.checks] == CHECK_NAMES[name]
    return {c.name: c for c in report.checks}


def test_pitchfork_census_reports_every_check_with_one_state(tmp_path, monkeypatch):
    checks = _planted_census("pitchfork-census", tmp_path, monkeypatch,
                             lambda states: [s for s in states if s.state.coeff(1) >= 0])
    assert checks["nonzero-state-count"].observed == 1
    assert checks["every-reduced-state-found"].observed == 1
    assert math.isnan(checks["states-are-mirror-pair"].observed)
    assert checks["amplitudes-match-reduced"].passed  # the one state has its class
    assert {n for n, c in checks.items() if not c.passed} == {
        "nonzero-state-count", "every-reduced-state-found", "stability-split",
        "index-sum", "states-are-mirror-pair", "basin-labels-resolved"}


def _roll(states, axis):
    """The census state that is a single roll on critical mode `axis` (0 or 1)."""
    other = principal(states[0].state.domain).critical_modes[1 - axis]
    return next(s for s in states
                if s.norm > 1e-6 and abs(s.state.coeff(other)) < 1e-6 * s.norm)


def _swap_roll(states):
    """-(roll on the first mode) in place of the roll on the second."""
    x, y = _roll(states, 0), _roll(states, 1)
    return [dataclasses.replace(x, state=-1.0 * x.state) if s is y else s for s in states]


def _extra_state(states):
    """An extra state at half the amplitudes of a mixed one, which has no class."""
    mixed = next(s for s in states if s.morse_index == 1)
    return states + [dataclasses.replace(mixed, state=0.5 * mixed.state)]


@pytest.mark.parametrize("plant, observed, failed", [
    (_swap_roll, {"every-reduced-state-found": 1, "amplitudes-match-reduced": 1.0},
     {"every-reduced-state-found", "amplitudes-match-reduced"}),
    (_extra_state, {"nonzero-state-count": 5, "amplitudes-match-reduced": math.inf},
     {"nonzero-state-count", "amplitudes-match-reduced", "stability-split", "index-sum"}),
], ids=["roll-swapped-for-mirror", "extra-state"])
def test_odd_periodic_census_fails_on_planted_states(tmp_path, monkeypatch, plant,
                                                     observed, failed):
    checks = _planted_census("odd-periodic-census", tmp_path, monkeypatch, plant)
    assert {n for n, c in checks.items() if not c.passed} == failed
    for name, want in observed.items():
        assert checks[name].observed == pytest.approx(want, abs=0.01)
