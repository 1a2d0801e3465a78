"""Acceptance suite: one test per verification scenario, stated tolerances.

Each test runs the corresponding harness scenario with its default
configuration and prints one PASS/FAIL line per check (run with -s to see
them on success).
"""

from shbif.harness import run_suite

# The report schema: each scenario's check names, in report order.  A
# refactor must not rename, drop or reorder a check silently.
CHECK_NAMES = {
    "decay-subcritical": ["l2-within-exponential-envelope"],
    "decay-critical": ["l2sq-within-algebraic-envelope", "final-norm-halved"],
    "decay-supercritical": ["l2sq-within-logistic-cap"],
    "pitchfork-amplitude": ["amplitude-sq-slope", "profile-cosine-similarity"],
    "pitchfork-census": ["nonzero-state-count", "states-are-mirror-pair",
                         "index-sum", "basin-labels-resolved"],
    "gsh-transcritical": ["morse-index-saddle", "amplitude-law-saddle",
                          "morse-index-attractor", "amplitude-law-attractor",
                          "amplitude-linearity", "amplitude-law-order"],
    "odd-periodic-census": ["nonzero-state-count", "amplitudes-match-reduced",
                            "stability-split", "index-sum", "runtime-seconds"],
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
