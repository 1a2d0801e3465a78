"""Every metric the benchmark prints: name, unit, better, and what it should move.

BENCHMARK.json lists the same names, units and directions; its per-layer
entries have no room for the `moves` column, so that column lives here.
"""

from workloads import CHECKS

S, C = "stepping-1d", "census-2d"

END_TO_END = (
    ("ops_per_s", "1/s", "higher", "ops completed per second at the stated size"),
    ("op_p50_s", "s", "lower", "median op time; the sample count is `attempted`"),
    ("setup_s", "s", "lower",
     "fresh process: import shbif and fill principal, lattice, ETD weight and FFT plan caches"),
    ("peak_rss_mb", "MB", "lower",
     "peak resident memory of the run process plus its largest child"),
)


def _layer(name, unit, moves):
    return (name, unit, "lower", moves)


_SPECTRAL = f"{S} ops_per_s through call counts; {C} ops_per_s and peak_rss_mb through points"
_DYNAMICS = f"{S} ops_per_s; {C} should not move"

PER_LAYER = (
    _layer("spectral.cube.calls", "count", _SPECTRAL),
    _layer("spectral.cube.self_s", "s", _SPECTRAL),
    _layer("spectral.square.calls", "count", _SPECTRAL),
    _layer("spectral.square.self_s", "s", _SPECTRAL),
    _layer("spectral.transform.calls", "count", _SPECTRAL),
    _layer("spectral.transform.self_s", "s", _SPECTRAL),
    _layer("spectral.fft.calls", "count", _SPECTRAL),
    _layer("spectral.fft.points", "count", _SPECTRAL),
    _layer("spectral.fft.bytes_computed", "bytes", _SPECTRAL),
    _layer("dynamics.step.calls", "count", _DYNAMICS),
    _layer("dynamics.step.self_s", "s", _DYNAMICS),
    _layer("dynamics.integrate.calls", "count", _DYNAMICS),
    _layer("dynamics.integrate.self_s", "s", _DYNAMICS),
    _layer("dynamics.lyapunov.calls", "count", _DYNAMICS),
    _layer("dynamics.lyapunov.self_s", "s", _DYNAMICS),
    _layer("steady.newton.calls", "count", f"{C} ops_per_s"),
    _layer("steady.newton.self_s", "s", f"{C} ops_per_s"),
    _layer("steady.newton.failed", "count", f"{C} ops_per_s"),
    _layer("steady.residual.calls", "count", f"{C} ops_per_s"),
    _layer("steady.residual.self_s", "s", f"{C} ops_per_s"),
    _layer("steady.stability.calls", "count", f"{C} ops_per_s through LOBPCG"),
    _layer("steady.stability.self_s", "s", f"{C} ops_per_s through LOBPCG"),
    _layer("steady.find_all.calls", "count", f"{C} ops_per_s"),
    _layer("steady.find_all.self_s", "s", f"{C} ops_per_s"),
    _layer("steady.find_all.states_per_seed", "ratio",
           f"{C} ops_per_s; states kept over seeds tried"),
    _layer("steady.orbit_distance.calls", "count", f"{C} ops_per_s"),
    _layer("steady.orbit_distance.self_s", "s", f"{C} ops_per_s"),
    _layer("linear_analysis.principal.calls", "count", "setup_s, or barely any metric"),
    _layer("linear_analysis.principal.self_s", "s", "setup_s, or barely any metric"),
    _layer("reduced.build_reduced.self_s", "s", "setup_s, or barely any metric"),
    _layer("reduced.reduced_fixed_points.self_s", "s", "setup_s, or barely any metric"),
    _layer("harness.run_suite.self_s", "s", "setup_s, or barely any metric"),
    _layer("trace.overhead_ratio", "ratio",
           "none: traced over untraced wall time of the same jobs=1 ops"),
    _layer("kernel.transform_pair_us", "us",
           f"ops_per_s of the workload on the same domain ({S}, {C})"),
    _layer("kernel.cube_us", "us", f"ops_per_s of the workload on the same domain ({S}, {C})"),
    _layer("kernel.square_us", "us", f"{S} ops_per_s (mu > 0 ops); zero projection on {C}"),
    _layer("kernel.step_us", "us", f"{S} ops_per_s"),
    _layer("kernel.jacobian_apply_us", "us",
           f"{C} ops_per_s; builds J(u) and applies it once"),
    _layer("fail_ratio", "ratio",
           f"failed ops over attempted ops, counting every check; must stay 0 on {S} and {C}"),
) + tuple(
    _layer(f"check.{c}.failed", "count", f"ops failing check {c}; must stay 0")
    for c in CHECKS
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
