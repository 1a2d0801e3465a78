"""The benchmark's two workloads, driven only through shbif's public API.

Every op is a closed loop step: it starts when the previous one has
finished.  Its inputs come from the workload seed and the op index alone.
Each op returns {check name: passed}; an op that raises fails the
`no_raise` check.  shbif is called through its package namespace so that
the traced run's wrappers see the calls.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import shbif  # noqa: E402
from tracing import Tracer  # noqa: E402

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    domain: shbif.Domain
    params: shbif.Params  # for the warm-up and the kernel microbenchmarks
    group: int  # untraced runs stop only after whole groups of ops
    trace_ops: int  # fixed op count of the traced run, so counts repeat
    checks: tuple[str, ...]
    op: Callable[..., dict]  # (workload, seed, i, jobs, scratch) -> {check: passed}
    jobs: int = 1  # find_all pool size in untraced runs
    warmup: bool = True  # run one untimed op first; census-2d ops are too long


# -- stepping-1d: the c01-c05 ETD path --------------------------------------

STEP_LAMBDAS = (8.0, 9.0, 9.5)
STEPPER = shbif.StepperConfig(dt=1e-3, t_end=10.0, scheme="etdrk2", sample_every=50)


def _stepping_op(w, seed, i, jobs, scratch):
    lam = STEP_LAMBDAS[i % 3]
    mu = 0.5 if i % 4 == 3 else 0.0
    rng = np.random.default_rng([seed, i])
    u0 = shbif.random_field(w.domain, rng, 1.0, smooth=True, unit_norm=True)
    rep = shbif.integrate(u0, shbif.Params(lam, mu), STEPPER)
    checks = {"lyapunov_monotone": bool(np.all(np.diff(rep.lyapunov_values) <= 1e-10))}
    if mu == 0.0:
        tol = 1e-6 if rep.bound_check.regime == "subcritical" else 1e-9
        checks["bound_ratio"] = rep.bound_check.worst_ratio <= 1.0 + tol
    return checks


# -- census-2d: the real `shbif verify odd-periodic-census` path -------------

def _census_op(w, seed, i, jobs, scratch):
    cfg = shbif.default_config("odd-periodic-census")
    cfg.rng_seed = _op_seed(seed, i)
    cfg.jobs = jobs
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        report = shbif.run_suite("odd-periodic-census", cfg, out_dir=out)
    return {"report_passed": report.passed}


WORKLOADS = {
    w.name: w for w in (
        Workload("stepping-1d",
                 shbif.Domain.make(1, math.pi / 2, "dirichlet", grid_n=64, band=16),
                 shbif.Params(9.5), group=4, trace_ops=4,
                 checks=("bound_ratio", "lyapunov_monotone"), op=_stepping_op),
        Workload("census-2d",
                 shbif.Domain.make(2, 2 * math.pi, "odd-periodic", grid_n=256, band=64),
                 shbif.Params(0.2), group=1, trace_ops=1,
                 checks=("report_passed",), op=_census_op, jobs=min(2, nproc()),
                 warmup=False),
    )
}
CHECKS = ("no_raise",) + tuple(c for w in WORKLOADS.values() for c in w.checks)


def warm(w: Workload):
    """Fill the first-call caches: principal, lattice, ETD weights, FFT plans."""
    d = w.domain
    shbif.principal(d)
    u = shbif.random_field(d, np.random.default_rng(0), 1.0, unit_norm=True)
    shbif.to_spectral(shbif.to_grid(u))
    shbif.cube(u)
    shbif.square(u)
    if w.name == "stepping-1d":
        for lam in STEP_LAMBDAS:
            shbif.step(u, shbif.Params(lam), STEPPER.dt)
    else:
        shbif.residual(u, w.params)
        shbif.jacobian_apply(u, w.params, u)


class OpLog:
    """Op times and check outcomes of one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.check_failed = dict.fromkeys(CHECKS, 0)
        self.failed = 0  # ops with a raise or any failing check

    def run(self, w, seed, i, jobs, scratch):
        t0 = time.perf_counter()
        try:
            checks = w.op(w, seed, i, jobs, scratch)
        except Exception as err:  # an op that raises is a failed op, not a crash
            print(f"op {i} raised {type(err).__name__}: {err}", file=sys.stderr)
            checks = {"no_raise": False}
        self.times.append(time.perf_counter() - t0)
        bad = [c for c, ok in checks.items() if not ok]
        for c in bad:
            self.check_failed[c] += 1
        self.failed += bool(bad)

    def metrics(self) -> dict:
        out = {"fail_ratio": self.failed / len(self.times)}
        out.update({f"check.{c}.failed": n for c, n in self.check_failed.items()})
        return out


WARMUP_OP = 2**31  # op index of the untimed warm-up op


def measure(w: Workload, seed: int, seconds: float, scratch) -> tuple[OpLog, float]:
    """Run whole groups of ops for at most `seconds`; return (log, wall).

    A workload with `warmup` first runs one op, with inputs no timed op
    uses, and discards it.  At least one group runs; another starts only if
    a group of the mean length so far would end within `seconds`, so a run
    of long census-2d ops stops after one op instead of doubling.
    """
    if w.warmup:
        OpLog().run(w, seed, WARMUP_OP, w.jobs, scratch)
    log = OpLog()
    t0 = time.perf_counter()
    i = 0
    groups = 0
    while True:
        for _ in range(w.group):
            log.run(w, seed, i, w.jobs, scratch)
            i += 1
        groups += 1
        wall = time.perf_counter() - t0
        if wall * (groups + 1) / groups > seconds:
            return log, wall


def traced_pass(w: Workload, seed: int, n_ops: int, scratch) -> tuple[Tracer, OpLog, float]:
    """Run n_ops ops with jobs=1 under span tracing; return (tracer, log, wall)."""
    tracer = Tracer()
    log = OpLog()
    t0 = time.perf_counter()
    with tracer.installed():
        for i in range(n_ops):
            tracer.op = i
            log.run(w, seed, i, 1, scratch)
            tracer.end_op()
    return tracer, log, time.perf_counter() - t0


def reference_wall(name: str, seed: int, n_ops: int, scratch: str) -> float:
    """Wall time of the same ops as traced_pass, untraced (run in a fresh process)."""
    w = WORKLOADS[name]
    warm(w)
    log = OpLog()
    t0 = time.perf_counter()
    for i in range(n_ops):
        log.run(w, seed, i, 1, scratch)
    return time.perf_counter() - t0


def _time_us(fn, reps: int = 7, budget: float = 0.3) -> float:
    """Median time of one call in microseconds, over reps batches."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= budget / reps:
            break
        n *= 2
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def kernels(w: Workload, seed: int) -> dict[str, float]:
    """Kernel microbenchmarks on the workload's domain, in microseconds."""
    rng = np.random.default_rng([seed, 2**31])
    u = shbif.random_field(w.domain, rng, 1.0, unit_norm=True)
    v = shbif.random_field(w.domain, rng, 1.0, unit_norm=True)
    p = w.params
    return {
        "kernel.transform_pair_us": _time_us(lambda: shbif.to_spectral(shbif.to_grid(u))),
        "kernel.cube_us": _time_us(lambda: shbif.cube(u)),
        "kernel.square_us": _time_us(lambda: shbif.square(u)),
        "kernel.step_us": _time_us(lambda: shbif.step(u, p, STEPPER.dt)),
        "kernel.jacobian_apply_us": _time_us(lambda: shbif.jacobian_apply(u, p, v)),
    }


def scratch_dir() -> str:
    """A fresh directory for run_suite reports, inside the checkout."""
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def remove_scratch(path: str):
    shutil.rmtree(path, ignore_errors=True)
    try:
        Path(path).parent.rmdir()
    except OSError:
        pass
