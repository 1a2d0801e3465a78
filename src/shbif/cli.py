"""Command-line interface.

Subcommands: eig, run, steady, sweep, reduce, verify.  Global flags --out,
--rng-seed and --config (key=value file merged into the scenario
defaults).  Exit code 0 iff every executed check passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import Params, integrate
from .errors import ParseError, RangeError, ShbifError, UsageError
from .harness import (
    SCENARIOS,
    ExperimentConfig,
    _validate,
    default_config,
    parse_config,
    run_suite,
    write_csv,
    write_csv_1d,
    write_pgm_2d,
)
from .linear_analysis import principal
from .reduced import build_reduced, reduced_fixed_points
from .spectral import SpectralField, to_grid
from .steady import find_all, newton, stability


def _json_out(obj, path: Path | None):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path is not None:
        path.write_text(text + "\n")
    print(text)


def _overlay(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """cfg with --config, then the subcommand's flags, then the global flags, validated."""
    if args.config:
        cfg = parse_config(Path(args.config).read_text(), base=cfg)
    # every config key but scenario, which names verify's positional argument
    for key in (f.name for f in dataclasses.fields(cfg) if f.name != "scenario"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    _validate(cfg)
    return cfg


def _base_config(args, **defaults) -> ExperimentConfig:
    """The subcommand's defaults, overlaid by --config and the flags."""
    return _overlay(ExperimentConfig(**defaults), args)


def _seed_field(cfg: ExperimentConfig, args):
    d = cfg.domain()
    if getattr(args, "seed_file", None):
        spec = json.loads(Path(args.seed_file).read_text())
        coeffs = {(m["kind"], tuple(m["k"])): m["c"] for m in spec["modes"]}
        return SpectralField.from_modes(d, coeffs)
    mode = getattr(args, "seed_mode", None)
    amp = 0.1 if getattr(args, "seed_amp", None) is None else args.seed_amp
    if mode is None:
        mode = principal(d).critical_modes[0]
    else:
        mode = int(mode) if cfg.dim == 1 else tuple(int(v) for v in mode.split(","))
    return amp * SpectralField.from_modes(d, {mode: 1.0})


def _snapshot(field, out: Path, stem: str):
    if field.domain.dim == 1:
        return write_csv_1d(to_grid(field), out / f"{stem}.csv")
    if field.domain.dim == 2:
        return write_pgm_2d(to_grid(field), out / f"{stem}.pgm")
    return None


def cmd_eig(args) -> int:
    cfg = _base_config(args)
    summ = principal(cfg.domain())
    path = None
    if args.write:
        path = Path(cfg.out_dir) / "eig.json"
        path.parent.mkdir(parents=True, exist_ok=True)
    _json_out(summ.as_dict(lam=cfg.lam), path)
    return 0


def cmd_run(args) -> int:
    cfg = _base_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    u0 = _seed_field(cfg, args)
    rep = integrate(u0, cfg.params(), cfg.stepper())
    artifacts = [write_csv(out / "run-series.csv", "t,l2,lyapunov",
                           zip(rep.times, rep.l2_norms, rep.lyapunov_values))]
    if args.snapshot:
        snap = _snapshot(rep.final_state, out, "run-final")
        if snap:
            artifacts.append(snap)
    doc = rep.as_dict()
    doc["rng_seed"] = cfg.rng_seed
    doc["artifacts"] = artifacts
    _json_out(doc, out / "run-report.json")
    return 0


def cmd_steady(args) -> int:
    cfg = _base_config(args, n_seeds=None)  # None: one Newton solve, no census
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = cfg.params()
    if cfg.n_seeds:
        states = find_all(cfg.domain(), p, n_seeds=cfg.n_seeds,
                          rng_seed=cfg.rng_seed)
    else:
        states = [stability(newton(_seed_field(cfg, args), p))]
    docs = []
    for i, s in enumerate(states):
        doc = s.as_dict()
        snap = _snapshot(s.state, out, f"steady-{i}")
        if snap:
            doc["snapshot"] = snap
        docs.append(doc)
    _json_out({"states": docs, "rng_seed": cfg.rng_seed}, out / "steady.json")
    return 0


def cmd_sweep(args) -> int:
    if args.steps < 1:
        raise RangeError("steps must be >= 1")
    cfg = _base_config(args, n_seeds=20)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    crit = principal(cfg.domain()).critical_modes[0]

    def rows():
        for lam in np.linspace(args.lambda_min, args.lambda_max, args.steps):
            states = find_all(cfg.domain(), Params(float(lam), cfg.mu),
                              n_seeds=cfg.n_seeds, rng_seed=cfg.rng_seed)
            for i, s in enumerate(states):
                yield lam, i, s.norm, s.state.coeff(crit), s.morse_index

    path = write_csv(out / "sweep.csv",
                     "lambda,state_id,l2_norm,critical_amplitude,morse_index", rows())
    print(f"wrote {path}")
    return 0


def cmd_reduce(args) -> int:
    cfg = _base_config(args)
    sys = build_reduced(cfg.domain())
    fps = reduced_fixed_points(sys, cfg.lam, cfg.mu)
    doc = {
        "reduced_system": sys.as_dict(),
        "fixed_points": [f.as_dict() for f in fps],
    }
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _json_out(doc, out / "reduce.json")
    return 0


def cmd_verify(args) -> int:
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    ok = True
    for name in names:
        report = run_suite(name, _overlay(default_config(name), args))
        for line in report.summary_lines():
            print(line)
        print(f"{name}: {report.metadata['wall_seconds']:.2f} s")
        ok = ok and report.passed
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _add_domain_flags(sp):
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--bc", type=str, default=None)
    sp.add_argument("--length", type=float, default=None)
    sp.add_argument("--grid", dest="grid_n", type=int, default=None)
    sp.add_argument("--band", type=int, default=None)


def _add_param_flags(sp):
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--mu", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shbif",
                                 description="Swift-Hohenberg bifurcation toolkit")
    ap.add_argument("--out", dest="out_dir", default=None,
                    help="output directory (default: out_dir from --config, else out)")
    ap.add_argument("--rng-seed", type=int, default=None)
    ap.add_argument("--config", default=None, help="key=value config file")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eig", help="principal eigenvalue and critical modes")
    _add_domain_flags(sp)
    _add_param_flags(sp)
    sp.add_argument("--write", action="store_true")
    sp.set_defaults(func=cmd_eig)

    sp = sub.add_parser("run", help="time integration with bound monitors")
    _add_domain_flags(sp)
    _add_param_flags(sp)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--seed-mode", default=None)
    sp.add_argument("--seed-amp", type=float, default=None)
    sp.add_argument("--seed-file", default=None)
    sp.add_argument("--snapshot", action="store_true")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("steady", help="Newton steady-state solves")
    _add_domain_flags(sp)
    _add_param_flags(sp)
    sp.add_argument("--from-mode", dest="seed_mode", default=None)
    sp.add_argument("--amp", dest="seed_amp", type=float, default=None)
    sp.add_argument("--from-file", dest="seed_file", default=None)
    sp.add_argument("--nseeds", dest="n_seeds", type=int, default=None,
                    help="census seeds (default: n_seeds from --config, else one solve)")
    sp.set_defaults(func=cmd_steady)

    sp = sub.add_parser("sweep", help="bifurcation diagram over lambda")
    _add_domain_flags(sp)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--lambda-min", type=float, required=True)
    sp.add_argument("--lambda-max", type=float, required=True)
    sp.add_argument("--steps", type=int, default=11)
    sp.add_argument("--nseeds", dest="n_seeds", type=int, default=None,
                    help="seeds per lambda (default: n_seeds from --config, else 20)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("reduce", help="reduced tensors and fixed points")
    _add_domain_flags(sp)
    _add_param_flags(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("verify", help="run a verification scenario (or 'all')")
    sp.add_argument("scenario")
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ParseError, RangeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ShbifError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
