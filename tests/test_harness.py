"""Config parsing, report plumbing, CLI surfaces."""

import json
import math
import platform
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shbif import cli, harness
from shbif.dynamics import DECAY_TOL, RunReport, _bound_check
from shbif.errors import ParseError, RangeError, UsageError
from shbif.harness import (
    SCENARIOS,
    CheckResult,
    ExperimentConfig,
    VerificationReport,
    default_config,
    parse_config,
    run_suite,
    write_csv,
)
from shbif.linear_analysis import principal
from shbif.spectral import SpectralField


def test_parse_config_valid():
    cfg = parse_config("dim=1\nbc=dirichlet\nlength=1.5707963\nlambda=9.5\n")
    assert cfg.dim == 1
    assert cfg.bc == "dirichlet"
    assert cfg.lam == 9.5
    assert math.isclose(cfg.length, math.pi / 2, rel_tol=1e-6)
    cfg.domain()  # constructs without error


def test_parse_config_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nmu=0.5  # inline\n")
    assert cfg.mu == 0.5


def test_parse_config_dirichlet_dim2_rejected():
    with pytest.raises(RangeError):
        parse_config("bc=dirichlet\ndim=2\n")


def test_parse_config_empty_gives_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.rng_seed == 12345


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_parse_config_reads_back_default_configs(name):
    cfg = default_config(name)
    text = "".join(f"{k}={v}\n" for k, v in cfg.as_dict().items() if v is not None)
    got = parse_config(text)
    assert got == cfg
    assert all(type(getattr(got, k)) is type(v) for k, v in cfg.as_dict().items())


def test_parse_config_unknown_key():
    with pytest.raises(ParseError) as exc:
        parse_config("dim=1\nwhatever=3\n")
    assert exc.value.line == 2
    # ETDRK2 is the only scheme, so there is no scheme key to set
    with pytest.raises(ParseError) as exc:
        parse_config("dim=1\nlambda=9.5\nscheme=etdrk2\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("value", ["0", "2"])
def test_parse_config_rejects_jobs(value):
    # find_all runs in one process, so there is no worker count to set:
    # jobs is an unknown key whatever its value, not a range error
    with pytest.raises(ParseError) as exc:
        parse_config(f"dim=1\njobs={value}\n")
    assert exc.value.line == 2


def test_parse_config_rejects_seed_scale():
    # no scenario reads a seed scale, so the key is unknown rather than ignored
    with pytest.raises(ParseError) as exc:
        parse_config("seed_scale=0.5\n")
    assert exc.value.line == 1


def test_parse_config_bad_value():
    with pytest.raises(ParseError):
        parse_config("dim=one\n")
    with pytest.raises(RangeError):
        parse_config("mu=-1\n")
    with pytest.raises(RangeError):
        parse_config("dt=-0.1\n")


@pytest.mark.parametrize("text", [
    "dim=4\n",
    "bc=foo\n",
    "bc=dirichlet\ndim=2\n",
    "length=0\n",
    "mu=-1\n",
    "bc=periodic\nmu=0.5\n",
    "dt=0\n",
    "t_end=0\n",
    "n_seeds=0\n",
])
def test_parse_config_range_rules(text):
    with pytest.raises(RangeError):
        parse_config(text)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_config_is_fresh(name):
    a = default_config(name)
    want = a.as_dict()
    a.rng_seed += 1
    b = default_config(name)
    assert b is not a
    assert b.as_dict() == want
    assert b.scenario == name


def test_run_suite_unknown_scenario(tmp_path):
    with pytest.raises(UsageError):
        run_suite("no-such-scenario", out_dir=str(tmp_path))


def test_report_fail_propagates():
    ok = CheckResult("a", 1.0, 1.0, 0.0, True, "p")
    bad = CheckResult("b", 1.0, 2.0, 0.0, False, "p")
    rep = VerificationReport("x", [ok, bad], {})
    assert not rep.passed
    assert VerificationReport("x", [ok], {}).passed


def test_report_determinism(tmp_path):
    a = run_suite("slaved-mode", out_dir=str(tmp_path / "a"))
    b = run_suite("slaved-mode", out_dir=str(tmp_path / "b"))
    ja, jb = json.loads(a.to_json()), json.loads(b.to_json())
    for doc in (ja, jb):
        doc["metadata"].pop("timestamp")
        doc["metadata"].pop("wall_seconds")
    ja["artifacts"] = jb["artifacts"] = []
    ja["metadata"]["config"]["out_dir"] = jb["metadata"]["config"]["out_dir"] = ""
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_report_wall_seconds(tmp_path):
    rep = run_suite("slaved-mode", out_dir=str(tmp_path))
    assert rep.metadata["wall_seconds"] > 0
    assert json.loads(rep.to_json())["metadata"]["wall_seconds"] > 0


def test_write_csv_numpy_scalars_parse(tmp_path):
    path = write_csv(tmp_path / "x.csv", "a,b,c",
                      [(np.float64(0.1), np.float64(1e-300), 3), (1.5, np.float64(-2.0), 4)])
    lines = Path(path).read_text().splitlines()
    assert lines == ["a,b,c", "0.1,1e-300,3", "1.5,-2.0,4"]


def test_decay_series_csv_parses(tmp_path):
    run_suite("decay-subcritical", out_dir=str(tmp_path))
    lines = (tmp_path / "decay-subcritical-series.csv").read_text().splitlines()
    assert lines[0] == "run,t,l2"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert {int(r[0]) for r in rows} == set(range(20))
    assert all(len(r) == 3 and math.isfinite(r[2]) for r in rows)


def test_decay_detail_reports_ratio_after_start(tmp_path):
    # the check reads 1 by its floor; the detail gives the margin under it
    rep = run_suite("decay-subcritical", out_dir=str(tmp_path))
    check = rep.checks[0]
    assert check.observed == 1.0
    after = float(check.detail.rsplit("ratio after t = 0 ", 1)[1])
    assert 0.0 < after < 1.0


def test_decay_check_named_for_monitored_regime(tmp_path):
    # above lambda_c integrate monitors the logistic cap, whatever the id says
    cfg = default_config("decay-critical")
    cfg.lam = 9.5
    rep = run_suite("decay-critical", cfg, out_dir=str(tmp_path))
    assert [c.name for c in rep.checks] == ["l2sq-within-logistic-cap"]
    assert rep.passed


def test_decay_final_norm_provenance_names_t_end(tmp_path):
    cfg = default_config("decay-critical")
    cfg.t_end = 10.0
    rep = run_suite("decay-critical", cfg, out_dir=str(tmp_path))
    check = next(c for c in rep.checks if c.name == "final-norm-halved")
    assert check.provenance == "algebraic decay implies |u(10)| < 0.5 |u0|"


def test_decay_subcritical_provenance_states_the_psi_bound(tmp_path):
    # the check's ratios are of psi = |u|^2, the quantity its provenance bounds
    cfg = default_config("decay-subcritical")
    cfg.t_end = 2.0
    rep = run_suite("decay-subcritical", cfg, out_dir=str(tmp_path))
    check = next(c for c in rep.checks if c.name == "l2-within-exponential-envelope")
    assert check.provenance == "comparison bound psi <= exp(2 (lambda-lambda_c) t) psi0"
    run, t, l2 = np.loadtxt(tmp_path / "decay-subcritical-series.csv", delimiter=",",
                            skiprows=1, unpack=True)
    psi0 = (l2[t == 0] ** 2)[run.astype(int)]
    lam_c = principal(cfg.domain()).lambda_c
    ratios = l2[t > 0] ** 2 / (psi0 * np.exp(2.0 * (cfg.lam - lam_c) * t))[t > 0]
    after = float(check.detail.rsplit(" ", 1)[1])
    assert after == pytest.approx(np.max(ratios), rel=1e-5)


@pytest.mark.parametrize("name,regime", [("decay-subcritical", "subcritical"),
                                         ("decay-critical", "critical"),
                                         ("decay-supercritical", "supercritical")])
@pytest.mark.parametrize("excess", [0.5, 2.0], ids=["within", "beyond"])
def test_violated_agrees_with_decay_check(tmp_path, monkeypatch, name, regime, excess):
    # a run whose worst psi / bound is 1 + excess * tol: the run's monitor
    # and the scenario's check read the same tolerance, so they agree
    cfg = default_config(name)
    d, p = cfg.domain(), cfg.params()
    lam_c = principal(d).lambda_c
    ratio = 1.0 + excess * DECAY_TOL[regime]
    times = np.array([0.0, 1.0])
    psi0 = 0.25  # below the supercritical cap
    bound = {"subcritical": psi0 * math.exp(2.0 * (p.lam - lam_c)),
             "critical": psi0 / (2.0 / d.volume * psi0 + 1.0),
             "supercritical": max(psi0, (p.lam - lam_c) * d.volume)}[regime]
    norms = np.sqrt([psi0, ratio * bound])
    bc = _bound_check(times, norms, p.lam, lam_c, d.volume)
    assert bc.regime == regime
    run = RunReport(times, norms, np.zeros(2), bc, SpectralField.zeros(d), lam_c, p)
    monkeypatch.setattr(harness, "integrate", lambda seeds, *_: [run] * len(seeds))
    rep = run_suite(name, cfg, out_dir=str(tmp_path))
    check = rep.checks[0]
    assert check.tolerance == DECAY_TOL[regime]
    assert check.observed == pytest.approx(ratio, rel=1e-12)
    assert bc.violated == (excess > 1.0)
    assert check.passed == (not bc.violated)


def test_report_json_contains_tolerance_and_provenance(tmp_path):
    rep = run_suite("slaved-mode", out_dir=str(tmp_path))
    doc = json.loads(rep.to_json())
    for c in doc["checks"]:
        assert "tolerance" in c
        assert c["provenance"]
    assert doc["metadata"]["rng_seed"] == 12345


def test_default_config_unknown():
    with pytest.raises(UsageError):
        default_config("bogus")


# -- CLI ------------------------------------------------------------------

def test_cli_eig(capsys):
    rc = cli.main(["eig", "--dim", "1", "--bc", "dirichlet",
                   "--length", str(math.pi / 2), "--grid", "64", "--band", "16",
                   "--lambda", "9.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda_c"] == 9.0
    assert doc["multiplicity"] == 1
    assert doc["critical_modes"] == [{"kind": "sin", "k": [1]}]
    assert doc["betas"]["sin[1]"] == 0.5


def test_cli_run_and_artifacts(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "run", "--dim", "1", "--bc", "dirichlet",
                   "--length", str(math.pi / 2), "--grid", "64", "--band", "16",
                   "--lambda", "9.5", "--dt", "1e-3", "--t-end", "0.2",
                   "--seed-mode", "1", "--seed-amp", "0.1", "--snapshot"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound_check"]["regime"] == "supercritical"
    assert (tmp_path / "run-series.csv").exists()
    assert (tmp_path / "run-final.csv").exists()
    header = (tmp_path / "run-series.csv").read_text().splitlines()[0]
    assert header == "t,l2,lyapunov"


def test_cli_run_seed_amp_zero_starts_from_zero(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "run", "--dim", "1", "--bc", "dirichlet",
                   "--length", str(math.pi / 2), "--grid", "64", "--band", "16",
                   "--lambda", "9.5", "--dt", "1e-3", "--t-end", "0.01", "--seed-amp", "0"])
    assert rc == 0
    first = (tmp_path / "run-series.csv").read_text().splitlines()[1]
    assert float(first.split(",")[1]) == 0.0


def test_cli_run_snapshot_fields_parse(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "run", "--dim", "1", "--bc", "dirichlet",
                   "--length", str(math.pi / 2), "--grid", "64", "--band", "16",
                   "--lambda", "9.5", "--t-end", "0.01", "--snapshot"])
    assert rc == 0
    lines = (tmp_path / "run-final.csv").read_text().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 65
    for line in lines[1:]:
        assert [float(v) for v in line.split(",")]


def test_cli_eig_bad_dim_is_config_error(capsys):
    rc = cli.main(["eig", "--dim", "4", "--bc", "periodic", "--length", "6.3"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_config_jobs_line(tmp_path, capsys):
    # find_all runs in one process: a jobs= line is an unknown key, --jobs no flag
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("jobs=1\n")
    args = ["steady", "--dim", "1", "--bc", "dirichlet", "--length", str(math.pi / 2),
            "--grid", "64", "--band", "16", "--lambda", "9.5", "--nseeds", "4"]
    assert cli.main(["--out", str(tmp_path), "--config", str(cfgfile)] + args) == 2
    assert "unknown key" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "--jobs=3"] + args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs=3" in capsys.readouterr().err


def test_metadata_does_not_fork(monkeypatch):
    # platform.platform() asks `uname -p` for the processor in a child process
    def no_fork(*args, **kwargs):
        raise AssertionError("_metadata started a child process")

    monkeypatch.setattr(subprocess, "Popen", no_fork)
    monkeypatch.setattr(platform, "_uname_cache", None)
    monkeypatch.setattr(platform, "_platform_cache", {})
    meta = harness._metadata(ExperimentConfig())
    assert meta["platform"].startswith(platform.system())


def test_cli_out_dir_from_config_unless_out_given(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["eig", "--dim", "1", "--bc", "dirichlet", "--length", str(math.pi / 2),
            "--grid", "64", "--band", "16", "--write"]
    assert cli.main(args) == 0
    assert (tmp_path / "out" / "eig.json").exists()
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"out_dir={tmp_path / 'from-config'}\n")
    assert cli.main(["--config", str(cfgfile)] + args) == 0
    assert (tmp_path / "from-config" / "eig.json").exists()
    assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "from-flag")]
                    + args) == 0
    assert (tmp_path / "from-flag" / "eig.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.cfg", "from-config", "from-flag", "out"]


@pytest.mark.parametrize("command, config, flag, want", [
    ("steady", "", [], None),
    ("steady", "n_seeds=3\n", [], 3),
    ("steady", "n_seeds=3\n", ["--nseeds", "5"], 5),
    ("steady", "", ["--nseeds", "5"], 5),
    ("sweep", "", [], 20),
    ("sweep", "n_seeds=3\n", [], 3),
    ("sweep", "n_seeds=3\n", ["--nseeds", "5"], 5),
])
def test_cli_seed_count_from_config_unless_flag(tmp_path, monkeypatch, capsys,
                                                command, config, flag, want):
    seen = []

    def fake_find_all(domain, p, n_seeds, *, rng_seed):
        seen.append(n_seeds)
        return []

    monkeypatch.setattr(cli, "find_all", fake_find_all)
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(config)
    box = ["--dim", "1", "--bc", "dirichlet", "--length", str(math.pi / 2),
           "--grid", "64", "--band", "16"]
    if command == "steady":
        args = ["steady", *box, "--lambda", "9.5", "--from-mode", "1", "--amp", "0.8"]
    else:
        args = ["sweep", *box, "--lambda-min", "9.5", "--lambda-max", "9.5", "--steps", "1"]
    rc = cli.main(["--out", str(tmp_path), "--config", str(cfgfile), *args, *flag])
    assert rc == 0
    if want is None:  # no census: one Newton solve from the seed mode
        assert seen == []
        assert len(json.loads(capsys.readouterr().out)["states"]) == 1
    else:
        assert seen == [want]


@pytest.mark.parametrize("command", ["steady", "sweep"])
@pytest.mark.parametrize("n_seeds", ["0", "-3"])
def test_cli_seed_count_below_one_is_config_error(tmp_path, capsys, command, n_seeds):
    # the flag obeys the rule an n_seeds= config line does
    box = ["--dim", "1", "--bc", "dirichlet", "--length", str(math.pi / 2),
           "--grid", "64", "--band", "16"]
    lam = ["--lambda-min", "9.5", "--lambda-max", "9.5"] if command == "sweep" else []
    rc = cli.main(["--out", str(tmp_path), command, *box, *lam, "--nseeds", n_seeds])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_cli_sweep_steps_below_one_is_config_error(tmp_path, capsys, steps):
    # no lambda values to sweep is a config error, not a header-only CSV
    rc = cli.main(["--out", str(tmp_path), "sweep", "--dim", "1", "--bc", "dirichlet",
                   "--length", str(math.pi / 2), "--grid", "64", "--band", "16",
                   "--lambda-min", "9.5", "--lambda-max", "9.5", "--steps", steps])
    assert rc == 2
    assert "config error: steps must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_steady_single(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "steady", "--dim", "1", "--bc",
                   "dirichlet", "--length", str(math.pi / 2), "--grid", "64",
                   "--band", "16", "--lambda", "9.5", "--from-mode", "1",
                   "--amp", "0.8"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    (state,) = doc["states"]
    assert state["residual"] < 1e-10
    assert state["morse_index"] == 0


def test_cli_reduce(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "reduce", "--dim", "1", "--bc",
                   "dirichlet", "--length", str(math.pi / 2), "--grid", "64",
                   "--band", "16", "--lambda", "9.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reduced_system"]["lambda_c"] == 9.0
    kinds = sorted(f["kind"] for f in doc["fixed_points"])
    assert kinds == ["attractor", "attractor", "source"]


def test_cli_sweep(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "sweep", "--dim", "1", "--bc",
                   "dirichlet", "--length", str(math.pi / 2), "--grid", "64",
                   "--band", "16", "--lambda-min", "8.8", "--lambda-max", "9.2",
                   "--steps", "3", "--nseeds", "8"])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,state_id,l2_norm,critical_amplitude,morse_index"
    assert len(lines) > 3
    rows = {}
    for line in lines[1:]:
        lam, _sid, norm, amp, morse = line.split(",")
        rows.setdefault(round(float(lam), 9), []).append(
            (float(norm), float(amp), int(morse)))
    # below lambda_c = 9 only the trivial state, and it is stable
    ((norm, _amp, morse),) = rows[8.8]
    assert norm < 1e-6 and morse == 0
    # above it the trivial state is a saddle and one state of the +-u pair
    # is listed, with the reduced amplitude sqrt(2 L beta / 3)
    trivial, bifurcated = sorted(rows[9.2])
    assert trivial[0] < 1e-6 and trivial[2] == 1
    assert bifurcated[2] == 0
    want = math.sqrt(2 * (math.pi / 2) * 0.2 / 3)
    assert abs(abs(bifurcated[1]) - want) <= 1e-3 * want


def test_cli_steady_from_seed_file(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"modes": [{"kind": "sin", "k": [1], "c": 0.8}]}))
    rc = cli.main(["--out", str(tmp_path), "steady", "--dim", "1", "--bc",
                   "dirichlet", "--length", str(math.pi / 2), "--grid", "64",
                   "--band", "16", "--lambda", "9.5", "--from-file", str(seed)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["states"][0]["l2_norm"] == pytest.approx(0.7236, abs=1e-3)


def test_cli_verify_prints_wall_time(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "verify", "slaved-mode"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    (line,) = [l for l in out if l.startswith("slaved-mode: ")]
    assert line.endswith(" s")
    assert float(line.split()[1]) >= 0


def test_cli_verify_unknown_scenario(capsys):
    rc = cli.main(["verify", "nonexistent"])
    assert rc == 2


def test_cli_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("lambda=9.4\nband=16\ngrid_n=64\n")
    rc = cli.main(["--config", str(cfgfile), "eig", "--dim", "1", "--bc",
                   "dirichlet", "--length", str(math.pi / 2)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["betas"]["sin[1]"] == pytest.approx(0.4)


def test_reduced_phase_portrait_script(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reduced_phase_portrait.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out-dir", str(tmp_path)])
    runpy.run_path(str(script), run_name="__main__")
    fps = (tmp_path / "reduced-fixed-points.csv").read_text().strip().splitlines()
    assert fps[0] == "y1,y2,kind,eig1,eig2"
    kinds = [row.split(",")[2] for row in fps[1:]]
    assert len(kinds) == 9
    assert (kinds.count("attractor"), kinds.count("saddle"), kinds.count("source")) == (4, 4, 1)
    field = (tmp_path / "reduced-flow-field.csv").read_text().strip().splitlines()
    assert field[0] == "y1,y2,dy1,dy2"
    assert len(field) == 1 + 21 * 21
