"""End-to-end CLI tests: config parsing, CSV contracts, exit codes."""

import math
import re
from pathlib import Path

import pytest

from liqzone import (
    CappedBachelier,
    CostParams,
    GKernel,
    QuadratureError,
    TargetZoneState,
    ac_policy,
    extra_rate,
    estimate_value,
    urgency,
)
from liqzone.cli import _KEYS, ConfigError, load_config, main
from liqzone.signals import _CappedSignalTable

BASE = """
model = bachelier-capped
m0 = 1.0
sigma = 0.5
p_bar = 1.0
lambda = 0.1
gamma = 1.0
big_gamma = 1.0
T = 1.0
x0 = 1.0
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_defaults_and_values(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.model == "bachelier-capped"
    assert cfg.n_steps == 4096 and cfg.n_paths == 10000 and cfg.seed == 0
    assert cfg.tau_count == 50 and cfg.money_count == 50
    assert cfg.tau_max == 1.0 and cfg.money_max == 1.0


def test_missing_required_key_names_it(tmp_path, capsys):
    bad = BASE.replace("gamma = 1.0\n", "", 1)
    code = main(["surface", "--config", write(tmp_path, bad),
                 "--output", str(tmp_path / "s.csv")])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_unknown_key_rejected_with_line_number(tmp_path):
    with pytest.raises(ConfigError, match="volatility"):
        load_config(write(tmp_path, BASE + "volatility = 2\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="sigma"):
        load_config(write(tmp_path, BASE + "sigma = 0.4\n"))


def test_non_numeric_value_rejected(tmp_path):
    with pytest.raises(ConfigError, match="lambda"):
        load_config(write(tmp_path, BASE.replace("lambda = 0.1", "lambda = fast")))


def test_unknown_model_exits_2(tmp_path, capsys):
    bad = BASE.replace("bachelier-capped", "heston")
    assert main(["surface", "--config", write(tmp_path, bad),
                 "--output", str(tmp_path / "s.csv")]) == 2
    assert "model" in capsys.readouterr().err


def test_drift_key_requires_drift_model(tmp_path):
    with pytest.raises(ConfigError, match="drift"):
        load_config(write(tmp_path, BASE + "drift = -0.1\n"))


def test_surface_csv_contract(tmp_path):
    cfg = BASE + "tau_count = 3\nmoney_count = 4\ntau_min = 0.5\nmoney_max = 0.5\n"
    out = tmp_path / "surf.csv"
    assert main(["surface", "--config", write(tmp_path, cfg),
                 "--output", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().split("\n")
    assert lines[0] == "tau,moneyness,rate,rate_ac,rate_extra,relative_increase"
    assert lines[-1] == ""
    assert len(lines) == 2 + 3 * 4  # header + cells + trailing newline

    # one cell against the library, full 17-digit round trip
    costs = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
    kernel = GKernel.from_costs(costs)
    model = CappedBachelier(m0=1.0, sigma=0.5, p_bar=1.0)
    tau, money, rate, rate_ac, rate_extra, rel = map(float, lines[1].split(","))
    assert (tau, money) == (0.5, 0.0)
    st = TargetZoneState(t=1.0 - tau, m=model.p_bar - money, p=model.p_bar - money)
    extra = extra_rate(kernel, costs, model, st)
    assert rate_extra == pytest.approx(extra, rel=1e-15)
    assert rate_ac == pytest.approx(urgency(kernel, 1.0 - tau) * costs.x0, rel=1e-15)
    assert rate == pytest.approx(rate_ac + rate_extra, rel=1e-15)
    assert rel == pytest.approx(rate_extra / rate_ac, rel=1e-15)

    # rerun is byte identical
    out2 = tmp_path / "surf2.csv"
    main(["surface", "--config", write(tmp_path, cfg, "again.cfg"),
          "--output", str(out2)])
    assert out2.read_bytes() == raw


def test_surface_just_below_the_cap(tmp_path):
    # the README example with money_max = 0.01 puts every cell in the band
    # just below the cap, where the uniform-panel rule raised QuadratureError
    cfg = ("model = bachelier-capped\nm0 = 1.0\nsigma = 0.5\np_bar = 1.0\nlambda = 0.1\n"
           "gamma = 1e-5\nbig_gamma = 1e-5\nmoney_max = 0.01\n")
    out = tmp_path / "surf.csv"
    assert main(["surface", "--config", write(tmp_path, cfg), "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 50 * 50
    by_tau = {}
    for tau, money, _, _, extra, _ in rows:
        by_tau.setdefault(tau, []).append((float(money), float(extra)))
    for cells in by_tau.values():
        extra = [e for _, e in sorted(cells)]
        assert all(math.isfinite(e) for e in extra)
        assert all(a > b for a, b in zip(extra, extra[1:]))


def test_simulate_csv_contract(tmp_path):
    cfg = BASE.replace("gamma = 1.0", "gamma = 1e-5").replace(
        "big_gamma = 1.0", "big_gamma = 1e-5")
    cfg += "n_paths = 200\nn_steps = 64\nseed = 9\n"
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", write(tmp_path, cfg),
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "policy,mean,std_error,n_paths,seed"
    assert lines[1].startswith("optimal,") and lines[2].startswith("almgren-chriss,")
    assert lines[1].endswith(",200,9") and lines[2].endswith(",200,9")

    # the almgren-chriss row is the plain estimate of the signal-free policy
    costs = CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0)
    model = CappedBachelier(m0=1.0, sigma=0.5, p_bar=1.0)
    est = estimate_value(model, ac_policy(GKernel.from_costs(costs)), costs,
                         n_paths=200, n_steps=64, master_seed=9)
    assert float(lines[2].split(",")[1]) == pytest.approx(est.mean, rel=1e-15)


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = BASE + "n_paths = 50\nn_steps = 32\n"
    path = write(tmp_path, cfg)
    a, b, c = (str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv"))
    main(["simulate", "--config", path, "--output", a])
    main(["simulate", "--config", path, "--output", b, "--seed", "1"])
    main(["simulate", "--config", path, "--output", c])
    assert open(a).read() != open(b).read()
    assert open(a).read() == open(c).read()


def test_value_csv_martingale_closed_form(tmp_path):
    cfg = """
model = martingale
m0 = 2.0
sigma = 0.5
lambda = 0.1
gamma = 1.0
big_gamma = 1.0
T = 1.0
x0 = 1.0
n_paths = 100
n_steps = 64
"""
    out = tmp_path / "val.csv"
    assert main(["value", "--config", write(tmp_path, cfg),
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p0,x0,v2_0,v1_0,v0_0,v0_se,value,mc_value,mc_se"
    p0, x0, v2_0, v1_0, v0_0, v0_se, value, mc_value, mc_se = map(
        float, lines[1].split(","))
    costs = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
    kernel = GKernel.from_costs(costs)
    assert (p0, x0) == (2.0, 1.0)
    assert v2_0 == pytest.approx(-urgency(kernel, 0.0), rel=1e-15)
    assert v1_0 == 0.0 and v0_0 == 0.0 and v0_se == 0.0
    assert value == pytest.approx(p0 + costs.lam * v2_0, rel=1e-15)
    assert abs(mc_value - value) < 3.0 * mc_se + 2e-2


def test_value_row_is_self_consistent(tmp_path):
    cfg = BASE + "n_paths = 100\nn_steps = 64\nseed = 5\n"
    out = tmp_path / "val0.csv"
    assert main(["value", "--config", write(tmp_path, cfg),
                 "--output", str(out)]) == 0
    row = list(map(float, out.read_text().splitlines()[1].split(",")))
    p0, x0, v2_0, v1_0, v0_0, _, value = row[:7]
    assert v0_0 > 0.0 and v1_0 < 0.0  # capped model: paid optionality
    quad = v0_0 + 2.0 * v1_0 * x0 + v2_0 * x0 * x0
    assert value == pytest.approx(p0 * x0 + 0.1 * quad, rel=1e-12)


def test_value_simulates_and_looks_up_the_signal_once(tmp_path, monkeypatch):
    # v0 and the policy value share one pass: one table build, one lookup per step
    calls = {"_build": 0, "extra_values": 0}
    for name in calls:
        method = getattr(_CappedSignalTable, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(_CappedSignalTable, name, counted)
    n_paths, n_steps = 2100, 16  # two batches of the default 2048 paths
    assert main(["value", "--config", write(tmp_path, BASE), "--output",
                 str(tmp_path / "v.csv"), "--paths", str(n_paths), "--steps", str(n_steps)]) == 0
    assert calls == {"_build": 1, "extra_values": n_steps * 2}


def test_verify_passes_at_moderate_resolution(tmp_path, capsys):
    cfg = """
model = drift
drift = -0.1
m0 = 1.0
lambda = 0.1
gamma = 1.0
big_gamma = 1.0
T = 1.0
x0 = 1.0
n_steps = 400
"""
    assert main(["verify", "--config", write(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    for check in ("trajectory error", "convergence order",
                  "initial rate error", "terminal residual"):
        assert check in out


def test_verify_fails_on_coarse_grid(tmp_path, capsys):
    # 40 steps leave a first-cell rate error of ~2.7e-4, over the 1e-4 gate
    cfg = """
model = martingale
m0 = 1.0
lambda = 0.1
gamma = 1.0
big_gamma = 1.0
T = 1.0
x0 = 1.0
n_steps = 40
"""
    assert main(["verify", "--config", write(tmp_path, cfg)]) == 1
    out = capsys.readouterr().out
    assert "verify: FAIL" in out
    assert "initial rate error" in out


def test_verify_rejects_steps_beyond_oracle_roundoff(tmp_path, monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("solved before checking n_steps")

    monkeypatch.setattr("liqzone.cli.solve_discrete", solve)
    cfg = BASE.replace("model = bachelier-capped", "model = martingale")
    assert main(["verify", "--config", write(tmp_path, cfg), "--steps", str(2**18 + 1)]) == 2
    assert "'n_steps'" in capsys.readouterr().err


def test_verify_rejects_capped_models(tmp_path):
    assert main(["verify", "--config", write(tmp_path, BASE)]) == 2


def test_surface_rejects_uncapped_models(tmp_path):
    cfg = BASE.replace("model = bachelier-capped", "model = martingale")
    assert main(["surface", "--config", write(tmp_path, cfg),
                 "--output", str(tmp_path / "s.csv")]) == 2


def test_invalid_overrides_exit_2(tmp_path):
    path = write(tmp_path, BASE)
    assert main(["simulate", "--config", path, "--output",
                 str(tmp_path / "x.csv"), "--steps", "0"]) == 2
    assert main(["simulate", "--config", path, "--output",
                 str(tmp_path / "x.csv"), "--paths", "1"]) == 2
    assert main(["simulate", "--config", path, "--output",
                 str(tmp_path / "x.csv"), "--seed", "-3"]) == 2


def test_missing_output_named(tmp_path, capsys):
    assert main(["surface", "--config", write(tmp_path, BASE)]) == 2
    assert "output" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path):
    assert main(["surface", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_value_rejects_drift_model(tmp_path, capsys):
    cfg = BASE.replace("model = bachelier-capped", "model = drift") + "drift = -0.1\n"
    assert main(["value", "--config", write(tmp_path, cfg),
                 "--output", str(tmp_path / "v.csv")]) == 2
    assert "model" in capsys.readouterr().err


def test_path_and_step_overrides_reach_simulate(tmp_path):
    flagged, keyed = tmp_path / "flagged.csv", tmp_path / "keyed.csv"
    assert main(["simulate", "--config", write(tmp_path, BASE), "--output", str(flagged),
                 "--paths", "7", "--steps", "16"]) == 0
    cfg = BASE + "n_paths = 7\nn_steps = 16\n"
    assert main(["simulate", "--config", write(tmp_path, cfg, "keyed.cfg"),
                 "--output", str(keyed)]) == 0
    rows = flagged.read_text().splitlines()
    assert [row.split(",")[3] for row in rows[1:]] == ["7", "7"]
    assert flagged.read_bytes() == keyed.read_bytes()  # same paths, same steps


def test_flag_replaces_config_value_before_check(tmp_path):
    path = write(tmp_path, BASE + "n_paths = 1\nn_steps = 0\n")
    assert main(["simulate", "--config", path, "--output", str(tmp_path / "x.csv"),
                 "--paths", "7", "--steps", "16"]) == 0


def test_quadrature_error_exits_1(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise QuadratureError("panel refinement disagrees")

    monkeypatch.setattr("liqzone.cli.rate_surface", fail)
    assert main(["surface", "--config", write(tmp_path, BASE),
                 "--output", str(tmp_path / "s.csv")]) == 1
    assert "numeric failure" in capsys.readouterr().err


def test_bs_m_below_capped_price_exits_2(tmp_path, capsys):
    cfg = BASE.replace("bachelier-capped", "bs-capped") + "bs_m = 0.5\n"
    assert main(["surface", "--config", write(tmp_path, cfg),
                 "--output", str(tmp_path / "s.csv")]) == 2
    assert "bs_m" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["surface", "simulate", "value"])
def test_missing_output_reported_before_any_computation(tmp_path, monkeypatch, capsys,
                                                        command):
    def engine(*args, **kwargs):
        raise AssertionError("ran before checking the output key")

    for name in ("rate_surface", "paired_value_difference", "estimate_v0_and_value",
                 "v1_target_zone"):
        monkeypatch.setattr(f"liqzone.cli.{name}", engine)
    assert main([command, "--config", write(tmp_path, BASE)]) == 2
    assert "'output'" in capsys.readouterr().err


def test_help_describes_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for command in ("surface", "simulate", "value", "verify"):
        described = [line for line in lines if line.split()[:1] == [command]]
        assert described and len(described[0].split()) > 1, command


def test_readme_key_table_matches_accepted_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^\| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert sorted(listed) == sorted(_KEYS)  # each accepted key, once
