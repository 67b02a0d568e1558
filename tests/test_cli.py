"""End-to-end CLI tests: config parsing, CSV contracts, exit codes."""

import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from liqzone import (
    CappedBachelier,
    CostParams,
    DeterministicDrift,
    GKernel,
    QuadratureError,
    TargetZoneState,
    ac_policy,
    extra_rate,
    estimate_value,
    probe_optimality,
    trajectory_from_signal,
    urgency,
)
from liqzone import _csv, cli
from liqzone.cli import _KEYS, _MODELS, ConfigError, _surface_blocks, _write_csv, load_config, main
from liqzone.montecarlo import _STEP_BLOCK
from liqzone.schedule import _positions_from_signal
from liqzone.signals import _CappedSignalTable
import loop_reference
import test_scripts

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


@pytest.mark.parametrize("model, command", [("bachelier-capped", "surface"),
                                            ("martingale", "simulate")])
def test_bs_m_key_requires_bs_capped_model(tmp_path, capsys, model, command):
    # both ran and ignored bs_m: the surface wrote the CSV it writes without it
    cfg = BASE.replace("bachelier-capped", model) + "bs_m = 5\nn_paths = 2\nn_steps = 1\n"
    assert main([command, "--config", write(tmp_path, cfg),
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert "key 'bs_m' requires model = bs-capped" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_csv_row_format_prints_what_the_per_value_format_prints(tmp_path):
    values = [0.0, -0.0, 5e-324, 1e-300, 1e300, math.nan, math.inf, -math.inf,
              0.1, 1.0 / 3.0, -2.5, 2.0**53 + 2.0, 0.020408163265306121, 7.0]
    values += [np.float64(v) for v in values]
    rows = [tuple(values), tuple(reversed(values))]
    path = tmp_path / "rows.csv"
    _write_csv(str(path), "h", [_csv.lines(*_csv.cells(row)) for row in rows])
    want = "h\n" + "".join(",".join(f"{float(v):.17g}" for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("n_tau, n_money", [(4, 5), (1, 7), (6, 1), (1, 1)])
def test_surface_lines_print_what_the_per_row_format_prints(monkeypatch, n_tau, n_money):
    # the CLI's cells are finite (x0 > 0); the builder must print any double
    special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e-300, 1e300,
               0.020408163265306121, 2.0**53 + 2.0, 1.0 / 3.0]
    rng = np.random.default_rng(n_tau * 10 + n_money)

    def draw(*shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        flat = values.reshape(-1)
        flat[::2] = np.resize(rng.permutation(special), flat[::2].size)
        return values

    args = (np.sort(rng.uniform(0.0, 1.0, n_tau)), np.sort(rng.uniform(0.0, 1.0, n_money)),
            draw(n_tau), draw(n_tau, n_money), draw(n_tau, n_money), draw(n_tau, n_money))
    taus, money, rate_ac, *rest = args
    # a RateSurface's rate_ac repeats each tau's value along its row
    surf = SimpleNamespace(taus=taus, moneyness=money,
                           rate_ac=np.repeat(rate_ac[:, None], n_money, axis=1),
                           **dict(zip(("rate", "rate_extra", "relative_increase"), rest)))
    want = "".join(line + "\n" for line in loop_reference.surface_lines(*args)).encode()
    # a block of one tau row, of a few rows, and the whole surface
    for cells in (1, 2 * n_money, cli._CSV_CELLS):
        monkeypatch.setattr(cli, "_CSV_CELLS", cells)
        assert b"".join(_surface_blocks(surf)) == want


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
    # v0 and the policy value share one pass: one table build, one set of
    # step rows for the call, and one lookup per block of steps and batch
    calls = {"_build": 0, "step_rows": 0, "block_values": 0}
    for name in calls:
        method = getattr(_CappedSignalTable, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(_CappedSignalTable, name, counted)
    n_paths, n_steps = 2100, 20  # two batches of the default 2048 paths
    assert main(["value", "--config", write(tmp_path, BASE), "--output",
                 str(tmp_path / "v.csv"), "--paths", str(n_paths), "--steps", str(n_steps)]) == 0
    blocks = -(-n_steps // _STEP_BLOCK)
    assert blocks == 3
    assert calls == {"_build": 1, "step_rows": 1, "block_values": blocks * 2}


@pytest.mark.parametrize("seed", [1, 2])
def test_probe_csv_equals_the_library_probe(tmp_path, capsys, seed):
    # small costs, 2100 paths: the probe fails at 16 steps and passes at 1024
    # (the step-count bias of probe_optimality's docstring); either way the
    # CSV holds the library's numbers, direction-major
    cfg = BASE.replace("gamma = 1.0", "gamma = 1e-5").replace(
        "big_gamma = 1.0", "big_gamma = 1e-5")
    costs = CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0)
    model = CappedBachelier(m0=1.0, sigma=0.5, p_bar=1.0)
    for n_steps, code in ((16, 1), (1024, 0)):
        out = tmp_path / f"probe{n_steps}.csv"
        assert main(["probe", "--config", write(tmp_path, cfg), "--output", str(out),
                     "--paths", "2100", "--steps", str(n_steps), "--seed", str(seed)]) == code
        verdict = capsys.readouterr().out.splitlines()
        assert len(verdict) == 1 and verdict[0].startswith(("probe: PASS", "probe: FAIL")[code])
        probe = probe_optimality(model, GKernel.from_costs(costs), costs, 2100, n_steps, seed)
        lines = out.read_text().splitlines()
        assert lines[0] == "direction,epsilon,mean_gain,std_error,margin"
        rows = np.array([list(map(float, line.split(","))) for line in lines[1:]])
        n_directions, n_eps = probe.mean_gain.shape
        assert rows.shape == (n_directions * n_eps, 5)
        assert (rows[:, 0] == np.repeat(np.arange(n_directions), n_eps)).all()
        assert (rows[:, 1] == np.tile(probe.epsilons, n_directions)).all()
        for column, values in zip(rows[:, 2:].T, (probe.mean_gain, probe.std_error,
                                                  probe.margins)):
            assert (column == values.ravel()).all()


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


@pytest.mark.parametrize("model", ["martingale", "drift"])
def test_verify_positions_equal_the_trajectorys(tmp_path, monkeypatch, capsys, model):
    # verify forms the closed-form positions alone; on every rung they are
    # trajectory_from_signal's, which also forms the rates
    calls = []

    def recording(kernel, x0, v1_curve, grid):
        positions = _positions_from_signal(kernel, x0, v1_curve, grid)
        calls.append((kernel, x0, v1_curve, grid, positions))
        return positions

    monkeypatch.setattr(cli, "_positions_from_signal", recording)
    cfg = BASE.replace("model = bachelier-capped", f"model = {model}")
    if model == "drift":
        cfg += "drift = -0.1\n"
    assert main(["verify", "--config", write(tmp_path, cfg)]) == 0
    assert "verify: PASS" in capsys.readouterr().out
    assert [grid.size for *_, grid, _ in calls] == [41, 410, 4097]
    for kernel, x0, v1_curve, grid, positions in calls:
        assert np.array_equal(positions,
                              trajectory_from_signal(kernel, x0, v1_curve, grid).positions)


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


@pytest.mark.parametrize("costs, steps", [
    ("lambda = 1.0\ngamma = 0.3\nbig_gamma = 7.0", 2**18),
    ("lambda = 0.1\ngamma = 1e-5\nbig_gamma = 1e-5", 2**19),
], ids=["lambda_1_at_2^18", "small_costs_at_2^19"])
def test_verify_passes_on_fine_ladders(tmp_path, capsys, costs, steps):
    # the oracle keeps first order down to the finest steps of the ladder
    cfg = BASE.replace("model = bachelier-capped", "model = martingale").replace(
        "lambda = 0.1\ngamma = 1.0\nbig_gamma = 1.0", costs)
    assert main(["verify", "--config", write(tmp_path, cfg), "--steps", str(steps)]) == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_verify_checks_the_models_own_drift_curve(tmp_path, monkeypatch, capsys):
    # a drift model whose a(t) is not the constant drift key: the oracle must
    # optimize against the model's price path, as the closed form does.  At
    # lambda 0.1 the slope a'(T) = 2 leaves an O(delta^2) terminal residual
    # (3e-6 at 4096 steps) that only extrapolating through every rung removes
    def build(cfg):
        return DeterministicDrift(times=[0.0, 0.5, 1.0], values=[0.5, -0.5, 0.5], p0=cfg.m0)

    monkeypatch.setitem(_MODELS, "drift", _MODELS["drift"]._replace(build=build))
    for lam in ("1.0", "0.1"):
        cfg = BASE.replace("model = bachelier-capped", "model = drift").replace(
            "lambda = 0.1", f"lambda = {lam}")
        assert main(["verify", "--config", write(tmp_path, cfg)]) == 0
        assert "verify: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("steps", [["--steps", "40"], []], ids=["40", "default"])
def test_verify_of_an_exact_ladder_reports_an_infinite_order(tmp_path, steps):
    # at gamma = 1e300 every rung's positions equal the closed form's, so the
    # finest trajectory error is exactly 0 and the order's ratio has no value
    cfg = BASE.replace("model = bachelier-capped", "model = martingale").replace(
        "gamma = 1.0", "gamma = 1e300", 1)
    done = test_scripts._run("-m", "liqzone.cli", "verify", "--config", write(tmp_path, cfg),
                             *steps)
    assert done.returncode in (0, 1) and done.stderr == ""
    assert re.search(r"^convergence order +inf  \(>= 0\.9\)  PASS$", done.stdout, re.MULTILINE)
    assert re.search(r"^verify: (PASS|FAIL) ", done.stdout.splitlines()[-1])


@pytest.mark.parametrize("n_steps", [1, 2, 19])
def test_verify_rejects_too_few_steps_naming_the_key(tmp_path, capsys, n_steps):
    # the ladder n / 100, n / 10, n needs two rungs of at least 2 steps
    cfg = BASE.replace("model = bachelier-capped", "model = martingale")
    assert main(["verify", "--config", write(tmp_path, cfg), "--steps", str(n_steps)]) == 2
    captured = capsys.readouterr()
    assert "key 'n_steps' must be >= 20 for verify" in captured.err
    assert captured.out == ""


def test_verify_rejects_capped_models(tmp_path):
    assert main(["verify", "--config", write(tmp_path, BASE)]) == 2


def test_surface_rejects_uncapped_models(tmp_path):
    cfg = BASE.replace("model = bachelier-capped", "model = martingale")
    assert main(["surface", "--config", write(tmp_path, cfg),
                 "--output", str(tmp_path / "s.csv")]) == 2


# configs every subcommand's check admits, but whose surface grid is empty of
# cells or runs past T; the surface names the keys that make it so
DEGENERATE_SURFACES = {
    "short_horizon_defaults": ("T = 1.0", "T = 0.01", ("'tau_min'", "'tau_max'", "'tau_count'")),
    "equal_taus": ("x0 = 1.0", "x0 = 1.0\ntau_min = 0.5\ntau_max = 0.5\ntau_count = 3",
                   ("'tau_min'", "'tau_max'", "'tau_count'")),
    "equal_moneyness": ("x0 = 1.0", "x0 = 1.0\nmoney_min = 0.3\nmoney_max = 0.3\nmoney_count = 3",
                        ("'money_min'", "'money_max'", "'money_count'")),
    "tau_max_past_horizon": ("x0 = 1.0", "x0 = 1.0\ntau_max = 1.0000000000005", ("'tau_max'",)),
}


@pytest.mark.parametrize("case", DEGENERATE_SURFACES)
def test_surface_names_the_keys_of_a_degenerate_grid(tmp_path, capsys, case):
    old, new, keys = DEGENERATE_SURFACES[case]
    path = write(tmp_path, BASE.replace(old, new))
    assert main(["surface", "--config", path, "--output", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    for key in keys:
        assert key in err
    assert not (tmp_path / "s.csv").exists()
    # the other subcommands do not read the surface keys and still accept them
    sim = BASE.replace(old, new).replace("bachelier-capped", "martingale")
    assert main(["simulate", "--config", write(tmp_path, sim), "--paths", "4", "--steps", "4",
                 "--output", str(tmp_path / "sim.csv")]) == 0


def test_invalid_overrides_exit_2(tmp_path):
    path = write(tmp_path, BASE)
    assert main(["simulate", "--config", path, "--output",
                 str(tmp_path / "x.csv"), "--steps", "0"]) == 2
    assert main(["simulate", "--config", path, "--output",
                 str(tmp_path / "x.csv"), "--paths", "1"]) == 2
    assert main(["simulate", "--config", path, "--output",
                 str(tmp_path / "x.csv"), "--seed", "-3"]) == 2


def test_sigma_is_checked_by_the_model(tmp_path, capsys):
    # a martingale at sigma = 0 is the exact case and the drift model ignores
    # sigma; a capped model needs sigma > 0 and its check names the key
    out = tmp_path / "sim.csv"
    flat = BASE.replace("sigma = 0.5", "sigma = 0")
    mart = flat.replace("bachelier-capped", "martingale")
    assert main(["simulate", "--config", write(tmp_path, mart), "--paths", "4", "--steps", "8",
                 "--output", str(out)]) == 0
    assert [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]] == [0.0, 0.0]
    drift = flat.replace("bachelier-capped", "drift") + "drift = -0.1\nn_steps = 400\n"
    assert main(["verify", "--config", write(tmp_path, drift)]) == 0
    assert "verify: PASS" in capsys.readouterr().out
    for model in ("bachelier-capped", "bs-capped"):
        capped = flat.replace("bachelier-capped", model)
        assert main(["simulate", "--config", write(tmp_path, capped),
                     "--output", str(out)]) == 2
        assert re.search(r"config error: sigma must", capsys.readouterr().err)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow behind the sample
@pytest.mark.parametrize("case, sample", [
    (("sigma = 0.5", "sigma = 1e-300"), "nan"),  # the signal table's weights are 0 / 0
    (("x0 = 1.0", "x0 = 1e300"), "-inf"),
], ids=["sigma-1e-300", "x0-1e300"])
@pytest.mark.parametrize("command", ["simulate", "value", "probe"])
def test_non_finite_monte_carlo_sample_exits_1_without_a_csv(tmp_path, capsys, command, case,
                                                             sample):
    cfg = BASE.replace(*case) + "n_paths = 64\nn_steps = 32\n"
    out = tmp_path / "out.csv"
    assert main([command, "--config", write(tmp_path, cfg), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"numeric failure: path 0 of 64 (seed 0) gives the non-finite "
                            f"Monte Carlo sample {sample}\n")
    assert captured.out == "" and not out.exists()


def test_bs_m_below_capped_price_exits_2(tmp_path, capsys):
    cfg = BASE.replace("bachelier-capped", "bs-capped") + "bs_m = 0.5\n"
    assert main(["surface", "--config", write(tmp_path, cfg),
                 "--output", str(tmp_path / "s.csv")]) == 2
    assert "bs_m" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["surface", "simulate", "value", "probe"])
def test_missing_output_reported_before_any_computation(tmp_path, monkeypatch, capsys,
                                                        command):
    def engine(*args, **kwargs):
        raise AssertionError("ran before checking the output key")

    for name in ("rate_surface", "paired_value_difference", "estimate_v0_and_value",
                 "v1_target_zone", "probe_optimality"):
        monkeypatch.setattr(f"liqzone.cli.{name}", engine)
    assert main([command, "--config", write(tmp_path, BASE)]) == 2
    assert "'output'" in capsys.readouterr().err


def test_help_describes_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for command in ("surface", "simulate", "value", "verify", "probe"):
        described = [line for line in lines if line.split()[:1] == [command]]
        assert described and len(described[0].split()) > 1, command


# the -h text at COLUMNS=80, frozen: the shared parser prints what one built per call did
TOP_HELP = """\
usage: liqzone [-h] {surface,simulate,verify,value,probe} ...

Optimal liquidation schedules under price caps: surfaces, simulation,
optimality probes, verification and values.

positional arguments:
  {surface,simulate,verify,value,probe}
    surface             Write the optimal-rate surface on the tau x moneyness
                        grid (capped models), tau-major.
    simulate            Write the simulated values of the optimal and signal-
                        free policies.
    verify              Check the closed-form schedule against the discrete
                        optimizer (exit 1 on failure).
    value               Write the closed-form value next to the simulated
                        value of the policy.
    probe               Write the goal changes of perturbed optimal controls
                        (exit 1 if any gains).

options:
  -h, --help            show this help message and exit
"""

# each subcommand's -h text; pad widens the usage's second line under the name
SUB_HELP = """\
usage: liqzone {name} [-h] --config CONFIG [--output OUTPUT] [--seed SEED]
               {pad} [--paths PATHS] [--steps STEPS]

options:
  -h, --help       show this help message and exit
  --config CONFIG  key=value config file
  --output OUTPUT  output path (overrides the config's output key)
  --seed SEED      master seed override
  --paths PATHS    Monte Carlo path count override
  --steps STEPS    time step count override
"""


@pytest.mark.parametrize("command", ["top", *cli._COMMANDS])
def test_help_text_at_80_columns(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["-h"] if command == "top" else [command, "-h"])
    assert exc.value.code == 0
    expected = TOP_HELP if command == "top" else SUB_HELP.format(name=command,
                                                                pad=" " * len(command))
    assert capsys.readouterr().out == expected


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_one_process_prints_and_writes_what_fresh_processes_do(tmp_path, monkeypatch, capsys):
    # main shares one parser between calls: after a help exit, a usage error
    # and other subcommands, each run prints and writes what it does alone in
    # a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")
    surface = write(tmp_path, BASE + "tau_count = 5\nmoney_count = 4\n", "surface.cfg")
    drift = write(tmp_path, BASE.replace("bachelier-capped", "drift") +
                  "drift = -0.1\nn_steps = 400\n", "drift.cfg")
    runs = [
        (["surface", "--config", surface], True, 0),
        (["-h"], False, 0),
        (["surface", "--config", surface, "--seed", "x"], False, 2),
        (["verify", "--config", drift], False, 0),
        (["simulate", "--config", surface, "--paths", "64", "--steps", "32"], True, 0),
        (["surface", "--config", surface], True, 0),
    ]
    for i, (argv, writes, code) in enumerate(runs):
        fresh, shared = tmp_path / f"fresh{i}.csv", tmp_path / f"shared{i}.csv"
        done = test_scripts._run("-m", "liqzone.cli", *argv,
                                 *(["--output", fresh] if writes else []))
        try:
            status = main(argv + (["--output", str(shared)] if writes else []))
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        assert status == code, argv
        assert (status, captured.out, captured.err) == (done.returncode, done.stdout,
                                                        done.stderr), argv
        if writes:
            assert shared.read_bytes() == fresh.read_bytes(), argv


def test_readme_key_table_matches_accepted_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^\| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert sorted(listed) == sorted(_KEYS)  # each accepted key, once
