"""scipy loads where it runs: fresh-interpreter import and value tests.

Each test runs a short program in a new interpreter with PYTHONPATH=src,
as tests/test_scripts.py runs the README's examples, so the modules the
test process has already imported cannot hide an import.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from liqzone import (
    CappedBlackScholes,
    CostParams,
    GKernel,
    bachelier_lookback_price,
    bs_theta,
    rate_surface,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCIPY_LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"

CONFIG = """
model = bachelier-capped
m0 = 1.0
sigma = 0.5
p_bar = 1.05
lambda = 0.1
gamma = 1.0
big_gamma = 1.0
n_paths = 64
n_steps = 8
tau_count = 3
money_count = 3
"""


def _run(program: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(program)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_scipy_out():
    out = _run(f"""
        import sys
        import liqzone, liqzone.cli
        print({SCIPY_LOADED})
    """)
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", ["simulate", "value", "surface", "probe"])
def test_bachelier_commands_leave_scipy_out(command, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    # at CONFIG's 8 steps a probe may find a gain (exit 1); the check is the import
    codes = (0, 1) if command == "probe" else (0,)
    out = _run(f"""
        import sys
        from liqzone.cli import main
        assert main([{command!r}, "--config", {str(cfg)!r},
                     "--output", {str(tmp_path / "out.csv")!r}]) in {codes!r}
        print({SCIPY_LOADED})
    """)
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "out.csv").read_text().count("\n") > 1


def test_verify_leaves_scipy_out(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = martingale\nm0 = 1.0\nlambda = 0.1\ngamma = 1.0\nbig_gamma = 1.0\n"
                   "n_steps = 400\n")
    out = _run(f"""
        import sys
        from liqzone.cli import main
        assert main(["verify", "--config", {str(cfg)!r}]) == 0
        print({SCIPY_LOADED})
    """)
    assert out.strip().endswith("verify: PASS (n = 4, 40, 400)\n[]")


def _values():
    """Floats of every function that loads scipy at first use."""
    costs = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
    model = CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.05)
    surf = rate_surface(GKernel.from_costs(costs), costs, model, [0.5], [0.05], x=1.0, bs_m=1.0)
    return {
        "bs_theta": bs_theta(0.3, 1.2, 0.9, 0.5, 1.05),
        "lookback": bachelier_lookback_price(0.3, 0.1, 0.5),
        "bs_cell": float(surf.rate_extra[0, 0]),
    }


def test_first_use_values_equal_in_a_fresh_interpreter():
    # json prints floats by repr, which reads back to the same double
    out = _run(f"""
        import json, sys
        sys.path.insert(0, {str(ROOT / "tests")!r})
        from test_imports import _values
        print(json.dumps(_values()))
    """)
    assert json.loads(out) == _values()
